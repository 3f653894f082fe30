"""Unit tests for propagation and trajectory diagnostics.

Fixed expectations computed by hand: qubit rotations from the sigma_y
propagator [[cos t, -sin t], [sin t, cos t]], trace norms of diagonal
differences by summing absolute eigenvalues, and the flat unit speed of a
maximal-speed qubit transfer.
"""

import gc
import math

import numpy as np
import pytest

from optevo import (
    DensityMatrix,
    DimensionMismatchError,
    FoldExceededError,
    PureState,
    QuasiPureSpec,
    StationaryStateError,
    Trajectory,
    Units,
    density_arrival_time,
    fidelity,
    first_arrival_time,
    fs_distance,
    fs_speed_profile,
    geodesic_defect,
    optimal_family_sample,
    optimal_hamiltonian,
    projector,
    propagate,
    propagate_density,
    quasi_pure,
    sample_trajectory,
    subspace_leakage,
    trace_distance,
)
from optevo import evolution, numerics, verification
from optevo.evolution import _density_scan
from optevo.numerics import STRUCTURAL_TOL
from optevo.quantum_states import _states_of
from optevo.sampling import random_hermitian, random_pure_state, random_unitary
from optevo.verification import run_suite
from scans import TABLE, Case, build, search, torus_unitary
from scans import _fixed_spread, _quasi_pure, _quasi_pure_pair
from scans import _random_density, _reference_density_arrival

ATOL = 1e-12
FLAT_TOL = 1e-6


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
TILTED = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
LEAKY = np.array(
    [[0.0, 1.0, 0.7], [1.0, 0.0, 1.0], [0.7, 1.0, 0.5]], dtype=complex
)

KET0 = PureState.basis_state(2, 0)
KET1 = PureState.basis_state(2, 1)


class TestPropagation:
    def test_quarter_turn_reaches_orthogonal(self):
        out = propagate(SIGMA_Y, KET0, np.pi / 2.0)
        assert np.allclose(out.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_action_scale(self):
        out = propagate(SIGMA_Y, KET0, np.pi, Units(hbar=2.0))
        assert fidelity(out, KET1) == pytest.approx(1.0, abs=ATOL)

    def test_density_conjugation_matches_pure(self):
        rho_t = propagate_density(SIGMA_Y, projector(KET0), 0.8)
        phi_t = propagate(SIGMA_Y, KET0, 0.8)
        assert np.linalg.norm(rho_t.matrix - projector(phi_t).matrix) < 1e-12

    def test_dimension_gates(self):
        with pytest.raises(DimensionMismatchError):
            propagate(np.eye(3), KET0, 1.0)
        with pytest.raises(DimensionMismatchError):
            propagate_density(np.eye(3), projector(KET0), 1.0)


class TestTrajectory:
    def test_sampling_matches_pointwise_propagation(self, rng):
        times = np.linspace(0.0, 2.0, 9)
        traj = sample_trajectory(SIGMA_Y, KET0, times)
        assert traj.kind == "pure"
        for t, state in zip(times, traj.states):
            direct = propagate(SIGMA_Y, KET0, t)
            assert fidelity(state, direct) == pytest.approx(1.0, abs=ATOL)

    def test_density_sampling(self):
        times = np.linspace(0.0, 1.0, 5)
        traj = sample_trajectory(SIGMA_Y, projector(KET0), times)
        assert traj.kind == "density"
        direct = propagate_density(SIGMA_Y, projector(KET0), times[-1])
        assert np.linalg.norm(traj.states[-1].matrix - direct.matrix) < 1e-12

    def test_rejects_raw_arrays(self):
        with pytest.raises(TypeError):
            sample_trajectory(SIGMA_Y, np.array([1.0, 0.0]), np.linspace(0, 1, 3))

    def test_equality_goes_by_identity(self):
        times = np.linspace(0.0, 1.0, 3)
        a = sample_trajectory(SIGMA_Y, KET0, times)
        b = sample_trajectory(SIGMA_Y, KET0, times)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_rejects_descending_times(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 0.5]), np.tile(KET0.amplitudes, (3, 1)))

    def test_rejects_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Trajectory(np.array([0.0, 1.0]), KET0.amplitudes[None])

    @pytest.mark.parametrize(
        "samples",
        [(KET0, KET1), (KET0, projector(KET0)), [KET0.amplitudes], [[1.0, 0.0]], ()],
        ids=["states", "mixed-states", "list-of-arrays", "nested-lists", "empty-tuple"],
    )
    def test_rejects_sequences(self, samples):
        times = np.arange(float(len(samples)))
        with pytest.raises(TypeError, match=r"^samples must be a numpy array, \(T, n\)"):
            Trajectory(times, samples)

    def test_empty_kind(self):
        # The kind comes from the samples' rank, with or without samples.
        assert Trajectory(np.array([]), np.empty((0, 3))).kind == "pure"
        assert Trajectory(np.array([]), np.empty((0, 3, 3))).kind == "density"
        traj = sample_trajectory(SIGMA_Y, KET0, np.array([]))
        assert (traj.kind, traj.samples.shape) == ("pure", (0, 2))

    def test_keeps_no_generator(self):
        # The generator is not part of a trajectory: writing into it later
        # cannot change what the trajectory reports.
        h = SIGMA_Y.copy()
        traj = sample_trajectory(h, KET0, [0.0, 0.5])
        before = traj.samples.tobytes()
        h[0, 1] = 7.0
        assert not hasattr(traj, "hamiltonian")
        assert traj.samples.tobytes() == before

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([np.nan]), KET0.amplitudes[None])

    @pytest.mark.parametrize("times", [[np.nan], [0.0, np.inf]])
    def test_sampling_rejects_nonfinite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            sample_trajectory(SIGMA_Z, KET0, times)

    def test_array_input_is_copied(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        traj = Trajectory(np.array([0.0, 1.0]), samples)
        samples[0, 0] = 0.0
        assert traj.samples[0, 0] == 1.0

    def test_read_only_input_is_kept(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        samples.flags.writeable = False
        traj = Trajectory(np.array([0.0, 1.0]), samples)
        assert traj.samples is samples
        assert not sample_trajectory(SIGMA_Y, KET0, [0.0, 1.0]).samples.flags.writeable

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 4), (3, 2, 2, 2), (3, 0), (3, 0, 0)])
    def test_rejects_bad_sample_shapes(self, shape):
        with pytest.raises(DimensionMismatchError, match="with n >= 1"):
            Trajectory(np.arange(3.0), np.ones(shape, dtype=complex))

    def test_names_the_denormalized_sample(self):
        samples = np.tile(KET0.amplitudes, (5, 1))
        samples[3] *= 1.5
        with pytest.raises(ValueError, match=r"^sample 3: state norm 1\.5 is not 1"):
            Trajectory(np.arange(5.0), samples)

    def test_names_the_first_nonhermitian_sample(self):
        samples = np.tile(np.eye(2, dtype=complex) / 2.0, (4, 1, 1))
        samples[2, 0, 1] = 0.5
        samples[3, 1, 0] = 0.5
        with pytest.raises(ValueError, match=r"^sample 2: density matrix is not Hermitian"):
            Trajectory(np.arange(4.0), samples)

    def test_names_the_negative_sample(self):
        samples = np.tile(np.eye(2, dtype=complex) / 2.0, (4, 1, 1))
        samples[1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"^sample 1: negative eigenvalue -0\.5"):
            Trajectory(np.arange(4.0), samples)


class TestStates:
    @pytest.mark.parametrize("density", [False, True])
    def test_built_once_read_only_and_bit_equal(self, density):
        start = projector(KET0) if density else KET0
        traj = sample_trajectory(SIGMA_Y, start, np.linspace(0.0, 1.0, 7))
        states = traj.states
        assert traj.states is states
        assert len(states) == 7
        for row, state in zip(traj.samples, states):
            array = state.matrix if density else state.amplitudes
            assert type(state) is (DensityMatrix if density else PureState)
            assert bit_equal(array, row)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_states_act_as_states(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, np.pi / 2.0, 3))
        assert traj.states[-1].n == 2
        assert fidelity(traj.states[-1], KET1) == pytest.approx(1.0, abs=ATOL)
        assert abs(traj.states[0].overlap(KET0)) == pytest.approx(1.0, abs=ATOL)

    def test_empty(self):
        assert Trajectory(np.array([]), np.empty((0, 2))).states == ()

    @pytest.mark.parametrize("density", [False, True])
    def test_collector_state_is_restored(self, collector, density):
        start = projector(KET0) if density else KET0
        assert len(sample_trajectory(SIGMA_Y, start, np.linspace(0.0, 1.0, 5)).states) == 5
        assert gc.isenabled() is collector

    def test_no_collection_while_states_are_built(self, collections_in):
        # 4001 states and their dicts, built with the collector running,
        # set off a dozen collections. The one young pass they are owed
        # starts at the first allocation after ``_states_of``: at most that
        # pass runs inside the property, where cached_property releases
        # its lock.
        rng = np.random.default_rng(2029)
        phi, psi = random_pure_state(rng, 32), random_pure_state(rng, 32)
        traj = sample_trajectory(optimal_hamiltonian(phi, psi, 1.0), phi, np.linspace(0.0, 3.0, 4001))
        started, states = collections_in(lambda: _states_of(traj.samples))
        assert started == []
        assert len(states) == 4001
        started, states = collections_in(lambda: traj.states)
        assert started in ([], [0])
        assert len(states) == 4001


class TestSpeedProfile:
    def test_flat_unit_speed(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, 1.4, 141))
        profile = fs_speed_profile(traj)
        assert np.max(np.abs(profile - 1.0)) < FLAT_TOL

    def test_doubled_generator_doubles_speed(self):
        traj = sample_trajectory(2.0 * SIGMA_Y, KET0, np.linspace(0.0, 0.7, 141))
        profile = fs_speed_profile(traj)
        assert np.max(np.abs(profile - 2.0)) < 2.0 * FLAT_TOL

    def test_suboptimal_stays_below_spectral_rate(self):
        traj = sample_trajectory(TILTED, KET0, np.linspace(0.0, 0.5, 51))
        profile = fs_speed_profile(traj)
        assert np.max(profile) <= np.sqrt(2.0) + FLAT_TOL

    def test_fold_window_rejected(self):
        # The final sample sits exactly on the distance fold at pi/2.
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, np.pi / 2.0, 5))
        with pytest.raises(FoldExceededError):
            fs_speed_profile(traj)

    def test_rejects_nonuniform_grid(self):
        traj = Trajectory(np.array([0.0, 0.1, 0.3]), np.tile(KET0.amplitudes, (3, 1)))
        with pytest.raises(ValueError):
            fs_speed_profile(traj)

    def test_rejects_short_grid(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, 0.1, 2))
        with pytest.raises(ValueError):
            fs_speed_profile(traj)

    def test_rejects_density_trajectory(self):
        traj = sample_trajectory(SIGMA_Y, projector(KET0), np.linspace(0.0, 1.0, 5))
        with pytest.raises(TypeError):
            fs_speed_profile(traj)


def _kinked_trajectory():
    """Two geodesic legs of length 0.5 with a right-angle corner."""
    e1, e2, e3 = (PureState.basis_state(3, k) for k in range(3))
    h1 = optimal_hamiltonian(e1, e2, 1.0)
    leg1_times = np.linspace(0.0, 0.5, 6)
    states = [propagate(h1, e1, t) for t in leg1_times]
    corner = states[-1]
    h2 = optimal_hamiltonian(corner, e3, 1.0)
    leg2_times = np.linspace(0.1, 0.5, 5)
    states += [propagate(h2, corner, t) for t in leg2_times]
    times = np.concatenate([leg1_times, 0.5 + leg2_times])
    return Trajectory(times, np.array([s.amplitudes for s in states]))


class TestGeodesicDefect:
    def test_geodesic_has_no_defect(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, 1.4, 15))
        defect = geodesic_defect(traj)
        assert -1e-10 <= defect < FLAT_TOL

    @pytest.mark.parametrize("n", [8, 32])
    def test_long_synthesized_geodesic_stays_at_roundoff(self, rng, n):
        phi, psi = random_pure_state(rng, n), random_pure_state(rng, n)
        h = optimal_hamiltonian(phi, psi, 1.0)
        traj = sample_trajectory(h, phi, np.linspace(0.0, 1.5, 4001))
        assert -1e-13 <= geodesic_defect(traj) < FLAT_TOL

    @pytest.mark.parametrize("seed", [4, 6])
    def test_suite_sign_check_passes(self, seed):
        results = {r.name: r for r in run_suite("evolution", 100, seed)}
        assert results["geodesic-defect-sign"].passed

    def test_suite_reports_signed_defect(self, monkeypatch):
        # The sampled trajectories take the patched defects; the singleton
        # and the kinked path, assembled from samples, keep their real ones.
        sampled, defects = [], iter([-5e-11, 1e-15])
        sample, real = verification.sample_trajectory, verification.geodesic_defect
        monkeypatch.setattr(
            verification, "sample_trajectory", lambda *a: sampled.append(sample(*a)) or sampled[-1]
        )
        monkeypatch.setattr(
            verification,
            "geodesic_defect",
            lambda traj: next(defects) if traj in sampled else real(traj),
        )
        row = verification.check_geodesic_defect_sign(np.random.default_rng(1), 2, 4)
        assert row.passed
        assert row.max_residual == -5e-11

    def test_singleton_trajectory(self):
        traj = Trajectory(np.array([0.0]), KET0.amplitudes[None])
        assert geodesic_defect(traj) == 0.0

    def test_corner_produces_defect(self):
        assert geodesic_defect(_kinked_trajectory()) > 0.01

    def test_fold_guard(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, 1.6, 17))
        with pytest.raises(FoldExceededError):
            geodesic_defect(traj)


class TestSubspaceLeakage:
    def test_optimal_motion_stays_in_plane(self, rng):
        e1 = PureState.basis_state(4, 0)
        psi = PureState.from_vector([1.0, 1.0, 1.0, 0.5])
        h = optimal_hamiltonian(e1, psi, 1.0)
        traj = sample_trajectory(h, e1, np.linspace(0.0, 3.0, 31))
        assert subspace_leakage(traj, e1, psi) < 1e-10

    def test_generic_motion_leaks(self):
        e1, e2 = PureState.basis_state(3, 0), PureState.basis_state(3, 1)
        traj = sample_trajectory(LEAKY, e1, np.linspace(0.0, 2.0, 41))
        assert subspace_leakage(traj, e1, e2) > 0.01

    def test_coincident_frame_degenerates_to_ray(self):
        traj = sample_trajectory(SIGMA_Z, KET0, np.linspace(0.0, 2.0, 11))
        assert subspace_leakage(traj, KET0, KET0) < 1e-10

    def test_dimension_gate(self):
        traj = sample_trajectory(SIGMA_Y, KET0, np.linspace(0.0, 1.0, 5))
        with pytest.raises(DimensionMismatchError):
            subspace_leakage(traj, KET0, PureState.basis_state(3, 0))

    def test_zero_samples(self):
        # No sample leaves the plane; the other diagnostics keep their
        # answers for fewer than two and three samples.
        traj = sample_trajectory(SIGMA_Y, KET0, [])
        assert subspace_leakage(traj, KET0, KET1) == 0.0
        assert geodesic_defect(traj) == 0.0
        with pytest.raises(ValueError, match="at least three"):
            fs_speed_profile(traj)
        with pytest.raises(DimensionMismatchError):
            subspace_leakage(traj, KET0, PureState.basis_state(3, 0))


def _reference_samples(h, state, times, hbar):
    """The per-sample loop sample_trajectory ran before it was batched."""
    w, v = numerics.herm_eig(h)
    rows = []
    if isinstance(state, PureState):
        start = v.conj().T @ state.amplitudes
        for t in times:
            phases = np.exp(-1j * w * (float(t) / hbar))
            rows.append(v @ (phases * start))
    else:
        start = v.conj().T @ state.matrix @ v
        for t in times:
            phases = np.exp(-1j * w * (float(t) / hbar))
            rows.append(v @ (start * np.outer(phases, phases.conj())) @ v.conj().T)
    return np.array(rows)


def _reference_diagnostics(samples, dt, phi, psi):
    """Speed profile, geodesic defect and leakage as they were computed
    before they became array expressions: one fs_distance per pair of
    validated states, and one projection per sample."""
    states = [PureState(row) for row in samples]
    dist = np.array([fs_distance(states[0], s) for s in states])
    profile = (dist[2:] - dist[:-2]) / (2.0 * dt)
    segments = [fs_distance(a, b) for a, b in zip(states[:-1], states[1:])]
    defect = float(np.sum(segments)) - fs_distance(states[0], states[-1])
    first = phi.amplitudes
    rest = psi.amplitudes - first * np.vdot(first, psi.amplitudes)
    frame = [first, rest / float(np.linalg.norm(rest))]
    leak = 0.0
    for state in states:
        out = state.amplitudes.copy()
        for q in frame:
            out -= q * np.vdot(q, out)
        leak = max(leak, float(np.linalg.norm(out)))
    return profile, defect, leak


def _quasi_pure_density(rng, n):
    frame = random_unitary(rng, n)
    p1 = float(rng.uniform(0.3, 0.95))
    spec = QuasiPureSpec(
        p1, (1.0 - p1) / (n - 1), tuple(PureState(frame[:, j]) for j in range(n))
    )
    return quasi_pure(spec)


class TestBatchedAgainstReference:
    """The batched sampler and the array diagnostics against the per-sample
    forms they replaced, on the trajectory benchmark's kinds of input."""

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_pure(self, n, hbar):
        rng = np.random.default_rng([n, int(hbar)])
        phi, psi = random_pure_state(rng, n), random_pure_state(rng, n)
        energy = float(rng.uniform(0.5, 2.0))
        h = optimal_family_sample(phi, psi, energy, int(rng.integers(2**32)))
        times = np.linspace(0.0, 0.8 * (np.pi / 2.0) * hbar / energy, 4001)
        traj = sample_trajectory(h, phi, times, Units(hbar=hbar))
        want = _reference_samples(h, phi, times, hbar)
        assert np.max(np.abs(traj.samples - want)) <= 1e-14 * n
        profile, defect, leak = _reference_diagnostics(want, times[1], phi, psi)
        assert np.max(np.abs(fs_speed_profile(traj) - profile)) <= 1e-9
        assert abs(geodesic_defect(traj) - defect) <= 1e-13
        assert abs(subspace_leakage(traj, phi, psi) - leak) <= 1e-14

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_density(self, n, hbar):
        rng = np.random.default_rng([n, int(hbar), 1])
        rho = _quasi_pure_density(rng, n)
        h = random_hermitian(rng, n)
        times = np.linspace(0.0, 0.8 * np.pi / 2.0, 1001)
        traj = sample_trajectory(h, rho, times, Units(hbar=hbar))
        want = _reference_samples(h, rho, times, hbar)
        assert np.max(np.abs(traj.samples - want)) <= 1e-14 * n


class TestDensityArrival:
    def test_trace_distance_oracle(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(2.0, abs=ATOL)
        assert trace_distance(a, a) == pytest.approx(0.0, abs=ATOL)

    def test_trace_distance_dimension_gate(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(
                DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.eye(3) / 3.0)
            )

    def test_quasi_pure_qubit_arrival(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        target = DensityMatrix(np.diag([0.3, 0.7]))
        t = density_arrival_time(SIGMA_Y, rho, target, 10.0)
        assert t == pytest.approx(np.pi / 2.0, abs=1e-7)

    @pytest.mark.parametrize("horizon", [10.0, 300.0, 1e3, 3e3, 1e4, 1e5])
    def test_first_arrival_at_long_horizons(self, horizon):
        # A golden-section tolerance of 1e-10 * horizon left the V-shaped
        # trace distance above threshold from horizon 1000 on, skipping to
        # 3 pi / 2 and later arrivals.
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        target = DensityMatrix(np.diag([0.1, 0.9]))
        t = density_arrival_time(SIGMA_Y, rho, target, horizon)
        assert t == pytest.approx(np.pi / 2.0, abs=1e-9)

    def test_commuting_generator_never_arrives(self, record_scans):
        # [H, rho] = 0: the density never moves, so t = 0 decides it.
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        target = DensityMatrix(np.diag([0.3, 0.7]))
        scans = record_scans
        assert density_arrival_time(SIGMA_Z, rho, target, 50.0) is None
        assert (scans[0]["grid_points"], scans[0]["chunks"]) == (0, 0)
        assert scans[0]["evaluations"] == 1

    def test_commuting_generator_at_target_is_stationary(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        h = np.diag([0.4, 0.1, -0.2, -0.3]).astype(complex)
        with pytest.raises(StationaryStateError):
            density_arrival_time(h, rho, rho, 50.0)

    def test_early_arrival_stops_after_one_chunk(self, record_scans):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        target = DensityMatrix(np.diag([0.3, 0.7]))
        scans = record_scans
        assert density_arrival_time(SIGMA_Y, rho, target, 1e4) == pytest.approx(
            np.pi / 2.0, abs=1e-9
        )
        assert scans[0]["chunks"] == 1
        assert scans[0]["evaluated"] <= numerics._SCAN_CHUNK // 2

    def test_one_eigendecomposition_for_both_scans(self, record_eigh):
        # A quasi-pure density arrives with its distinguished state; both
        # scans of one generator share its one eigh. The density scan takes
        # one more per density to recognize the quasi-pure pair, and no
        # eigvalsh.
        rng = np.random.default_rng(61)
        frame = random_unitary(rng, 5)
        spec = QuasiPureSpec(0.8, 0.05, tuple(PureState(frame[:, j]) for j in range(5)))
        h = _fixed_spread(rng, 5)
        rho, phi = quasi_pure(spec), spec.basis[0]
        target, psi = propagate_density(h, rho, 0.4), propagate(h, phi, 0.4)
        calls = record_eigh()
        numerics.herm_eig(h)
        density_t = density_arrival_time(h, rho, target, 3.0)
        assert calls == ["eigh"] * 3
        pure_t = first_arrival_time(h, phi, psi, 3.0)
        assert calls == ["eigh"] * 3
        assert density_t == pytest.approx(pure_t, abs=1e-7)

    def test_rejects_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(DimensionMismatchError):
            density_arrival_time(np.eye(3), rho, rho, 1.0)


class TestAgainstReferenceScan:
    def test_near_miss_targets_decide_as_the_reference(self):
        # A passage of a full-rank density pushed off the orbit by a random
        # traceless E with |E|_1 below the threshold 1e-8. The refinement
        # minimizes the Frobenius distance, the reference the trace
        # distance; off the orbit the two minimizers differ, by a few
        # |E|_1 / v in time at most, v = |[H, rho]|_1 / hbar being the
        # speed of both distances.
        for k in range(60):
            n, hbar = (2, 3, 4, 8)[k % 4], (1.0, 2.0)[k // 4 % 2]
            rng = np.random.default_rng([k, 83])
            h = _fixed_spread(rng, n)
            rho = _random_density(rng, n, np.arange(1.0, n + 1.0))
            scale = hbar / (2.0 * math.sqrt(n))
            t_star = float(rng.uniform(1.0, 3.0)) * scale
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            e = (g + g.conj().T) / 2.0
            e -= np.trace(e) / n * np.eye(n)
            size = 10.0 ** rng.uniform(-10.0, -8.0)
            e *= size / np.sum(np.abs(np.linalg.eigvalsh(e)))
            moved = propagate_density(h, rho, t_star, Units(hbar=hbar)).matrix
            target, horizon = DensityMatrix(moved + e), 1.3 * t_star + 0.5 * scale
            got = density_arrival_time(h, rho, target, horizon, Units(hbar=hbar))
            want, _, _ = _reference_density_arrival(h, rho, target, horizon, hbar)
            assert got is not None and want is not None, k
            speed = np.sum(np.abs(np.linalg.eigvalsh(1j * (h @ rho.matrix - rho.matrix @ h))))
            assert abs(got - want) <= 2.0 * size * hbar / speed + 1e-11, k


class TestDensityScreen:
    def test_minimum_just_below_gate(self, record_scans):
        # At t0 the difference is c (|a><a| - |b><b|): rank two, so its
        # Frobenius norm is as large as a trace-norm gap allows, 1/sqrt(2) of
        # the trace norm 2c, here just below the gate; the nearest grid point
        # misses t0 and reads a little more.
        rng = np.random.default_rng(43)
        h = _fixed_spread(rng, 4)
        rho = _random_density(rng, 4, [0.4, 0.3, 0.2, 0.1])
        moved = propagate_density(h, rho, 5.0).matrix
        _, frame = np.linalg.eigh(moved)
        a, b = frame[:, 0], frame[:, 3]
        c = 0.475 * 5e-2
        target = DensityMatrix(moved + c * (np.outer(a, a.conj()) - np.outer(b, b.conj())))
        scans = record_scans
        got = density_arrival_time(h, rho, target, 10.0)
        want, refined, lowest = _reference_density_arrival(
            h, rho, target, 10.0, step=scans[0]["step"]
        )
        assert 0.95 * 5e-2 < lowest <= 5e-2
        assert got is None and want is None
        assert scans[0]["refined"] == refined > 0

    @pytest.mark.parametrize(
        "case",
        [Case("full-rank", target, 6, horizon=200.0) for target in ("miss", "torus")]
        + [c for c in TABLE if c == Case("full-rank", c.target, c.n) and c.n in (3, 8)],
        ids=str,
    )
    def test_scan_diagonalizes_no_grid_row(self, monkeypatch, record_scans, case):
        # The only eigvalsh calls are on single n x n matrices: the
        # commutator's trace norm, then the judge's, once per refined minimum.
        # The long miss is decided by its floor; its torus twin evaluates
        # grid values.
        built = build(case)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        scans = record_scans
        assert (search(case, built) is None) == (case.target != "hit")
        assert shapes == [(case.n, case.n)] * (1 + scans[0]["evaluations"])
        if case.horizon is not None:
            assert scans[0]["grid_points"] > 10_000
            assert (scans[0]["evaluated"] > 0) == (case.target == "torus")


@pytest.fixture
def record_frobenius(monkeypatch):
    """Patch the Frobenius scan to record each call; returns the list of
    calls."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _density_scan(*args)

    monkeypatch.setattr(evolution, "_density_scan", recording)
    return calls


class TestQuasiPureRoute:
    @pytest.mark.parametrize("above", [True, False])
    @pytest.mark.parametrize("gap", [0.5, 1e-3, 1e-6])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 32, 64])
    def test_matches_frobenius_scan(self, n, gap, above, monkeypatch, record_scans):
        # A hit and a miss at two hbar, on H and on H + 1e4 |H|_F I: the ray
        # search decides as the Frobenius scan, on the same grid, and takes
        # no eigvalsh. At |p1 - p2| = 1e-6 the shifted generator's speed is
        # under the stationary floor, which grows with |H|_F: both scans
        # return None at t = 0.
        gap = gap if above else min(gap, 0.5 / (n - 1))
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        scans = record_scans
        for k, (hbar, kind) in enumerate([(1.0, "hit"), (2.0, "hit"), (1.0, "miss"), (2.0, "miss")]):
            rng = np.random.default_rng([n, k, int(above), round(-math.log10(gap))])
            rho, other = (
                _quasi_pure(random_pure_state(rng, n).amplitudes, gap if above else -gap)
                for _ in range(2)
            )
            h = _fixed_spread(rng, n)
            units, scale = Units(hbar=hbar), hbar / (2.0 * math.sqrt(n))
            t_star = float(rng.uniform(1.0, 3.0)) * scale
            if kind == "hit":
                target = propagate_density(h, rho, t_star, units)
                horizon = 1.3 * t_star + 0.5 * scale
            else:
                target, horizon = other, 10.0 * scale
            for shift in (0.0, 1e4 * float(np.linalg.norm(h))):
                g = h + shift * np.eye(n)
                scans.clear()
                shapes.clear()
                got = density_arrival_time(g, rho, target, horizon, units)
                assert not shapes
                want = _density_scan(g, rho, target, horizon, units)
                routed, frobenius = scans
                assert (got is None) == (want is None), (hbar, kind, shift)
                if not shift:
                    assert (got is None) == (kind == "miss"), (hbar, kind)
                if got is not None:
                    assert abs(got - want) <= 1e-9, (hbar, kind, shift)
                # The Frobenius speed is an eigvalsh of a commutator whose
                # entries are of size |p1 - p2|, so it is good to about
                # eps / |p1 - p2| relative (8e-10 seen at 1e-6, n <= 64).
                assert routed["grid_points"] == frobenius["grid_points"]
                assert routed["step"] == pytest.approx(frobenius["step"], rel=1e-13 / gap)

    def test_angle_screen_skips_cells_on_misses(self, record_scans):
        # Ten misses at n = 8, horizon 300, under generators of half-spread
        # 2 sqrt(n). Random targets: the floor decides nine, and the ten
        # evaluate 1.5 % of their grid points. Targets on the start's torus
        # (floor 0): screened on the ray angle, they evaluate 43 %. Screened
        # on sqrt 2 |p1 - p2| sin theta in Frobenius units, where a cell
        # spans 1.8, the random misses evaluated 57 %.
        for torus in (False, True):
            rng = np.random.default_rng(20)
            record_scans.clear()
            for _ in range(10):
                rho, target = _quasi_pure_pair(rng, 8)
                h = _fixed_spread(rng, 8)
                if torus:
                    u = torus_unitary(rng, h)
                    target = DensityMatrix(u @ rho.matrix @ u.conj().T)
                assert density_arrival_time(h, rho, target, 300.0) is None
            assert len(record_scans) == 10
            evaluated = sum(scan["evaluated"] for scan in record_scans)
            assert evaluated < 0.5 * sum(scan["grid_points"] for scan in record_scans)
            assert sum(scan["screened"] for scan in record_scans) > 0
            assert sum(scan["chunks"] == 0 for scan in record_scans) == (0 if torus else 9)

    @pytest.mark.parametrize("case", ["spectra-differ", "full-rank", "split"])
    def test_other_pairs_take_the_frobenius_scan(self, case, record_frobenius):
        # A passage whose target's spectrum is mixed 1e-9 towards I / n, a
        # full-rank passage, and a quasi-pure spectrum whose (n - 1)-fold
        # eigenvalue is split by 1e-9: each is the Frobenius scan's, bit for
        # bit.
        n = 5
        rng = np.random.default_rng([59, ("spectra-differ", "full-rank", "split").index(case)])
        h = _fixed_spread(rng, n)
        spectrum = {
            "spectra-differ": [0.6] + [0.1] * 4,
            "full-rank": np.arange(1.0, n + 1.0),
            "split": [0.6, 0.1 + 1e-9, 0.1, 0.1, 0.1],
        }[case]
        rho = _random_density(rng, n, spectrum)
        target = propagate_density(h, rho, 0.4).matrix
        if case == "spectra-differ":
            target = (1.0 - 1e-9) * target + 1e-9 * np.eye(n) / n
        got = density_arrival_time(h, rho, DensityMatrix(target), 3.0)
        want = _density_scan(h, rho, DensityMatrix(target), 3.0)
        assert len(record_frobenius) == 1
        assert got is not None and got == want

    @pytest.mark.parametrize("closest", [1e-8, 1e-4])
    @pytest.mark.parametrize("n", [3, 8])
    def test_threshold_keeps_its_meaning(self, n, closest, record_frobenius):
        # phi lies in the span of H's first n - 1 eigenvectors, and so does
        # its orbit; the target ray leans off phi(t0) by alpha towards the
        # last one, so the trace distance is least at t0, where it is
        # 2 |p1 - p2| sin alpha = ``closest``. A threshold 5 % above arrives
        # there, 5 % below never does.
        rng = np.random.default_rng([73, n])
        w, v = np.linalg.eigh(_fixed_spread(rng, n))
        h = (v * w) @ v.conj().T
        phi = v[:, :-1] @ random_pure_state(rng, n - 1).amplitudes
        gap, t0 = 0.5, 0.7
        alpha = math.asin(closest / (2.0 * gap))
        psi = math.cos(alpha) * propagate(h, PureState(phi), t0).amplitudes
        psi += math.sin(alpha) * v[:, -1]
        rho, target = _quasi_pure(phi, gap), _quasi_pure(psi, gap)
        for factor, arrives in ((1.05, True), (0.95, False)):
            got = density_arrival_time(h, rho, target, 2.0, threshold=factor * closest)
            want = _density_scan(h, rho, target, 2.0, threshold=factor * closest)
            assert (got is not None) == (want is not None) == arrives, factor
            if arrives:
                assert abs(got - t0) <= 1e-9 and abs(want - t0) <= 1e-9
        assert len(record_frobenius) == 0

    def test_stationary_pair(self, record_frobenius):
        # The distinguished ray is an eigenvector of H: the pair never moves,
        # and t = 0 decides it.
        rng = np.random.default_rng(67)
        frame = random_unitary(rng, 3)
        h = (frame * np.array([1.0, -0.5, 2.0])) @ frame.conj().T
        basis = [PureState(frame[:, j]) for j in range(3)]
        rho = quasi_pure(QuasiPureSpec(0.6, 0.2, basis))
        other = quasi_pure(QuasiPureSpec(0.6, 0.2, basis[1::-1] + basis[2:]))
        with pytest.raises(StationaryStateError):
            density_arrival_time(h, rho, rho, 10.0)
        assert density_arrival_time(h, rho, other, 10.0) is None
        assert not record_frobenius

    @pytest.mark.parametrize(
        "case", ["one-spectrum", "upper-defect", "other-purity", "same-purity"]
    )
    def test_target_eigh_only_at_equal_purity(self, case, record_eigh):
        # Against rho of spectrum (0.6, 0.1, 0.1, 0.1, 0.1), purity 0.4, a
        # target of one spectrum is factorized and routed, also when its
        # upper triangle, which eigh does not read, carries a Hermiticity
        # defect of 0.7 STRUCTURAL_TOL |target|_F (its |target|_F^2 then
        # moves by 1.9e-11); one of another purity is turned away before
        # its eigh; one of purity 0.4 but another spectrum is factorized and
        # turned away.
        rng = np.random.default_rng(97)
        p = (1.7 + math.sqrt(1.7**2 + 16 * 0.41)) / 8.0  # 4 p^2 - 1.7 p - 0.41 = 0
        spectrum = {
            "other-purity": [0.7] + [0.075] * 4,
            "same-purity": [p, 0.15] + [(0.85 - p) / 3.0] * 3,
        }.get(case, [0.6] + [0.1] * 4)
        rho = _random_density(rng, 5, [0.6] + [0.1] * 4)
        target = _random_density(rng, 5, spectrum)
        if case == "upper-defect":
            upper = np.triu(target.matrix, 1)
            scale = 0.5 * STRUCTURAL_TOL * np.linalg.norm(target.matrix) / np.linalg.norm(upper)
            target = DensityMatrix(target.matrix + scale * upper)
        calls = record_eigh()
        rays = evolution._quasi_pure_rays(rho, target)
        assert (rays is not None) == (case in ("one-spectrum", "upper-defect"))
        assert calls == ["eigh"] * (1 if case == "other-purity" else 2)
