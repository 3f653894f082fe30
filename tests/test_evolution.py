"""Unit tests for propagation and trajectory diagnostics.

Fixed expectations computed by hand: qubit rotations from the sigma_y
propagator [[cos t, -sin t], [sin t, cos t]], trace norms of diagonal
differences by summing absolute eigenvalues, and the flat unit speed of a
maximal-speed qubit transfer.
"""

import math
import tracemalloc

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
from optevo.sampling import random_hermitian, random_pure_state, random_unitary
from optevo.verification import run_suite
from reference_refinement import refine
from torus import torus_unitary

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
            Trajectory(np.array([0.0, 1.0, 0.5]), (KET0, KET0, KET0), None)

    def test_rejects_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Trajectory(np.array([0.0, 1.0]), (KET0,), None)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            Trajectory(np.array([0.0, 1.0]), (KET0, projector(KET0)), None)

    def test_empty_kind(self):
        assert Trajectory(np.array([]), (), None).kind == "empty"
        assert Trajectory(np.array([]), np.empty((0, 3, 3)), None).kind == "empty"

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([np.nan]), (KET0,), None)

    @pytest.mark.parametrize("times", [[np.nan], [0.0, np.inf]])
    def test_sampling_rejects_nonfinite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            sample_trajectory(SIGMA_Z, KET0, times)

    def test_samples_from_states(self):
        traj = Trajectory(np.array([0.0, 1.0]), (KET0, KET1), None)
        assert bit_equal(traj.samples, np.array([KET0.amplitudes, KET1.amplitudes]))
        assert not traj.samples.flags.writeable

    def test_array_input_is_copied(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        traj = Trajectory(np.array([0.0, 1.0]), samples, None)
        samples[0, 0] = 0.0
        assert traj.samples[0, 0] == 1.0

    def test_read_only_input_is_kept(self):
        samples = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        samples.flags.writeable = False
        traj = Trajectory(np.array([0.0, 1.0]), samples, None)
        assert traj.samples is samples
        assert not sample_trajectory(SIGMA_Y, KET0, [0.0, 1.0]).samples.flags.writeable

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 4), (3, 2, 2, 2)])
    def test_rejects_bad_sample_shapes(self, shape):
        with pytest.raises(DimensionMismatchError):
            Trajectory(np.arange(3.0), np.ones(shape, dtype=complex), None)

    def test_names_the_denormalized_sample(self):
        samples = np.tile(KET0.amplitudes, (5, 1))
        samples[3] *= 1.5
        with pytest.raises(ValueError, match=r"^sample 3: state norm 1\.5 is not 1"):
            Trajectory(np.arange(5.0), samples, None)

    def test_names_the_first_nonhermitian_sample(self):
        samples = np.tile(np.eye(2, dtype=complex) / 2.0, (4, 1, 1))
        samples[2, 0, 1] = 0.5
        samples[3, 1, 0] = 0.5
        with pytest.raises(ValueError, match=r"^sample 2: density matrix is not Hermitian"):
            Trajectory(np.arange(4.0), samples, None)

    def test_names_the_negative_sample(self):
        samples = np.tile(np.eye(2, dtype=complex) / 2.0, (4, 1, 1))
        samples[1] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"^sample 1: negative eigenvalue -0\.5"):
            Trajectory(np.arange(4.0), samples, None)


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
        assert Trajectory(np.array([]), (), None).states == ()


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
        traj = Trajectory(np.array([0.0, 0.1, 0.3]), (KET0, KET0, KET0), None)
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
    return Trajectory(times, tuple(states), None)


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
        # Synthesized samples carry their generator; the singleton and the
        # kinked path have none and keep their real defect.
        defects = iter([-5e-11, 1e-15])
        real = verification.geodesic_defect
        monkeypatch.setattr(
            verification,
            "geodesic_defect",
            lambda traj: real(traj) if traj.hamiltonian is None else next(defects),
        )
        row = verification.check_geodesic_defect_sign(np.random.default_rng(1), 2, 4)
        assert row.passed
        assert row.max_residual == -5e-11

    def test_singleton_trajectory(self):
        traj = Trajectory(np.array([0.0]), (KET0,), None)
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

    def test_rejects_bad_horizon(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            density_arrival_time(SIGMA_Y, rho, rho, -1.0)

    def test_rejects_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(DimensionMismatchError):
            density_arrival_time(np.eye(3), rho, rho, 1.0)


def _reference_density_arrival(h, rho, target, horizon, hbar=1.0, threshold=1e-8, step=None):
    """The density search without its Frobenius screen: the trace norm at
    every point of a grid of the given step, by default 0.01 hbar /
    delta_e_max as before the step followed ||[H, rho]||_1, the same gated
    local-minimum test, and the former refinement: golden section and a
    parabolic polish of the trace norm itself. Its phases come straight
    from the grid times, so its grid values match the streamed scan's to
    rounding. Returns the time, the minima refined and the smallest grid
    value."""
    w, v = numerics.herm_eig(h)
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v

    def norms(phases):
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        return np.sum(np.abs(np.linalg.eigvalsh(rotated - goal)), axis=1)

    def distance(t):
        return float(norms(np.exp(-1j * w * (t / hbar))[None, :])[0])

    if step is None:
        step = 0.01 * hbar / (float(w[-1] - w[0]) / 2.0)
    count = max(math.ceil(horizon / step), 8)
    dt = horizon / count
    times = np.arange(count + 1) * dt
    rows = [np.exp(-1j * np.outer(times[i : i + 256], w) / hbar) for i in range(0, count + 1, 256)]
    vals = np.append(np.concatenate([norms(phases) for phases in rows]), np.inf)
    gate = max(100.0 * threshold, 5e-2)
    refined = 0
    for i in range(1, count + 1):
        if not vals[i] <= min(vals[i - 1], vals[i + 1], gate):
            continue
        refined += 1
        lo, hi = (i - 1) * dt, (i + 1) * dt if i + 1 < count else horizon
        tol = max(1e-10 * (hi - lo), 4.0 * float(np.spacing(hi)))
        t_min, f_min = refine(distance, lo, hi, tol, step)
        if f_min <= threshold and t_min > 0.0:
            return min(t_min, horizon), refined, float(vals.min())
    return None, refined, float(vals.min())


def _random_density(rng, n, spectrum):
    u = random_unitary(rng, n)
    return DensityMatrix((u * (np.asarray(spectrum) / np.sum(spectrum))) @ u.conj().T)


def _quasi_pure_density(rng, n):
    frame = random_unitary(rng, n)
    p1 = float(rng.uniform(0.3, 0.95))
    spec = QuasiPureSpec(
        p1, (1.0 - p1) / (n - 1), tuple(PureState(frame[:, j]) for j in range(n))
    )
    return quasi_pure(spec)


def _fixed_spread(rng, n):
    h = random_hermitian(rng, n)
    w = np.linalg.eigvalsh(h)
    return h * (2.0 * math.sqrt(n) / (float(w[-1] - w[0]) / 2.0))


def _screen_cases():
    rng = np.random.default_rng(41)
    cases = {}
    h = _fixed_spread(rng, 4)
    rho = _random_density(rng, 4, [0.5, 0.3, 0.15, 0.05])
    other = _random_density(rng, 4, [0.1, 0.2, 0.3, 0.4])
    cases["full-rank-hit"] = (h, rho, propagate_density(h, rho, 7.3), 20.0, 1.0)
    # Two percent of another density mixed into rho at t = 4.1: the distance
    # dips below the gate there but not to the threshold.
    near = 0.98 * propagate_density(h, rho, 4.1).matrix + 0.02 * other.matrix
    cases["full-rank-near"] = (h, rho, DensityMatrix(near), 20.0, 1.0)
    cases["full-rank-miss"] = (h, rho, other, 20.0, 1.0)
    a, b = _quasi_pure_density(rng, 6), _quasi_pure_density(rng, 6)
    cases["quasi-pure-miss"] = (_fixed_spread(rng, 6), a, b, 30.0, 1.0)
    h6 = _fixed_spread(rng, 6)
    arrived = propagate_density(h6, a, 9.0, Units(hbar=2.0))
    cases["quasi-pure-hit-hbar2"] = (h6, a, arrived, 30.0, 2.0)
    return cases


SCREEN_CASES = _screen_cases()
DENSITY_KINDS = ("full-rank-hit", "quasi-pure-hit", "miss", "near-gate")


def _density_case(kind, n, hbar):
    """Seeded generator, densities and horizon of one kind of density
    search: a full-rank and a quasi-pure passage, a target of another
    spectrum (never reached), and the 2 % mix of one into a passage, whose
    distance minimum sits between the threshold and the gate."""
    rng = np.random.default_rng([n, int(hbar), DENSITY_KINDS.index(kind)])
    h = _fixed_spread(rng, n)
    scale = hbar / (2.0 * math.sqrt(n))  # hbar / delta_e_max
    if kind == "quasi-pure-hit":
        rho = _quasi_pure_density(rng, n)
    else:
        rho = _random_density(rng, n, np.arange(1.0, n + 1.0))
    other = _random_density(rng, n, np.arange(1.0, n + 1.0) ** 2)
    if kind == "miss":
        return h, rho, other, 10.0 * scale
    t_star = float(rng.uniform(1.0, 3.0)) * scale
    moved = propagate_density(h, rho, t_star, Units(hbar=hbar))
    if kind == "near-gate":
        moved = DensityMatrix(0.98 * moved.matrix + 0.02 * other.matrix)
    return h, rho, moved, 1.3 * t_star + 0.5 * scale


class TestAgainstReferenceScan:
    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("kind", DENSITY_KINDS)
    def test_matches_reference_scan(self, kind, n, hbar):
        h, rho, target, horizon = _density_case(kind, n, hbar)
        got = density_arrival_time(h, rho, target, horizon, Units(hbar=hbar))
        want, refined, _ = _reference_density_arrival(h, rho, target, horizon, hbar)
        assert (got is None) == (want is None) == kind.endswith(("miss", "gate"))
        if got is not None:
            assert abs(got - want) <= 1e-9
        if kind == "near-gate":
            assert refined > 0

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_newton_steps_per_minimum(self, record_scans, record_newton, hbar):
        # Newton on the squared Frobenius distance lands within tolerance in
        # three steps; the trace norm is taken once per refined minimum.
        scans = record_scans
        for kind in DENSITY_KINDS:
            for n in (2, 3, 4, 8, 16, 32):
                h, rho, target, horizon = _density_case(kind, n, hbar)
                _density_scan(h, rho, target, horizon, Units(hbar=hbar))
        assert len(record_newton) == sum(s["refined"] for s in scans) >= 18
        assert sum(record_newton) == sum(s["newton_steps"] for s in scans)
        assert max(record_newton) == 3
        assert all(s["evaluations"] == s["refined"] for s in scans)

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_shifted_generator_keeps_the_arrival(self, hbar):
        for kind in DENSITY_KINDS:
            for n in (2, 3, 8, 32):
                h, rho, target, horizon = _density_case(kind, n, hbar)
                units = Units(hbar=hbar)
                want = density_arrival_time(h, rho, target, horizon, units)
                shifted = h + 1e4 * float(np.linalg.norm(h)) * np.eye(n)
                got = density_arrival_time(shifted, rho, target, horizon, units)
                assert (got is None) == (want is None), (kind, n)
                if got is not None:
                    assert abs(got - want) <= 1e-9, (kind, n)

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


def _torus_twin(case, seed):
    """A case's generator, start and horizon, with the start turned on the
    generator's torus as the target: its floor is 0, so the scan streams
    the whole grid."""
    h, rho, _, horizon, hbar = case
    u = torus_unitary(np.random.default_rng(seed), h)
    return h, rho, DensityMatrix(u @ rho.matrix @ u.conj().T), horizon, hbar


# The screen's cases, and each kind of density search at two sizes; each
# miss has a torus twin.
COVER_CASES = {
    **SCREEN_CASES,
    **{
        f"{kind}-n{n}": (*_density_case(kind, n, 1.0), 1.0)
        for kind in DENSITY_KINDS
        for n in (3, 8)
    },
}
COVER_CASES.update(
    {
        name.replace("miss", "torus"): _torus_twin(case, k)
        for k, (name, case) in enumerate(sorted(COVER_CASES.items()))
        if "miss" in name
    }
)


class TestDensityScreen:
    @pytest.mark.parametrize("chunk", [1 << 15, 64])
    @pytest.mark.parametrize("name", sorted(COVER_CASES))
    def test_candidates_cover_the_trace_norm_scan(self, name, chunk, monkeypatch, record_scans):
        # The scan's candidates are the Frobenius distance's minima at most
        # the gate. Since ||D||_F <= ||D||_1 they are at least as many as
        # the trace-norm minima at most the gate on the same grid, and the
        # search decides alike. A quasi-pure pair of one spectrum scans its
        # rays, where the distance is ||D||_F itself. The Frobenius scan's
        # step is 0.02 hbar / ||[H, rho]||_1, and the ray search takes its
        # grid. A target of another spectrum, or a random ray, sits above
        # the gate at every t: its floor decides it before any phase row.
        # Its torus twin has floor 0 and streams every chunk.
        h, rho, target, horizon, hbar = COVER_CASES[name]
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", chunk)
        scans = record_scans
        got = density_arrival_time(h, rho, target, horizon, Units(hbar=hbar))
        _density_scan(h, rho, target, horizon, Units(hbar=hbar))
        scan, frobenius = scans
        want, refined, _ = _reference_density_arrival(
            h, rho, target, horizon, hbar, step=scan["step"]
        )
        assert (got is None) == (want is None) == ("hit" not in name)
        if got is not None:
            assert abs(got - want) <= 1e-9
        assert scan["refined"] >= refined
        if "miss" in name:
            assert (scan["chunks"], scan["evaluated"], scan["refined"]) == (0, 0, 0)
            assert scan["screened"] > 0
        else:
            assert scan["chunks"] > (1 if chunk == 64 else 0)
        if "torus" in name:
            assert scan["floor"] < 1e-6
        commutator = 1j * (h @ rho.matrix - rho.matrix @ h)
        assert frobenius["step"] == pytest.approx(
            0.02 * hbar / np.sum(np.abs(np.linalg.eigvalsh(commutator))), rel=1e-12
        )
        assert scan["grid_points"] == frobenius["grid_points"]
        assert scan["step"] == pytest.approx(frobenius["step"], rel=1e-12)

    def test_cases_cover_each_outcome(self):
        outcomes = {
            name: _reference_density_arrival(h, rho, target, horizon, hbar)
            for name, (h, rho, target, horizon, hbar) in SCREEN_CASES.items()
        }
        assert outcomes["full-rank-hit"][0] is not None
        assert outcomes["quasi-pure-hit-hbar2"][0] is not None
        assert outcomes["full-rank-near"][0] is None and outcomes["full-rank-near"][1] > 0
        assert all(outcomes[k][1] == 0 for k in ("full-rank-miss", "quasi-pure-miss"))

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
        "kind, n",
        [("long-miss", 6), ("long-torus", 6)] + [(k, n) for k in DENSITY_KINDS for n in (3, 8)],
    )
    def test_scan_diagonalizes_no_grid_row(self, monkeypatch, record_scans, kind, n):
        # The only eigvalsh calls are on single n x n matrices: the
        # commutator's trace norm, then the judge's, once per refined minimum.
        # The long miss is decided by its floor; its torus twin evaluates
        # grid values.
        if kind.startswith("long"):
            rng = np.random.default_rng(47)
            h = _fixed_spread(rng, n)
            rho, target = _quasi_pure_density(rng, n), _quasi_pure_density(rng, n)
            if kind == "long-torus":
                u = torus_unitary(rng, h)
                target = DensityMatrix(u @ rho.matrix @ u.conj().T)
            horizon = 200.0
        else:
            h, rho, target, horizon = _density_case(kind, n, 1.0)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        scans = record_scans
        arrival = _density_scan(h, rho, target, horizon)
        assert (arrival is None) == kind.endswith(("miss", "gate", "torus"))
        assert shapes == [(n, n)] * (1 + scans[0]["evaluations"])
        if kind.startswith("long"):
            assert scans[0]["grid_points"] > 10_000
            assert (scans[0]["evaluated"] > 0) == (kind == "long-torus")

    def test_memory_bounded_on_miss(self, record_scans):
        # Two quasi-pure densities of two spectra (the floor decides), and the
        # start with a target on its torus, scanned by the Frobenius scan.
        rng = np.random.default_rng(53)
        h = _fixed_spread(rng, 32)
        rho, target = _quasi_pure_density(rng, 32), _quasi_pure_density(rng, 32)
        u = torus_unitary(rng, h)
        for goal in (target, DensityMatrix(u @ rho.matrix @ u.conj().T)):
            tracemalloc.start()
            try:
                arrival = _density_scan(h, rho, goal, 30.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert arrival is None
            # Chunks of (rows, n, n) matrices peaked near 35 MB at n = 32.
            assert peak < 8e6
        assert [scan["chunks"] for scan in record_scans] == [0, 2]

    @staticmethod
    def full_rank_long_miss():
        """An n = 64 full-rank pair of two spectra, horizon 3000: 8e5 grid
        points, the Frobenius distance between 0.129 and 0.135 throughout."""
        rng = np.random.default_rng(79)
        h = _fixed_spread(rng, 64)
        rho = _random_density(rng, 64, np.arange(1.0, 65.0))
        target = _random_density(rng, 64, np.arange(1.0, 65.0) ** 2)
        numerics.herm_eig(h)
        return rng, h, rho, target

    def test_floor_decides_full_rank_long_miss(self, record_scans):
        # sqrt(||S||^2 + ||G||^2 - 2 sum |M_jk|) = 0.072 clears the gate
        # 0.05: no phase row is built.
        _, h, rho, target = self.full_rank_long_miss()
        scans = record_scans
        assert density_arrival_time(h, rho, target, 3000.0) is None
        cells = (scans[0]["grid_points"] - 1) // numerics._SCAN_BLOCK + 1
        assert scans[0]["grid_points"] > 500_000 and 0.07 < scans[0]["floor"] < 0.129
        assert (scans[0]["chunks"], scans[0]["evaluated"], scans[0]["screened"]) == (0, 0, cells)

    def test_memory_bounded_on_full_rank_long_miss(self, record_scans):
        # The same start and a target on its torus: floor 0, and nearly
        # every cell live; after a first chunk of 3 cells the second
        # screens the other 6365 at once. Its cell ends read in one piece
        # traced 14 MB; in slices of _SCAN_CHUNK phase entries the peak is
        # near 2.5 MB.
        rng, h, rho, _ = self.full_rank_long_miss()
        u = torus_unitary(rng, h)
        target = DensityMatrix(u @ rho.matrix @ u.conj().T)
        scans = record_scans
        tracemalloc.start()
        try:
            arrival = density_arrival_time(h, rho, target, 3000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arrival is None and scans[0]["chunks"] == 2
        assert scans[0]["grid_points"] > 500_000 and scans[0]["floor"] == 0.0
        assert scans[0]["evaluated"] > 0.99 * scans[0]["grid_points"]
        assert peak < 8e6

    @pytest.mark.parametrize("kind", ["quasi-pure", "full-rank"])
    def test_arrival_in_the_second_chunk(self, kind, record_scans):
        # At n = 8 the first chunk holds 31 cells of 128 steps; a passage
        # 5000 steps out is found in the second, as the trace-norm reference
        # finds it, by the ray search (a quasi-pure pair of one spectrum) and
        # by the Frobenius scan.
        rng = np.random.default_rng([89, kind == "full-rank"])
        h = _fixed_spread(rng, 8)
        if kind == "quasi-pure":
            rho = _one_spectrum_pair(rng, 8, 0.5, True)[0]
        else:
            rho = _random_density(rng, 8, np.arange(1.0, 9.0))
        commutator = 1j * (h @ rho.matrix - rho.matrix @ h)
        t_star = 5000 * 0.02 / np.sum(np.abs(np.linalg.eigvalsh(commutator)))
        target = propagate_density(h, rho, t_star)
        scans = record_scans
        got = density_arrival_time(h, rho, target, 1.5 * t_star)
        frobenius = _density_scan(h, rho, target, 1.5 * t_star)
        want, _, _ = _reference_density_arrival(
            h, rho, target, 1.5 * t_star, step=scans[1]["step"]
        )
        assert abs(want - t_star) <= 1e-9
        assert abs(got - want) <= 1e-9 and abs(frobenius - want) <= 1e-9
        assert [scan["chunks"] for scan in scans] == [2, 2]


def _one_spectrum_pair(rng, n, gap, above):
    """Two quasi-pure densities of one spectrum, |p1 - p2| = gap, with p1
    above 1/n or below it, on random frames."""
    p2 = (1.0 - gap) / n if above else (1.0 + gap) / n
    p1 = p2 + gap if above else p2 - gap
    frames = random_unitary(rng, n), random_unitary(rng, n)
    return [
        quasi_pure(QuasiPureSpec(p1, p2, tuple(PureState(f[:, j]) for j in range(n))))
        for f in frames
    ]


def _quasi_pure_pair(rng, n):
    """Two quasi-pure densities of one spectrum on random frames, as the
    arrival-scan benchmark draws them: distinguished rays 0.15 to 1.45 rad
    apart, p1 in (0.05, 0.95) at least 0.05 from 1/n."""
    while True:
        frames = random_unitary(rng, n), random_unitary(rng, n)
        if 0.15 <= fs_distance(*(PureState(f[:, 0]) for f in frames)) <= 1.45:
            break
    while True:
        p1 = float(rng.uniform(0.05, 0.95))
        if abs(p1 - 1.0 / n) >= 0.05:
            break
    p2 = (1.0 - p1) / (n - 1)
    return [
        quasi_pure(QuasiPureSpec(p1, p2, tuple(PureState(f[:, j]) for j in range(n))))
        for f in frames
    ]


def _completion(rng, a):
    """n - 1 orthonormal states orthogonal to the unit vector a."""
    n = a.size
    q, _ = np.linalg.qr(np.column_stack([a, random_unitary(rng, n)[:, 1:]]))
    return [PureState(q[:, j]) for j in range(1, n)]


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
            rho, other = _one_spectrum_pair(rng, n, gap, above)
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
        p2 = (1.0 - gap) / n
        rho, target = (
            quasi_pure(QuasiPureSpec(p2 + gap, p2, (PureState(a), *_completion(rng, a))))
            for a in (phi, psi)
        )
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

    def test_memory_bounded_on_miss(self, record_frobenius, record_scans):
        # A random target (the floor decides it) and one on the start's
        # torus (floor 0: two chunks stream).
        rng = np.random.default_rng(71)
        rho, target = _one_spectrum_pair(rng, 64, 0.5, True)
        h = _fixed_spread(rng, 64)
        numerics.herm_eig(h)
        u = torus_unitary(rng, h)
        for goal in (target, DensityMatrix(u @ rho.matrix @ u.conj().T)):
            tracemalloc.start()
            try:
                arrival = density_arrival_time(h, rho, goal, 30.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert arrival is None and not record_frobenius
            # One chunk of phase rows, 2^15 complex entries, peaked near 0.55 MB.
            assert peak < 2e6
        assert [scan["chunks"] for scan in record_scans] == [0, 2]


def _grid_angles(h, phi, psi, horizon, count, hbar=1.0):
    """The angle between phi(t) and psi at the times i horizon / count,
    from the propagated vectors by the stable atan2 formula."""
    w, v = np.linalg.eigh(h)
    times = np.arange(count + 1) * (horizon / count)
    states = (np.exp(-1j * np.outer(times, w) / hbar) * (v.conj().T @ phi)) @ v.T
    overlaps = states.conj() @ psi
    sines = np.linalg.norm(psi[None] - overlaps[:, None] * states, axis=1)
    return np.arctan2(sines, np.abs(overlaps))


def _grid_frobenius(h, rho, target, horizon, count, hbar=1.0):
    """||rho(t) - target||_F at the times i horizon / count, from the
    conjugated matrices."""
    w, v = np.linalg.eigh(h)
    times = np.arange(count + 1) * (horizon / count)
    phases = np.exp(-1j * np.outer(times, w) / hbar)
    start = v.conj().T @ rho @ v
    moved = v @ (start * (phases[:, :, None] * phases.conj()[:, None, :])) @ v.conj().T
    return np.linalg.norm(moved - target, axis=(1, 2))


def _off_orbit(rng, moved, angle):
    """A unit vector ``angle`` rad from the unit vector ``moved``."""
    off = random_pure_state(rng, moved.size).amplitudes
    off = off - moved * np.vdot(moved, off)
    return math.cos(angle) * moved + math.sin(angle) * off / np.linalg.norm(off)


class TestFloor:
    """The scans' floors, arccos sum_j |c_j| for a ray and
    sqrt(||S||^2 + ||G||^2 - 2 sum_jk |M_jk|) for the Frobenius distance,
    against the distance at every point of the scan's grid, computed
    directly from the moved states: a floor above the smallest grid value
    would let the scan drop a candidate. Targets are random, or 1e-3 to
    1e-1 off the orbit; routed pairs have |p1 - p2| from 0.03 to 0.3, so
    the gate on sin theta, 0.05 / (sqrt 2 |p1 - p2|), spans 1 at 0.035.
    Roundoff of the floor near zero distance is about sqrt(n eps)."""

    TOL = 1e-7

    @staticmethod
    def horizon(rng, n):
        return float(rng.uniform(2.0, 10.0)) / (2.0 * math.sqrt(n))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_ray_floor_below_every_grid_angle(self, n, record_scans):
        decided = 0
        for k in range(24):
            rng = np.random.default_rng([101, n, k])
            h = _fixed_spread(rng, n)
            phi = random_pure_state(rng, n)
            horizon = self.horizon(rng, n)
            if k % 2:
                moved = propagate(h, phi, float(rng.uniform(0.1, 1.0)) * horizon).amplitudes
                psi = PureState(_off_orbit(rng, moved, 10.0 ** rng.uniform(-3, -1)))
            else:
                psi = random_pure_state(rng, n)
            record_scans.clear()
            arrival = first_arrival_time(h, phi, psi, horizon)
            scan = record_scans[0]
            count = scan["grid_points"] - 1
            angles = _grid_angles(h, phi.amplitudes, psi.amplitudes, horizon, count)
            assert scan["floor"] <= angles.min() + self.TOL, k
            if scan["chunks"] == 0:
                decided += 1
                assert arrival is None and angles.min() > math.asin(0.01), k
        assert decided > 0

    @pytest.mark.parametrize("gap", [0.03, 0.035, 0.036, 0.04, 0.3])
    @pytest.mark.parametrize("n", [3, 8])
    def test_routed_floor_below_every_grid_angle(self, n, gap, record_scans):
        decided = 0
        for k in range(16):
            rng = np.random.default_rng([103, n, k, round(1000 * gap)])
            h = _fixed_spread(rng, n)
            phi = random_pure_state(rng, n).amplitudes
            horizon = self.horizon(rng, n) / gap
            if k % 2:
                moved = propagate(h, PureState(phi), float(rng.uniform(0.1, 1.0)) * horizon)
                psi = _off_orbit(rng, moved.amplitudes, 10.0 ** rng.uniform(-3, -1))
            else:
                psi = random_pure_state(rng, n).amplitudes
            p2 = (1.0 - gap) / n
            rho, target = (
                quasi_pure(QuasiPureSpec(p2 + gap, p2, (PureState(a), *_completion(rng, a))))
                for a in (phi, psi)
            )
            record_scans.clear()
            arrival = density_arrival_time(h, rho, target, horizon)
            scan = record_scans[0]
            angles = _grid_angles(h, phi, psi, horizon, scan["grid_points"] - 1)
            assert scan["floor"] <= angles.min() + self.TOL, k
            gate = math.asin(min(1.0, 5e-2 / (math.sqrt(2.0) * gap)))
            if scan["chunks"] == 0:
                decided += 1
                assert arrival is None and angles.min() > gate, k
        # Below |p1 - p2| = 0.05 / sqrt 2 the gate is pi / 2, which no floor
        # clears; just above it the gate is still near pi / 2.
        if gap < 0.05 / math.sqrt(2.0):
            assert decided == 0
        elif gap > 0.1:
            assert decided > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_frobenius_floor_below_every_grid_distance(self, n, record_scans):
        decided = 0
        for k in range(24):
            rng = np.random.default_rng([107, n, k])
            h = _fixed_spread(rng, n)
            rho = _random_density(rng, n, np.arange(1.0, n + 1.0))
            other = _random_density(rng, n, np.arange(1.0, n + 1.0) ** 2)
            horizon = self.horizon(rng, n)
            if k % 2:
                t_star = float(rng.uniform(0.1, 1.0)) * horizon
                mix = 10.0 ** rng.uniform(-3, -1)
                moved = propagate_density(h, rho, t_star).matrix
                target = DensityMatrix((1.0 - mix) * moved + mix * other.matrix)
            else:
                target = other
            record_scans.clear()
            arrival = _density_scan(h, rho, target, horizon)
            scan = record_scans[0]
            norms = _grid_frobenius(h, rho.matrix, target.matrix, horizon, scan["grid_points"] - 1)
            assert scan["floor"] <= norms.min() + self.TOL, k
            if scan["chunks"] == 0:
                decided += 1
                assert arrival is None and norms.min() > 5e-2, k
        assert decided > 0

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_family_hits_are_never_decided(self, n, record_scans):
        # A maximal-speed family member carries phi to psi at T = theta / E;
        # its floor is roundoff, so the scan streams and arrives at T, as do
        # two quasi-pure densities on those rays.
        for seed in range(6):
            rng = np.random.default_rng([109, n, seed])
            phi, psi = random_pure_state(rng, n), random_pure_state(rng, n)
            h = optimal_family_sample(phi, psi, 1.0, seed)
            t = fs_distance(phi, psi)
            gap = 0.3 if n > 2 else 0.5
            p2 = (1.0 - gap) / n
            rho, target = (
                quasi_pure(QuasiPureSpec(p2 + gap, p2, (a, *_completion(rng, a.amplitudes))))
                for a in (phi, psi)
            )
            record_scans.clear()
            arrivals = [
                first_arrival_time(h, phi, psi, 1.3 * t),
                density_arrival_time(h, rho, target, 1.3 * t),
            ]
            for arrival, scan in zip(arrivals, record_scans):
                assert arrival == pytest.approx(t, abs=1e-6), seed
                assert scan["chunks"] > 0 and scan["floor"] < self.TOL, seed
