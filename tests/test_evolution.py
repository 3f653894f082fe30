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
    Trajectory,
    Units,
    density_arrival_time,
    fidelity,
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
from optevo.sampling import random_hermitian, random_pure_state, random_unitary
from optevo.verification import run_suite

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
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        target = DensityMatrix(np.diag([0.3, 0.7]))
        scans = record_scans(evolution)
        assert density_arrival_time(SIGMA_Z, rho, target, 50.0) is None
        assert scans[0]["grid_points"] == math.ceil(50.0 * 1.0 / 0.01) + 1

    def test_early_arrival_stops_after_one_chunk(self, record_scans):
        rho = DensityMatrix(np.diag([0.7, 0.3]))
        target = DensityMatrix(np.diag([0.3, 0.7]))
        scans = record_scans(evolution)
        assert density_arrival_time(SIGMA_Y, rho, target, 1e4) == pytest.approx(
            np.pi / 2.0, abs=1e-9
        )
        assert scans[0]["chunks"] == 1
        assert scans[0]["grid_points"] < 1e4 / 0.01

    def test_rejects_bad_horizon(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            density_arrival_time(SIGMA_Y, rho, rho, -1.0)

    def test_rejects_dimension_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(DimensionMismatchError):
            density_arrival_time(np.eye(3), rho, rho, 1.0)


def _reference_density_arrival(h, rho, target, horizon, hbar=1.0, threshold=1e-8):
    """The density search without its Frobenius screen: the trace norm at
    every point of the scan's grid, the same gated local-minimum test, and
    the same refinement. Its phases come straight from the grid times, so
    its grid values match the streamed scan's to rounding. Returns the time,
    the minima refined and the smallest grid value."""
    w, v = numerics.herm_eig(h)
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v

    def norms(phases):
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        return np.sum(np.abs(np.linalg.eigvalsh(rotated - goal)), axis=1)

    def distance(t):
        return float(norms(np.exp(-1j * w * (t / hbar))[None, :])[0])

    step = 0.01 * hbar / (float(w[-1] - w[0]) / 2.0)
    count = max(math.ceil(horizon / step), 8)
    dt = horizon / count
    vals = np.append(norms(np.exp(-1j * np.outer(np.arange(count + 1) * dt, w) / hbar)), np.inf)
    gate = max(100.0 * threshold, 5e-2)
    refined = 0
    for i in range(1, count + 1):
        if not vals[i] <= min(vals[i - 1], vals[i + 1], gate):
            continue
        refined += 1
        lo, hi = (i - 1) * dt, (i + 1) * dt if i + 1 < count else horizon
        tol = max(1e-10 * (hi - lo), 4.0 * float(np.spacing(hi)))
        t_min, f_min = numerics.golden_section_min(distance, lo, hi, tol)
        t_min = numerics._parabolic_polish(distance, t_min, 0.02 * step)
        if min(f_min, distance(t_min)) <= threshold and t_min > 0.0:
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
    diagonal = np.diag([0.4, 0.1, -0.2, -0.3]).astype(complex)
    cases["commuting"] = (
        diagonal,
        DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1])),
        DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4])),
        50.0,
        1.0,
    )
    return cases


SCREEN_CASES = _screen_cases()


class TestDensityScreen:
    @pytest.mark.parametrize("chunk", [1 << 15, 64])
    @pytest.mark.parametrize("name", sorted(SCREEN_CASES))
    def test_matches_unscreened_scan(self, name, chunk, monkeypatch, record_scans):
        h, rho, target, horizon, hbar = SCREEN_CASES[name]
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", chunk)
        scans = record_scans(evolution)
        got = density_arrival_time(h, rho, target, horizon, Units(hbar=hbar))
        want, refined, _ = _reference_density_arrival(h, rho, target, horizon, hbar)
        assert got == want
        assert scans[0]["refined"] == refined
        assert scans[0]["chunks"] > (1 if chunk == 64 else 0)

    def test_cases_cover_each_outcome(self):
        outcomes = {
            name: _reference_density_arrival(h, rho, target, horizon, hbar)
            for name, (h, rho, target, horizon, hbar) in SCREEN_CASES.items()
        }
        assert outcomes["full-rank-hit"][0] is not None
        assert outcomes["quasi-pure-hit-hbar2"][0] is not None
        assert outcomes["full-rank-near"][0] is None and outcomes["full-rank-near"][1] > 0
        assert all(outcomes[k][1] == 0 for k in ("full-rank-miss", "quasi-pure-miss", "commuting"))

    def test_minimum_just_below_gate(self, record_scans):
        # At t0 the difference is c (|a><a| - |b><b|): rank two, so its
        # Frobenius norm is as large as a trace-norm gap allows, 1/sqrt(2) of
        # the trace norm 2c, here just below the gate.
        rng = np.random.default_rng(43)
        h = _fixed_spread(rng, 4)
        rho = _random_density(rng, 4, [0.4, 0.3, 0.2, 0.1])
        moved = propagate_density(h, rho, 5.0).matrix
        _, frame = np.linalg.eigh(moved)
        a, b = frame[:, 0], frame[:, 3]
        c = 0.495 * 5e-2
        target = DensityMatrix(moved + c * (np.outer(a, a.conj()) - np.outer(b, b.conj())))
        scans = record_scans(evolution)
        got = density_arrival_time(h, rho, target, 10.0)
        want, refined, lowest = _reference_density_arrival(h, rho, target, 10.0)
        assert 0.95 * 5e-2 < lowest <= 5e-2
        assert got is None and want is None
        assert scans[0]["refined"] == refined > 0

    def test_miss_diagonalizes_no_grid_row(self, monkeypatch, record_scans):
        rng = np.random.default_rng(47)
        h = _fixed_spread(rng, 6)
        rho, target = _quasi_pure_density(rng, 6), _quasi_pure_density(rng, 6)
        rows = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        scans = record_scans(evolution)
        assert density_arrival_time(h, rho, target, 30.0) is None
        assert scans[0]["grid_points"] > 10_000
        assert sum(r for r in rows if r != 1) == 0
        assert rows.count(1) == scans[0]["evaluations"]

    def test_memory_bounded_on_miss(self):
        rng = np.random.default_rng(53)
        h = _fixed_spread(rng, 32)
        rho, target = _quasi_pure_density(rng, 32), _quasi_pure_density(rng, 32)
        tracemalloc.start()
        try:
            arrival = density_arrival_time(h, rho, target, 30.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arrival is None
        # Chunks of (rows, n, n) matrices peaked near 35 MB at n = 32.
        assert peak < 8e6
