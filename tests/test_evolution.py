"""Unit tests for propagation and trajectory diagnostics.

Fixed expectations computed by hand: qubit rotations from the sigma_y
propagator [[cos t, -sin t], [sin t, cos t]], trace norms of diagonal
differences by summing absolute eigenvalues, and the flat unit speed of a
maximal-speed qubit transfer.
"""

import math

import numpy as np
import pytest

from optevo import (
    DensityMatrix,
    DimensionMismatchError,
    FoldExceededError,
    PureState,
    Trajectory,
    Units,
    density_arrival_time,
    fidelity,
    fs_speed_profile,
    geodesic_defect,
    optimal_hamiltonian,
    projector,
    propagate,
    propagate_density,
    sample_trajectory,
    subspace_leakage,
    trace_distance,
)
from optevo import evolution, verification
from optevo.sampling import random_pure_state
from optevo.verification import run_suite

ATOL = 1e-12
FLAT_TOL = 1e-6

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
