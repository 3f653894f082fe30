"""Unit tests for generator construction and certification.

Fixed expectations computed by hand. The qubit transfer between basis
states has the closed-form generator E * sigma_y with arrival at
t = (pi/2) / E. The three-level example with mean 0.5 and complement
diag(0.5, -1.0) satisfies the eigen-condition while its half-spread is
1.25, pinning the verdict to the eigen-condition rather than to spread
comparison. Speed-limit times follow from T = hbar * angle / uncertainty.
"""

import math

import numpy as np
import pytest

from optevo import (
    BlockStructure,
    DimensionMismatchError,
    NotHermitianError,
    NotOptimalError,
    PureState,
    StationaryStateError,
    Units,
    Verdict,
    ad_conjugate,
    adapted_basis,
    adapted_blocks,
    energy_uncertainty,
    equigeodesic_vector_of,
    fidelity,
    first_arrival_time,
    fs_distance,
    is_equigeodesic_structural,
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    propagate,
    qsl_time,
)
from optevo import synthesis
from optevo.sampling import random_hermitian, random_pure_state

ATOL = 1e-12
ARRIVAL_TOL = 1e-7

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
TILTED = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

KET0 = PureState.basis_state(2, 0)
KET1 = PureState.basis_state(2, 1)
PLUS = PureState.from_vector([1.0, 1.0])

# Eigen-condition holds (complement keeps the coupling direction at the
# mean energy) although the far level at -1 stretches the half-spread to
# 1.25, above the uncertainty 1 in e1.
WIDE_OPTIMAL = np.array(
    [[0.5, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, -1.0]], dtype=complex
)


def distinct_pair(rng, n):
    phi = random_pure_state(rng, n)
    while True:
        psi = random_pure_state(rng, n)
        if 0.1 < fs_distance(phi, psi) < 1.47:
            return phi, psi


class TestAdaptedBasis:
    def test_first_column_is_state(self, rng):
        phi = random_pure_state(rng, 5)
        b = adapted_basis(phi)
        assert np.allclose(b[:, 0], phi.amplitudes, atol=ATOL)
        assert np.linalg.norm(b.conj().T @ b - np.eye(5)) < 1e-12

    def test_deterministic(self):
        phi = PureState.from_vector([1.0, 2.0j, -1.0])
        assert np.array_equal(adapted_basis(phi), adapted_basis(phi))


class TestAdaptedBlocks:
    def test_pauli_z_from_plus(self):
        blocks = adapted_blocks(SIGMA_Z, PLUS)
        assert blocks.mean_energy == pytest.approx(0.0, abs=ATOL)
        assert abs(blocks.coupling[0]) == pytest.approx(1.0, abs=ATOL)
        assert abs(blocks.complement[0, 0]) < ATOL

    def test_reassemble_roundtrip(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2.0
        phi = random_pure_state(rng, 4)
        blocks = adapted_blocks(h, phi)
        assert np.linalg.norm(blocks.reassemble() - h) < 1e-12 * max(1.0, np.linalg.norm(h))

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            adapted_blocks(np.array([[0.0, 1.0], [0.0, 0.0]]), KET0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            adapted_blocks(np.eye(3), KET0)

    def test_coupling_norm_is_uncertainty(self, rng):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (g + g.conj().T) / 2.0
        phi = random_pure_state(rng, 5)
        blocks = adapted_blocks(h, phi)
        assert np.linalg.norm(blocks.coupling) == pytest.approx(
            energy_uncertainty(h, phi), abs=1e-10
        )


class TestVerdict:
    def test_pauli_y_is_optimal(self):
        v = is_optimal_speed(SIGMA_Y, KET0)
        assert v.kind is Verdict.OPTIMAL
        assert v.residual < 1e-12
        assert v.delta_e == pytest.approx(1.0, abs=ATOL)
        assert v.delta_e_max == pytest.approx(1.0, abs=ATOL)

    def test_tilted_qubit_is_suboptimal(self):
        v = is_optimal_speed(TILTED, KET0)
        assert v.kind is Verdict.SUBOPTIMAL
        assert v.delta_e == pytest.approx(1.0, abs=ATOL)
        assert v.delta_e_max == pytest.approx(np.sqrt(2.0), abs=ATOL)

    def test_eigenstate_is_stationary(self):
        v = is_optimal_speed(SIGMA_Z, KET0)
        assert v.kind is Verdict.STATIONARY
        assert v.delta_e < ATOL

    def test_eigen_condition_decides_despite_wider_spread(self):
        phi = PureState.basis_state(3, 0)
        v = is_optimal_speed(WIDE_OPTIMAL, phi)
        assert v.kind is Verdict.OPTIMAL
        assert v.residual < 1e-12
        assert v.delta_e == pytest.approx(1.0, abs=ATOL)
        assert v.delta_e_max == pytest.approx(1.25, abs=ATOL)

    def test_identity_shift_does_not_change_verdict(self, rng):
        phi, psi = distinct_pair(rng, 4)
        h = optimal_hamiltonian(phi, psi, 0.8)
        shifted = h + 3.7 * np.eye(4)
        assert is_optimal_speed(shifted, phi).kind is Verdict.OPTIMAL


class TestOptimalHamiltonian:
    def test_qubit_closed_form(self):
        h = optimal_hamiltonian(KET0, KET1, 1.0)
        assert np.allclose(h, SIGMA_Y, atol=1e-15)

    def test_three_level_embedded_rotation(self):
        phi = PureState.basis_state(3, 0)
        psi = PureState.from_vector([np.cos(np.pi / 4.0), np.sin(np.pi / 4.0), 0.0])
        h = optimal_hamiltonian(phi, psi, 2.0)
        expected = np.array(
            [[0.0, -2j, 0.0], [2j, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        assert np.allclose(h, expected, atol=1e-14)
        assert first_arrival_time(h, phi, psi, 2.0) == pytest.approx(
            np.pi / 8.0, abs=ARRIVAL_TOL
        )

    def test_uncertainty_matches_request(self, rng):
        for n in (2, 3, 6):
            phi, psi = distinct_pair(rng, n)
            h = optimal_hamiltonian(phi, psi, 1.3)
            assert energy_uncertainty(h, phi) == pytest.approx(1.3, abs=1e-10)
            assert is_optimal_speed(h, phi).kind is Verdict.OPTIMAL

    def test_coincident_rays_return_zero(self):
        h = optimal_hamiltonian(KET0, KET0, 1.0)
        assert np.array_equal(h, np.zeros((2, 2)))

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            optimal_hamiltonian(KET0, KET1, 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            optimal_hamiltonian(KET0, PureState.basis_state(3, 1), 1.0)


class TestOptimalFamily:
    def test_member_is_optimal_with_same_uncertainty(self, rng):
        phi, psi = distinct_pair(rng, 5)
        h = optimal_family_sample(phi, psi, 0.9, rng_seed=7)
        v = is_optimal_speed(h, phi)
        assert v.kind is Verdict.OPTIMAL
        assert v.delta_e == pytest.approx(0.9, abs=1e-10)

    def test_member_shares_ray_trajectory(self, rng):
        phi, psi = distinct_pair(rng, 4)
        core = optimal_hamiltonian(phi, psi, 1.1)
        member = optimal_family_sample(phi, psi, 1.1, rng_seed=3)
        assert np.linalg.norm(member - core) > 1e-3
        for t in np.linspace(0.0, 4.0, 17):
            a = propagate(core, phi, t)
            b = propagate(member, phi, t)
            assert fidelity(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_seed_reproducibility(self, rng):
        phi, psi = distinct_pair(rng, 4)
        a = optimal_family_sample(phi, psi, 1.0, rng_seed=11)
        b = optimal_family_sample(phi, psi, 1.0, rng_seed=11)
        c = optimal_family_sample(phi, psi, 1.0, rng_seed=12)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-6

    def test_qubit_family_keeps_trajectory(self, rng):
        member = optimal_family_sample(KET0, KET1, 1.0, rng_seed=5)
        assert is_optimal_speed(member, KET0).kind is Verdict.OPTIMAL
        t = first_arrival_time(member, KET0, KET1, 5.0)
        assert t == pytest.approx(np.pi / 2.0, abs=ARRIVAL_TOL)


class TestQslTime:
    def test_qubit_quarter_circle(self):
        assert qsl_time(KET0, KET1, SIGMA_Y) == pytest.approx(np.pi / 2.0, abs=ATOL)

    def test_qubit_eighth_circle(self):
        assert qsl_time(KET0, PLUS, SIGMA_Y) == pytest.approx(np.pi / 4.0, abs=ATOL)

    def test_doubling_energy_halves_time(self):
        t1 = qsl_time(KET0, KET1, SIGMA_Y)
        t2 = qsl_time(KET0, KET1, 2.0 * SIGMA_Y)
        assert t2 == pytest.approx(t1 / 2.0, abs=ATOL)

    def test_action_scale_enters_linearly(self):
        t = qsl_time(KET0, KET1, SIGMA_Y, Units(hbar=2.0))
        assert t == pytest.approx(np.pi, abs=ATOL)

    def test_stationary_state_raises(self):
        with pytest.raises(StationaryStateError):
            qsl_time(KET0, KET1, SIGMA_Z)


class TestFirstArrival:
    def test_qubit_oracle(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 10.0)
        assert t == pytest.approx(np.pi / 2.0, abs=ARRIVAL_TOL)

    def test_return_to_start_excludes_zero(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET0, 10.0)
        assert t == pytest.approx(np.pi, abs=ARRIVAL_TOL)

    def test_stationary_never_arrives(self):
        assert first_arrival_time(SIGMA_Z, KET0, KET1, 1000.0) is None

    def test_short_horizon_misses(self):
        assert first_arrival_time(SIGMA_Y, KET0, KET1, 1.0) is None

    def test_action_scale_stretches_time(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 10.0, Units(hbar=2.0))
        assert t == pytest.approx(np.pi, abs=ARRIVAL_TOL)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            first_arrival_time(SIGMA_Y, KET0, KET1, 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            first_arrival_time(SIGMA_Y, KET0, PureState.basis_state(3, 1), 1.0)

    def test_long_horizon_keeps_the_step(self, record_scans):
        # A 2e7-point grid; capping it coarsened the step to 0.1 rad, so the
        # gate skipped the first three arrivals and returned 7 pi / 2.
        scans = record_scans(synthesis)
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 2e5)
        assert t == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert scans[0]["chunks"] == 1

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_miss_scans_every_grid_point(self, record_scans, rng, hbar):
        h = random_hermitian(rng, 6)
        phi, psi = random_pure_state(rng, 6), random_pure_state(rng, 6)
        scans = record_scans(synthesis)
        assert first_arrival_time(h, phi, psi, 20.0, Units(hbar=hbar)) is None
        w = np.linalg.eigvalsh(h)
        delta_e_max = (w[-1] - w[0]) / 2.0
        assert scans[0]["grid_points"] == math.ceil(20.0 * delta_e_max / (0.01 * hbar)) + 1
        assert scans[0]["step"] == pytest.approx(0.01 * hbar / delta_e_max, rel=1e-12)


class TestEquigeodesicVector:
    def test_qubit_rotation_generator(self):
        x, base = equigeodesic_vector_of(SIGMA_Y, KET0)
        assert np.allclose(x.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=ATOL)
        assert np.array_equal(base, np.eye(2))
        assert is_equigeodesic_structural(x, BlockStructure((1, 1)))

    def test_conjugated_vector_passes_certificate(self, rng):
        phi, psi = distinct_pair(rng, 5)
        h = optimal_family_sample(phi, psi, 1.0, rng_seed=2)
        x, base = equigeodesic_vector_of(h, phi)
        pulled_back = ad_conjugate(base.conj().T, x)
        assert is_equigeodesic_structural(pulled_back, BlockStructure((1, 4)))

    def test_orbit_reproduces_ray_motion(self, rng):
        from optevo import coset_orbit

        phi, psi = distinct_pair(rng, 3)
        h = optimal_hamiltonian(phi, psi, 0.7)
        x, _ = equigeodesic_vector_of(h, phi)
        for t in (0.3, 1.1, 2.4):
            moved = PureState.from_vector(coset_orbit(x, t) @ phi.amplitudes)
            assert fidelity(moved, propagate(h, phi, t)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_suboptimal(self):
        with pytest.raises(NotOptimalError):
            equigeodesic_vector_of(TILTED, KET0)
