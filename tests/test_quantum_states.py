"""Unit tests for states, the ray metric, and energy uncertainty.

Fixed expectations computed by hand: ray angles from arccos of explicit
overlaps, uncertainties from first and second moments of diagonal
observables, the maximal uncertainty from half the spectral spread.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo import (
    DensityMatrix,
    DimensionMismatchError,
    DistinguishedStateNotMappedError,
    InvalidQuasiPureError,
    NotRankOneError,
    NotUnitaryError,
    PureState,
    QuasiPureSpec,
    SpectraMismatchError,
    Units,
    energy_uncertainty,
    energy_uncertainty_max,
    fidelity,
    fs_distance,
    projector,
    quasi_pure,
    quasi_pure_transport,
    state_from_projector,
)
from optevo.sampling import random_pure_state, random_unitary

ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

KET0 = PureState.basis_state(2, 0)
KET1 = PureState.basis_state(2, 1)
PLUS = PureState.from_vector([1.0, 1.0])


class TestUnits:
    def test_default(self):
        assert Units().hbar == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Units(hbar=0.0)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatchError):
            PureState(np.eye(2))

    def test_from_vector_normalizes(self):
        s = PureState.from_vector([3.0, 4.0])
        assert np.allclose(s.amplitudes, [0.6, 0.8], atol=ATOL)

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            PureState.from_vector([0.0, 0.0])

    def test_basis_state_bounds(self):
        with pytest.raises(DimensionMismatchError):
            PureState.basis_state(2, 2)

    def test_overlap_dimension_gate(self):
        with pytest.raises(DimensionMismatchError):
            KET0.overlap(PureState.basis_state(3, 0))

    def test_amplitudes_frozen(self):
        with pytest.raises(ValueError):
            KET0.amplitudes[0] = 0.0

    @pytest.mark.parametrize(
        "vec", [[np.nan, 0.0], [0.6, complex(0.8, np.nan)]], ids=["nan", "complex-nan"]
    )
    def test_rejects_nan(self, vec):
        # A NaN norm used to slip past the gate, and a verdict on the state
        # came back Suboptimal with a NaN residual.
        with pytest.raises(ValueError, match="nan"):
            PureState(np.array(vec))

    @pytest.mark.parametrize("vec", [[np.inf, 0.0], [np.nan, 1.0]], ids=["inf", "nan"])
    def test_from_vector_rejects_nonfinite_norm(self, vec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="norm"):
                PureState.from_vector(vec)


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.nan, 0.0], [0.0, 1.0]], [[0.5, np.inf], [0.0, 0.5]]],
        ids=["nan", "inf-off-diagonal"],
    )
    def test_rejects_nonfinite(self, matrix):
        # An infinite entry used to pass the Hermiticity gate, whose defect
        # and scale were both infinite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(np.array(matrix))

    def test_accepts_mixed(self):
        rho = DensityMatrix(np.eye(3) / 3.0)
        assert rho.n == 3


class TestRayMetric:
    def test_orthogonal_quarter_turn(self):
        assert fs_distance(KET0, KET1) == pytest.approx(np.pi / 2.0, abs=ATOL)

    def test_self_distance_zero(self):
        assert fs_distance(KET0, KET0) == 0.0

    def test_equal_superposition_eighth_turn(self):
        assert fs_distance(KET0, PLUS) == pytest.approx(np.pi / 4.0, abs=ATOL)

    def test_phase_insensitive(self, rng):
        phi = random_pure_state(rng, 4)
        psi = random_pure_state(rng, 4)
        rotated = PureState(np.exp(0.37j) * psi.amplitudes)
        assert fs_distance(phi, rotated) == pytest.approx(fs_distance(phi, psi), abs=ATOL)

    def test_fidelity_complements_distance(self):
        assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=ATOL)
        assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=ATOL)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=6))
    def test_distance_range_and_symmetry(self, seed, n):
        gen = np.random.default_rng(seed)
        phi, psi = random_pure_state(gen, n), random_pure_state(gen, n)
        d = fs_distance(phi, psi)
        assert 0.0 <= d <= np.pi / 2.0
        assert d == pytest.approx(fs_distance(psi, phi), abs=ATOL)

    @pytest.mark.parametrize("angle", [1e-8, 1e-6, 1e-3])
    def test_small_angles_keep_their_digits(self, rng, angle):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            j, k = rng.choice(n, size=2, replace=False)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=3))
            start = np.zeros(n, dtype=complex)
            start[j] = phases[0]
            turned = np.zeros(n, dtype=complex)
            turned[j] = phases[1] * np.cos(angle) * phases[0]
            turned[k] = phases[1] * np.sin(angle) * phases[2]
            d = fs_distance(PureState(start), PureState(turned))
            assert d == pytest.approx(angle, rel=1e-9)

    def test_bitwise_symmetric(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            phi, psi = random_pure_state(rng, n), random_pure_state(rng, n)
            assert fs_distance(phi, psi) == fs_distance(psi, phi)

    def test_self_distance_at_roundoff(self, rng):
        for _ in range(200):
            phi = random_pure_state(rng, int(rng.integers(2, 33)))
            assert 0.0 <= fs_distance(phi, phi) <= 1e-14

    def test_dimension_gate(self):
        with pytest.raises(DimensionMismatchError):
            fs_distance(KET0, PureState.basis_state(3, 0))


class TestEnergyUncertainty:
    def test_eigenstate_zero(self):
        assert energy_uncertainty(SIGMA_Z, KET0) == pytest.approx(0.0, abs=ATOL)

    def test_pauli_x_on_basis_state(self):
        assert energy_uncertainty(SIGMA_X, KET0) == pytest.approx(1.0, abs=ATOL)

    def test_three_level_superposition(self):
        # H = diag(2, 0, -2) on (e1 + e3)/sqrt(2): mean 0, second moment 4.
        h = np.diag([2.0, 0.0, -2.0])
        phi = PureState.from_vector([1.0, 0.0, 1.0])
        assert energy_uncertainty(h, phi) == pytest.approx(2.0, abs=ATOL)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            energy_uncertainty(np.array([[0.0, 1.0], [0.0, 0.0]]), KET0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            energy_uncertainty(np.eye(3), KET0)

    def test_maximum_and_witness_qubit(self):
        value, witness = energy_uncertainty_max(SIGMA_Z)
        assert value == pytest.approx(1.0, abs=ATOL)
        assert energy_uncertainty(SIGMA_Z, witness) == pytest.approx(value, abs=1e-10)

    def test_maximum_three_level(self):
        h = np.diag([2.0, 0.0, -2.0])
        value, witness = energy_uncertainty_max(h)
        assert value == pytest.approx(2.0, abs=ATOL)
        assert energy_uncertainty(h, witness) == pytest.approx(2.0, abs=1e-10)

    def test_single_level_degenerates(self):
        value, witness = energy_uncertainty_max(np.array([[5.0]]))
        assert value == 0.0
        assert witness.n == 1

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=7))
    def test_no_state_beats_the_maximum(self, seed, n):
        gen = np.random.default_rng(seed)
        g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        value, _ = energy_uncertainty_max(h)
        phi = random_pure_state(gen, n)
        assert energy_uncertainty(h, phi) <= value + 1e-10 * max(1.0, value)


class TestProjectors:
    def test_projector_oracle(self):
        assert np.allclose(projector(KET0).matrix, np.diag([1.0, 0.0]), atol=ATOL)

    def test_roundtrip_recovers_ray(self, rng):
        for n in (2, 3, 5):
            phi = random_pure_state(rng, n)
            back = state_from_projector(projector(phi))
            assert fidelity(phi, back) == pytest.approx(1.0, abs=1e-12)

    def test_phase_convention(self):
        phi = PureState.from_vector([1j, 1.0])
        back = state_from_projector(projector(phi))
        assert back.amplitudes[0].imag == pytest.approx(0.0, abs=1e-12)
        assert back.amplitudes[0].real > 0.0

    def test_rejects_rank_two(self):
        with pytest.raises(NotRankOneError):
            state_from_projector(DensityMatrix(np.eye(2) / 2.0))


class TestQuasiPure:
    def test_spec_validation(self):
        basis = tuple(PureState.basis_state(3, k) for k in range(3))
        with pytest.raises(InvalidQuasiPureError):
            QuasiPureSpec(0.6, 0.3, basis)  # weights sum to 1.2
        with pytest.raises(InvalidQuasiPureError):
            QuasiPureSpec(1.0 / 3.0, 1.0 / 3.0, basis)  # maximally mixed
        with pytest.raises(InvalidQuasiPureError):
            QuasiPureSpec(0.6, 0.2, basis[:2])  # wrong count for dimension 3
        skewed = (PureState.from_vector([1.0, 1.0, 0.0]),) + basis[1:]
        with pytest.raises(InvalidQuasiPureError):
            QuasiPureSpec(0.6, 0.2, skewed)  # non-orthogonal basis

    def test_names_the_overlapping_pair(self):
        basis = [PureState.basis_state(4, k) for k in range(4)]
        basis[3] = PureState.from_vector([0.0, 1e-6, 0.0, 1.0])
        message = r"basis states 1 and 3 overlap by 1\.000e-06"
        with pytest.raises(InvalidQuasiPureError, match=message):
            QuasiPureSpec(0.7, 0.1, basis)

    def test_assembled_spectrum(self):
        basis = tuple(PureState.basis_state(3, k) for k in range(3))
        rho = quasi_pure(QuasiPureSpec(0.6, 0.2, basis))
        assert np.allclose(rho.matrix, np.diag([0.6, 0.2, 0.2]), atol=ATOL)

    def test_transport_identity(self):
        basis = tuple(PureState.basis_state(3, k) for k in range(3))
        spec = QuasiPureSpec(0.6, 0.2, basis)
        assert quasi_pure_transport(spec, spec, np.eye(3))

    def test_transport_rotated_target(self, rng):
        u = random_unitary(rng, 4)
        source_basis = tuple(PureState.basis_state(4, k) for k in range(4))
        target_basis = tuple(PureState(u[:, k]) for k in range(4))
        source = QuasiPureSpec(0.7, 0.1, source_basis)
        target = QuasiPureSpec(0.7, 0.1, target_basis)
        assert quasi_pure_transport(source, target, u)

    def test_transport_rejects_spectrum_mismatch(self):
        basis = tuple(PureState.basis_state(3, k) for k in range(3))
        a = QuasiPureSpec(0.6, 0.2, basis)
        b = QuasiPureSpec(0.8, 0.1, basis)
        with pytest.raises(SpectraMismatchError):
            quasi_pure_transport(a, b, np.eye(3))

    def test_transport_rejects_nonunitary(self):
        basis = tuple(PureState.basis_state(2, k) for k in range(2))
        spec = QuasiPureSpec(0.7, 0.3, basis)
        with pytest.raises(NotUnitaryError):
            quasi_pure_transport(spec, spec, 2.0 * np.eye(2))

    def test_transport_rejects_misdirected_unitary(self):
        basis = tuple(PureState.basis_state(2, k) for k in range(2))
        spec = QuasiPureSpec(0.7, 0.3, basis)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(DistinguishedStateNotMappedError):
            quasi_pure_transport(spec, spec, swap)
