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
    is_equigeodesic_variational,
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    propagate,
    qsl_time,
)
from optevo import numerics, quantum_states, synthesis
from optevo.numerics import (
    SEARCH_TOL,
    STRUCTURAL_TOL,
    _eigen_residual,
    _stationary,
    frobenius,
    herm_eig,
)
from optevo.sampling import random_hermitian, random_pure_state, random_unitary

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


def gram_schmidt_basis(phi):
    """Reference completion: doubly orthogonalized Gram-Schmidt over the
    standard basis in index order, skipping the largest-amplitude index."""
    amp = phi.amplitudes
    n = amp.size
    pivot = int(np.argmax(np.abs(amp)))
    cols = [amp]
    for j in range(n):
        if j == pivot:
            continue
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for c in cols:
                v = v - c * np.vdot(c, v)
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


def _reference_verdict(h, phi):
    """(kind, residual, delta_e) read from the adapted blocks, as the
    verdict was before it moved to full coordinates: the coupling and the
    complement block of the symmetrized B* H B, B = ``adapted_basis``."""
    blocks = adapted_blocks(h, phi)
    x, scale = blocks.coupling, frobenius(h)
    delta_e = float(np.linalg.norm(x))
    if _stationary(delta_e, scale):
        return Verdict.STATIONARY, 0.0, delta_e
    left = blocks.complement - blocks.mean_energy * np.eye(x.size)
    residual = _eigen_residual(left, x, scale, x.size + 1)
    return Verdict.OPTIMAL if residual <= SEARCH_TOL else Verdict.SUBOPTIMAL, residual, delta_e


def assert_orthonormal_completion(b, phi):
    assert np.array_equal(b[:, 0], phi.amplitudes)
    assert np.linalg.norm(b.conj().T @ b - np.eye(phi.n)) <= 1e-13


class TestAdaptedBasis:
    def test_first_column_is_state(self, rng):
        phi = random_pure_state(rng, 5)
        assert_orthonormal_completion(adapted_basis(phi), phi)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, 128, 256])
    def test_orthonormal_at_every_size(self, rng, n):
        phi = random_pure_state(rng, n)
        assert_orthonormal_completion(adapted_basis(phi), phi)

    @pytest.mark.parametrize(
        "vec",
        [
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5, 0.5],
            [1j, 0.0, 0.0],
            [1e-20, 1.0],
            [-1j],
            [0.0, 0.6j, 0.0, -0.8],
        ],
        ids=["basis-vector", "ties", "phased-e0", "tiny-entry", "n1", "pivot-3"],
    )
    def test_edge_cases(self, vec):
        phi = PureState(np.array(vec, dtype=complex))
        assert_orthonormal_completion(adapted_basis(phi), phi)

    def test_pivot_column_leads_then_index_order(self):
        # For e_2 the reflector only flips the sign of e_2, which the state
        # itself replaces; the other columns keep their index order.
        b = adapted_basis(PureState.basis_state(3, 2))
        assert np.array_equal(b, np.eye(3)[:, [2, 0, 1]])

    def test_deterministic(self):
        phi = PureState.from_vector([1.0, 2.0j, -1.0])
        assert np.array_equal(adapted_basis(phi), adapted_basis(phi))


class TestAgainstGramSchmidt:
    """Every basis-independent output matches the Gram-Schmidt reference,
    and the verdict, which builds no basis, matches the block-based
    reference verdict under either basis.

    Bounds: 1e-12 relative to the operator's Frobenius norm, about a
    hundred times the roundoff eps * n * |H| at n = 64.
    """

    @staticmethod
    def outputs(h, phi, psi):
        kind, residual, delta_e = _reference_verdict(h, phi)
        blocks = adapted_blocks(h, phi)
        member = optimal_family_sample(phi, psi, 0.9, rng_seed=3)
        _, base = equigeodesic_vector_of(member, phi)
        return {
            "verdict": is_optimal_speed(h, phi),
            "kind": kind,
            "residual": residual,
            "delta_e": delta_e,
            "coupling": float(np.linalg.norm(blocks.coupling)),
            "spectrum": np.linalg.eigvalsh(blocks.complement),
            "mean_energy": blocks.mean_energy,
            "qsl": qsl_time(phi, psi, member),
            "base_column": base[:, 0],
        }

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_same_values(self, rng, monkeypatch, n):
        phi, psi = distinct_pair(rng, n)
        # An eigenstate whose pivot is the last index makes the stationary case.
        last = PureState.basis_state(n, n - 1)
        cases = [
            (Verdict.SUBOPTIMAL, random_hermitian(rng, n), phi, psi),
            (Verdict.OPTIMAL, optimal_hamiltonian(phi, psi, 1.3), phi, psi),
            (Verdict.OPTIMAL, optimal_family_sample(phi, psi, 0.7, rng_seed=5), phi, psi),
            (Verdict.STATIONARY, np.diag(rng.standard_normal(n)).astype(complex), last, psi),
        ]
        for kind, h, phi, psi in cases:
            new = self.outputs(h, phi, psi)
            with monkeypatch.context() as m:
                m.setattr(synthesis, "adapted_basis", gram_schmidt_basis)
                ref = self.outputs(h, phi, psi)
            tol = 1e-12 * max(1.0, float(np.linalg.norm(h)))
            verdict = new["verdict"]
            # The swap does not reach the verdict at all.
            assert ref["verdict"] == verdict
            for key in ("coupling", "mean_energy"):
                assert abs(new[key] - ref[key]) <= tol, (kind, key)
            for blocks in (new, ref):
                assert verdict.kind is blocks["kind"] is kind
                assert abs(verdict.delta_e - blocks["delta_e"]) <= tol, kind
                if kind is Verdict.OPTIMAL:
                    # An optimal residual is roundoff measured against the
                    # roundoff term, so each route has its own.
                    assert max(verdict.residual, blocks["residual"]) <= 0.1 * SEARCH_TOL
                else:
                    assert abs(verdict.residual - blocks["residual"]) <= tol, kind
            assert np.max(np.abs(new["spectrum"] - ref["spectrum"])) <= tol, kind
            assert new["qsl"] == pytest.approx(ref["qsl"], rel=1e-12), kind
            assert np.array_equal(new["base_column"], ref["base_column"]), kind


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

    def test_equality_goes_by_identity(self):
        a, b = adapted_blocks(SIGMA_Z, PLUS), adapted_blocks(SIGMA_Z, PLUS)
        assert a == a and a != b
        assert len({a, b, a}) == 2

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


@pytest.fixture
def spy_on_bases(monkeypatch):
    """Patch ``adapted_basis`` and ``adapted_blocks`` where ``synthesis``
    looks them up; returns a function that starts recording and gives the
    list of names called, one per call."""

    def patch():
        calls = []
        for name in ("adapted_basis", "adapted_blocks"):

            def recording(*args, _name=name, _f=getattr(synthesis, name)):
                calls.append(_name)
                return _f(*args)

            monkeypatch.setattr(synthesis, name, recording)
        return calls

    return patch


def _reference_delta_e_max(h):
    """Half the spectral spread from an eigenvalues-only solve of the
    symmetrized generator, as ``is_optimal_speed`` took it before it read
    ``herm_eig``."""
    a = np.asarray(h, dtype=complex)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return float(w[-1] - w[0]) / 2.0


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
        # A violating generator stays violating however far it is shifted,
        # even once the shift dwarfs its defect |A x - m x|.
        c = np.array([[0.0, 0.1, 0.05], [0.1, 1e-3, 0.0], [0.05, 0.0, 3e-3]], dtype=complex)
        e0 = PureState.basis_state(3, 0)
        for shift in (0.0, 1e3, 1e5, 1e7):
            assert is_optimal_speed(c + shift * np.eye(3), e0).kind is Verdict.SUBOPTIMAL, shift

    def test_coupling_just_above_floor_is_judged_by_direction(self):
        # The coupling 4e-10 clears the stationary floor 3.2e-10 but points
        # off every eigenvector of diag(1, 3): uncertainty 4e-10 against a
        # half-spread of 1.5.
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        h[0, 1] = h[1, 0] = 4e-10
        v = is_optimal_speed(h, PureState.basis_state(3, 0))
        assert v.kind is Verdict.SUBOPTIMAL
        assert v.residual > 1e3 * SEARCH_TOL

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_family_members_at_twice_the_floor(self, n):
        # Coupling at twice the stationary floor, completion levels over
        # twelve decades of scale, with and without an identity part of
        # 1e4 |H|_F: the verdict must still find the eigen-condition.
        rng = np.random.default_rng([n, 61])
        for scale in 10.0 ** np.arange(-6.0, 7.0):
            phi, psi = distinct_pair(rng, n)
            levels = scale * rng.uniform(-1.0, 1.0, n - 2)
            for shift in (0.0, 1e4):

                def member(energy):
                    h = synthesis._family_member(
                        optimal_hamiltonian(phi, psi, energy), phi, 0.0, levels
                    )
                    return h + shift * float(np.linalg.norm(h)) * np.eye(n)

                # A coupling this weak leaves max(1, |H|_F), so the floor, as it is.
                floor = STRUCTURAL_TOL * max(1.0, float(np.linalg.norm(member(1e-12 * scale))))
                h = member(2.0 * floor)
                verdict = is_optimal_speed(h, phi)
                assert verdict.kind is Verdict.OPTIMAL, (scale, shift, verdict)
                assert type(verdict.residual) is float
                x, base = equigeodesic_vector_of(h, phi)
                y, blocks = ad_conjugate(base.conj().T, x), BlockStructure((1, n - 1))
                certified = is_equigeodesic_structural(y, blocks)
                variational, residual = is_equigeodesic_variational(y, blocks)
                assert type(certified) is bool
                # H + c I stores its diagonal to ulp(c), about 2e-12 |H|_F
                # here: that tilts the coupling of X = -i (H - tr H / n) by
                # a relative 1e-6, which X alone cannot tell from a real
                # defect. Only the verdict sees |H|_F, so the certificates
                # are held to the unshifted members.
                assert certified or shift, (scale, verdict)
                assert variational or shift, (scale, residual)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32, 64])
    def test_spread_matches_eigendecomposition(self, n):
        # delta_e_max is the spread of herm_eig's shared factorization; the
        # eigenvalues-only solve it replaced stays the reference, held to the
        # same bound. Random and maximal-speed generators over six decades
        # of scale.
        rng = np.random.default_rng([n, 59])
        for k in range(30):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            phi, psi = distinct_pair(rng, n)
            if k % 2:
                h = scale * random_hermitian(rng, n)
            else:
                h = optimal_family_sample(phi, psi, scale, int(rng.integers(2**32)))
            w, _ = herm_eig(h)
            got = is_optimal_speed(h, phi).delta_e_max
            bound = 2 * n * np.finfo(float).eps * np.max(np.abs(w))
            assert abs(got - float(w[-1] - w[0]) / 2.0) <= bound
            assert abs(got - _reference_delta_e_max(h)) <= bound

    def test_builds_no_adapted_basis(self, rng, spy_on_bases):
        phi, psi = distinct_pair(rng, 8)
        last = PureState.basis_state(8, 7)
        cases = [
            (optimal_family_sample(phi, psi, 1.0, 4), phi),
            (random_hermitian(rng, 8), phi),
            (np.diag(rng.standard_normal(8)).astype(complex), last),
        ]
        calls = spy_on_bases()
        kinds = {is_optimal_speed(h, state).kind for h, state in cases}
        assert kinds == set(Verdict)
        assert calls == []

    @pytest.mark.parametrize(
        "h, error",
        [
            (np.eye(3), DimensionMismatchError),
            (np.ones((2, 3)), DimensionMismatchError),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), NotHermitianError),
            (np.array([[1.0, 1.0], [1.0 + 1e-9, 1.0]]), NotHermitianError),
        ],
    )
    def test_one_validation(self, h, error):
        # energy_uncertainty, the blocks and the verdict share one check.
        messages = set()
        for consumer in (energy_uncertainty, adapted_blocks, is_optimal_speed):
            with pytest.raises(error) as raised:
                consumer(h, KET0)
            messages.add(str(raised.value))
        assert len(messages) == 1

    def test_one_eigendecomposition_per_generator(self, rng, record_eigh):
        # Propagation, the verdict, the spectrum and the arrival scan of
        # one generator share one eigh, and no eigenvalues-only solve.
        phi, psi = distinct_pair(rng, 8)
        h = optimal_family_sample(phi, psi, 1.0, 4)
        calls = record_eigh()
        moved = propagate(h, phi, 0.4)
        assert is_optimal_speed(h, phi).kind is Verdict.OPTIMAL
        herm_eig(h)
        assert first_arrival_time(h, phi, moved, 3.0) == pytest.approx(0.4, abs=ARRIVAL_TOL)
        assert calls == ["eigh"]


class TestReferenceVerdict:
    """The verdict in full coordinates against ``_reference_verdict``, the
    block-based formula it replaced: the same kind everywhere, and generic
    (suboptimal) residuals within 1e-12 relative. A shift c |H|_F stores
    the diagonal to ulp(c), which moves either route's residual by about
    c n eps relative (9e-11 seen at c = 1e4), so there the bound is
    1e-12 c."""

    @pytest.mark.parametrize("n", [2, 3, 8, 32, 64])
    def test_same_kinds_and_residuals(self, n):
        rng = np.random.default_rng([n, 67])
        last = PureState.basis_state(n, n - 1)
        for scale in (1e-6, 1.0, 1e6):
            phi, psi = distinct_pair(rng, n)
            cases = [
                (Verdict.SUBOPTIMAL, scale * random_hermitian(rng, n), phi),
                (Verdict.OPTIMAL, optimal_hamiltonian(phi, psi, scale), phi),
                (Verdict.OPTIMAL, optimal_family_sample(phi, psi, scale, 11), phi),
                (Verdict.STATIONARY, scale * np.diag(rng.standard_normal(n)), last),
            ]
            for kind, h, state in cases:
                for shift in (0.0, 1e4):
                    shifted = h + shift * float(np.linalg.norm(h)) * np.eye(n)
                    verdict = is_optimal_speed(shifted, state)
                    ref_kind, ref_residual, _ = _reference_verdict(shifted, state)
                    assert verdict.kind is ref_kind is kind, (scale, shift, kind)
                    if kind is Verdict.SUBOPTIMAL:
                        rel = 1e-12 * max(1.0, shift)
                        assert verdict.residual == pytest.approx(ref_residual, rel=rel)

    @pytest.mark.parametrize("n", [3, 16])
    def test_tolerated_antihermitian_part_is_not_judged(self, n):
        # H + K with K anti-Hermitian, |H + K - (H + K)*|_F = 0.8e-10 |H|_F,
        # passes the Hermiticity gate. The verdict reads the Hermitian part,
        # as the blocks did; K alone would push these residuals past
        # SEARCH_TOL.
        rng = np.random.default_rng([n, 71])
        for shift in (0.0, 1.0, 1e4):
            phi, psi = distinct_pair(rng, n)
            h = optimal_family_sample(phi, psi, 1.0, 4)
            h = h + shift * float(np.linalg.norm(h)) * np.eye(n)
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            k = (g - g.conj().T) / 2.0
            h = h + k * (0.4e-10 * float(np.linalg.norm(h)) / float(np.linalg.norm(k)))
            verdict = is_optimal_speed(h, phi)
            assert verdict.kind is _reference_verdict(h, phi)[0] is Verdict.OPTIMAL, shift
            assert verdict.residual <= 0.1 * SEARCH_TOL, shift


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

    def test_rephased_ray_is_coincident(self, rng):
        for _ in range(50):
            phi = random_pure_state(rng, int(rng.integers(2, 9)))
            psi = PureState(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * phi.amplitudes)
            assert not optimal_hamiltonian(phi, psi, 1.0).any()
            assert not optimal_family_sample(phi, psi, 1.0, rng_seed=1).any()

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            optimal_hamiltonian(KET0, KET1, 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            optimal_hamiltonian(KET0, PureState.basis_state(3, 1), 1.0)


def _reference_family_member(core, phi, mean_energy, perp_levels):
    """The family member as it was built before it moved to full
    coordinates: the core's blocks in ``adapted_basis(phi)``, the
    complement block set there, and the round trip back through
    ``HamiltonianBlocks.reassemble``."""
    blocks = adapted_blocks(core, phi)
    xhat = blocks.coupling / float(np.linalg.norm(blocks.coupling))
    complement = mean_energy * np.outer(xhat, xhat.conj())
    if phi.n > 2:
        completion = adapted_basis(PureState(xhat))[:, 1:]
        complement = complement + (completion * perp_levels) @ completion.conj().T
    complement = (complement + complement.conj().T) / 2.0
    blocks = synthesis.HamiltonianBlocks(mean_energy, blocks.coupling, complement, blocks.basis)
    return blocks.reassemble()


class TestOptimalFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 32, 64, 128])
    def test_matches_the_adapted_basis_round_trip(self, n):
        # Energies, mean energies and completion levels over twelve decades.
        rng = np.random.default_rng([n, 89])
        for _ in range(12):
            phi, psi = distinct_pair(rng, n)
            energy = 10.0 ** rng.uniform(-6.0, 6.0)
            core = optimal_hamiltonian(phi, psi, energy)
            mean_energy = float(rng.standard_normal()) * energy
            levels = energy * rng.choice([-1.0, 1.0], n - 2) * 10.0 ** rng.uniform(-6.0, 6.0, n - 2)
            h = synthesis._family_member(core, phi, mean_energy, levels)
            ref = _reference_family_member(core, phi, mean_energy, levels)
            assert np.linalg.norm(h - ref) <= 1e-14 * np.linalg.norm(ref), energy
            assert np.array_equal(h, h.conj().T)

    def test_builds_no_blocks(self, rng, spy_on_bases, monkeypatch):
        # Two completions, of phi and of the coupling inside it; no
        # conjugation into the adapted basis and no way back.
        phi, psi = distinct_pair(rng, 8)
        calls = spy_on_bases()
        monkeypatch.setattr(synthesis.HamiltonianBlocks, "reassemble", None)
        optimal_family_sample(phi, psi, 1.0, 4)
        assert calls == ["adapted_basis", "adapted_basis"]

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

    def test_large_mean_small_coupling(self):
        # Mean energy 100 and coupling 1e-6: delta_e is the coupling, with
        # no cancellation against the mean.
        h = np.array([[100.0, 1e-6], [1e-6, 100.0]])
        assert qsl_time(KET0, KET1, h) == pytest.approx(np.pi / 2.0 / 1e-6, rel=1e-12)


def _as_given_uncertainty(h, phi):
    """``energy_uncertainty``'s formula on H as given rather than on its
    Hermitian part: the reference for its output bits on exactly Hermitian
    H."""
    a = np.asarray(h, dtype=complex)
    image = a @ phi.amplitudes
    mean = float(np.vdot(phi.amplitudes, image).real)
    return float(np.linalg.norm(image - mean * phi.amplitudes))


class TestHermitianPart:
    """``energy_uncertainty``, ``qsl_time``, the verdict,
    ``equigeodesic_vector_of`` and ``adapted_blocks`` read the Hermitian
    part (H + H*) / 2, as ``herm_eig`` does."""

    @pytest.mark.parametrize("n", [3, 16])
    def test_tolerated_antihermitian_part_is_not_read(self, n):
        # A family member of uncertainty 1 shifted by 1e4 |H|_F, plus K
        # anti-Hermitian with |K|_F = 0.4e-10 |H|_F, which the gate accepts.
        rng = np.random.default_rng([n, 79])
        phi, psi = distinct_pair(rng, n)
        h = optimal_family_sample(phi, psi, 1.0, 4)
        h = h + 1e4 * float(np.linalg.norm(h)) * np.eye(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = (g - g.conj().T) / 2.0
        h = h + k * (0.4e-10 * float(np.linalg.norm(h)) / float(np.linalg.norm(k)))
        assert numerics.is_hermitian(h)
        part = (h + h.conj().T) / 2.0
        reference = _as_given_uncertainty(part, phi)
        # Read as given, K moves the uncertainty by about 1e-7 relative.
        assert abs(_as_given_uncertainty(h, phi) - reference) > 1e-8 * reference
        verdict = is_optimal_speed(h, phi)
        assert verdict.kind is Verdict.OPTIMAL
        assert verdict.delta_e == energy_uncertainty(h, phi)
        assert verdict.delta_e == pytest.approx(reference, rel=1e-12)
        assert verdict.delta_e <= verdict.delta_e_max * (1.0 + 1e-12)
        assert qsl_time(phi, psi, h) == qsl_time(phi, psi, part)
        # Read as given, K fails the skew-Hermiticity check of X.
        assert np.array_equal(
            equigeodesic_vector_of(h, phi)[0].matrix, equigeodesic_vector_of(part, phi)[0].matrix
        )
        blocks, ref = adapted_blocks(h, phi), adapted_blocks(part, phi)
        assert np.array_equal(blocks.coupling, ref.coupling)
        assert np.array_equal(blocks.complement, ref.complement)

    def test_hermitian_inputs_keep_their_bits(self):
        # Exactly Hermitian generators are their own Hermitian part, and
        # family members are built exactly Hermitian.
        rng = np.random.default_rng(83)
        for k in range(200):
            n = int(rng.integers(2, 65))
            phi, psi = distinct_pair(rng, n)
            h = random_hermitian(rng, n)
            assert energy_uncertainty(h, phi) == _as_given_uncertainty(h, phi), k
            member = optimal_family_sample(phi, psi, 1.0, k)
            assert np.array_equal(member, member.conj().T), k
            assert energy_uncertainty(member, phi) == _as_given_uncertainty(member, phi), k

    def test_one_gate_on_a_remembered_generator(self, rng, monkeypatch):
        # The verdict of a factorized generator forms its Hermitian part
        # once and runs no other Hermiticity test.
        phi, psi = distinct_pair(rng, 8)
        h = optimal_family_sample(phi, psi, 1.0, 5)
        herm_eig(h)
        gates, tests = [], []
        hermitian_part = numerics._hermitian_part
        is_hermitian = numerics.is_hermitian
        monkeypatch.setattr(
            quantum_states, "_hermitian_part", lambda *a: gates.append(1) or hermitian_part(*a)
        )
        monkeypatch.setattr(numerics, "_hermitian_part", quantum_states._hermitian_part)
        monkeypatch.setattr(numerics, "is_hermitian", lambda m: tests.append(1) or is_hermitian(m))
        assert is_optimal_speed(h, phi).kind is Verdict.OPTIMAL
        assert (len(gates), len(tests)) == (1, 0)


class TestStationaryFloor:
    """The verdict, the speed-limit time and the arrival scan read a
    coupling eps in H = [[1, eps], [eps, 2]] against one floor,
    STRUCTURAL_TOL max(1, |H|_F)."""

    FLOOR = STRUCTURAL_TOL * math.sqrt(5.0)

    def test_below_floor_is_stationary(self):
        eps = 0.5 * self.FLOOR
        h = np.array([[1.0, eps], [eps, 2.0]])
        assert is_optimal_speed(h, KET0).kind is Verdict.STATIONARY
        with pytest.raises(StationaryStateError):
            qsl_time(KET0, KET1, h)
        with pytest.raises(StationaryStateError):
            first_arrival_time(h, KET0, KET0, 1.0)

    def test_above_floor_moves(self):
        eps = 2.0 * self.FLOOR
        h = np.array([[1.0, eps], [eps, 2.0]])
        assert is_optimal_speed(h, KET0).kind is not Verdict.STATIONARY
        assert qsl_time(KET0, KET1, h) == pytest.approx(np.pi / 2.0 / eps, rel=1e-12)
        assert first_arrival_time(h, KET0, KET0, 1.0) is not None


    def test_verdict_and_qsl_time_decide_alike(self):
        # 1000 couplings within 1e-6 relative of the floor, in a random
        # unitary frame: the verdict's delta_e is energy_uncertainty's bit
        # for bit, so both read one stationary decision.
        rng = np.random.default_rng(73)
        stationary = 0
        for k in range(1000):
            n = (3, 8, 32, 64)[k % 4]
            framed = np.diag(10.0 ** rng.uniform(-2.0, 4.0) * rng.uniform(-1.0, 1.0, n))
            floor = STRUCTURAL_TOL * max(1.0, float(np.linalg.norm(framed)))
            x = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            x *= floor * (1.0 + rng.uniform(-1e-6, 1e-6)) / float(np.linalg.norm(x))
            framed = framed.astype(complex)
            framed[1:, 0], framed[0, 1:] = x, x.conj()
            u = random_unitary(rng, n)
            h = u @ framed @ u.conj().T
            h = (h + h.conj().T) / 2.0
            phi = PureState(u[:, 0])
            verdict = is_optimal_speed(h, phi)
            assert verdict.delta_e == energy_uncertainty(h, phi), k
            try:
                qsl_time(phi, PureState.basis_state(n, 0), h)
            except StationaryStateError:
                assert verdict.kind is Verdict.STATIONARY, k
                stationary += 1
            else:
                assert verdict.kind is not Verdict.STATIONARY, k
        assert 100 < stationary < 900  # both sides of the floor are drawn


class TestFirstArrival:
    def test_qubit_oracle(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 10.0)
        assert t == pytest.approx(np.pi / 2.0, abs=ARRIVAL_TOL)

    def test_return_to_start_excludes_zero(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET0, 10.0)
        assert t == pytest.approx(np.pi, abs=ARRIVAL_TOL)

    def test_stationary_never_arrives(self, record_scans):
        scans = record_scans
        assert first_arrival_time(SIGMA_Z, KET0, KET1, 1000.0) is None
        assert (scans[0]["grid_points"], scans[0]["chunks"]) == (0, 0)

    def test_stationary_at_target_has_no_travel_time(self):
        with pytest.raises(StationaryStateError):
            first_arrival_time(SIGMA_Z, KET0, KET0, 1000.0)

    def test_short_horizon_misses(self):
        assert first_arrival_time(SIGMA_Y, KET0, KET1, 1.0) is None

    def test_action_scale_stretches_time(self):
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 10.0, Units(hbar=2.0))
        assert t == pytest.approx(np.pi, abs=ARRIVAL_TOL)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            first_arrival_time(SIGMA_Y, KET0, PureState.basis_state(3, 1), 1.0)

    def test_long_horizon_keeps_the_step(self, record_scans):
        # A 2e7-point grid; capping it coarsened the step to 0.1 rad, so the
        # gate skipped the first three arrivals and returned 7 pi / 2.
        scans = record_scans
        t = first_arrival_time(SIGMA_Y, KET0, KET1, 2e5)
        assert t == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert scans[0]["chunks"] == 1


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

    def test_one_adapted_basis_per_call(self, rng, spy_on_bases):
        phi, psi = distinct_pair(rng, 6)
        h = optimal_family_sample(phi, psi, 1.0, 4)
        calls = spy_on_bases()
        _, base = equigeodesic_vector_of(h, phi)
        assert calls == ["adapted_basis"]
        assert np.array_equal(base, adapted_basis(phi))

    def test_large_identity_part_leaves_a_traceless_vector(self):
        # One pass of mean removal leaves a trace of about n eps |tr H| / n,
        # above the tracelessness floor of SuVector at this size and shift.
        rng = np.random.default_rng(5)
        for seed in range(20):
            phi, psi = distinct_pair(rng, 64)
            h = optimal_family_sample(phi, psi, 1.0, seed)
            h = h + 1e4 * float(np.linalg.norm(h)) * np.eye(64)
            x, _ = equigeodesic_vector_of(h, phi)
            assert abs(np.trace(x.matrix)) <= 64 * np.finfo(float).eps * np.linalg.norm(x.matrix)
