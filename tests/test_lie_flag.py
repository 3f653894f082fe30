"""Unit tests for the su(n) layer and the flag-manifold split.

Fixed expectations were computed by hand: pairings from -2n tr(XY) on
explicit 2x2 matrices, the bracket oracle by multiplying the matrices out,
the rotation orbit from the series of the real 2x2 rotation generator.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo import (
    BlockStructure,
    BlockStructureError,
    DimensionMismatchError,
    NotSkewHermitianError,
    NotUnitaryError,
    SuVector,
    ad_conjugate,
    bracket,
    coset_orbit,
    is_equigeodesic_structural,
    is_equigeodesic_variational,
    killing_inner,
    killing_norm,
    reductive_split,
)
from optevo.numerics import SEARCH_TOL
from optevo.sampling import random_equigeodesic, random_su_vector, random_unitary

ATOL = 1e-12
RESIDUAL_TRUE = 1e-9
RESIDUAL_FALSE = 1e-3

ROT = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
PHASE = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)
MIXED = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)


class TestBlockStructure:
    def test_rejects_single_part(self):
        with pytest.raises(BlockStructureError):
            BlockStructure((3,))

    def test_rejects_nonpositive_part(self):
        with pytest.raises(BlockStructureError):
            BlockStructure((1, 0))

    def test_slices_and_mask(self):
        b = BlockStructure((1, 2))
        assert b.n == 3
        assert b.count == 2
        assert b.slices() == [slice(0, 1), slice(1, 3)]
        expected = np.array(
            [[True, False, False], [False, True, True], [False, True, True]]
        )
        assert np.array_equal(b.diagonal_mask(), expected)


class TestSuVector:
    def test_rejects_hermitian(self):
        with pytest.raises(NotSkewHermitianError):
            SuVector(np.diag([1.0, -1.0]))

    def test_rejects_nonzero_trace(self):
        # Skew-Hermitian but with trace 2i.
        with pytest.raises(NotSkewHermitianError):
            SuVector(np.diag([1j, 1j]))

    def test_stored_copy_is_frozen(self):
        x = SuVector(ROT)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 1.0

    def test_dim(self):
        assert SuVector(ROT).dim == 2

    def test_equality_goes_by_identity(self):
        a, b = SuVector(ROT), SuVector(ROT)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_rejects_small_pure_trace(self):
        # Both defects are judged against |X|_F, so smallness does not pass.
        with pytest.raises(NotSkewHermitianError):
            SuVector(1e-11j * np.eye(3))
        with pytest.raises(NotSkewHermitianError):
            SuVector(1e-11 * np.diag([1.0, -1.0]))

    def test_zero_matrix_constructs(self):
        assert not SuVector(np.zeros((3, 3))).matrix.any()

    def test_judgement_is_scale_free(self, rng):
        x = random_su_vector(rng, 4).matrix
        bad = x + 1e-8 * np.linalg.norm(x) * np.diag([1j, 0.0, 0.0, 0.0])
        for factor in 10.0 ** np.arange(-12.0, 13.0, 3.0):
            SuVector(factor * x)
            with pytest.raises(NotSkewHermitianError):
                SuVector(factor * bad)

    def test_bracket_and_split_of_nearly_commuting_vectors(self, rng):
        # Their defects are roundoff on the inputs' scale, large against
        # their own norm, so they are not judged again.
        x, y = random_su_vector(rng, 6), random_su_vector(rng, 6)
        for delta in (1e-6, 1e-10):
            b = bracket(x, SuVector(x.matrix + delta * y.matrix))
            assert np.linalg.norm(b.matrix - delta * bracket(x, y).matrix) < 1e-13
        u = random_unitary(rng, 6)
        tangent = random_equigeodesic(rng, 6, with_isotropy=False)
        moved = ad_conjugate(u.conj().T, ad_conjugate(u, tangent))
        iso, _ = reductive_split(moved, BlockStructure((1, 5)))
        assert 0.0 < np.linalg.norm(iso.matrix) < 1e-13


class TestKillingPairing:
    def test_phase_generator_oracle(self):
        # X = diag(i, -i): tr(X^2) = -2, so -2n tr = 8.
        x = SuVector(PHASE)
        assert killing_inner(x, x) == pytest.approx(8.0, abs=ATOL)
        assert killing_norm(x) == pytest.approx(np.sqrt(8.0), abs=ATOL)

    def test_orthogonal_pair_oracle(self):
        assert killing_inner(SuVector(ROT), SuVector(MIXED)) == pytest.approx(
            0.0, abs=ATOL
        )

    def test_rejects_dimension_mismatch(self):
        x3 = SuVector(np.zeros((3, 3), dtype=complex))
        with pytest.raises(DimensionMismatchError):
            killing_inner(SuVector(ROT), x3)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_positive_definite(self, n, seed):
        x = random_su_vector(np.random.default_rng(seed), n)
        norm = np.linalg.norm(x.matrix)
        assert killing_inner(x, x) >= 2.0 * n * norm**2 * (1.0 - 1e-10)


class TestSplitAndMetric:
    def test_split_masks_exactly(self):
        m = np.array(
            [
                [1j, 2.0 + 1j, -1.0],
                [-2.0 + 1j, -3j, 4j],
                [1.0, 4j, 2j],
            ]
        )
        x = SuVector(m)
        iso, tan = reductive_split(x, BlockStructure((1, 2)))
        assert np.array_equal(iso.matrix + tan.matrix, x.matrix)
        assert iso.matrix[0, 1] == 0.0 and iso.matrix[2, 0] == 0.0
        assert tan.matrix[0, 0] == 0.0 and tan.matrix[1, 2] == 0.0
        assert tan.matrix[1, 0] == m[1, 0]

    def test_split_orthogonal_under_pairing(self, rng):
        x = random_su_vector(rng, 5)
        iso, tan = reductive_split(x, BlockStructure((1, 4)))
        assert abs(killing_inner(iso, tan)) < 1e-9 * max(1.0, killing_inner(x, x))


class TestBracket:
    def test_oracle(self):
        # [ROT, MIXED] multiplies out to diag(-2i, 2i).
        out = bracket(SuVector(ROT), SuVector(MIXED))
        assert np.allclose(out.matrix, np.diag([-2j, 2j]), atol=ATOL)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_jacobi_identity(self, seed):
        gen = np.random.default_rng(seed)
        x, y, z = (random_su_vector(gen, 4) for _ in range(3))
        total = (
            bracket(x, bracket(y, z)).matrix
            + bracket(y, bracket(z, x)).matrix
            + bracket(z, bracket(x, y)).matrix
        )
        scale = max(1.0, np.linalg.norm(x.matrix) * np.linalg.norm(y.matrix) * np.linalg.norm(z.matrix))
        assert np.linalg.norm(total) < 1e-10 * scale


# Line-partition certificate fixtures. Both matrices are traceless and
# skew-Hermitian; they differ only in which diagonal entry of the lower
# block carries the eigenvalue matching the corner entry.
X_LINE_TRUE = SuVector(
    np.array([[1j, -1.0, 0.0], [1.0, 1j, 0.0], [0.0, 0.0, -2j]])
)
X_LINE_FALSE = SuVector(
    np.array([[1j, -1.0, 0.0], [1.0, -2j, 0.0], [0.0, 0.0, 1j]])
)
LINE_BLOCKS = BlockStructure((1, 2))


class TestEquigeodesicCertificates:
    def test_structural_line_true(self):
        assert is_equigeodesic_structural(X_LINE_TRUE, LINE_BLOCKS)

    def test_structural_line_false(self):
        assert not is_equigeodesic_structural(X_LINE_FALSE, LINE_BLOCKS)

    def test_variational_agrees_on_line_fixtures(self):
        ok, residual = is_equigeodesic_variational(X_LINE_TRUE, LINE_BLOCKS, samples=16)
        assert ok and residual <= RESIDUAL_TRUE
        ok, residual = is_equigeodesic_variational(X_LINE_FALSE, LINE_BLOCKS, samples=16)
        assert not ok and residual > RESIDUAL_FALSE

    def test_full_flag_single_coupling_true(self):
        x = SuVector(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        b = BlockStructure((1, 1, 1))
        assert is_equigeodesic_structural(x, b)
        ok, residual = is_equigeodesic_variational(x, b, samples=16)
        assert ok and residual <= RESIDUAL_TRUE

    def test_full_flag_chained_coupling_false(self):
        x = SuVector(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        )
        b = BlockStructure((1, 1, 1))
        assert not is_equigeodesic_structural(x, b)
        ok, residual = is_equigeodesic_variational(x, b, samples=16)
        assert not ok and residual > RESIDUAL_FALSE

    def test_two_part_wide_partition_warns(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 2] = 1.0
        m[2, 0] = -1.0
        x = SuVector(m)
        with pytest.warns(RuntimeWarning):
            assert is_equigeodesic_structural(x, BlockStructure((2, 2)))

    def test_rejects_partition_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_equigeodesic_structural(SuVector(ROT), LINE_BLOCKS)

    @pytest.mark.parametrize("factor", [1e-5, 1e-6])
    def test_structural_rejects_small_generic_directions(self, factor):
        # Smallness alone must not certify a direction.
        x = random_su_vector(np.random.default_rng(3), 5)
        small = SuVector(factor * x.matrix)
        for parts in ((1, 4), (1, 2, 2)):
            assert is_equigeodesic_structural(small, BlockStructure(parts)) is False, parts

    def test_structural_rejects_coupling_off_the_eigenvector(self):
        # X = -i (H - tr H / 3) for H = diag(0, 1, 3) with H01 = 4e-10: the
        # coupling points off every eigenvector of the complement.
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        h[0, 1] = h[1, 0] = 4e-10
        x = SuVector(-1j * (h - np.trace(h) / 3.0 * np.eye(3)))
        assert not is_equigeodesic_structural(x, LINE_BLOCKS)

    @pytest.mark.parametrize("parts", [(1, 1), (1, 4), (1, 7), (1, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_structural_is_scale_free(self, parts):
        blocks = BlockStructure(parts)
        rng = np.random.default_rng([blocks.n, blocks.count, 67])
        for _ in range(5):
            if blocks.count == 2:
                x = random_equigeodesic(rng, blocks.n)
            else:
                x = pair_direction(rng, blocks, with_isotropy=True)
            generic = random_su_vector(rng, blocks.n)
            for factor in 10.0 ** np.arange(-6.0, 7.0, 2.0):
                assert is_equigeodesic_structural(SuVector(factor * x.matrix), blocks) is True
                assert not is_equigeodesic_structural(SuVector(factor * generic.matrix), blocks)

    def test_ignores_sampling_arguments(self):
        plain = is_equigeodesic_variational(X_LINE_FALSE, LINE_BLOCKS)
        assert is_equigeodesic_variational(
            X_LINE_FALSE, LINE_BLOCKS, samples=3, rng_seed=99
        ) == plain


def scaled_by_metric(blocks, multipliers, tangent):
    """An invariant metric applied to a tangent direction: the (i, j) and
    (j, i) blocks scaled by multipliers[(i, j)], j < i."""
    factors = np.ones((blocks.n, blocks.n))
    sl = blocks.slices()
    for (i, j), mu in multipliers.items():
        factors[sl[i], sl[j]] = factors[sl[j], sl[i]] = mu
    return SuVector(factors * tangent.matrix)


def sampled_variational(x, blocks, rng, samples=16):
    """The former sampled certificate, kept as the reference: the largest
    residual of [X, L X_m]_m over random metrics L with multipliers
    log-uniform in [0.1, 10], normalized by max(1, |X|^2)."""
    _, tangent = reductive_split(x, blocks)
    denom = max(1.0, killing_inner(x, x))
    worst = 0.0
    for _ in range(samples):
        multipliers = {
            (i, j): float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            for i in range(blocks.count)
            for j in range(i)
        }
        moved = scaled_by_metric(blocks, multipliers, tangent)
        _, br_tangent = reductive_split(bracket(x, moved), blocks)
        worst = max(worst, killing_norm(br_tangent) / denom)
    return worst <= RESIDUAL_TRUE, worst


def block_pairs(x, blocks):
    """X_p for each block pair p: the part of X on the pair's two
    off-diagonal blocks."""
    sl = blocks.slices()
    for i, j in itertools.combinations(range(blocks.count), 2):
        pair = np.zeros_like(x.matrix)
        pair[sl[i], sl[j]] = x.matrix[sl[i], sl[j]]
        pair[sl[j], sl[i]] = x.matrix[sl[j], sl[i]]
        yield SuVector(pair)


def bracket_defect(x, blocks):
    """sum_p |[X, X_p]_m| in the Killing norm."""
    pairs = block_pairs(x, blocks)
    return sum(killing_norm(reductive_split(bracket(x, p), blocks)[1]) for p in pairs)


def reference_variational(x, blocks):
    """The exact certificate's residual under its former normalization,
    kept as the reference: 10 sum_p |[X, X_p]_m| / max(1, |X|^2)."""
    return 10.0 * bracket_defect(x, blocks) / max(1.0, killing_inner(x, x))


def scale_free_denominator(x, blocks):
    """|X| sum_p |X_p| + r / SEARCH_TOL with r = 8 n eps |X| sum_p (|X| + |X_p|),
    Killing norms, as the certificate's docstring states it."""
    size = killing_norm(x)
    parts = [killing_norm(pair) for pair in block_pairs(x, blocks)]
    roundoff = 8.0 * x.dim * np.finfo(float).eps * size * (len(parts) * size + sum(parts))
    return size * sum(parts) + roundoff / SEARCH_TOL


REFERENCE_PARTITIONS = [(1, k) for k in range(1, 8)] + [
    (1, 1, 1), (1, 2, 2), (2, 3), (2, 2, 2), (1, 1, 1, 1)
]


def pair_direction(rng, blocks, with_isotropy):
    """Tangent direction on one random block pair. With ``with_isotropy``
    a block-scalar isotropy part, equal on the pair's two blocks, is added;
    it commutes with the pair, so the direction stays equigeodesic."""
    sl = blocks.slices()
    i, j = sorted(rng.choice(blocks.count, size=2, replace=False))
    n = blocks.n
    m = np.zeros((n, n), dtype=complex)
    shape = (blocks.parts[j], blocks.parts[i])
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m[sl[j], sl[i]] = block
    m[sl[i], sl[j]] = -block.conj().T
    if with_isotropy:
        levels = rng.standard_normal(blocks.count)
        levels[j] = levels[i]
        diag = np.repeat(levels, blocks.parts)
        m += 1j * np.diag(diag - diag.mean())
    return SuVector(m)


class TestVariationalAgainstSampledReference:
    @pytest.mark.parametrize("parts", REFERENCE_PARTITIONS)
    def test_verdicts_agree_and_exact_dominates(self, parts):
        blocks = BlockStructure(parts)
        n = blocks.n
        rng = np.random.default_rng([2026, n, blocks.count])
        cases = []
        for k in range(12):
            if blocks.count == 2 and parts[0] == 1:
                cases.append((random_equigeodesic(rng, n, with_isotropy=bool(k % 2)), True))
            else:
                cases.append((pair_direction(rng, blocks, with_isotropy=True), True))
            cases.append((pair_direction(rng, blocks, with_isotropy=False), True))
            cases.append((random_su_vector(rng, n), False))
        for x, expected in cases:
            ok, exact = is_equigeodesic_variational(x, blocks)
            ref_ok, sampled = sampled_variational(x, blocks, rng)
            assert ok == ref_ok == expected
            # The exact residual under the sampled one's normalization
            # dominates it, up to roundoff where both are roundoff.
            assert reference_variational(x, blocks) >= sampled - 1e-15
            if expected:
                assert exact <= RESIDUAL_TRUE
            else:
                assert sampled > RESIDUAL_FALSE

    @pytest.mark.parametrize("parts", [(1, 3), (2, 3)])
    def test_two_part_residual_is_the_box_supremum(self, parts, rng):
        # One block pair: the residual scales with the single multiplier,
        # so the largest one, 10, attains the exact residual.
        blocks = BlockStructure(parts)
        x = random_su_vector(rng, blocks.n)
        _, exact = is_equigeodesic_variational(x, blocks)
        _, tangent = reductive_split(x, blocks)
        top = scaled_by_metric(blocks, {(1, 0): 10.0}, tangent)
        _, br_tangent = reductive_split(bracket(x, top), blocks)
        assert exact * scale_free_denominator(x, blocks) == pytest.approx(
            killing_norm(br_tangent), rel=1e-12
        )

    @pytest.mark.parametrize("parts", REFERENCE_PARTITIONS)
    def test_rescales_the_former_normalization(self, parts):
        # The residual is the former one with |X| sum_p |X_p| (plus the
        # roundoff term) in place of max(1, |X|^2).
        blocks = BlockStructure(parts)
        rng = np.random.default_rng([2027, blocks.n, blocks.count])
        for _ in range(12):
            x = random_su_vector(rng, blocks.n)
            ok, exact = is_equigeodesic_variational(x, blocks)
            before = reference_variational(x, blocks)
            rescaled = exact * scale_free_denominator(x, blocks) / max(1.0, killing_inner(x, x))
            assert rescaled == pytest.approx(before, rel=1e-12)
            assert not ok and min(exact, before) > RESIDUAL_FALSE

    @pytest.mark.parametrize("parts", [(1, 1), (1, 4), (1, 7), (1, 1, 1), (1, 2, 2), (2, 2, 2)])
    def test_variational_is_scale_free(self, parts):
        blocks = BlockStructure(parts)
        rng = np.random.default_rng([blocks.n, blocks.count, 71])
        for _ in range(5):
            if blocks.count == 2 and parts[0] == 1:
                x = random_equigeodesic(rng, blocks.n)
            else:
                x = pair_direction(rng, blocks, with_isotropy=True)
            generic = random_su_vector(rng, blocks.n)
            _, at_one = is_equigeodesic_variational(generic, blocks)
            for factor in 10.0 ** np.arange(-6.0, 7.0, 2.0):
                ok, residual = is_equigeodesic_variational(SuVector(factor * x.matrix), blocks)
                assert ok and residual <= RESIDUAL_TRUE / 8.0
                scaled = SuVector(factor * generic.matrix)
                ok, residual = is_equigeodesic_variational(scaled, blocks)
                assert not ok and residual == pytest.approx(at_one, rel=1e-12)

    def test_small_vectors_off_their_direction_fail(self):
        # Both passed the former max(1, |X|^2) scale, at 4.9e-10 and 1.3e-10.
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        h[0, 1] = h[1, 0] = 4e-10
        x = SuVector(-1j * (h - np.trace(h) / 3.0 * np.eye(3)))
        assert reference_variational(x, LINE_BLOCKS) <= RESIDUAL_TRUE
        assert is_equigeodesic_variational(x, LINE_BLOCKS)[0] is False
        small = SuVector(1e-6 * random_su_vector(np.random.default_rng(3), 5).matrix)
        assert reference_variational(small, BlockStructure((1, 4))) <= RESIDUAL_TRUE
        assert is_equigeodesic_variational(small, BlockStructure((1, 4)))[0] is False


class TestConjugationAndOrbit:
    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitaryError):
            ad_conjugate(2.0 * np.eye(2), SuVector(ROT))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ad_conjugate(np.eye(3), SuVector(ROT))

    def test_pairing_is_conjugation_invariant(self, rng):
        x = random_su_vector(rng, 4)
        y = random_su_vector(rng, 4)
        u = random_unitary(rng, 4)
        before = killing_inner(x, y)
        after = killing_inner(ad_conjugate(u, x), ad_conjugate(u, y))
        assert abs(after - before) < 1e-9 * max(1.0, abs(before))

    def test_rotation_orbit_oracle(self):
        # exp(t ROT) is the plane rotation by angle t.
        u = coset_orbit(SuVector(ROT), np.pi / 2.0)
        assert np.allclose(u, ROT, atol=1e-12)
        u = coset_orbit(SuVector(ROT), np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_orbit_group_law(self, rng):
        x = random_su_vector(rng, 3)
        left = coset_orbit(x, 0.7) @ coset_orbit(x, 0.4)
        assert np.linalg.norm(left - coset_orbit(x, 1.1)) < 1e-11
