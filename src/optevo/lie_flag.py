"""The su(n) layer behind flag-manifold geometry.

A flag manifold enters only through its block partition (n_1, ..., n_t) of
n. The isotropy subalgebra keeps the block-diagonal part of a traceless
skew-Hermitian matrix, the tangent space at the origin keeps the
off-diagonal blocks, and an invariant metric rescales each off-diagonal
block pair by one positive multiplier. On top of that split this module
provides the negative Killing pairing, brackets, conjugation, one-parameter
orbits, and the two certificates (structural and variational) for a tangent
direction whose one-parameter orbit is a geodesic for every invariant
metric at once.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockStructureError,
    DimensionMismatchError,
    NotSkewHermitianError,
    NotUnitaryError,
)
from .numerics import SEARCH_TOL, STRUCTURAL_TOL, _eigen_residual, as_matrix, is_unitary, unitary_exp

__all__ = [
    "BlockStructure",
    "SuVector",
    "killing_inner",
    "killing_norm",
    "reductive_split",
    "bracket",
    "is_equigeodesic_structural",
    "is_equigeodesic_variational",
    "ad_conjugate",
    "coset_orbit",
]


@dataclass(frozen=True)
class BlockStructure:
    """Ordered partition (n_1, ..., n_t) of n with t >= 2 parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 2:
            raise BlockStructureError("a partition needs at least two parts")
        if any(p < 1 for p in parts):
            raise BlockStructureError(f"parts must be positive, got {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def count(self) -> int:
        return len(self.parts)

    def slices(self) -> list[slice]:
        """Row/column ranges of the parts, in order."""
        edges = np.cumsum((0,) + self.parts)
        return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    def diagonal_mask(self) -> np.ndarray:
        """Boolean n x n mask, True on the diagonal blocks."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for s in self.slices():
            mask[s, s] = True
        return mask


@dataclass(frozen=True, eq=False)
class SuVector:
    """Element of su(n): a traceless skew-Hermitian matrix.

    Construction checks the skew defect |X + X*|_F and the trace against
    STRUCTURAL_TOL |X|_F, alike at every scale, and stores a read-only
    copy. Offending inputs are rejected, never repaired.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = as_matrix(self.matrix).copy()
        scale = float(np.linalg.norm(a))
        if (skew := float(np.linalg.norm(a + a.conj().T))) > STRUCTURAL_TOL * scale:
            raise NotSkewHermitianError(f"skew-hermiticity defect {skew:.3e} exceeds tolerance")
        if abs(tr := complex(np.trace(a))) > STRUCTURAL_TOL * scale:
            raise NotSkewHermitianError(f"trace {tr:.3e} exceeds tolerance")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _closed(a: np.ndarray) -> SuVector:
    """SuVector of a fresh result of an su(n) operation on valid vectors, not
    judged again: its roundoff is on the inputs' scale, which can exceed its own."""
    a.flags.writeable = False
    vector = object.__new__(SuVector)
    object.__setattr__(vector, "matrix", a)
    return vector


def _require_same_dim(x: SuVector, y: SuVector) -> None:
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dimensions differ: {x.dim} vs {y.dim}")


def _require_blocks_fit(x: SuVector, blocks: BlockStructure) -> None:
    if blocks.n != x.dim:
        raise DimensionMismatchError(
            f"partition sums to {blocks.n} but the matrix has dimension {x.dim}"
        )


def _killing_scale(n: int) -> float:
    """The factor 2n in -B(X, Y) = -2n tr(XY) on su(n)."""
    return 2.0 * n


def killing_inner(x: SuVector, y: SuVector) -> float:
    """Negative Killing pairing -B(X, Y) = -2n tr(XY) on su(n).

    Positive definite on skew-Hermitian matrices. The imaginary part of the
    trace is a roundoff artifact and is discarded after checking it is
    negligible against the value itself.
    """
    _require_same_dim(x, y)
    val = complex(-_killing_scale(x.dim) * np.trace(x.matrix @ y.matrix))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"pairing came out non-real: {val!r}")
    return float(val.real)


def killing_norm(x: SuVector) -> float:
    """Norm induced by the negative Killing pairing."""
    return float(np.sqrt(max(0.0, killing_inner(x, x))))


def reductive_split(x: SuVector, blocks: BlockStructure) -> tuple[SuVector, SuVector]:
    """Split X into its isotropy part (diagonal blocks) and tangent part.

    The two pieces sum to X entry for entry, and they are orthogonal under
    the trace form because their supports never meet.
    """
    _require_blocks_fit(x, blocks)
    mask = blocks.diagonal_mask()
    zero = np.zeros_like(x.matrix)
    iso = np.where(mask, x.matrix, zero)
    tan = np.where(mask, zero, x.matrix)
    return _closed(iso), _closed(tan)


def bracket(x: SuVector, y: SuVector) -> SuVector:
    """Commutator XY - YX, again in su(n)."""
    _require_same_dim(x, y)
    return _closed(x.matrix @ y.matrix - y.matrix @ x.matrix)


def is_equigeodesic_structural(x: SuVector, blocks: BlockStructure) -> bool:
    """Closed-form certificate that every invariant metric geodesic through
    the origin with initial direction X is the one-parameter orbit of X.

    For the partition (1, n-1) the certificate is (A - i a I) x = 0 on the
    blocks of X = [[i a, -x*], [x, A]]; for three or more parts it is
    X_ij X_jk = 0 for pairwise distinct block indices. Each is read as the
    verdict is, by ``numerics._eigen_residual``: by direction, not size.
    For a two-part partition whose first part exceeds 1 the product test
    has no terms; the function warns and returns True, and only the
    variational certificate carries information there.
    """
    _require_blocks_fit(x, blocks)
    m = x.matrix
    scale = float(np.linalg.norm(m))
    if blocks.count == 2:
        if blocks.parts[0] == 1:
            left = m[1:, 1:] - 1j * m[0, 0].imag * np.eye(x.dim - 1)
            return _eigen_residual(left, m[1:, 0], scale, x.dim) <= SEARCH_TOL
        warnings.warn(
            "the block-product certificate is vacuous for a two-part partition "
            "with a non-line first part; use the variational test",
            RuntimeWarning,
            stacklevel=2,
        )
        return True
    sl = blocks.slices()
    return all(
        _eigen_residual(m[sl[i], sl[j]], m[sl[j], sl[k]], scale, x.dim) <= SEARCH_TOL
        for i, j, k in itertools.permutations(range(blocks.count), 3)
    )


def is_equigeodesic_variational(
    x: SuVector,
    blocks: BlockStructure,
    samples: int = 16,
    rng_seed: int = 0,
) -> tuple[bool, float]:
    """Exact certificate: the tangent projection of [X, L X_m] must vanish
    for every invariant metric L.

    That projection is linear in the multipliers of L, so it vanishes for
    every L exactly when [X, X_p]_m vanishes for each block pair p, where
    X_p is the part of X_m on pair p (the metric that is 1 on p and 0
    elsewhere). In the Killing norm, 10 sum_p |[X, X_p]_m| bounds the
    defect of every metric with multipliers in [0.1, 10], with equality for
    two-part partitions; the residual divides it by |X| sum_p |X_p| plus
    r / SEARCH_TOL, r = 8 n eps |X| sum_p (|X| + |X_p|), which covers entries
    of X off by n eps |X| (``numerics._eigen_residual`` does the same for the
    structural test). It is unchanged when X is scaled; a zero defect reads
    0. ``samples`` and ``rng_seed`` are ignored; they remain so that callers
    of the former sampled test keep working.
    """
    _require_blocks_fit(x, blocks)
    m, sl, off = x.matrix, blocks.slices(), ~blocks.diagonal_mask()
    total, parts = 0.0, []
    for i, j in itertools.combinations(range(blocks.count), 2):
        pair = np.zeros_like(m)
        pair[sl[i], sl[j]] = m[sl[i], sl[j]]
        pair[sl[j], sl[i]] = m[sl[j], sl[i]]
        total += float(np.linalg.norm((m @ pair - pair @ m)[off]))
        parts.append(float(np.linalg.norm(pair)))
    size, pairs = float(np.linalg.norm(m)), sum(parts)
    roundoff = 8.0 * x.dim * float(np.finfo(float).eps) * size * (len(parts) * size + pairs)
    # Killing norms are sqrt(2n) Frobenius norms here: one factor above, two below.
    scale = math.sqrt(_killing_scale(x.dim)) * (size * pairs + roundoff / SEARCH_TOL)
    residual = 10.0 * total / scale if total else 0.0
    return residual <= SEARCH_TOL, residual


def ad_conjugate(u, x: SuVector) -> SuVector:
    """Adjoint action U X U* of a unitary on su(n)."""
    a = as_matrix(u)
    if a.shape[0] != x.dim:
        raise DimensionMismatchError(
            f"unitary of dimension {a.shape[0]} against vector of dimension {x.dim}"
        )
    if not is_unitary(a):
        raise NotUnitaryError("conjugation requires a unitary matrix")
    return SuVector(a @ x.matrix @ a.conj().T)


def coset_orbit(x: SuVector, t: float) -> np.ndarray:
    """One-parameter orbit exp(t X), computed through the Hermitian
    eigendecomposition of iX."""
    return unitary_exp(1j * x.matrix, float(t), 1.0)
