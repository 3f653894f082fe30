"""States, the ray metric, and energy uncertainty.

Pure states are unit vectors taken modulo phase wherever a distance or a
projector is involved. The distance between rays is the angle whose
cosine is the overlap modulus, which ranges over [0, pi/2]. Energy
uncertainty is the standard deviation of a Hermitian observable in a
state; its largest possible value over all states is half the spectral
spread, attained by an equal-weight superposition of extreme eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DistinguishedStateNotMappedError,
    InvalidQuasiPureError,
    NotUnitaryError,
    SpectraMismatchError,
)
from .numerics import (
    SEARCH_TOL,
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    _gc_paused,
    _hermitian_part,
    as_matrix,
    frobenius,
    herm_eig,
    is_unitary,
)

__all__ = [
    "Units",
    "PureState",
    "DensityMatrix",
    "QuasiPureSpec",
    "fs_distance",
    "fidelity",
    "energy_uncertainty",
    "energy_uncertainty_max",
    "projector",
    "quasi_pure",
    "quasi_pure_transport",
]


@dataclass(frozen=True)
class Units:
    """Physical scale of the evolution equations: the action quantum, a
    positive finite number."""

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")


def _require(ok, values, message: str) -> None:
    """Raise ValueError unless every flag in ``ok`` is set.

    ``ok`` and ``values`` are numpy scalars for one state, or hold one entry
    per sample of a stack. The message is formatted with the failing value;
    for a stack it names the first failing sample's index.
    """
    if ok.ndim == 0:
        if not ok:
            raise ValueError(message.format(values.item()))
        return
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"sample {i}: " + message.format(values[i].item()))


def _check_pure(a: np.ndarray) -> None:
    """The norm gate, on one vector (n,) or a stack of samples (T, n),
    contiguous along its last axis (as a fresh copy is).

    Stated so that a NaN norm fails it, and so does any non-finite entry.
    The squared norm is one real dot product of the float pairs.
    """
    pairs = a.view(float)
    norms = np.sqrt(np.vecdot(pairs, pairs))
    _require(abs(norms - 1.0) <= SPECTRAL_TOL, norms, "state norm {!r} is not 1 within tolerance")


def _check_density(a: np.ndarray) -> None:
    """The density gates, on one matrix (n, n) or a stack (T, n, n).

    Finite entries; Hermiticity (the defect against STRUCTURAL_TOL ||A||_F,
    as ``is_hermitian`` states it); unit trace; and the smallest eigenvalue
    of the Hermitian part, from one stacked ``eigvalsh``.
    """
    nonfinite = np.sum(~np.isfinite(a), axis=(-2, -1))
    _require(nonfinite == 0, nonfinite, "density matrix has {!r} non-finite entries")
    adjoint = np.swapaxes(a.conj(), -1, -2)
    defect = np.linalg.norm(a - adjoint, axis=(-2, -1))
    _require(
        defect <= STRUCTURAL_TOL * np.linalg.norm(a, axis=(-2, -1)), defect,
        "density matrix is not Hermitian: ||A - A*||_F = {!r}",
    )
    tr = np.trace(a, axis1=-2, axis2=-1)
    ok = abs(tr - 1.0) <= SPECTRAL_TOL * np.maximum(1.0, abs(tr))
    _require(ok, tr, "trace {!r} is not 1 within tolerance")
    lowest = np.linalg.eigvalsh((a + adjoint) / 2.0)[..., 0]
    _require(lowest >= -SPECTRAL_TOL, lowest, "negative eigenvalue {!r}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in C^n.

    The constructor validates normalization against SPECTRAL_TOL and
    stores a read-only copy. Use :meth:`from_vector` to normalize an
    arbitrary nonzero vector first.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise DimensionMismatchError(f"expected a nonempty vector, got shape {a.shape}")
        _check_pure(a)
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @classmethod
    def from_vector(cls, vec) -> "PureState":
        """Normalize a nonzero vector of finite norm into a state."""
        a = np.asarray(vec, dtype=complex)
        norm = float(np.linalg.norm(a))
        if not 0.0 < norm < math.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm!r}")
        return cls(a / norm)

    @classmethod
    def basis_state(cls, n: int, k: int) -> "PureState":
        """The k-th standard basis vector of C^n."""
        if not 0 <= k < n:
            raise DimensionMismatchError(f"index {k} outside dimension {n}")
        a = np.zeros(n, dtype=complex)
        a[k] = 1.0
        return cls(a)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions differ: {self.n} vs {other.n}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive semidefinite matrix of unit trace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        a = as_matrix(self.matrix)
        _check_density(a)
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _states_of(stack: np.ndarray) -> tuple:
    """The states of a read-only stack that passed its gate already: a
    PureState per row of a (T, n) stack, a DensityMatrix per matrix of a
    (T, n, n) one. Each holds a view of its sample and is neither checked
    nor copied again. The cyclic garbage collector is paused while the
    states are built: each state and its ``__dict__`` count towards a
    collection, 2T allocations in all, and the collections they set off
    walk every young object and find no cycle."""
    cls, name = (PureState, "amplitudes") if stack.ndim == 2 else (DensityMatrix, "matrix")
    with _gc_paused():
        states = []
        for sample in stack:
            state = object.__new__(cls)
            state.__dict__[name] = sample
            states.append(state)
        return tuple(states)


@dataclass(frozen=True, eq=False)
class QuasiPureSpec:
    """Spectrum and eigenbasis of a quasi-pure mixture.

    One distinguished unit vector carries weight ``p1`` and the remaining
    n - 1 orthonormal vectors share the common weight ``p2``, with
    p1 + (n - 1) p2 = 1 and p1 != p2. The distinguished vector comes first
    in ``basis``.
    """

    p1: float
    p2: float
    basis: tuple[PureState, ...]

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        n = len(basis)
        if n < 2:
            raise InvalidQuasiPureError("need at least two basis states")
        if any(state.n != n for state in basis):
            raise InvalidQuasiPureError("basis must hold n states of dimension n")
        p1, p2 = float(self.p1), float(self.p2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        eps = SPECTRAL_TOL
        if p1 < -eps or p1 > 1.0 + eps or p2 < -eps:
            raise InvalidQuasiPureError(f"weights out of range: p1={p1}, p2={p2}")
        if abs(p1 + (n - 1) * p2 - 1.0) > eps:
            raise InvalidQuasiPureError("weights must satisfy p1 + (n-1) p2 = 1")
        if abs(p1 - p2) <= eps:
            raise InvalidQuasiPureError("p1 = p2 degenerates to the maximally mixed state")
        stacked = np.array([state.amplitudes for state in basis])
        overlaps = np.abs(stacked.conj() @ stacked.T)
        pairs = np.argwhere(np.triu(overlaps, 1) > STRUCTURAL_TOL)
        if pairs.size:
            i, j = pairs[0]
            raise InvalidQuasiPureError(
                f"basis states {i} and {j} overlap by {overlaps[i, j]:.3e}"
            )

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def distinguished(self) -> PureState:
        return self.basis[0]


def fs_distance(phi: PureState, psi: PureState) -> float:
    """Ray distance arccos |<phi|psi>|, in [0, pi/2].

    Insensitive to the phases of both arguments: ``_ray_angles`` on one
    pair. The two arguments enter in a fixed order (by their bytes), so the
    value is bitwise symmetric.
    """
    a, b = phi.amplitudes, psi.amplitudes
    if a.size != b.size:
        raise DimensionMismatchError(f"dimensions differ: {a.size} vs {b.size}")
    if a.tobytes() > b.tobytes():
        a, b = b, a
    return float(_ray_angles(a[None], b[None])[0])


def _ray_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ray distances row by row between two (T, n) stacks of unit vectors,
    or one (1, n) row and a stack, as atan2(|b - a <a|b>|, |<a|b>|). Sine
    and cosine both come from the vectors, so the result carries an
    absolute error of a few eps everywhere, including at zero distance,
    where arccos of a modulus near 1 would lose half the digits."""
    ov = np.vecdot(a, b)
    rest = a * ov[:, None]
    np.subtract(b, rest, out=rest)
    return np.arctan2(np.sqrt(np.vecdot(rest, rest).real), np.abs(ov))


def fidelity(phi: PureState, psi: PureState) -> float:
    """Squared overlap modulus |<phi|psi>|^2."""
    ov = abs(phi.overlap(psi))
    return float(min(ov * ov, 1.0))


def energy_uncertainty(h, phi: PureState) -> float:
    """Standard deviation of a Hermitian observable in a pure state.

    Computed as |H phi - <phi|H|phi> phi|, the norm of the part of H phi
    orthogonal to phi. Its square is algebraically the variance, and unlike
    sqrt(|H phi|^2 - <phi|H|phi>^2) it does not cancel: the result is exact
    to a few eps |H| even for a state close to an eigenstate. H is read as
    its Hermitian part (H + H*) / 2, as ``herm_eig`` reads it, so the value
    agrees with the spectrum's half spread however small an anti-Hermitian
    part the gate let through.
    """
    return float(np.linalg.norm(_coupling(h, phi)[2]))


def _coupling(h, phi: PureState) -> tuple[np.ndarray, float, np.ndarray]:
    """The Hermitian part (H + H*) / 2 of H, checked (square, of phi's
    dimension, passing ``is_hermitian``) and bit for bit H if H is exactly
    Hermitian; its mean energy m = <phi|H|phi> and coupling
    x = H phi - m phi, orthogonal to phi."""
    a = as_matrix(h)
    if a.shape[0] != phi.n:
        raise DimensionMismatchError(
            f"operator of dimension {a.shape[0]} against state of dimension {phi.n}"
        )
    a = _hermitian_part(a, "operator must be Hermitian")
    image = a @ phi.amplitudes
    mean = float(np.vdot(phi.amplitudes, image).real)
    return a, mean, image - mean * phi.amplitudes


def energy_uncertainty_max(h) -> tuple[float, PureState]:
    """Largest energy uncertainty any state can have, with a witness.

    The value is half the spectral spread. The witness is the equal-weight
    superposition of one lowest and one highest eigenvector, whose
    uncertainty attains the value; a balanced two-point mixture of those
    eigenvectors gives the same number.
    """
    w, v = herm_eig(h)
    value = float(w[-1] - w[0]) / 2.0
    if w.size == 1:
        return value, PureState(v[:, 0])
    witness = (v[:, 0] + v[:, -1]) / np.sqrt(2.0)
    return value, PureState(witness)


def projector(phi: PureState) -> DensityMatrix:
    """Rank-one density matrix |phi><phi|."""
    a = phi.amplitudes
    return DensityMatrix(np.outer(a, a.conj()))


def quasi_pure(spec: QuasiPureSpec) -> DensityMatrix:
    """Assemble the density matrix of a quasi-pure specification."""
    out = np.zeros((spec.n, spec.n), dtype=complex)
    for weight, state in zip([spec.p1] + [spec.p2] * (spec.n - 1), spec.basis):
        a = state.amplitudes
        out += weight * np.outer(a, a.conj())
    return DensityMatrix(out)


def quasi_pure_transport(source: QuasiPureSpec, target: QuasiPureSpec, u) -> bool:
    """Whether a unitary carries one quasi-pure state exactly onto another.

    The two specifications must share the spectrum (p1, p2). Because every
    non-distinguished eigenvector carries the same weight, any unitary that
    maps the distinguished ray of the source onto that of the target maps
    the full mixture onto the target mixture; this function checks the
    distinguished rays and then verifies the conjugation residual.
    """
    if abs(source.p1 - target.p1) > SPECTRAL_TOL or abs(source.p2 - target.p2) > SPECTRAL_TOL:
        raise SpectraMismatchError(
            f"weights differ: ({source.p1}, {source.p2}) vs ({target.p1}, {target.p2})"
        )
    a = as_matrix(u)
    if source.n != target.n or a.shape[0] != source.n:
        raise DimensionMismatchError("specifications and unitary must share one dimension")
    if not is_unitary(a):
        raise NotUnitaryError("transport requires a unitary matrix")
    mapped = PureState.from_vector(a @ source.distinguished.amplitudes)
    # The same gate as infidelity sin^2(angle) > SEARCH_TOL, stated on the angle.
    if fs_distance(mapped, target.distinguished) > math.asin(math.sqrt(SEARCH_TOL)):
        raise DistinguishedStateNotMappedError(
            "the unitary moves the distinguished ray off target"
        )
    rho = quasi_pure(source).matrix
    sigma = quasi_pure(target).matrix
    return frobenius(a @ rho @ a.conj().T - sigma) <= SEARCH_TOL
