"""Dense complex-matrix substrate.

Hermitian eigendecompositions, unitary exponentials, the Frobenius norm,
and tolerance-aware structural predicates. Everything downstream is built
on these primitives. All operations are pure functions on plain numpy
arrays and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EigenConvergenceError, NotHermitianError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "frobenius",
    "is_hermitian",
    "is_skew_hermitian",
    "is_unitary",
    "herm_eig",
    "unitary_exp",
    "golden_section_min",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    Attributes
    ----------
    structural : float
        Scale-relative threshold for structural predicates such as
        hermiticity and unitarity. A matrix ``M`` passes a predicate when
        the defect norm is at most ``structural * max(1, |M|_F)``, so the
        checks behave the same for weak and strong operators.
    spectral : float
        Threshold for spectrum-derived quantities (state norms,
        eigenvalue floors, probability weights).
    search : float
        Threshold for criterion residuals and numerical searches.
    """

    structural: float = 1e-10
    spectral: float = 1e-12
    search: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.structural > 0.0 and self.spectral > 0.0 and self.search > 0.0):
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, validating the shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Entrywise 2-norm of a square matrix."""
    return float(np.linalg.norm(as_matrix(m)))


def _scale(a: np.ndarray) -> float:
    # Relative scale floor: predicates on tiny matrices fall back to an
    # absolute threshold.
    return max(1.0, float(np.linalg.norm(a)))


def is_hermitian(m, tol: Tolerances | None = None) -> bool:
    """Whether ``M`` equals its conjugate transpose within tolerance."""
    a = as_matrix(m)
    t = (tol or DEFAULT_TOLERANCES).structural
    return float(np.linalg.norm(a - a.conj().T)) <= t * _scale(a)


def is_skew_hermitian(m, tol: Tolerances | None = None) -> bool:
    """Whether ``M`` equals the negative of its conjugate transpose within tolerance."""
    a = as_matrix(m)
    t = (tol or DEFAULT_TOLERANCES).structural
    return float(np.linalg.norm(a + a.conj().T)) <= t * _scale(a)


def is_unitary(m, tol: Tolerances | None = None) -> bool:
    """Whether ``M* M`` equals the identity within tolerance."""
    a = as_matrix(m)
    t = (tol or DEFAULT_TOLERANCES).structural
    gram = a.conj().T @ a
    return float(np.linalg.norm(gram - np.eye(a.shape[0]))) <= t * _scale(a)


def herm_eig(h, tol: Tolerances | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix, Hermitian within the structural tolerance.
    tol : Tolerances, optional
        Thresholds governing the hermiticity gate.

    Returns
    -------
    (w, v) : tuple of ndarray
        ``w`` holds real eigenvalues in ascending order and the columns of
        ``v`` the matching orthonormal eigenvectors, so that
        ``v @ diag(w) @ v.conj().T`` reconstructs the input. The input is
        symmetrized before factorization, which makes the output a
        deterministic function of the matrix alone; degenerate blocks come
        out orthonormal and every consumer in this package is invariant to
        the basis chosen inside such a block.

    Raises
    ------
    NotHermitianError
        If the hermiticity defect exceeds tolerance.
    EigenConvergenceError
        If the underlying solver fails to converge.
    """
    a = as_matrix(h)
    if not is_hermitian(a, tol):
        defect = float(np.linalg.norm(a - a.conj().T))
        raise NotHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance")
    sym = (a + a.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return np.real(w), v


def unitary_exp(h, t: float, hbar: float = 1.0, tol: Tolerances | None = None) -> np.ndarray:
    """Propagator ``exp(-i H t / hbar)`` of a Hermitian generator.

    Built from the eigendecomposition rather than a power series, so the
    result is unitary to working precision for any time and operator norm.

    Parameters
    ----------
    h : array_like
        Hermitian matrix.
    t : float
        Evolution time, any sign.
    hbar : float
        Positive action scale.

    Returns
    -------
    ndarray
        The unitary propagator.
    """
    if not hbar > 0.0:
        raise ValueError("hbar must be positive")
    w, v = herm_eig(h, tol)
    phases = np.exp(-1j * w * (float(t) / float(hbar)))
    return (v * phases) @ v.conj().T


def golden_section_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns the midpoint of the final bracket and the function value there.
    """
    if not (b > a and xtol > 0.0):
        raise ValueError("need b > a and xtol > 0")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _parabolic_polish(f, t0: float, delta: float) -> float:
    """One parabolic vertex step around a quadratic minimum.

    Golden section stalls once function values merge into the roundoff
    plateau, leaving the minimizer only sqrt(eps)-accurate; sampling the
    quadratic at +-delta, far outside the plateau, recovers the center.
    Falls back to the input point when the local shape is not convex.
    """
    f_lo = f(t0 - delta)
    f_mid = f(t0)
    f_hi = f(t0 + delta)
    curvature = f_lo - 2.0 * f_mid + f_hi
    if not curvature > 0.0:
        return t0
    shift = 0.5 * delta * (f_lo - f_hi) / curvature
    if abs(shift) > delta:
        return t0
    polished = t0 + shift
    return polished if f(polished) <= max(f_mid, 1e-12) else t0


# Phase entries (grid points times dimension) in one chunk of an arrival
# scan, so its memory stays bounded whatever the horizon.
_SCAN_CHUNK = 1 << 15


def _scan_arrival(values, objective, w, hbar, horizon, gate, threshold, xtol=0.0):
    """First refined local minimum in (0, horizon] at most ``threshold``.

    Streams the grid ``i * horizon / count`` (the last point exactly
    ``horizon``) of step at most 0.01 hbar / delta_e_max, so the ray moves at
    most 0.01 rad a step, in chunks of ``_SCAN_CHUNK`` phase entries that
    overlap by two points. ``values(table, base)`` gives the objective on a
    chunk's rows ``table * base`` of exp(-i w t / hbar), ``base`` being the
    row at the chunk's first time. Each grid point no larger than both
    neighbours (+inf past ``horizon``) and ``gate`` is refined in time order:
    golden section over its two cells to ``max(xtol, 1e-10 * bracket)``,
    floored at the float spacing, then a parabolic polish of ``objective``.
    Returns the first refined time with value at most ``threshold``, or None,
    and a dict of counters: grid_points evaluated, step, chunks, refined
    minima and objective evaluations.
    """
    delta_e_max = float(w[-1] - w[0]) / 2.0
    if delta_e_max > 1e-12 * max(1.0, float(np.max(np.abs(w)))):
        step = 0.01 * hbar / delta_e_max
    else:
        step = horizon / 10_000.0
    count = max(int(np.ceil(horizon / step)), 8)
    dt = horizon / count
    size = min(max(3, _SCAN_CHUNK // w.size), count + 1)
    table = np.exp(-1j * np.outer(np.arange(size) * dt, w) / hbar)
    stats = dict(grid_points=0, step=step, chunks=0, refined=0, evaluations=0)

    def counted(t: float) -> float:
        stats["evaluations"] += 1
        return objective(t)

    first = stop = 0
    while stop <= count:
        stop = stats["grid_points"] = min(first + size, count + 1)
        stats["chunks"] += 1
        vals = values(table[: stop - first], np.exp(-1j * w * (first * dt / hbar)))
        here = vals[1:]
        right = np.append(vals[2:], np.inf)
        minima = (here <= vals[:-1]) & (here <= right) & (here <= gate)
        if stop <= count:  # the chunk's last point is judged in the next chunk
            minima[-1] = False
        for i in (first + 1 + np.nonzero(minima)[0]).tolist():
            stats["refined"] += 1
            lo = (i - 1) * dt
            hi = (i + 1) * dt if i + 1 < count else horizon
            tol = max(xtol, 1e-10 * (hi - lo), 4.0 * float(np.spacing(hi)))
            t_min, f_min = golden_section_min(counted, lo, hi, tol)
            t_min = _parabolic_polish(counted, t_min, 0.02 * step)
            f_min = min(f_min, counted(t_min))
            if f_min <= threshold and t_min > 0.0:
                return float(min(t_min, horizon)), stats
        first = stop - 2
    return None, stats
