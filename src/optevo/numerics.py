"""Dense complex-matrix substrate.

Hermitian eigendecompositions, unitary exponentials, the Frobenius norm,
and structural predicates. Everything downstream is built on these
primitives. All operations are pure functions on plain numpy arrays and
never mutate their arguments; ``herm_eig`` remembers its last
factorization, keyed on the input's content.

Three fixed thresholds serve the whole package: ``STRUCTURAL_TOL`` for
structural predicates and the stationary floor, ``SPECTRAL_TOL`` for
spectrum-derived quantities and ``SEARCH_TOL`` for criterion residuals.
"""

from __future__ import annotations

import gc
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    NotHermitianError,
    StationaryStateError,
)

__all__ = [
    "STRUCTURAL_TOL",
    "SPECTRAL_TOL",
    "SEARCH_TOL",
    "as_matrix",
    "frobenius",
    "is_hermitian",
    "is_skew_hermitian",
    "is_unitary",
    "herm_eig",
    "unitary_exp",
]


# Scale-relative threshold for structural predicates such as hermiticity
# and unitarity: a matrix M passes when its defect norm is at most
# STRUCTURAL_TOL * |M|_F, so the checks behave the same at every scale and
# the zero matrix passes. The stationary floor is STRUCTURAL_TOL *
# max(1, |H|_F): a start that slow counts as stationary however weak H is.
STRUCTURAL_TOL = 1e-10
# Threshold for spectrum-derived quantities: state norms, eigenvalue
# floors, probability weights.
SPECTRAL_TOL = 1e-12
# Threshold for criterion residuals and numerical searches.
SEARCH_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex matrix, validating the shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Entrywise 2-norm of a square matrix."""
    return float(np.linalg.norm(as_matrix(m)))


def is_hermitian(m) -> bool:
    """Whether ``M`` equals its conjugate transpose within tolerance."""
    a = as_matrix(m)
    return float(np.linalg.norm(a - a.conj().T)) <= STRUCTURAL_TOL * float(np.linalg.norm(a))


def is_skew_hermitian(m) -> bool:
    """Whether ``M`` equals the negative of its conjugate transpose within tolerance."""
    a = as_matrix(m)
    return float(np.linalg.norm(a + a.conj().T)) <= STRUCTURAL_TOL * float(np.linalg.norm(a))


def is_unitary(m) -> bool:
    """Whether ``M* M`` equals the identity within tolerance."""
    a = as_matrix(m)
    gram = a.conj().T @ a
    defect = float(np.linalg.norm(gram - np.eye(a.shape[0])))
    return defect <= STRUCTURAL_TOL * float(np.linalg.norm(a))


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix, Hermitian within the structural tolerance.

    Returns
    -------
    (w, v) : tuple of ndarray
        ``w`` holds real eigenvalues in ascending order and the columns of
        ``v`` the matching orthonormal eigenvectors, so that
        ``v @ diag(w) @ v.conj().T`` reconstructs the input. The input is
        symmetrized before factorization, which makes the output a
        deterministic function of the matrix alone; degenerate blocks come
        out orthonormal and every consumer in this package is invariant to
        the basis chosen inside such a block. Both arrays are read-only:
        writing into them raises ``ValueError``.

    Raises
    ------
    NotHermitianError
        If the hermiticity defect exceeds tolerance.
    ValueError
        If the Frobenius norm is not finite: an inf or nan entry, or one
        large enough that its square overflows.
    EigenConvergenceError
        If the underlying solver fails to converge.

    Notes
    -----
    The last factorization is remembered, keyed on the exact bytes of the
    complex input (their length fixes the dimension), so the propagator,
    the verdict, the arrival scans and the sampler share one ``eigh`` per
    generator. One entry is kept: it holds a copy of the input and the
    factors, about 130 KB at n = 64. A lookup compares the input's bytes
    with that one key and hashes nothing. The key is the content, not the
    object, so writing into H in place is a fresh factorization, never a
    stale one. Errors are raised on every call and never remembered.
    """
    a = as_matrix(h)
    data = a.tobytes()
    last = _remembered[0]
    if last is None or last[0] != data:
        last = _remembered[0] = (data, _factor(data, a.shape[0]))
    return last[1]


# The one factorization ``herm_eig`` remembers, as (input bytes, (w, v)), or
# None: one slot, read and replaced whole.
_remembered: list = [None]


def _factor(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig`` of the n x n complex matrix stored in ``data``."""
    a = np.frombuffer(data, dtype=complex).reshape(n, n)
    sym = _hermitian_part(a, "hermiticity defect {:.3e} exceeds tolerance")
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _hermitian_part(a: np.ndarray, message: str) -> np.ndarray:
    """(A + A*) / 2 of a square matrix that passes ``is_hermitian``, from
    the one adjoint the gate reads; else NotHermitianError, its ``message``
    formatted with the defect |A - A*|_F. A Hermitian A comes back bit for
    bit. A non-finite |A|_F, from an inf or nan entry or entries past about
    1.3e154, raises ValueError: the gate's scale-relative test would pass
    anything against an infinite scale."""
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(a))
    if not math.isfinite(scale):
        raise ValueError(f"|A|_F is {scale}: an entry is not finite or the norm overflows")
    adjoint = a.conj().T
    defect = float(np.linalg.norm(a - adjoint))
    if not defect <= STRUCTURAL_TOL * scale:
        raise NotHermitianError(message.format(defect))
    return (a + adjoint) * 0.5


def unitary_exp(h, t: float, hbar: float = 1.0) -> np.ndarray:
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
    w, v = herm_eig(h)
    phases = np.exp(-1j * w * (float(t) / float(hbar)))
    return (v * phases) @ v.conj().T


def _stationary(speed: float, scale: float) -> bool:
    """Whether a conserved speed is at the stationary floor
    STRUCTURAL_TOL * max(1, scale), ``scale`` being the generator's
    Frobenius norm: a start this slow never moves."""
    return speed <= STRUCTURAL_TOL * max(1.0, scale)


class _gc_paused:
    """Context manager that pauses the cyclic garbage collector for a block
    building acyclic containers in bulk, then restores the caller's state,
    also on error: a collector the caller disabled stays disabled. Each
    tracked container the block allocates would count towards a young
    collection, which walks every young object and here frees nothing.
    Leaving allocates nothing, so the one young pass the block's
    allocations are owed starts at the next allocation after the block,
    not on the way out of it."""

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, value, traceback) -> None:
        if self._was_enabled:
            gc.enable()


def _eigen_residual(left: np.ndarray, right: np.ndarray, scale: float, dim: int) -> float:
    """|L R| / (|L| |R| + r / SEARCH_TOL), or 0 if L R = 0, for blocks L, R
    cut from a dim x dim operator M with |M|_F = ``scale``, where
    r = 8 dim eps |M|_F (|L| + |R|): if each block entry is off by at most
    dim eps |M|_F, an exact pair reads at most SEARCH_TOL / 8. Past r this
    is the normwise backward error of an eigenpair (Higham, Accuracy and
    Stability of Numerical Algorithms): unchanged when M, L, R scale alike."""
    defect = float(np.linalg.norm(left @ right))
    a, b = float(np.linalg.norm(left)), float(np.linalg.norm(right))
    roundoff = 8.0 * dim * float(np.finfo(float).eps) * scale * (a + b)
    return defect / (a * b + roundoff / SEARCH_TOL) if defect else 0.0


def _newton_min(derivatives, lo: float, hi: float, t: float, tol: float) -> tuple[float, int]:
    """Minimizer of a smooth function in [lo, hi] by Newton steps on its
    derivative from t, ``derivatives(t)`` giving the first and second. The
    first's sign moves an end of the bracket to t. Bisection replaces a
    step where the curvature is not positive, or one that leaves the
    bracket or exceeds half the last step. Returns the point the first step
    of at most ``tol`` reaches, and the number of evaluations."""
    last, steps = hi - lo, 0
    while True:
        slope, curvature = derivatives(t)
        steps += 1
        if slope == 0.0:
            return t, steps
        lo, hi = (lo, t) if slope > 0.0 else (t, hi)
        step = -slope / curvature if curvature > 0.0 else np.inf
        if not (lo <= t + step <= hi and abs(step) <= 0.5 * last):
            step = 0.5 * (lo + hi) - t
        last = abs(step)
        if last <= tol:
            return t + step, steps
        t += step


# Phase entries (grid points times dimension) in one batch of an arrival
# scan's live cells, and cells in one chunk of its screen, so its memory
# stays bounded whatever the horizon.
_SCAN_CHUNK = 1 << 15
# Fine grid steps per cell of an arrival scan: the unit its screen skips and
# the row count, less two, of its offset table. The screen's bound loosens by
# the Lipschitz rate times a cell's width, so wider cells survive more often;
# narrower ones cost more base rows. 128 was fastest against 64 and 256.
_SCAN_BLOCK = 128


def _phase_rows(w, start, step, count, hbar):
    """Tables ``jumps`` and ``fine`` of about sqrt(count) rows each whose
    products jumps[k // size] * fine[k % size], size = len(fine), are the
    rows exp(-i w (start + k step) / hbar) for k < count: 2 sqrt(count) n
    complex exponentials from one ``np.exp`` over both tables' times, each
    product within a few eps of its direct exponential. fine[0] is exactly
    1."""
    size = math.ceil(math.sqrt(count))
    times = np.concatenate(
        (np.arange(size) * step, start + np.arange(-(-count // size)) * (size * step))
    )
    phases = np.exp(-1j * np.outer(times, w) / hbar)
    return phases[size:], phases[:size]


def _generator_factors(h, horizon, *dims):
    """``herm_eig(h)`` of an arrival search over (0, horizon], once the
    horizon is positive and finite and each state dimension in ``dims`` is
    the generator's."""
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    w, v = herm_eig(h)
    if any(n != w.size for n in dims):
        raise DimensionMismatchError("the generator and the states must share one dimension")
    return w, v


def _ray_arrival(w, v, phi, psi, hbar, horizon, weight, gate, threshold, xtol):
    """First time in (0, horizon] at which the orbit of ``phi`` under the
    generator of eigenpairs (w, v) meets the ray of ``psi``, or None: the
    ``_scan_arrival`` of the ray angle theta(t) = arccos |<psi|phi(t)>|.

    Grid. theta moves at most at delta_e / hbar (Anandan & Aharonov, PRL
    65, 1697, 1990), delta_e being the generator's uncertainty in phi,
    conserved along the orbit. The grid speed is ``weight`` delta_e, so the
    step is 0.01 hbar / (weight delta_e): a caller that judges ``weight``
    times sin theta sees it move by at most 0.01 a step.

    Screen. The overlap modulus c = |<psi|phi(t)>| is computed within
    d = (2 n + 16 + 2 |w|_inf horizon / hbar) eps of exact: n terms of
    total modulus at most one, with phases built from a few rounded factors
    whose arguments reach |w|_inf horizon / hbar. That moves an end angle
    by at most arccos(1 - d) < 2 sqrt(d), and a grid point's angle at the
    gate arcsin s, s = min(1, ``gate``), by at most d / s + O(d^2) <
    (1 + 1 / s) d. So a cell whose Lipschitz lower bound clears the gate by
    the margin 2 sqrt(d) + (1 + 1 / s) d holds no point whose computed
    angle is at most the gate; the candidates, the local minima of theta at
    most arcsin s, are those of a scan that evaluates every grid point.

    Floor. With c_j the weights conj(v* psi)_j (v* phi)_j, the overlap is
    |sum_j c_j exp(-i w_j t / hbar)| <= B = sum_j |c_j| at every t
    (triangle inequality), so arccos B is the floor. The computed B is
    within (n + 2) eps <= d / 2 of the computed weights' exact sum, at most
    about 1, so a computed c is at most B + 3 d / 2 and its angle at least
    arccos B - arccos(1 - 3 d / 2) > arccos B - 2 sqrt(d), the margin's
    first term: arccos drops fastest at 1.

    Refine and judge. Newton refines each candidate on the time derivatives
    of the infidelity sin^2 theta = 1 - c^2, which has the same minima,
    from phases centred on the mean energy so that a shift H + c I stays
    out of their roundoff; ``xtol`` bounds its last step. The judge is the
    stable sine sin theta = |psi - <phi(t)|psi> phi(t)|, exact to a few
    eps at zero distance, against ``threshold``.
    """
    start = v.conj().T @ phi
    target = v.conj().T @ psi
    weights = target.conj() * start
    probabilities = start.real**2 + start.imag**2
    mean = probabilities @ w
    delta_e = float(np.sqrt(probabilities @ (w - mean) ** 2))
    rates = -1j * (w - mean) / hbar
    powers = np.array([np.ones_like(rates), rates, rates * rates])
    reach = float(np.max(np.abs(w))) * horizon / hbar
    slack = (2 * w.size + 16 + 2 * reach) * np.finfo(float).eps
    s = min(1.0, gate)

    def angles(table: np.ndarray, bases: np.ndarray) -> np.ndarray:
        return np.arccos(np.minimum(1.0, np.abs((bases * weights) @ table.T).ravel()))

    def sine(t: float) -> float:
        moved = start * np.exp(-1j * w * (t / hbar))
        return float(np.linalg.norm(target - np.vdot(moved, target) * moved))

    def derivatives(t: float) -> tuple[float, float]:
        ov, slope, curve = powers @ (np.exp(rates * t) * weights)
        ov = ov.conjugate()
        return -2.0 * (ov * slope).real, -2.0 * (abs(slope) ** 2 + (ov * curve).real)

    return _scan_arrival(
        angles, sine, derivatives, w, hbar, horizon, weight * delta_e, delta_e,
        math.acos(min(1.0, float(np.abs(weights).sum()))), math.asin(s),
        2.0 * math.sqrt(slack) + (1.0 + 1.0 / s) * slack, threshold, xtol,
    )[0]


def _scan_arrival(
    distance, objective, derivatives, w, hbar, horizon, speed, rate, floor, gate, margin,
    threshold, xtol=0.0,
):
    """First refined local minimum in (0, horizon] at most ``threshold``.

    The scan screens, gates and refines one distance d(t) to the target,
    then judges once. ``distance(table, bases)`` gives d at the products
    ``bases[q] * table[r]`` of phase rows exp(-i w t / hbar), base by base.
    d must move at most at ``rate / hbar``. ``objective(t)`` is the judge,
    read once per refined minimum.

    ``speed`` is the conserved rate, in units of 1 / hbar, at which the
    judged quantity can change: the grid ``i * horizon / count`` (the last
    point exactly ``horizon``) has step at most 0.01 hbar / speed. A start
    whose speed is at the stationary floor (``_stationary`` with scale
    |w|_2, which is |H|_F) never moves, so it is decided from
    ``objective(0.0)`` with no scan: None if that exceeds ``threshold``,
    else StationaryStateError, since no finite travel time exists.

    Floor. ``floor`` bounds d from below over all t. Its caller computes it
    from data it holds and shows that a computed grid value is above
    ``floor - margin``, with room left for the last roundings. So when
    ``floor > gate + margin`` no grid point reads at most ``gate``: there
    is no candidate, and the scan returns None, as the full scan would,
    before it builds any phase row. Such a call counts no chunk and no
    evaluated value, and every cell as screened.

    Screen. The grid is cut into cells of K = ``_SCAN_BLOCK`` steps (fewer
    when the grid or the chunk budget is small): cell j spans points jK to
    min(jK + K, count), and owns the points jK to jK + K - 1. The scan
    takes cells in chunks and reads d at a chunk's C + 1 cell ends in one
    call, ``distance(fine, jumps)``: the two tables of ``_phase_rows``,
    about sqrt C rows each, ``fine`` at stride K dt from 0 and ``jumps`` at
    stride len(fine) K dt from the chunk's first end. For the ray overlap
    that is one (sqrt C, n) @ (n, sqrt C) product with no C x n temporary.
    The last chunk's final end, the horizon, is off that stride; it is read
    in the same product, from one more base row against fine[0], which is
    exactly 1. On a cell of width W
    with end values a and b, d is at least (a + b - rate W / hbar) / 2
    (Piyavskii-Shubert). When that exceeds ``gate + margin`` the cell is
    skipped without building its phase rows, its points reading as +inf.
    ``margin`` covers the roundoff of the end values and of a point's
    value, so a skipped cell holds no point whose computed d is at most
    ``gate``, and the candidates are those of a scan that evaluates every
    point.

    Gate. A live cell's points are read through ``table``, the K + 2 offset
    rows for offsets -1 to K, built when the call's first live cell
    appears (a scan whose cells are all screened builds none), from its
    base row jumps[q] * fine[r], the phase row of its first end; so each
    cell carries both neighbours of its own points. Points past ``horizon``
    read +inf.
    The first chunk holds one batch of cells, so an early arrival pays
    only for the cells before it; the rest of the horizon is screened in
    chunks of up to ``_SCAN_CHUNK`` cells, each O(C) in memory for the ray
    overlap. A distance that builds the products itself reads ``bases`` in
    slices to stay bounded, as ``evolution._density_scan`` does. Live cells
    are evaluated in batches of at most ``_SCAN_CHUNK`` phase entries.
    Each owned point no larger than both neighbours and ``gate`` is a
    candidate, the origin excepted.

    Refine and judge. Candidates are taken in time order. Each is refined
    by ``_newton_min`` from the point over its two cells to max(xtol,
    1e-10 bracket, 4 ulp), ``derivatives`` giving the first two time
    derivatives of d or of a smooth quantity with the same local minima.
    ``objective`` is then evaluated once, at the refined time. Returns the
    first refined time with value at most ``threshold``, or None, and a
    dict of counters: the fine grid's points, its step, the floor, chunks,
    cells screened out, fine values evaluated (K + 2 per live cell),
    refined minima, objective and derivative evaluations.
    """
    stats = dict(
        grid_points=0, step=np.inf, floor=floor, chunks=0, screened=0, evaluated=0, refined=0,
        evaluations=0, newton_steps=0,
    )
    if _stationary(speed, float(np.linalg.norm(w))):
        if objective(0.0) <= threshold:
            raise StationaryStateError("the start is stationary at the target; no travel time")
        stats["evaluations"] = 1
        return None, stats
    step = 0.01 * hbar / speed
    count = max(math.ceil(horizon / step), 8)
    dt = horizon / count
    room = max(3, _SCAN_CHUNK // w.size)
    block = min(_SCAN_BLOCK, room - 2, count + 1)
    batch = max(1, room // (block + 2))
    cells = count // block + 1
    last = count - (cells - 1) * block  # steps in the last cell, 0 to K - 1
    table = None
    stats.update(grid_points=count + 1, step=step)
    if floor > gate + margin:  # no grid point can read at most the gate
        stats["screened"] = cells
        return None, stats

    first, width = 0, batch
    while first < cells:
        stop = min(first + width, cells)
        width = _SCAN_CHUNK
        stats["chunks"] += 1
        size = stop - first + 1  # cell ends, at stride K from the chunk's first
        jumps, fine = _phase_rows(w, first * block * dt, block * dt, size, hbar)
        if stop < cells:
            d = distance(fine, jumps)[:size]
        else:  # the last end is count, off the stride: a base row against fine[0] = 1
            horizon_row = np.exp(-1j * w * (count * dt / hbar))
            d = distance(fine, np.concatenate((jumps, horizon_row[None])))
            d[size - 1] = d[-len(fine)]
            d = d[:size]
        lower = (d[:-1] + d[1:] - (rate / hbar) * (block * dt)) / 2.0
        if stop == cells:
            lower[-1] = (d[-2] + d[-1] - (rate / hbar) * (last * dt)) / 2.0
        live = first + np.nonzero(~(lower > gate + margin))[0]
        stats["screened"] += stop - first - live.size
        if live.size and table is None:  # offset rows -1 to K, from the first live cell on
            coarse, unit = _phase_rows(w, -dt, dt, block + 2, hbar)
            table = (coarse[:, None, :] * unit[None]).reshape(-1, w.size)[: block + 2]
        for k in range(0, live.size, batch):
            cell = live[k : k + batch]
            q, r = np.divmod(cell - first, len(fine))
            vals = distance(table, jumps[q] * fine[r]).reshape(cell.size, block + 2)
            stats["evaluated"] += vals.size
            if cell[-1] == cells - 1:  # the last cell's points past count read +inf
                vals[-1, last + 2 :] = np.inf
            here = vals[:, 1:-1]
            minima = (here <= vals[:, :-2]) & (here <= vals[:, 2:]) & (here <= gate)
            if cell[0] == 0:
                minima[0, 0] = False  # the origin is never an arrival
            rows, cols = np.nonzero(minima)
            for i in (cell[rows] * block + cols).tolist():
                stats["refined"] += 1
                lo = (i - 1) * dt
                hi = (i + 1) * dt if i + 1 < count else horizon
                tol = max(xtol, 1e-10 * (hi - lo), 4.0 * float(np.spacing(hi)))
                t_min, steps = _newton_min(derivatives, lo, hi, min(i * dt, hi), tol)
                stats["newton_steps"] += steps
                stats["evaluations"] += 1
                if objective(t_min) <= threshold and t_min > 0.0:
                    return float(min(t_min, horizon)), stats
        first = stop
    return None, stats
