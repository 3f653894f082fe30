"""Propagation and trajectory diagnostics.

Pure states evolve by the unitary propagator, densities by conjugation.
A Trajectory is its times and one read-only complex array of samples,
(T, n) for pure states or (T, n, n) for densities; it takes the samples in
that form only and checks them once, as a stack, by the gates PureState
and DensityMatrix apply to one sample. Sampling is one phase table and
one batched product. The diagnostics are row-wise array expressions over
the samples that quantify how geodesic a trajectory is: the
endpoint-distance speed profile, the excess of summed segment lengths
over the endpoint distance (both from the atan2 ray distance), and the
leakage out of the plane spanned by the endpoints.

The density arrival search judges the trace distance against its
threshold whatever the pair. Two quasi-pure densities of one spectrum move
as their distinguished rays, so it scans those rays at n per grid point;
any other pair takes the Frobenius scan, at n^2 per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, FoldExceededError
from .numerics import (
    SPECTRAL_TOL,
    STRUCTURAL_TOL,
    _generator_factors,
    _ray_arrival,
    herm_eig,
    unitary_exp,
)
from .quantum_states import (
    DensityMatrix,
    PureState,
    Units,
    _check_density,
    _check_pure,
    _ray_angles,
    _states_of,
)

__all__ = [
    "Trajectory",
    "propagate",
    "propagate_density",
    "sample_trajectory",
    "fs_speed_profile",
    "geodesic_defect",
    "subspace_leakage",
    "trace_distance",
    "density_arrival_time",
]

HALF_PI = float(np.pi) / 2.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: finite times ascending, one sample per time.

    ``samples`` is one complex numpy array, (T, n) for pure states or
    (T, n, n) for densities, with n >= 1; ``kind`` reads which from its
    rank, whatever T. The constructor checks the samples once, as a stack,
    and raises TypeError for anything but an array. A writeable array is
    copied; a read-only complex C-contiguous one is kept as given, so its
    owner must not write to its memory through another view. ``states``
    wraps the samples as state objects on first use.
    """

    times: np.ndarray
    samples: np.ndarray
    units: Units = Units()

    def __post_init__(self) -> None:
        given = self.samples
        if not isinstance(given, np.ndarray):
            raise TypeError(
                f"samples must be a numpy array, (T, n) or (T, n, n), not {type(given).__name__}"
            )
        times = _checked_times(self.times)
        samples = np.asarray(given, dtype=complex, order="C")
        if samples is given and samples.flags.writeable:
            samples = samples.copy()
        shape = samples.shape
        if samples.ndim not in (2, 3) or not 0 < shape[1] == shape[-1]:
            raise DimensionMismatchError(
                f"samples must be (T, n) or (T, n, n) with n >= 1, got shape {shape}"
            )
        if samples.ndim == 2:
            _check_pure(samples)
        else:
            _check_density(samples)
        if times.size != shape[0]:
            raise DimensionMismatchError(f"{times.size} times against {shape[0]} states")
        times.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    @property
    def kind(self) -> str:
        return "pure" if self.samples.ndim == 2 else "density"

    @cached_property
    def states(self) -> tuple:
        """The samples as PureState or DensityMatrix values, built once;
        each holds a read-only view of its row of ``samples``."""
        return _states_of(self.samples)


def _checked_times(times) -> np.ndarray:
    """A copy of a finite, strictly ascending, one-dimensional time grid."""
    times = np.array(times, dtype=float)
    if times.ndim != 1:
        raise DimensionMismatchError("times must be one-dimensional")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise ValueError("times must strictly ascend")
    return times


def propagate(h, phi: PureState, t: float, units: Units = Units()) -> PureState:
    """State at time t under the given Hermitian generator."""
    u = unitary_exp(h, t, units.hbar)
    if u.shape[0] != phi.n:
        raise DimensionMismatchError("generator and state dimensions differ")
    return PureState(u @ phi.amplitudes)


def propagate_density(h, rho: DensityMatrix, t: float, units: Units = Units()) -> DensityMatrix:
    """Density at time t; conjugation preserves the spectrum exactly."""
    u = unitary_exp(h, t, units.hbar)
    if u.shape[0] != rho.n:
        raise DimensionMismatchError("generator and density dimensions differ")
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def sample_trajectory(h, state, times, units: Units = Units()) -> Trajectory:
    """Evolve a pure or density state over an ascending time grid.

    The eigendecomposition is taken once. With w, v its eigenpairs, one
    table of phases p = exp(-i w t / hbar), one row per time, rotates the
    start in the eigenbasis, and one batched product maps all samples
    back: (p o v* phi) v^T for a pure state, v (v* rho v o p p*) v* for a
    density.
    """
    ts = _checked_times(times)
    w, v = herm_eig(h)
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"cannot evolve a {type(state).__name__}")
    # The samples are allocated before the products' temporaries and kept
    # without a copy. Allocated after them, or copied, they left freed
    # memory the heap could not return: the 50 s trajectory benchmark's
    # peak resident memory read 104 MB in place of 98 MB (glibc, numpy 2.4).
    pure = isinstance(state, PureState)
    samples = np.empty((ts.size,) + (w.size,) * (1 if pure else 2), dtype=complex)
    phases = np.outer(ts / units.hbar, -1j * w)
    np.exp(phases, out=phases)
    if pure:
        phases *= v.conj().T @ state.amplitudes
        np.matmul(phases, v.T, out=samples)
    else:
        start = v.conj().T @ state.matrix @ v
        # start stays the left factor: numpy's complex product is not
        # bitwise commutative, and this order keeps the per-sample bits.
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        np.matmul(v @ rotated, v.conj().T, out=samples)
    samples.flags.writeable = False
    return Trajectory(ts, samples, units)


def _pure_samples(traj: Trajectory, what: str) -> np.ndarray:
    if traj.kind != "pure":
        raise TypeError(f"{what} is defined for pure-state trajectories only")
    return traj.samples


def fs_speed_profile(traj: Trajectory) -> np.ndarray:
    """Central-difference speed of the distance from the initial ray.

    Needs a uniform grid of at least three samples, all strictly inside
    the fold of the ray distance at pi/2 (the caller keeps the window on a
    monotone segment). Returns one value per interior grid point. For a
    maximal-speed generator the profile is flat at delta_e / hbar.
    """
    samples = _pure_samples(traj, "the speed profile")
    if traj.times.size < 3:
        raise ValueError("need at least three samples")
    dt = np.diff(traj.times)
    if float(np.max(np.abs(dt - dt[0]))) > 1e-9 * max(dt[0], 1e-300):
        raise ValueError("grid must be uniform")
    dist = _ray_angles(samples[:1], samples)
    if float(np.max(dist)) >= HALF_PI - 1e-9:
        raise FoldExceededError("the window touches the distance fold at pi/2")
    return (dist[2:] - dist[:-2]) / (2.0 * dt[0])


def geodesic_defect(traj: Trajectory) -> float:
    """Summed segment lengths minus the endpoint distance.

    Zero exactly on geodesic segments, positive otherwise. Each distance
    carries an absolute error of a few eps, so on a geodesic sampled with
    thousands of segments the result sits within about 1e-14 of zero, on
    either side. The cumulative length must stay at least 1e-3 short of
    the fold at pi/2.
    """
    samples = _pure_samples(traj, "the geodesic defect")
    if len(samples) <= 1:
        return 0.0
    total = float(np.sum(_ray_angles(samples[:-1], samples[1:])))
    if total > HALF_PI - 1e-3:
        raise FoldExceededError(
            f"cumulative length {total:.6f} is too close to the fold at pi/2"
        )
    return total - float(_ray_angles(samples[:1], samples[-1:])[0])


def subspace_leakage(traj: Trajectory, phi: PureState, psi: PureState) -> float:
    """Largest component of any sample outside span{phi, psi}.

    Zero (to roundoff) when the motion stays in the plane of the
    endpoints, as every maximal-speed evolution does.
    """
    samples = _pure_samples(traj, "subspace leakage")
    if phi.n != psi.n:
        raise DimensionMismatchError(f"dimensions differ: {phi.n} vs {psi.n}")
    if samples.shape[1] != phi.n:
        raise DimensionMismatchError("trajectory and span dimensions differ")
    first = phi.amplitudes
    rest = psi.amplitudes - first * np.vdot(first, psi.amplitudes)
    rest_norm = float(np.linalg.norm(rest))
    frame = np.array([first] if rest_norm < 1e-12 else [first, rest / rest_norm])
    out = (samples @ frame.conj().T) @ frame
    np.subtract(samples, out, out=out)
    return float(np.sqrt(np.max(np.vecdot(out, out).real, initial=0.0)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Trace norm of the difference of two densities."""
    if a.n != b.n:
        raise DimensionMismatchError(f"dimensions differ: {a.n} vs {b.n}")
    evals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(np.sum(np.abs(evals)))


def density_arrival_time(
    h,
    rho: DensityMatrix,
    target: DensityMatrix,
    horizon: float,
    units: Units = Units(),
    threshold: float = 1e-8,
) -> float | None:
    """Earliest time in (0, horizon] at which the evolving density comes
    within ``threshold`` of the target in trace norm, or None.

    Same search as the pure-state arrival (``numerics._scan_arrival``): it
    screens, gates and refines one distance, the Frobenius distance
    ||D||_F of D = rho(t) - target, then judges the trace norm ||D||_1 once
    per refined minimum. The grid step is 0.01 hbar over the density's
    conserved speed ||[H, rho]||_1 / 2, so the trace distance changes by at
    most 0.02 per step; as ||[H, rho]||_1 <= 2 delta_e_max, the step is
    never shorter than 0.01 hbar / delta_e_max. The gate is
    max(100 threshold, 0.05) on ||D||_F <= ||D||_1. A stationary density
    (speed at most the floor ``qsl_time`` applies) is decided at t = 0
    without a scan: None if it is farther than ``threshold`` from the
    target, StationaryStateError if it is within it. A pair whose distance
    floor, a lower bound over all t from the two densities' entries in the
    generator's eigenbasis, clears the gate by the scan's roundoff margin
    is a miss, decided before any grid is built, whatever the horizon.

    Two quasi-pure densities of one spectrum, p2 I + (p1 - p2) |phi><phi|
    and p2 I + (p1 - p2) |psi><psi| (p1 above or below 1/n), take the ray
    search of the pure-state arrival on their distinguished rays,
    ``numerics._ray_arrival``, which derives its screen's margin. With
    theta(t) the angle between phi(t) and psi,
    ||D||_F = sqrt 2 |p1 - p2| sin theta, ||D||_1 = 2 |p1 - p2| sin theta,
    and the speed is |p1 - p2| delta_e(phi). So the weight is |p1 - p2|,
    which keeps the grid; the gate on sin theta is max(100 threshold, 0.05)
    over sqrt 2 |p1 - p2|; and the threshold on the stable sine is
    ``threshold`` over 2 |p1 - p2|. Its floor arccos B, B = sum_j |c_j|
    over the rays' eigenbasis products, is the Frobenius scan's floor
    sqrt 2 |p1 - p2| sqrt(1 - B^2) on the same gate. A grid point costs n,
    not n^2, and no ``eigvalsh`` is taken. The pair is recognized by one
    ``eigh`` of each density, not ``herm_eig``, whose one entry keeps H:
    spectra equal within SPECTRAL_TOL, one simple eigenvalue and one
    (n - 1)-fold one.

    Every other pair takes the Frobenius scan, ``_density_scan``. A
    ``threshold`` that is not positive and finite raises ValueError.
    """
    if not 0.0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    rays = _quasi_pure_rays(rho, target)
    if rays is None:
        return _density_scan(h, rho, target, horizon, units, threshold)
    gap, phi, psi = rays
    w, v = _generator_factors(h, horizon, rho.n, target.n)
    return _ray_arrival(
        w, v, phi, psi, units.hbar, horizon, gap,
        max(100.0 * threshold, 5e-2) / (math.sqrt(2.0) * gap), threshold / (2.0 * gap), 0.0,
    )


def _quasi_pure_rays(rho: DensityMatrix, target: DensityMatrix):
    """(|p1 - p2|, phi, psi) when rho = p2 I + (p1 - p2) |phi><phi| and
    target = p2 I + (p1 - p2) |psi><psi|, their spectra equal within
    SPECTRAL_TOL and their (n - 1)-fold eigenvalue within SPECTRAL_TOL of
    degenerate and farther from the simple one; None otherwise.

    Equal spectra w and u have equal purities: |sum w^2 - sum u^2| is at
    most max |w - u| sum |w + u|, and so 2 SPECTRAL_TOL for unit-trace
    spectra that are nonnegative within SPECTRAL_TOL. ``eigh`` reads the
    target's lower triangle, a Hermitian matrix within the density gate's
    defect of the target, so sum u^2 is within STRUCTURAL_TOL ||target||_F^2
    of ||target||_F^2. Where that O(n^2) purity differs from sum w^2 by
    more than both terms plus 8 n^2 eps (the rounding of both sums and
    ``eigh``'s backward error), the target's ``eigh`` is skipped."""
    if rho.n != target.n or rho.n < 2:
        return None
    w, v = np.linalg.eigh(rho.matrix)
    # The simple eigenvalue is the lowest when p1 < 1/n, the highest when p1 > 1/n.
    for k, rest in ((0, w[1:]), (-1, w[:-1])):
        if rest[-1] - rest[0] <= SPECTRAL_TOL < abs(w[k] - rest[k]):  # rest[k] is next to w[k]
            break
    else:
        return None
    purity = np.vdot(target.matrix, target.matrix).real
    roundoff = 8.0 * rho.n**2 * np.finfo(float).eps
    if abs(purity - w @ w) > 2.0 * SPECTRAL_TOL + STRUCTURAL_TOL * purity + roundoff:
        return None
    u_w, u = np.linalg.eigh(target.matrix)
    if float(np.max(np.abs(u_w - w))) > SPECTRAL_TOL:
        return None
    return float(w[-1] - w[0]), v[:, k], u[:, k]


def _density_scan(
    h,
    rho: DensityMatrix,
    target: DensityMatrix,
    horizon: float,
    units: Units = Units(),
    threshold: float = 1e-8,
) -> float | None:
    """``density_arrival_time`` on the Frobenius distance, for any pair of
    densities.

    The speed ||[H, rho]||_1 / 2 comes from the commutator, in the
    generator's eigenbasis (w_j - w_k) S_jk, at the cost of one n x n
    ``eigvalsh``. With S and G the two densities in the generator's
    eigenbasis and p the row of phases exp(-i w t / hbar), D = S o pp* - G,
    and

        ||D||_F^2 = ||S||_F^2 + ||G||_F^2 - 2 Re sum_jk p_j M_jk conj(p_k),

    M = S o G^T: one (rows, n) @ (n, n) product per slice of cell ends or
    of grid points. No ``eigvalsh`` is spent on the grid. ||D||_F moves at
    most at ||[H, rho]||_F / hbar, the commutator's Frobenius norm, so a
    cell of up to 128 grid steps, of width W, whose end distances a and b
    give (a + b - ||[H, rho]||_F W / hbar) / 2 above the gate
    max(100 threshold, 0.05) by the margin s (2 sqrt(d) + sqrt(n) d) is
    skipped; s^2 = ||S||_F^2 + ||G||_F^2 and
    d = (64 n^2 + 8 |w|_inf horizon / hbar) eps. The quadratic form sums
    terms of total size at most 2 s^2 (Cauchy-Schwarz) in inner products of
    length n, and its phases, whose arguments reach |w|_inf horizon / hbar,
    are unimodular only to a few eps, so a computed ||D||_F^2 is within
    d s^2 of exact, and a computed ||D||_F within s sqrt(d): an end value
    and a grid point's value together take 2 s sqrt(d). A grid point's
    phases, products of two tables, move its distance by a few eps s more,
    well within s sqrt(n) d.

    Floor. Every phase has modulus 1, so the form is at most
    sum_jk |M_jk| and ||D||_F is at least
    sqrt(max(0, s^2 - 2 sum_jk |M_jk|)) at every t: the floor. As
    sum_jk |M_jk| <= ||S||_F ||G||_F <= s^2 / 2, its computed sum and the
    difference are within (n^2 + 2) eps s^2 <= d s^2 / 2 of exact, so a
    computed ||D||_F^2 is at least floor^2 - 3 d s^2 / 2, and a computed
    ||D||_F at least floor - s sqrt(3 d / 2) > floor - 2 s sqrt(d), the
    margin's first term.

    A slice builds its phases, products of a base row and a table row, for
    at most ``numerics._SCAN_CHUNK`` phase entries (one base row when its
    table holds more), so memory stays bounded whatever the horizon.

    The candidates, local minima of ||D||_F at most the gate, include every
    grid point whose trace distance is at most the gate, since
    ||D||_F <= ||D||_1. Each is refined by Newton steps on the time
    derivatives of ||D||_F^2 (forms of 2 i omega o M and 2 omega^2 o M,
    omega_jk = (w_j - w_k) / hbar), and judged by its one trace norm, an
    n x n ``eigvalsh``. The refined time minimizes the trace distance too
    for a target on the orbit, or for two quasi-pure densities of one
    spectrum (D is rank two and traceless, so ||D||_1 = sqrt 2 ||D||_F);
    60 full-rank targets off the orbit by |E|_1 < 1e-8 moved it by under
    |E|_1 hbar / ||[H, rho]||_1, deciding alike.
    """
    w, v = _generator_factors(h, horizon, rho.n, target.n)
    hbar = units.hbar
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v
    cross = start * goal.T
    squares = float(np.vdot(start, start).real + np.vdot(goal, goal).real)
    gaps = np.subtract.outer(w, w)
    forms = np.array([2j * gaps * cross / hbar, 2.0 * (gaps / hbar) ** 2 * cross])
    commutator = 1j * gaps * start
    speed = float(np.sum(np.abs(np.linalg.eigvalsh(commutator)))) / 2.0
    eps = np.finfo(float).eps
    slack = (64.0 * w.size**2 + 8.0 * float(np.max(np.abs(w))) * horizon / hbar) * eps
    margin = np.sqrt(squares) * (2.0 * np.sqrt(slack) + np.sqrt(w.size) * slack)

    def distance(table: np.ndarray, bases: np.ndarray) -> np.ndarray:
        size = len(table)
        rows = max(1, numerics._SCAN_CHUNK // (size * w.size))
        out = np.empty(len(bases) * size)
        for k in range(0, len(bases), rows):
            phases = (bases[k : k + rows, None, :] * table[None]).reshape(-1, w.size)
            mixed = phases @ cross
            # Conjugated in place. With a third temporary of this size glibc
            # gave the freed heap top back after every batch and faulted it
            # in again: 5.5e5 minor page faults, against 1.2e3, on a long
            # full-rank miss at n = 64 (glibc, numpy 2.4).
            form = np.einsum("ij,ij->i", mixed, np.conjugate(phases, out=phases)).real
            out[k * size : k * size + len(phases)] = squares - 2.0 * form
        return np.sqrt(np.maximum(0.0, out, out=out), out=out)

    def trace_norm(t: float) -> float:
        phases = np.exp(-1j * w * (t / hbar))
        rotated = start * np.outer(phases, phases.conj())
        return float(np.sum(np.abs(np.linalg.eigvalsh(rotated - goal))))

    def derivatives(t: float) -> tuple[float, float]:
        phases = np.exp(-1j * (w - w.mean()) * (t / hbar))
        return tuple(((forms @ phases.conj()) @ phases).real)

    floor = math.sqrt(max(0.0, squares - 2.0 * float(np.abs(cross).sum())))
    return numerics._scan_arrival(
        distance, trace_norm, derivatives, w, hbar, horizon, speed,
        float(np.linalg.norm(commutator)), floor, max(100.0 * threshold, 5e-2), margin,
        threshold,
    )[0]
