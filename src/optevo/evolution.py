"""Propagation and trajectory diagnostics.

Pure states evolve by the unitary propagator, densities by conjugation.
A Trajectory keeps its samples as one read-only complex array,
``Trajectory.samples``: (T, n) for pure states, (T, n, n) for densities,
checked once as a stack by the gates PureState and DensityMatrix apply to
one sample. Sampling is one phase table and one batched product. The
diagnostics are row-wise array expressions over the samples that quantify
how geodesic a trajectory is: the endpoint-distance speed profile, the
excess of summed segment lengths over the endpoint distance (both from the
atan2 ray distance), and the leakage out of the plane spanned by the
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, FoldExceededError
from .numerics import Tolerances, _scan_arrival, as_matrix, herm_eig, unitary_exp
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: finite times ascending, one sample per time.

    ``samples`` is a read-only complex array, (T, n) for pure states or
    (T, n, n) for densities. The constructor takes such an array or a
    sequence of PureState or DensityMatrix values of one kind and checks
    the samples once, as a stack. A writeable array is copied; a read-only
    complex C-contiguous one is kept as given, so its owner must not write
    to its memory through another view. ``states`` wraps the samples as
    state objects on first use. ``hamiltonian`` records the generator when
    one produced the samples; hand-assembled trajectories may leave it None.
    """

    times: np.ndarray
    samples: np.ndarray
    hamiltonian: np.ndarray | None
    units: Units = Units()

    def __post_init__(self) -> None:
        times = _checked_times(self.times)
        given = _as_samples(self.samples)
        samples = np.asarray(given, dtype=complex, order="C")
        if samples is given and samples.flags.writeable:
            samples = samples.copy()
        if samples.ndim == 2:
            _check_pure(samples)
        elif samples.ndim == 3 and samples.shape[1] == samples.shape[2]:
            _check_density(samples)
        else:
            raise DimensionMismatchError(
                f"samples must be (T, n) or (T, n, n), got shape {samples.shape}"
            )
        if times.size != samples.shape[0]:
            raise DimensionMismatchError(
                f"{times.size} times against {samples.shape[0]} states"
            )
        times.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "samples", samples)

    @property
    def kind(self) -> str:
        if not self.samples.shape[0]:
            return "empty"
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


def _as_samples(samples):
    """An array of samples as given; the arrays of a sequence of PureState
    or DensityMatrix values, listed."""
    if isinstance(samples, np.ndarray):
        return samples
    kinds = {type(s) for s in samples}
    if not kinds <= {PureState, DensityMatrix} or len(kinds) > 1:
        raise TypeError("states must be all PureState or all DensityMatrix")
    if not kinds:
        return np.empty((0, 0))
    return [s.amplitudes if PureState in kinds else s.matrix for s in samples]


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
    a = as_matrix(h)
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
    return Trajectory(ts, samples, a, units)


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
    return float(np.sqrt(np.max(np.vecdot(out, out).real)))


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
    tol: Tolerances | None = None,
) -> float | None:
    """Earliest time in (0, horizon] at which the evolving density comes
    within ``threshold`` of the target in trace norm, or None.

    Same streaming scan-and-refine search as the pure-state arrival; the
    returned time is the refined local minimizer of the trace distance.

    Each chunk is first screened with the Frobenius norm. With S and G the
    two densities in the generator's eigenbasis and p the row of phases
    exp(-i w t / hbar), the difference is D = S o pp* - G, and

        ||D||_F^2 = ||S||_F^2 + ||G||_F^2 - 2 Re sum_jk p_j M_jk conj(p_k),

    M = S o G^T: one (rows, n) @ (n, n) product per chunk. Because
    ||D||_F <= ||D||_1, a point whose Frobenius norm exceeds the scan's gate
    cannot pass it, so the stacked ``eigvalsh`` runs only on the points with
    ||D||_F^2 <= gate^2 + margin. Every other point reads +inf: its trace
    norm, as ``eigvalsh`` would compute it, is above the gate, so it is no
    candidate, and a candidate, being at most the gate, compares with +inf
    as with that value. The refined minima are those of a scan that
    diagonalizes every point. The screen assumes nothing of the densities.

    The margin is 64 n^2 eps s^2 with s^2 = ||S||_F^2 + ||G||_F^2. The
    quadratic form sums terms of total size at most 2 s^2 (Cauchy-Schwarz)
    in inner products of length n, and its phases are unimodular only to a
    few eps, so it is off by at most (4 n + 16) eps s^2. ``eigvalsh`` is
    taken to return each eigenvalue within 8 n eps ||D||_2 <= 8 n eps s sqrt 2,
    so a computed trace norm at most gate bounds the exact Frobenius norm by
    gate + e, e = 8 sqrt 2 n^2 eps s. If gate >= sqrt 2 s >= ||D||_F every
    point is near anyway; otherwise (gate + e)^2 - gate^2 < 32 n^2 eps s^2
    plus a negligible e^2, and both errors together stay below the margin.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    w, v = herm_eig(h, tol)
    if rho.n != w.size or target.n != w.size:
        raise DimensionMismatchError("generator and densities must share one dimension")
    hbar = units.hbar
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v
    cross = start * goal.T
    squares = float(np.vdot(start, start).real + np.vdot(goal, goal).real)
    gate = max(100.0 * threshold, 5e-2)
    cutoff = gate * gate + 64.0 * w.size**2 * np.finfo(float).eps * squares

    def trace_norms(phases: np.ndarray) -> np.ndarray:
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        return np.sum(np.abs(np.linalg.eigvalsh(rotated - goal)), axis=1)

    def values(table: np.ndarray, base: np.ndarray | float) -> np.ndarray:
        phases = table * base
        form = np.einsum("ij,ij->i", phases @ cross, phases.conj()).real
        near = np.nonzero(squares - 2.0 * form <= cutoff)[0]
        out = np.full(len(phases), np.inf)
        out[near] = trace_norms(phases[near])
        return out

    def distance(t: float) -> float:
        return float(trace_norms(np.exp(-1j * w * (t / hbar))[None, :])[0])

    return _scan_arrival(values, distance, w, hbar, horizon, gate, threshold)[0]
