"""Propagation and trajectory diagnostics.

Pure states evolve by the unitary propagator, densities by conjugation.
The diagnostics quantify how geodesic a sampled trajectory is: the
endpoint-distance speed profile, the excess of summed segment lengths over
the endpoint distance, and the leakage out of the plane spanned by the
endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FoldExceededError
from .numerics import Tolerances, _scan_arrival, as_matrix, herm_eig, unitary_exp
from .quantum_states import DensityMatrix, PureState, Units, fs_distance

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
    """Sampled evolution: times ascending, one state per time.

    ``states`` holds either PureState or DensityMatrix values, uniformly.
    ``hamiltonian`` records the generator when one produced the samples;
    hand-assembled trajectories may leave it None.
    """

    times: np.ndarray
    states: tuple
    hamiltonian: np.ndarray | None
    units: Units = Units()

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise DimensionMismatchError("times must be one-dimensional")
        if times.size != len(self.states):
            raise DimensionMismatchError(
                f"{times.size} times against {len(self.states)} states"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must strictly ascend")
        kinds = {type(s) for s in self.states}
        if not kinds <= {PureState, DensityMatrix} or len(kinds) > 1:
            raise TypeError("states must be all PureState or all DensityMatrix")
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def kind(self) -> str:
        if not self.states:
            return "empty"
        return "pure" if isinstance(self.states[0], PureState) else "density"


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

    The eigendecomposition is taken once, so long grids cost one solve plus
    one phase rotation per sample.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise DimensionMismatchError("times must be one-dimensional")
    w, v = herm_eig(h)
    a = as_matrix(h)
    states: list = []
    if isinstance(state, PureState):
        start = v.conj().T @ state.amplitudes
        for t in ts:
            phases = np.exp(-1j * w * (float(t) / units.hbar))
            states.append(PureState(v @ (phases * start)))
    elif isinstance(state, DensityMatrix):
        start = v.conj().T @ state.matrix @ v
        for t in ts:
            phases = np.exp(-1j * w * (float(t) / units.hbar))
            rotated = start * np.outer(phases, phases.conj())
            states.append(DensityMatrix(v @ rotated @ v.conj().T))
    else:
        raise TypeError(f"cannot evolve a {type(state).__name__}")
    return Trajectory(ts, tuple(states), a, units)


def _pure_only(traj: Trajectory, what: str) -> None:
    if traj.kind != "pure":
        raise TypeError(f"{what} is defined for pure-state trajectories only")


def fs_speed_profile(traj: Trajectory) -> np.ndarray:
    """Central-difference speed of the distance from the initial ray.

    Needs a uniform grid of at least three samples, all strictly inside
    the fold of the ray distance at pi/2 (the caller keeps the window on a
    monotone segment). Returns one value per interior grid point. For a
    maximal-speed generator the profile is flat at delta_e / hbar.
    """
    _pure_only(traj, "the speed profile")
    if traj.times.size < 3:
        raise ValueError("need at least three samples")
    dt = np.diff(traj.times)
    if float(np.max(np.abs(dt - dt[0]))) > 1e-9 * max(dt[0], 1e-300):
        raise ValueError("grid must be uniform")
    start = traj.states[0]
    dist = np.array([fs_distance(start, s) for s in traj.states])
    # The leading entry compares the start ray with itself; arccos noise
    # there sits at sqrt(eps) and would dominate the first difference.
    dist[0] = 0.0
    if float(np.max(dist)) >= HALF_PI - 1e-9:
        raise FoldExceededError("the window touches the distance fold at pi/2")
    return (dist[2:] - dist[:-2]) / (2.0 * dt[0])


def geodesic_defect(traj: Trajectory) -> float:
    """Summed segment lengths minus the endpoint distance.

    Zero exactly on geodesic segments, positive otherwise (up to roundoff
    of order 1e-10 below zero). The cumulative length must stay at least
    1e-3 short of the fold at pi/2.
    """
    _pure_only(traj, "the geodesic defect")
    if len(traj.states) <= 1:
        return 0.0
    segments = [
        fs_distance(a, b) for a, b in zip(traj.states[:-1], traj.states[1:])
    ]
    total = float(np.sum(segments))
    if total > HALF_PI - 1e-3:
        raise FoldExceededError(
            f"cumulative length {total:.6f} is too close to the fold at pi/2"
        )
    return total - fs_distance(traj.states[0], traj.states[-1])


def subspace_leakage(traj: Trajectory, phi: PureState, psi: PureState) -> float:
    """Largest component of any sample outside span{phi, psi}.

    Zero (to roundoff) when the motion stays in the plane of the
    endpoints, as every maximal-speed evolution does.
    """
    _pure_only(traj, "subspace leakage")
    if phi.n != psi.n:
        raise DimensionMismatchError(f"dimensions differ: {phi.n} vs {psi.n}")
    first = phi.amplitudes
    rest = psi.amplitudes - first * np.vdot(first, psi.amplitudes)
    rest_norm = float(np.linalg.norm(rest))
    frame = [first] if rest_norm < 1e-12 else [first, rest / rest_norm]
    worst = 0.0
    for state in traj.states:
        if state.n != phi.n:
            raise DimensionMismatchError("trajectory and span dimensions differ")
        out = state.amplitudes.copy()
        for q in frame:
            out -= q * np.vdot(q, out)
        worst = max(worst, float(np.linalg.norm(out)))
    return worst


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

    Same streaming scan-and-refine search as the pure-state arrival, with
    each chunk's densities diagonalized in one stacked call; the returned
    time is the refined local minimizer of the trace distance.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    w, v = herm_eig(h, tol)
    if rho.n != w.size or target.n != w.size:
        raise DimensionMismatchError("generator and densities must share one dimension")
    hbar = units.hbar
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v

    def values(table: np.ndarray, base: np.ndarray | float) -> np.ndarray:
        phases = table * base
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        return np.sum(np.abs(np.linalg.eigvalsh(rotated - goal)), axis=1)

    def distance(t: float) -> float:
        return float(values(np.exp(-1j * w * (t / hbar))[None, :], 1.0)[0])

    gate = max(100.0 * threshold, 5e-2)
    return _scan_arrival(values, distance, w, hbar, horizon, gate, threshold)[0]
