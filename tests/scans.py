"""Scaffolding of the arrival-scan tests: case builders, reference scans,
and the case table that ``test_scans.py`` runs its shared assertions over.

A case is one arrival search. Its kind says which search runs:

- ``pure``: ``first_arrival_time`` between two rays;
- ``routed``: ``density_arrival_time`` between the quasi-pure densities
  p2 I + gap |a><a| on the pure case's rays, one spectrum, so the ray
  search runs;
- ``full-rank``: ``density_arrival_time`` between densities of full rank,
  so the Frobenius scan runs. Two levels make every density quasi-pure,
  and a pair of one spectrum, a hit's or a torus twin's, is routed to its
  rays: the full-rank rows at n = 2 are the misses and near targets only.

Its target says what the search meets:

- ``optimal``: a maximal-speed family member carries the start to the
  target ray at the speed-limit time;
- ``hit``: a generic generator's passage;
- ``miss``: a random target, which its floor decides;
- ``torus``: the start turned on the generator's invariant torus, whose
  floor is 0, a miss that streams the whole grid;
- ``near``: a passage pushed off the orbit, its distance's minimum
  between the threshold and the gate.

Then come n, hbar, the chunk budget ``numerics._SCAN_CHUNK`` (None keeps
the module's) and a routed pair's gap |p1 - p2|. A passage placed ``at``
grid steps out, or a long scan, also states its horizon and the range
``expect`` holds for each of its counters named there: a counter of the
scan, ``live``, the share of its cells evaluated, or ``peak``, its traced
peak in bytes.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from optevo import (
    DensityMatrix,
    PureState,
    Units,
    density_arrival_time,
    energy_uncertainty,
    first_arrival_time,
    fs_distance,
    optimal_family_sample,
    propagate,
    propagate_density,
    quasi_pure,
    QuasiPureSpec,
)
from optevo import numerics
from optevo.evolution import _density_scan
from optevo.sampling import random_hermitian, random_pure_state, random_unitary

KINDS = ("pure", "routed", "full-rank")
TARGETS = ("optimal", "hit", "miss", "near", "torus")
HITS = ("optimal", "hit")


@dataclass(frozen=True)
class Case:
    """One row of the table, in the terms of the module docstring."""

    kind: str
    target: str
    n: int
    hbar: float = 1.0
    chunk: int | None = None
    gap: float = 0.3
    at: int | None = None
    horizon: float | None = None
    expect: dict = field(default_factory=dict, compare=False)

    def __str__(self):
        tags = [self.kind, self.target, f"n{self.n}"]
        for name in ("hbar", "chunk", "gap", "at", "horizon"):
            value = getattr(self, name)
            if value != getattr(Case, name) and (name != "gap" or self.kind == "routed"):
                tags.append(f"{name}{value:g}")
        return "-".join(tags)


TABLE = [
    *(
        Case(kind, target, n, hbar)
        for kind in ("pure", "routed")
        for target in TARGETS
        for n in (2, 3, 5, 8, 16, 32)
        for hbar in (1.0, 2.0)
        # A qubit has no direction off both the orbit and its tangent, and
        # its torus is the orbit.
        if n > 2 or target not in ("near", "torus")
    ),
    *(Case(kind, "optimal", 64, hbar) for kind in ("pure", "routed") for hbar in (1.0, 2.0)),
    *(
        Case("full-rank", target, n, hbar)
        for target in TARGETS[1:]
        for n in (2, 3, 4, 8, 16, 32)
        for hbar in (1.0, 2.0)
        if n > 2 or target in ("miss", "near")
    ),
    # 8 phase entries at n = 8 make cells of one step, one a batch, in a
    # first chunk of one cell and then chunks of 8: every arrival and every
    # minimum near the gate lies among many seams.
    *(
        Case(kind, target, 8, chunk=8)
        for kind in KINDS
        for target in TARGETS
        if kind != "full-rank" or target != "optimal"
    ),
    # At n = 8 the first chunk holds 31 cells of 128 steps; a passage 5000
    # steps out is found in the second.
    *(Case(kind, "hit", 8, at=5000, expect=dict(chunks=(2, 2))) for kind in KINDS),
    # The routed gate on sin theta, 0.05 / (sqrt 2 gap), reaches 1 at
    # gap = 0.0354; then it is pi / 2 as an angle, which no floor clears.
    *(
        Case("routed", target, n, gap=gap)
        for target in ("miss", "near")
        for n in (3, 8)
        for gap in (0.03, 0.035, 0.036, 0.04)
    ),
]

# Long scans: the floor decides the misses, whatever the horizon; the torus
# twins stream every chunk in memory that the budget bounds.
LONG = [
    # Every cell screened: no offset table is built.
    Case("pure", "torus", 8, horizon=300.0, expect=dict(chunks=(2, 2), live=(0.0, 0.0))),
    # 9e6 grid points.
    Case("pure", "miss", 8, horizon=3e4, expect=dict(chunks=(0, 0))),
    # 1.5e6 grid points; a whole-grid phase matrix would take 800 MB.
    Case(
        "pure", "torus", 32, horizon=3000.0,
        expect=dict(chunks=(2, 2), live=(0.0, 0.1), peak=(0.0, 8e6)),
    ),
    # One chunk of phase rows, 2^15 complex entries, peaked near 0.55 MB.
    Case("routed", "miss", 64, horizon=30.0, expect=dict(chunks=(0, 0), peak=(0.0, 2e6))),
    Case("routed", "torus", 64, horizon=30.0, expect=dict(chunks=(2, 2), peak=(0.0, 2e6))),
    # Chunks of (rows, n, n) matrices peaked near 35 MB at n = 32.
    Case("full-rank", "miss", 32, horizon=30.0, expect=dict(chunks=(0, 0), peak=(0.0, 8e6))),
    Case("full-rank", "torus", 32, horizon=30.0, expect=dict(chunks=(2, 2), peak=(0.0, 8e6))),
    # sqrt(||S||^2 + ||G||^2 - 2 sum |M_jk|) clears the gate 0.05.
    Case(
        "full-rank", "miss", 64, horizon=3000.0,
        expect=dict(chunks=(0, 0), grid_points=(500_000, math.inf), floor=(0.07, 0.129)),
    ),
    # Nearly every cell live; its cell ends read in one piece traced
    # 14 MB, in slices of _SCAN_CHUNK phase entries near 2.5 MB.
    Case(
        "full-rank", "torus", 64, horizon=3000.0,
        expect=dict(
            chunks=(2, 2), grid_points=(500_000, math.inf), live=(0.99, 1.0), peak=(0.0, 8e6)
        ),
    ),
]


class Built(NamedTuple):
    """A case's generator, start, target and horizon; the time of its
    arrival (None for a miss); and for a pure or routed case its two rays
    as amplitude arrays."""

    h: np.ndarray
    start: object
    goal: object
    horizon: float
    arrival: float | None
    rays: tuple | None


@functools.cache
def build(case: Case) -> Built:
    """A case's search, seeded by its row, built once for all the tests
    that read it."""
    make = _passage if case.at is not None else _densities if case.kind == "full-rank" else _rays
    h, start, goal, horizon, arrival = make(case)
    rays = None
    if case.kind != "full-rank":
        rays = start.amplitudes, goal.amplitudes
        if case.kind == "routed":
            start, goal = _quasi_pure(rays[0], case.gap), _quasi_pure(rays[1], case.gap)
    return Built(h, start, goal, case.horizon or horizon, arrival, rays)


def search(case: Case, built: Built, h=None, frobenius: bool = False) -> float | None:
    """The public search of a case, under ``h`` in place of its generator
    when given; with ``frobenius``, the Frobenius scan on a density case,
    which a routed pair reaches by no public call."""
    h = built.h if h is None else h
    if case.kind == "pure":
        find = first_arrival_time
    else:
        find = _density_scan if frobenius else density_arrival_time
    return find(h, built.start, built.goal, built.horizon, Units(hbar=case.hbar))


def gate(case: Case) -> float:
    """The gate on the scanned distance: arcsin 0.01 on a pure ray's angle,
    arcsin min(1, 0.05 / (sqrt 2 gap)) on a routed pair's, and 0.05 on
    ||rho(t) - target||_F."""
    if case.kind == "full-rank":
        return 5e-2
    return math.asin(min(1.0, 1e-2 if case.kind == "pure" else 5e-2 / (math.sqrt(2.0) * case.gap)))


def step(h, state, hbar: float) -> float:
    """The grid step of a scan from ``state``: 0.01 hbar over its conserved
    speed, delta_e for a ray and ||[H, rho]||_1 / 2 for a density."""
    if isinstance(state, PureState):
        return 0.01 * hbar / energy_uncertainty(h, state)
    commutator = 1j * (h @ state.matrix - state.matrix @ h)
    return 0.02 * hbar / float(np.sum(np.abs(np.linalg.eigvalsh(commutator))))


def cells(case: Case, scan: dict) -> tuple[int, int]:
    """The steps in a cell of a scan's grid and the number of its cells,
    from the chunk budget as ``numerics._scan_arrival`` cuts them."""
    count = scan["grid_points"] - 1
    room = max(3, (case.chunk or numerics._SCAN_CHUNK) // case.n)
    block = min(numerics._SCAN_BLOCK, room - 2, count + 1)
    return block, count // block + 1


def torus_unitary(rng, h):
    """v exp(i theta) v* for the eigenvectors v of ``h`` and uniform random
    angles theta. It commutes with h, so a target U phi or U rho U* keeps
    every modulus of the start in h's eigenbasis: the sums of moduli behind
    the scans' floors are the start's against itself, and the floor reads 0
    up to roundoff. With n > 2 the orbit's line on the torus passes the
    target only by chance."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, w.size))) @ v.conj().T


def _rays(case):
    """Generator, rays, horizon and arrival time of a pure or routed case:
    a family member's transfer at the speed-limit time; a random
    generator's passage; a random target; the start on the generator's
    torus; or a passage 0.007 rad off the orbit and its tangent, whose
    infidelity minimum sits between the arrival threshold and the gate."""
    n, hbar = case.n, case.hbar
    rng = np.random.default_rng([n, int(hbar), TARGETS.index(case.target)])
    phi, psi = random_pure_state(rng, n), random_pure_state(rng, n)
    if case.target == "optimal":
        energy = float(rng.uniform(0.5, 2.0))
        h = optimal_family_sample(phi, psi, energy, int(rng.integers(1 << 30)))
        t_star = hbar * fs_distance(phi, psi) / energy
        return h, phi, psi, 1.3 * t_star, t_star
    h = random_hermitian(rng, n)
    w = np.linalg.eigvalsh(h)
    scale = hbar / (float(w[-1] - w[0]) / 2.0)
    if case.target in ("miss", "torus"):
        if case.target == "torus":
            psi = PureState(torus_unitary(rng, h) @ phi.amplitudes)
        return h, phi, psi, 20.0 * scale, None
    t_star = float(rng.uniform(0.2, 2.0)) * scale
    moved = propagate(h, phi, t_star, Units(hbar=hbar)).amplitudes
    horizon = 1.2 * t_star + 0.1 * scale
    if case.target == "hit":
        return h, phi, PureState(moved), horizon, t_star
    q, _ = np.linalg.qr(np.array([moved, h @ moved]).T)
    off = psi.amplitudes - q @ (q.conj().T @ psi.amplitudes)
    off /= np.linalg.norm(off)
    return h, phi, PureState(math.cos(0.007) * moved + math.sin(0.007) * off), horizon, None


def _densities(case):
    """Generator, densities, horizon and arrival time of a full-rank case:
    a passage of a density of spectrum 1 to n; a target of spectrum 1 to
    n^2, never reached; the start on the generator's torus; or the 2 % mix
    of that target into a passage, whose distance minimum sits between the
    threshold and the gate."""
    n, hbar = case.n, case.hbar
    rng = np.random.default_rng([n, int(hbar), TARGETS.index(case.target)])
    h = _fixed_spread(rng, n)
    scale = hbar / (2.0 * math.sqrt(n))  # hbar / delta_e_max
    rho = _random_density(rng, n, np.arange(1.0, n + 1.0))
    other = _random_density(rng, n, np.arange(1.0, n + 1.0) ** 2)
    if case.target in ("miss", "torus"):
        if case.target == "torus":
            u = torus_unitary(rng, h)
            other = DensityMatrix(u @ rho.matrix @ u.conj().T)
        return h, rho, other, 10.0 * scale, None
    t_star = float(rng.uniform(1.0, 3.0)) * scale
    moved = propagate_density(h, rho, t_star, Units(hbar=hbar))
    horizon = 1.3 * t_star + 0.5 * scale
    if case.target == "hit":
        return h, rho, moved, horizon, t_star
    return h, rho, DensityMatrix(0.98 * moved.matrix + 0.02 * other.matrix), horizon, None


def _passage(case):
    """A passage ``case.at`` grid steps of the case's own scan out, on a
    horizon half a step more than 1.5 times as long."""
    rng = np.random.default_rng([89, KINDS.index(case.kind)])
    h = _fixed_spread(rng, case.n)
    units = Units(hbar=case.hbar)
    if case.kind == "full-rank":
        rho = _random_density(rng, case.n, np.arange(1.0, case.n + 1.0))
        dt = step(h, rho, case.hbar)
        t_star = case.at * dt
        return h, rho, propagate_density(h, rho, t_star, units), 1.5 * t_star + 0.5 * dt, t_star
    phi = random_pure_state(rng, case.n)
    dt = step(h, phi if case.kind == "pure" else _quasi_pure(phi.amplitudes, case.gap), case.hbar)
    t_star = case.at * dt
    return h, phi, propagate(h, phi, t_star, units), 1.5 * t_star + 0.5 * dt, t_star


def _quasi_pure(a, difference):
    """p2 I + (p1 - p2) |a><a|, p2 = (1 - (p1 - p2)) / n: the quasi-pure
    density whose distinguished ray is the unit vector ``a``, its
    eigenvalue p1 above the other n - 1 for a positive ``difference``
    p1 - p2, below them for a negative one."""
    n = a.size
    return DensityMatrix((1.0 - difference) / n * np.eye(n) + difference * np.outer(a, a.conj()))


def _random_density(rng, n, spectrum):
    u = random_unitary(rng, n)
    return DensityMatrix((u * (np.asarray(spectrum) / np.sum(spectrum))) @ u.conj().T)


def _fixed_spread(rng, n):
    """A random Hermitian generator of half-spread 2 sqrt(n)."""
    h = random_hermitian(rng, n)
    w = np.linalg.eigvalsh(h)
    return h * (2.0 * math.sqrt(n) / (float(w[-1] - w[0]) / 2.0))


def _quasi_pure_pair(rng, n):
    """Two quasi-pure densities of one spectrum on random frames, as the
    arrival-scan benchmark draws them: distinguished rays 0.15 to 1.45 rad
    apart, p1 in (0.05, 0.95) at least 0.05 from 1/n."""
    while True:
        frames = random_unitary(rng, n), random_unitary(rng, n)
        if 0.15 <= fs_distance(*(PureState(f[:, 0]) for f in frames)) <= 1.45:
            break
    while True:
        p1 = float(rng.uniform(0.05, 0.95))
        if abs(p1 - 1.0 / n) >= 0.05:
            break
    p2 = (1.0 - p1) / (n - 1)
    return [
        quasi_pure(QuasiPureSpec(p1, p2, tuple(PureState(f[:, j]) for j in range(n))))
        for f in frames
    ]


def grid_distances(case: Case, built: Built, count: int) -> np.ndarray:
    """The scanned distance at the times i horizon / count, from the moved
    states: the angle between the rays by the stable atan2 formula for a
    pure or routed case, ||rho(t) - target||_F for a full-rank one."""
    w, v = np.linalg.eigh(built.h)
    times = np.arange(count + 1) * (built.horizon / count)
    out = []
    for k in range(0, count + 1, 256):
        phases = np.exp(-1j * np.outer(times[k : k + 256], w) / case.hbar)
        if built.rays is not None:
            phi, psi = built.rays
            states = (phases * (v.conj().T @ phi)) @ v.T
            overlaps = states.conj() @ psi
            sines = np.linalg.norm(psi[None] - overlaps[:, None] * states, axis=1)
            out.append(np.arctan2(sines, np.abs(overlaps)))
        else:
            start = v.conj().T @ built.start.matrix @ v
            moved = v @ (start * (phases[:, :, None] * phases.conj()[:, None, :])) @ v.conj().T
            out.append(np.linalg.norm(moved - built.goal.matrix, axis=(1, 2)))
    return np.concatenate(out)


def reference(case: Case, built: Built, grid_step: float | None = None):
    """The time, the minima refined and the smallest grid value of the
    reference search on the grid of ``grid_step``, by default of step
    0.01 hbar / delta_e_max: the grid the scans had before their step
    followed the start's own speed, never coarser than a scan's, as no
    speed exceeds delta_e_max."""
    if grid_step is None:
        w = np.linalg.eigvalsh(built.h)
        grid_step = 0.01 * case.hbar / (float(w[-1] - w[0]) / 2.0)
    find = _reference_first_arrival if case.kind == "pure" else _reference_density_arrival
    return find(built.h, built.start, built.goal, built.horizon, case.hbar, step=grid_step)


def _reference_first_arrival(h, phi, psi, horizon, hbar, step):
    """The pure search on the infidelity, its gate 1e-4 and its threshold
    1e-9, as ``_reference_scan`` reads them."""
    w, v = np.linalg.eigh(h)
    weights = (v.conj().T @ psi.amplitudes).conj() * (v.conj().T @ phi.amplitudes)

    def infidelities(times):
        return np.maximum(0.0, 1.0 - np.abs(np.exp(-1j * np.outer(times, w) / hbar) @ weights) ** 2)

    return _reference_scan(infidelities, horizon, step, 1e-4, 1e-9, max(1e-12, 1e-10 * horizon))


def _reference_density_arrival(h, rho, target, horizon, hbar=1.0, threshold=1e-8, step=None):
    """The density search on the trace norm, as ``_reference_scan`` reads
    it, by default on the grid of step 0.01 hbar / delta_e_max that it had
    before the step followed ||[H, rho]||_1. No Frobenius screen."""
    w, v = np.linalg.eigh(h)
    start = v.conj().T @ rho.matrix @ v
    goal = v.conj().T @ target.matrix @ v

    def norms(times):
        phases = np.exp(-1j * np.outer(times, w) / hbar)
        rotated = start * (phases[:, :, None] * phases.conj()[:, None, :])
        return np.sum(np.abs(np.linalg.eigvalsh(rotated - goal)), axis=1)

    if step is None:
        step = 0.01 * hbar / (float(w[-1] - w[0]) / 2.0)
    return _reference_scan(norms, horizon, step, max(100.0 * threshold, 5e-2), threshold)


def _reference_scan(values, horizon, step, gate, threshold, xtol=0.0):
    """The arrival scans before their phases were factored and screened:
    ``values(times)`` at every point of the grid of the given step, with
    phases exponentiated straight from the grid times, so that they match
    the streamed scans' to rounding; the same gated local-minimum test;
    and the former refinement of ``values`` itself, golden section and a
    parabolic polish. Returns the time, the minima refined and the
    smallest grid value."""
    count = max(math.ceil(horizon / step), 8)
    dt = horizon / count
    times = np.arange(count + 1) * dt
    vals = np.concatenate([values(times[i : i + 256]) for i in range(0, count + 1, 256)])
    vals = np.append(vals, np.inf)
    refined = 0
    for i in range(1, count + 1):
        if not vals[i] <= min(vals[i - 1], vals[i + 1], gate):
            continue
        refined += 1
        lo, hi = (i - 1) * dt, (i + 1) * dt if i + 1 < count else horizon
        tol = max(xtol, 1e-10 * (hi - lo), 4.0 * float(np.spacing(hi)))
        t_min, f_min = refine(lambda t: float(values(np.array([t]))[0]), lo, hi, tol, step)
        if f_min <= threshold and t_min > 0.0:
            return min(t_min, horizon), refined, float(vals.min())
    return None, refined, float(vals.min())


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


def refine(f, lo: float, hi: float, tol: float, step: float) -> tuple[float, float]:
    """The scans' former refinement: golden section on [lo, hi] to ``tol``,
    then the parabolic polish at 0.02 ``step``; returns the time and the
    lower of the two values seen."""
    t_min, f_min = golden_section_min(f, lo, hi, tol)
    t_min = _parabolic_polish(f, t_min, 0.02 * step)
    return t_min, min(f_min, f(t_min))
