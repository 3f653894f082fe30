"""Seeded property checks over the whole package.

Each check draws its own generator from the master seed, runs a stated
number of trials, and reports the worst residual it saw next to the bound
it enforces. A check states its name, suite and bound once, in its
``@check`` declaration. A check whose body is one trial states its
dimension range once too, in the ``@_each_trial`` line under it, which
runs the trials. The worst residual carries a NaN through, so a NaN
residual fails its row. The declaration order fixes the suites and each
check's child seed. The command-line ``verify`` subcommand runs these; the
acceptance tests call the same functions with pinned trial counts.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .evolution import (
    Trajectory,
    _density_scan,
    density_arrival_time,
    fs_speed_profile,
    geodesic_defect,
    propagate,
    propagate_density,
    sample_trajectory,
    subspace_leakage,
)
from .lie_flag import (
    BlockStructure,
    ad_conjugate,
    bracket,
    coset_orbit,
    is_equigeodesic_structural,
    is_equigeodesic_variational,
    killing_inner,
    killing_norm,
    reductive_split,
)
from .numerics import frobenius, herm_eig, unitary_exp
from .quantum_states import (
    PureState,
    QuasiPureSpec,
    Units,
    energy_uncertainty,
    energy_uncertainty_max,
    fidelity,
    fs_distance,
    projector,
    quasi_pure,
    quasi_pure_transport,
)
from .sampling import (
    random_equigeodesic,
    random_hermitian,
    random_pure_state,
    random_su_vector,
    random_unitary,
)
from .serialization import (
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
)
from .synthesis import (
    Verdict,
    adapted_blocks,
    equigeodesic_vector_of,
    first_arrival_time,
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    qsl_time,
)

__all__ = ["PropertyResult", "SUITE_NAMES", "run_suite", "registry"]

HALF_PI = float(np.pi) / 2.0


@dataclass(frozen=True)
class PropertyResult:
    name: str
    suite: str
    passed: bool
    max_residual: float
    bound: float
    trials: int
    detail: str = ""
    wall_s: float = 0.0


# (suite, check) pairs in declaration order, filled by @check.
_TABLE: list = []


class _Fail(Exception):
    """Ends a check early as failed, with its detail line and residual."""

    def __init__(self, detail: str, residual: float = np.inf) -> None:
        super().__init__(detail)
        self.detail = detail
        self.residual = residual


def check(name, suite, bound, passes=operator.le, count=None):
    """Declare a property check ``fn(rng, trials, n_max)`` and append it to
    the table: its row states the name, suite and bound once, and, through
    ``@_each_trial`` below this decorator, the dimension range.

    The body returns its residual, or ``(residual, detail, side)`` with
    ``side`` a further condition that must hold; it passes when
    ``passes(residual, bound)`` and ``side`` are true, so a NaN residual
    fails. Raising ``_Fail`` fails it early. ``count`` maps the requested
    trials to the reported count. The result carries the body's wall time.
    """

    def declare(body):
        @functools.wraps(body)
        def run(rng, trials, n_max):
            start = time.perf_counter()
            try:
                out = body(rng, trials, n_max)
                residual, detail, side = out if isinstance(out, tuple) else (out, "", True)
                passed = bool(side) and passes(residual, bound)
            except _Fail as fail:
                residual, detail, passed = fail.residual, fail.detail, False
            reported = trials if count is None else count(trials)
            return PropertyResult(
                name, suite, passed, residual, bound, reported, detail,
                time.perf_counter() - start,
            )

        _TABLE.append((suite, run))
        return run

    return declare


def _dims(rng, n_max, lo=2, least=2, most=None) -> int:
    """A trial's dimension, uniform on [lo, max(least, min(most, n_max))]."""
    hi = max(least, n_max if most is None else min(most, n_max))
    return int(rng.integers(lo, hi + 1))


def _worst(*residuals, pick=max):
    """``pick`` of the residuals, or NaN if any is NaN: ``max`` and ``min``
    keep a NaN only when it comes first, and a dropped NaN would pass."""
    if any(math.isnan(r) for r in residuals):
        return math.nan
    return pick(residuals)


def _each_trial(lo=2, least=2, most=None):
    """Run a one-trial body ``body(rng, n, k) -> residual`` as the check
    ``fn(rng, trials, n_max)`` returning the worst residual, at least 0.

    Trial ``k`` draws its dimension ``n`` with ``_dims`` before the body
    draws anything.
    """

    def loop(body):
        @functools.wraps(body)
        def run(rng, trials, n_max):
            return _worst(0.0, *(
                body(rng, _dims(rng, n_max, lo, least, most), k) for k in range(trials)
            ))

        return run

    return loop


# Every rejection loop draws through _draw, which fails its row after
# _DRAWS draws instead of running on. Up to n = 128 the lowest acceptance
# share measured is 24 %: the 0.3 eigen-defect filter that
# _violating_passage asks of _violating_generator, at n = 128, over 1500
# draws. The distinct ray pair takes 28 % there, every other filter more
# than half, so a draw runs out with probability below 0.76**200 ~ 1e-24.
# The nested case, _violating_passage drawing through
# _violating_generator, makes at most 200 * 200 = 40 000 generator draws;
# every accepted generator measured also cleared the passage's 5e-3 gap.
_DRAWS = 200


def _draw(make, accept, what, n):
    """The first of at most ``_DRAWS`` draws ``make()`` that ``accept``
    takes; past that the row fails, naming ``what`` and the dimension."""
    for _ in range(_DRAWS):
        drawn = make()
        if accept(drawn):
            return drawn
    raise _Fail(f"no {what} in {_DRAWS} draws at n = {n}")


def _distinct_pair(rng, n, lo=0.1, hi=1.47):
    """Random ray pair with distance inside [lo, hi], off both endpoints."""
    return _draw(
        lambda: (random_pure_state(rng, n), random_pure_state(rng, n)),
        lambda pair: lo <= fs_distance(*pair) <= hi, "distinct ray pair", n,
    )


# ---------------------------------------------------------------------------
# algebra suite


@check("eig-reconstruction", "algebra", 1e-10)
@_each_trial()
def check_eig_reconstruction(rng, n, k):
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    w, v = herm_eig(h)
    if not np.all(np.diff(w) >= 0.0):
        raise _Fail("eigenvalues not ascending")
    rebuilt = (v * w) @ v.conj().T
    return _worst(
        frobenius(rebuilt - h) / max(1.0, frobenius(h)),
        float(np.linalg.norm(v.conj().T @ v - np.eye(n))),
    )


@check("exp-unitarity", "algebra", 1e-10)
@_each_trial()
def check_exp_unitarity(rng, n, k):
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.01, 40.0)))
    t = float(rng.uniform(-1e3, 1e3))
    u = unitary_exp(h, t, hbar=float(rng.uniform(0.5, 2.0)))
    return float(np.linalg.norm(u.conj().T @ u - np.eye(n)))


@check("exp-group-law", "algebra", 1e-9)
@_each_trial()
def check_exp_group_law(rng, n, k):
    h = random_hermitian(rng, n)
    s = float(rng.uniform(-10.0, 10.0))
    t = float(rng.uniform(-10.0, 10.0))
    return frobenius(unitary_exp(h, s) @ unitary_exp(h, t) - unitary_exp(h, s + t))


@check("killing-ad-invariance", "algebra", 1e-8)
@_each_trial()
def check_killing_ad_invariance(rng, n, k):
    x = random_su_vector(rng, n)
    y = random_su_vector(rng, n)
    u = random_unitary(rng, n)
    before = killing_inner(x, y)
    after = killing_inner(ad_conjugate(u, x), ad_conjugate(u, y))
    return abs(after - before) / (1.0 + killing_norm(x) * killing_norm(y))


def _random_blocks(rng, n) -> BlockStructure:
    # Random ordered partition of n with at least two parts.
    parts: list[int] = []
    left = n
    while left > 0:
        if len(parts) >= 1 and left == 1:
            parts.append(1)
            break
        cap = left - 1 if not parts else left
        p = int(rng.integers(1, cap + 1))
        parts.append(p)
        left -= p
    if len(parts) == 1:
        parts = [1, n - 1]
    return BlockStructure(tuple(parts))


@check("split-exactness", "algebra", 1e-9)
@_each_trial(least=3)
def check_split_exactness(rng, n, k):
    blocks = _random_blocks(rng, n)
    x = random_su_vector(rng, n)
    iso, tan = reductive_split(x, blocks)
    if not np.array_equal(iso.matrix + tan.matrix, x.matrix):
        raise _Fail("parts do not sum back exactly")
    iso2, tan2 = reductive_split(tan, blocks)
    if not (np.array_equal(tan2.matrix, tan.matrix) and not np.any(iso2.matrix)):
        raise _Fail("projection is not idempotent")
    return abs(killing_inner(iso, tan))


@check("bracket-closure", "algebra", 1e-9)
@_each_trial()
def check_bracket_closure(rng, n, k):
    x = random_su_vector(rng, n)
    y = random_su_vector(rng, n)
    z = random_su_vector(rng, n)
    b = bracket(x, y)
    jacobi = (
        bracket(x, bracket(y, z)).matrix
        + bracket(y, bracket(z, x)).matrix
        + bracket(z, bracket(x, y)).matrix
    )
    return _worst(
        frobenius(b.matrix + b.matrix.conj().T),
        abs(complex(np.trace(b.matrix))),
        float(np.linalg.norm(jacobi)) / max(1.0, killing_norm(x)),
    )


@check("criterion-equivalence", "algebra", 1e-9, count=lambda trials: 2 * trials)
def check_criterion_equivalence(rng, trials, n_max):
    """Structural and variational certificates agree on (1, n-1).

    ``trials`` constructed-true plus ``trials`` generic directions, each
    judged by both certificates. Reports the worst constructed-case
    variational residual; the detail line carries the smallest generic-case
    residual, which must clear 1e-3.
    """
    residuals = {True: [0.0], False: []}
    for constructed in (True, False):
        for k in range(trials):
            n = _dims(rng, n_max, most=6)
            blocks = BlockStructure((1, n - 1))
            if constructed:
                x = random_equigeodesic(rng, n, with_isotropy=bool(k % 2))
            else:
                x = random_su_vector(rng, n)
            structural = is_equigeodesic_structural(x, blocks)
            # This draw once seeded the sampled metrics; it stays so that
            # every trial keeps its direction.
            rng.integers(2**32)
            variational, residual = is_equigeodesic_variational(x, blocks)
            if constructed and not (structural and variational):
                raise _Fail(f"constructed direction rejected at trial {k}")
            if not constructed and (structural or variational):
                raise _Fail(f"generic direction accepted at trial {k}")
            residuals[constructed].append(residual)
    least_false = _worst(*residuals[False], pick=min)
    detail = f"least generic residual {least_false:.3e}"
    return _worst(*residuals[True]), detail, least_false > 1e-3


@check("orbit-translation", "algebra", 1e-9)
@_each_trial()
def check_orbit_translation(rng, n, k):
    x = random_su_vector(rng, n)
    u = random_unitary(rng, n)
    t = float(rng.uniform(0.0, 10.0))
    s = float(rng.uniform(0.0, 10.0))
    moved = ad_conjugate(u, x)
    return _worst(
        frobenius(coset_orbit(moved, t) @ u - u @ coset_orbit(x, t)),
        frobenius(coset_orbit(x, t) @ coset_orbit(x, s) - coset_orbit(x, t + s)),
    )


@check("isotropy-factorization", "algebra", 1e-8)
@_each_trial(lo=3, least=3, most=6)
def check_isotropy_factorization(rng, n, k):
    """exp(t X) exp(-t X_m) stays block-diagonal for certified directions."""
    blocks = BlockStructure((1, n - 1))
    x = random_equigeodesic(rng, n, with_isotropy=True)
    _, tan = reductive_split(x, blocks)
    off = ~blocks.diagonal_mask()
    return _worst(*(
        float(np.linalg.norm((coset_orbit(x, t) @ coset_orbit(tan, t).conj().T)[off]))
        for t in map(float, rng.uniform(0.0, 10.0, size=10))
    ))


# ---------------------------------------------------------------------------
# synthesis suite


@check("qubit-oracle", "synthesis", 1e-12, count=lambda trials: 1)
def check_qubit_oracle(rng, trials, n_max):
    """Closed-form two-level case: |0> to |1> at unit uncertainty.

    The canonical generator is the antisymmetric Pauli matrix, the
    speed-limit time is pi/2, and the measured arrival matches it.
    """
    phi = PureState.basis_state(2, 0)
    psi = PureState.basis_state(2, 1)
    h = optimal_hamiltonian(phi, psi, 1.0)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    verdict = is_optimal_speed(h, phi)
    worst = _worst(
        frobenius(h - sigma_y),
        abs(qsl_time(phi, psi, h) - HALF_PI),
        abs(verdict.delta_e - 1.0),
        abs(verdict.delta_e_max - 1.0),
    )
    arrival = first_arrival_time(h, phi, psi, horizon=10.0)
    arrival_err = np.inf if arrival is None else abs(arrival - HALF_PI)
    ok = verdict.kind is Verdict.OPTIMAL and arrival_err <= 1e-7
    return worst, f"arrival error {arrival_err:.3e} against 1e-7", ok


@check("fs-metric-axioms", "synthesis", 1e-10)
def check_fs_metric_axioms(rng, trials, n_max):
    """Metric axioms on rays. Self-distance is held to 1e-14: the distance
    takes its sine from the vectors, not from an overlap modulus near 1,
    so a ray is a few eps from itself. The remaining axioms are sharp to
    1e-10."""
    residuals = [0.0]
    self_distances = [0.0]
    for _ in range(trials):
        n = _dims(rng, n_max)
        a = random_pure_state(rng, n)
        b = random_pure_state(rng, n)
        c = random_pure_state(rng, n)
        dab = fs_distance(a, b)
        if not (0.0 <= dab <= HALF_PI) or dab != fs_distance(b, a):
            raise _Fail("range or symmetry broken")
        self_distances.append(fs_distance(a, a))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = PureState(a.amplitudes * phase)
        residuals.append(abs(fs_distance(rotated, b) - dab))
        residuals.append(fs_distance(a, c) - (dab + fs_distance(b, c)))
    worst_self = _worst(*self_distances)
    detail = f"self-distance floor {worst_self:.3e} against 1e-14"
    return _worst(*residuals), detail, worst_self <= 1e-14


@check("fs-unitary-invariance", "synthesis", 1e-10)
@_each_trial()
def check_fs_unitary_invariance(rng, n, k):
    a = random_pure_state(rng, n)
    b = random_pure_state(rng, n)
    u = random_unitary(rng, n)
    ua = PureState.from_vector(u @ a.amplitudes)
    ub = PureState.from_vector(u @ b.amplitudes)
    return abs(fs_distance(ua, ub) - fs_distance(a, b))


@check("variance-bound-witness", "synthesis", 1e-10)
@_each_trial()
def check_variance_bound_and_witness(rng, n, k):
    """No state beats half the spectral spread, the witness attains it, and
    the balanced two-point mixture of extreme eigenvectors gives the same
    number."""
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 5.0)))
    value, witness = energy_uncertainty_max(h)
    phi = random_pure_state(rng, n)
    w, v = herm_eig(h)
    mix = 0.5 * (
        np.outer(v[:, 0], v[:, 0].conj()) + np.outer(v[:, -1], v[:, -1].conj())
    )
    mean = float(np.trace(mix @ h).real)
    var = float(np.trace(mix @ h @ h).real) - mean * mean
    return _worst(
        energy_uncertainty(h, phi) - value,
        abs(energy_uncertainty(h, witness) - value),
        abs(float(np.sqrt(max(var, 0.0))) - value),
    )


@check("uncertainty-conservation", "synthesis", 1e-10)
@_each_trial()
def check_uncertainty_conservation(rng, n, k):
    h = random_hermitian(rng, n)
    phi = random_pure_state(rng, n)
    base = energy_uncertainty(h, phi)
    return _worst(*(
        abs(energy_uncertainty(h, propagate(h, phi, t)) - base)
        for t in map(float, rng.uniform(0.0, 10.0, size=4))
    ))


@check("blocks-reassembly", "synthesis", 1e-10)
@_each_trial()
def check_blocks_reassembly(rng, n, k):
    h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    phi = random_pure_state(rng, n)
    blocks = adapted_blocks(h, phi)
    return _worst(
        frobenius(blocks.reassemble() - h) / max(1.0, frobenius(h)),
        abs(float(np.linalg.norm(blocks.coupling)) - energy_uncertainty(h, phi)),
    )


def _synth_pair(rng, n, energy, family: bool):
    phi, psi = _distinct_pair(rng, n)
    if family:
        h = optimal_family_sample(phi, psi, energy, int(rng.integers(2**32)))
    else:
        h = optimal_hamiltonian(phi, psi, energy)
    return phi, psi, h


@check("synthesis-roundtrip", "synthesis", 1e-9)
@_each_trial()
def check_synthesis_roundtrip(rng, n, k):
    """Synthesized generators are verdict-optimal, their algebra vectors
    pass the structural certificate, and the target is reached at the
    speed-limit time. The certificate shares the verdict's kernel, so it
    tests the pull-back to the base point, not an independent route."""
    energy = float(rng.uniform(0.5, 2.0))
    phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
    verdict = is_optimal_speed(h, phi)
    if verdict.kind is not Verdict.OPTIMAL:
        raise _Fail(f"verdict {verdict.kind.value} at trial {k}")
    vector, base = equigeodesic_vector_of(h, phi)
    centered = ad_conjugate(base.conj().T, vector)
    if not is_equigeodesic_structural(centered, BlockStructure((1, n - 1))):
        raise _Fail(f"structural certificate failed at trial {k}")
    arrived = propagate(h, phi, fs_distance(phi, psi) / energy)
    return 1.0 - fidelity(arrived, psi)


@check("saturation-equivalence", "synthesis", 1e-8)
@_each_trial()
def check_saturation_equivalence(rng, n, k):
    """Optimal verdicts coincide exactly with uncertainty saturation.

    Reports the worst |delta_e - delta_e_max| / max(1, delta_e_max) over
    optimal verdicts, the quantity saturation compares with 1e-8.
    """
    if k % 2 == 0:
        energy = float(rng.uniform(0.5, 2.0))
        phi, _, h = _synth_pair(rng, n, energy, family=bool(k % 4 == 2))
    else:
        h = random_hermitian(rng, n)
        phi = random_pure_state(rng, n)
    verdict = is_optimal_speed(h, phi)
    gap = abs(verdict.delta_e - verdict.delta_e_max) / max(1.0, verdict.delta_e_max)
    if (verdict.kind is Verdict.OPTIMAL) != (gap <= 1e-8):
        raise _Fail(f"verdict and saturation disagree at trial {k}")
    # Only optimal verdicts add their gap, but a NaN gap fails any trial.
    return gap if verdict.kind is Verdict.OPTIMAL or math.isnan(gap) else 0.0


def _violating_generator(rng, n, coupling_min, complement_min, defect_min):
    """Random generator and state whose adapted blocks violate the
    certificate: coupling and complement norms above their minimums and a
    relative eigen-defect above ``defect_min`` times min(1, sqrt(12 / n)).
    A random draw's relative defect falls like 1 / sqrt(n); for n <= 12
    the factor is 1."""
    defect_min *= min(1.0, math.sqrt(12 / n))

    def violates(draw):
        blocks = adapted_blocks(*draw)
        x, comp = blocks.coupling, blocks.complement
        defect = float(np.linalg.norm(comp @ x - blocks.mean_energy * x))
        coupling_norm = float(np.linalg.norm(x))
        comp_norm = float(np.linalg.norm(comp))
        return (
            coupling_norm > coupling_min
            and comp_norm > complement_min
            and defect / max(1.0, comp_norm * coupling_norm) > defect_min
        )

    return _draw(
        lambda: (random_hermitian(rng, n), random_pure_state(rng, n)), violates,
        "violating generator", n,
    )


@check("strict-gap-when-violated", "synthesis", 1e-12, passes=operator.gt)
def check_strict_gap_when_violated(rng, trials, n_max):
    """Violating both certificate clauses forces a strict uncertainty gap."""
    gaps = []
    for _ in range(trials):
        n = _dims(rng, n_max)
        h, phi = _violating_generator(rng, n, 1e-6, 0.1, 0.1)
        verdict = is_optimal_speed(h, phi)
        gaps.append(verdict.delta_e_max - verdict.delta_e)
    detail = "reported value is the smallest gap seen; it must exceed the bound"
    return _worst(*gaps, pick=min), detail, True


@check("qsl-arrival-consistency", "synthesis", 1e-6, count=lambda trials: max(trials, 3))
def check_qsl_arrival_consistency(rng, trials, n_max):
    """Measured arrivals never beat the speed limit, match it exactly for
    optimal generators, and exceed it measurably for violating ones.

    Trial k runs mode k % 3 (optimal, generic, violating), over at least
    three trials so that each mode runs."""
    lowers, equalities, gaps = [], [0.0], []
    for k in range(max(trials, 3)):
        n = _dims(rng, n_max)
        mode = k % 3
        if mode == 0:
            energy = float(rng.uniform(0.5, 2.0))
            phi, target, h = _synth_pair(rng, n, energy, family=bool(k % 2))
            t_star = float(rng.uniform(0.15, 0.95)) * HALF_PI / energy
            psi = propagate(h, phi, t_star)
            bound = qsl_time(phi, psi, h)
            arrival = first_arrival_time(h, phi, psi, 1.3 * t_star + 0.2)
            if arrival is None:
                raise _Fail(f"optimal arrival missing at trial {k}")
            equalities.append(abs(arrival - bound))
        elif mode == 1:
            h = random_hermitian(rng, n)
            phi = random_pure_state(rng, n)
            if is_optimal_speed(h, phi).kind is Verdict.STATIONARY:
                continue
            w, _ = herm_eig(h)
            spread = float(w[-1] - w[0]) / 2.0
            t_star = float(rng.uniform(0.2, 2.0)) / spread
            psi = propagate(h, phi, t_star)
            bound = qsl_time(phi, psi, h)
            arrival = first_arrival_time(h, phi, psi, 1.2 * t_star + 0.1)
            if arrival is None:
                raise _Fail(f"generic arrival missing at trial {k}")
        else:
            h, phi, t_star, bound = _violating_passage(rng, n)
            psi = propagate(h, phi, t_star)
            arrival = first_arrival_time(h, phi, psi, 1.1 * t_star)
            if arrival is None:
                raise _Fail(f"violating arrival missing at trial {k}")
            gaps.append((arrival - bound) / bound)
        lowers.append(bound - arrival)
    worst_lower, least_gap = _worst(*lowers), _worst(*gaps, pick=min)
    detail = f"worst bound violation {worst_lower:.3e}, least violating gap {least_gap:.3e}"
    return _worst(*equalities), detail, worst_lower <= 1e-7 and least_gap > 1e-3


def _violating_passage(rng, n):
    """Generator violating the certificate plus a passage time whose
    speed-limit bound sits measurably below it."""

    def passage():
        h, phi = _violating_generator(rng, n, 0.2, 0.3, 0.3)
        w, _ = herm_eig(h)
        spread = float(w[-1] - w[0]) / 2.0
        best = None
        for frac in np.linspace(0.3, 1.2, 10):
            t_c = float(frac) / spread * HALF_PI
            psi = propagate(h, phi, t_c)
            if fs_distance(phi, psi) < 0.05:
                continue
            bound = qsl_time(phi, psi, h)
            gap = (t_c - bound) / bound
            if best is None or gap > best[3]:
                best = (h, phi, t_c, gap, bound)
        return best

    h, phi, t_c, _, bound = _draw(
        passage, lambda best: best is not None and best[3] > 5e-3, "violating passage", n
    )
    return h, phi, t_c, bound


@check("family-trajectory-match", "synthesis", 1e-9)
@_each_trial()
def check_family_trajectory_match(rng, n, k):
    """Family members share the canonical member's projector trajectory and
    its uncertainty."""
    phi, psi = _distinct_pair(rng, n)
    energy = float(rng.uniform(0.5, 2.0))
    core = optimal_hamiltonian(phi, psi, energy)
    member = optimal_family_sample(phi, psi, energy, int(rng.integers(2**32)))
    drift = abs(energy_uncertainty(member, phi) - energy_uncertainty(core, phi))
    span = fs_distance(phi, psi) / energy
    return _worst(drift, *(
        frobenius(
            projector(propagate(core, phi, t)).matrix
            - projector(propagate(member, phi, t)).matrix
        )
        for t in map(float, rng.uniform(0.0, span, size=6))
    ))


@check("phase-gauge-independence", "synthesis", 1e-12)
@_each_trial()
def check_phase_gauge_independence(rng, n, k):
    """Rephasing either input ray leaves the synthesized generator itself
    unchanged away from orthogonal pairs."""
    phi, psi = _draw(
        lambda: (random_pure_state(rng, n), random_pure_state(rng, n)),
        lambda pair: abs(pair[0].overlap(pair[1])) > 0.05 and fs_distance(*pair) > 0.05,
        "overlapping ray pair", n,
    )
    energy = float(rng.uniform(0.5, 2.0))
    base = optimal_hamiltonian(phi, psi, energy)
    phase_a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    phase_b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    moved = optimal_hamiltonian(
        PureState(phi.amplitudes * phase_a), PureState(psi.amplitudes * phase_b), energy
    )
    return frobenius(moved - base)


# ---------------------------------------------------------------------------
# evolution suite


@check("flow-property", "evolution", 1e-10)
@_each_trial()
def check_flow_property(rng, n, k):
    h = random_hermitian(rng, n)
    phi = random_pure_state(rng, n)
    s = float(rng.uniform(-5.0, 5.0))
    t = float(rng.uniform(-5.0, 5.0))
    two_step = propagate(h, propagate(h, phi, s), t)
    one_step = propagate(h, phi, s + t)
    rho = projector(phi)
    evolved = propagate_density(h, rho, t)
    before = np.sort(np.linalg.eigvalsh(rho.matrix))
    after = np.sort(np.linalg.eigvalsh(evolved.matrix))
    return _worst(
        float(np.linalg.norm(two_step.amplitudes - one_step.amplitudes)),
        float(np.max(np.abs(before - after))),
    )


@check("tangent-part-trajectories", "evolution", 1e-9)
@_each_trial(lo=3, least=3, most=6)
def check_tangent_part_trajectories(rng, n, k):
    """Certified directions and their tangent parts drive the base
    projector along one and the same curve."""
    blocks = BlockStructure((1, n - 1))
    x = random_equigeodesic(rng, n, with_isotropy=True)
    _, tan = reductive_split(x, blocks)
    p0 = np.zeros((n, n), dtype=complex)
    p0[0, 0] = 1.0
    residuals = []
    for t in map(float, rng.uniform(0.0, 10.0, size=10)):
        ua, ub = coset_orbit(x, t), coset_orbit(tan, t)
        residuals.append(frobenius(ua @ p0 @ ua.conj().T - ub @ p0 @ ub.conj().T))
    return _worst(*residuals)


def _uniform_window(h, energy, fraction=0.9):
    """Times from 0 until a ray at uncertainty ``energy`` has moved
    ``fraction`` of pi/2, 200 points per 1 / (half the spectral spread)."""
    w, _ = herm_eig(h)
    spread = float(w[-1] - w[0]) / 2.0
    span = fraction * HALF_PI / energy
    step = 1.0 / spread / 200
    count = max(3, int(np.floor(span / step)))
    return np.linspace(0.0, span, count + 1)


@check("speed-profile-flat", "evolution", 1e-6)
def check_speed_profile_flat(rng, trials, n_max):
    """Optimal generators traverse rays at the constant rate delta_e/hbar;
    doubling the generator doubles the profile; violating generators stay
    below their spectral rate."""
    residuals = [0.0]
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy)
        profile = fs_speed_profile(sample_trajectory(h, phi, times))
        doubled = fs_speed_profile(sample_trajectory(2.0 * h, phi, times / 2.0))
        residuals.append(float(np.max(np.abs(profile - energy))))
        residuals.append(float(np.max(np.abs(doubled - 2.0 * energy))))
    sub = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    w, _ = herm_eig(sub)
    spread = float(w[-1] - w[0]) / 2.0
    times = np.linspace(0.0, 0.5, 201)
    profile = fs_speed_profile(sample_trajectory(sub, PureState.basis_state(2, 0), times))
    ceiling = float(np.max(profile)) - spread
    detail = f"violating-generator profile stays {abs(ceiling):.3e} below its spectral rate"
    return _worst(*residuals), detail, ceiling <= 1e-6


@check("geodesic-defect-sign", "evolution", 1e-6)
def check_geodesic_defect_sign(rng, trials, n_max):
    """Zero defect on synthesized segments, positive on a kinked path.

    The residual is the defect of largest magnitude, with its sign, so
    drift toward the roundoff floor below zero shows before it fails.
    """
    defects = [0.0]
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy, fraction=0.8)
        traj = sample_trajectory(h, phi, times)
        defect = geodesic_defect(traj)
        if defect < -1e-10:
            raise _Fail("defect below the roundoff floor", residual=defect)
        defects.append(defect)
        if geodesic_defect(Trajectory(times[:1], traj.samples[:1])) != 0.0:
            raise _Fail("singleton trajectory must have zero defect")
    kink_defect = geodesic_defect(_kinked_trajectory())
    detail = f"kinked-path defect {kink_defect:.4f} must exceed 0.01"
    worst = _worst(*defects, pick=functools.partial(max, key=abs))
    return worst, detail, kink_defect > 0.01


def _kinked_trajectory():
    """Two geodesic legs of length 0.5 with a sharp turn between them."""
    phi = PureState.basis_state(3, 0)
    leg1 = optimal_hamiltonian(phi, PureState.basis_state(3, 1), 1.0)
    times1 = np.linspace(0.0, 0.5, 6)
    first = sample_trajectory(leg1, phi, times1)
    corner = PureState(first.samples[-1])
    leg2 = optimal_hamiltonian(corner, PureState.basis_state(3, 2), 1.0)
    times2 = np.linspace(0.0, 0.5, 6)
    second = sample_trajectory(leg2, corner, times2)
    times = np.concatenate([times1, 0.5 + times2[1:]])
    samples = np.concatenate([first.samples, second.samples[1:]])
    return Trajectory(times, samples)


@check("subspace-confinement", "evolution", 1e-10)
def check_subspace_confinement(rng, trials, n_max):
    """Synthesized evolutions never leave the endpoint plane; a generator
    coupling a third level does."""
    leakages = [0.0]
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy, fraction=0.8)
        leakages.append(subspace_leakage(sample_trajectory(h, phi, times), phi, psi))
    leaky = np.array([[0.0, 1.0, 0.7], [1.0, 0.0, 1.0], [0.7, 1.0, 0.5]], dtype=complex)
    phi3 = PureState.basis_state(3, 0)
    psi3 = PureState.basis_state(3, 1)
    times = np.linspace(0.0, 0.8, 41)
    leak = subspace_leakage(sample_trajectory(leaky, phi3, times), phi3, psi3)
    detail = f"third-level coupling leaks {leak:.4f}, must exceed 0.01"
    return _worst(*leakages), detail, leak > 0.01


@check("quasi-pure-reduction", "evolution", 1e-7)
@_each_trial(lo=3, least=3, most=6)
def check_quasi_pure_reduction(rng, n, k):
    """Quasi-pure transport reduces to the distinguished rays: the unitary
    carries the mixture exactly, and the density arrival time, a search on
    the distinguished rays, equals the pure arrival time and the Frobenius
    scan's (``evolution._density_scan``), which never reads the rays."""
    source_frame, target_frame = _draw(
        lambda: (random_unitary(rng, n), random_unitary(rng, n)),
        lambda pair: 0.15 <= fs_distance(*(PureState(u[:, 0]) for u in pair)) <= 1.45,
        "frame pair", n,
    )
    p1 = _draw(
        lambda: float(rng.uniform(0.01, 0.95)), lambda p: abs(p - 1.0 / n) >= 0.05,
        "distinguished weight", n,
    )
    p2 = (1.0 - p1) / (n - 1)
    source, target = (
        QuasiPureSpec(p1, p2, tuple(PureState(frame[:, j]) for j in range(n)))
        for frame in (source_frame, target_frame)
    )
    phi1 = source.distinguished
    psi1 = target.distinguished
    carrier = target_frame @ source_frame.conj().T
    if not quasi_pure_transport(source, target, carrier):
        raise _Fail("ray-matching unitary failed to carry the mixture")
    energy = float(rng.uniform(0.5, 2.0))
    h = optimal_hamiltonian(phi1, psi1, energy)
    horizon = 1.4 * fs_distance(phi1, psi1) / energy + 0.2
    pure_t = first_arrival_time(h, phi1, psi1, horizon)
    rho, sigma = quasi_pure(source), quasi_pure(target)
    density_t = density_arrival_time(h, rho, sigma, horizon)
    frobenius_t = _density_scan(h, rho, sigma, horizon)
    if pure_t is None or density_t is None or frobenius_t is None:
        raise _Fail("an arrival search came back empty")
    return _worst(abs(pure_t - density_t), abs(frobenius_t - density_t))


# ---------------------------------------------------------------------------
# interchange


@check("json-roundtrip", "interchange", 0.0)
@_each_trial()
def check_json_roundtrip(rng, n, k):
    """Encode-decode reproduces matrices and states bit for bit."""
    mant = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expo = 10.0 ** rng.integers(-200, 200, size=(n, n))
    m = mant * expo
    back, kind = matrix_from_json(matrix_to_json(m, "hermitian"))
    if kind != "hermitian" or back.tobytes() != m.astype(complex).tobytes():
        raise _Fail("matrix bytes changed in flight")
    phi = random_pure_state(rng, n)
    state_back, units_back = state_from_json(
        state_to_json(phi, Units(float(rng.uniform(0.5, 2.0))))
    )
    if units_back is None or state_back.amplitudes.tobytes() != phi.amplitudes.tobytes():
        raise _Fail("state bytes changed in flight")
    return 0.0


@check("negative-control", "control", 1e-9, count=lambda trials: 1)
def check_negative_control(rng, trials, n_max):
    """Deliberately corrupted case: claims a violating generator is
    optimal. Must fail, proving the harness can catch lies."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    phi = PureState.basis_state(2, 0)
    verdict = is_optimal_speed(h, phi)
    detail = "this check asserts a falsehood on purpose and must FAIL"
    return verdict.residual, detail, verdict.kind is Verdict.OPTIMAL


# ---------------------------------------------------------------------------
# registry: the table in declaration order; a check's index is its child seed

SUITES = {
    suite: [fn for s, fn in _TABLE if s == suite]
    for suite in ("algebra", "synthesis", "evolution", "interchange")
}
SUITES["all"] = [fn for s, fn in _TABLE if s != "control"]

SUITE_NAMES = tuple(SUITES)

_CHECK_IDS = {fn.__name__: i for i, (_, fn) in enumerate(_TABLE)}


def registry(suite: str) -> list:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return list(SUITES[suite])


def run_suite(
    suite: str,
    trials: int,
    seed: int,
    n_max: int = 8,
    negative_control: bool = False,
) -> list[PropertyResult]:
    """Run a suite deterministically. Each check gets an independent
    generator derived from the master seed and its own identity, so adding
    checks never disturbs the draws of existing ones."""
    if trials < 1:
        raise ValueError("need at least one trial")
    checks = registry(suite) + ([check_negative_control] if negative_control else [])
    return [
        fn(np.random.default_rng([seed, _CHECK_IDS[fn.__name__]]), trials, n_max)
        for fn in checks
    ]
