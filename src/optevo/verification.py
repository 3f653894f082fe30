"""Seeded property checks over the whole package.

Each check draws its own generator from the master seed, runs a stated
number of trials, and reports the worst residual it saw next to the bound
it enforces. The command-line ``verify`` subcommand runs these; the
acceptance tests call the same functions with pinned trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    Trajectory,
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
    MetricOperator,
    SuVector,
    ad_conjugate,
    apply_metric,
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
    DensityMatrix,
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


def _dims(rng: np.random.Generator, n_max: int, lo: int = 2) -> int:
    hi = max(lo, n_max)
    return int(rng.integers(lo, hi + 1))


def _distinct_pair(
    rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 1.47
) -> tuple[PureState, PureState]:
    """Random ray pair with distance inside [lo, hi], off both endpoints."""
    while True:
        phi = random_pure_state(rng, n)
        psi = random_pure_state(rng, n)
        if lo <= fs_distance(phi, psi) <= hi:
            return phi, psi


# ---------------------------------------------------------------------------
# algebra suite


def check_eig_reconstruction(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        w, v = herm_eig(h)
        scale = max(1.0, frobenius(h))
        rebuilt = (v * w) @ v.conj().T
        worst = max(worst, frobenius(rebuilt - h) / scale)
        worst = max(worst, float(np.linalg.norm(v.conj().T @ v - np.eye(n))))
        if not np.all(np.diff(w) >= 0.0):
            return PropertyResult(
                "eig-reconstruction", "algebra", False, np.inf, 1e-10, trials,
                "eigenvalues not ascending",
            )
    return PropertyResult(
        "eig-reconstruction", "algebra", worst <= 1e-10, worst, 1e-10, trials
    )


def check_exp_unitarity(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.01, 40.0)))
        t = float(rng.uniform(-1e3, 1e3))
        u = unitary_exp(h, t, hbar=float(rng.uniform(0.5, 2.0)))
        worst = max(worst, float(np.linalg.norm(u.conj().T @ u - np.eye(n))))
    return PropertyResult(
        "exp-unitarity", "algebra", worst <= 1e-10, worst, 1e-10, trials
    )


def check_exp_group_law(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n)
        s = float(rng.uniform(-10.0, 10.0))
        t = float(rng.uniform(-10.0, 10.0))
        lhs = unitary_exp(h, s) @ unitary_exp(h, t)
        worst = max(worst, frobenius(lhs - unitary_exp(h, s + t)))
    return PropertyResult(
        "exp-group-law", "algebra", worst <= 1e-9, worst, 1e-9, trials
    )


def check_killing_ad_invariance(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        x = random_su_vector(rng, n)
        y = random_su_vector(rng, n)
        u = random_unitary(rng, n)
        before = killing_inner(x, y)
        after = killing_inner(ad_conjugate(u, x), ad_conjugate(u, y))
        denom = 1.0 + killing_norm(x) * killing_norm(y)
        worst = max(worst, abs(after - before) / denom)
    return PropertyResult(
        "killing-ad-invariance", "algebra", worst <= 1e-8, worst, 1e-8, trials
    )


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


def check_split_exactness(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, max(3, n_max), lo=2)
        blocks = _random_blocks(rng, n)
        x = random_su_vector(rng, n)
        iso, tan = reductive_split(x, blocks)
        if not np.array_equal(iso.matrix + tan.matrix, x.matrix):
            return PropertyResult(
                "split-exactness", "algebra", False, np.inf, 1e-9, trials,
                "parts do not sum back exactly",
            )
        iso2, tan2 = reductive_split(tan, blocks)
        if not (np.array_equal(tan2.matrix, tan.matrix) and not np.any(iso2.matrix)):
            return PropertyResult(
                "split-exactness", "algebra", False, np.inf, 1e-9, trials,
                "projection is not idempotent",
            )
        worst = max(worst, abs(killing_inner(iso, tan)))
    return PropertyResult(
        "split-exactness", "algebra", worst <= 1e-9, worst, 1e-9, trials
    )


def check_bracket_closure(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        x = random_su_vector(rng, n)
        y = random_su_vector(rng, n)
        z = random_su_vector(rng, n)
        b = bracket(x, y)
        worst = max(worst, frobenius(b.matrix + b.matrix.conj().T))
        worst = max(worst, abs(complex(np.trace(b.matrix))))
        jacobi = (
            bracket(x, bracket(y, z)).matrix
            + bracket(y, bracket(z, x)).matrix
            + bracket(z, bracket(x, y)).matrix
        )
        worst = max(worst, float(np.linalg.norm(jacobi)) / max(1.0, killing_norm(x)))
    return PropertyResult(
        "bracket-closure", "algebra", worst <= 1e-9, worst, 1e-9, trials
    )


def check_criterion_equivalence(rng, trials, n_max):
    """Structural and variational certificates agree on (1, n-1).

    ``trials`` constructed-true plus ``trials`` generic directions, each
    judged by 16 random metrics. Reports the worst constructed-case
    variational residual; the detail line carries the smallest generic-case
    residual, which must clear 1e-3.
    """
    n_hi = min(6, n_max)
    worst_true = 0.0
    least_false = np.inf
    agreements = 0
    total = 0
    for k in range(trials):
        n = _dims(rng, n_hi)
        blocks = BlockStructure((1, n - 1))
        x = random_equigeodesic(rng, n, with_isotropy=bool(k % 2))
        structural = is_equigeodesic_structural(x, blocks)
        variational, residual = is_equigeodesic_variational(
            x, blocks, samples=16, rng_seed=int(rng.integers(2**32))
        )
        total += 1
        agreements += int(structural == variational)
        if not (structural and variational):
            return PropertyResult(
                "criterion-equivalence", "algebra", False, np.inf, 1e-9, trials,
                f"constructed direction rejected at trial {k}",
            )
        worst_true = max(worst_true, residual)
    for k in range(trials):
        n = _dims(rng, n_hi)
        blocks = BlockStructure((1, n - 1))
        x = random_su_vector(rng, n)
        structural = is_equigeodesic_structural(x, blocks)
        variational, residual = is_equigeodesic_variational(
            x, blocks, samples=16, rng_seed=int(rng.integers(2**32))
        )
        total += 1
        agreements += int(structural == variational)
        if structural or variational:
            return PropertyResult(
                "criterion-equivalence", "algebra", False, np.inf, 1e-9, trials,
                f"generic direction accepted at trial {k}",
            )
        least_false = min(least_false, residual)
    passed = agreements == total and worst_true <= 1e-9 and least_false > 1e-3
    return PropertyResult(
        "criterion-equivalence", "algebra", passed, worst_true, 1e-9, 2 * trials,
        f"agreement {agreements}/{total}, least generic residual {least_false:.3e}",
    )


def check_orbit_translation(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        x = random_su_vector(rng, n)
        u = random_unitary(rng, n)
        t = float(rng.uniform(0.0, 10.0))
        s = float(rng.uniform(0.0, 10.0))
        moved = ad_conjugate(u, x)
        worst = max(worst, frobenius(coset_orbit(moved, t) @ u - u @ coset_orbit(x, t)))
        group = coset_orbit(x, t) @ coset_orbit(x, s) - coset_orbit(x, t + s)
        worst = max(worst, frobenius(group))
    return PropertyResult(
        "orbit-translation", "algebra", worst <= 1e-9, worst, 1e-9, trials
    )


def check_isotropy_factorization(rng, trials, n_max):
    """exp(t X) exp(-t X_m) stays block-diagonal for certified directions."""
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, max(3, min(6, n_max)), lo=3)
        blocks = BlockStructure((1, n - 1))
        x = random_equigeodesic(rng, n, with_isotropy=True)
        _, tan = reductive_split(x, blocks)
        mask = blocks.diagonal_mask()
        for t in rng.uniform(0.0, 10.0, size=10):
            d = coset_orbit(x, float(t)) @ coset_orbit(tan, float(t)).conj().T
            worst = max(worst, float(np.linalg.norm(d[~mask])))
    return PropertyResult(
        "isotropy-factorization", "algebra", worst <= 1e-8, worst, 1e-8, trials
    )


# ---------------------------------------------------------------------------
# synthesis suite


def check_qubit_oracle(rng, trials, n_max):
    """Closed-form two-level case: |0> to |1> at unit uncertainty.

    The canonical generator is the antisymmetric Pauli matrix, the
    speed-limit time is pi/2, and the measured arrival matches it.
    """
    phi = PureState.basis_state(2, 0)
    psi = PureState.basis_state(2, 1)
    h = optimal_hamiltonian(phi, psi, 1.0)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    worst = frobenius(h - sigma_y)
    t_bound = qsl_time(phi, psi, h)
    worst = max(worst, abs(t_bound - HALF_PI))
    verdict = is_optimal_speed(h, phi)
    worst = max(worst, abs(verdict.delta_e - 1.0), abs(verdict.delta_e_max - 1.0))
    ok = verdict.kind is Verdict.OPTIMAL and worst <= 1e-12
    arrival = first_arrival_time(h, phi, psi, horizon=10.0)
    arrival_err = np.inf if arrival is None else abs(arrival - HALF_PI)
    ok = ok and arrival_err <= 1e-7
    return PropertyResult(
        "qubit-oracle", "synthesis", ok, worst, 1e-12, 1,
        f"arrival error {arrival_err:.3e} against 1e-7",
    )


def check_fs_metric_axioms(rng, trials, n_max):
    """Metric axioms on rays. Self-distance is held to 1e-14: the distance
    takes its sine from the vectors, not from an overlap modulus near 1,
    so a ray is a few eps from itself. The remaining axioms are sharp to
    1e-10."""
    worst = 0.0
    worst_self = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        a = random_pure_state(rng, n)
        b = random_pure_state(rng, n)
        c = random_pure_state(rng, n)
        dab = fs_distance(a, b)
        if not (0.0 <= dab <= HALF_PI) or dab != fs_distance(b, a):
            return PropertyResult(
                "fs-metric-axioms", "synthesis", False, np.inf, 1e-10, trials,
                "range or symmetry broken",
            )
        worst_self = max(worst_self, fs_distance(a, a))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = PureState(a.amplitudes * phase)
        worst = max(worst, abs(fs_distance(rotated, b) - dab))
        violation = fs_distance(a, c) - (dab + fs_distance(b, c))
        worst = max(worst, violation)
    passed = worst <= 1e-10 and worst_self <= 1e-14
    return PropertyResult(
        "fs-metric-axioms", "synthesis", passed, worst, 1e-10, trials,
        f"self-distance floor {worst_self:.3e} against 1e-14",
    )


def check_fs_unitary_invariance(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        a = random_pure_state(rng, n)
        b = random_pure_state(rng, n)
        u = random_unitary(rng, n)
        ua = PureState.from_vector(u @ a.amplitudes)
        ub = PureState.from_vector(u @ b.amplitudes)
        worst = max(worst, abs(fs_distance(ua, ub) - fs_distance(a, b)))
    return PropertyResult(
        "fs-unitary-invariance", "synthesis", worst <= 1e-10, worst, 1e-10, trials
    )


def check_variance_bound_and_witness(rng, trials, n_max):
    """No state beats half the spectral spread, the witness attains it, and
    the balanced two-point mixture of extreme eigenvectors gives the same
    number."""
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        value, witness = energy_uncertainty_max(h)
        phi = random_pure_state(rng, n)
        worst = max(worst, energy_uncertainty(h, phi) - value)
        worst = max(worst, abs(energy_uncertainty(h, witness) - value))
        w, v = herm_eig(h)
        mix = 0.5 * (
            np.outer(v[:, 0], v[:, 0].conj()) + np.outer(v[:, -1], v[:, -1].conj())
        )
        mean = float(np.trace(mix @ h).real)
        var = float(np.trace(mix @ h @ h).real) - mean * mean
        worst = max(worst, abs(float(np.sqrt(max(var, 0.0))) - value))
    return PropertyResult(
        "variance-bound-witness", "synthesis", worst <= 1e-10, worst, 1e-10, trials
    )


def check_uncertainty_conservation(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n)
        phi = random_pure_state(rng, n)
        base = energy_uncertainty(h, phi)
        for t in rng.uniform(0.0, 10.0, size=4):
            moved = propagate(h, phi, float(t))
            worst = max(worst, abs(energy_uncertainty(h, moved) - base))
    return PropertyResult(
        "uncertainty-conservation", "synthesis", worst <= 1e-10, worst, 1e-10, trials
    )


def check_blocks_reassembly(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        phi = random_pure_state(rng, n)
        blocks = adapted_blocks(h, phi)
        worst = max(worst, frobenius(blocks.reassemble() - h) / max(1.0, frobenius(h)))
        delta = abs(float(np.linalg.norm(blocks.coupling)) - energy_uncertainty(h, phi))
        worst = max(worst, delta)
    return PropertyResult(
        "blocks-reassembly", "synthesis", worst <= 1e-10, worst, 1e-10, trials
    )


def _synth_pair(rng, n, energy, family: bool):
    phi, psi = _distinct_pair(rng, n)
    if family:
        h = optimal_family_sample(phi, psi, energy, int(rng.integers(2**32)))
    else:
        h = optimal_hamiltonian(phi, psi, energy)
    return phi, psi, h


def check_synthesis_roundtrip(rng, trials, n_max):
    """Synthesized generators are verdict-optimal, their algebra vectors
    pass the structural certificate, and the target is reached at the
    speed-limit time."""
    worst = 0.0
    units = Units()
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        verdict = is_optimal_speed(h, phi)
        if verdict.kind is not Verdict.OPTIMAL:
            return PropertyResult(
                "synthesis-roundtrip", "synthesis", False, np.inf, 1e-9, trials,
                f"verdict {verdict.kind.value} at trial {k}",
            )
        vector, base = equigeodesic_vector_of(h, phi)
        centered = ad_conjugate(base.conj().T, vector)
        if not is_equigeodesic_structural(centered, BlockStructure((1, n - 1))):
            return PropertyResult(
                "synthesis-roundtrip", "synthesis", False, np.inf, 1e-9, trials,
                f"structural certificate failed at trial {k}",
            )
        horizon = units.hbar * fs_distance(phi, psi) / energy
        arrived = propagate(h, phi, horizon, units)
        worst = max(worst, 1.0 - fidelity(arrived, psi))
    return PropertyResult(
        "synthesis-roundtrip", "synthesis", worst <= 1e-9, worst, 1e-9, trials
    )


def check_saturation_equivalence(rng, trials, n_max):
    """Optimal verdicts coincide exactly with uncertainty saturation."""
    worst = 0.0
    for k in range(trials):
        n = _dims(rng, n_max)
        if k % 2 == 0:
            energy = float(rng.uniform(0.5, 2.0))
            phi, _, h = _synth_pair(rng, n, energy, family=bool(k % 4 == 2))
        else:
            h = random_hermitian(rng, n)
            phi = random_pure_state(rng, n)
        verdict = is_optimal_speed(h, phi)
        saturated = abs(verdict.delta_e - verdict.delta_e_max) <= 1e-8 * max(
            1.0, verdict.delta_e_max
        )
        if (verdict.kind is Verdict.OPTIMAL) != saturated:
            return PropertyResult(
                "saturation-equivalence", "synthesis", False, np.inf, 1e-8, trials,
                f"verdict and saturation disagree at trial {k}",
            )
        if verdict.kind is Verdict.OPTIMAL:
            worst = max(worst, abs(verdict.delta_e - verdict.delta_e_max))
    return PropertyResult(
        "saturation-equivalence", "synthesis", True, worst, 1e-8, trials
    )


def check_strict_gap_when_violated(rng, trials, n_max):
    """Violating both certificate clauses forces a strict uncertainty gap."""
    least = np.inf
    for _ in range(trials):
        n = _dims(rng, max(2, n_max))
        while True:
            h = random_hermitian(rng, n)
            phi = random_pure_state(rng, n)
            blocks = adapted_blocks(h, phi)
            coupling_norm = float(np.linalg.norm(blocks.coupling))
            defect = float(
                np.linalg.norm(
                    blocks.complement @ blocks.coupling
                    - blocks.mean_energy * blocks.coupling
                )
            )
            comp_norm = float(np.linalg.norm(blocks.complement))
            if (
                coupling_norm > 1e-6
                and comp_norm > 0.1
                and defect / max(1.0, comp_norm * coupling_norm) > 0.1
            ):
                break
        verdict = is_optimal_speed(h, phi)
        least = min(least, verdict.delta_e_max - verdict.delta_e)
    return PropertyResult(
        "strict-gap-when-violated", "synthesis", least > 1e-12, least, 1e-12, trials,
        "reported value is the smallest gap seen; it must exceed the bound",
    )


def check_qsl_arrival_consistency(rng, trials, n_max):
    """Measured arrivals never beat the speed limit, match it exactly for
    optimal generators, and exceed it measurably for violating ones."""
    units = Units()
    worst_lower = -np.inf
    worst_eq = 0.0
    least_gap = np.inf
    for k in range(trials):
        n = _dims(rng, n_max)
        mode = k % 3
        if mode == 0:
            energy = float(rng.uniform(0.5, 2.0))
            phi, target, h = _synth_pair(rng, n, energy, family=bool(k % 2))
            t_star = float(rng.uniform(0.15, 0.95)) * HALF_PI * units.hbar / energy
            psi = propagate(h, phi, t_star, units)
            bound = qsl_time(phi, psi, h, units)
            arrival = first_arrival_time(h, phi, psi, 1.3 * t_star + 0.2, units)
            if arrival is None:
                return PropertyResult(
                    "qsl-arrival-consistency", "synthesis", False, np.inf, 1e-6,
                    trials, f"optimal arrival missing at trial {k}",
                )
            worst_lower = max(worst_lower, bound - arrival)
            worst_eq = max(worst_eq, abs(arrival - bound))
        elif mode == 1:
            h = random_hermitian(rng, n)
            phi = random_pure_state(rng, n)
            if is_optimal_speed(h, phi).kind is Verdict.STATIONARY:
                continue
            w, _ = herm_eig(h)
            spread = float(w[-1] - w[0]) / 2.0
            t_star = float(rng.uniform(0.2, 2.0)) * units.hbar / spread
            psi = propagate(h, phi, t_star, units)
            bound = qsl_time(phi, psi, h, units)
            arrival = first_arrival_time(h, phi, psi, 1.2 * t_star + 0.1, units)
            if arrival is None:
                return PropertyResult(
                    "qsl-arrival-consistency", "synthesis", False, np.inf, 1e-6,
                    trials, f"generic arrival missing at trial {k}",
                )
            worst_lower = max(worst_lower, bound - arrival)
        else:
            h, phi, t_star, bound = _violating_passage(rng, n, units)
            psi = propagate(h, phi, t_star, units)
            arrival = first_arrival_time(h, phi, psi, 1.1 * t_star, units)
            if arrival is None:
                return PropertyResult(
                    "qsl-arrival-consistency", "synthesis", False, np.inf, 1e-6,
                    trials, f"violating arrival missing at trial {k}",
                )
            worst_lower = max(worst_lower, bound - arrival)
            least_gap = min(least_gap, (arrival - bound) / bound)
    passed = worst_lower <= 1e-7 and worst_eq <= 1e-6 and least_gap > 1e-3
    return PropertyResult(
        "qsl-arrival-consistency", "synthesis", passed, worst_eq, 1e-6, trials,
        f"worst bound violation {worst_lower:.3e}, least violating gap {least_gap:.3e}",
    )


def _violating_passage(rng, n, units):
    """Generator violating the certificate plus a passage time whose
    speed-limit bound sits measurably below it."""
    while True:
        h = random_hermitian(rng, n)
        phi = random_pure_state(rng, n)
        blocks = adapted_blocks(h, phi)
        coupling_norm = float(np.linalg.norm(blocks.coupling))
        defect = float(
            np.linalg.norm(
                blocks.complement @ blocks.coupling
                - blocks.mean_energy * blocks.coupling
            )
        )
        comp_norm = float(np.linalg.norm(blocks.complement))
        if not (
            coupling_norm > 0.2
            and comp_norm > 0.3
            and defect / max(1.0, comp_norm * coupling_norm) > 0.3
        ):
            continue
        w, _ = herm_eig(h)
        spread = float(w[-1] - w[0]) / 2.0
        best = None
        for frac in np.linspace(0.3, 1.2, 10):
            t_c = float(frac) * units.hbar / spread * HALF_PI
            psi = propagate(h, phi, t_c, units)
            if fs_distance(phi, psi) < 0.05:
                continue
            bound = qsl_time(phi, psi, h, units)
            gap = (t_c - bound) / bound
            if best is None or gap > best[3]:
                best = (h, phi, t_c, gap, bound)
        if best is not None and best[3] > 5e-3:
            return best[0], best[1], best[2], best[4]


def check_family_trajectory_match(rng, trials, n_max):
    """Family members share the canonical member's projector trajectory and
    its uncertainty."""
    worst = 0.0
    units = Units()
    for _ in range(trials):
        n = _dims(rng, n_max)
        phi, psi = _distinct_pair(rng, n)
        energy = float(rng.uniform(0.5, 2.0))
        core = optimal_hamiltonian(phi, psi, energy)
        member = optimal_family_sample(phi, psi, energy, int(rng.integers(2**32)))
        worst = max(
            worst,
            abs(energy_uncertainty(member, phi) - energy_uncertainty(core, phi)),
        )
        span = units.hbar * fs_distance(phi, psi) / energy
        for t in rng.uniform(0.0, span, size=6):
            a = propagate(core, phi, float(t), units)
            b = propagate(member, phi, float(t), units)
            diff = projector(a).matrix - projector(b).matrix
            worst = max(worst, frobenius(diff))
    return PropertyResult(
        "family-trajectory-match", "synthesis", worst <= 1e-9, worst, 1e-9, trials
    )


def check_phase_gauge_independence(rng, trials, n_max):
    """Rephasing either input ray leaves the synthesized generator itself
    unchanged away from orthogonal pairs."""
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        while True:
            phi = random_pure_state(rng, n)
            psi = random_pure_state(rng, n)
            if abs(phi.overlap(psi)) > 0.05 and fs_distance(phi, psi) > 0.05:
                break
        energy = float(rng.uniform(0.5, 2.0))
        base = optimal_hamiltonian(phi, psi, energy)
        phase_a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        phase_b = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        moved = optimal_hamiltonian(
            PureState(phi.amplitudes * phase_a),
            PureState(psi.amplitudes * phase_b),
            energy,
        )
        worst = max(worst, frobenius(moved - base))
    return PropertyResult(
        "phase-gauge-independence", "synthesis", worst <= 1e-12, worst, 1e-12, trials
    )


# ---------------------------------------------------------------------------
# evolution suite


def check_flow_property(rng, trials, n_max):
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, n_max)
        h = random_hermitian(rng, n)
        phi = random_pure_state(rng, n)
        s = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(-5.0, 5.0))
        two_step = propagate(h, propagate(h, phi, s), t)
        one_step = propagate(h, phi, s + t)
        worst = max(
            worst,
            float(np.linalg.norm(two_step.amplitudes - one_step.amplitudes)),
        )
        rho = projector(phi)
        evolved = propagate_density(h, rho, t)
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(evolved.matrix))
        worst = max(worst, float(np.max(np.abs(before - after))))
    return PropertyResult(
        "flow-property", "evolution", worst <= 1e-10, worst, 1e-10, trials
    )


def check_tangent_part_trajectories(rng, trials, n_max):
    """Certified directions and their tangent parts drive the base
    projector along one and the same curve."""
    worst = 0.0
    for _ in range(trials):
        n = _dims(rng, max(3, min(6, n_max)), lo=3)
        blocks = BlockStructure((1, n - 1))
        x = random_equigeodesic(rng, n, with_isotropy=True)
        _, tan = reductive_split(x, blocks)
        p0 = np.zeros((n, n), dtype=complex)
        p0[0, 0] = 1.0
        for t in rng.uniform(0.0, 10.0, size=10):
            ua = coset_orbit(x, float(t))
            ub = coset_orbit(tan, float(t))
            diff = ua @ p0 @ ua.conj().T - ub @ p0 @ ub.conj().T
            worst = max(worst, frobenius(diff))
    return PropertyResult(
        "tangent-part-trajectories", "evolution", worst <= 1e-9, worst, 1e-9, trials
    )


def _uniform_window(h, energy, units, fraction=0.9, points_per_unit=200):
    w, _ = herm_eig(h)
    spread = float(w[-1] - w[0]) / 2.0
    span = fraction * HALF_PI * units.hbar / energy
    step = (units.hbar / spread) / points_per_unit
    count = max(3, int(np.floor(span / step)))
    return np.linspace(0.0, span, count + 1)


def check_speed_profile_flat(rng, trials, n_max):
    """Optimal generators traverse rays at the constant rate delta_e/hbar;
    doubling the generator doubles the profile; violating generators stay
    below their spectral rate."""
    units = Units()
    worst = 0.0
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy, units)
        traj = sample_trajectory(h, phi, times, units)
        profile = fs_speed_profile(traj)
        worst = max(worst, float(np.max(np.abs(profile - energy / units.hbar))))
        doubled = sample_trajectory(2.0 * h, phi, times / 2.0, units)
        profile2 = fs_speed_profile(doubled)
        worst = max(worst, float(np.max(np.abs(profile2 - 2.0 * energy / units.hbar))))
    sub = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    phi2 = PureState.basis_state(2, 0)
    w, _ = herm_eig(sub)
    spread = float(w[-1] - w[0]) / 2.0
    times = np.linspace(0.0, 0.5, 201)
    profile = fs_speed_profile(sample_trajectory(sub, phi2, times, units))
    ceiling = float(np.max(profile)) - spread / units.hbar
    passed = worst <= 1e-6 and ceiling <= 1e-6
    return PropertyResult(
        "speed-profile-flat", "evolution", passed, worst, 1e-6, trials,
        f"violating-generator profile stays {abs(ceiling):.3e} below its spectral rate",
    )


def check_geodesic_defect_sign(rng, trials, n_max):
    """Zero defect on synthesized segments, positive on a kinked path.

    The residual is the defect of largest magnitude, with its sign, so
    drift toward the roundoff floor below zero shows before it fails.
    """
    units = Units()
    worst = 0.0
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy, units, fraction=0.8)
        traj = sample_trajectory(h, phi, times, units)
        defect = geodesic_defect(traj)
        if defect < -1e-10:
            return PropertyResult(
                "geodesic-defect-sign", "evolution", False, defect, 1e-6, trials,
                "defect below the roundoff floor",
            )
        if abs(defect) > abs(worst):
            worst = defect
        single = Trajectory(times[:1], traj.samples[:1], None, units)
        if geodesic_defect(single) != 0.0:
            return PropertyResult(
                "geodesic-defect-sign", "evolution", False, np.inf, 1e-6, trials,
                "singleton trajectory must have zero defect",
            )
    kinked = _kinked_trajectory(units)
    kink_defect = geodesic_defect(kinked)
    passed = worst <= 1e-6 and kink_defect > 0.01
    return PropertyResult(
        "geodesic-defect-sign", "evolution", passed, worst, 1e-6, trials,
        f"kinked-path defect {kink_defect:.4f} must exceed 0.01",
    )


def _kinked_trajectory(units):
    """Two geodesic legs of length 0.5 with a sharp turn between them."""
    phi = PureState.basis_state(3, 0)
    leg1 = optimal_hamiltonian(phi, PureState.basis_state(3, 1), 1.0)
    times1 = np.linspace(0.0, 0.5, 6)
    first = sample_trajectory(leg1, phi, times1, units)
    corner = PureState(first.samples[-1])
    leg2 = optimal_hamiltonian(corner, PureState.basis_state(3, 2), 1.0)
    times2 = np.linspace(0.0, 0.5, 6)
    second = sample_trajectory(leg2, corner, times2, units)
    times = np.concatenate([times1, 0.5 + times2[1:]])
    samples = np.concatenate([first.samples, second.samples[1:]])
    return Trajectory(times, samples, None, units)


def check_subspace_confinement(rng, trials, n_max):
    """Synthesized evolutions never leave the endpoint plane; a generator
    coupling a third level does."""
    units = Units()
    worst = 0.0
    for k in range(trials):
        n = _dims(rng, n_max)
        energy = float(rng.uniform(0.5, 2.0))
        phi, psi, h = _synth_pair(rng, n, energy, family=bool(k % 2))
        times = _uniform_window(h, energy, units, fraction=0.8)
        traj = sample_trajectory(h, phi, times, units)
        worst = max(worst, subspace_leakage(traj, phi, psi))
    leaky = np.array(
        [[0.0, 1.0, 0.7], [1.0, 0.0, 1.0], [0.7, 1.0, 0.5]], dtype=complex
    )
    phi3 = PureState.basis_state(3, 0)
    psi3 = PureState.basis_state(3, 1)
    times = np.linspace(0.0, 0.8, 41)
    leak = subspace_leakage(sample_trajectory(leaky, phi3, times, units), phi3, psi3)
    passed = worst <= 1e-10 and leak > 0.01
    return PropertyResult(
        "subspace-confinement", "evolution", passed, worst, 1e-10, trials,
        f"third-level coupling leaks {leak:.4f}, must exceed 0.01",
    )


def check_quasi_pure_reduction(rng, trials, n_max):
    """Quasi-pure transport reduces to the distinguished rays: the unitary
    carries the mixture exactly, and the density arrival time equals the
    pure arrival time."""
    units = Units()
    worst_time = 0.0
    for _ in range(trials):
        n = _dims(rng, min(6, max(3, n_max)), lo=3)
        while True:
            source_frame = random_unitary(rng, n)
            target_frame = random_unitary(rng, n)
            gap = fs_distance(
                PureState(source_frame[:, 0]), PureState(target_frame[:, 0])
            )
            if 0.15 <= gap <= 1.45:
                break
        while True:
            p1 = float(rng.uniform(0.01, 0.95))
            if abs(p1 - 1.0 / n) >= 0.05:
                break
        p2 = (1.0 - p1) / (n - 1)
        source = QuasiPureSpec(
            p1, p2, tuple(PureState(source_frame[:, j]) for j in range(n))
        )
        target = QuasiPureSpec(
            p1, p2, tuple(PureState(target_frame[:, j]) for j in range(n))
        )
        phi1 = source.distinguished
        psi1 = target.distinguished
        carrier = target_frame @ source_frame.conj().T
        if not quasi_pure_transport(source, target, carrier):
            return PropertyResult(
                "quasi-pure-reduction", "evolution", False, np.inf, 1e-7, trials,
                "ray-matching unitary failed to carry the mixture",
            )
        energy = float(rng.uniform(0.5, 2.0))
        h = optimal_hamiltonian(phi1, psi1, energy)
        horizon = 1.4 * units.hbar * fs_distance(phi1, psi1) / energy + 0.2
        pure_t = first_arrival_time(h, phi1, psi1, horizon, units)
        density_t = density_arrival_time(
            h, quasi_pure(source), quasi_pure(target), horizon, units
        )
        if pure_t is None or density_t is None:
            return PropertyResult(
                "quasi-pure-reduction", "evolution", False, np.inf, 1e-7, trials,
                "an arrival search came back empty",
            )
        worst_time = max(worst_time, abs(pure_t - density_t))
    return PropertyResult(
        "quasi-pure-reduction", "evolution", worst_time <= 1e-7, worst_time, 1e-7,
        trials,
    )


# ---------------------------------------------------------------------------
# interchange


def check_json_roundtrip(rng, trials, n_max):
    """Encode-decode reproduces matrices and states bit for bit."""
    for _ in range(trials):
        n = _dims(rng, n_max)
        mant = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expo = 10.0 ** rng.integers(-200, 200, size=(n, n))
        m = mant * expo
        doc = matrix_to_json(m, "hermitian")
        back, kind = matrix_from_json(doc)
        if kind != "hermitian" or back.tobytes() != m.astype(complex).tobytes():
            return PropertyResult(
                "json-roundtrip", "interchange", False, np.inf, 0.0, trials,
                "matrix bytes changed in flight",
            )
        phi = random_pure_state(rng, n)
        state_doc = state_to_json(phi, Units(float(rng.uniform(0.5, 2.0))))
        state_back, units_back = state_from_json(state_doc)
        if (
            units_back is None
            or state_back.amplitudes.tobytes() != phi.amplitudes.tobytes()
        ):
            return PropertyResult(
                "json-roundtrip", "interchange", False, np.inf, 0.0, trials,
                "state bytes changed in flight",
            )
    return PropertyResult("json-roundtrip", "interchange", True, 0.0, 0.0, trials)


def check_negative_control(rng, trials, n_max):
    """Deliberately corrupted case: claims a violating generator is
    optimal. Must fail, proving the harness can catch lies."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    phi = PureState.basis_state(2, 0)
    verdict = is_optimal_speed(h, phi)
    passed = verdict.kind is Verdict.OPTIMAL
    return PropertyResult(
        "negative-control", "control", passed, verdict.residual, 1e-9, 1,
        "this check asserts a falsehood on purpose and must FAIL",
    )


# ---------------------------------------------------------------------------
# registry

_ALGEBRA = [
    check_eig_reconstruction,
    check_exp_unitarity,
    check_exp_group_law,
    check_killing_ad_invariance,
    check_split_exactness,
    check_bracket_closure,
    check_criterion_equivalence,
    check_orbit_translation,
    check_isotropy_factorization,
]

_SYNTHESIS = [
    check_qubit_oracle,
    check_fs_metric_axioms,
    check_fs_unitary_invariance,
    check_variance_bound_and_witness,
    check_uncertainty_conservation,
    check_blocks_reassembly,
    check_synthesis_roundtrip,
    check_saturation_equivalence,
    check_strict_gap_when_violated,
    check_qsl_arrival_consistency,
    check_family_trajectory_match,
    check_phase_gauge_independence,
]

_EVOLUTION = [
    check_flow_property,
    check_tangent_part_trajectories,
    check_speed_profile_flat,
    check_geodesic_defect_sign,
    check_subspace_confinement,
    check_quasi_pure_reduction,
]

_INTERCHANGE = [check_json_roundtrip]

SUITES = {
    "algebra": _ALGEBRA,
    "synthesis": _SYNTHESIS,
    "evolution": _EVOLUTION,
    "all": _ALGEBRA + _SYNTHESIS + _EVOLUTION + _INTERCHANGE,
}

SUITE_NAMES = tuple(SUITES)

_ALL_CHECKS = SUITES["all"] + [check_negative_control]
_CHECK_IDS = {fn.__name__: i for i, fn in enumerate(_ALL_CHECKS)}


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
    checks = registry(suite)
    if negative_control:
        checks = checks + [check_negative_control]
    results = []
    for fn in checks:
        rng = np.random.default_rng([seed, _CHECK_IDS[fn.__name__]])
        results.append(fn(rng, trials, n_max))
    return results
