"""Acceptance gate: nine numbered criteria, one test and one printed
pass/fail line each.

Each criterion runs with its own deterministic seed, its stated trial
count, and its stated tolerances. Several criteria delegate to the seeded
property checks from :mod:`optevo.verification`, which implement exactly
the required measurement; the assertions here re-state the bounds so a
regression in either layer fails loudly.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from optevo import (
    BlockStructure,
    PureState,
    Verdict,
    ad_conjugate,
    coset_orbit,
    energy_uncertainty,
    energy_uncertainty_max,
    equigeodesic_vector_of,
    fidelity,
    first_arrival_time,
    frobenius,
    fs_distance,
    herm_eig,
    is_equigeodesic_structural,
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    propagate,
    qsl_time,
    reductive_split,
)
from optevo.sampling import (
    random_equigeodesic,
    random_hermitian,
    random_pure_state,
)
from optevo.verification import (
    check_criterion_equivalence,
    check_geodesic_defect_sign,
    check_qsl_arrival_consistency,
    check_quasi_pure_reduction,
    check_speed_profile_flat,
    check_subspace_confinement,
)
from conftest import child_env


def announce(number, passed, text):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {text}")
    assert passed, f"criterion {number} failed: {text}"


def distinct_pair(rng, n):
    phi = random_pure_state(rng, n)
    while True:
        psi = random_pure_state(rng, n)
        if 0.1 < fs_distance(phi, psi) < 1.47:
            return phi, psi


def test_criterion_1_qubit_brachistochrone_oracle():
    start = time.perf_counter()
    ket0 = PureState.basis_state(2, 0)
    ket1 = PureState.basis_state(2, 1)
    h = optimal_hamiltonian(ket0, ket1, 1.0)

    arrival = first_arrival_time(h, ket0, ket1, 10.0)
    bound = qsl_time(ket0, ket1, h)
    verdict = is_optimal_speed(h, ket0)
    elapsed = time.perf_counter() - start

    ok = (
        arrival is not None
        and abs(arrival - np.pi / 2.0) <= 1e-7
        and abs(bound - np.pi / 2.0) <= 1e-12
        and abs(verdict.delta_e - 1.0) <= 1e-12
        and abs(verdict.delta_e_max - 1.0) <= 1e-12
        and elapsed < 1.0
    )
    announce(
        1, ok,
        f"arrival {arrival!r}, limit {bound!r}, uncertainties "
        f"({verdict.delta_e}, {verdict.delta_e_max}), {elapsed:.2f}s",
    )


def test_criterion_2_characterization_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng([42, 2])
    trials = 200
    worst_fidelity_gap = 0.0
    for k in range(trials):
        n = int(rng.integers(2, 9))
        phi, psi = distinct_pair(rng, n)
        energy = float(rng.uniform(0.5, 2.0))
        if k % 2 == 0:
            h = optimal_hamiltonian(phi, psi, energy)
        else:
            h = optimal_family_sample(phi, psi, energy, rng_seed=int(rng.integers(2**32)))

        assert is_optimal_speed(h, phi).kind is Verdict.OPTIMAL, f"trial {k}"

        x, base = equigeodesic_vector_of(h, phi)
        pulled_back = ad_conjugate(base.conj().T, x)
        assert is_equigeodesic_structural(
            pulled_back, BlockStructure((1, n - 1))
        ), f"trial {k}"

        travel = qsl_time(phi, psi, h)
        arrived = propagate(h, phi, travel)
        worst_fidelity_gap = max(worst_fidelity_gap, 1.0 - fidelity(arrived, psi))
    elapsed = time.perf_counter() - start
    ok = worst_fidelity_gap <= 1e-9 and elapsed < 30.0
    announce(
        2, ok,
        f"{trials} trials, worst arrival infidelity {worst_fidelity_gap:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_certificate_equivalence():
    result = check_criterion_equivalence(np.random.default_rng([42, 3]), 200, 6)
    ok = result.passed and result.trials == 400 and result.max_residual < 1e-9
    announce(
        3, ok,
        f"constructed residual {result.max_residual:.3e}; {result.detail}",
    )


def test_criterion_4_isotropy_factorization():
    rng = np.random.default_rng([42, 4])
    worst_projector = 0.0
    worst_offdiag = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 7))
        blocks = BlockStructure((1, n - 1))
        while True:
            x = random_equigeodesic(rng, n, with_isotropy=True)
            if np.linalg.norm(x.matrix[1:, 1:]) > 1e-6:
                break
        assert is_equigeodesic_structural(x, blocks)
        _, tangent = reductive_split(x, blocks)
        p0 = np.zeros((n, n), dtype=complex)
        p0[0, 0] = 1.0
        mask = blocks.diagonal_mask()
        for t in rng.uniform(0.0, 10.0, size=100):
            ua = coset_orbit(x, float(t))
            ub = coset_orbit(tangent, float(t))
            diff = ua @ p0 @ ua.conj().T - ub @ p0 @ ub.conj().T
            worst_projector = max(worst_projector, frobenius(diff))
            residue = ua @ ub.conj().T
            worst_offdiag = max(
                worst_offdiag, float(np.linalg.norm(residue[~mask]))
            )
    ok = worst_projector <= 1e-9 and worst_offdiag <= 1e-8
    announce(
        4, ok,
        f"50 directions x 100 times: projector gap {worst_projector:.3e}, "
        f"off-diagonal mass {worst_offdiag:.3e}",
    )


def test_criterion_5_strict_gap_and_spread_witnesses():
    rng = np.random.default_rng([42, 5])
    least_gap = np.inf
    worst_witness = 0.0
    worst_mixture = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        while True:
            h = random_hermitian(rng, n)
            phi = random_pure_state(rng, n)
            verdict = is_optimal_speed(h, phi)
            if verdict.kind is Verdict.SUBOPTIMAL and verdict.residual > 0.1:
                break
        least_gap = min(least_gap, verdict.delta_e_max - verdict.delta_e)

        value, witness = energy_uncertainty_max(h)
        worst_witness = max(
            worst_witness, abs(energy_uncertainty(h, witness) - value)
        )
        w, v = herm_eig(h)
        mix = 0.5 * (
            np.outer(v[:, 0], v[:, 0].conj()) + np.outer(v[:, -1], v[:, -1].conj())
        )
        mean = float(np.trace(mix @ h).real)
        var = float(np.trace(mix @ h @ h).real) - mean * mean
        worst_mixture = max(
            worst_mixture, abs(float(np.sqrt(max(var, 0.0))) - value)
        )
    ok = least_gap > 1e-12 and worst_witness <= 1e-10 and worst_mixture <= 1e-10
    announce(
        5, ok,
        f"200 violating draws: least gap {least_gap:.3e}, witness defect "
        f"{worst_witness:.3e}, mixture defect {worst_mixture:.3e}",
    )


def test_criterion_6_speed_limit_equality_characterization():
    result = check_qsl_arrival_consistency(np.random.default_rng([42, 6]), 200, 8)
    ok = result.passed and result.trials == 200
    announce(6, ok, f"worst optimal equality gap {result.max_residual:.3e}; {result.detail}")


def test_criterion_7_trajectory_geometry():
    flat = check_speed_profile_flat(np.random.default_rng([42, 71]), 40, 8)
    defect = check_geodesic_defect_sign(np.random.default_rng([42, 72]), 40, 8)
    leak = check_subspace_confinement(np.random.default_rng([42, 73]), 40, 8)
    ok = (
        flat.passed and flat.bound == 1e-6
        and defect.passed
        and leak.passed and leak.bound == 1e-10
    )
    announce(
        7, ok,
        f"profile residual {flat.max_residual:.3e}, defect residual "
        f"{defect.max_residual:.3e}, leakage {leak.max_residual:.3e}",
    )


def test_criterion_8_quasi_pure_reduction():
    result = check_quasi_pure_reduction(np.random.default_rng([42, 8]), 50, 6)
    ok = result.passed and result.trials == 50 and result.bound == 1e-7
    announce(8, ok, f"50 trials, worst arrival-time gap {result.max_residual:.3e}")


def test_criterion_9_full_verification_suite():
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "optevo.cli", "verify",
            "--suite", "all", "--trials", "100", "--seed", "42",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    elapsed = time.perf_counter() - start
    ok = proc.returncode == 0 and elapsed < 60.0
    announce(
        9, ok,
        f"exit {proc.returncode} in {elapsed:.1f}s"
        + ("" if ok else f"\n{proc.stdout}\n{proc.stderr}"),
    )
