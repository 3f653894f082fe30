"""The check table: each check's identity, suite, bound and child seed,
and the way early failures and wall times reach the results.

The expected table was written from the values of the release before the
checks were declared with ``@check``; the row order is the child-seed
index ``[seed, index]``.
"""

import math

import numpy as np
import pytest

from optevo import verification
from optevo.verification import SUITE_NAMES, registry, run_suite

# (function name, result name, suite, bound, reported trials for 3 trials)
TABLE = [
    ("check_eig_reconstruction", "eig-reconstruction", "algebra", 1e-10, 3),
    ("check_exp_unitarity", "exp-unitarity", "algebra", 1e-10, 3),
    ("check_exp_group_law", "exp-group-law", "algebra", 1e-09, 3),
    ("check_killing_ad_invariance", "killing-ad-invariance", "algebra", 1e-08, 3),
    ("check_split_exactness", "split-exactness", "algebra", 1e-09, 3),
    ("check_bracket_closure", "bracket-closure", "algebra", 1e-09, 3),
    ("check_criterion_equivalence", "criterion-equivalence", "algebra", 1e-09, 6),
    ("check_orbit_translation", "orbit-translation", "algebra", 1e-09, 3),
    ("check_isotropy_factorization", "isotropy-factorization", "algebra", 1e-08, 3),
    ("check_qubit_oracle", "qubit-oracle", "synthesis", 1e-12, 1),
    ("check_fs_metric_axioms", "fs-metric-axioms", "synthesis", 1e-10, 3),
    ("check_fs_unitary_invariance", "fs-unitary-invariance", "synthesis", 1e-10, 3),
    ("check_variance_bound_and_witness", "variance-bound-witness", "synthesis", 1e-10, 3),
    ("check_uncertainty_conservation", "uncertainty-conservation", "synthesis", 1e-10, 3),
    ("check_blocks_reassembly", "blocks-reassembly", "synthesis", 1e-10, 3),
    ("check_synthesis_roundtrip", "synthesis-roundtrip", "synthesis", 1e-09, 3),
    ("check_saturation_equivalence", "saturation-equivalence", "synthesis", 1e-08, 3),
    ("check_strict_gap_when_violated", "strict-gap-when-violated", "synthesis", 1e-12, 3),
    ("check_qsl_arrival_consistency", "qsl-arrival-consistency", "synthesis", 1e-06, 3),
    ("check_family_trajectory_match", "family-trajectory-match", "synthesis", 1e-09, 3),
    ("check_phase_gauge_independence", "phase-gauge-independence", "synthesis", 1e-12, 3),
    ("check_flow_property", "flow-property", "evolution", 1e-10, 3),
    ("check_tangent_part_trajectories", "tangent-part-trajectories", "evolution", 1e-09, 3),
    ("check_speed_profile_flat", "speed-profile-flat", "evolution", 1e-06, 3),
    ("check_geodesic_defect_sign", "geodesic-defect-sign", "evolution", 1e-06, 3),
    ("check_subspace_confinement", "subspace-confinement", "evolution", 1e-10, 3),
    ("check_quasi_pure_reduction", "quasi-pure-reduction", "evolution", 1e-07, 3),
    ("check_json_roundtrip", "json-roundtrip", "interchange", 0.0, 3),
    ("check_negative_control", "negative-control", "control", 1e-09, 1),
]

SEED = 5


@pytest.fixture(scope="module")
def rows():
    return run_suite("all", 3, SEED, n_max=3, negative_control=True)


def all_checks():
    return registry("all") + [verification.check_negative_control]


def test_table_order_names_suites_bounds(rows):
    got = [
        (fn.__name__, r.name, r.suite, r.bound, r.trials)
        for fn, r in zip(all_checks(), rows)
    ]
    assert got == TABLE


def test_child_seed_is_the_table_index(rows):
    assert verification._CHECK_IDS == {entry[0]: i for i, entry in enumerate(TABLE)}
    for i, (fn, row) in enumerate(zip(all_checks(), rows)):
        direct = fn(np.random.default_rng([SEED, i]), 3, 3)
        assert (direct.passed, direct.max_residual, direct.detail) == (
            row.passed, row.max_residual, row.detail
        ), fn.__name__


def test_suites_follow_the_table():
    assert SUITE_NAMES == ("algebra", "synthesis", "evolution", "all")
    for suite in ("algebra", "synthesis", "evolution"):
        assert [fn.__name__ for fn in registry(suite)] == [
            entry[0] for entry in TABLE if entry[2] == suite
        ]
    assert [fn.__name__ for fn in registry("all")] == [entry[0] for entry in TABLE[:-1]]


def test_verdicts_and_wall_times(rows):
    assert [r.passed for r in rows] == [True] * 28 + [False]
    assert all(math.isfinite(r.wall_s) and r.wall_s >= 0.0 for r in rows)


def test_early_failure_reports_its_detail(monkeypatch):
    real = verification.herm_eig

    def descending(h):
        w, v = real(h)
        return w[::-1], v[:, ::-1]

    monkeypatch.setattr(verification, "herm_eig", descending)
    row = verification.check_eig_reconstruction(np.random.default_rng(0), 4, 3)
    assert not row.passed
    assert row.detail == "eigenvalues not ascending"
    assert row.max_residual == np.inf
    assert (row.name, row.bound, row.trials) == ("eig-reconstruction", 1e-10, 4)


def test_early_failure_keeps_the_count_of_its_check(monkeypatch):
    monkeypatch.setattr(
        verification, "is_equigeodesic_variational", lambda x, blocks: (False, 1.0)
    )
    row = verification.check_criterion_equivalence(np.random.default_rng(0), 4, 3)
    assert not row.passed
    assert row.detail == "constructed direction rejected at trial 0"
    assert row.trials == 8


def test_early_failure_carries_the_signed_defect(monkeypatch):
    monkeypatch.setattr(verification, "geodesic_defect", lambda traj: -2e-10)
    row = verification.check_geodesic_defect_sign(np.random.default_rng(0), 2, 3)
    assert not row.passed
    assert row.detail == "defect below the roundoff floor"
    assert row.max_residual == -2e-10
