"""The check table: each check's identity, suite, bound, dimension range
and child seed, and the way early failures, NaN residuals and wall times
reach the results.

The expected table was written from the values of the release before the
checks were declared with ``@check``; the row order is the child-seed
index ``[seed, index]``.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from optevo import cli, verification
from optevo.synthesis import Verdict
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
    assert SUITE_NAMES == ("algebra", "synthesis", "evolution", "interchange", "all")
    for suite in ("algebra", "synthesis", "evolution", "interchange"):
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


def _parent_dims(rng, n_max, lo=2):
    """The dimension draw of the release before ``_each_trial``."""
    return int(rng.integers(lo, max(lo, n_max) + 1))


# (_each_trial arguments, the release's call for the same range)
RANGES = {
    "default": ({}, lambda rng, n_max: _parent_dims(rng, n_max)),
    "least-3": ({"least": 3}, lambda rng, n_max: _parent_dims(rng, max(3, n_max))),
    "most-6": ({"most": 6}, lambda rng, n_max: _parent_dims(rng, min(6, n_max))),
    "3-to-6": (
        {"lo": 3, "least": 3, "most": 6},
        lambda rng, n_max: _parent_dims(rng, max(3, min(6, n_max)), lo=3),
    ),
}


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("span", RANGES)
def test_each_trial_draws_the_releases_dimensions(span, n_max):
    kwargs, parent = RANGES[span]
    seen = []

    @verification._each_trial(**kwargs)
    def body(rng, n, k):
        seen.append((n, k))
        rng.standard_normal(n)  # the body's own draws follow the dimension's
        return 0.0

    assert body(np.random.default_rng(11), 40, n_max) == 0.0
    rng, expected = np.random.default_rng(11), []
    for k in range(40):
        expected.append((parent(rng, n_max), k))
        rng.standard_normal(expected[-1][0])
    assert seen == expected


def test_worst_carries_a_nan_through():
    worst = verification._worst
    assert math.isnan(worst(0.0, 1.0, math.nan, 2.0))
    assert math.isnan(worst(math.nan, 1.0, pick=min))
    assert worst(0.0, -3.0, 2.0) == 2.0
    assert worst(3.0, 1.0, pick=min) == 1.0


def _poison(nan, when=lambda call, args: True):
    """Wrap a function so that the calls ``when`` picks return
    ``nan(real output)`` in place of the real output."""

    def wrap(real):
        calls = itertools.count()

        def fake(*args, **kwargs):
            out = real(*args, **kwargs)
            return nan(out) if when(next(calls), args) else out

        return fake

    return wrap


def _nth(index):
    return lambda call, args: call == index


def _nan(out):
    return math.nan


def _nan_array(out):
    return np.full_like(out, np.nan)


# (check, patched name, poison, where the NaN shows: "residual" or a detail part)
NAN_CASES = {
    "exp-unitarity": ("check_exp_unitarity", "unitary_exp", _poison(_nan_array), "residual"),
    "exp-unitarity-later-trial": (
        "check_exp_unitarity", "unitary_exp", _poison(_nan_array, _nth(2)), "residual"
    ),
    "criterion-constructed": (
        "check_criterion_equivalence", "is_equigeodesic_variational",
        _poison(lambda out: (out[0], math.nan), _nth(1)), "residual",
    ),
    "criterion-generic": (
        "check_criterion_equivalence", "is_equigeodesic_variational",
        _poison(lambda out: (out[0], math.nan), _nth(4)), "least generic residual nan",
    ),
    "fs-self-distance": (
        "check_fs_metric_axioms", "fs_distance",
        _poison(_nan, lambda call, args: args[0] is args[1]), "self-distance floor nan",
    ),
    "strict-gap": (
        "check_strict_gap_when_violated", "is_optimal_speed",
        _poison(lambda v: dataclasses.replace(v, delta_e=math.nan), _nth(1)), "residual",
    ),
    "saturation-non-optimal": (
        "check_saturation_equivalence", "is_optimal_speed",
        _poison(lambda v: v if v.kind is Verdict.OPTIMAL else dataclasses.replace(
            v, delta_e=math.nan
        )),
        "residual",
    ),
    "qsl-optimal": (
        "check_qsl_arrival_consistency", "first_arrival_time", _poison(_nan, _nth(0)),
        "residual",
    ),
    "qsl-generic": (
        "check_qsl_arrival_consistency", "first_arrival_time", _poison(_nan, _nth(1)),
        "worst bound violation nan",
    ),
    "qsl-violating": (
        "check_qsl_arrival_consistency", "first_arrival_time", _poison(_nan, _nth(2)),
        "least violating gap nan",
    ),
    "speed-profile": (
        "check_speed_profile_flat", "fs_speed_profile", _poison(_nan_array, _nth(1)),
        "residual",
    ),
    "geodesic-defect": (
        "check_geodesic_defect_sign", "geodesic_defect", _poison(_nan, _nth(0)), "residual"
    ),
    "subspace-leakage": (
        "check_subspace_confinement", "subspace_leakage", _poison(_nan, _nth(1)), "residual"
    ),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_residual_fails_its_row(monkeypatch, case):
    name, target, poison, shows = NAN_CASES[case]
    monkeypatch.setattr(verification, target, poison(getattr(verification, target)))
    row = getattr(verification, name)(np.random.default_rng(0), 3, 3)
    assert not row.passed
    if shows == "residual":
        assert math.isnan(row.max_residual)
    else:
        assert shows in row.detail


def test_a_nan_residual_reads_null_in_the_json_report(monkeypatch, capsys):
    monkeypatch.setattr(
        verification, "unitary_exp", _poison(_nan_array)(verification.unitary_exp)
    )
    code = cli.main(["verify", "--suite", "algebra", "--trials", "2", "--seed", "1", "--json"])
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["outputs"]["results"]}
    assert code == 1
    for name in ("exp-unitarity", "exp-group-law"):
        assert (rows[name]["passed"], rows[name]["max_residual"]) == (False, None)
    assert rows["eig-reconstruction"]["passed"]


def test_qsl_runs_each_mode_below_three_trials():
    row = next(
        r for r in run_suite("synthesis", 1, 7) if r.name == "qsl-arrival-consistency"
    )
    gap = float(row.detail.rsplit(" ", 1)[-1])
    assert row.passed and row.trials == 3
    assert math.isfinite(gap) and gap > 1e-3
