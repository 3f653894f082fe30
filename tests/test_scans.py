"""The arrival scans' shared assertions, each run over the case table of
``scans.py``; the inputs both searches reject; and the reference
refinement's own unit tests."""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from optevo import DensityMatrix, PureState, density_arrival_time, first_arrival_time
from optevo import numerics
from scans import HITS, LONG, TABLE, Built, build, cells, gate, golden_section_min
from scans import grid_distances, reference, search, step

CHUNK = numerics._SCAN_CHUNK


class Run(NamedTuple):
    built: Built
    arrival: float | None
    scan: dict
    phase_rows: int
    peak: int | None


@pytest.fixture
def run(monkeypatch, record_scans):
    """A function that runs a case's search, or its Frobenius scan, with
    its chunk budget, under its generator plus ``shift`` |H|_F I, and
    traces its peak when asked;
    it returns the built case, the outcome, the counters of its one scan,
    the calls of ``numerics._phase_rows`` and the peak. The generator is
    factorized first, so the peak is the search's own."""
    calls = []
    phase_rows = numerics._phase_rows

    def counting(*args):
        calls.append(args)
        return phase_rows(*args)

    monkeypatch.setattr(numerics, "_phase_rows", counting)

    def run(case, shift=0.0, traced=False, frobenius=False):
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", case.chunk or CHUNK)
        built = build(case)
        h = built.h + shift * float(np.linalg.norm(built.h)) * np.eye(case.n) if shift else built.h
        numerics.herm_eig(h)
        record_scans.clear()
        calls.clear()
        if traced:
            tracemalloc.start()
        try:
            arrival = search(case, built, h, frobenius)
            peak = tracemalloc.get_traced_memory()[1] if traced else None
        finally:
            if traced:
                tracemalloc.stop()
        (scan,) = record_scans
        return Run(built, arrival, scan, len(calls), peak)

    return run


def check_grid(case, r):
    """The step is 0.01 hbar over the start's conserved speed, with no cap
    on the grid's length."""
    dt = step(r.built.h, r.built.start, case.hbar)
    assert r.scan["step"] == pytest.approx(dt, rel=1e-12), case
    assert r.scan["grid_points"] == max(math.ceil(r.built.horizon / dt), 8) + 1, case


def check_decided(case, r):
    """The scan is given the case's gate. A call is decided, with no chunk,
    no phase row and no grid value, exactly when its floor clears the gate
    by the margin. A target on the
    start's torus has a floor of roundoff, and a random ray or a density
    of another spectrum sits far from the start's orbit at every t, save a
    routed qubit's, which may pass near its orbit, and a routed one of gap
    0.04 or less, whose gate is wide; a gate of pi / 2 is cleared by no
    floor."""
    scan = r.scan
    assert scan["gate"] == pytest.approx(gate(case), rel=1e-12), case
    decided = scan["floor"] > scan["gate"] + scan["margin"]
    assert (scan["chunks"] == 0) == decided, case
    if decided:
        assert r.arrival is None and r.phase_rows == 0, case
        assert (scan["evaluated"], scan["refined"]) == (0, 0), case
        assert scan["screened"] == cells(case, scan)[1], case
    if case.target in HITS + ("torus",):
        assert scan["floor"] < 1e-7 and not decided, case
    if case.target == "miss" and (case.kind != "routed" or (case.n > 2 and case.gap > 0.04)):
        assert decided, case
    if gate(case) == math.pi / 2:
        assert not decided, case


def check_cells(case, r):
    """The values evaluated are K + 2 per live cell, and the live and the
    screened cells fit inside the grid; a scan that finds no arrival has
    read every cell one way or the other. Each chunk builds one pair of
    phase tables for its cell ends, and the first live cell one more for
    the offset rows. A small chunk budget streams more than two chunks,
    unless the case expects otherwise; each counter it names is in its
    range."""
    scan = r.scan
    block, total = cells(case, scan)
    live, rest = divmod(scan["evaluated"], block + 2)
    assert rest == 0 and live + scan["screened"] <= total, case
    assert r.phase_rows == scan["chunks"] + (live > 0), case
    if r.arrival is None:
        assert live + scan["screened"] == total, case
    if case.chunk is not None and scan["chunks"] and "chunks" not in case.expect:
        assert scan["chunks"] > 2, case
    for name, (low, high) in case.expect.items():
        value = {"live": live / total, "peak": r.peak}.get(name, scan.get(name))
        assert low <= value <= high, (case, name, value)


# Each shared assertion is one test run over the rows of the table, each
# row a case of its own.
@pytest.mark.parametrize("case", TABLE, ids=str)
def test_matches_the_reference(case, run):
    # The reference reads the trace norm, or a ray's infidelity, at every
    # point of its grid, with the same gated minimum test and the former
    # refinement. On the scan's grid, as ||D||_F <= ||D||_1 and the ray's
    # distance is its angle, the scan's candidates include the reference's,
    # and both decide alike. On the reference's own grid of step
    # 0.01 hbar / delta_e_max, never coarser than the scan's, it finds the
    # same outcome; there a routed pair's trace norm costs an eigvalsh at
    # five to ten times the scan's points, so the torus twins and the
    # routed rows but the hits are left to the scan's grid. Hits arrive at
    # their own time.
    r = run(case)
    want, refined, _ = reference(case, r.built, r.scan["step"])
    wants = [want]
    if case.target != "torus" and (case.kind != "routed" or case.target == "hit"):
        wants.append(reference(case, r.built)[0])
    for want in wants:
        assert (r.arrival is None) == (want is None) == (case.target not in HITS)
        if r.arrival is not None:
            assert abs(r.arrival - want) <= 1e-9
    if r.arrival is not None:
        assert abs(r.arrival - r.built.arrival) <= 1e-9
    assert r.scan["refined"] >= refined
    if case.target == "near":
        assert refined > 0


@pytest.mark.parametrize("case", TABLE, ids=str)
def test_grid_follows_the_speed(case, run):
    check_grid(case, run(case))


@pytest.mark.parametrize("case", TABLE, ids=str)
def test_decided_exactly_when_the_floor_clears_the_gate(case, run):
    check_decided(case, run(case))


@pytest.mark.parametrize("case", TABLE, ids=str)
def test_evaluated_fits_inside_the_grid(case, run):
    check_cells(case, run(case))


@pytest.mark.parametrize("case", TABLE, ids=str)
def test_floor_is_at_most_the_grid_minimum(case, run):
    # The scanned distance at every point of the scan's grid, computed
    # directly from the moved states: a floor above its minimum would let
    # the scan drop a candidate. Roundoff of the floor near zero distance is
    # about sqrt(n eps).
    r = run(case)
    distances = grid_distances(case, r.built, r.scan["grid_points"] - 1)
    assert r.scan["floor"] <= distances.min() + 1e-7
    if r.scan["chunks"] == 0:
        assert distances.min() > r.scan["gate"]


@pytest.mark.parametrize("hbar", [1.0, 2.0])
@pytest.mark.parametrize("kind, minima", [("pure", 17), ("routed", 17), ("full-rank", 18)])
def test_newton_steps_per_minimum(kind, minima, hbar, run, record_newton):
    # From a grid point within half a step of a smooth minimum, Newton on
    # the derivative of the infidelity, or of the squared Frobenius
    # distance, lands within tolerance in three steps; the judge is read
    # once per refined minimum. The rows are the kind's at one hbar on the
    # module's chunk budget; the Frobenius scan also runs on the routed
    # rows' quasi-pure pairs. Routed pairs of gap 0.04 and less move their
    # ray up to 0.25 rad a step and gate it up to pi / 2: their minima
    # take up to seven steps, and are left out.
    kinds = (kind, "routed") if kind == "full-rank" else (kind,)
    cases = [
        case
        for case in TABLE
        if case.kind in kinds and case.hbar == hbar and case.chunk is None and case.at is None
    ]
    scans = [run(case, frobenius=kind == "full-rank").scan for case in cases if case.gap > 0.04]
    assert len(record_newton) == sum(s["refined"] for s in scans) >= minima
    assert sum(record_newton) == sum(s["newton_steps"] for s in scans)
    assert max(record_newton) == 3
    assert all(s["evaluations"] == s["refined"] for s in scans)


@pytest.mark.parametrize("case", TABLE, ids=str)
def test_shifted_generator_keeps_the_outcome(case, run):
    # The refinement's derivatives take the levels relative to their mean,
    # so an identity part of 1e4 |H|_F stays out of their roundoff.
    want, got = run(case).arrival, run(case, shift=1e4).arrival
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("case", LONG, ids=str)
def test_long_scans_stay_bounded(case, run):
    # Whatever the horizon, the floor decides a miss with no grid, and a
    # torus twin streams its grid in chunks of _SCAN_CHUNK cells whose
    # traced peak stays under the case's bound.
    r = run(case, traced="peak" in case.expect)
    assert r.arrival is None
    check_grid(case, r)
    check_decided(case, r)
    check_cells(case, r)


SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
KET0, KET1 = PureState.basis_state(2, 0), PureState.basis_state(2, 1)
MIXED = DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([0.3, 0.7]))
FULL_RANK = DensityMatrix(np.diag([0.5, 0.3, 0.2])), DensityMatrix(np.diag([0.2, 0.3, 0.5]))
THREE_LEVELS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
# Each search from a moving and from a stationary start: the first three
# arrive at a threshold of 1e-8, the last two are decided at t = 0.
SEARCHES = {
    "pure": lambda horizon, _: first_arrival_time(SIGMA_Y, KET0, KET1, horizon),
    "routed": lambda horizon, threshold: density_arrival_time(
        SIGMA_Y, *MIXED, horizon, threshold=threshold
    ),
    "full-rank": lambda horizon, threshold: density_arrival_time(
        THREE_LEVELS, *FULL_RANK, horizon, threshold=threshold
    ),
    "pure-stationary": lambda horizon, _: first_arrival_time(SIGMA_Z, KET0, KET1, horizon),
    "density-stationary": lambda horizon, threshold: density_arrival_time(
        SIGMA_Z, *MIXED, horizon, threshold=threshold
    ),
}
BAD_INPUTS = [
    *((name, horizon, 1e-8) for name in SEARCHES for horizon in (0.0, -1.0, math.inf, math.nan)),
    *(
        (name, 10.0, threshold)
        for name in ("routed", "full-rank", "density-stationary")
        for threshold in (-1.0, 0.0, math.inf, math.nan)
    ),
]


@pytest.mark.parametrize("name, horizon, threshold", BAD_INPUTS)
def test_rejects_bad_input(name, horizon, threshold):
    with pytest.raises(ValueError, match="must be positive and finite"):
        SEARCHES[name](horizon, threshold)


@pytest.mark.parametrize("name", ["pure", "routed", "full-rank"])
def test_good_input_arrives(name):
    assert SEARCHES[name](10.0, 1e-8) is not None


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8)
        assert abs(x - 2.0) < 1e-6
        assert fx < 1e-12

    def test_vee_minimum(self):
        x, _ = golden_section_min(lambda x: abs(x - 0.7), 0.0, 1.0, 1e-10)
        assert abs(x - 0.7) < 1e-8

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 0.0, 1.0, 0.0)
