"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The smoke tests run the real command for one round of every workload, so
the file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


# ---------------------------------------------------------------------------
# the tail rule


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.tail(values) == (90.0, 90.0, 10)
    many = [float(v) for v in range(1, 1001)]
    assert stats.tail(many) == (990.0, 99.0, 10)


def test_tail_stops_at_the_cap():
    many = [float(v) for v in range(1, 1001)]
    assert stats.tail(many, 90.0) == (900.0, 90.0, 100)
    assert stats.tail(many, 95.0) == (950.0, 95.0, 50)
    # Below the cap the ten-beyond rule still decides.
    values = [float(v) for v in range(1, 101)]
    assert stats.tail(values, 99.0) == (90.0, 90.0, 10)


def test_tail_counts_only_samples_strictly_beyond():
    # 30 samples with the top 12 tied: p75 lands inside the tie, which
    # leaves no sample strictly above it, so the median is the answer.
    values = [1.0] * 18 + [5.0] * 12
    value, pct, beyond = stats.tail(values)
    assert (value, pct, beyond) == (1.0, 50.0, 12)


def test_tail_falls_back_to_median_with_true_count():
    values = [float(v) for v in range(1, 20)]
    assert stats.tail(values) == (10.0, 50.0, 9)


def test_kind_median_gmean_weighs_each_kind_once():
    # Kind "a" runs four times a round and "b" once; the pooled median
    # would be 1.0, the kind figure is sqrt(1 * 100).
    values = [1.0, 1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0, 1.0, 100.0]
    kinds = ["a", "a", "a", "a", "b"] * 2
    assert stats.kind_median_gmean(values, kinds) == pytest.approx(10.0)
    assert stats.kind_median_gmean([2.0, 4.0, 8.0], ["x", "x", "x"]) == pytest.approx(4.0)


def test_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert stats.nearest_rank(ordered, 50.0) == 2.0
    assert stats.nearest_rank(ordered, 75.0) == 3.0
    assert stats.nearest_rank(ordered, 99.0) == 4.0


# ---------------------------------------------------------------------------
# span self time


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),    # overlaps a: union [1, 5]
        Span("c", 8.0, 12.0, 0, 0),   # clipped to the parent: [8, 10]
        Span("a.1", 1.5, 2.5, 1, 0),  # grandchild: only a loses it
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner", grid_points=3) as sp:
            sp.attrs["bytes"] = 5
    tracer.op = None
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == 0
    assert outer.op == inner.op == 7
    assert inner.attrs == {"grid_points": 3, "bytes": 5}
    assert outer.start <= inner.start <= inner.end <= outer.end
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


# ---------------------------------------------------------------------------
# the command, one round of every workload


def metric_lines(stdout: str) -> dict:
    """name -> unit, from the human-readable 'name = value unit' lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "=":
            float(parts[2])
            found[parts[0]] = parts[3]
    return found


def digest_line(stdout: str) -> str:
    return next(ln for ln in stdout.splitlines() if ln.startswith("outputs digest"))


# Every workload, also those BENCHMARK.json leaves out of the repeated runs.
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end_and_determinism(workload):
    first = run_bench(workload, 5, 0)
    assert first.returncode == 0, first.stderr
    result = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # Known defects show in fail_share only; anything else clears correct.
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = metric_lines(first.stdout)
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["fail_share"] == "share"
    assert all(v["value"] > 0 for v in result["metrics"].values())

    second = run_bench(workload, 5, 0)
    assert second.returncode == 0, second.stderr
    assert digest_line(first.stdout) == digest_line(second.stdout)


def test_seed_changes_inputs():
    a, b = run_bench("cli", 5, 0), run_bench("cli", 6, 0)
    assert a.returncode == b.returncode == 0
    assert digest_line(a.stdout) != digest_line(b.stdout)


def test_smoke_traced_reports_every_layer_metric():
    proc = run_bench("cli", 5, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = metric_lines(proc.stdout)
    for name, unit in expected.items():
        assert printed[name] == unit
    assert "traced pass equals run_suite('all', 100, 5): True" in proc.stdout


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("cli", 5, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
