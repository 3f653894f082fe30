"""optevo benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 50 --trace 0

Run from anywhere; the repository root is found from this file. Every
measurement runs in a fresh worker process (perfbench/worker.py) with BLAS
pinned to one thread. With ``--trace 0`` the workload is set up in two
set-up-only processes, once more before the timed phase and in two more
set-up-only processes after it; the command prints the end-to-end metrics.
With ``--trace 1`` a single traced process prints the per-layer metrics.
Human-readable lines come first; the last stdout line is the JSON result,
whose ``failed`` leaves out the known program defects that fail_share
counts. Exits 2 without a result when optevo's sources are not beside the
benchmark, and 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("verify-suite", "arrival-scan", "trajectory", "cli")
SETUP_ONLY_RUNS = 4
WORKER_TIMEOUT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed but left out of the JSON result. A round mixes ops of unequal
# cost, so the pooled median sits on one op kind, and which kind changes
# when the host slows some kinds more than others: over ten trajectory seeds
# its spread reached 0.26 of the median while ops_per_s spread 0.19.
# op_kind_p50_ms carries the median into the result instead.
PRINTED_ONLY = ("op_p50_ms",)


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in PINNED:
        env[var] = "1"
    return env


def spawn(args, mode: str, deadline: float) -> tuple[dict, float]:
    """Run one worker; return its result and the time it was started."""
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}-{mode}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir,
    ]
    started = time.perf_counter()
    # Its own session, so a timeout also stops the worker's cli subprocesses.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def failures_note(phase: dict) -> str:
    parts = [f"{phase['failed']} failed of {phase['ops']} attempted"]
    parts += [f"known {code} x{count}" for code, count in sorted(phase["known"].items())]
    parts += [f"UNEXPECTED {msg}" for msg in phase["unexpected"][:5]]
    return "; ".join(parts)


def setup_time(args, deadline: float) -> float:
    res, started = spawn(args, "setup", deadline)
    return res["t_ready"] - started


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # Half the set-up-only workers run before the timed one and half after,
    # so the median spans more of the host's slow drifts in speed.
    setups = [setup_time(args, deadline) for _ in range(SETUP_ONLY_RUNS // 2)]
    res, started = spawn(args, "run", deadline)
    setups.append(res["t_ready"] - started)
    setups += [setup_time(args, deadline) for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]

    latencies_ms = [1e3 * s for s in res["latencies_s"]]
    tail_ms, pct, beyond = stats.tail(latencies_ms, res["tail_cap"])
    metrics = {
        "ops_per_s": (res["ops"] / res["wall_s"], "1/s"),
        "op_p50_ms": (stats.median(latencies_ms), "ms"),
        "op_kind_p50_ms": (stats.kind_median_gmean(latencies_ms, res["labels"]), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["maxrss_mb"], "MB"),
        "setup_s": (stats.median(setups), "s"),
    }
    notes = {
        "ops_per_s": f"{res['ops']} ops in {res['rounds']} rounds, {res['wall_s']:.3f} s",
        "op_kind_p50_ms": f"geometric mean over {len(set(res['labels']))} op kinds "
                          "of each kind's median",
        "op_tail_ms": f"p{pct:g} (cap p{res['tail_cap']:g}), {beyond} of {res['ops']} ops beyond",
        "peak_rss_mb": "ru_maxrss of the untraced worker process",
        "setup_s": "median of fresh-process set-ups, timed one in the middle: "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    for name, (value, unit) in metrics.items():
        line(name, value, unit, notes.get(name, ""))
    line("fail_share", res["failed"] / res["ops"], "share", failures_note(res))
    print(f"outputs digest (round 0): {res['digest']}")
    return res, {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINTED_ONLY
    }


def traced(args, deadline: float) -> tuple[dict, dict]:
    res, _ = spawn(args, "trace", deadline)
    plain, own = res["untraced"], res["traced"]
    plain_rate = plain["ops"] / plain["wall_s"]
    own_rate = own["ops"] / own["wall_s"]
    print(
        f"tracing overhead: traced ops_per_s {own_rate:.4f} against untraced "
        f"{plain_rate:.4f} 1/s ({100.0 * (own_rate / plain_rate - 1.0):+.1f} %)"
    )
    print(f"verify-suite traced pass equals run_suite('all', 100, {args.seed}): {res['fidelity']}")
    print(f"spans: {res['span_count']} written to {res['spans_path']}")
    for name, m in res["layers"].items():
        line(name, m["value"], m["unit"])
    phases = [plain, own, *res["coverage"].values()]
    merged = {
        "ops": sum(p["ops"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "known": {},
        "unexpected": [u for p in phases for u in p["unexpected"]],
        "fidelity": res["fidelity"],
        "env": res["env"],
    }
    for p in phases:
        for code, count in p["known"].items():
            merged["known"][code] = merged["known"].get(code, 0) + count
    line("fail_share", merged["failed"] / merged["ops"], "share", failures_note(merged))
    return merged, res["layers"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "optevo", "__init__.py")):
        print(f"error: optevo sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + WORKER_TIMEOUT_S

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        phase, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = phase.pop("env", None) or {}
    env.update(seed=args.seed, git_commit=git_commit())
    print("# env " + json.dumps(env, sort_keys=True))

    # ``failed`` counts the ops whose output is wrong in a way not listed in
    # KNOWN_DEFECTS. The listed program defects stay in fail_share above; a
    # time-bounded run meets a varying number of them, which would make
    # ``failed`` differ between runs of the same code.
    correct = not phase["unexpected"] and phase.get("fidelity", True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": phase["ops"],
        "failed": len(phase["unexpected"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
