"""One benchmark process: set up a workload from the seed, then time it.

Started fresh by run.py for every measurement, with BLAS pinned to one
thread. Prints one JSON object on its last stdout line.

Modes:
  setup  import optevo, build round-0 inputs, warm up, report when ready;
  run    the same set-up, then the untraced timed phase;
  trace  set-up, an untraced and a traced phase of half the time each, one
         traced round of every other workload so that every layer metric is
         measured, the verify-suite fidelity check and the import probe.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import stats
from spans import NullTracer, Tracer, self_times
from workloads import KNOWN_DEFECTS, WORKLOADS, Cli, VerifySuite

from optevo.verification import run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORT_PROBES = 3


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "note": "CPUs are not pinned and the page cache is not dropped between "
                "runs; figures are medians over repeated work",
    }


def run_phase(wl, seconds, tracer, meta, first_ops=None) -> dict:
    """Run whole rounds until ``seconds`` have passed (at least one round)."""
    latencies, labels, outputs0, known, unexpected = [], [], [], defaultdict(int), []
    ops = first_ops if first_ops is not None else wl.round_ops(0)
    k = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            tracer.op = len(meta)
            meta.append((wl.name, k))
            with tracer.span(f"op.{wl.name}.{op.label}"):
                t0 = time.perf_counter()
                try:
                    out, fails = op.fn(tracer)
                except Exception as exc:  # an op that raises is a failed op
                    out, fails = repr(exc), [(f"{wl.name}.error", f"{op.label}: {exc!r}")]
                latencies.append(time.perf_counter() - t0)
            labels.append(op.label)
            tracer.op = None
            if k == 0:
                outputs0.append(out)
            other = [f"{code}: {msg}" for code, msg in fails if code not in KNOWN_DEFECTS]
            if other:
                unexpected.append("; ".join(other))
            elif fails:
                known[fails[0][0]] += 1
        k += 1
        if time.perf_counter() - start >= seconds:
            break
        ops = wl.round_ops(k)
    wall = time.perf_counter() - start
    return {
        "ops": len(latencies),
        "rounds": k,
        "wall_s": wall,
        "latencies_s": latencies,
        "labels": labels,
        "failed": sum(known.values()) + len(unexpected),
        "known": dict(known),
        "unexpected": unexpected,
        "outputs0": outputs0,
        "digest": hashlib.sha256(json.dumps(outputs0, sort_keys=True).encode()).hexdigest(),
    }


# Layer spans summed per round of their workload, reported as "<name>.s".
SUMMED = [
    "numerics.herm_eig",
    "synthesis.optimal_family_sample",
    "synthesis.is_optimal_speed",
    "synthesis.qsl_time",
    "synthesis.equigeodesic_vector_of",
    "synthesis.first_arrival_time.hit",
    "synthesis.first_arrival_time.miss",
    "lie_flag.is_equigeodesic_structural",
    "lie_flag.is_equigeodesic_variational",
    "evolution.density_arrival_time.hit",
    "evolution.density_arrival_time.miss",
    "evolution.sample_trajectory.pure",
    "evolution.sample_trajectory.density",
    "evolution.fs_speed_profile",
    "evolution.geodesic_defect",
    "evolution.subspace_leakage",
    "serialization.trajectory_to_json",
    "serialization.save_document",
    "serialization.load_document",
    "serialization.trajectory_from_json",
] + [f"cli.{c}" for c in Cli.COMMANDS]

SCANS = {
    "synthesis.first_arrival_time": ("hit", "miss"),
    "evolution.density_arrival_time": ("hit", "miss"),
}
SAMPLERS = ("evolution.sample_trajectory.pure", "evolution.sample_trajectory.density")


def layer_metrics(tracer, meta, check_names) -> dict:
    """Per-layer figures from the traced spans.

    A ``.s`` figure is the span self time summed over one round of the
    workload that makes the call, median over the traced rounds; counts
    (grid points, bytes) are per round the same way.
    """
    selfs = self_times(tracer.spans)
    per_round = defaultdict(lambda: defaultdict(float))
    totals = defaultdict(float)
    peaks = defaultdict(float)
    imports = []
    for sp, own in zip(tracer.spans, selfs):
        if sp.op is None:
            if sp.name == "cli.import":
                imports.append(own)
            elif "peak_traced_mb" in sp.attrs:
                peaks[sp.name] = max(peaks[sp.name], sp.attrs["peak_traced_mb"])
            continue
        key = meta[sp.op]
        per_round[sp.name][key] += own
        totals[sp.name] += own
        for attr, value in sp.attrs.items():
            per_round[f"{sp.name}:{attr}"][key] += value
            totals[f"{sp.name}:{attr}"] += value

    def per_round_median(*names):
        rounds = defaultdict(float)
        for name in names:
            for key, value in per_round[name].items():
                rounds[key] += value
        return stats.median(rounds.values()) if rounds else 0.0

    m = {}
    for name in ["verification." + c for c in check_names] + SUMMED:
        m[f"{name}.s"] = (per_round_median(name), "s")
    for base, kinds in SCANS.items():
        names = [f"{base}.{k}" for k in kinds]
        points = sum(totals[f"{n}:grid_points"] for n in names)
        m[f"{base}.grid_points"] = (
            per_round_median(*[f"{n}:grid_points" for n in names]), "count"
        )
        m[f"{base}.ns_per_point"] = (1e9 * sum(totals[n] for n in names) / points, "ns")
    m["synthesis.first_arrival_time.peak_traced_mb"] = (
        peaks["synthesis.first_arrival_time"], "MB"
    )
    samples = sum(totals[f"{n}:samples"] for n in SAMPLERS)
    m["evolution.sample_trajectory.us_per_sample"] = (
        1e6 * sum(totals[n] for n in SAMPLERS) / samples, "us"
    )
    m["evolution.sample_trajectory.peak_traced_mb"] = (peaks["evolution.sample_trajectory"], "MB")
    m["serialization.bytes"] = (per_round_median("serialization.save_document:bytes"), "B")
    for c in Cli.COMMANDS:
        m[f"cli.{c}.report_s"] = (per_round_median(f"cli.{c}:report_s"), "s")
    m["cli.import.s"] = (stats.median(imports), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def import_probe(tracer) -> None:
    for _ in range(IMPORT_PROBES):
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import optevo"], check=True, timeout=60)


def summary(phase) -> dict:
    return {k: v for k, v in phase.items() if k != "outputs0"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.workdir)
        wl.warm_up(NullTracer())
        ops0 = wl.round_ops(0)
        t_ready = time.perf_counter()
        result = {"t_ready": t_ready}
        if args.mode == "run":
            result.update(summary(run_phase(wl, args.seconds, NullTracer(), [], ops0)))
            result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["tail_cap"] = wl.TAIL_CAP
        elif args.mode == "trace":
            result.update(trace_mode(wl, args, ops0))
        if args.mode != "setup":
            result["env"] = environment()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def trace_mode(wl, args, ops0) -> dict:
    half = args.seconds / 2.0
    untraced = run_phase(wl, half, NullTracer(), [], ops0)
    tracer, meta = Tracer(), []
    phases = {wl.name: run_phase(wl, half, tracer, meta)}
    probes = wl.memory_probes()
    for name, cls in WORKLOADS.items():
        if name != wl.name:
            other = cls(args.seed, args.workdir)
            other.warm_up(NullTracer())
            phases[name] = run_phase(other, 0.0, tracer, meta)
            probes += other.memory_probes()
    for layer, fn in probes:
        tracer.measure_memory(layer, fn)
    import_probe(tracer)

    reference = [
        VerifySuite.output(r)
        for r in run_suite("all", VerifySuite.TRIALS, args.seed, n_max=VerifySuite.N_MAX)
    ]
    traced_verify = phases["verify-suite"]["outputs0"]
    check_names = [row[0] for row in traced_verify]

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.dump(spans_path)

    own = phases[wl.name]
    return {
        "untraced": summary(untraced),
        "traced": summary(own),
        "coverage": {k: summary(v) for k, v in phases.items() if k != wl.name},
        "fidelity": traced_verify == reference,
        "layers": layer_metrics(tracer, meta, check_names),
        "spans_path": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
