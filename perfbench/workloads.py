"""The benchmark's workloads: inputs from the seed, timed ops and their oracles.

An op is a closure ``fn(tracer) -> (output, failures)``. ``output`` is a
JSON-ready summary of what the program returned (verdicts, arrival times,
file digests); runs compare it to show that one seed gives one result.
``failures`` lists ``(code, message)`` pairs, one per oracle the output
missed. Codes in KNOWN_DEFECTS are program defects known at the baseline:
they are counted like every other failure but do not mark the benchmark
itself as broken.

Round ``k`` of a workload draws its inputs from
``np.random.default_rng([seed, k + 1])`` and warm-up from ``[seed, 0]``, so
no timed op reuses a warm-up input. verify-suite follows ``run_suite``
instead: pass ``k`` runs check ``i`` on ``default_rng([seed + k, i])``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from optevo import serialization as ser
from optevo.evolution import (
    density_arrival_time,
    fs_speed_profile,
    geodesic_defect,
    propagate,
    sample_trajectory,
    subspace_leakage,
)
from optevo.lie_flag import (
    BlockStructure,
    ad_conjugate,
    is_equigeodesic_structural,
    is_equigeodesic_variational,
)
from optevo.numerics import herm_eig
from optevo.quantum_states import PureState, QuasiPureSpec, fs_distance, quasi_pure
from optevo.sampling import random_hermitian, random_pure_state, random_unitary
from optevo.serialization import matrix_to_json, save_document, state_to_json
from optevo.synthesis import (
    Verdict,
    equigeodesic_vector_of,
    first_arrival_time,
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    qsl_time,
)
from optevo.verification import registry

HALF_PI = math.pi / 2.0

# Failures of the program measured at the baseline (ROADMAP P0: the ray
# distance loses half its digits near zero, so summed segment lengths fall
# below the endpoint distance). They must show in fail_share.
KNOWN_DEFECTS = {
    "verify.geodesic-defect-sign": "check geodesic-defect-sign sees a defect below -1e-10",
    "trajectory.defect-below-floor": "pure trajectory defect in [-1e-6, -1e-10)",
}


@dataclass
class Op:
    label: str
    fn: Callable


def grid_points(w: np.ndarray, horizon: float, hbar: float = 1.0) -> int:
    """Computed size of the arrival-scan grid: one point per 0.01 rad of
    the fastest possible ray motion over the horizon, plus the origin."""
    spread = float(w[-1] - w[0]) / 2.0
    return max(8, math.ceil(horizon * spread / (0.01 * hbar))) + 1


def _distinct_pair(rng, n, lo=0.1, hi=1.47):
    while True:
        phi = random_pure_state(rng, n)
        psi = random_pure_state(rng, n)
        if lo <= fs_distance(phi, psi) <= hi:
            return phi, psi


def _fixed_spread_hermitian(rng, n, half_spread):
    """Random Hermitian matrix rescaled to a set half spectral spread, which
    fixes the arrival-scan grid size for a given horizon."""
    h = random_hermitian(rng, n)
    w = np.linalg.eigvalsh(h)
    return h * (half_spread / (float(w[-1] - w[0]) / 2.0))


def _quasi_pure_pair(rng, n):
    while True:
        source = random_unitary(rng, n)
        target = random_unitary(rng, n)
        if 0.15 <= fs_distance(PureState(source[:, 0]), PureState(target[:, 0])) <= 1.45:
            break
    while True:
        p1 = float(rng.uniform(0.05, 0.95))
        if abs(p1 - 1.0 / n) >= 0.05:
            break
    p2 = (1.0 - p1) / (n - 1)
    specs = [
        QuasiPureSpec(p1, p2, tuple(PureState(frame[:, j]) for j in range(n)))
        for frame in (source, target)
    ]
    return specs[0], specs[1]


def _run_ops(ops, tracer) -> None:
    for op in ops:
        op.fn(tracer)


class Workload:
    name = ""
    # Highest percentile op_tail_ms may use (see stats.tail). Each workload
    # sets the one that keeps ten ops beyond it in a run of the configured
    # length even on a slow host, so runs of one workload all report it.
    TAIL_CAP = 100.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k + 1])

    def round_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, tracer) -> None:
        raise NotImplementedError

    def memory_probes(self) -> list[tuple[str, Callable]]:
        """Calls to repeat under tracemalloc in the traced run: (layer, fn)."""
        return []


# ---------------------------------------------------------------------------
# verify-suite: `optevo verify --suite all --trials 100` without process start

class VerifySuite(Workload):
    name = "verify-suite"
    TRIALS = 100
    # p90 keeps 10 ops beyond from 4 passes on; p95 would need 8 passes.
    TAIL_CAP = 90.0
    N_MAX = 8

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.checks = registry("all")

    def round_ops(self, k: int) -> list[Op]:
        return [
            Op(fn.__name__, self._check_op(fn, np.random.default_rng([self.seed + k, i])))
            for i, fn in enumerate(self.checks)
        ]

    @staticmethod
    def output(r) -> list:
        """What a check's result contributes to the run's outputs."""
        return [r.name, bool(r.passed), repr(float(r.max_residual)), r.detail]

    def _check_op(self, fn, rng):
        def run(tracer):
            with tracer.span("verification") as sp:
                r = fn(rng, self.TRIALS, self.N_MAX)
                sp.name = "verification." + r.name
            out = self.output(r)
            if r.passed:
                return out, []
            code = "verify." + r.name
            if r.name == "geodesic-defect-sign" and r.detail != "defect below the roundoff floor":
                code = "verify.geodesic-defect-sign.other"
            return out, [(code, f"{r.name}: residual {r.max_residual!r} ({r.detail})")]
        return run

    def warm_up(self, tracer) -> None:
        for i, fn in enumerate(self.checks):
            fn(np.random.default_rng([self.seed, i, 0]), 1, self.N_MAX)


# ---------------------------------------------------------------------------
# arrival-scan: brute-force arrival times, the target of ROADMAP item 2

class ArrivalScan(Workload):
    name = "arrival-scan"
    # p75 keeps 10 ops beyond from 5 rounds on and lies among the density
    # ops, three a round; p90 would need 12 rounds and sit on the low edge
    # of miss-n32, one op a round.
    TAIL_CAP = 75.0
    HORIZON = 300.0
    DENSITY_HORIZON = 30.0
    ENERGY = 1.0
    # Interleaved so each kind meets the same machine state; the first op of
    # each kind is also its smallest, which warm-up runs. Nine ops a round,
    # three per kind, keep the median and the p75/p90 ranks inside one kind
    # rather than on the edge between two.
    SCHEDULE = (
        ("hit", 8), ("miss", 8), ("density", 4),
        ("hit", 32), ("miss", 16), ("density", 6),
        ("hit", 64), ("miss", 32), ("density", 4),
    )

    def round_ops(self, k: int) -> list[Op]:
        return self._ops(self.rng(k))

    def _ops(self, rng, shrink=1.0) -> list[Op]:
        make = {"hit": self._hit, "miss": self._miss, "density": self._density}
        return [
            Op(f"{kind}-n{n}", make[kind](rng, n, shrink)) for kind, n in self.SCHEDULE
        ]

    def warm_up(self, tracer) -> None:
        # The smallest op of each kind on a tenth of the horizon.
        ops = self._ops(np.random.default_rng([self.seed, 0]), shrink=10.0)
        _run_ops(ops[:3], tracer)

    def memory_probes(self):
        # The fastest full scan (a miss at n = 8) and a large early hit; the
        # n = 32 miss would take seconds under tracemalloc's per-allocation cost.
        rng = np.random.default_rng([self.seed, 0])
        phi, psi0 = _distinct_pair(rng, 64)
        h = optimal_family_sample(phi, psi0, self.ENERGY, int(rng.integers(2**32)))
        psi = propagate(h, phi, 0.5 * fs_distance(phi, psi0) / self.ENERGY)
        h_miss = _fixed_spread_hermitian(rng, 8, 2.0 * math.sqrt(8))
        a, b = random_pure_state(rng, 8), random_pure_state(rng, 8)
        return [
            ("synthesis.first_arrival_time",
             lambda: first_arrival_time(h, phi, psi, self.HORIZON)),
            ("synthesis.first_arrival_time",
             lambda: first_arrival_time(h_miss, a, b, self.HORIZON)),
        ]

    def _hit(self, rng, n, shrink):
        phi, psi0 = _distinct_pair(rng, n)
        family_seed = int(rng.integers(2**32))
        metric_seed = int(rng.integers(2**32))
        # Arrival at a fraction of the ray distance, so within ~0.5 % of the
        # horizon: the scan finds it early in the grid.
        fraction = float(rng.uniform(0.3, 0.95))
        e = self.ENERGY
        horizon = self.HORIZON / shrink

        def run(tracer):
            with tracer.span("synthesis.optimal_family_sample"):
                h = optimal_family_sample(phi, psi0, e, family_seed)
            t_star = fraction * fs_distance(phi, psi0) / e
            with tracer.span("evolution.propagate"):
                psi = propagate(h, phi, t_star)
            with tracer.span("synthesis.is_optimal_speed"):
                verdict = is_optimal_speed(h, phi)
            with tracer.span("synthesis.qsl_time"):
                bound = qsl_time(phi, psi, h)
            with tracer.span("synthesis.equigeodesic_vector_of"):
                x, u = equigeodesic_vector_of(h, phi)
            blocks = BlockStructure((1, n - 1))
            with tracer.span("lie_flag.ad_conjugate"):
                y = ad_conjugate(u.conj().T, x)
            with tracer.span("lie_flag.is_equigeodesic_structural"):
                structural = is_equigeodesic_structural(y, blocks)
            with tracer.span("lie_flag.is_equigeodesic_variational"):
                variational, residual = is_equigeodesic_variational(
                    y, blocks, rng_seed=metric_seed
                )
            with tracer.span("numerics.herm_eig"):
                w, _ = herm_eig(h)
            with tracer.span(
                "synthesis.first_arrival_time.hit",
                grid_points=grid_points(w, horizon),
            ):
                arrival = first_arrival_time(h, phi, psi, horizon)
            fails = []
            if verdict.kind is not Verdict.OPTIMAL:
                fails.append(("hit.verdict", f"verdict {verdict.kind.value}"))
            if not structural:
                fails.append(("hit.structural", "structural certificate rejected U*XU"))
            if not variational:
                fails.append(("hit.variational", f"variational residual {residual!r}"))
            if arrival is None or abs(arrival - bound) > 1e-6:
                fails.append(("hit.arrival", f"arrival {arrival!r} against T={bound!r}"))
            out = [verdict.kind.value, structural, variational, repr(bound), repr(arrival)]
            return out, fails
        return run

    def _miss(self, rng, n, shrink):
        h = _fixed_spread_hermitian(rng, n, 2.0 * math.sqrt(n))
        phi = random_pure_state(rng, n)
        psi = random_pure_state(rng, n)
        horizon = self.HORIZON / shrink

        def run(tracer):
            with tracer.span("numerics.herm_eig"):
                w, _ = herm_eig(h)
            with tracer.span(
                "synthesis.first_arrival_time.miss",
                grid_points=grid_points(w, horizon),
            ):
                arrival = first_arrival_time(h, phi, psi, horizon)
            fails = [] if arrival is None else [("miss.arrival", f"spurious arrival {arrival!r}")]
            return [repr(arrival)], fails
        return run

    def _density(self, rng, n, shrink):
        source, target = _quasi_pure_pair(rng, n)
        h = optimal_hamiltonian(source.distinguished, target.distinguished, self.ENERGY)
        h_miss = _fixed_spread_hermitian(rng, n, 2.0 * math.sqrt(n))
        rho, sigma = quasi_pure(source), quasi_pure(target)
        horizon = self.DENSITY_HORIZON / shrink

        def run(tracer):
            with tracer.span("numerics.herm_eig"):
                w, _ = herm_eig(h)
            with tracer.span(
                "evolution.density_arrival_time.hit", grid_points=grid_points(w, horizon)
            ):
                density_t = density_arrival_time(h, rho, sigma, horizon)
            with tracer.span("synthesis.first_arrival_time.density"):
                pure_t = first_arrival_time(
                    h, source.distinguished, target.distinguished, horizon
                )
            with tracer.span("numerics.herm_eig"):
                w_miss, _ = herm_eig(h_miss)
            with tracer.span(
                "evolution.density_arrival_time.miss",
                grid_points=grid_points(w_miss, horizon),
            ):
                miss_t = density_arrival_time(h_miss, rho, sigma, horizon)
            fails = []
            if density_t is None or pure_t is None or abs(density_t - pure_t) > 1e-7:
                fails.append(
                    ("density.arrival", f"density {density_t!r} against pure {pure_t!r}")
                )
            if miss_t is not None:
                fails.append(("density.miss", f"spurious density arrival {miss_t!r}"))
            return [repr(density_t), repr(pure_t), repr(miss_t)], fails
        return run


# ---------------------------------------------------------------------------
# trajectory: sampled trajectories, diagnostics and a JSON round trip

class TrajectoryRoundTrip(Workload):
    name = "trajectory"
    # p75 keeps 10 ops beyond from 8 rounds on; p90 would need 20 rounds.
    TAIL_CAP = 75.0
    PURE_STEPS = 4000
    DENSITY_STEPS = 1000
    # Five ops a round keep at least ten ops above the median in a short run.
    SCHEDULE = (("pure", 8), ("density", 8), ("pure", 32), ("pure", 8), ("density", 8))

    def round_ops(self, k: int) -> list[Op]:
        return self._ops(self.rng(k), f"r{k}")

    def _ops(self, rng, tag, shrink=1) -> list[Op]:
        make = {"pure": self._pure, "density": self._density}
        return [
            Op(f"{kind}-n{n}", make[kind](rng, n, f"{tag}-{i}.json", shrink))
            for i, (kind, n) in enumerate(self.SCHEDULE)
        ]

    def warm_up(self, tracer) -> None:
        # One op of each kind with a fortieth of the samples.
        ops = self._ops(np.random.default_rng([self.seed, 0]), "warm", shrink=40)
        _run_ops(ops[:2], tracer)

    def memory_probes(self):
        rng = np.random.default_rng([self.seed, 0])
        phi, psi = _distinct_pair(rng, 32)
        h = optimal_family_sample(phi, psi, 1.0, int(rng.integers(2**32)))
        times = np.linspace(0.0, 0.8 * HALF_PI, self.PURE_STEPS + 1)
        spec, _ = _quasi_pure_pair(rng, 8)
        h_density = random_hermitian(rng, 8)
        density_times = np.linspace(0.0, 0.8 * HALF_PI, self.DENSITY_STEPS + 1)
        return [
            ("evolution.sample_trajectory", lambda: sample_trajectory(h, phi, times)),
            ("evolution.sample_trajectory",
             lambda: sample_trajectory(h_density, quasi_pure(spec), density_times)),
        ]

    def _round_trip(self, tracer, traj, filename):
        """Encode, write, read and decode; returns (digest, size, exact)."""
        path = os.path.join(self.workdir, filename)
        with tracer.span("serialization.trajectory_to_json"):
            doc = ser.trajectory_to_json(traj)
        with tracer.span("serialization.save_document") as sp:
            ser.save_document(doc, path)
            size = os.path.getsize(path)
            sp.attrs["bytes"] = size
        with tracer.span("serialization.load_document"):
            loaded = ser.load_document(path)
        with tracer.span("serialization.trajectory_from_json"):
            back = ser.trajectory_from_json(loaded)
        digest = ser.file_digest(path)
        os.remove(path)
        exact = back.times.tobytes() == traj.times.tobytes() and len(back.states) == len(
            traj.states
        )
        if exact and traj.kind == "pure":
            exact = all(
                a.amplitudes.tobytes() == b.amplitudes.tobytes()
                for a, b in zip(traj.states, back.states)
            )
        elif exact:
            exact = all(
                a.matrix.tobytes() == b.matrix.tobytes()
                for a, b in zip(traj.states, back.states)
            )
        return digest, size, exact

    def _pure(self, rng, n, filename, shrink):
        phi, psi = _distinct_pair(rng, n)
        e = float(rng.uniform(0.5, 2.0))
        h = optimal_family_sample(phi, psi, e, int(rng.integers(2**32)))
        times = np.linspace(0.0, 0.8 * HALF_PI / e, self.PURE_STEPS // shrink + 1)

        def run(tracer):
            with tracer.span(
                "evolution.sample_trajectory.pure",
                samples=times.size,
            ):
                traj = sample_trajectory(h, phi, times)
            with tracer.span("evolution.fs_speed_profile"):
                profile = fs_speed_profile(traj)
            with tracer.span("evolution.geodesic_defect"):
                defect = geodesic_defect(traj)
            with tracer.span("evolution.subspace_leakage"):
                leak = subspace_leakage(traj, phi, psi)
            digest, size, exact = self._round_trip(tracer, traj, filename)
            flat = float(np.max(np.abs(profile - e)))
            fails = []
            if not flat <= 1e-6:
                fails.append(("trajectory.profile", f"speed profile off by {flat!r}"))
            if -1e-6 <= defect < -1e-10:
                fails.append(("trajectory.defect-below-floor", f"defect {defect!r}"))
            elif not -1e-10 <= defect <= 1e-6:
                fails.append(("trajectory.defect", f"defect {defect!r}"))
            if not leak <= 1e-10:
                fails.append(("trajectory.leakage", f"leakage {leak!r}"))
            if not exact:
                fails.append(("trajectory.round-trip", "decoded trajectory differs"))
            return [digest, size, repr(flat), repr(defect), repr(leak)], fails
        return run

    def _density(self, rng, n, filename, shrink):
        spec, _ = _quasi_pure_pair(rng, n)
        rho = quasi_pure(spec)
        h = random_hermitian(rng, n)
        times = np.linspace(0.0, 0.8 * HALF_PI, self.DENSITY_STEPS // shrink + 1)

        def run(tracer):
            with tracer.span(
                "evolution.sample_trajectory.density",
                samples=times.size,
            ):
                traj = sample_trajectory(h, rho, times)
            digest, size, exact = self._round_trip(tracer, traj, filename)
            fails = [] if exact else [("trajectory.round-trip", "decoded trajectory differs")]
            return [digest, size], fails
        return run


# ---------------------------------------------------------------------------
# cli: one `python -m optevo.cli ... --json` subprocess per op

class Cli(Workload):
    name = "cli"
    # p75 keeps 10 ops beyond from 7 rounds on; p90 would need 17 rounds.
    TAIL_CAP = 75.0
    N = 8
    EVOLVE_STEPS = 2000
    VERIFY_TRIALS = 10
    COMMANDS = ("synthesize", "check", "synthesize-family", "equigeodesic", "verify", "evolve")

    def round_ops(self, k: int) -> list[Op]:
        return self._ops(self.rng(k), f"r{k}", self.seed + k)

    def warm_up(self, tracer) -> None:
        ops = self._ops(np.random.default_rng([self.seed, 0]), "warm", self.seed)
        _run_ops([op for op in ops if op.label == "check"], tracer)

    def _ops(self, rng, tag, verify_seed) -> list[Op]:
        n = self.N
        phi, psi = _distinct_pair(rng, n)
        e = float(rng.uniform(0.5, 2.0))
        family_seed = int(rng.integers(2**31))
        canonical = optimal_hamiltonian(phi, psi, e)
        family = optimal_family_sample(phi, psi, e, family_seed)
        x, u = equigeodesic_vector_of(family, phi)
        vector = ad_conjugate(u.conj().T, x).matrix
        files = {
            key: os.path.join(self.workdir, f"{tag}-{key}.json")
            for key in ("from", "to", "ham", "vector", "traj")
        }
        save_document(state_to_json(phi), files["from"])
        save_document(state_to_json(psi), files["to"])
        save_document(matrix_to_json(family, "hermitian"), files["ham"])
        save_document(matrix_to_json(vector, "skew-hermitian"), files["vector"])
        t_end = repr(0.8 * HALF_PI / e)
        s = fs_distance(phi, psi)

        def synth_check(expected_t):
            def check(out):
                fails = []
                if out.get("T") is None or abs(out["T"] - expected_t) > 1e-12 * expected_t:
                    fails.append(f"T {out.get('T')!r} against in-process {expected_t!r}")
                if out.get("s") != s or out.get("delta_e") != e:
                    fails.append(f"s/delta_e {out.get('s')!r}/{out.get('delta_e')!r}")
                return fails
            return check

        def check_check(out):
            fails = []
            if out.get("verdict") != "Optimal":
                fails.append(f"verdict {out.get('verdict')!r}")
            if abs(out.get("delta_e", math.inf) - e) > 1e-9 * e:
                fails.append(f"delta_e {out.get('delta_e')!r} against {e!r}")
            return fails

        def check_equigeodesic(out):
            ok = out.get("structural") is True and out.get("variational") is True
            return [] if ok else [f"certificates {out!r}"]

        def check_verify(out):
            rows = out.get("results", [])
            ok = out.get("all_passed") is True and len(rows) == 9
            return [] if ok else [f"{sum(not r['passed'] for r in rows)} of {len(rows)} checks failed"]

        def check_evolve(out):
            fails = []
            if out.get("samples") != self.EVOLVE_STEPS + 1:
                fails.append(f"samples {out.get('samples')!r}")
            if not out.get("norm_residual", math.inf) <= 1e-12:
                fails.append(f"norm residual {out.get('norm_residual')!r}")
            return fails

        specs = {
            "synthesize": (
                ["synthesize", "--from", files["from"], "--to", files["to"],
                 "--energy", repr(e)],
                synth_check(qsl_time(phi, psi, canonical)),
            ),
            "synthesize-family": (
                ["synthesize", "--from", files["from"], "--to", files["to"],
                 "--energy", repr(e), "--family-seed", str(family_seed)],
                synth_check(qsl_time(phi, psi, family)),
            ),
            "check": (["check", "--ham", files["ham"], "--state", files["from"]], check_check),
            "equigeodesic": (
                ["equigeodesic", "--vector", files["vector"], "--blocks", f"1,{n - 1}"],
                check_equigeodesic,
            ),
            "evolve": (
                ["evolve", "--ham", files["ham"], "--state", files["from"], "--t0", "0",
                 "--t1", t_end, "--steps", str(self.EVOLVE_STEPS), "--out", files["traj"]],
                check_evolve,
            ),
            "verify": (
                ["verify", "--suite", "algebra", "--trials", str(self.VERIFY_TRIALS),
                 "--seed", str(verify_seed)],
                check_verify,
            ),
        }
        return [
            Op(name, self._command_op(name, *specs[name], files["traj"]))
            for name in self.COMMANDS
        ]

    def _command_op(self, name, argv, oracle, traj_path):
        def run(tracer):
            with tracer.span("cli." + name) as sp:
                proc = subprocess.run(
                    [sys.executable, "-m", "optevo.cli", *argv, "--json"],
                    capture_output=True, text=True, timeout=120,
                )
            code = "cli." + name
            if proc.returncode != 0:
                return [proc.returncode], [(code, f"exit {proc.returncode}: {proc.stderr[-300:]}")]
            report = json.loads(proc.stdout)
            sp.attrs["report_s"] = report["wall_time_s"]
            outputs = report["outputs"]
            failures = [(code, msg) for msg in oracle(outputs)]
            summary = {k: v for k, v in outputs.items() if k != "out"}
            if name == "evolve":
                summary["sha256"] = ser.file_digest(traj_path)
                os.remove(traj_path)
            return summary, failures
        return run


WORKLOADS = {cls.name: cls for cls in (VerifySuite, ArrivalScan, TrajectoryRoundTrip, Cli)}
