"""Command-line front end.

Five subcommands: ``synthesize`` builds a generator reaching a target ray
at a chosen uncertainty, ``check`` classifies a generator against a state,
``equigeodesic`` certifies an algebra direction, ``evolve`` samples a
trajectory to a JSON file, and ``verify`` runs the seeded property suites.

Exit codes, shared across subcommands:

* 0  success (and, for decision commands, a positive verdict)
* 1  negative verdict or failed checks
* 2  malformed input: bad flags, unreadable or ill-formed files, content
     that fails its structural validation
* 3  dimension mismatch between otherwise well-formed inputs
* 4  synthesize: the two rays coincide, nothing to synthesize
* 5  check: the state is stationary for the generator

With ``--json`` the only stdout is a run report object carrying the same
facts machine-readably, plus input digests and wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import (
    BlockStructureError,
    DimensionMismatchError,
    SerializationError,
)
from .evolution import sample_trajectory
from .lie_flag import (
    BlockStructure,
    SuVector,
    is_equigeodesic_structural,
    is_equigeodesic_variational,
)
from .numerics import DEFAULT_TOLERANCES
from .quantum_states import DensityMatrix, Units, fs_distance
from .serialization import (
    file_digest,
    load_document,
    matrix_from_json,
    matrix_to_json,
    save_document,
    state_from_json,
    trajectory_to_json,
)
from .synthesis import (
    is_optimal_speed,
    optimal_family_sample,
    optimal_hamiltonian,
    qsl_time,
    Verdict,
)
from .verification import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _block_list(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        )
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optevo",
        description="Synthesis and certification of maximal-speed quantum evolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "synthesize",
        help="build a generator driving one ray to another at a set uncertainty",
    )
    p.add_argument("--from", dest="source", required=True, metavar="STATE.json")
    p.add_argument("--to", dest="target", required=True, metavar="STATE.json")
    p.add_argument("--energy", required=True, type=_positive_float,
                   help="energy uncertainty of the synthesized generator")
    p.add_argument("--family-seed", type=int, default=None,
                   help="sample a non-canonical member of the optimal family")
    p.add_argument("--out", default=None, metavar="HAM.json")
    p.add_argument("--json", action="store_true", help="emit a run report only")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "check", help="classify a generator as Optimal, Suboptimal, or Stationary"
    )
    p.add_argument("--ham", required=True, metavar="HAM.json")
    p.add_argument("--state", required=True, metavar="STATE.json")
    p.add_argument("--json", action="store_true", help="emit a run report only")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "equigeodesic", help="certify an algebra direction against a block structure"
    )
    p.add_argument("--vector", required=True, metavar="SKEW.json")
    p.add_argument("--blocks", required=True, type=_block_list, metavar="1,2",
                   help="block sizes of the isotropy partition")
    p.add_argument("--samples", type=_positive_int, default=16,
                   help="number of random metrics for the variational test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit a run report only")
    p.set_defaults(func=cmd_equigeodesic)

    p = sub.add_parser("evolve", help="sample a trajectory into a JSON file")
    p.add_argument("--ham", required=True, metavar="HAM.json")
    p.add_argument("--state", required=True, metavar="STATE.json",
                   help="pure state, or density matrix with --density")
    p.add_argument("--t0", required=True, type=float)
    p.add_argument("--t1", required=True, type=float)
    p.add_argument("--steps", required=True, type=_nonneg_int,
                   help="number of intervals; the file gets steps+1 samples")
    p.add_argument("--density", action="store_true",
                   help="treat --state as a density matrix")
    p.add_argument("--out", required=True, metavar="TRAJ.json")
    p.add_argument("--json", action="store_true", help="emit a run report only")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--n-max", type=_positive_int, default=8)
    p.add_argument("--negative-control", action="store_true",
                   help="append a deliberately failing check")
    p.add_argument("--json", action="store_true", help="emit a run report only")
    p.set_defaults(func=cmd_verify)

    return parser


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


class _Report:
    """Accumulates the run report; prints either plain lines or JSON."""

    def __init__(self, command: str, as_json: bool, seed=None):
        self.doc = {
            "command": command,
            "inputs": {},
            "outputs": {},
            "seed": seed,
            "wall_time_s": None,
        }
        self.as_json = as_json
        self.start = time.perf_counter()

    def input_file(self, flag: str, path: str) -> None:
        self.doc["inputs"][flag] = {"path": path, "sha256": file_digest(path)}

    def line(self, key: str, value) -> None:
        self.doc["outputs"][key] = value
        if not self.as_json:
            shown = _fmt(value) if isinstance(value, float) else value
            print(f"{key}={shown}")

    def plain(self, text: str) -> None:
        if not self.as_json:
            print(text)

    def finish(self, code: int) -> int:
        self.doc["wall_time_s"] = time.perf_counter() - self.start
        if self.as_json:
            json.dump(self.doc, sys.stdout, allow_nan=False, separators=(",", ":"))
            print()
        return code


def _load_state(path: str):
    doc = load_document(path)
    return state_from_json(doc)


def _load_matrix(path: str) -> np.ndarray:
    doc = load_document(path)
    matrix, _ = matrix_from_json(doc)
    return matrix


def _resolve_units(*candidates: Units | None) -> Units:
    chosen = None
    for units in candidates:
        if units is None:
            continue
        if chosen is not None and units.hbar != chosen.hbar:
            raise SerializationError(
                "input files disagree about hbar; re-export them consistently"
            )
        chosen = units
    return chosen if chosen is not None else Units()


def cmd_synthesize(args) -> int:
    report = _Report("synthesize", args.json, seed=args.family_seed)
    report.input_file("from", args.source)
    report.input_file("to", args.target)
    phi, units_a = _load_state(args.source)
    psi, units_b = _load_state(args.target)
    units = _resolve_units(units_a, units_b)
    gap = fs_distance(phi, psi)
    report.line("s", gap)
    if gap <= DEFAULT_TOLERANCES.spectral:
        report.line("T", 0.0)
        report.line("coincident", True)
        report.plain("the rays coincide; nothing to synthesize")
        return report.finish(4)
    if args.family_seed is None:
        h = optimal_hamiltonian(phi, psi, args.energy)
    else:
        h = optimal_family_sample(phi, psi, args.energy, args.family_seed)
    report.line("delta_e", float(args.energy))
    report.line("T", qsl_time(phi, psi, h, units))
    if args.out is not None:
        save_document(matrix_to_json(h, "hermitian"), args.out)
        report.line("out", args.out)
    return report.finish(0)


def cmd_check(args) -> int:
    report = _Report("check", args.json)
    report.input_file("ham", args.ham)
    report.input_file("state", args.state)
    h = _load_matrix(args.ham)
    phi, _ = _load_state(args.state)
    verdict = is_optimal_speed(h, phi)
    report.line("verdict", verdict.kind.value)
    report.line("delta_e", verdict.delta_e)
    report.line("delta_e_max", verdict.delta_e_max)
    report.line("residual", verdict.residual)
    if verdict.kind is Verdict.OPTIMAL:
        return report.finish(0)
    if verdict.kind is Verdict.STATIONARY:
        return report.finish(5)
    return report.finish(1)


def cmd_equigeodesic(args) -> int:
    report = _Report("equigeodesic", args.json, seed=args.seed)
    report.input_file("vector", args.vector)
    matrix = _load_matrix(args.vector)
    vector = SuVector(matrix)
    blocks = BlockStructure(args.blocks)
    if blocks.n != vector.dim:
        raise DimensionMismatchError(
            f"blocks sum to {blocks.n} but the vector has dimension {vector.dim}"
        )
    structural = is_equigeodesic_structural(vector, blocks)
    variational, residual = is_equigeodesic_variational(
        vector, blocks, samples=args.samples, rng_seed=args.seed
    )
    report.line("structural", bool(structural))
    report.line("variational", bool(variational))
    report.line("max_residual", residual)
    return report.finish(0 if structural and variational else 1)


def cmd_evolve(args) -> int:
    report = _Report("evolve", args.json)
    report.input_file("ham", args.ham)
    report.input_file("state", args.state)
    h = _load_matrix(args.ham)
    if args.t1 < args.t0:
        raise ValueError("--t1 must not be less than --t0")
    if args.steps == 0 or args.t1 == args.t0:
        times = np.array([args.t0])
    else:
        times = np.linspace(args.t0, args.t1, args.steps + 1)
    if args.density:
        doc = load_document(args.state)
        matrix, kind = matrix_from_json(doc)
        if kind not in ("density", "hermitian"):
            raise SerializationError(
                f"--density expects a density document, got kind {kind!r}"
            )
        state = DensityMatrix(matrix)
        units = Units()
    else:
        state, file_units = _load_state(args.state)
        units = _resolve_units(file_units)
    traj = sample_trajectory(h, state, times, units)
    save_document(trajectory_to_json(traj), args.out)
    report.line("samples", len(times))
    if args.density:
        traces = np.trace(traj.samples, axis1=1, axis2=2)
        drift = np.linalg.eigvalsh(traj.samples) - np.linalg.eigvalsh(state.matrix)
        report.line("trace_residual", float(np.max(np.abs(traces - 1.0))))
        report.line("spectrum_residual", float(np.max(np.abs(drift))))
    else:
        norms = np.linalg.norm(traj.samples, axis=1)
        report.line("norm_residual", float(np.max(np.abs(norms - 1.0))))
    report.line("out", args.out)
    return report.finish(0)


def cmd_verify(args) -> int:
    report = _Report("verify", args.json, seed=args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    results = run_suite(
        args.suite,
        args.trials,
        args.seed,
        n_max=args.n_max,
        negative_control=args.negative_control,
    )
    rows = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        report.plain(
            f"[{status}] {r.name:<30} residual={r.max_residual:.3e} "
            f"bound={r.bound:.3e} trials={r.trials}"
            + (f"  ({r.detail})" if r.detail else "")
        )
        residual = float(r.max_residual)
        rows.append(
            {
                "name": r.name,
                "suite": r.suite,
                "passed": bool(r.passed),
                "max_residual": residual if math.isfinite(residual) else None,
                "bound": float(r.bound),
                "trials": int(r.trials),
                "detail": r.detail,
            }
        )
    passed = sum(r.passed for r in results)
    all_passed = passed == len(results)
    report.plain(
        f"suite={args.suite} passed={passed}/{len(results)} "
        f"trials={args.trials} seed={args.seed}"
    )
    report.doc["outputs"]["results"] = rows
    report.doc["outputs"]["all_passed"] = all_passed
    return report.finish(0 if all_passed else 1)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DimensionMismatchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SerializationError, BlockStructureError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
