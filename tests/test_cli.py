"""End-to-end tests of the command-line interface.

Every test drives a real subprocess, so the exit codes, stdout format,
and file side effects are exercised exactly as a shell user sees them.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from optevo import DensityMatrix, PureState, Verdict, is_optimal_speed
from optevo.sampling import random_unitary
from optevo.serialization import (
    file_digest,
    load_document,
    matrix_from_json,
    matrix_to_json,
    save_document,
    state_to_json,
    trajectory_from_json,
)
from optevo.quantum_states import Units

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
TILTED = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)

X_LINE_TRUE = np.array([[1j, -1.0, 0.0], [1.0, 1j, 0.0], [0.0, 0.0, -2j]])
X_LINE_FALSE = np.array([[1j, -1.0, 0.0], [1.0, -2j, 0.0], [0.0, 0.0, 1j]])


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "optevo.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def parse_lines(stdout):
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def write_state(path, vec, hbar=None):
    units = None if hbar is None else Units(hbar=hbar)
    save_document(state_to_json(PureState.from_vector(vec), units), str(path))
    return str(path)


def write_matrix(path, m, kind):
    save_document(matrix_to_json(m, kind), str(path))
    return str(path)


@pytest.fixture
def qubit_files(tmp_path):
    return {
        "ket0": write_state(tmp_path / "ket0.json", [1.0, 0.0]),
        "ket1": write_state(tmp_path / "ket1.json", [0.0, 1.0]),
        "sigma_y": write_matrix(tmp_path / "sigma_y.json", SIGMA_Y, "hermitian"),
        "sigma_z": write_matrix(tmp_path / "sigma_z.json", SIGMA_Z, "hermitian"),
        "tilted": write_matrix(tmp_path / "tilted.json", TILTED, "hermitian"),
    }


class TestSynthesize:
    def test_qubit_transfer(self, tmp_path, qubit_files):
        out = tmp_path / "ham.json"
        r = run_cli(
            "synthesize", "--from", qubit_files["ket0"], "--to", qubit_files["ket1"],
            "--energy", 1.0, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        lines = parse_lines(r.stdout)
        assert float(lines["s"]) == pytest.approx(np.pi / 2.0, abs=1e-11)
        assert float(lines["T"]) == pytest.approx(np.pi / 2.0, abs=1e-9)
        matrix, kind = matrix_from_json(load_document(str(out)))
        assert kind == "hermitian"
        assert np.allclose(matrix, SIGMA_Y, atol=1e-12)

    def test_coincident_rays(self, tmp_path, qubit_files):
        out = tmp_path / "ham.json"
        r = run_cli(
            "synthesize", "--from", qubit_files["ket0"], "--to", qubit_files["ket0"],
            "--energy", 1.0, "--out", out,
        )
        assert r.returncode == 4
        lines = parse_lines(r.stdout)
        assert lines["coincident"] == "True"
        assert float(lines["T"]) == 0.0
        assert not out.exists()

    def test_family_seed_changes_generator_not_time(self, tmp_path):
        phi = write_state(tmp_path / "phi.json", [1.0, 0.0, 0.0])
        psi = write_state(tmp_path / "psi.json", [1.0, 1.0, 1.0])
        outputs = []
        times = []
        for seed in (3, 4):
            out = tmp_path / f"fam{seed}.json"
            r = run_cli(
                "synthesize", "--from", phi, "--to", psi, "--energy", 1.0,
                "--family-seed", seed, "--out", out,
            )
            assert r.returncode == 0, r.stderr
            times.append(float(parse_lines(r.stdout)["T"]))
            outputs.append(matrix_from_json(load_document(str(out)))[0])
        assert times[0] == pytest.approx(times[1], abs=1e-12)
        assert np.linalg.norm(outputs[0] - outputs[1]) > 1e-6
        state = PureState.from_vector([1.0, 0.0, 0.0])
        for h in outputs:
            assert is_optimal_speed(h, state).kind is Verdict.OPTIMAL

    def test_hbar_conflict_rejected(self, tmp_path):
        phi = write_state(tmp_path / "phi.json", [1.0, 0.0], hbar=1.0)
        psi = write_state(tmp_path / "psi.json", [0.0, 1.0], hbar=2.0)
        r = run_cli("synthesize", "--from", phi, "--to", psi, "--energy", 1.0)
        assert r.returncode == 2
        assert "hbar" in r.stderr

    def test_hbar_scales_reported_time(self, tmp_path):
        phi = write_state(tmp_path / "phi.json", [1.0, 0.0], hbar=2.0)
        psi = write_state(tmp_path / "psi.json", [0.0, 1.0], hbar=2.0)
        r = run_cli("synthesize", "--from", phi, "--to", psi, "--energy", 1.0)
        assert r.returncode == 0
        assert float(parse_lines(r.stdout)["T"]) == pytest.approx(np.pi, abs=1e-9)

    def test_rejects_nonpositive_energy(self, qubit_files):
        r = run_cli(
            "synthesize", "--from", qubit_files["ket0"], "--to", qubit_files["ket1"],
            "--energy", -1.0,
        )
        assert r.returncode == 2

    def test_missing_flag(self, qubit_files):
        r = run_cli("synthesize", "--from", qubit_files["ket0"], "--energy", 1.0)
        assert r.returncode == 2


class TestCheck:
    def test_optimal(self, qubit_files):
        r = run_cli("check", "--ham", qubit_files["sigma_y"], "--state", qubit_files["ket0"])
        assert r.returncode == 0, r.stderr
        lines = parse_lines(r.stdout)
        assert lines["verdict"] == "Optimal"
        assert float(lines["delta_e"]) == pytest.approx(1.0, abs=1e-11)
        assert float(lines["delta_e_max"]) == pytest.approx(1.0, abs=1e-11)

    def test_suboptimal(self, qubit_files):
        r = run_cli("check", "--ham", qubit_files["tilted"], "--state", qubit_files["ket0"])
        assert r.returncode == 1
        lines = parse_lines(r.stdout)
        assert lines["verdict"] == "Suboptimal"
        assert float(lines["delta_e_max"]) == pytest.approx(np.sqrt(2.0), abs=1e-11)

    def test_stationary(self, qubit_files):
        r = run_cli("check", "--ham", qubit_files["sigma_z"], "--state", qubit_files["ket0"])
        assert r.returncode == 5
        assert parse_lines(r.stdout)["verdict"] == "Stationary"

    def test_nonhermitian_content(self, tmp_path, qubit_files):
        bad = write_matrix(
            tmp_path / "bad.json", np.array([[0.0, 1.0], [0.0, 0.0]]), "hermitian"
        )
        r = run_cli("check", "--ham", bad, "--state", qubit_files["ket0"])
        assert r.returncode == 2

    def test_dimension_mismatch(self, tmp_path, qubit_files):
        big = write_matrix(tmp_path / "big.json", np.eye(3), "hermitian")
        r = run_cli("check", "--ham", big, "--state", qubit_files["ket0"])
        assert r.returncode == 3
        assert r.stderr.startswith("error: DimensionMismatchError: ")

    def test_unreadable_file(self, tmp_path, qubit_files):
        broken = tmp_path / "broken.json"
        broken.write_text("{oops")
        r = run_cli("check", "--ham", str(broken), "--state", qubit_files["ket0"])
        assert r.returncode == 2
        assert r.stderr.startswith("error: SerializationError: ")


class TestEquigeodesic:
    def test_positive(self, tmp_path):
        vec = write_matrix(tmp_path / "x.json", X_LINE_TRUE, "skew-hermitian")
        r = run_cli("equigeodesic", "--vector", vec, "--blocks", "1,2")
        assert r.returncode == 0, r.stderr
        lines = parse_lines(r.stdout)
        assert lines["structural"] == "True"
        assert lines["variational"] == "True"
        assert float(lines["max_residual"]) < 1e-9

    def test_negative(self, tmp_path):
        vec = write_matrix(tmp_path / "x.json", X_LINE_FALSE, "skew-hermitian")
        r = run_cli("equigeodesic", "--vector", vec, "--blocks", "1,2")
        assert r.returncode == 1
        assert float(parse_lines(r.stdout)["max_residual"]) > 1e-3

    def test_blocks_sum_mismatch(self, tmp_path):
        vec = write_matrix(tmp_path / "x.json", X_LINE_TRUE, "skew-hermitian")
        r = run_cli("equigeodesic", "--vector", vec, "--blocks", "1,1")
        assert r.returncode == 3

    def test_malformed_blocks(self, tmp_path):
        vec = write_matrix(tmp_path / "x.json", X_LINE_TRUE, "skew-hermitian")
        r = run_cli("equigeodesic", "--vector", vec, "--blocks", "1,x")
        assert r.returncode == 2

    def test_rejects_hermitian_content(self, tmp_path):
        vec = write_matrix(tmp_path / "x.json", SIGMA_Z, "skew-hermitian")
        r = run_cli("equigeodesic", "--vector", vec, "--blocks", "1,1")
        assert r.returncode == 2


class TestEvolve:
    def test_pure_trajectory_file(self, tmp_path, qubit_files):
        out = tmp_path / "traj.json"
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", qubit_files["ket0"],
            "--t0", 0.0, "--t1", np.pi, "--steps", 10, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        lines = parse_lines(r.stdout)
        assert lines["samples"] == "11"
        assert float(lines["norm_residual"]) < 1e-12
        traj = trajectory_from_json(load_document(str(out)))
        assert traj.kind == "pure"
        assert traj.times.size == 11

    def test_density_trajectory_file(self, tmp_path, qubit_files):
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.7, 0.3]), "density")
        out = tmp_path / "dtraj.json"
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", rho, "--density",
            "--t0", 0.0, "--t1", 2.0, "--steps", 8, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        lines = parse_lines(r.stdout)
        assert float(lines["trace_residual"]) < 1e-12
        assert float(lines["spectrum_residual"]) < 1e-12
        traj = trajectory_from_json(load_document(str(out)))
        assert traj.kind == "density"

    @pytest.mark.parametrize("density", [False, True])
    def test_residuals_at_n8(self, tmp_path, density):
        # The benchmark's evolve size. The residuals come from the stacked
        # samples; the per-state loop they replaced reads the same values
        # off the written file.
        rng = np.random.default_rng(8)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ham = write_matrix(tmp_path / "h.json", h + h.conj().T, "hermitian")
        if density:
            u = random_unitary(rng, 8)
            rho = DensityMatrix((u * np.linspace(0.2, 0.05, 8)) @ u.conj().T)
            state = write_matrix(tmp_path / "rho.json", rho.matrix, "density")
        else:
            vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            state = write_state(tmp_path / "phi.json", vec)
        out = tmp_path / "traj.json"
        r = run_cli(
            "evolve", "--ham", ham, "--state", state, *(["--density"] if density else []),
            "--t0", 0.0, "--t1", 3.0, "--steps", 2000, "--out", out, "--json",
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(r.stdout)["outputs"]
        traj = trajectory_from_json(load_document(str(out)))
        if density:
            base = np.sort(np.linalg.eigvalsh(rho.matrix))
            trace = max(abs(complex(np.trace(s.matrix)) - 1.0) for s in traj.states)
            spectrum = max(
                float(np.max(np.abs(np.sort(np.linalg.eigvalsh(s.matrix)) - base)))
                for s in traj.states
            )
            assert report["trace_residual"] < 1e-12
            assert report["spectrum_residual"] < 1e-12
            assert report["trace_residual"] == pytest.approx(trace, abs=1e-15)
            assert report["spectrum_residual"] == pytest.approx(spectrum, abs=1e-15)
        else:
            norm = max(abs(float(np.linalg.norm(s.amplitudes)) - 1.0) for s in traj.states)
            assert report["norm_residual"] < 1e-12
            assert report["norm_residual"] == pytest.approx(norm, abs=1e-15)

    def test_single_sample(self, tmp_path, qubit_files):
        out = tmp_path / "one.json"
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", qubit_files["ket0"],
            "--t0", 0.5, "--t1", 0.5, "--steps", 0, "--out", out,
        )
        assert r.returncode == 0
        assert parse_lines(r.stdout)["samples"] == "1"

    def test_reversed_window(self, tmp_path, qubit_files):
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", qubit_files["ket0"],
            "--t0", 1.0, "--t1", 0.0, "--steps", 4, "--out", tmp_path / "x.json",
        )
        assert r.returncode == 2

    def test_oversized_integer_in_state(self, tmp_path, qubit_files):
        big = tmp_path / "big.json"
        big.write_text('{"n": 2, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400))
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", big,
            "--t0", 0.0, "--t1", 1.0, "--steps", 2, "--out", tmp_path / "x.json",
        )
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr

    def test_density_flag_on_pure_doc(self, tmp_path, qubit_files):
        unit = write_matrix(tmp_path / "u.json", np.eye(2), "unitary")
        r = run_cli(
            "evolve", "--ham", qubit_files["sigma_y"], "--state", unit, "--density",
            "--t0", 0.0, "--t1", 1.0, "--steps", 2, "--out", tmp_path / "x.json",
        )
        assert r.returncode == 2


class TestVerify:
    def test_small_suite_passes(self):
        r = run_cli("verify", "--suite", "synthesis", "--trials", 1, "--seed", 7)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "[PASS]" in r.stdout
        assert "[FAIL]" not in r.stdout
        assert "suite=synthesis" in r.stdout

    def test_negative_control_fails(self):
        r = run_cli(
            "verify", "--suite", "synthesis", "--trials", 1, "--seed", 7,
            "--negative-control",
        )
        assert r.returncode == 1
        assert "[FAIL]" in r.stdout

    def test_zero_trials_rejected(self):
        r = run_cli("verify", "--suite", "algebra", "--trials", 0, "--seed", 7)
        assert r.returncode == 2
        assert r.stderr == "error: ValueError: --trials must be at least 1\n"

    def test_unknown_suite_rejected(self):
        r = run_cli("verify", "--suite", "bogus", "--trials", 1, "--seed", 7)
        assert r.returncode == 2


class TestJsonReports:
    def test_synthesize_report(self, tmp_path, qubit_files):
        out = tmp_path / "ham.json"
        r = run_cli(
            "synthesize", "--from", qubit_files["ket0"], "--to", qubit_files["ket1"],
            "--energy", 1.0, "--out", out, "--json",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["command"] == "synthesize"
        assert doc["inputs"]["from"]["sha256"] == file_digest(qubit_files["ket0"])
        assert doc["outputs"]["T"] == pytest.approx(np.pi / 2.0, abs=1e-9)
        assert doc["outputs"]["out"] == str(out)
        assert doc["wall_time_s"] >= 0.0

    def test_check_report_keeps_exit_code(self, qubit_files):
        r = run_cli(
            "check", "--ham", qubit_files["sigma_z"], "--state", qubit_files["ket0"],
            "--json",
        )
        assert r.returncode == 5
        doc = json.loads(r.stdout)
        assert doc["outputs"]["verdict"] == "Stationary"

    def test_verify_report_rows(self):
        r = run_cli(
            "verify", "--suite", "algebra", "--trials", 1, "--seed", 3, "--json"
        )
        assert r.returncode == 0, r.stdout + r.stderr
        doc = json.loads(r.stdout)
        rows = doc["outputs"]["results"]
        assert doc["outputs"]["all_passed"] is True
        assert all(row["passed"] for row in rows)
        assert {"name", "suite", "max_residual", "bound", "trials"} <= set(rows[0])

    def test_json_mode_is_sole_stdout(self, qubit_files):
        r = run_cli(
            "check", "--ham", qubit_files["sigma_y"], "--state", qubit_files["ket0"],
            "--json",
        )
        json.loads(r.stdout)  # a single JSON document and nothing else


class TestParserErrors:
    def test_unknown_command(self):
        assert run_cli("transmogrify").returncode == 2

    def test_no_command(self):
        assert run_cli().returncode == 2
