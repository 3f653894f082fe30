"""The demo scripts run to completion and print their conclusions."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, conclusion",
    [
        (
            "optimal_family_demo.py",
            ["--n", "4", "--members", "3", "--seed", "11"],
            "spectra differ, the driven ray motion does not",
        ),
        (
            "qubit_transfer_demo.py",
            ["--energies", "0.5", "1"],
            "the travel time is linear in the ray angle",
        ),
    ],
)
def test_demo_runs(name, args, conclusion):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert conclusion in result.stdout
