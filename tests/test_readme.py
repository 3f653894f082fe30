"""The README's quick start runs as written and prints what it promises."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    limit, verdict, arrival = capsys.readouterr().out.splitlines()
    assert float(limit) == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert verdict == "Verdict.OPTIMAL"
    assert float(arrival) == pytest.approx(float(limit), abs=1e-9)
