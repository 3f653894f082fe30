import gc
import os
from pathlib import Path

import numpy as np
import pytest

from optevo import numerics

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment for a child Python process: this one's, with the
    checkout's ``src`` first on PYTHONPATH, so the child imports the
    optevo under test whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture(autouse=True)
def forget_factorization():
    """Empty ``herm_eig``'s remembered factorization before each test, so
    no test depends on which generator an earlier test factorized."""
    numerics._remembered[0] = None


@pytest.fixture
def record_eigh(monkeypatch):
    """Patch numpy's two Hermitian eigensolvers to record each call;
    returns a function that empties ``herm_eig``'s memory, starts
    recording and gives the list of solver names, one per call."""

    def patch():
        numerics._remembered[0] = None
        calls = []
        for name in ("eigh", "eigvalsh"):

            def recording(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        return calls

    return patch


@pytest.fixture
def record_scans(monkeypatch):
    """Patch the arrival scan, ``numerics._scan_arrival``, which the ray
    and Frobenius scans share, to record the counters of each call, with
    the gate and the margin it was given; returns the list they are
    appended to. A call its floor decides counts its grid's points and
    step, no chunk and no evaluated value, and every cell as screened."""
    stats = []
    scan_arrival = numerics._scan_arrival

    def recording(*args):
        arrival, scan = scan_arrival(*args)
        stats.append(dict(scan, gate=args[9], margin=args[10]))
        return arrival, scan

    monkeypatch.setattr(numerics, "_scan_arrival", recording)
    return stats


@pytest.fixture
def record_newton(monkeypatch):
    """Patch the arrival scans' refinement to record the derivative
    evaluations each refined minimum takes; returns the list they are
    appended to."""
    steps = []
    newton_min = numerics._newton_min

    def recording(*args):
        t, count = newton_min(*args)
        steps.append(count)
        return t, count

    monkeypatch.setattr(numerics, "_newton_min", recording)
    return steps


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Run the test with the cyclic garbage collector enabled or disabled,
    as a caller may have left it; the session's state comes back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def collections_in():
    """A function that runs ``call()`` after a full collection and returns
    the generations of the collections that start while it runs, with its
    result."""

    def run(call):
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            result = call()
        finally:
            gc.callbacks.remove(record)
        return started, result

    return run
