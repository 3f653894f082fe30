import numpy as np
import pytest

from optevo import numerics


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


@pytest.fixture
def record_scans(monkeypatch):
    """Patch a module's arrival scan to record the counters of each call;
    returns the list they are appended to."""

    def patch(module):
        stats = []

        def recording(*args, **kwargs):
            arrival, scan = numerics._scan_arrival(*args, **kwargs)
            stats.append(scan)
            return arrival, scan

        monkeypatch.setattr(module, "_scan_arrival", recording)
        return stats

    return patch
