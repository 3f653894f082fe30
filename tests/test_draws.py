"""The bounded rejection draws of the check table.

Every rejection loop in ``verification`` draws through ``_draw``. The
reference loops below are the unbounded ones the check table ran before;
wherever those ended, the bounded draws return the same values and leave
the generator in the same state. A draw that runs out fails its row with
a detail line naming the draw and the dimension.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from optevo import verification
from optevo.evolution import propagate
from optevo.numerics import herm_eig
from optevo.quantum_states import PureState, fs_distance
from optevo.sampling import random_hermitian, random_pure_state, random_unitary
from optevo.synthesis import adapted_blocks, qsl_time
from optevo.verification import HALF_PI, run_suite


def reference_distinct_pair(rng, n, lo=0.1, hi=1.47):
    while True:
        phi = random_pure_state(rng, n)
        psi = random_pure_state(rng, n)
        if lo <= fs_distance(phi, psi) <= hi:
            return phi, psi


def reference_violating_generator(rng, n, coupling_min, complement_min, defect_min):
    while True:
        h = random_hermitian(rng, n)
        phi = random_pure_state(rng, n)
        blocks = adapted_blocks(h, phi)
        x, comp = blocks.coupling, blocks.complement
        defect = float(np.linalg.norm(comp @ x - blocks.mean_energy * x))
        coupling_norm = float(np.linalg.norm(x))
        comp_norm = float(np.linalg.norm(comp))
        if (
            coupling_norm > coupling_min
            and comp_norm > complement_min
            and defect / max(1.0, comp_norm * coupling_norm) > defect_min
        ):
            return h, phi


def reference_violating_passage(rng, n):
    while True:
        h, phi = reference_violating_generator(rng, n, 0.2, 0.3, 0.3)
        w, _ = herm_eig(h)
        spread = float(w[-1] - w[0]) / 2.0
        best = None
        for frac in np.linspace(0.3, 1.2, 10):
            t_c = float(frac) / spread * HALF_PI
            psi = propagate(h, phi, t_c)
            if fs_distance(phi, psi) < 0.05:
                continue
            bound = qsl_time(phi, psi, h)
            gap = (t_c - bound) / bound
            if best is None or gap > best[3]:
                best = (h, phi, t_c, gap, bound)
        if best is not None and best[3] > 5e-3:
            return best[0], best[1], best[2], best[4]


def reference_overlapping_pair(rng, n):
    """The loop that opened ``phase-gauge-independence``'s trial."""
    while True:
        phi = random_pure_state(rng, n)
        psi = random_pure_state(rng, n)
        if abs(phi.overlap(psi)) > 0.05 and fs_distance(phi, psi) > 0.05:
            return phi, psi


def reference_quasi_pure_ends(rng, n):
    """The two loops that opened ``quasi-pure-reduction``'s trial."""
    while True:
        source_frame = random_unitary(rng, n)
        target_frame = random_unitary(rng, n)
        gap = fs_distance(PureState(source_frame[:, 0]), PureState(target_frame[:, 0]))
        if 0.15 <= gap <= 1.45:
            break
    while True:
        p1 = float(rng.uniform(0.01, 0.95))
        if abs(p1 - 1.0 / n) >= 0.05:
            break
    return (source_frame, target_frame), p1


class _Enough(Exception):
    pass


def opening_draws(check, count):
    """A function ``(rng, n) -> draws`` that runs ``check``'s one-trial body
    at dimension ``n`` and stops it right after its first ``count`` draws
    through ``_draw``, returning them."""
    body = inspect.unwrap(check)

    def run(rng, n):
        seen = []
        real = verification._draw

        def spy(*args):
            seen.append(real(*args))
            if len(seen) == count:
                raise _Enough
            return seen[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verification, "_draw", spy)
            with pytest.raises(_Enough):
                body(rng, n, 0)
        return tuple(seen) if count > 1 else seen[0]

    return run


def as_bytes(drawn):
    """A draw as nested tuples of bytes, so that equality is bit for bit."""
    if isinstance(drawn, tuple):
        return tuple(as_bytes(part) for part in drawn)
    if isinstance(drawn, PureState):
        return drawn.amplitudes.tobytes()
    return np.asarray(drawn).tobytes()


# site name -> (the bounded draw, the unbounded reference)
SITES = {
    "distinct-pair": (verification._distinct_pair, reference_distinct_pair),
    "violating-generator-strict-gap": (
        lambda rng, n: verification._violating_generator(rng, n, 1e-6, 0.1, 0.1),
        lambda rng, n: reference_violating_generator(rng, n, 1e-6, 0.1, 0.1),
    ),
    "violating-passage": (verification._violating_passage, reference_violating_passage),
    "phase-gauge-pair": (
        opening_draws(verification.check_phase_gauge_independence, 1),
        reference_overlapping_pair,
    ),
    "quasi-pure-ends": (
        opening_draws(verification.check_quasi_pure_reduction, 2),
        reference_quasi_pure_ends,
    ),
}


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("site", SITES)
def test_bounded_draws_match_the_unbounded_loops(site, n):
    bounded, reference = SITES[site]
    for seed in range(50):
        rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        assert as_bytes(bounded(rng, n)) == as_bytes(reference(ref_rng, n)), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def test_a_draw_that_runs_out_raises_with_its_name_and_dimension(monkeypatch):
    monkeypatch.setattr(verification, "_DRAWS", 1)
    made = []
    with pytest.raises(verification._Fail) as fail:
        verification._draw(lambda: made.append(None), lambda drawn: False, "widget", 7)
    assert made == [None]
    assert fail.value.detail == "no widget in 1 draws at n = 7"
    assert fail.value.residual == np.inf


# row name -> the first draw its trial takes through _draw
DRAWING_ROWS = {
    "synthesis-roundtrip": "distinct ray pair",
    "saturation-equivalence": "distinct ray pair",
    "strict-gap-when-violated": "violating generator",
    "qsl-arrival-consistency": "distinct ray pair",
    "family-trajectory-match": "distinct ray pair",
    "phase-gauge-independence": "overlapping ray pair",
    "speed-profile-flat": "distinct ray pair",
    "geodesic-defect-sign": "distinct ray pair",
    "subspace-confinement": "distinct ray pair",
    "quasi-pure-reduction": "frame pair",
}


def test_rows_whose_draws_run_out_fail_naming_the_dimension(monkeypatch):
    real = verification._draw
    monkeypatch.setattr(verification, "_DRAWS", 1)
    monkeypatch.setattr(
        verification, "_draw",
        lambda make, accept, what, n: real(make, lambda drawn: False, what, n),
    )
    rows = run_suite("all", 2, 5, n_max=3)
    failed = {r.name: r.detail for r in rows if not r.passed}
    assert set(failed) == set(DRAWING_ROWS)
    for name, what in DRAWING_ROWS.items():
        assert re.fullmatch(f"no {what} in 1 draws at n = [23]", failed[name]), name


def test_the_check_table_has_no_unbounded_loop():
    source = Path(verification.__file__).read_text()
    assert not re.search(r"\bwhile\s+(True|1)\b", source)
