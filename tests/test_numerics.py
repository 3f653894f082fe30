"""Unit tests for the dense-matrix substrate.

Fixed-input expectations were computed by hand from the closed forms:
2x2 Pauli exponentials via exp(-i t n.sigma) = cos(t) I - i sin(t) n.sigma,
eigenvalues of diagonal matrices by inspection.
"""

import dataclasses
import gc
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo import (
    DimensionMismatchError,
    EigenConvergenceError,
    NotHermitianError,
    StationaryStateError,
    frobenius,
    herm_eig,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    unitary_exp,
)
import optevo
from optevo import DensityMatrix, PureState, SuVector, numerics
from optevo.numerics import _newton_min, _scan_arrival, as_matrix

ATOL = 1e-12
RECON_TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class TestShapeGate:
    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.ones(3))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            as_matrix(np.zeros((0, 0)))

    def test_accepts_nested_list(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == complex
        assert a.shape == (2, 2)


class TestThresholds:
    def test_constants(self):
        assert numerics.STRUCTURAL_TOL == 1e-10
        assert numerics.SPECTRAL_TOL == 1e-12
        assert numerics.SEARCH_TOL == 1e-9

    def test_no_threshold_knob(self):
        # The thresholds are fixed: no public callable takes them and no
        # state class carries them.
        for name in optevo.__all__:
            obj = getattr(optevo, name)
            is_error = isinstance(obj, type) and issubclass(obj, Exception)
            if callable(obj) and not is_error:
                assert "tol" not in inspect.signature(obj).parameters, name
        for cls in (PureState, DensityMatrix, SuVector):
            assert "tol" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


class TestPredicates:
    def test_hermitian_true(self):
        assert is_hermitian(SIGMA_X)
        assert is_hermitian(SIGMA_Y)

    def test_hermitian_false(self):
        assert not is_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_skew_hermitian(self):
        assert is_skew_hermitian(1j * SIGMA_Z)
        assert not is_skew_hermitian(SIGMA_Z)

    def test_unitary(self):
        assert is_unitary(np.eye(3))
        assert not is_unitary(2.0 * np.eye(3))

    def test_scale_relative_threshold(self):
        # A relative defect of 1e-12 on a matrix of norm 1e6 passes even
        # though the absolute defect is far above the bare tolerance.
        big = 1e6 * np.eye(2, dtype=complex)
        big[0, 1] = 1e-6
        big[1, 0] = 1e-6 * (1 + 1e-12)
        assert is_hermitian(big)

    def test_no_absolute_floor(self):
        # The defect is judged against STRUCTURAL_TOL |M|_F alone, as
        # SuVector judges it: a floor of 1 passed both of these.
        assert not is_skew_hermitian(1e-11 * np.diag([1.0, -1.0]))
        with pytest.raises(NotHermitianError):
            herm_eig(1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        zero = np.zeros((3, 3))
        assert is_hermitian(zero) and is_skew_hermitian(zero)


class TestFrobenius:
    def test_diagonal_oracle(self):
        # sqrt(3^2 + 4^2) = 5
        assert frobenius(np.diag([3.0, 4.0])) == pytest.approx(5.0, abs=ATOL)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            frobenius(np.ones((1, 2)))


class TestHermEig:
    def test_diagonal_oracle(self):
        w, v = herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=ATOL)
        # Eigenvectors of a diagonal matrix are coordinate axes, returned
        # in ascending eigenvalue order.
        assert abs(abs(v[1, 0]) - 1.0) < ATOL
        assert abs(abs(v[2, 1]) - 1.0) < ATOL
        assert abs(abs(v[0, 2]) - 1.0) < ATOL

    def test_pauli_x_oracle(self):
        w, v = herm_eig(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0], atol=ATOL)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - SIGMA_X) < RECON_TOL

    def test_rejects_nonhermitian(self):
        # Errors are never remembered: a repeat raises again. The message
        # names the defect |A - A*|_F, here sqrt 2.
        for _ in range(2):
            with pytest.raises(
                NotHermitianError, match=r"^hermiticity defect 1\.414e\+00 exceeds tolerance$"
            ):
                herm_eig([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "entry", [1e200, np.inf, np.nan], ids=["norm-overflows", "inf", "nan"]
    )
    def test_rejects_a_nonfinite_norm(self, entry):
        # Against |A|_F = inf the scale-relative gate passed any defect.
        # The overflow raises no warning on the way to the error.
        a = np.array([[entry, 1j * entry], [-1j * entry, entry]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\|A\|_F is (inf|nan): "):
                herm_eig(a)


    def test_convergence_failure_is_wrapped(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        herm_eig(SIGMA_Z)
        _, v = herm_eig(SIGMA_X)
        monkeypatch.setattr(np.linalg, "eigh", boom)
        # The last factorization is served without the solver; SIGMA_Z,
        # factorized before it, is factorized afresh and fails every time.
        assert herm_eig(SIGMA_X.copy())[1] is v
        for _ in range(2):
            with pytest.raises(EigenConvergenceError):
                herm_eig(SIGMA_Z)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_bit_equal_to_direct_eigh(self, rng, layout):
        h = layout(random_hermitian(rng, 7))
        want_w, want_v = np.linalg.eigh((h + h.conj().T) / 2.0)
        for _ in range(2):
            w, v = herm_eig(h)
            assert w.tobytes() == want_w.tobytes()
            assert v.tobytes() == want_v.tobytes()

    def test_outputs_are_read_only(self):
        w, v = herm_eig(SIGMA_Y)
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_writing_into_the_input_refactorizes(self, rng):
        h = random_hermitian(rng, 5)
        before, _ = herm_eig(h)
        h[0, 0] += 1.0
        w, v = herm_eig(h)
        assert w.tobytes() == np.linalg.eigh((h + h.conj().T) / 2.0)[0].tobytes()
        assert not np.array_equal(w, before)
        assert np.linalg.norm((v * w) @ v.conj().T - h) < RECON_TOL

    def test_remembers_one_factorization(self, rng):
        # One slot: a second generator's factorization replaces the first's,
        # which is then factorized afresh.
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        first = herm_eig(a)
        assert herm_eig(a) is first
        second = herm_eig(b)
        assert len(numerics._remembered) == 1
        key, factors = numerics._remembered[0]
        assert key == b.tobytes() and factors is second
        again = herm_eig(a)
        assert again is not first and again[0].tobytes() == first[0].tobytes()

    def test_lookup_by_content(self, rng):
        # An equal copy hits, whatever its layout; one ulp in one entry misses.
        h = random_hermitian(rng, 6)
        factors = herm_eig(h)
        assert herm_eig(h.copy()) is factors
        assert herm_eig(np.asfortranarray(h)) is factors
        nudged = h.copy()
        nudged[2, 2] = np.nextafter(nudged[2, 2].real, np.inf)
        moved = herm_eig(nudged)
        assert moved is not factors
        assert numerics._remembered[0][0] == nudged.tobytes()
        assert moved[0].tobytes() == np.linalg.eigh((nudged + nudged.conj().T) / 2.0)[0].tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
    def test_reconstruction_property(self, n, seed):
        h = random_hermitian(np.random.default_rng(seed), n)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) >= -1e-13)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < RECON_TOL
        assert np.linalg.norm((v * w) @ v.conj().T - h) < RECON_TOL * max(1.0, np.linalg.norm(h))


class TestGcPause:
    def test_nested_blocks_restore_the_callers_state(self, collector):
        with numerics._gc_paused():
            with numerics._gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector

    def test_restores_on_error(self, collector):
        with pytest.raises(KeyError):
            with numerics._gc_paused():
                raise KeyError("raised inside the block")
        assert gc.isenabled() is collector


class TestUnitaryExp:
    def test_zero_time_is_identity(self):
        assert np.linalg.norm(unitary_exp(SIGMA_X, 0.0) - np.eye(2)) < ATOL

    def test_pauli_z_half_turn(self):
        # exp(-i pi sigma_z) = -I
        u = unitary_exp(SIGMA_Z, np.pi)
        assert np.linalg.norm(u + np.eye(2)) < 1e-12

    def test_pauli_y_quarter_turn(self):
        # exp(-i (pi/2) sigma_y) = -i sigma_y = [[0, -1], [1, 0]]
        u = unitary_exp(SIGMA_Y, np.pi / 2.0)
        expected = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert np.linalg.norm(u - expected) < 1e-12

    def test_action_scale_rescales_time(self):
        u_scaled = unitary_exp(SIGMA_X, 1.3, hbar=2.0)
        u_plain = unitary_exp(SIGMA_X, 0.65)
        assert np.linalg.norm(u_scaled - u_plain) < ATOL

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            unitary_exp(SIGMA_X, 1.0, hbar=0.0)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_unitarity_property(self, n, seed, t):
        h = random_hermitian(np.random.default_rng(seed), n)
        u = unitary_exp(h, t)
        assert is_unitary(u)

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_group_law_property(self, seed, s, t):
        h = random_hermitian(np.random.default_rng(seed), 4)
        u = unitary_exp(h, s) @ unitary_exp(h, t)
        assert np.linalg.norm(u - unitary_exp(h, s + t)) < 1e-11


class TestNewtonMin:
    def test_smooth_minimum_in_three_steps(self):
        t, steps = _newton_min(
            lambda t: (math.sin(t - 0.3), math.cos(t - 0.3)), 0.2, 0.45, 0.33, 1e-12
        )
        assert abs(t - 0.3) <= 1e-15 and steps == 3

    def test_bisection_keeps_the_bracket(self):
        # A maximum inside: the curvature is negative, so every step bisects
        # toward the lower end, the minimizer on the bracket.
        t, _ = _newton_min(lambda t: (math.sin(t), math.cos(t)), 2.0, 4.0, 2.1, 1e-12)
        assert 2.0 <= t <= 2.0 + 1e-12
        # A flat minimum, where Newton alone converges only linearly.
        t, steps = _newton_min(lambda t: (4.0 * t**3, 12.0 * t**2), -0.5, 1.0, 0.9, 1e-12)
        assert abs(t) <= 1e-11 and steps < 100


def _two_call_phase_rows(w, start, step, count, hbar):
    """``_phase_rows`` as two ``np.exp`` calls, one per table: the formula
    its one call over both tables' times must equal bit for bit."""
    size = int(np.ceil(np.sqrt(count)))
    fine = np.exp(-1j * np.outer(np.arange(size) * step, w) / hbar)
    jumps = np.exp(-1j * np.outer(start + np.arange(-(-count // size)) * (size * step), w) / hbar)
    return jumps, fine


class TestPhaseRows:
    def test_bit_equal_to_two_calls(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            n = int(rng.integers(1, 65))
            w = np.sort(rng.uniform(-50.0, 50.0, n))
            start, step = float(rng.uniform(-5.0, 300.0)), float(10.0 ** rng.uniform(-3.0, 1.0))
            count, hbar = int(rng.integers(1, 5000)), float(10.0 ** rng.uniform(-2.0, 2.0))
            jumps, fine = numerics._phase_rows(w, start, step, count, hbar)
            ref_jumps, ref_fine = _two_call_phase_rows(w, start, step, count, hbar)
            assert jumps.tobytes() == ref_jumps.tobytes() and fine.tobytes() == ref_fine.tobytes()
            assert np.all(fine[0] == 1.0)


class TestScanArrival:
    """Seams of the screened, streaming scan. With w = (0, 1), speed 0.5 and
    hbar = 1 the grid step is 0.02 and the second phase column is exp(-i t),
    which gives the grid times back on a horizon shorter than 2 pi. The
    distance and the judge are both |t - t_star|, which moves at rate 1;
    the gate is 0.05 with no margin and the floor 0, so only the cells next
    to t_star survive. A chunk budget of 16 phase entries makes cells of 6
    steps, 51 of them (the last holds only the final point 300), one cell a
    batch, a first chunk of one cell and then chunks of 16 cells: chunk 3
    starts at cell 17, point 102. The distances are kinked at their minima, so ``slope`` gives their
    first derivative, the second is 0 and the refinement bisects."""

    W = np.array([0.0, 1.0])
    HORIZON = 6.0  # 300 grid steps of 0.02

    def scan(self, monkeypatch, objective, slope, chunk=16):
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", chunk)

        def times(phases):
            # Read in [-0.1, 2 pi - 0.1), so t = 0 and t = -dt stay near 0.
            return np.mod(0.1 - np.angle(phases[..., 1]), 2.0 * np.pi) - 0.1

        def distance(table, bases):
            return objective(times(bases[:, None, :] * table[None]).ravel())

        return _scan_arrival(
            distance, lambda t: float(objective(np.float64(t))), lambda t: (slope(t), 0.0),
            self.W, 1.0, self.HORIZON, 0.5, 1.0, 0.0, 0.05, 0.0, 1e-9,
        )

    @pytest.mark.parametrize(
        "index, chunks",
        [
            (1, 1),  # the first point after the origin
            (5, 1),  # a cell's last point: its right neighbour starts the next cell
            (6, 2),  # a cell's first point: its left neighbour ends the last cell
            (101, 2),  # the last point of a chunk
            (102, 3),  # the first point of the next chunk
            (299, 5),  # the last point of the last full cell
            (300, 5),  # the final grid point, alone in its cell
        ],
    )
    def test_lone_minimum_found_once(self, monkeypatch, index, chunks):
        t_star = index * (self.HORIZON / 300)
        t, stats = self.scan(
            monkeypatch, lambda t: np.abs(t - t_star), lambda t: np.sign(t - t_star)
        )
        assert t == pytest.approx(t_star, abs=1e-9)
        assert (stats["chunks"], stats["refined"]) == (chunks, 1)
        # Chunks stream 1, 17, 33, 49, then all 51 cells; at most two are live.
        streamed = min(51, 1 + 16 * (chunks - 1))
        assert stats["screened"] >= streamed - 2

    @pytest.mark.parametrize("index", [2, 3, 4, 5, 6, 299, 300])
    def test_blocks_keep_time_order(self, monkeypatch, index):
        # Cells of 3 steps, hundreds to a batch: a lone minimum on either side
        # of a cell seam is found once, at its own time.
        monkeypatch.setattr(numerics, "_SCAN_BLOCK", 3)
        t_star = index * (self.HORIZON / 300)
        t, stats = self.scan(
            monkeypatch, lambda t: np.abs(t - t_star), lambda t: np.sign(t - t_star), 1 << 15
        )
        assert t == pytest.approx(t_star, abs=1e-9)
        assert stats["refined"] == 1

    @pytest.mark.parametrize("index", [2, 5, 6, 40])
    def test_minima_refined_in_time_order(self, monkeypatch, index):
        # A minimum of 0.01, under the gate but above the threshold, then an
        # arrival 7 steps later, both in one batch: the first is refined and
        # passed over, the second returned.
        monkeypatch.setattr(numerics, "_SCAN_BLOCK", 3)
        near, hit = index * 0.02, (index + 7) * 0.02
        t, stats = self.scan(
            monkeypatch,
            lambda t: np.minimum(np.abs(t - near) + 0.01, np.abs(t - hit)),
            lambda t: np.sign(t - (near if abs(t - near) + 0.01 < abs(t - hit) else hit)),
            1 << 15,
        )
        assert t == pytest.approx(hit, abs=1e-9)
        assert (stats["chunks"], stats["refined"]) == (1, 2)

    def test_factored_phases_match_direct(self, monkeypatch):
        # Batches of 4 cells of 8 steps, offsets -1 to 8; the phases reach
        # about 54 rad. A distance of 0 at every cell end keeps every cell,
        # so the batches tile the grid in order. The 500-step grid has 63
        # cells: a first chunk of 4 (a batch), then one of the other 59.
        # Each chunk reads its cell ends as the products of two tables, 2 x 3
        # rows for 5 ends and 8 x 8 for 60; the last chunk reads its final
        # end, the horizon, in the same product, from a ninth base row
        # against fine[0] = 1.
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", 5 * 40)
        monkeypatch.setattr(numerics, "_SCAN_BLOCK", 8)
        w, hbar, horizon = np.array([-4.0, -1.3, 0.2, 2.9, 5.0]), 2.0, 20.0
        ends, batches = [], []

        def distance(table, bases):
            phases = bases[:, None, :] * table[None]
            if table.shape[0] == 10:  # the offset table: a batch of live cells
                batches.append(phases)
                return np.full(phases.shape[0] * phases.shape[1], np.inf)
            ends.append(phases.reshape(-1, w.size))
            return np.zeros(len(ends[-1]))

        _, stats = _scan_arrival(
            distance, None, None, w, hbar, horizon, 0.5, 0.0, 0.0, 1.0, 0.0, 1e-9
        )
        count = stats["grid_points"] - 1
        dt = horizon / count
        cell = 0
        for rows in batches:
            assert rows.shape[0] <= 4
            for phases in rows:
                times = (cell * 8 + np.arange(-1, 9)) * dt
                assert np.max(np.abs(phases - np.exp(-1j * np.outer(times, w) / hbar))) <= 1e-13
                cell += 1
        assert (count, cell, stats["chunks"]) == (500, 63, 2) and len(batches) > 1
        assert stats["screened"] == 0 and stats["evaluated"] == cell * 10
        # Every product of a chunk's tables from its cell-end stride is the
        # phase row of a cell end (those past the horizon are read and
        # dropped); the horizon row's product with fine[0] is the horizon's.
        assert [len(rows) for rows in ends] == [6, 72]
        for first, rows in zip((0, 4), (ends[0], ends[1][:64])):
            times = (first + np.arange(len(rows))) * 8 * dt
            assert np.max(np.abs(rows - np.exp(-1j * np.outer(times, w) / hbar))) <= 1e-13
        assert np.max(np.abs(ends[1][64] - np.exp(-1j * w * (horizon / hbar)))) <= 1e-13

    @staticmethod
    def record_phase_rows(monkeypatch):
        """Patch ``_phase_rows`` to record the row count of each call."""
        calls = []
        phase_rows = numerics._phase_rows

        def recording(w, start, step, count, hbar):
            calls.append(count)
            return phase_rows(w, start, step, count, hbar)

        monkeypatch.setattr(numerics, "_phase_rows", recording)
        return calls

    def test_screened_miss_builds_no_offset_table(self, monkeypatch):
        # A distance of 1 everywhere screens every cell: each chunk builds
        # one pair of phase tables, for its cell ends, and nothing more.
        calls = self.record_phase_rows(monkeypatch)
        t, stats = self.scan(monkeypatch, lambda t: np.ones_like(t), np.sign)
        assert t is None
        assert (stats["chunks"], stats["screened"], stats["evaluated"]) == (5, 51, 0)
        assert calls == [2, 17, 17, 17, 3]

    def test_floor_above_the_gate_decides_without_a_grid(self, monkeypatch):
        # A floor above gate + margin returns None before any phase row,
        # counting the grid and its 3 cells of 128 steps as screened. A floor
        # at gate + margin streams the grid, one chunk whose cells the
        # distance, 1 everywhere, screens.
        calls = self.record_phase_rows(monkeypatch)
        reads = []

        def distance(table, bases):
            reads.append(len(bases))
            return np.ones(len(bases) * len(table))

        scan = (distance, None, None, self.W, 1.0, self.HORIZON, 0.5, 0.0)
        arrival, stats = _scan_arrival(*scan, 0.0625 + 2**-20, 0.05, 0.0125, 1e-9)
        assert arrival is None and calls == [] and reads == []
        assert stats == dict(
            grid_points=301, step=0.02, floor=0.0625 + 2**-20, chunks=0, screened=3,
            evaluated=0, refined=0, evaluations=0, newton_steps=0,
        )
        arrival, stats = _scan_arrival(*scan, 0.0625, 0.05, 0.0125, 1e-9)
        assert arrival is None and calls == [4] and len(reads) == 1
        assert (stats["chunks"], stats["screened"], stats["evaluated"]) == (1, 3, 0)

    def test_stationary_start_is_decided_without_a_scan(self):
        def distance(table, bases):
            raise AssertionError("a stationary start needs no grid")

        scan = (
            distance, lambda t: 0.5, None, self.W, 1.0, 6.0, 1e-11, 0.0, 0.0, 1.0, 0.0, 1e-9
        )
        arrival, stats = _scan_arrival(*scan)
        assert arrival is None
        assert (stats["grid_points"], stats["chunks"], stats["evaluations"]) == (0, 0, 1)
        assert (stats["screened"], stats["evaluated"]) == (0, 0)
        with pytest.raises(StationaryStateError):
            _scan_arrival(distance, lambda t: 0.0, *scan[2:])

    def test_origin_is_never_an_arrival(self, monkeypatch):
        t, stats = self.scan(monkeypatch, lambda t: np.abs(t), np.sign)
        assert t is None
        assert stats["grid_points"] == 301
        assert stats["refined"] == 0
