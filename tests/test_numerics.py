"""Unit tests for the dense-matrix substrate.

Fixed-input expectations were computed by hand from the closed forms:
2x2 Pauli exponentials via exp(-i t n.sigma) = cos(t) I - i sin(t) n.sigma,
eigenvalues of diagonal matrices by inspection.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optevo import (
    DimensionMismatchError,
    EigenConvergenceError,
    NotHermitianError,
    Tolerances,
    first_arrival_time,
    frobenius,
    golden_section_min,
    herm_eig,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    unitary_exp,
)
from optevo import numerics
from optevo.numerics import _scan_arrival, as_matrix
from optevo.sampling import random_pure_state

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


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.structural == 1e-10
        assert t.spectral == 1e-12
        assert t.search == 1e-9

    @pytest.mark.parametrize("field", ["structural", "spectral", "search"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})


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
        with pytest.raises(NotHermitianError):
            herm_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_convergence_failure_is_wrapped(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(EigenConvergenceError):
            herm_eig(SIGMA_Z)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**31 - 1))
    def test_reconstruction_property(self, n, seed):
        h = random_hermitian(np.random.default_rng(seed), n)
        w, v = herm_eig(h)
        assert np.all(np.diff(w) >= -1e-13)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < RECON_TOL
        assert np.linalg.norm((v * w) @ v.conj().T - h) < RECON_TOL * max(1.0, np.linalg.norm(h))


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


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_min(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8)
        assert abs(x - 2.0) < 1e-6
        assert fx < 1e-12

    def test_vee_minimum(self):
        x, _ = golden_section_min(lambda x: abs(x - 0.7), 0.0, 1.0, 1e-10)
        assert abs(x - 0.7) < 1e-8

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 0.0, 1.0, 0.0)


class TestScanArrival:
    """Seams of the streaming scan. With w = (0, 1) and hbar = 1 the grid
    step is 0.02 and the second phase column is exp(-i t), which gives the
    grid times back on a horizon shorter than 2 pi; a chunk budget of 16
    phase entries makes chunks of 8 points, starting at indices 0, 6, 12."""

    W = np.array([0.0, 1.0])
    HORIZON = 6.0  # 300 grid steps of 0.02

    def scan(self, monkeypatch, t_star):
        monkeypatch.setattr(numerics, "_SCAN_CHUNK", 16)

        def values(table, base):
            times = np.mod(-np.angle(table[:, 1] * base[1]), 2.0 * np.pi)
            return np.abs(times - t_star)

        return _scan_arrival(
            values, lambda t: abs(t - t_star), self.W, 1.0, self.HORIZON, 1.0, 1e-9
        )

    @pytest.mark.parametrize(
        "index, chunks",
        [
            (6, 1),  # last interior point of the first chunk
            (7, 2),  # last point of the first chunk, judged in the second
            (8, 2),  # first point the second chunk adds
            (300, 50),  # final grid point: only its left neighbour exists
        ],
    )
    def test_lone_minimum_found_once(self, monkeypatch, index, chunks):
        t_star = index * (self.HORIZON / 300)
        t, stats = self.scan(monkeypatch, t_star)
        assert t == pytest.approx(t_star, abs=1e-9)
        assert (stats["chunks"], stats["refined"]) == (chunks, 1)

    def test_origin_is_never_an_arrival(self, monkeypatch):
        t, stats = self.scan(monkeypatch, 0.0)
        assert t is None
        assert stats["grid_points"] == 301
        assert stats["refined"] == 0

    def test_memory_bounded_on_long_miss(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 32)
        phi, psi = random_pure_state(rng, 32), random_pure_state(rng, 32)
        tracemalloc.start()
        try:
            arrival = first_arrival_time(h, phi, psi, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arrival is None
        # About 3e5 grid points; the whole-grid phase matrix took ~500 MB.
        assert peak < 8e6
