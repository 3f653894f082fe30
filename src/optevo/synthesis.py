"""Construction and certification of maximal-speed Hamiltonians.

A Hermitian generator drives a given unit vector as fast as the quantum
speed limit allows exactly when its energy uncertainty in that state
equals half its spectral spread. Relative to an orthonormal basis whose
first vector is the state, write the generator as

    [[m, x*],
     [x, A]]

with m the mean energy, x the coupling into the orthogonal complement and
A the block on that complement. The uncertainty in the state is |x|, and
the generator is maximal-speed precisely when A x = m x. That condition is
unchanged by adding multiples of the identity, which only rotate the
global phase.

This module extracts the block data, issues the verdict, builds
maximal-speed generators between two rays (the canonical anti-Hermitian
coupling of the start ray with its normalized complement component of the
target, scaled by the requested uncertainty), samples the wider family
sharing one trajectory, computes the speed-limit time, and locates actual
arrival times by scanning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotOptimalError,
    StationaryStateError,
)
from .lie_flag import SuVector
from .numerics import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _scan_arrival,
    as_matrix,
    frobenius,
    herm_eig,
    is_hermitian,
)
from .quantum_states import PureState, Units, energy_uncertainty, fs_distance

__all__ = [
    "Verdict",
    "OptimalityVerdict",
    "HamiltonianBlocks",
    "adapted_basis",
    "adapted_blocks",
    "is_optimal_speed",
    "optimal_hamiltonian",
    "optimal_family_sample",
    "qsl_time",
    "first_arrival_time",
    "equigeodesic_vector_of",
]


class Verdict(enum.Enum):
    STATIONARY = "Stationary"
    OPTIMAL = "Optimal"
    SUBOPTIMAL = "Suboptimal"


@dataclass(frozen=True)
class OptimalityVerdict:
    """Outcome of the maximal-speed test.

    ``residual`` is the eigen-condition defect |A x - m x| normalized by
    max(1, |A| |x|). ``delta_e`` is the uncertainty in the tested state and
    ``delta_e_max`` half the spectral spread; the two agree whenever the
    verdict is optimal.
    """

    kind: Verdict
    residual: float
    delta_e: float
    delta_e_max: float


@dataclass(frozen=True)
class HamiltonianBlocks:
    """Block data of a Hermitian operator relative to an adapted basis.

    ``basis`` is the unitary whose first column is the adapted state;
    ``mean_energy`` its expectation value, ``coupling`` the component of
    H phi orthogonal to phi expressed in the remaining basis columns, and
    ``complement`` the Hermitian block on the orthogonal complement.
    """

    mean_energy: float
    coupling: np.ndarray
    complement: np.ndarray
    basis: np.ndarray = field(repr=False)

    def reassemble(self) -> np.ndarray:
        """Rebuild the full operator from the blocks."""
        n = self.coupling.size + 1
        full = np.zeros((n, n), dtype=complex)
        full[0, 0] = self.mean_energy
        full[1:, 0] = self.coupling
        full[0, 1:] = self.coupling.conj()
        full[1:, 1:] = self.complement
        return self.basis @ full @ self.basis.conj().T


def adapted_basis(phi: PureState) -> np.ndarray:
    """Deterministic orthonormal completion of a state to a basis.

    The first column is the state. The rest come from Gram-Schmidt over
    the standard basis vectors in index order, skipping the index where
    the state has its largest amplitude; that pivot keeps the completion
    well conditioned for every input. Vectors are orthogonalized twice for
    stability, which fixes all phases deterministically.
    """
    amp = phi.amplitudes
    n = amp.size
    pivot = int(np.argmax(np.abs(amp)))
    cols = [amp]
    for j in range(n):
        if j == pivot:
            continue
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for c in cols:
                v = v - c * np.vdot(c, v)
        norm = float(np.linalg.norm(v))
        if norm < 1e-8:
            raise ArithmeticError("basis completion degenerated")
        cols.append(v / norm)
    return np.column_stack(cols)


def adapted_blocks(h, phi: PureState, tol: Tolerances | None = None) -> HamiltonianBlocks:
    """Express a Hermitian operator in a basis adapted to a state."""
    tols = tol or DEFAULT_TOLERANCES
    a = as_matrix(h)
    if a.shape[0] != phi.n:
        raise DimensionMismatchError(
            f"operator of dimension {a.shape[0]} against state of dimension {phi.n}"
        )
    if not is_hermitian(a, tols):
        raise NotHermitianError("block extraction requires a Hermitian operator")
    basis = adapted_basis(phi)
    hb = basis.conj().T @ a @ basis
    hb = (hb + hb.conj().T) / 2.0
    return HamiltonianBlocks(
        mean_energy=float(hb[0, 0].real),
        coupling=hb[1:, 0].copy(),
        complement=hb[1:, 1:].copy(),
        basis=basis,
    )


def is_optimal_speed(h, phi: PureState, tol: Tolerances | None = None) -> OptimalityVerdict:
    """Classify a Hermitian generator acting on a state.

    Stationary when the coupling vanishes (the ray never moves). Otherwise
    optimal exactly when the eigen-condition A x = m x holds within the
    search tolerance, which is equivalent to the uncertainty in the state
    saturating half the spectral spread. The test is invariant under
    shifting the operator by multiples of the identity.
    """
    tols = tol or DEFAULT_TOLERANCES
    blocks = adapted_blocks(h, phi, tols)
    w, _ = herm_eig(h, tols)
    delta_e_max = float(w[-1] - w[0]) / 2.0
    delta_e = float(np.linalg.norm(blocks.coupling))
    operator_scale = max(1.0, frobenius(h))
    if delta_e <= tols.structural * operator_scale:
        return OptimalityVerdict(Verdict.STATIONARY, 0.0, delta_e, delta_e_max)
    defect = float(
        np.linalg.norm(blocks.complement @ blocks.coupling - blocks.mean_energy * blocks.coupling)
    )
    scale = max(1.0, float(np.linalg.norm(blocks.complement)) * delta_e)
    residual = defect / scale
    kind = Verdict.OPTIMAL if residual <= tols.search else Verdict.SUBOPTIMAL
    return OptimalityVerdict(kind, residual, delta_e, delta_e_max)


def optimal_hamiltonian(phi: PureState, psi: PureState, energy: float) -> np.ndarray:
    """Canonical maximal-speed generator carrying one ray to another.

    With s the ray distance and chi the normalized component of the target
    orthogonal to the start (the target rephased so its overlap with the
    start is real nonnegative), the generator is

        i E (|chi><phi| - |phi><chi|),

    whose uncertainty in the start state is exactly E. The start state
    then travels the connecting geodesic and reaches the target ray at
    time hbar s / E. Coincident rays admit no motion; for them the zero
    matrix is returned and the caller sees a stationary generator.
    """
    if not energy > 0.0:
        raise ValueError("energy must be positive")
    if phi.n != psi.n:
        raise DimensionMismatchError(f"dimensions differ: {phi.n} vs {psi.n}")
    s = fs_distance(phi, psi)
    n = phi.n
    if s == 0.0:
        return np.zeros((n, n), dtype=complex)
    ov = phi.overlap(psi)
    target = psi.amplitudes if abs(ov) == 0.0 else psi.amplitudes * (ov.conjugate() / abs(ov))
    chi = target - phi.amplitudes * np.vdot(phi.amplitudes, target)
    chi = chi / float(np.linalg.norm(chi))
    return 1j * energy * (
        np.outer(chi, phi.amplitudes.conj()) - np.outer(phi.amplitudes, chi.conj())
    )


def _family_member(core, phi: PureState, mean_energy: float, perp_levels) -> np.ndarray:
    """Extend the canonical generator by admissible diagonal data.

    The complement block keeps the coupling direction as an eigenvector at
    ``mean_energy`` and assigns ``perp_levels`` to an orthonormal
    completion of that direction. The extension never touches the driven
    ray; keeping every completion level inside
    [mean_energy - E, mean_energy + E] also leaves the spectral spread at
    2E, so no uncertainty headroom is wasted.
    """
    basis = adapted_basis(phi)
    hb = basis.conj().T @ as_matrix(core) @ basis
    coupling = hb[1:, 0]
    norm = float(np.linalg.norm(coupling))
    if norm == 0.0:
        return as_matrix(core).copy()
    xhat = coupling / norm
    m = coupling.size
    levels = np.asarray(perp_levels, dtype=float).reshape(-1)
    if levels.size != m - 1:
        raise DimensionMismatchError(
            f"need {m - 1} completion levels, got {levels.size}"
        )
    complement = mean_energy * np.outer(xhat, xhat.conj())
    if m > 1:
        completion = adapted_basis(PureState(xhat))[:, 1:]
        complement = complement + (completion * levels) @ completion.conj().T
    full = np.zeros_like(hb)
    full[0, 0] = mean_energy
    full[1:, 0] = coupling
    full[0, 1:] = coupling.conj()
    full[1:, 1:] = (complement + complement.conj().T) / 2.0
    return basis @ full @ basis.conj().T


def optimal_family_sample(
    phi: PureState, psi: PureState, energy: float, rng_seed: int
) -> np.ndarray:
    """Random member of the maximal-speed family between two rays.

    All members share the canonical generator's coupling, hence its
    uncertainty E in the start state and the same projector trajectory;
    they differ by a mean energy and by Hermitian structure orthogonal to
    the coupling direction. Coincident rays return the zero matrix as in
    :func:`optimal_hamiltonian`.
    """
    core = optimal_hamiltonian(phi, psi, energy)
    if fs_distance(phi, psi) == 0.0:
        return core
    rng = np.random.default_rng(rng_seed)
    mean_energy = float(rng.standard_normal()) * energy
    perp_levels = mean_energy + 0.9 * energy * rng.uniform(-1.0, 1.0, phi.n - 2)
    return _family_member(core, phi, mean_energy, perp_levels)


def qsl_time(phi: PureState, psi: PureState, h, units: Units = Units()) -> float:
    """Quantum-speed-limit time hbar s / delta_e for the given generator.

    ``s`` is the ray distance between the two states and ``delta_e`` the
    generator's uncertainty in the start state. No evolution can connect
    the rays faster; the bound is attained exactly by the maximal-speed
    family.
    """
    delta_e = energy_uncertainty(h, phi)
    if delta_e <= DEFAULT_TOLERANCES.structural * max(1.0, frobenius(h)):
        raise StationaryStateError("the state is stationary; no finite travel time")
    return units.hbar * fs_distance(phi, psi) / delta_e


def first_arrival_time(
    h,
    phi: PureState,
    psi: PureState,
    horizon: float,
    units: Units = Units(),
    tol: Tolerances | None = None,
) -> float | None:
    """Earliest time in (0, horizon] at which the evolving ray meets the
    target ray, or None if it never does.

    The infidelity 1 - |<psi|phi(t)>|^2 is scanned on a uniform grid of
    step 0.01 hbar / delta_e_max (the ray cannot move more than 0.01 rad
    per step), streamed in fixed-size chunks with no cap on its length.
    Every local minimum that could reach arrival is refined by golden
    section, and the first refined minimum with infidelity at most 1e-9 is
    returned. The returned time is the refined minimizer, located far more
    tightly than 1e-7.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    w, v = herm_eig(h, tol)
    hbar = units.hbar
    if phi.n != w.size or psi.n != w.size:
        raise DimensionMismatchError("generator and states must share one dimension")
    start = v.conj().T @ phi.amplitudes
    target = v.conj().T @ psi.amplitudes
    weights = target.conj() * start

    def infidelity(t: float) -> float:
        ov = complex(np.sum(np.exp(-1j * w * (t / hbar)) * weights))
        return max(0.0, 1.0 - (ov.real * ov.real + ov.imag * ov.imag))

    def values(table: np.ndarray, base: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, 1.0 - np.abs(table @ (base * weights)) ** 2)

    # A grid point adjacent to a true arrival sits within 0.005 rad of the
    # target, so its infidelity is below ~2.5e-5; the gate 1e-4 only skips
    # minima that provably cannot reach the arrival threshold.
    xtol = max(1e-12, 1e-10 * horizon)
    return _scan_arrival(values, infidelity, w, hbar, horizon, 1e-4, 1e-9, xtol)[0]


def equigeodesic_vector_of(
    h, phi: PureState, tol: Tolerances | None = None
) -> tuple[SuVector, np.ndarray]:
    """Algebra element generating the ray motion, with its base point.

    For a maximal-speed generator H and state phi, returns (X, U) where X
    is -iH with the trace part removed and U is the adapted-basis unitary
    carrying the first standard basis vector to phi. Conjugating X by U*
    yields a traceless skew-Hermitian matrix passing the structural
    certificate for the partition (1, n-1), so the orbit of X through the
    base point is a geodesic for every invariant metric.
    """
    verdict = is_optimal_speed(h, phi, tol)
    if verdict.kind is not Verdict.OPTIMAL:
        raise NotOptimalError(
            f"generator is {verdict.kind.value}; only optimal generators correspond "
            "to equigeodesic directions"
        )
    a = as_matrix(h)
    n = a.shape[0]
    traceless = a - (np.trace(a) / n) * np.eye(n)
    return SuVector(-1j * traceless), adapted_basis(phi)
