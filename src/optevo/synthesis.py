"""Construction and certification of maximal-speed Hamiltonians.

A Hermitian generator drives a given unit vector as fast as the quantum
speed limit allows exactly when its energy uncertainty in that state
equals half its spectral spread. Relative to an orthonormal basis whose
first vector is the state, write the generator as

    [[m, x*],
     [x, A]]

with m the mean energy, x the coupling into the orthogonal complement and
A the block on that complement. The uncertainty in the state is |x|, and
the generator is maximal-speed precisely when A x = m x, a condition on
directions unchanged by scaling and by adding multiples of the identity;
``numerics._eigen_residual`` reads it as it reads the structural test.
The verdict builds no such basis: with x = H phi - m phi in full
coordinates, L = H - m I - x phi* - phi x* vanishes on phi and acts as
A - m I on its complement, so |L|_F = |A - m I|_F and L x = (A - m I) x.

This module issues the verdict, extracts the block data, builds
maximal-speed generators between two rays (the canonical anti-Hermitian
coupling of the start ray with its normalized complement component of the
target, scaled by the requested uncertainty), samples the wider family
sharing one trajectory, computes the speed-limit time, and locates actual
arrival times by scanning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NotOptimalError, StationaryStateError
from .lie_flag import SuVector
from .numerics import (
    SEARCH_TOL,
    SPECTRAL_TOL,
    _eigen_residual,
    _generator_factors,
    _ray_arrival,
    _stationary,
    frobenius,
    herm_eig,
)
from .quantum_states import PureState, Units, _coupling, energy_uncertainty, fs_distance

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

    ``residual`` is ``numerics._eigen_residual`` of A - m I and x (0 if
    stationary), optimal exactly when at most SEARCH_TOL, with
    L = H - m I - x phi* - phi x* standing in for A - m I. ``delta_e`` is
    the uncertainty in the tested state and ``delta_e_max`` half the
    spectral spread; the two agree whenever the verdict is optimal. All
    three read the Hermitian part (H + H*) / 2 of H, which is H itself when
    H is Hermitian to the last bit.
    """

    kind: Verdict
    residual: float
    delta_e: float
    delta_e_max: float


@dataclass(frozen=True, eq=False)
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

    One Householder reflector Q = I - 2 u u* / (u* u) with
    u = e^{-i theta} phi + e_p maps e_p to -e^{-i theta} phi, where p is
    the index of the largest amplitude |phi_p| and theta = arg phi_p
    (Golub & Van Loan, Matrix Computations, section 5.1). Column p is then
    replaced by phi itself, a unit-modulus rescaling that keeps Q unitary,
    and moved to the front: the first column is the state bit for bit, and
    the others are the remaining columns of Q in index order.

    The pivot component u_p = 1 + |phi_p| is at least 1 and is a sum of
    two nonnegative numbers, so nothing cancels and u* u >= 2 for every
    unit vector, including basis vectors and uniform superpositions.
    """
    amp = phi.amplitudes
    n = amp.size
    pivot = int(np.argmax(np.abs(amp)))
    u = amp * (amp[pivot].conjugate() / abs(amp[pivot]))
    u[pivot] = 1.0 + abs(amp[pivot])
    # Column k is Q e_order[k], built in place: one n x n allocation.
    order = np.r_[pivot, :pivot, pivot + 1 : n]
    basis = u[:, None] * ((-2.0 / np.vdot(u, u).real) * u[order].conj())
    basis[order, np.arange(n)] += 1.0
    basis[:, 0] = amp
    return basis


def adapted_blocks(h, phi: PureState) -> HamiltonianBlocks:
    """Express a Hermitian operator in a basis adapted to a state.

    H is checked and its Hermitian part taken as ``energy_uncertainty``
    does, then conjugated and made Hermitian in the adapted basis."""
    a = _coupling(h, phi)[0]
    basis = adapted_basis(phi)
    hb = basis.conj().T @ a @ basis
    hb = (hb + hb.conj().T) / 2.0
    return HamiltonianBlocks(
        mean_energy=float(hb[0, 0].real),
        coupling=hb[1:, 0].copy(),
        complement=hb[1:, 1:].copy(),
        basis=basis,
    )


def is_optimal_speed(h, phi: PureState) -> OptimalityVerdict:
    """Classify a Hermitian generator acting on a state.

    Stationary when the coupling |x| is at the stationary floor
    STRUCTURAL_TOL max(1, |H|_F) (the ray never moves). Otherwise optimal
    exactly when (A - m I) x = 0 holds by direction: the verdict is the
    same for lambda H + c I, save that its roundoff term grows with |H|_F.
    """
    kind, residual, delta_e, _ = _classify(h, phi)
    w, _ = herm_eig(h)
    return OptimalityVerdict(kind, residual, delta_e, float(w[-1] - w[0]) / 2.0)


def _classify(h, phi: PureState) -> tuple[Verdict, float, float, np.ndarray]:
    """Kind, residual, uncertainty |x| and the Hermitian part (H + H*) / 2
    that ``_coupling`` returns and all three read, in O(n^2) from x and L
    (module docstring). That part is what ``herm_eig`` reads: H itself if H
    is Hermitian to the last bit, without an anti-Hermitian part
    ``is_hermitian`` allows. The floor reads |x| and |H|_F as ``qsl_time``
    reads them."""
    a, mean, x = _coupling(h, phi)
    delta_e, scale = float(np.linalg.norm(x)), frobenius(h)
    if _stationary(delta_e, scale):
        return Verdict.STATIONARY, 0.0, delta_e, a
    p = phi.amplitudes
    left = a - mean * np.eye(p.size) - np.outer(x, p.conj()) - np.outer(p, x.conj())
    residual = _eigen_residual(left, x, scale, p.size)
    kind = Verdict.OPTIMAL if residual <= SEARCH_TOL else Verdict.SUBOPTIMAL
    return kind, residual, delta_e, a


def optimal_hamiltonian(phi: PureState, psi: PureState, energy: float) -> np.ndarray:
    """Canonical maximal-speed generator carrying one ray to another.

    With s the ray distance and chi the normalized component of the target
    orthogonal to the start (the target rephased so its overlap with the
    start is real nonnegative), the generator is

        i E (|chi><phi| - |phi><chi|),

    whose uncertainty in the start state is exactly E. The start state
    then travels the connecting geodesic and reaches the target ray at
    time hbar s / E. Coincident rays (s at most SPECTRAL_TOL, so only
    roundoff tells them apart) admit no motion; for them the zero matrix
    is returned and the caller sees a stationary generator.
    """
    if not energy > 0.0:
        raise ValueError("energy must be positive")
    if phi.n != psi.n:
        raise DimensionMismatchError(f"dimensions differ: {phi.n} vs {psi.n}")
    s = fs_distance(phi, psi)
    n = phi.n
    if s <= SPECTRAL_TOL:
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

    In full coordinates, as the verdict reads it, the member is M + M* with
    M = x phi* + (mean_energy (phi phi* + x^ x^*) + Q diag(perp_levels) Q*) / 2:
    x is the core's coupling, x^ = x / |x| and Q the ``adapted_basis``
    completion of x^ inside that of phi. Two general products, and exactly
    Hermitian. The coupling direction stays an eigenvector of the
    complement block at ``mean_energy``, so the driven ray moves as under
    the core; completion levels inside [mean_energy - E, mean_energy + E]
    also keep the spectral spread at 2E, wasting no uncertainty headroom.
    """
    a, _, x = _coupling(core, phi)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return a
    levels = np.asarray(perp_levels, dtype=float).reshape(-1)
    if levels.size != phi.n - 2:
        raise DimensionMismatchError(f"need {phi.n - 2} completion levels, got {levels.size}")
    p, xhat = phi.amplitudes, x / norm
    rest = adapted_basis(phi)[:, 1:]
    q = rest @ adapted_basis(PureState(rest.conj().T @ xhat))[:, 1:]
    mean_part = mean_energy * (np.outer(p, p.conj()) + np.outer(xhat, xhat.conj()))
    half = np.outer(x, p.conj()) + 0.5 * (mean_part + (q * levels) @ q.conj().T)
    return half + half.conj().T


def optimal_family_sample(
    phi: PureState, psi: PureState, energy: float, rng_seed: int
) -> np.ndarray:
    """Random member of the maximal-speed family between two rays.

    All members share the canonical generator's coupling, hence its
    uncertainty E in the start state and the same projector trajectory;
    they differ by a mean energy and by Hermitian structure orthogonal to
    the coupling direction; members are exactly Hermitian. Coincident rays
    return the zero matrix as in :func:`optimal_hamiltonian`.
    """
    core = optimal_hamiltonian(phi, psi, energy)
    if not core.any():
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
    if _stationary(delta_e, frobenius(h)):
        raise StationaryStateError("the state is stationary; no finite travel time")
    return units.hbar * fs_distance(phi, psi) / delta_e


def first_arrival_time(
    h,
    phi: PureState,
    psi: PureState,
    horizon: float,
    units: Units = Units(),
) -> float | None:
    """Earliest time in (0, horizon] at which the evolving ray meets the
    target ray, or None if it never does.

    The search is ``numerics._ray_arrival``, which derives its screen's
    margin and its floor, with weight 1, gate 0.01 on sin theta, threshold
    sqrt 1e-9 on the stable sine |psi - <phi(t)|psi> phi(t)| and Newton
    steps down to max(1e-12, 1e-10 horizon). The ray angle theta is
    gridded at a step of 0.01 hbar / delta_e, delta_e being the
    uncertainty of ``h`` in ``phi``, and the grid is streamed in chunks
    with no cap on its length. theta never drops below its floor
    arccos sum_j |c_j|, c_j being the products of the two rays' amplitudes
    in the eigenbasis of ``h``: a pair whose floor clears the gate by the
    margin is a miss, decided before any grid is built, whatever the
    horizon. Otherwise a cell of 128 grid steps that stays far from the
    target is skipped at about n complex products; a grid point next to
    an arrival sits within 0.005 rad of the target, so the gate drops only
    minima that cannot reach it.

    A stationary start (delta_e at most the floor ``qsl_time`` applies)
    is decided at t = 0 without a scan: None if the rays differ there.

    Raises
    ------
    StationaryStateError
        If the start is stationary and already on the target ray.
    ValueError
        If the horizon is not positive and finite.
    """
    w, v = _generator_factors(h, horizon, phi.n, psi.n)
    return _ray_arrival(
        w, v, phi.amplitudes, psi.amplitudes, units.hbar, horizon, 1.0, 0.01, math.sqrt(1e-9),
        max(1e-12, 1e-10 * horizon),
    )


def equigeodesic_vector_of(h, phi: PureState) -> tuple[SuVector, np.ndarray]:
    """Algebra element generating the ray motion, with its base point.

    For a maximal-speed generator H and state phi, returns (X, U) where X
    is -i (H + H*) / 2 less its trace part and U = ``adapted_basis(phi)``
    carries the first standard basis vector to phi. U* X U is equigeodesic
    for the partition (1, n-1): the orbit of X through the base point is a
    geodesic for every invariant metric. The structural certificate accepts
    it unless rounding of a large identity part of H tilts a weak coupling.
    """
    kind, _, _, a = _classify(h, phi)
    if kind is not Verdict.OPTIMAL:
        raise NotOptimalError(
            f"generator is {kind.value}; only optimal generators correspond "
            "to equigeodesic directions"
        )
    n = a.shape[0]
    traceless = a - (np.trace(a) / n) * np.eye(n)
    traceless -= (np.trace(traceless) / n) * np.eye(n)  # what rounding left of the trace
    return SuVector(-1j * traceless), adapted_basis(phi)
