"""Targets on a generator's invariant torus, for arrival scans that must
stream their whole grid.

U = v exp(i theta) v*, v the generator's eigenvectors, commutes with the
generator, so a target U phi or U rho U* keeps every modulus of the start
in its eigenbasis. The sums of moduli behind the scans' floors are then
those of the start against itself, and the floor reads 0 up to roundoff.
With random theta and n > 2 the orbit's line on the torus passes the
target only by chance: a miss that the floor cannot decide."""

import numpy as np


def torus_unitary(rng, h):
    """v exp(i theta) v* for the eigenvectors v of ``h`` and uniform random
    angles theta."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, w.size))) @ v.conj().T
