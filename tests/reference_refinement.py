"""The arrival scans' former refinement, kept as the reference the scans'
tests compare against: golden section over a candidate's two grid cells,
then one parabolic step around the result."""

import numpy as np


def golden_section_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns the midpoint of the final bracket and the function value there.
    """
    if not (b > a and xtol > 0.0):
        raise ValueError("need b > a and xtol > 0")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _parabolic_polish(f, t0: float, delta: float) -> float:
    """One parabolic vertex step around a quadratic minimum.

    Golden section stalls once function values merge into the roundoff
    plateau, leaving the minimizer only sqrt(eps)-accurate; sampling the
    quadratic at +-delta, far outside the plateau, recovers the center.
    Falls back to the input point when the local shape is not convex.
    """
    f_lo = f(t0 - delta)
    f_mid = f(t0)
    f_hi = f(t0 + delta)
    curvature = f_lo - 2.0 * f_mid + f_hi
    if not curvature > 0.0:
        return t0
    shift = 0.5 * delta * (f_lo - f_hi) / curvature
    if abs(shift) > delta:
        return t0
    polished = t0 + shift
    return polished if f(polished) <= max(f_mid, 1e-12) else t0


def refine(f, lo: float, hi: float, tol: float, step: float) -> tuple[float, float]:
    """Golden section on [lo, hi] to ``tol``, then the parabolic polish at
    0.02 ``step``; returns the time and the lower of the two values seen."""
    t_min, f_min = golden_section_min(f, lo, hi, tol)
    t_min = _parabolic_polish(f, t_min, 0.02 * step)
    return t_min, min(f_min, f(t_min))
