"""Formula table of the separating families II, III and V.

Family II is the product shifted by z2 (cells R3, R4), family III the product
shifted by z1 (cell R5) and family V the form weighted by the W shift (cell
R8).  Each boundary function q is affine in X11: :func:`x11_terms` writes it
once, and the X11 at which it vanishes, F, is the least X11 of the family's
hull piece.  Its gradient, the cut's, is the derivative of that body
(:func:`q_gradient`).  The hull pieces, the cuts' touch points, the verify
samplers and cells R6 and R7, which bound X12 by the W shift, take these
formulas from here; the functions shared by the families are keyed by the
family string.
"""

from __future__ import annotations

import math

from .columns import Dual, derivative
from .core import HullPoint

#: Separating family of each cell that carries one, keyed by the cell tag.
FAMILY_BY_CELL = {"R3": "II", "R4": "II", "R5": "III", "R8": "V"}


def _div0(num: float, den: float) -> float:
    """num/den with the 0/0 -> 0 convention; callers guarantee num == 0
    whenever den == 0."""
    return num / den if den != 0.0 else 0.0


def shift_z(family: str, p: HullPoint) -> float:
    """The indicator shifting the product of family II (z2) or III (z1)."""
    return p.z2 if family == "II" else p.z1


def w_factors(p: HullPoint) -> tuple[float, float]:
    """(s, d) with s = z1 + z2 - 1 and d = X22 z2 - x2^2, the factors of the
    square-root argument d (1 - z1) s of the W shift."""
    return p.z1 + p.z2 - 1.0, p.X22 * p.z2 - p.x2 * p.x2


def w_sqrt_arg(p: HullPoint) -> tuple[float, float, float]:
    """(s, d, d (1 - z1) s) of :func:`w_factors`: the square-root argument of
    the W shift, not clamped."""
    s, d = w_factors(p)
    return s, d, d * (1.0 - p.z1) * s


def w_shift(p: HullPoint) -> float:
    """The W shift s - sqrt(d (1 - z1) s) / x2 of family V, the square-root
    argument clamped at zero.  Needs x2 != 0."""
    s, _, arg = w_sqrt_arg(p)
    return s - math.sqrt(max(arg, 0.0)) / p.x2


def w_root_vanishes(p: HullPoint) -> bool:
    """Whether the square-root term of the W shift vanishes at p, where W,
    and so the family V gradient, is not differentiable."""
    return math.sqrt(max(w_sqrt_arg(p)[2], 0.0)) <= 1e-12


def q_value(family: str, p: HullPoint) -> float:
    """Boundary function of the given family ('II', 'III' or 'V') at p,
    slope (X11 - base) - cc from :func:`x11_terms`."""
    if family not in ("II", "III", "V"):
        raise ValueError(f"unknown family {family!r}")
    base, slope, cc = x11_terms(family, p)
    return slope * (p.X11 - base) - cc


def q_gradient(family: str, p: HullPoint) -> tuple:
    """Gradient of the family boundary function at p, as the tuple of its
    seven terms in the canonical coordinate order (x1, x2, X11, X12, X22,
    z1, z2): the derivative of :func:`q_value`'s own body at p
    (:func:`~pairhull.columns.derivative`).  Family V needs a W shift whose
    square-root term does not vanish (see :func:`w_root_vanishes`)."""
    point = HullPoint(*Dual.seeds(p.x1, p.x2, p.X11, p.X12, p.X22, p.z1, p.z2))
    return tuple(derivative(q_value)(family, point).tangents)


def x11_terms(family: str, p: HullPoint) -> tuple[float, float, float]:
    """(base, slope, cc) of the family boundary, each free of X11, with
    q = slope (X11 - base) - cc: the boundary is X11 = F = base + cc/slope,
    the least X11 of the family's piece where the slope is positive."""
    if family == "V":
        s = p.z1 + p.z2 - 1.0
        g = p.X12 * p.z1 * p.z2 / w_shift(p) - p.x1 * p.x2
        return p.x1 * p.x1 / p.z1, p.z1 * (1.0 - p.z2) * p.x2 * p.x2, s * g * g
    z = shift_z(family, p)
    c = p.X12 - _div0(p.x1 * p.x2, z)
    return _div0(p.x1 * p.x1, z), p.X22 - _div0(p.x2 * p.x2, z), c * c


def x11_slope(family: str, p: HullPoint) -> float:
    """The coefficient of X11 in q, which does not depend on X11."""
    return x11_terms(family, p)[1]


def x11_root(family: str, p: HullPoint) -> float:
    """The X11 at which q vanishes, the other six coordinates of p held
    fixed.  Divides by :func:`x11_slope`, which callers keep positive."""
    base, slope, cc = x11_terms(family, p)
    return base + cc / slope
