"""The bubble's radial evaluator, its hand-derived derivatives and c(n).

Plain floats, no array code: the ledger and the shooting constants read
the measured constant c(n) without numpy.  ``profiles.Bubble`` wraps
these evaluators.
"""

from __future__ import annotations

from typing import Tuple

from .coefficients import radial_bilaplacian
from .params import DomainError, special_exponents
from .polys import psum

# bubble_constant measures the ratio at radii inside, at and outside the
# unit bubble's scale; a relative spread above the tolerance means the
# profile is not a solution there
_BUBBLE_RADII = (0.5, 1.0, 2.0)
_BUBBLE_AGREEMENT_TOL = 1e-9


def bubble_radial(n: int, mu, r) -> float:
    """(2 mu / (1 + mu^2 r^2))^{(n-4)/2}."""
    return float((2 * mu / (1 + mu**2 * r * r)) ** ((n - 4) / 2.0))


def bubble_radial_derivatives(n: int, mu, r) -> Tuple[float, ...]:
    """Hand-derived (u, u', u'', u''', u'''') of ``bubble_radial``."""
    m = n - 4
    A = (2 * mu) ** (m / 2.0)
    g = 1 + mu * mu * r * r

    def gp(e):
        return g ** (-(m + e) / 2.0)

    u0 = A * gp(0)
    u1 = -A * m * mu**2 * r * gp(2)
    u2 = -A * m * mu**2 * (gp(2) - (m + 2) * mu**2 * r**2 * gp(4))
    u3 = A * m * (m + 2) * mu**4 * (3 * r * gp(4) - (m + 4) * mu**2 * r**3 * gp(6))
    u4 = A * m * (m + 2) * mu**4 * (3 * gp(4) - 6 * (m + 4) * mu**2 * r**2 * gp(6)
                                    + (m + 4) * (m + 6) * mu**4 * r**4 * gp(8))
    return u0, u1, u2, u3, u4


def bubble_constant(n: int) -> float:
    """Normalizing constant c(n) with Delta^2 u = c(n) u^{upper-1}.

    Measured as the residual ratio of the unit bubble at several radii;
    the evaluations must agree to ``_BUBBLE_AGREEMENT_TOL`` relative.
    Where they do not, or leave float range, the float evaluation has
    failed and DomainError says so: the bubble's factors at r = 2 reach
    subnormal range near n = 900 (the ratio there loses its digits),
    underflow to 0 near n = 2000 and overflow from n = 2100.
    """
    power = float(special_exponents(n).critical_power)
    vals = []
    try:
        for r in _BUBBLE_RADII:
            lhs = radial_bilaplacian(n, r, bubble_radial_derivatives(n, 1.0, r))
            vals.append(lhs / bubble_radial(n, 1.0, r) ** power)
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"bubble constant c({n}) leaves float range: {exc}") from None
    spread = (max(vals) - min(vals)) / max(abs(v) for v in vals)
    if not spread <= _BUBBLE_AGREEMENT_TOL:
        raise DomainError(f"bubble constant c({n}) evaluations disagree in float: {vals}")
    return psum(vals) / len(vals)


def bubble_constant_closed_form(n: int) -> float:
    """n(n-4)(n^2-4)/16, the value the measured ratio reproduces."""
    return n * (n - 4) * (n * n - 4) / 16.0
