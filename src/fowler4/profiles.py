"""Exact solutions and kernels, verified by residuals against the operator.

Everything here is a plain radial evaluator plus, where available,
hand-derived radial derivatives up to fourth order, so the biharmonic
residual can be computed to near machine precision.  Profiles without
exact derivatives fall back to compact-stencil finite differences with
Richardson extrapolation.  The radial path works on Python floats and
loads no numpy; the vector-valued helpers import it where they run, and
sum their dot products left to right on Python floats, not in BLAS,
whose kernel numpy picks per CPU.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

from .bubble import bubble_radial, bubble_radial_derivatives
from .coefficients import hat_constant, oracle_autonomous, radial_bilaplacian
from .params import DomainError, gamma_exponent, special_exponents, unit_sphere_area
from .polys import psum

_RESIDUAL_RMIN = 1e-8
_RESIDUAL_RMAX = 1e8


# ---------------------------------------------------------------------------
# derivative machinery
# ---------------------------------------------------------------------------

# central stencils: order 1,2 are 8th-order; 3,4 are 6th-order and get a
# Richardson sweep to joint order 8.  (k>0 weights; odd orders are applied
# antisymmetrically, even orders symmetrically plus the center weight.)
_FD = {
    1: (8, None, [4 / 5, -1 / 5, 4 / 105, -1 / 280]),
    2: (8, -205 / 72, [8 / 5, -1 / 5, 8 / 315, -1 / 560]),
    3: (6, None, [-61 / 30, 169 / 120, -3 / 10, 7 / 240]),
    4: (6, 91 / 8, [-122 / 15, 169 / 60, -2 / 5, 7 / 240]),
}


def fd_derivative(f: Callable[[float], float], r: float, order: int) -> float:
    """Central-difference derivative with one Richardson sweep (order <= 4).

    Step h = r * eps^{1/(8+k)} balances the order-8 truncation against
    the eps/h^k roundoff of the k-th derivative (k=1 gives the r*eps^{1/9}
    rule; higher k needs the wider step).
    """
    if order == 0:
        return f(r)
    if order not in _FD:
        raise DomainError(f"derivative order {order} unsupported")
    eps = sys.float_info.epsilon
    h = max(abs(r), 1e-3) * eps ** (1.0 / (8.0 + order))
    base, w0, ws = _FD[order]

    def diff(hh):
        if order % 2:
            acc = psum(w * (f(r + k * hh) - f(r - k * hh))
                       for k, w in zip((1, 2, 3, 4), ws))
        else:
            acc = w0 * f(r) + psum(w * (f(r + k * hh) + f(r - k * hh))
                                   for k, w in zip((1, 2, 3, 4), ws))
        return acc / hh**order

    fac = 2.0 ** base
    return (fac * diff(h / 2) - diff(h)) / (fac - 1.0)


@dataclass
class RadialProfile:
    """Radial evaluator with optional exact derivatives."""

    f: Callable[[float], float]
    derivs: Optional[Callable[[float], Sequence[float]]] = None

    def __call__(self, r: float) -> float:
        if r <= 0:
            raise DomainError("radial profiles are defined for r > 0")
        return self.f(r)

    def derivatives(self, r: float) -> Tuple[float, ...]:
        """(u, u', u'', u''', u'''') at r, exact when available."""
        if r <= 0:
            raise DomainError("radial profiles are defined for r > 0")
        if self.derivs is not None:
            return tuple(map(float, self.derivs(r)))
        return tuple(fd_derivative(self.f, r, k) for k in range(5))

    def bilaplacian(self, n: int, r: float) -> float:
        return radial_bilaplacian(n, r, self.derivatives(r))

    def residual(self, n: int, r: float, rhs_value: float) -> float:
        """|Delta^2 u - rhs| / max(|rhs|, tiny) at radius r."""
        if not (_RESIDUAL_RMIN <= r <= _RESIDUAL_RMAX):
            raise DomainError(f"residual sampling restricted to "
                              f"[{_RESIDUAL_RMIN}, {_RESIDUAL_RMAX}], got r={r}")
        lhs = self.bilaplacian(n, r)
        scale = max(abs(rhs_value), 1e-300)
        return abs(lhs - rhs_value) / scale


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bubble:
    """Radially symmetric profile (2 mu / (1 + mu^2 |x-x0|^2))^{(n-4)/2}."""

    n: int
    mu: float = 1.0
    x0: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError("bubble scale mu must be positive")
        special_exponents(self.n)

    def center(self, dim: Optional[int] = None) -> np.ndarray:
        import numpy as np

        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        return np.zeros(dim or self.n)

    def radial(self, r: float) -> float:
        return bubble_radial(self.n, self.mu, r)

    def __call__(self, x) -> float:
        import numpy as np

        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = math.sqrt(psum(d * d for d in (x - self.center(x.size)).tolist()))
        return self.radial(r)

    def radial_derivatives(self, r: float) -> Tuple[float, ...]:
        """Hand-derived (u, u', u'', u''', u'''') of the radial evaluator."""
        return bubble_radial_derivatives(self.n, self.mu, r)

    def profile(self) -> RadialProfile:
        return RadialProfile(self.radial, self.radial_derivatives)


# ---------------------------------------------------------------------------
# singular power-law solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularPower:
    """Lam * K0^{1/(s-1)} |x|^{-gamma(s)}, a solution wherever K0(n, s) > 0:
    s in (-1, 1), (1, (n+2)/(n-2)) or (n/(n-4), inf), so the Gidas--Spruck
    window and the supercritical powers alike."""

    n: int
    s: float
    lam: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        lam = tuple(map(float, self.lam))
        nrm = math.hypot(*lam)
        if any(v < 0 for v in lam) or not nrm > 0:
            raise DomainError("direction vector must be nonnegative and nonzero")
        if abs(nrm - 1.0) > 1e-12:
            lam = tuple(v / nrm for v in lam)
        object.__setattr__(self, "lam", lam)
        ex = special_exponents(self.n)
        K0 = oracle_autonomous(self.n, self.s)["K0"]
        if not K0 > 0:
            raise DomainError(
                f"amplitude requires K0 > 0, i.e. s in (-1, 1), "
                f"(1, {Fraction(self.n + 2, self.n - 2)}) or ({ex.lower}, inf); "
                f"got s={self.s} with K0={K0}")

    @property
    def gamma(self) -> float:
        return float(gamma_exponent(self.s))

    @property
    def amplitude(self) -> float:
        K0 = float(oracle_autonomous(self.n, self.s)["K0"])
        return K0 ** (1.0 / (float(self.s) - 1.0))

    def radial(self, r: float) -> float:
        return self.amplitude * r ** (-self.gamma)

    def __call__(self, x) -> np.ndarray:
        import numpy as np

        x = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
        return np.array(self.lam) * self.radial(math.sqrt(psum(v * v for v in x)))

    def radial_derivatives(self, r: float) -> Tuple[float, ...]:
        g = self.gamma
        A = self.amplitude
        out = [A * r ** (-g)]
        fall = 1.0
        for k in range(4):
            fall *= (-g - k)
            out.append(A * fall * r ** (-g - k - 1))
        return tuple(out)

    def profile(self) -> RadialProfile:
        return RadialProfile(self.radial, self.radial_derivatives)

    def system_residual(self, r: float) -> float:
        """max_i |Delta^2 u_i - |U|^{s-1} u_i| / |U|^{s-1} u_i at radius r."""
        prof = self.profile()
        scalar_rhs = self.radial(r) ** float(self.s)
        res = prof.residual(self.n, r, scalar_rhs)
        return float(res)  # components scale identically along the ray


# ---------------------------------------------------------------------------
# log-corrected profile of the lower-critical regime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvilesProfile:
    """amplitude * r^{4-n} (-ln r)^{(4-n)/4} on 0 < r < 1.

    The amplitude is K^_0(n)^{(n-4)/4}; the variant picks which of the
    ledgered K^_0 values is used ('theorem', 'printed-limit' or
    'chain-rule').
    """

    n: int
    variant: str = "theorem"

    @property
    def hat_value(self) -> float:
        return float(hat_constant(self.n, self.variant))

    @property
    def amplitude(self) -> float:
        return self.hat_value ** ((self.n - 4) / 4.0)

    def __call__(self, r: float) -> float:
        if not (0 < r < 1):
            raise DomainError("log-corrected profile is defined on 0 < r < 1")
        t = -math.log(r)
        return self.amplitude * r ** (4 - self.n) * t ** ((4 - self.n) / 4.0)


# ---------------------------------------------------------------------------
# periodic-orbit wrapper u(r) = r^{(4-n)/2} v(ln r + T)
# ---------------------------------------------------------------------------

class EmdenFowlerProfile:
    """Radial wrapper of a periodic cylinder orbit.

    orbit: a Trajectory over (at least) one fundamental period,
    period: the fundamental period used for periodic extension,
    shift: phase T in v(ln r + T).
    """

    def __init__(self, n: int, orbit, period: float, shift: float = 0.0):
        if not period > 0:
            raise DomainError(f"period must be positive, got {period}")
        self.n = n
        self.orbit = orbit
        self.period = float(period)
        self.shift = float(shift)
        self._t0 = float(orbit.t[0])

    def _fold(self, tau: float) -> float:
        span = self.period
        return self._t0 + ((tau - self._t0) % span)

    def v(self, tau: float) -> float:
        return float(self.orbit(self._fold(tau))[0])

    def __call__(self, r: float) -> float:
        if r <= 0:
            raise DomainError("r must be positive")
        return r ** ((4 - self.n) / 2.0) * self.v(math.log(r) + self.shift)

    def profile(self) -> RadialProfile:
        return RadialProfile(lambda r: self(r))


# ---------------------------------------------------------------------------
# Kelvin transform and the ball kernels
# ---------------------------------------------------------------------------

def inversion_map(x0, mu: float, x) -> np.ndarray:
    """I(x) = x0 + (mu/|x-x0|)^2 (x - x0)."""
    import numpy as np

    if mu <= 0:
        raise DomainError("inversion radius must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x - x0
    q = psum(v * v for v in d.tolist())
    if q == 0:
        raise DomainError("inversion undefined at the center")
    return x0 + (mu * mu / q) * d


def kelvin_transform(profile: Callable, x0, mu: float, n: int) -> Callable:
    """x -> (mu/|x-x0|)^{n-4} profile(I(x))."""
    import numpy as np

    if mu <= 0:
        raise DomainError("mu must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def transformed(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dist = math.sqrt(psum(d * d for d in (x - x0).tolist()))
        if dist == 0:
            raise DomainError("Kelvin transform undefined at the center")
        return (mu / dist) ** (n - 4) * profile(inversion_map(x0, mu, x))

    return transformed


def green_ball(n: int, x, y):
    """(G1, H1) for the unit ball.

    G1 uses the image form |x-y|^{2-n} - (|x| |y - x/|x|^2|)^{2-n}
    (symmetric, vanishing on the boundary); H1 is the Poisson kernel
    (1-|x|^2) / (omega_{n-1} |x-y|^n) for |y| = 1.
    """
    import numpy as np

    if n < 3:
        raise DomainError("kernels need n >= 3")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    xs, ys = x.tolist(), y.tolist()
    rx, ry = math.sqrt(psum(v * v for v in xs)), math.sqrt(psum(v * v for v in ys))
    if rx >= 1 + 1e-14:
        raise DomainError("x must lie in the closed unit ball")
    d = math.sqrt(psum(v * v for v in (x - y).tolist()))
    om = unit_sphere_area(n)
    G1 = None
    if ry <= 1 + 1e-12:
        if d == 0:
            raise DomainError("G1 undefined at coincident points")
        # |x| |y - x/|x|^2| = sqrt(|x|^2 |y|^2 - 2 x.y + 1), symmetric in x, y
        xy = psum(a * b for a, b in zip(xs, ys, strict=True))
        image = math.sqrt(max(rx * rx * ry * ry - 2 * xy + 1.0, 0.0))
        G1 = (d ** (2 - n) - image ** (2 - n)) / ((n - 2) * om)
    H1 = None
    if abs(ry - 1.0) <= 1e-12:
        if d == 0:
            raise DomainError("H1 undefined at coincident points")
        H1 = (1 - rx * rx) / (om * d ** n)
    return G1, H1
