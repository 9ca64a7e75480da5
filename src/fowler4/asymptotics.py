"""Regime classification and asymptotic-profile fitting.

The trichotomy in (n, s) decides which singular profile a radial data
set should follow; the fitters recover exponents and amplitudes from
samples and report the distance to the predicted constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .levels import aviles_amplitude, constant_level
from .params import DomainError, Scalar, as_exact, gamma_exponent, is_exact, special_exponents

_BOUNDARY_TOL = 1e-12
# fewest samples each fit takes
POWER_FIT_MIN_SAMPLES = 8
LOG_FIT_MIN_SAMPLES = 12
# (t_lo, t_hi, num) of residual_decay_check: three decades of the C/t
# tail, geometrically spaced
_DECAY_GRID = (10.0, 1e4, 25)


class Regime(enum.Enum):
    SERRIN_LIONS = "SERRIN_LIONS"
    AVILES = "AVILES"
    GIDAS_SPRUCK = "GIDAS_SPRUCK"
    CRITICAL = "CRITICAL"
    SUPERCRITICAL = "SUPERCRITICAL"


@dataclass(frozen=True)
class RegimeReport:
    regime: Regime
    n: int
    s: Scalar
    predicted_exponent: float          # u ~ r^{-predicted_exponent}
    predicted_amplitude: Optional[float]
    log_correction_exponent: Optional[float]
    description: str


def classify_regime(n: int, s: Scalar) -> RegimeReport:
    """Exact trichotomy in s: below/at/above the lower exponent, critical."""
    ex = special_exponents(n)
    s = as_exact(s)
    if not s > 1:
        raise DomainError("classification needs s > 1")
    if is_exact(s):
        below = s < ex.lower
        at_lower = s == ex.lower
        at_critical = s == ex.critical_power
        above_crit = s > ex.critical_power
    else:
        sf, lo, cr = float(s), float(ex.lower), float(ex.critical_power)
        at_lower = abs(sf - lo) <= _BOUNDARY_TOL * lo
        at_critical = abs(sf - cr) <= _BOUNDARY_TOL * cr
        below = sf < lo and not at_lower
        above_crit = sf > cr and not at_critical
    if below:
        return RegimeReport(Regime.SERRIN_LIONS, n, s, float(n - 4), None, None,
                            "fundamental-solution growth |x|^{4-n}")
    if at_lower:
        return RegimeReport(Regime.AVILES, n, s, float(n - 4), aviles_amplitude(n),
                            (4 - n) / 4.0,
                            "log-corrected profile |x|^{4-n} (-ln|x|)^{(4-n)/4}")
    if at_critical:
        return RegimeReport(Regime.CRITICAL, n, s, (n - 4) / 2.0, None, None,
                            "periodic-orbit profile |x|^{(4-n)/2} v(ln|x|+T)")
    if above_crit:
        return RegimeReport(Regime.SUPERCRITICAL, n, s, float("nan"), None, None,
                            "outside the studied range")
    return RegimeReport(Regime.GIDAS_SPRUCK, n, s, float(gamma_exponent(s)),
                        constant_level(n, s) or 0.0, None,
                        "pure power profile K0^{1/(s-1)} |x|^{-4/(s-1)}")


@dataclass
class FitReport:
    exponent: float
    amplitude: float
    residual: float                    # RMS of log deviations
    log_exponent: Optional[float] = None
    amplitude_targets: Dict[str, float] = field(default_factory=dict)

    def amplitude_distance(self, key: str) -> float:
        tgt = self.amplitude_targets[key]
        return abs(self.amplitude - tgt) / abs(tgt)


def geometric_grid(lo: float, hi: float, num: int) -> List[float]:
    """num >= 2 points from lo to hi in geometric progression, both ends
    exact, by the C library's pow on Python floats: the same bits on every
    CPU, where numpy picks its power loop per CPU.

    lo * (hi/lo)^(i/(num-1)) rounds once in hi/lo and once in the power:
    it stays within 3 eps (relative) of the exact progression on C09's
    grids, where the exponential of a sum of logs strays by up to 15 eps.
    """
    q = hi / lo
    return [lo] + [lo * q ** (i / (num - 1)) for i in range(1, num - 1)] + [hi]


def _lsq_line(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float, float]:
    """Least-squares line y ~ slope x + intercept and the RMS of its residuals.

    The closed form on centred data, each sum correctly rounded by
    math.fsum: the bits depend on no BLAS build, and exact data on a line
    give its slope to the last bit or so.
    """
    m = len(x)
    xm, ym = math.fsum(x) / m, math.fsum(y) / m
    dx = [v - xm for v in x]
    dy = [v - ym for v in y]
    sxx = math.fsum(a * a for a in dx)
    if not sxx > 0:
        raise DomainError("a line fit needs two distinct abscissae")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    rss = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, ym - slope * xm, math.sqrt(rss / m)


def _samples(samples: Sequence[Tuple[float, float]], minimum: int):
    """(radii, values) as float lists, at least ``minimum`` of them, all finite."""
    rs = [float(r) for r, _ in samples]
    vs = [float(v) for _, v in samples]
    if len(rs) < minimum:
        raise DomainError(f"need at least {minimum} samples")
    if not all(map(math.isfinite, rs + vs)):
        raise DomainError("samples must be finite")
    return rs, vs


def fit_power_law(samples: Sequence[Tuple[float, float]]) -> FitReport:
    """Ordinary least squares of ln(value) on ln(r); value ~ A r^{-exponent}.

    Needs >= 8 finite positive samples spanning at least two decades.
    """
    rs, vs = _samples(samples, POWER_FIT_MIN_SAMPLES)
    if min(vs) <= 0 or min(rs) <= 0:
        raise DomainError("power-law fit needs positive radii and values")
    if max(rs) / min(rs) < 99.0:
        raise DomainError("samples must span at least two decades in r")
    slope, intercept, res = _lsq_line([math.log(r) for r in rs],
                                      [math.log(v) for v in vs])
    return FitReport(exponent=-slope, amplitude=math.exp(intercept), residual=res)


def fit_log_corrected(samples: Sequence[Tuple[float, float]], n: int) -> FitReport:
    """Fit value * r^{n-4} = A (-ln r)^q by regression in ln(-ln r).

    Requires an admissible dimension (see ``special_exponents``) and finite
    samples with 0 < r < e^{-2} throughout, >= 12 of them, each
    value * r^{n-4} positive in float; reports q, A and the distance of A
    to each ledgered amplitude variant.
    """
    special_exponents(n)
    rs, vs = _samples(samples, LOG_FIT_MIN_SAMPLES)
    if min(rs) <= 0 or max(rs) >= math.exp(-2.0):
        raise DomainError("log-corrected fit requires 0 < r < e^{-2}")
    if min(vs) <= 0:
        raise DomainError("values must be positive")
    scaled = [v * r ** (n - 4.0) for r, v in zip(rs, vs)]
    if min(scaled) == 0:
        raise DomainError("a value * r^(n-4) underflows to 0")
    slope, intercept, res = _lsq_line([math.log(-math.log(r)) for r in rs],
                                      [math.log(x) for x in scaled])
    A = math.exp(intercept)
    targets = {v: aviles_amplitude(n, v) for v in ("theorem", "printed-limit", "chain-rule")}
    return FitReport(exponent=float(n - 4), amplitude=A, residual=res,
                     log_exponent=slope, amplitude_targets=targets)


def residual_decay_check(n: int) -> Dict[str, float]:
    """Fitted decay rate of the t-weighted residual at the constant level.

    The residual along w* behaves like C/t; the fitted rate is the
    negative log-log slope over ``_DECAY_GRID`` and should land in
    [0.9, 1.1].
    """
    from .pohozaev import constant_state_residuals

    ts = geometric_grid(*_DECAY_GRID)
    res = constant_state_residuals(n, ts)
    if not any(res):
        return {"rate": float("nan"), "exact": 1.0}
    slope, _, rms = _lsq_line([math.log(t) for t in ts], [math.log(r) for r in res])
    return {"rate": -slope, "rms": rms, "exact": 0.0}
