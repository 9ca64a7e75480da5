"""Regime classification and asymptotic-profile fitting.

The trichotomy in (n, s) decides which singular profile a radial data
set should follow; the fitters recover exponents and amplitudes from
samples and report the distance to the predicted constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .coefficients import hat_constant, oracle_autonomous
from .params import DomainError, Scalar, as_exact, gamma_exponent, is_exact, special_exponents
from .pohozaev import constant_state_residuals

_BOUNDARY_TOL = 1e-12
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
    s = as_exact(s)
    if n < 5:
        raise DomainError("classification needs n >= 5")
    if not s > 1:
        raise DomainError("classification needs s > 1")
    ex = special_exponents(n)
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
        amp = float(hat_constant(n, "theorem")) ** ((n - 4) / 4.0)
        return RegimeReport(Regime.AVILES, n, s, float(n - 4), amp,
                            (4 - n) / 4.0,
                            "log-corrected profile |x|^{4-n} (-ln|x|)^{(4-n)/4}")
    if at_critical:
        return RegimeReport(Regime.CRITICAL, n, s, (n - 4) / 2.0, None, None,
                            "periodic-orbit profile |x|^{(4-n)/2} v(ln|x|+T)")
    if above_crit:
        return RegimeReport(Regime.SUPERCRITICAL, n, s, float("nan"), None, None,
                            "outside the studied range")
    g = float(gamma_exponent(s))
    K0 = float(oracle_autonomous(n, s)["K0"])
    amp = K0 ** (1.0 / (float(s) - 1.0)) if K0 > 0 else 0.0
    return RegimeReport(Regime.GIDAS_SPRUCK, n, s, g, amp, None,
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


def _lsq_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    res = y - (slope * x + intercept)
    return slope, intercept, float(np.sqrt(np.mean(res**2)))


def fit_power_law(samples: Sequence[Tuple[float, float]]) -> FitReport:
    """Ordinary least squares of ln(value) on ln(r); value ~ A r^{-exponent}.

    Needs >= 8 positive samples spanning at least two decades.
    """
    rs = np.array([p[0] for p in samples], dtype=float)
    vs = np.array([p[1] for p in samples], dtype=float)
    if rs.size < 8:
        raise DomainError("need at least 8 samples")
    if np.any(vs <= 0) or np.any(rs <= 0):
        raise DomainError("power-law fit needs positive radii and values")
    if np.max(rs) / np.min(rs) < 99.0:
        raise DomainError("samples must span at least two decades in r")
    slope, intercept, res = _lsq_line(np.log(rs), np.log(vs))
    return FitReport(exponent=-slope, amplitude=math.exp(intercept), residual=res)


def fit_log_corrected(samples: Sequence[Tuple[float, float]], n: int) -> FitReport:
    """Fit value * r^{n-4} = A (-ln r)^q by regression in ln(-ln r).

    Requires r < e^{-2} throughout and >= 12 samples; reports q, A and
    the distance of A to each ledgered amplitude variant.
    """
    rs = np.array([p[0] for p in samples], dtype=float)
    vs = np.array([p[1] for p in samples], dtype=float)
    if rs.size < 12:
        raise DomainError("need at least 12 samples")
    if np.any(rs >= math.exp(-2.0)):
        raise DomainError("log-corrected fit requires r < e^{-2}")
    if np.any(vs <= 0):
        raise DomainError("values must be positive")
    reduced = vs * rs ** (n - 4.0)
    ts = -np.log(rs)
    slope, intercept, res = _lsq_line(np.log(ts), np.log(reduced))
    A = math.exp(intercept)
    targets = {v: float(hat_constant(n, v)) ** ((n - 4) / 4.0)
               for v in ("theorem", "printed-limit", "chain-rule")}
    return FitReport(exponent=float(n - 4), amplitude=A, residual=res,
                     log_exponent=slope, amplitude_targets=targets)


def residual_decay_check(n: int) -> Dict[str, float]:
    """Fitted decay rate of the t-weighted residual at the constant level.

    The residual along w* behaves like C/t; the fitted rate is the
    negative log-log slope over ``_DECAY_GRID`` and should land in
    [0.9, 1.1].
    """
    ts = np.geomspace(*_DECAY_GRID)
    res = np.array(constant_state_residuals(n, ts.tolist()))
    if np.all(res == 0.0):
        return {"rate": float("nan"), "exact": 1.0}
    slope, _, rms = _lsq_line(np.log(ts), np.log(res))
    return {"rate": -slope, "rms": rms, "exact": 0.0}
