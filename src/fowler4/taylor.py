"""Taylor-series flow of the critical equation v'''' = c v^P - K2 v'' - K0 v.

Serves every shooting run from the orbit minimum, where v > 0.  Each step
expands v about the current state to order ``_ORDER + 3`` (so every one
of the four state components has a series of order ``_ORDER``),
computing the coefficients w_k of w = v^P by the power recurrence
(Moore 1966; Jorba and Zou, Exp. Math. 14, 2005): v w' = P v' w gives

    w_k = sum_{j<k} (P (k - j) - j) v_{k-j} w_j / (k v_0).

The step size bounds the truncation error of all four components by the
last two terms of their series, so a step is exact to about the
``_TOL`` of its scalar type relative to max(1, |y|); there are no
rejected steps.  A run computes in the scalar type of its initial state:
plain Python floats, which for 4-vectors are faster than numpy dispatch,
or ``np.longdouble`` scalars.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

from .integrate import Trajectory

_ORDER = 24   # series order of each state component
# per scalar type, bound on the last two terms relative to max(1, |y|_inf):
# below the rounding of the state
_TOL = {float: 1e-16, np.longdouble: 5e-20}
_ORBIT_GUARD = 1e6  # |y|_inf past which a run stops as undefined


@lru_cache(maxsize=None)
def _tables(consts, scal):
    """Equation constants and the recurrence and series tables, in type scal."""
    P = scal(consts.power)
    rows = [()] + [tuple((P * (k - j) - j) / k for j in range(k)) for k in range(1, _ORDER)]
    # v_{k+4} = (c w_k - K2 (k+1)(k+2) v_{k+2} - K0 v_k) / ((k+1)(k+2)(k+3)(k+4))
    k2 = tuple(float((k + 1) * (k + 2)) for k in range(_ORDER))
    den = tuple(scal(1) / ((k + 1) * (k + 2) * (k + 3) * (k + 4)) for k in range(_ORDER))
    # the m-th coefficient of the i-th derivative is v_{m+i} (m+1)...(m+i)
    fac = tuple(tuple(float(math.prod(range(m + 1, m + i + 1))) for m in range(_ORDER + 1))
                for i in range(4))
    return scal(consts.c), scal(consts.K2), scal(consts.K0), P, rows, k2, den, fac


def series(consts, y):
    """Taylor coefficients of the four components (v, v', v'', v''') about y.

    Returns four lists of ``_ORDER + 1`` scalars of the type of y[0]; entry
    [i][m] is the m-th coefficient of the i-th derivative of v.  Requires
    y[0] > 0.
    """
    c, K2, K0, P, rows, k2, den, fac = _tables(consts, type(y[0]))
    v = [y[0], y[1], 0.5 * y[2], y[3] / 6.0]
    w = [v[0] ** P]
    inv_v0 = 1.0 / v[0]
    for k in range(_ORDER):
        if k:
            w.append(sum(map(mul, map(mul, rows[k], v[k:0:-1]), w)) * inv_v0)
        v.append((c * w[k] - K2 * k2[k] * v[k + 2] - K0 * v[k]) * den[k])
    return [list(map(mul, fac[i], v[i:i + _ORDER + 1])) for i in range(4)]


def _horner(cs, s):
    acc = 0.0
    for x in reversed(cs):
        acc = acc * s + x
    return acc


def _step_size(coef, eps):
    """Largest h with both last terms of every component at most eps."""
    h = math.inf
    for cs in coef:
        for m in (_ORDER - 1, _ORDER):
            if cs[m]:
                h = min(h, (eps / abs(cs[m])) ** (1.0 / m))
    return h


def _first_root(d1, d2, hi):
    """Root in (0, hi] of the series d1 (positive at 0, not at hi).

    Newton's method with derivative series d2, guarded by bisection.
    """
    lo, s = 0.0, hi
    for _ in range(100):
        f = _horner(d1, s)
        if f > 0:
            lo = s
        else:
            hi = s
        slope = _horner(d2, s)
        step = f / slope if slope else math.inf
        if abs(step) <= 2 * np.spacing(s) or hi - lo <= 4 * np.spacing(hi):
            break
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    return s


def flow(consts, y0, t_end: float, first_max: bool = False) -> Trajectory:
    """Integrate the critical equation from t = 0 towards t_end.

    The run is in longdouble where any component of ``y0`` is a
    ``np.longdouble``, else in Python floats.  With ``first_max`` it stops
    at the first maximum of v (v' crossing zero downward), recorded as a
    terminal event, status ``"event"``.  A run stops with status
    ``"undefined"`` where v <= 0, |y| passes ``_ORBIT_GUARD`` or the step
    size collapses.  ``dense[i]`` holds step i's series scaled to powers of
    theta = (t - t[i]) / h[i], so the record is an ordinary dense-output
    Trajectory of degree ``_ORDER``.
    """
    scal = np.longdouble if any(isinstance(x, np.longdouble) for x in y0) else float
    tol = _TOL[scal]
    t = 0.0
    y = [scal(x) for x in y0]
    ts, ys, hs, coefs = [t], [y], [], []
    events = [[]]
    status = "reached"
    while t < t_end:
        size = max(map(abs, y))
        if not (y[0] > 0 and size <= _ORBIT_GUARD):
            status = "undefined"
            break
        coef = series(consts, y)
        h = _step_size(coef, tol * max(1.0, size))
        if not (h > 0 and t + h > t):
            status = "undefined"
            break
        last = t + h >= t_end
        if last:
            h = t_end - t
        if first_max and y[1] > 0 and _horner(coef[1], h) <= 0:
            h, last, status = _first_root(coef[1], coef[2], h), False, "event"
        hs.append(h)
        coefs.append(coef)
        y = [_horner(cs, h) for cs in coef]
        t = t_end if last else t + h
        ts.append(t)
        ys.append(y)
        if status == "event":
            events[0].append((t, np.array(y)))
            break
    h = np.array(hs)
    dense = (np.array(coefs).reshape(len(hs), 4, _ORDER + 1)[:, :, 1:]
             * h[:, None, None] ** np.arange(_ORDER))
    return Trajectory(t=np.array(ts), y=np.array(ys), stats={"steps": len(hs)}, h=h,
                      dense=dense, status=status, events=events)
