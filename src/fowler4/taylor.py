"""Taylor-series flow of the critical equation v'''' = c v^P - K2 v'' - K0 v.

Serves every shooting run from the orbit minimum, where v > 0.  Each step
expands v about the current state to order ``_ORDER + 3`` (so every one
of the four state components has a series of order ``_ORDER``),
computing the coefficients w_k of w = v^P by the power recurrence
(Moore 1966; Jorba and Zou, Exp. Math. 14, 2005): v w' = P v' w gives

    w_k = sum_{j<k} (P (k - j) - j) v_{k-j} w_j / (k v_0).

Each sum runs left to right in plain float steps.  Every shooting run
starts at a turning point, the orbit minimum (a, 0, b, 0): there
v' = v''' = 0, and the equation is reversible, so the solution is even
in t.  Its odd v_k and w_k vanish, and each term of an odd w_k, and each
odd-j term of an even one, is a product with a zero factor.  A running
sum that starts at +0.0 never becomes -0.0 (x + (-0.0) is x, and
+0.0 + (-0.0) is +0.0), so skipping those terms changes no bit: an odd
w_k is exactly +0, and an even w_k sums its even-j terms only.

The step size bounds the truncation error of all four components by the
last two terms of their series, so a step is exact to about the
``_TOL`` of its scalar type relative to max(1, |y|); there are no
rejected steps.  A run computes in the scalar type of its initial state:
plain Python floats, which for 4-vectors are faster than numpy dispatch,
or ``np.longdouble`` scalars.

``march`` is the one step loop of every run and returns its nodes and
series as lists in the run's type, and the first maximum of v it
crosses; it stops a run there when asked, else as soon as ``_fate``
decides whether v escapes or crashes.  ``flow`` packages ``march``'s
record as a float64 dense-output ``Trajectory``, whatever the run's type.
A bounded orbit never enters either decided region, so the stop leaves a
closing one-period orbit as it is.  Shooting builds dense output only
for the one-period orbit it samples.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

from .integrate import Trajectory
from .polys import peval

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
    erows = [r[::2] for r in rows]   # the even-j terms, a turning point's
    # v_{k+4} = (c w_k - K2 (k+1)(k+2) v_{k+2} - K0 v_k) / ((k+1)(k+2)(k+3)(k+4))
    k2 = tuple(float((k + 1) * (k + 2)) for k in range(_ORDER))
    den = tuple(scal(1) / ((k + 1) * (k + 2) * (k + 3) * (k + 4)) for k in range(_ORDER))
    # the m-th coefficient of the i-th derivative is v_{m+i} (m+1)...(m+i)
    fac = tuple(tuple(float(math.prod(range(m + 1, m + i + 1))) for m in range(_ORDER + 1))
                for i in range(4))
    return scal(consts.c), scal(consts.K2), scal(consts.K0), P, rows, erows, k2, den, fac


def series(consts, y):
    """Taylor coefficients of the four components (v, v', v'', v''') about y.

    Returns four lists of ``_ORDER + 1`` scalars of the type of y[0]; entry
    [i][m] is the m-th coefficient of the i-th derivative of v.  Requires
    y[0] > 0.
    """
    return _series(_tables(consts, type(y[0])), y)


def _series(tables, y):
    c, K2, K0, P, rows, erows, k2, den, fac = tables
    v = [y[0], y[1], 0.5 * y[2], y[3] / 6.0]
    wk = v[0] ** P
    inv_v0 = 1.0 / v[0]
    even = not (y[1] or y[3])   # a turning point: odd w_k are +0
    if even:
        rows = erows
    w = [wk]   # the w_j a sum reads: all of them, or the even ones
    rv = []    # their v_{k-j}: v[k:0:-1], or v[k:1:-2]
    for k in range(_ORDER):
        if k:
            if even and k % 2:
                wk = 0.0 * inv_v0
            else:
                rv.insert(0, v[k])
                # left to right in plain float steps: the built-in sum
                # compensates from Python 3.12 on, which would move the bits
                acc = 0.0
                for r, vk, wj in zip(rows[k], rv, w):
                    acc += r * vk * wj
                wk = acc * inv_v0
                w.append(wk)
        v.append((c * wk - K2 * k2[k] * v[k + 2] - K0 * v[k]) * den[k])
    return [list(map(mul, fac[i], v[i:i + _ORDER + 1])) for i in range(4)]


def _step_size(coef, eps):
    """Largest h with both last terms of every component at most eps."""
    h = math.inf
    for cs in coef:
        for m in (_ORDER - 1, _ORDER):
            if cs[m]:
                h = min(h, (eps / abs(cs[m])) ** (1.0 / m))
    return h


def _state(coef, h):
    """``[peval(cs, h) for cs in coef]`` in one pass over the orders: each
    component starts at 0 and takes peval's steps, so it has its bits."""
    c0, c1, c2, c3 = coef
    a0 = a1 = a2 = a3 = 0
    for m in range(_ORDER, -1, -1):
        a0 = a0 * h + c0[m]
        a1 = a1 * h + c1[m]
        a2 = a2 * h + c2[m]
        a3 = a3 * h + c3[m]
    return [a0, a1, a2, a3]


def _first_root(d1, d2, hi):
    """Root in (0, hi] of the series d1 (positive at 0, not at hi).

    Newton's method with derivative series d2, guarded by bisection.
    """
    lo, s = 0.0, hi
    for _ in range(100):
        f = peval(d1, s)
        if f > 0:
            lo = s
        else:
            hi = s
        slope = peval(d2, s)
        step = f / slope if slope else math.inf
        if abs(step) <= 2 * np.spacing(s) or hi - lo <= 4 * np.spacing(hi):
            break
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    return s


def _fate(a0, t, y, t_end):
    """``"escape"``, ``"crash"`` or None: whether the state y at time t lies
    in one of two forward-invariant regions of v'''' = c v^P - K2 v'' - K0 v.

    Premise: K0 > 0 > K2, c > 0 and P > 1 (true for each admissible n).  Then
    a0 = (K0/c)^(1/(P-1)) is the positive equilibrium and, for v > 0,
    v'''' = v (c v^(P-1) - K0) + |K2| v''.

    - Escape: v > a0 and v', v'', v''' > 0.  Both terms of v'''' are
      positive, so v''' grows, and with it v'', v' and v: every component
      keeps growing, v never returns to 0 and v' never vanishes.
    - Crash: 0 < v < a0, v', v'', v''' < 0 and t + v/(-v') < t_end.  Both
      terms are negative while v stays in (0, a0), so v''', v'' and v' keep
      falling and v' stays at or below its value here: v reaches 0 by
      t + v/(-v'), before t_end.
    """
    v, v1, v2, v3 = y
    if v1 > 0 and v2 > 0 and v3 > 0 and v > a0:
        return "escape"
    if v1 < 0 and v2 < 0 and v3 < 0 and 0 < v < a0 and t + v / -v1 < t_end:
        return "crash"
    return None


def march(consts, y0, t_end: float, first_max: bool = False):
    """The step loop of shooting's runs: ``(status, ts, ys, hs, coefs, first)``.

    Node i is (ts[i], ys[i]), ys[i] a list of scalars of the run's type;
    step i runs from node i over hs[i] with the series coefs[i] (as
    returned by ``series``) and ends on node i + 1.  ``first`` is the first
    maximum of v (v' crossing zero downward) as ``(t1, y(t1))``, evaluated
    on the series of the step that crosses it, or None where the run
    crosses none.  With ``first_max`` the run stops there, with status
    ``"event"``, and that maximum is its last node; without, it keeps the
    full step and runs on.  Up to that step both kinds of run take the
    same steps, so a run records the maximum a ``first_max`` run ends on,
    bit for bit.  A run stops with status ``"escape"`` or ``"crash"`` at
    the first node whose fate ``_fate`` decides: from there v grows for
    ever, or reaches 0 before t_end.  It stops with ``"undefined"`` where
    v <= 0, |y| passes ``_ORBIT_GUARD`` or the step size collapses.  The
    last node is the run's end, the maximum or the node where it stopped.
    Builds no arrays.
    """
    scal = np.longdouble if any(isinstance(x, np.longdouble) for x in y0) else float
    tables = _tables(consts, scal)
    c, _, K0, P = tables[:4]
    a0 = (K0 / c) ** (1 / (P - 1))
    tol = _TOL[scal]
    t = 0.0
    y = [scal(x) for x in y0]
    ts, ys, hs, coefs = [t], [y], [], []
    status, first = "reached", None
    while t < t_end:
        size = max(map(abs, y))
        if not (y[0] > 0 and size <= _ORBIT_GUARD):
            status = "undefined"
            break
        fate = _fate(a0, t, y, t_end)
        if fate:
            status = fate
            break
        coef = _series(tables, y)
        h = _step_size(coef, tol * max(1.0, size))
        if not (h > 0 and t + h > t):
            status = "undefined"
            break
        last = t + h >= t_end
        if last:
            h = t_end - t
        y_new = _state(coef, h)
        if first is None and y[1] > 0 and y_new[1] <= 0:
            h1 = _first_root(coef[1], coef[2], h)
            first = (t + h1, _state(coef, h1))
            if first_max:
                hs.append(h1)
                coefs.append(coef)
                ts.append(first[0])
                ys.append(first[1])
                return "event", ts, ys, hs, coefs, first
        hs.append(h)
        coefs.append(coef)
        y = y_new
        t = t_end if last else t + h
        ts.append(t)
        ys.append(y)
    return status, ts, ys, hs, coefs, first


def flow(consts, y0, t_end: float) -> Trajectory:
    """Integrate the critical equation from t = 0 towards t_end.

    The run is in longdouble where any component of ``y0`` is a
    ``np.longdouble``, else in Python floats; its record (``t``, ``y``,
    ``h``, ``dense``) is float64 either way.  The run, and its status, are
    those of ``march(consts, y0, t_end)``.  ``dense[i]`` holds step i's
    series scaled to powers of theta = (t - t[i]) / h[i], so the record is
    an ordinary dense-output Trajectory of degree ``_ORDER``.  The
    packaging is its cost over ``march``; shooting asks for it only for
    the one-period orbit.
    """
    status, ts, ys, hs, coefs, _ = march(consts, y0, t_end)
    h = np.array(hs, dtype=float)
    # h^m by the C library's pow on Python floats: numpy's power loop is
    # picked per CPU, and its AVX-512 one rounds some h^m differently
    powers = np.array([[x ** m for m in range(_ORDER)] for x in h.tolist()])
    dense = (np.array(coefs, dtype=float).reshape(len(hs), 4, _ORDER + 1)[:, :, 1:]
             * powers.reshape(len(hs), 1, _ORDER))
    return Trajectory(t=np.array(ts, dtype=float), y=np.array(ys, dtype=float),
                      stats={"steps": len(hs)}, h=h, dense=dense, status=status)
