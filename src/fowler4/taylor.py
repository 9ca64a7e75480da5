"""Taylor-series flow of the critical equation v'''' = c v^P - K2 v'' - K0 v.

Serves every shooting run from the orbit minimum, where v > 0.  Each step
expands v about the current state to order ``_ORDER + 3`` (so every one
of the four state components has a series of order ``_ORDER``),
computing the coefficients w_k of w = v^P by the power recurrence
(Moore 1966; Jorba and Zou, Exp. Math. 14, 2005): v w' = P v' w gives

    w_k = sum_{j<k} (P (k - j) - j) v_{k-j} w_j / (k v_0).

Arithmetic rule: each sum starts at 0.0 and runs left to right in plain
float steps (the built-in sum compensates from Python 3.12 on, which
would move the bits).  The recurrence runs as straight-line Python,
generated once per process for each of two parities and bound to each
(constants, scalar type) on first use (``_kernel_factory``, ``_kernels``):
written out term by term, it does the same operations in the same order
as the loop over the terms that the tests keep as the reference, so it
gives the same bits without the interpreter's per-term loop overhead.
The two per-step helpers, the state at the step's end and the step size,
are straight-line Python by the same rule (``_step_kernels``): generated
from ``_ORDER`` and compiled once per process on first use, each with the
operations of its loop form, which the tests keep, in the same order.
Every shooting run starts at a turning point, the orbit minimum
(a, 0, b, 0): there v' = v''' = 0, and the equation is reversible, so
the solution is even in t.  Its odd v_k and w_k vanish, and each term of
an odd w_k, and each odd-j term of an even one, is a product with a zero
factor.  A running sum that starts at +0.0 never becomes -0.0
(x + (-0.0) is x, and +0.0 + (-0.0) is +0.0), so skipping those terms
changes no bit: the turning-point kernel takes an odd w_k as exactly +0,
and sums an even w_k over its even-j terms only.

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
import sys
from functools import lru_cache

import numpy as np

from .integrate import Trajectory
from .polys import peval

_ORDER = 24   # series order of each state component
# per scalar type, bound on the last two terms relative to max(1, |y|_inf):
# below the rounding of the state
_TOL = {float: 1e-16, np.longdouble: 5e-20}
# per scalar type, the spacing of its values at x > 0: math.ulp equals
# np.spacing below the largest float, without numpy's dispatch
_SPACING = {float: math.ulp, np.longdouble: np.spacing}
# per scalar type, its machine epsilon (the spacing at 1)
_EPS = {float: sys.float_info.epsilon, np.longdouble: np.finfo(np.longdouble).eps}
_ORBIT_GUARD = 1e6  # |y|_inf past which a run stops as undefined
# the m-th coefficient of the i-th derivative is v_{m+i} (m+1)...(m+i)
_FAC = tuple(tuple(float(math.prod(range(m + 1, m + i + 1))) for m in range(_ORDER + 1))
             for i in range(4))


def run_type(*xs):
    """The scalar type a run on xs computes in: ``np.longdouble`` where any
    x is one, else float.  ``march``, shooting's Brent search and its
    precision tiers all take their type from here."""
    return np.longdouble if any(isinstance(x, np.longdouble) for x in xs) else float


@lru_cache(maxsize=None)
def _tables(consts, scal):
    """Equation constants and the recurrence tables, in type scal."""
    P = scal(consts.power)
    rows = [()] + [tuple((P * (k - j) - j) / k for j in range(k)) for k in range(1, _ORDER)]
    # v_{k+4} = (c w_k - K2 (k+1)(k+2) v_{k+2} - K0 v_k) / ((k+1)(k+2)(k+3)(k+4))
    k2 = tuple(float((k + 1) * (k + 2)) for k in range(_ORDER))
    den = tuple(scal(1) / ((k + 1) * (k + 2) * (k + 3) * (k + 4)) for k in range(_ORDER))
    return scal(consts.c), scal(consts.K2), scal(consts.K0), P, rows, k2, den


@lru_cache(maxsize=None)
def _kernel_factory(even: bool):
    """``factory(*_tables(consts, scal))`` returns ``kernel(y)``, the series
    of ``series`` at y as straight-line Python: the turning-point kernel
    where even, else the general one.

    The factory unpacks the table entries the kernel reads into closure
    cells, K2 * k2[k] as one factor q_k (the recurrence's first product),
    and the kernel writes the recurrence out term by term:
    v_{k+4} = (c * w_k - q_k * v_{k+2} - K0 * v_k) * den_k, and for k > 0
    w_k is the sum from 0.0 of rows[k][j] * v_{k-j} * w_j, left to right,
    times 1 / v_0; entry [i][m] of the result is ``_FAC[i][m] * v_{m+i}``,
    with ``_FAC`` as literals.  The even kernel takes each odd w_k as
    0.0 * (1 / v_0) and sums the even-j terms of an even one.  The source
    depends on the parity and ``_ORDER`` alone, so each is compiled once
    per process."""
    N = _ORDER

    def names(fmt, ix):
        return ", ".join(fmt.format(i) for i in ix)

    lines = ["def factory(c, K2, K0, P, rows, k2, den):"]
    lines += [f"    [{names(f'r{k}_{{}}', range(k))}] = rows[{k}]" for k in range(1, N)
              if not (even and k % 2)]
    lines += [f"    [{names('q{}', range(N))}] = [K2 * x for x in k2]",
              f"    [{names('d{}', range(N))}] = den"]
    lines += ["    def kernel(y):",
              "        v0, v1, y2, y3 = y",
              "        v2 = 0.5 * y2",
              "        v3 = y3 / 6.0",
              "        w0 = v0 ** P",
              "        inv = 1.0 / v0"]
    if even:
        lines.append("        w_odd = 0.0 * inv")
    for k in range(N):
        wk = "w_odd" if even and k % 2 else f"w{k}"
        if k and wk != "w_odd":
            terms = "".join(f" + r{k}_{j} * v{k - j} * w{j}"
                            for j in range(0, k, 2 if even else 1))
            lines.append(f"        w{k} = (0.0{terms}) * inv")
        lines.append(f"        v{k + 4} = (c * {wk} - q{k} * v{k + 2} - K0 * v{k}) * d{k}")
    lines += ["        return [" + ", ".join(
                  "[" + ", ".join(f"{f!r} * v{m + i}" for m, f in enumerate(_FAC[i])) + "]"
                  for i in range(4)) + "]",
              "    return kernel"]
    namespace = {}
    exec(compile("\n".join(lines) + "\n",
                 f"<taylor series kernel, {'even' if even else 'general'}>", "exec"), namespace)
    return namespace["factory"]


@lru_cache(maxsize=None)
def _kernels(consts, scal):
    """The turning-point and the general series kernel of consts in type scal."""
    tables = _tables(consts, scal)
    return _kernel_factory(True)(*tables), _kernel_factory(False)(*tables)


def series(consts, y):
    """Taylor coefficients of the four components (v, v', v'', v''') about y.

    Returns four lists of ``_ORDER + 1`` scalars of the type of y[0]; entry
    [i][m] is the m-th coefficient of the i-th derivative of v.  Requires
    y[0] > 0.
    """
    even, general = _kernels(consts, type(y[0]))
    return (general if y[1] or y[3] else even)(y)


@lru_cache(maxsize=None)
def _step_kernels():
    """``(state, step_size)``, the two per-step helpers of ``march`` as
    straight-line Python, generated from ``_ORDER`` and compiled once per
    process on first use.

    ``state(coef, h)`` is ``[peval(cs, h) for cs in coef]``: each component
    by Horner's rule from the integer 0, peval's steps, so it has their bits.
    ``step_size(coef, eps)`` is the largest h with both last terms of every
    component at most eps: the min, in component order and order
    ``_ORDER - 1`` before ``_ORDER``, of (eps / |c_m|) ** (1.0 / m) over the
    nonzero last terms c_m, and inf where all of them are zero."""
    N = _ORDER
    lines = ["def state(coef, h):",
             "    c0, c1, c2, c3 = coef"]
    horners = []
    for i in range(4):
        acc = "0"
        for m in range(N, -1, -1):
            acc = f"{acc if acc == '0' else f'({acc})'} * h + c{i}[{m}]"
        horners.append(acc)
    lines += ["    return [" + ",\n            ".join(horners) + "]",
              "def step_size(coef, eps):",
              "    c0, c1, c2, c3 = coef",
              "    h = inf"]
    for i in range(4):
        for m in (N - 1, N):
            lines += [f"    x = c{i}[{m}]",
                      "    if x:",
                      f"        x = (eps / abs(x)) ** {1.0 / m!r}",
                      "        if x < h:",
                      "            h = x"]
    lines.append("    return h")
    namespace = {"inf": math.inf}
    exec(compile("\n".join(lines) + "\n", "<taylor state and step size>", "exec"), namespace)
    return namespace["state"], namespace["step_size"]


def _first_root(d1, d2, hi, spacing):
    """Root in (0, hi] of the series d1 (positive at 0, not at hi).

    Newton's method with derivative series d2, guarded by bisection; it
    stops within a few ``spacing`` (the run's ``_SPACING``) of the root.
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
        if abs(step) <= 2 * spacing(s) or hi - lo <= 4 * spacing(hi):
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
    scal = run_type(*y0)
    c, _, K0, P = _tables(consts, scal)[:4]
    even, general = _kernels(consts, scal)
    state, step_size = _step_kernels()
    a0 = (K0 / c) ** (1 / (P - 1))
    tol, spacing = _TOL[scal], _SPACING[scal]
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
        coef = (general if y[1] or y[3] else even)(y)
        h = step_size(coef, tol * max(1.0, size))
        if not (h > 0 and t + h > t):
            status = "undefined"
            break
        last = t + h >= t_end
        if last:
            h = t_end - t
        y_new = state(coef, h)
        if first is None and y[1] > 0 and y_new[1] <= 0:
            h1 = _first_root(coef[1], coef[2], h, spacing)
            first = (t + h1, state(coef, h1))
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
