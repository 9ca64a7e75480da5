"""Adaptive Dormand-Prince 5(4) integration with quartic dense output.

Hand-rolled rather than delegated: the lab needs the blow-up guard with
partial-trajectory semantics, PI step control and event location on the
dense output in one place.  The run is in float64: a state of any other
dtype is converted on entry.  The Butcher tableau and the quartic
interpolant matrix are the standard published constants, each rounded
once from its exact ratio.  The step loop keeps each accepted step's
stages; the dense matrices are built when the run ends, and inside a
step only where an event crossed.

Arithmetic rule: the step loop works on lists of Python floats, each sum
left to right, and so does event location, which evaluates the step's
quartic by Horner's rule in theta on Python floats.  An RHS with a
``floats`` hook is called on those lists directly; any other goes through
an array adapter.  Event functions get the state as a tuple of Python
floats, and event hits keep theirs as a list, so the step loop builds no
array but the dense matrix of a step where an event crossed.  The dense
matrices and every dense-output query (Horner in theta, the same
operations in the same order) are elementwise numpy + - * / and sqrt,
which round the same on every CPU.  No numpy ufunc loop or BLAS kernel
that numpy picks per CPU at run time runs under a result: a BLAS kernel
fixes the order of its sums, and numpy's AVX-512 power loop rounds some
values differently from its baseline one.  Powers come from the C
library's pow on Python floats, so a run has the same bits on any CPU
and BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .params import DomainError


def _ratios(entries: str):
    return [float(Fraction(e)) for e in entries.split()]


# Butcher tableau: the nodes and rows of the stages after the first, and
# b5 - b4 (the local error weights), each with its zero entries left out
# (a61 = e1 = 0); the last two stages sit at c = 1
_C1, _C2, _C3, _C4 = _ratios("1/5 3/10 4/5 8/9")
_A10, = _ratios("1/5")
_A20, _A21 = _ratios("3/40 9/40")
_A30, _A31, _A32 = _ratios("44/45 -56/15 32/9")
_A40, _A41, _A42, _A43 = _ratios("19372/6561 -25360/2187 64448/6561 -212/729")
_A50, _A51, _A52, _A53, _A54 = _ratios("9017/3168 -355/33 46732/5247 49/176 -5103/18656")
_A60, _A62, _A63, _A64, _A65 = _ratios("35/384 500/1113 125/192 -2187/6784 11/84")
_E0, _E2, _E3, _E4, _E5, _E6 = _ratios("71/57600 -71/16695 71/1920 -17253/339200 22/525 -1/40")
# quartic dense-output matrix (Shampine interpolant): row i weighs stage i,
# column m is the coefficient of theta^(m+1)
_P = np.array([_ratios(row) for row in [
    "1 -8048581381/2820520608 8663915743/2820520608 -12715105075/11282082432",
    "0 0 0 0",
    "0 131558114200/32700410799 -68118460800/10900136933 87487479700/32700410799",
    "0 -1754552775/470086768 14199869525/1410260304 -10690763975/1880347072",
    "0 127303824393/49829197408 -318862633887/49829197408 701980252875/199316789632",
    "0 -282668133/205662961 2019193451/616988883 -1453857185/822651844",
    "0 40617522/29380423 -110615467/29380423 69997945/29380423",
]])

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN, _FAC_MAX = 0.2, 5.0
# safety cap on stats["steps"]: a run that reaches it stops with
# status "max_steps" and keeps what it integrated
_MAX_STEPS = 10_000_000


class StepUnderflowError(RuntimeError):
    """Step size collapsed (stiffness or singularity); carries the partial run."""

    def __init__(self, message: str, trajectory: "Trajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class Event:
    """Sign-change detector g(t, y) located on the dense output.

    g takes the time and the state as a tuple of Python floats, and
    returns a float.
    direction: +1 upcrossings only, -1 downcrossings only, 0 both.
    terminal: stop the integration at the located event.
    """

    g: Callable
    direction: int = 0
    terminal: bool = False


@dataclass
class Trajectory:
    """Dense-output record of one integration run, in float64.

    t is strictly monotone in the direction of integration.  Step i runs
    from t[i] with state y[i] over the signed size h[i], and dense[i] is
    its polynomial matrix in theta = (t - t[i]) / h[i], the quartic of
    ``integrate`` or the series of ``taylor.flow``; its last axis is the
    degree.  So the dense output reproduces the stored nodes and
    interpolates inside steps with the method's own polynomial.  A query
    takes a scalar (returns one row of shape ``(dim,)``) or an array of
    times (returns one row per time) and is answered in one batch: one
    ``searchsorted`` and one stacked polynomial serve every point.  With
    no steps (a synthetic record), the nodes are interpolated linearly in
    time order.  Any time outside the span, or NaN, raises DomainError.
    """

    t: np.ndarray
    y: np.ndarray                       # shape (len(t), dim)
    stats: dict
    h: np.ndarray = ()                  # shape (len(t) - 1,)
    dense: np.ndarray = ()              # shape (len(t) - 1, dim, degree)
    status: str = "reached"
    events: list = field(default_factory=list)   # per event index: [(t, y), ...]
    direction: int = 1

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def __call__(self, tq):
        scalar = np.ndim(tq) == 0
        tqs = np.atleast_1d(np.asarray(tq, dtype=float))
        lo, hi = sorted((float(self.t[0]), float(self.t[-1])))
        pad = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        inside = (tqs >= lo - pad) & (tqs <= hi + pad)
        if not np.all(inside):
            tv = float(tqs[np.argmin(inside)])
            raise DomainError(f"t={tv} outside trajectory span [{lo}, {hi}]")
        out = self._dense_rows(tqs) if len(self.dense) else self._node_rows(tqs)
        return out[0] if scalar else out

    def _dense_rows(self, tqs):
        starts = self.t[:-1]
        idx = np.searchsorted(starts * self.direction, tqs * self.direction,
                              side="right") - 1
        idx = np.clip(idx, 0, len(starts) - 1)
        hs = self.h[idx]
        th = np.clip((tqs - starts[idx]) / hs, 0.0, 1.0)
        return self.y[idx] + hs[:, None] * _horner(self.dense[idx], th[:, None])

    def _node_rows(self, tqs):
        order = np.argsort(self.t, kind="stable")
        tn, yn = self.t[order], self.y[order]
        if len(tn) == 1:
            return np.repeat(yn, tqs.size, axis=0)
        idx = np.clip(np.searchsorted(tn, tqs, side="right") - 1, 0, len(tn) - 2)
        w = np.clip((tqs - tn[idx]) / (tn[idx + 1] - tn[idx]), 0.0, 1.0)[:, None]
        return yn[idx] + w * (yn[idx + 1] - yn[idx])


def _horner(Q, th):
    """sum over m of Q[..., m] th^(m+1) by Horner's rule, elementwise."""
    acc = Q[..., -1]
    for m in range(Q.shape[-1] - 2, -1, -1):
        acc = acc * th + Q[..., m]
    return acc * th


def _dense_matrices(K):
    """The quartic matrices (steps, dim, 4) of the stages K (steps, 7, dim):
    each stage times its row of _P, added in stage order, elementwise."""
    Q = K[:, 0, :, None] * _P[0]
    for i in range(1, 7):
        Q = Q + K[:, i, :, None] * _P[i]
    return Q


def _quartic_row(y, h, Q, th):
    """The dense output y + h * _horner(Q, th) of one step at theta th, on
    Python floats: the same operations in the same order as the array form."""
    return [a + h * ((((q3 * th + q2) * th + q1) * th + q0) * th)
            for a, (q0, q1, q2, q3) in zip(y, Q)]


def _rms(v, sc):
    """sqrt(mean((v / sc)^2)), summed left to right."""
    acc = 0.0
    for a, s in zip(v, sc):
        w = a / s
        acc += w * w
    return math.sqrt(acc / len(v))


def _stages(f, t, h, y, k0):
    """``(y6, [k0, ..., k6])`` for one step of size h from (t, y), y6 the
    5th-order solution (FSAL layout).  Each stage input is one left-to-right
    pass over its tableau row's nonzero entries.  f passes a non-finite input
    on, so a non-finite stage makes k6 one."""
    k1 = f(t + _C1 * h, [a + h * (_A10 * b0) for a, b0 in zip(y, k0)])
    k2 = f(t + _C2 * h, [a + h * (_A20 * b0 + _A21 * b1) for a, b0, b1 in zip(y, k0, k1)])
    k3 = f(t + _C3 * h, [a + h * (_A30 * b0 + _A31 * b1 + _A32 * b2)
                         for a, b0, b1, b2 in zip(y, k0, k1, k2)])
    k4 = f(t + _C4 * h, [a + h * (_A40 * b0 + _A41 * b1 + _A42 * b2 + _A43 * b3)
                         for a, b0, b1, b2, b3 in zip(y, k0, k1, k2, k3)])
    k5 = f(t + h, [a + h * (_A50 * b0 + _A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
                   for a, b0, b1, b2, b3, b4 in zip(y, k0, k1, k2, k3, k4)])
    y6 = [a + h * (_A60 * b0 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
          for a, b0, b2, b3, b4, b5 in zip(y, k0, k2, k3, k4, k5)]
    return y6, [k0, k1, k2, k3, k4, k5, f(t + h, y6)]


def _initial_step(f, t0, y0, f0, tspan, rel_tol, abs_tol):
    """First step size from f0 = f(t0, y0) and one more evaluation.

    Raises DomainError where the trial step h0 is 0: the scaled norm of
    f0 overflows, or a tenth of the span underflows."""
    sc = [abs_tol + rel_tol * abs(a) for a in y0]
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * tspan)
    if not h0 > 0:
        raise DomainError(f"first step size is 0 (derivative's scaled norm {d1:.3g}, "
                          f"span {tspan:.3g})")
    f1 = f(t0 + h0, [a + h0 * b for a, b in zip(y0, f0)])
    d2 = _rms([a - b for a, b in zip(f1, f0)], sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, tspan)


def integrate(rhs, t0: float, state0, t1: float, rel_tol: float = 1e-9,
              abs_tol: float = 1e-11, guard: float = 1e8,
              events: Optional[Sequence[Event]] = None) -> Trajectory:
    """Integrate state' = rhs(t, state) from t0 to t1 adaptively, in float64.

    rhs receives the state as a float64 array and returns what numpy reads
    as a float64 array (a list too); the step loop converts each result to
    a list of Python floats.  Where rhs has
    an attribute ``floats``, the step loop calls ``rhs.floats(t, xs)``
    instead, on a list of finite Python floats, and uses the list it
    returns; it must compute what rhs computes (as
    ``odes.make_autonomous_rhs`` provides it).  Event functions get the
    state as a tuple of Python floats: at the initial state, at each
    accepted step and at each halving of the bisection that locates a
    crossing on the step's quartic.  Each hit is recorded in
    ``Trajectory.events`` as ``(t, y)``, a float and a list of floats.
    Backward runs (t1 < t0) are handled by time reflection.
    When any state component exceeds ``guard`` in absolute value, the run
    stops with ``status="blowup"`` and the truncated trajectory is
    returned; a step that collapses below 1e-14 times the magnitude of the
    current time (or of 1, if larger) raises StepUnderflowError carrying
    the partial trajectory, unless it ends the span: a span that fits in
    one step is integrated however short it is.  A step whose stages leave
    float range is rejected and retried at a quarter of its size.  NaN, infinite or
    non-positive tolerances, a NaN or non-positive guard (``inf`` turns the
    guard off), a non-finite t0 or t1 and an empty or non-finite initial
    state raise DomainError before any RHS call, and a non-finite
    rhs(t0, state0), or one whose scaled norm overflows, right after it, as
    does a span too short for a first step.
    """
    if not (0 < rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise DomainError("tolerances must be positive and finite")
    if not guard > 0:
        raise DomainError(f"blow-up guard must be positive, got {guard}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"non-finite integration span from {t0} to {t1}")
    if t1 == t0:
        raise DomainError("empty integration span")
    y = np.array(state0, dtype=float, ndmin=1).tolist()
    if not y:
        raise DomainError("empty initial state")
    if not all(map(math.isfinite, y)):
        raise DomainError("non-finite initial state")
    fl = getattr(rhs, "floats", None)
    if fl is None:
        def fl(s, x):   # the array contract: an array in, a list of floats out
            return np.asarray(rhs(s, np.array(x)), dtype=float).tolist()
    direction = 1 if t1 > t0 else -1
    if direction < 0:
        fwd = fl
        fl = lambda s, x: [-a for a in fwd(t0 - s, x)]
        events = [Event(g=(lambda s, y, g0=e.g: g0(t0 - s, y)),
                        direction=-e.direction, terminal=e.terminal)
                  for e in (events or [])]
        t, tB = 0.0, float(t0 - t1)
    else:
        t, tB = float(t0), float(t1)

    events = list(events or [])
    ev_hits: List[list] = [[] for _ in events]
    nstep = nrej = nfev = 0

    def f(s, x):   # rhs(s, x) as floats; a non-finite x fails its step unevaluated
        nonlocal nfev
        if not all(map(math.isfinite, x)):
            return x
        nfev += 1
        return fl(s, x)

    ay = [abs(a) for a in y]
    k0 = f(t, y)
    if not all(map(math.isfinite, k0)):
        raise DomainError("non-finite derivative at the initial state")
    h = _initial_step(f, t, y, k0, tB - t, rel_tol, abs_tol)
    ts = [t]
    ys = [y]    # states are never written in place: records share them
    hs, kss = [], []   # per accepted step: its size and its stages
    err_old = 1e-4
    status = "reached"
    ev_vals = [e.g(t, tuple(y)) for e in events]

    def finish(stat):
        tr_t = np.array(ts)
        tr_h = np.array(hs, dtype=float)
        tr_Q = _dense_matrices(np.array(kss, dtype=float).reshape(len(hs), 7, len(y)))
        hits = ev_hits
        if direction < 0:
            tr_t, tr_h, tr_Q = t0 - tr_t, -tr_h, -tr_Q
            hits = [[(t0 - te, ye) for (te, ye) in lst] for lst in ev_hits]
        return Trajectory(t=tr_t, y=np.array(ys, dtype=float), h=tr_h, dense=tr_Q,
                          stats={"steps": nstep, "rejected": nrej, "rhs_evals": nfev},
                          status=stat, events=hits, direction=direction)

    while t < tB:
        if nstep >= _MAX_STEPS:
            status = "max_steps"
            break
        # a backward run steps on the reflected clock t and is at time t0 - t
        now = t if direction > 0 else t0 - t
        if h < 1e-14 * max(abs(t), abs(now), 1.0) and t + h < tB:
            raise StepUnderflowError(
                f"step size underflow at t={now:.6g} (h={h:.3e})", finish("underflow"))
        last = False
        if t + h >= tB:
            h = tB - t
            last = True
        y_new, ks = _stages(f, t, h, y, k0)
        if not all(map(math.isfinite, ks[6])):
            nrej += 1
            h = h * 0.25
            last = False
            continue
        ay_new = [abs(a) for a in y_new]
        acc = 0.0   # the scaled RMS of the error estimate, summed left to right
        for a, b, b0, b2, b3, b4, b5, b6 in zip(ay, ay_new, ks[0], *ks[2:]):
            w = (h * (_E0 * b0 + _E2 * b2 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6)
                 / (abs_tol + rel_tol * (b if b > a else a)))
            acc += w * w
        err = math.sqrt(acc / len(y))
        nstep += 1
        if err > 1.0:
            nrej += 1
            h = h * min(1.0, max(_FAC_MIN, _SAFETY * err ** -0.2))
            continue
        Q = None   # the dense matrix, here only where an event crossed
        t_new = tB if last else t + h
        stop_here = None
        for ie, ev in enumerate(events):
            v_old = ev_vals[ie]
            v_new = ev.g(t_new, tuple(y_new))
            crossed = ((v_old < 0 <= v_new) and ev.direction >= 0) or \
                      ((v_old > 0 >= v_new) and ev.direction <= 0)
            if crossed and v_old != 0:
                if Q is None:
                    Q = _dense_matrices(np.array([ks]))[0].tolist()
                th_lo, th_hi, g_lo = 0.0, 1.0, v_old
                for _ in range(90):
                    mid = (th_lo + th_hi) / 2
                    if mid == th_lo or mid == th_hi:
                        break
                    gm = ev.g(t + mid * h, tuple(_quartic_row(y, h, Q, mid)))
                    if gm == 0.0:
                        th_lo = th_hi = mid
                        break
                    if (g_lo < 0) != (gm < 0):
                        th_hi = mid
                    else:
                        th_lo, g_lo = mid, gm
                th = (th_lo + th_hi) / 2
                te = t + th * h
                ye = _quartic_row(y, h, Q, th)
                ev_hits[ie].append((te, ye))
                if ev.terminal and (stop_here is None or te < stop_here[0]):
                    stop_here = (te, ye)
            ev_vals[ie] = v_new
        hs.append(h)
        kss.append(ks)
        if stop_here is not None:
            ts.append(stop_here[0])
            ys.append(stop_here[1])
            status = "event"
            break
        t = t_new
        y, ay, k0 = y_new, ay_new, ks[6]
        ts.append(t)
        ys.append(y)
        if max(ay) > guard:   # no NaN: an accepted state is finite
            status = "blowup"
            break
        fac = _SAFETY * err ** -_EXPO * err_old ** _BETA if err > 0 else _FAC_MAX
        err_old = max(err, 1e-10)
        h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
    return finish(status)
