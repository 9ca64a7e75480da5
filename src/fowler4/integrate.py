"""Adaptive Dormand-Prince 5(4) integration with quartic dense output.

Hand-rolled rather than delegated: the lab needs the blow-up guard with
partial-trajectory semantics, PI step control and event location on the
dense output in one place.  The run is in float64: a state of any other
dtype is converted on entry.  The Butcher tableau and the quartic
interpolant matrix are the standard published constants, each rounded
once from its exact ratio.  The step loop keeps each accepted step's
stage matrix; the dense matrices are built when the run ends, in one
stacked product, and inside a step only where an event crossed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .params import DomainError


def _ratios(entries):
    return [float(Fraction(e)) for e in entries]


_A = [np.array(_ratios(row)) for row in [
    [],
    ["1/5"],
    ["3/40", "9/40"],
    ["44/45", "-56/15", "32/9"],
    ["19372/6561", "-25360/2187", "64448/6561", "-212/729"],
    ["9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"],
    ["35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"],
]]
_C = _ratios(["0", "1/5", "3/10", "4/5", "8/9", "1", "1"])
# b5 - b4 (local error weights)
_E = np.array(_ratios(["71/57600", "0", "-71/16695", "71/1920", "-17253/339200", "22/525",
                       "-1/40"]))
# quartic dense-output matrix (Shampine interpolant)
_P = np.array([_ratios(row) for row in [
    ["1", "-8048581381/2820520608", "8663915743/2820520608", "-12715105075/11282082432"],
    ["0", "0", "0", "0"],
    ["0", "131558114200/32700410799", "-68118460800/10900136933", "87487479700/32700410799"],
    ["0", "-1754552775/470086768", "14199869525/1410260304", "-10690763975/1880347072"],
    ["0", "127303824393/49829197408", "-318862633887/49829197408", "701980252875/199316789632"],
    ["0", "-282668133/205662961", "2019193451/616988883", "-1453857185/822651844"],
    ["0", "40617522/29380423", "-110615467/29380423", "69997945/29380423"],
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
        powers = th[:, None] ** np.arange(1, self.dense.shape[-1] + 1)
        return self.y[idx] + hs[:, None] * (self.dense[idx] @ powers[:, :, None])[:, :, 0]

    def _node_rows(self, tqs):
        order = np.argsort(self.t, kind="stable")
        tn, yn = self.t[order], self.y[order]
        if len(tn) == 1:
            return np.repeat(yn, tqs.size, axis=0)
        idx = np.clip(np.searchsorted(tn, tqs, side="right") - 1, 0, len(tn) - 2)
        w = np.clip((tqs - tn[idx]) / (tn[idx + 1] - tn[idx]), 0.0, 1.0)[:, None]
        return yn[idx] + w * (yn[idx + 1] - yn[idx])


def _rms(v, sc):
    # np.sqrt(np.mean(w ** 2)) bit for bit; np.dot would sum in another order
    w = v / sc
    return math.sqrt(float(np.add.reduce(w * w)) / w.size)


def _all_finite(a) -> bool:
    """All entries finite, as np.isfinite(a).all() decides."""
    return all(map(math.isfinite, a.tolist()))


def _beyond(mags, guard) -> bool:
    """max(mags) > guard as np.max decides it: a NaN anywhere is no blow-up."""
    m = mags.tolist()
    return max(m) > guard and not any(map(math.isnan, m))


def _initial_step(rhs, t0, y0, f0, tspan, rel_tol, abs_tol):
    """First step size from f0 = rhs(t0, y0) and one more evaluation."""
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = _rms(y0, sc)
    d1 = _rms(f0, sc)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * tspan)
    y1 = y0 + h0 * f0
    f1 = np.asarray(rhs(t0 + h0, y1), dtype=float)
    d2 = _rms(f1 - f0, sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, tspan)


def integrate(rhs, t0: float, state0, t1: float, rel_tol: float = 1e-9,
              abs_tol: float = 1e-11, guard: float = 1e8,
              events: Optional[Sequence[Event]] = None) -> Trajectory:
    """Integrate state' = rhs(t, state) from t0 to t1 adaptively, in float64.

    Backward runs (t1 < t0) are handled by time reflection.  When any
    state component exceeds ``guard`` in absolute value, the run stops
    with ``status="blowup"`` and the truncated trajectory is returned; a
    collapsing step raises StepUnderflowError carrying the partial
    trajectory.  NaN or non-positive tolerances or guard (``inf`` turns the
    guard off), a non-finite t0 or t1 and an empty or non-finite initial
    state raise DomainError before any RHS call.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise DomainError("tolerances must be positive")
    if not guard > 0:
        raise DomainError(f"blow-up guard must be positive, got {guard}")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DomainError(f"non-finite integration span from {t0} to {t1}")
    if t1 == t0:
        raise DomainError("empty integration span")
    y = np.array(state0, dtype=float, ndmin=1)
    if not y.size:
        raise DomainError("empty initial state")
    if not _all_finite(y):
        raise DomainError("non-finite initial state")
    direction = 1 if t1 > t0 else -1
    if direction < 0:
        fwd = rhs
        rhs = lambda s, y: -np.asarray(fwd(t0 - s, y))
        events = [Event(g=(lambda s, y, g0=e.g: g0(t0 - s, y)),
                        direction=-e.direction, terminal=e.terminal)
                  for e in (events or [])]
        t, tB = 0.0, float(t0 - t1)
    else:
        t, tB = float(t0), float(t1)

    span = tB - t
    events = list(events or [])
    ev_hits: List[list] = [[] for _ in events]
    theta_pows = np.arange(1, 5)

    k = np.empty((7, y.size))            # row 0 is the FSAL stage of the step
    k_rows = [k[:i] for i in range(7)]   # stage i combines rows k[:i]
    stage = list(k)                      # row views, written in place
    ay = np.abs(y)
    k[0] = rhs(t, y)
    h = _initial_step(rhs, t, y, k[0], span, rel_tol, abs_tol)
    ts = [t]
    ys = [y]    # state arrays are never written in place: records share them
    hs: list = []
    ks: list = []   # the stage matrix of each accepted step
    err_old = 1e-4
    nstep = nrej = 0
    nfev = 2
    status = "reached"
    ev_vals = [e.g(t, y) for e in events]

    def finish(stat):
        tr_t = np.array(ts)
        tr_h = np.array(hs, dtype=float)
        # one stacked product: the same bits as k.T @ _P step by step on the
        # BLAS kernel numpy's OpenBLAS picks for the host CPU, whose bits the
        # dense pins record (they fail under OPENBLAS_CORETYPE=Haswell)
        tr_Q = np.array(ks).reshape(len(hs), 7, y.size).transpose(0, 2, 1) @ _P
        hits = ev_hits
        if direction < 0:
            tr_t, tr_h, tr_Q = t0 - tr_t, -tr_h, -tr_Q
            hits = [[(t0 - te, ye) for (te, ye) in lst] for lst in ev_hits]
        return Trajectory(t=tr_t, y=np.array(ys), h=tr_h, dense=tr_Q,
                          stats={"steps": nstep, "rejected": nrej, "rhs_evals": nfev},
                          status=stat, events=hits, direction=direction)

    while t < tB:
        if nstep >= _MAX_STEPS:
            status = "max_steps"
            break
        if h < 1e-14 * max(abs(t), abs(span), 1.0):
            raise StepUnderflowError(
                f"step size underflow at t={t:.6g} (h={h:.3e})", finish("underflow"))
        last = False
        if t + h >= tB:
            h = tB - t
            last = True
        # one conversion of h serves the seven products below; ndarray.dot
        # is np.dot's gemv without np.dot's dispatch wrapper.  The step-loop
        # pins record the bits of the gemv kernel numpy's OpenBLAS picks for
        # the host CPU (they fail under OPENBLAS_CORETYPE=Haswell)
        h_arr = np.array(h)
        failed_stage = False
        for i in range(1, 7):
            yi = y + h_arr * _A[i].dot(k_rows[i])
            stage[i][...] = rhs(t + _C[i] * h, yi)
            # per stage: a non-finite stage must not reach the next RHS call
            if not _all_finite(stage[i]):
                failed_stage = True
                break
        nfev += i
        if failed_stage:
            nrej += 1
            h = h * 0.25
            last = False
            continue
        y_new = yi  # the stage-7 input is the 5th-order solution (FSAL layout)
        ay_new = np.abs(y_new)
        sc = abs_tol + rel_tol * np.maximum(ay, ay_new)
        err = _rms(h_arr * _E.dot(k), sc)
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
            v_new = ev.g(t_new, y_new)
            crossed = ((v_old < 0 <= v_new) and ev.direction >= 0) or \
                      ((v_old > 0 >= v_new) and ev.direction <= 0)
            if crossed and v_old != 0:
                if Q is None:
                    Q = k.T @ _P
                th_lo, th_hi, g_lo = 0.0, 1.0, v_old

                def g_at(th):
                    yq = y + h * (Q @ (th ** theta_pows))
                    return ev.g(t + th * h, yq)

                for _ in range(90):
                    mid = (th_lo + th_hi) / 2
                    if mid == th_lo or mid == th_hi:
                        break
                    gm = g_at(mid)
                    if gm == 0.0:
                        th_lo = th_hi = mid
                        break
                    if (g_lo < 0) != (gm < 0):
                        th_hi = mid
                    else:
                        th_lo, g_lo = mid, gm
                th = (th_lo + th_hi) / 2
                te = t + th * h
                ye = y + h * (Q @ (th ** theta_pows))
                ev_hits[ie].append((te, ye.copy()))
                if ev.terminal and (stop_here is None or te < stop_here[0]):
                    stop_here = (te, ye)
            ev_vals[ie] = v_new
        hs.append(h)
        ks.append(k.copy())
        if stop_here is not None:
            ts.append(stop_here[0])
            ys.append(stop_here[1])
            status = "event"
            break
        t = t_new
        y, ay = y_new, ay_new
        k[0] = k[6]
        ts.append(t)
        ys.append(y)
        if _beyond(ay, guard):
            status = "blowup"
            break
        fac = _SAFETY * err ** -_EXPO * err_old ** _BETA if err > 0 else _FAC_MAX
        err_old = max(err, 1e-10)
        h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
    return finish(status)
