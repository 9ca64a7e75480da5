"""Fixed-problem probes: one layer's unit cost on an input no seed changes.

Each time is the median of a few repeats, taken with tracing off.  Values
are (value, unit) pairs, like the per-layer metrics.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

from fowler4.integrate import Event, integrate
from fowler4.odes import make_autonomous_rhs
from fowler4.params import Params
from fowler4.shooting import critical_constants, make_critical_rhs

REPEATS = 5
# the C07 orbit at n = 6, a = 0.6 a0, as find_b returns it at float64
ORBIT_N, ORBIT_B, ORBIT_T = 6, 0.3566258871243809, 4.369895937345158
DENSE_POINTS = 1601


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _us_per_eval(rhs, y, evals: int = 4000) -> float:
    def loop():
        for _ in range(evals):
            rhs(0.0, y)
    return 1e6 * _median_time(loop) / evals


def run_probes() -> dict:
    cc = critical_constants(ORBIT_N)
    a = 0.6 * cc.a0
    m = {}
    for tier, dtype in (("f64", np.float64), ("ld", np.longdouble)):
        y = np.array([a, 0.1, ORBIT_B, -0.05], dtype=dtype)
        m[f"shooting.rhs_crit_{tier}.us_per_eval"] = (
            _us_per_eval(make_critical_rhs(cc, dtype), y), "us")
    for p in (1, 3):
        rhs = make_autonomous_rhs(Params(5, Fraction(7), p))
        y = np.tile([0.3, -0.1, 0.2, 0.05], p)
        m[f"odes.rhs_auto_p{p}.us_per_eval"] = (_us_per_eval(rhs, y), "us")

    crit = make_critical_rhs(cc, np.float64)
    y0 = np.array([a, 0.0, ORBIT_B, 0.0])
    orbit = integrate(crit, 0.0, y0, ORBIT_T, rel_tol=1e-12, abs_tol=1e-14, guard=1e6)
    secs = _median_time(lambda: integrate(crit, 0.0, y0, ORBIT_T, rel_tol=1e-12,
                                          abs_tol=1e-14, guard=1e6))
    m["integrate.fixed.us_per_step"] = (1e6 * secs / orbit.stats["steps"], "us")

    # an energy-like trajectory: C06's cap event on a short span
    auto = make_autonomous_rhs(Params(5, Fraction(7), 1))
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    short = integrate(auto, 0.0, np.array([0.3, -0.2, 0.1, 0.25]), 2.0, rel_tol=1e-12,
                      abs_tol=1e-14, guard=1e4, events=[cap])
    for name, traj in (("short", short), ("long", orbit)):
        ts = np.linspace(traj.t0, traj.t1, DENSE_POINTS)
        m[f"dense.{name}.us_per_point"] = (
            1e6 * _median_time(lambda: traj(ts)) / DENSE_POINTS, "us")
        m[f"dense.{name}.segments"] = (len(traj.dense), "count")
    return m
