"""The four workloads: inputs made from a seed, one op per input, a check per op.

Each op returns True only when its output passes the same thresholds the
acceptance gate applies (C06, C07, and the ledger of C10).  A wrong
answer is a failed op, never a fast one.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import numpy as np

from fowler4.integrate import Event
from fowler4.params import Params

# entry points are looked up on their modules at call time, so the spans a
# traced run installs are seen; `fowler4.integrate` names the function, hence
# import_module for the module
integ = importlib.import_module("fowler4.integrate")
odes = importlib.import_module("fowler4.odes")
pohozaev = importlib.import_module("fowler4.pohozaev")
shooting = importlib.import_module("fowler4.shooting")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# C07 grid points that stay in float64, and the one that escalates
SHOOT_F64_POINTS = ((5, 0.6), (6, 0.6), (6, 0.999))
SHOOT_LD_POINT = (5, 0.3)
# C06 procedure on the in-window pairs, p = 1 and p = 3 components
ENERGY_CASES = tuple((n, Fraction(s), p) for (n, s) in ((5, 7), (6, 4), (7, 3))
                     for p in (1, 3))
ENERGY_STATES_PER_CASE = 10
GATE_SUITES = ("coefficients", "profiles", "aviles", "asymptotics", "ledger")
# sha256 of `fowler4 verify --out` (CSV): 41 entries, 19 MATCH, 19 MISMATCH,
# 3 SIGN_CONVENTION, printed and oracle values as exact rationals
LEDGER_SHA256 = "4d489e697ca1859d9da24f8bcf65ab200291bc5197618c9b38845c8ade199d88"


@dataclass
class Op:
    label: str
    run: Callable[[], bool]


def _shoot(n: int, frac: float) -> bool:
    cc = shooting.critical_constants(n)
    a = frac * cc.a0
    r = shooting.find_b(n, a, consts=cc)
    ok = (r.converged and r.residual <= 1e-9 and r.period_defect <= 1e-6
          and r.energy_drift <= 1e-8 and r.min_v >= a - 1e-6)
    if frac == 0.999:
        Tlin = cc.linearized_period()
        ok = ok and abs(r.T - Tlin) <= 0.02 * Tlin
    return ok


def shoot_f64(seed: int, tracer=None) -> List[Op]:
    points = list(SHOOT_F64_POINTS)
    random.Random(seed).shuffle(points)
    return [Op(f"find_b({n}, {frac}a0)", lambda n=n, frac=frac: _shoot(n, frac))
            for n, frac in points]


def shoot_ld(seed: int, tracer=None) -> List[Op]:
    # `a` stays pinned: 0.294 a0 escalates and 0.306 a0 does not, so any
    # seeded jitter would move the workload across that cliff
    n, frac = SHOOT_LD_POINT
    return [Op(f"find_b({n}, {frac}a0)", lambda: _shoot(n, frac))]


def _energy(params: Params, rhs, y0: np.ndarray) -> bool:
    # cap the state as C06 does: the stencil error grows like |V|^{s+1}
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    traj = integ.integrate(rhs, 0.0, y0, 2.0, rel_tol=1e-12, abs_tol=1e-14, guard=1e4,
                     events=[cap])
    if float(traj.t[-1] - traj.t[0]) < 0.2 or len(traj.t) < 5:
        return True  # grew past the cap at once; C06 skips it
    gap, min_dH = -math.inf, math.inf
    for q in pohozaev.pohozaev_series(params, traj, num=1201):
        if math.isnan(q.dH_numeric):
            continue
        tol = max(1e-6, 1e-3 * abs(q.dH_formula))
        gap = max(gap, abs(q.dH_numeric - q.dH_formula) - tol)
        min_dH = min(min_dH, q.dH_numeric)
    return gap <= 0 and min_dH >= -1e-8


def energy(seed: int, tracer=None) -> List[Op]:
    ops = []
    for ci, (n, s, p) in enumerate(ENERGY_CASES):
        params = Params(n, s, p)
        rhs = odes.make_autonomous_rhs(params)
        rng = np.random.default_rng([seed, ci])
        for k in range(ENERGY_STATES_PER_CASE):
            y0 = rng.uniform(-0.5, 0.5, size=4 * p)
            ops.append(Op(f"energy(n={n}, s={s}, p={p}, #{k})",
                          lambda params=params, rhs=rhs, y0=y0: _energy(params, rhs, y0)))
    return ops


def _verify(suite: str, tracer) -> bool:
    """One `fowler4 verify --suite` in a fresh interpreter, as a user runs it.

    Traced, the child installs the same spans and hands back its aggregates.
    """
    WORK.mkdir(exist_ok=True)
    out = WORK / f"ledger-{suite}.csv"
    trace_out = WORK / f"trace-{suite}.json"
    out.unlink(missing_ok=True)
    trace_out.unlink(missing_ok=True)
    if tracer is None:
        cmd = [sys.executable, "-m", "fowler4"]
    else:
        cmd = [sys.executable, str(HERE / "gate_child.py"), str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd + ["verify", "--suite", suite, "--out", str(out)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if tracer is not None and trace_out.is_file():
        tracer.merge(json.loads(trace_out.read_text()))
    if proc.returncode != 0:
        sys.stderr.write(f"verify --suite {suite}: exit {proc.returncode}\n{proc.stderr}")
        return False
    return out.is_file() and hashlib.sha256(out.read_bytes()).hexdigest() == LEDGER_SHA256


def gate_exact(seed: int, tracer=None) -> List[Op]:
    suites = list(GATE_SUITES)
    random.Random(seed).shuffle(suites)
    return [Op(f"verify --suite {g}", lambda g=g: _verify(g, tracer)) for g in suites]


# name -> function(seed, tracer) returning the ops; only gate-exact needs the
# tracer, to collect the spans of its child processes
WORKLOADS = {"shoot-f64": shoot_f64, "shoot-ld": shoot_ld, "energy": energy,
             "gate-exact": gate_exact}
