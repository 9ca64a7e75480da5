"""Spans around the calls into each fowler4 layer, kept in memory.

Nothing here edits the fowler4 sources: ``install`` swaps each public
entry point for a timing wrapper in every ``fowler4.*`` module that bound
it on import.  A span's self time is its duration minus the time its
direct children (nested spans and RHS counters) took, so the self times
of one op add up to the op's own span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# the criteria run by the gate-exact suites (coefficients, profiles, aviles,
# asymptotics, ledger); fixed so the metric names do not follow the program
GATE_CRITERIA = (1, 2, 3, 4, 8, 9, 10)


class Tracer:
    """Aggregated spans (calls, total, self seconds) plus named counters."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()            # work counts and busy seconds
        self.maxima = defaultdict(float)
        self._stack = []                  # [name, start, seconds of children]

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def charge(self, name: str, seconds: float) -> None:
        """Busy time of a counter-only layer (one RHS evaluation)."""
        self.calls[name] += 1
        self.total_s[name] += seconds
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def merge(self, agg: dict) -> None:
        """Fold in the aggregates a traced child process wrote (see ``dump``)."""
        for name, (calls, total, self_) in agg["spans"].items():
            self.calls[name] += calls
            self.total_s[name] += total
            self.self_s[name] += self_
        self.counts.update(agg["counts"])
        for key, val in agg["maxima"].items():
            self.maxima[key] = max(self.maxima[key], val)
        if self._stack:
            self._stack[-1][2] += agg["root_s"]

    def dump(self, root: str) -> dict:
        return {"spans": {k: [self.calls[k], self.total_s[k], self.self_s[k]]
                          for k in self.calls},
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "root_s": self.total_s[root]}


def _rebind(orig, new) -> None:
    """Point every fowler4 module attribute bound to ``orig`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if name == "fowler4" or name.startswith("fowler4."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def _spanned(tr: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out
    return wrapper


def _timed_rhs(tr: Tracer, name: str, rhs):
    def timed(t, y):
        t0 = perf_counter()
        out = rhs(t, y)
        tr.charge(name, perf_counter() - t0)
        return out
    return timed


def install(tr: Tracer) -> None:
    """Wrap the public entry points of each layer the workloads reach."""
    integ = importlib.import_module("fowler4.integrate")
    shooting = importlib.import_module("fowler4.shooting")
    odes = importlib.import_module("fowler4.odes")
    pohozaev = importlib.import_module("fowler4.pohozaev")
    ledger = importlib.import_module("fowler4.ledger")
    coefficients = importlib.import_module("fowler4.coefficients")
    acceptance = importlib.import_module("fowler4.acceptance")
    cli = importlib.import_module("fowler4.cli")

    # integrate: one span per call; counts from the returned stats, split
    # into precision tiers by the trajectory dtype
    orig_integrate = integ.integrate

    def integrate(*args, **kwargs):
        in_shoot = tr.inside("shooting.find_b")
        tr.enter("integrate")
        traj = None
        try:
            traj = orig_integrate(*args, **kwargs)
        except integ.StepUnderflowError as exc:
            traj = exc.trajectory
            raise
        finally:
            dur = tr.exit()
            if traj is not None:
                _count_integration(tr, traj, dur, in_shoot)
        return traj

    _rebind(orig_integrate, functools.wraps(orig_integrate)(integrate))

    orig_find_b = shooting.find_b

    def find_b(*args, **kwargs):
        ld_before = tr.counts["shooting.ld.integrations"]
        with tr.span("shooting.find_b"):
            res = orig_find_b(*args, **kwargs)
        if tr.counts["shooting.ld.integrations"] > ld_before:
            tr.counts["shooting.escalations"] += 1
            tr.counts["shooting.escalations_kept"] += res.precision != "float64"
        for key, val in (("period_defect", res.period_defect),
                         ("residual", res.residual),
                         ("energy_drift", res.energy_drift)):
            tr.maxima[f"shooting.max_{key}"] = max(tr.maxima[f"shooting.max_{key}"], val)
        return res

    _rebind(orig_find_b, functools.wraps(orig_find_b)(find_b))

    orig_crit = shooting.make_critical_rhs

    def make_critical_rhs(consts, dtype=np.float64):
        return _timed_rhs(tr, "shooting.rhs_crit", orig_crit(consts, dtype))

    _rebind(orig_crit, functools.wraps(orig_crit)(make_critical_rhs))

    orig_auto = odes.make_autonomous_rhs

    def make_autonomous_rhs(*args, **kwargs):
        return _timed_rhs(tr, "odes.rhs_auto", orig_auto(*args, **kwargs))

    _rebind(orig_auto, functools.wraps(orig_auto)(make_autonomous_rhs))

    # dense output: the query method of every trajectory
    orig_call = integ.Trajectory.__call__

    def dense_call(self, tq):
        with tr.span("dense"):
            out = orig_call(self, tq)
        tr.counts["dense.points"] += int(np.size(tq))
        tr.counts["dense.segments"] += len(self.dense)
        return out

    integ.Trajectory.__call__ = functools.wraps(orig_call)(dense_call)

    def count_samples(series):
        tr.counts["pohozaev.samples"] += len(series)

    _rebind(pohozaev.pohozaev_series,
            _spanned(tr, "pohozaev.series", pohozaev.pohozaev_series, count_samples))

    def count_entries(entries):
        tr.maxima["ledger.entries"] = max(tr.maxima["ledger.entries"], len(entries))

    _rebind(ledger.build_ledger,
            _spanned(tr, "ledger.build", ledger.build_ledger, count_entries))
    _rebind(coefficients.oracle_autonomous,
            _spanned(tr, "coefficients.oracle", coefficients.oracle_autonomous))
    # run_all iterates this list, so the criteria are swapped in place
    for i, crit in enumerate(acceptance.ALL_CRITERIA):
        wrapped = _spanned(tr, f"acceptance.C{crit.cid:02d}", crit)
        _rebind(crit, wrapped)
        acceptance.ALL_CRITERIA[i] = wrapped
    _rebind(cli.cmd_verify, _spanned(tr, "cli.verify", cli.cmd_verify))


def _count_integration(tr: Tracer, traj, seconds: float, in_shoot: bool) -> None:
    tier = "f64" if traj.y.dtype == np.float64 else "ld"
    stats = traj.stats
    c = tr.counts
    c["integrate.steps"] += stats["steps"]
    c["integrate.rejected"] += stats["rejected"]
    c["integrate.accepted"] += len(traj.t) - 1
    c["integrate.rhs_evals"] += stats["rhs_evals"]
    c["integrate.event_hits"] += sum(len(hits) for hits in traj.events)
    c[f"integrate.{tier}.steps"] += stats["steps"]
    c[f"integrate.{tier}.busy_s"] += seconds
    if in_shoot:
        c[f"shooting.{tier}.integrations"] += 1
        c[f"shooting.{tier}.steps"] += stats["steps"]
        c[f"shooting.{tier}.busy_s"] += seconds


def layer_metrics(tr: Tracer, rounds: int, ops: int) -> dict:
    """Per-layer figures for one round of a workload (counts divided by rounds)."""
    c, calls, tot, self_ = tr.counts, tr.calls, tr.total_s, tr.self_s

    def per_round(x):
        return x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    find_b_calls = calls["shooting.find_b"]
    shoot_integrations = c["shooting.f64.integrations"] + c["shooting.ld.integrations"]
    m = {
        "shooting.integrations_per_find_b": (ratio(shoot_integrations, find_b_calls), "count"),
        "shooting.f64.integrations": (per_round(c["shooting.f64.integrations"]), "count"),
        "shooting.ld.integrations": (per_round(c["shooting.ld.integrations"]), "count"),
        "shooting.find_b.self_s": (per_round(self_["shooting.find_b"]), "s"),
        "shooting.ld.steps": (per_round(c["shooting.ld.steps"]), "count"),
        "shooting.ld.busy_s": (per_round(c["shooting.ld.busy_s"]), "s"),
        "shooting.escalations": (per_round(c["shooting.escalations"]), "count"),
        "shooting.escalation_useful_ratio":
            (ratio(c["shooting.escalations_kept"], c["shooting.escalations"]), "ratio"),
        "shooting.max_period_defect": (tr.maxima["shooting.max_period_defect"], "1"),
        "shooting.max_residual": (tr.maxima["shooting.max_residual"], "1"),
        "shooting.max_energy_drift": (tr.maxima["shooting.max_energy_drift"], "1"),
        "shooting.rhs_crit.evals": (per_round(calls["shooting.rhs_crit"]), "count"),
        "shooting.rhs_crit.us_per_eval":
            (us_per(tot["shooting.rhs_crit"], calls["shooting.rhs_crit"]), "us"),
        "integrate.calls": (per_round(calls["integrate"]), "count"),
        "integrate.steps": (per_round(c["integrate.steps"]), "count"),
        "integrate.rejected": (per_round(c["integrate.rejected"]), "count"),
        "integrate.rhs_evals": (per_round(c["integrate.rhs_evals"]), "count"),
        "integrate.accept_ratio": (ratio(c["integrate.accepted"],
                                         c["integrate.accepted"] + c["integrate.rejected"]),
                                   "ratio"),
        "integrate.event_hits": (per_round(c["integrate.event_hits"]), "count"),
        "integrate.f64.us_per_step": (us_per(c["integrate.f64.busy_s"], c["integrate.f64.steps"]),
                                      "us"),
        "integrate.ld.us_per_step": (us_per(c["integrate.ld.busy_s"], c["integrate.ld.steps"]),
                                     "us"),
        "integrate.self_s": (per_round(self_["integrate"]), "s"),
        "dense.calls": (per_round(calls["dense"]), "count"),
        "dense.points": (per_round(c["dense.points"]), "count"),
        "dense.us_per_point": (us_per(tot["dense"], c["dense.points"]), "us"),
        "dense.segments_per_traj": (ratio(c["dense.segments"], calls["dense"]), "count"),
        "dense.busy_s": (per_round(tot["dense"]), "s"),
        "odes.rhs_auto.evals": (per_round(calls["odes.rhs_auto"]), "count"),
        "odes.rhs_auto.us_per_eval": (us_per(tot["odes.rhs_auto"], calls["odes.rhs_auto"]), "us"),
        "pohozaev.series_calls": (per_round(calls["pohozaev.series"]), "count"),
        "pohozaev.samples": (per_round(c["pohozaev.samples"]), "count"),
        "pohozaev.series.self_s": (per_round(self_["pohozaev.series"]), "s"),
        "ledger.build_calls": (ratio(calls["ledger.build"], per_round(ops)), "count/op"),
        "ledger.build_s": (per_round(tot["ledger.build"]), "s"),
        "ledger.entries": (tr.maxima["ledger.entries"], "count"),
        "coefficients.oracle_calls": (per_round(calls["coefficients.oracle"]), "count"),
        "coefficients.oracle_s": (per_round(tot["coefficients.oracle"]), "s"),
        "cli.verify.self_s": (per_round(self_["cli.verify"]), "s"),
        "bench.op.self_s": (per_round(self_["op"]), "s"),
    }
    for cid in GATE_CRITERIA:
        name = f"acceptance.C{cid:02d}"
        m[f"{name}.s"] = (per_round(tot[name]), "s")
    return m

