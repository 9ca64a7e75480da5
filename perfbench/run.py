"""fowler4 benchmark: four closed-loop workloads in one process and one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): shoot-f64, shoot-ld,
energy, gate-exact.  One round builds the workload's inputs from the seed
and runs each once, each op starting after the previous one ends; rounds
repeat until --seconds have passed (at least one round).  Every op is
checked; a wrong answer counts as failed.

--trace 0 prints the end-to-end metrics: wall_s (median round), op_p50_s,
op_p80_s, setup_s (median of SETUP_REPEATS fresh set-up processes) and
peak_rss_mb.  Their times are seconds at the reference speed of speed.py,
which cancels the drift of a shared host's CPU speed; the measured wall
times are on the stamp line.  --trace 1 runs the fixed-problem probes, an
untraced pass and a traced pass, and prints the per-layer metrics of the
traced pass (counts per round, plain wall-clock times) with the tracing
overhead at the reference speed.  The last stdout line is the JSON result; the line before it
stamps the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass
class Pass:
    rounds: list = field(default_factory=list)     # (start, end) per round
    ops: list = field(default_factory=list)        # (start, end) per op
    attempted: int = 0
    failed: int = 0

    @property
    def walls(self):
        return [t1 - t0 for t0, t1 in self.rounds]


def run_pass(build, seed: int, seconds: float, tracer=None) -> Pass:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    res = Pass()
    start = perf_counter()
    while not res.rounds or perf_counter() - start < seconds:
        t_round = perf_counter()
        with span("bench.build"):
            ops = build(seed, tracer)
        for op in ops:
            t0 = perf_counter()
            with span("op"):
                try:
                    ok = op.run()
                except Exception:  # a crashed op is a failed op; keep measuring
                    traceback.print_exc()
                    ok = False
            res.ops.append((t0, perf_counter()))
            res.attempted += 1
            if not ok:
                res.failed += 1
                print(f"FAILED: {op.label}", file=sys.stderr)
        res.rounds.append((t_round, perf_counter()))
    return res


def setup_runs() -> list:
    """(start, end) of SETUP_REPEATS fresh set-up processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT, env=env,
                       check=True)
        runs.append((t0, perf_counter()))
    return runs


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def env_stamp(np) -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "pinned_cpu": min(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fowler4" / "__init__.py").is_file():
        print(f"error: fowler4 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import fowler4
    if Path(fowler4.__file__).resolve().parent != SRC / "fowler4":
        print(f"error: imported fowler4 from {fowler4.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    stamp = env_stamp(np)
    # one CPU for the loop, its child processes and the speed samples, so the
    # samples measure the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from speed import SpeedMeter
    if args.trace:
        from probes import run_probes
        from tracing import Tracer, install, layer_metrics
        probes = run_probes()
        tracer = Tracer()
        with SpeedMeter() as meter:
            plain = run_pass(build, args.seed, args.seconds)
            install(tracer)
            traced = run_pass(build, args.seed, args.seconds, tracer)

        def ref_round(p: Pass) -> float:
            return statistics.median(meter.ref_seconds(*r) for r in p.rounds)

        metrics = {**layer_metrics(tracer, len(traced.rounds), traced.attempted), **probes}
        metrics["trace.overhead_frac"] = (ref_round(traced) / ref_round(plain) - 1.0, "1")
        metrics["trace.self_sum_frac"] = (
            sum(tracer.self_s.values()) / sum(traced.walls), "1")
        passes = (plain, traced)
        raw = {"wall_s": [statistics.median(p.walls) for p in passes]}
    else:
        with SpeedMeter() as meter:
            run = run_pass(build, args.seed, args.seconds)
            setups = setup_runs()
        op_times = [meter.ref_seconds(*o) for o in run.ops]
        metrics = {
            "wall_s": (statistics.median(meter.ref_seconds(*r) for r in run.rounds), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "op_p80_s": (statistics.quantiles(op_times, n=5, method="inclusive")[3]
                         if len(op_times) > 1 else op_times[0], "s"),
            "setup_s": (statistics.median(meter.ref_seconds(*r) for r in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        raw = {"wall_s": statistics.median(run.walls),
               "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
               "kernel_ms": 1e3 * statistics.median(meter.kernel_s)}
        passes = (run,)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"env": stamp, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "rounds": [len(p.rounds) for p in passes],
                      "op_samples": [len(p.ops) for p in passes], "raw": raw}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
