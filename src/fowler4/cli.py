"""Command-line front end: parameter sweeps, verification, data export.

Subcommands: coeffs, signs, classify, integrate, pohozaev, shoot, fit,
verify.  Each subcommand accepts only the flags it reads, and its
artifact header lists the parameters it read.  Rational inputs are
accepted as "p/q" strings and kept exact end-to-end; outputs are
deterministic (17 significant digits, no timestamps).  Exit codes:
0 success (verify: all checks pass or are documented mismatches),
1 unexpected failure or, for shoot, a row that misses a C07 threshold,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import List, Optional

from . import acceptance
from .coefficients import (BUILD_SIGMA, derive_cyl_coeffs_numeric, oracle_autonomous,
                           printed_autonomous, sign_report)
from .ledger import build_ledger, check_ledger, format_number, ledger_to_csv, ledger_to_json
from .levels import limiting_levels
from .output import gnuplot_companion, write_csv, write_json
from .params import DomainError, Params, special_exponents

# Commands that compute on arrays import numpy and the numerical modules in
# their own body: coeffs, signs, classify, pohozaev, fit and `verify --suite`
# coefficients, profiles, asymptotics or ledger load none of them.


class UsageError(Exception):
    pass


def _parse_scalar(text: str):
    """Exact parse: 'p/q', integers and decimal strings all become
    Fractions; a value beyond float range is a usage error."""
    try:
        value = Fraction(text.strip())
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"cannot parse scalar {text!r}: {exc}") from None
    return value


def _parse_n_range(text: str) -> List[int]:
    """Dimensions from 'n' or an inclusive, non-empty range 'lo:hi'."""
    lo, hi = text.split(":", 1) if ":" in text else (text, text)
    try:
        ns = list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise UsageError(f"cannot parse --n {text!r}") from None
    if not ns:
        raise UsageError(f"empty dimension range --n {text!r}")
    special_exponents(ns[0])
    return ns


# Each subcommand registers only the flags it reads (see build_parser).
_FLAGS = {
    "n": dict(required=True, help="dimension (or lo:hi range)"),
    "s": dict(required=True, help="power, exact 'p/q' accepted"),
    "p": dict(type=int, default=1, help="component count"),
    "rel-tol": dict(type=float, default=1e-10),
    "abs-tol": dict(type=float, default=1e-12),
    "sigma": dict(type=int, choices=(1, -1), default=BUILD_SIGMA),
    "c-mode": dict(choices=("measured", "unit"), default="measured"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(default=None, help="output path (default: stdout)"),
    "gnuplot": dict(action="store_true",
                    help="also emit a companion gnuplot script (text only)"),
}

# the parameters a header echoes, whenever the subcommand took them
_ECHOED = ("n", "s", "p", "rel_tol", "abs_tol", "sigma", "c_mode")


def _add_flags(ap: argparse.ArgumentParser, *names: str):
    for name in names:
        ap.add_argument(f"--{name}", **_FLAGS[name])


def _config(args, **extra):
    cfg = {k: getattr(args, k) for k in _ECHOED if getattr(args, k, None) is not None}
    cfg.update(extra)
    return cfg


def _write(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _emit(args, text: str, columns=None):
    if args.out:
        _write(args.out, text)
        if getattr(args, "gnuplot", False):
            _write(args.out + ".gp", gnuplot_companion(args.out, columns))
    else:
        sys.stdout.write(text)


def _table(args, cols, rows, cfg):
    """Emit rows as CSV, or as JSON objects keyed by column."""
    text = write_csv(cols, rows, cfg) if args.format == "csv" else \
        write_json(cfg, [dict(zip(cols, r)) for r in rows])
    _emit(args, text, cols)


def cmd_coeffs(args) -> int:
    ns = _parse_n_range(args.n)
    s = _parse_scalar(args.s)
    rows = []
    for n in ns:
        printed = printed_autonomous(n, s)
        oracle = oracle_autonomous(n, s, args.sigma)
        numeric = derive_cyl_coeffs_numeric(n, 0.3, s=float(s), sigma=args.sigma)
        for key in ("K0", "K1", "K2", "K3", "J0", "J1"):
            verdict = "MATCH" if printed[key] == oracle[key] else \
                ("SIGN_CONVENTION" if printed[key] == -oracle[key] else "MISMATCH")
            rows.append([n, str(s), key, format_number(printed[key]),
                         format_number(oracle[key]),
                         format_number(float(numeric[key])), verdict])
    cols = ["n", "s", "symbol", "printed", "oracle", "chain_rule", "verdict"]
    _table(args, cols, rows, _config(args))
    return 0


def cmd_signs(args) -> int:
    ns = _parse_n_range(args.n)
    try:
        grid = int(args.s_grid)
    except ValueError:
        raise UsageError(f"cannot parse --s-grid {args.s_grid!r}") from None
    if grid < 2:
        raise UsageError(f"--s-grid needs at least 2 samples, got {grid}")
    rows = []
    for n in ns:
        ex = special_exponents(n)
        smin, smax = 1.02, float(ex.critical_power) * 1.1
        for i in range(grid):
            s = smin + (smax - smin) * i / (grid - 1)
            rep = sign_report(Params(n, s), args.sigma)
            rows.append([n, s, int(rep["in_window"])] +
                        [rep["signs"][k] for k in ("K0", "K1", "K2", "K3", "J0", "J1")])
    cols = ["n", "s", "in_window", "sgn_K0", "sgn_K1", "sgn_K2", "sgn_K3",
            "sgn_J0", "sgn_J1"]
    _table(args, cols, rows, _config(args, s_grid=grid))
    return 0


def cmd_classify(args) -> int:
    from .asymptotics import classify_regime

    ns = _parse_n_range(args.n)
    s = _parse_scalar(args.s)
    rows = []
    for n in ns:
        rep = classify_regime(n, s)
        rows.append([n, str(s), rep.regime.value, rep.predicted_exponent,
                     rep.predicted_amplitude, rep.log_correction_exponent,
                     rep.description,
                     format_number(oracle_autonomous(n, s)["K0"])])
    cols = ["n", "s", "regime", "predicted_exponent", "predicted_amplitude",
            "log_correction_exponent", "description", "K0"]
    _table(args, cols, rows, _config(args))
    return 0


def cmd_integrate(args) -> int:
    import numpy as np

    from .integrate import StepUnderflowError, integrate
    from .odes import make_autonomous_rhs
    from .pohozaev import pohozaev_series

    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("integrate takes a single dimension")
    n = ns[0]
    s = _parse_scalar(args.s)
    params = Params(n, s, args.p)
    y0 = np.array([float(_parse_scalar(v)) for v in args.init.split(",")])
    if y0.size != 4 * args.p:
        raise UsageError(f"initial state needs {4 * args.p} entries, got {y0.size}")
    rhs = make_autonomous_rhs(params, args.sigma)
    try:
        traj = integrate(rhs, 0.0, y0, args.t_end, rel_tol=args.rel_tol,
                         abs_tol=args.abs_tol)
    except StepUnderflowError as exc:
        # a guarded stop, like the guard's blowup: the partial record is the result
        print(f"integrate: {exc}", file=sys.stderr)
        traj = exc.trajectory
    cfg = _config(args, t_end=args.t_end, status=traj.status)
    rows = []
    steps = np.diff(traj.t, append=traj.t[-1])
    for i, t in enumerate(traj.t):
        rows.append([float(t)] + [float(v) for v in traj.y[i]] + [float(steps[i])])
    cols = (["t"] + [f"y{j}" for j in range(4 * args.p)] + ["step"])
    text = write_csv(cols, rows, cfg) if args.format == "csv" else write_json(cfg, rows)
    if args.energy_out:
        # built before any file is written: a DomainError here writes nothing
        series = pohozaev_series(params, traj, num=min(801, 5 * len(traj.t)),
                                 sigma=args.sigma)
        energy = write_csv(["t", "H", "dH_formula", "dH_numeric"],
                           [[q.t, q.H, q.dH_formula, q.dH_numeric] for q in series], cfg)
    _emit(args, text, cols)
    if args.energy_out:
        _write(args.energy_out, energy)
    return 0


def cmd_pohozaev(args) -> int:
    ns = _parse_n_range(args.n)
    s = _parse_scalar(args.s)
    results = []
    for n in ns:
        lv = limiting_levels(Params(n, s))
        results.append({
            "n": n, "s": str(s),
            "l_star_autonomous": lv.l_star_autonomous,
            "l_star_lower_critical_printed": lv.l_star_aviles_printed,
            "l_star_lower_critical_derived": lv.l_star_aviles_derived,
            "constant_state_limit": lv.l_star_aviles_constant_state,
            "verdict": lv.aviles_verdict,
        })
    _emit(args, write_json(_config(args), results))
    return 0


def cmd_shoot(args) -> int:
    import numpy as np

    from .shooting import critical_constants, orbit_table

    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("shoot takes a single dimension")
    n = ns[0]
    cc = critical_constants(n, args.c_mode)
    a_values = []
    for text in args.a_grid.split(","):
        a = float(_parse_scalar(text)) * cc.a0
        if not 0 < a <= cc.a0:
            raise UsageError(f"--a-grid entries are fractions of a0 in (0, 1], got {text!r}")
        a_values.append(a)
    results = orbit_table(n, a_values, c_mode=args.c_mode)
    rows = [[n, r.a, r.b, r.T, r.energy, r.residual, r.period_defect,
             r.energy_drift, r.min_v, int(r.converged), r.precision]
            for r in results]
    cols = ["n", "a", "b", "T", "energy", "residual", "period_defect",
            "energy_drift", "min_v", "converged", "precision"]
    cfg = _config(args, a0=cc.a0, c=cc.c, a_grid=args.a_grid)
    if args.orbit_dir:
        import pathlib
        outdir = pathlib.Path(args.orbit_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, r in enumerate(results):
            if r.orbit is None:
                continue
            ts = np.linspace(0.0, r.T, 801)
            vals = r.orbit(ts)
            orows = [[float(t)] + [float(v) for v in vals[j]]
                     for j, t in enumerate(ts)]
            _write(outdir / f"orbit_{i:02d}.csv",
                   write_csv(["t", "v", "v1", "v2", "v3"], orows,
                             {**cfg, "a": r.a, "b": r.b, "T": r.T}))
    _table(args, cols, rows, cfg)
    # below a0 a non-empty message names a missed C07 threshold; at a0 it
    # reads "constant orbit"
    misses = [r for r in results if not r.converged or (r.message and r.a < cc.a0)]
    for r in misses:
        print(f"shoot: n={n} a={r.a:.17g}: {r.message}", file=sys.stderr)
    return 1 if misses else 0


def cmd_fit(args) -> int:
    from .asymptotics import (LOG_FIT_MIN_SAMPLES, POWER_FIT_MIN_SAMPLES, fit_log_corrected,
                              fit_power_law, geometric_grid)
    from .profiles import AvilesProfile, Bubble, SingularPower

    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("fit takes a single dimension")
    n = ns[0]
    if args.s is not None and args.profile != "power":
        raise UsageError(f"--s is read by --profile power only, not {args.profile}")
    if not 0 < args.r_lo < args.r_hi < math.inf:
        raise UsageError(f"need 0 < --r-lo < --r-hi < inf, got {args.r_lo} and {args.r_hi}")
    minimum = LOG_FIT_MIN_SAMPLES if args.profile == "aviles" else POWER_FIT_MIN_SAMPLES
    if args.num < minimum:
        raise UsageError(f"--profile {args.profile} needs --num >= {minimum}, got {args.num}")
    if args.profile == "power":
        if args.s is None:
            args.s = "7"   # the default, echoed in the header like a given --s
        s = _parse_scalar(args.s)
        value, r_lo, r_hi = SingularPower(n, float(s)).radial, args.r_lo, args.r_hi
    elif args.profile == "aviles":
        value, r_lo, r_hi = AvilesProfile(n), args.r_lo, min(args.r_hi, 0.1)
    elif args.profile == "bubble":
        # the power tail shows only far out: two decades or more above r = 1e2
        r_lo = max(args.r_lo, 1e2)
        value, r_hi = Bubble(n).radial, max(args.r_hi, 1e2 * r_lo)
    else:
        raise UsageError(f"unknown profile {args.profile!r}")
    samples = [(r, value(r)) for r in geometric_grid(r_lo, r_hi, args.num)]
    if args.profile == "aviles":
        rep = fit_log_corrected(samples, n)
    else:
        rep = fit_power_law(samples)
    results = {"profile": args.profile, "exponent": rep.exponent,
               "amplitude": rep.amplitude, "residual": rep.residual,
               "log_exponent": rep.log_exponent,
               "amplitude_targets": rep.amplitude_targets}
    cfg = _config(args, r_lo=r_lo, r_hi=r_hi, num=args.num, profile=args.profile)
    _emit(args, write_json(cfg, results))
    if args.samples_out:
        if rep.log_exponent is not None and args.profile == "aviles":
            model = lambda r: rep.amplitude * r ** (4.0 - n) * \
                (-math.log(r)) ** rep.log_exponent
        else:
            model = lambda r: rep.amplitude * r ** (-rep.exponent)
        rows = []
        for r, v in samples:
            pred = model(r)
            rows.append([r, v, pred, abs(v - pred) / max(abs(pred), 1e-300)])
        _write(args.samples_out,
               write_csv(["r", "value", "model", "rel_deviation"], rows, cfg))
    return 0


def cmd_verify(args) -> int:
    select = None
    if args.suite:
        if args.suite not in acceptance.SUITE_GROUPS:
            raise UsageError(f"unknown suite {args.suite!r}; "
                             f"choose from {sorted(acceptance.SUITE_GROUPS)}")
        select = acceptance.SUITE_GROUPS[args.suite]
    results = acceptance.run_all(select=select, echo=True)
    entries = build_ledger()
    ok_ledger, undocumented, silent = check_ledger(entries)
    print(f"ledger: {len(entries)} entries, "
          f"{sum(1 for e in entries if e.verdict == 'MISMATCH')} documented mismatches, "
          f"registry {'consistent' if ok_ledger else 'INCONSISTENT'}")
    if args.out:
        _write(args.out,
               ledger_to_json(entries) if args.format == "json" else ledger_to_csv(entries))
    all_ok = all(r.passed for r in results) and ok_ledger
    print("verify:", "OK" if all_ok else "FAILED")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fowler4",
        description="verification laboratory for the fourth-order cylindrical reduction")
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: `signs --s 7` must not be read as `--s-grid 7`
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("coeffs", help="coefficient table from all routes")
    _add_flags(p, "n", "s", "sigma", "format", "out", "gnuplot")
    p.set_defaults(fn=cmd_coeffs)

    p = add("signs", help="sign chart of the coefficients over s")
    _add_flags(p, "n", "sigma", "format", "out", "gnuplot")
    p.add_argument("--s-grid", default="64", help="number of s samples")
    p.set_defaults(fn=cmd_signs)

    p = add("classify", help="asymptotic regime of (n, s)")
    _add_flags(p, "n", "s", "format", "out")
    p.set_defaults(fn=cmd_classify)

    p = add("integrate", help="integrate the constant-coefficient system")
    _add_flags(p, "n", "s", "p", "rel-tol", "abs-tol", "sigma", "format", "out",
               "gnuplot")
    p.add_argument("--init", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", type=float, default=40.0)
    p.add_argument("--energy-out", default=None,
                   help="also write the energy series CSV here")
    p.set_defaults(fn=cmd_integrate)

    p = add("pohozaev", help="limiting energy levels (JSON)")
    _add_flags(p, "n", "s", "out")
    p.set_defaults(fn=cmd_pohozaev)

    p = add("shoot", help="periodic critical-case orbits")
    _add_flags(p, "n", "c-mode", "format", "out", "gnuplot")
    p.add_argument("--a-grid", default="0.3,0.6,0.9",
                   help="comma-separated fractions of a0, each in (0, 1]")
    p.add_argument("--orbit-dir", default=None,
                   help="also write one orbit CSV per grid entry here")
    p.set_defaults(fn=cmd_shoot)

    p = add("fit", help="fit a synthetic profile and report parameters (JSON)")
    _add_flags(p, "n", "out")
    p.add_argument("--s", default=None, help="power of --profile power (default 7)")
    p.add_argument("--profile", choices=("power", "aviles", "bubble"), default="power")
    p.add_argument("--r-lo", type=float, default=1e-3)
    p.add_argument("--r-hi", type=float, default=1e2)
    p.add_argument("--num", type=int, default=40)
    p.add_argument("--samples-out", default=None,
                   help="also write (r, value, model, rel_deviation) CSV here")
    p.set_defaults(fn=cmd_fit)

    p = add("verify", help="run the acceptance suite and the ledger gate")
    p.add_argument("--suite", default=None, help="restrict to one suite group")
    _add_flags(p, "format")
    p.add_argument("--out", default=None, help="write the ledger here")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
