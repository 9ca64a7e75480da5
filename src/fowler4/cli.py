"""Command-line front end: parameter sweeps, verification, data export.

Subcommands: coeffs, signs, classify, integrate, pohozaev, shoot, fit,
verify.  Each subcommand accepts only the flags it reads, and its
artifact header lists the parameters it read.  Rational inputs are
accepted as "p/q" strings and kept exact end-to-end; outputs are
deterministic (17 significant digits, no timestamps).  Exit codes:
0 success (verify: all checks pass or are documented mismatches),
1 unexpected failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import acceptance
from .asymptotics import classify_regime, fit_log_corrected, fit_power_law
from .coefficients import (BUILD_SIGMA, derive_cyl_coeffs_numeric, oracle_autonomous,
                           printed_autonomous, sign_report)
from .integrate import integrate
from .ledger import build_ledger, check_ledger, format_number, ledger_to_csv, ledger_to_json
from .odes import make_autonomous_rhs
from .output import gnuplot_companion, write_csv, write_json
from .params import DomainError, Params, special_exponents
from .pohozaev import limiting_levels, pohozaev_series
from .profiles import AvilesProfile, Bubble, SingularPower
from .shooting import critical_constants, orbit_table


class UsageError(Exception):
    pass


def _parse_scalar(text: str):
    """Exact parse: 'p/q', integers and decimal strings all become Fractions."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse scalar {text!r}: {exc}") from None


def _parse_n_range(text: str) -> List[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


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
        if columns and args.gnuplot:
            _write(args.out + ".gp", gnuplot_companion(args.out, columns))
    else:
        sys.stdout.write(text)


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
    if args.format == "json":
        results = [dict(zip(cols, r)) for r in rows]
        text = write_json(_config(args), results)
    else:
        text = write_csv(cols, rows, _config(args))
    _emit(args, text, cols)
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
    cfg = _config(args, s_grid=grid)
    text = write_csv(cols, rows, cfg) if args.format == "csv" else \
        write_json(cfg, [dict(zip(cols, r)) for r in rows])
    _emit(args, text, cols)
    return 0


def cmd_classify(args) -> int:
    ns = _parse_n_range(args.n)
    s = _parse_scalar(args.s)
    results = []
    for n in ns:
        rep = classify_regime(n, s)
        results.append({
            "n": n, "s": str(s), "regime": rep.regime.value,
            "predicted_exponent": rep.predicted_exponent,
            "predicted_amplitude": rep.predicted_amplitude,
            "log_correction_exponent": rep.log_correction_exponent,
            "description": rep.description,
            "K0": format_number(oracle_autonomous(n, s, args.sigma)["K0"]),
        })
    if args.format == "csv":
        cols = list(results[0].keys())
        text = write_csv(cols, [[r[c] for c in cols] for r in results], _config(args))
    else:
        text = write_json(_config(args), results)
    _emit(args, text)
    return 0


def cmd_integrate(args) -> int:
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("integrate takes a single dimension")
    n = ns[0]
    s = _parse_scalar(args.s)
    params = Params(n, s, args.p)
    y0 = np.array([float(Fraction(v)) for v in args.init.split(",")])
    if y0.size != 4 * args.p:
        raise UsageError(f"initial state needs {4 * args.p} entries, got {y0.size}")
    rhs = make_autonomous_rhs(params, args.sigma)
    traj = integrate(rhs, 0.0, y0, args.t_end, rel_tol=args.rel_tol,
                     abs_tol=args.abs_tol)
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
        lv = limiting_levels(Params(n, s), args.sigma)
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
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("shoot takes a single dimension")
    n = ns[0]
    cc = critical_constants(n, args.c_mode)
    fracs = [float(Fraction(v)) for v in args.a_grid.split(",")]
    a_values = [f * cc.a0 for f in fracs]
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
    text = write_csv(cols, rows, cfg) if args.format == "csv" else \
        write_json(cfg, [dict(zip(cols, r)) for r in rows])
    _emit(args, text, cols)
    return 0 if all(r.converged for r in results) else 1


def cmd_fit(args) -> int:
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("fit takes a single dimension")
    n = ns[0]
    if args.profile == "power":
        s = _parse_scalar(args.s) if args.s else Fraction(7)
        value, r_lo, r_hi = SingularPower(n, float(s)).radial, args.r_lo, args.r_hi
    elif args.profile == "aviles":
        value, r_lo, r_hi = AvilesProfile(n), args.r_lo, min(args.r_hi, 0.1)
    elif args.profile == "bubble":
        # the power tail shows only far out: two decades or more above r = 1e2
        r_lo = max(args.r_lo, 1e2)
        value, r_hi = Bubble(n).radial, max(args.r_hi, 1e2 * r_lo)
    else:
        raise UsageError(f"unknown profile {args.profile!r}")
    samples = [(float(r), value(float(r))) for r in np.geomspace(r_lo, r_hi, args.num)]
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
                (-np.log(r)) ** rep.log_exponent
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
    _add_flags(p, "n", "s", "sigma", "format", "out")
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
    _add_flags(p, "n", "s", "sigma", "out")
    p.set_defaults(fn=cmd_pohozaev)

    p = add("shoot", help="periodic critical-case orbits")
    _add_flags(p, "n", "c-mode", "format", "out", "gnuplot")
    p.add_argument("--a-grid", default="0.3,0.6,0.9",
                   help="comma-separated fractions of a0")
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
