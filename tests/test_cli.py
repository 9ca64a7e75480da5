"""Command-line contract: exact output, exit codes, determinism."""

import functools
import hashlib
import json
import re
import subprocess
import sys

import pytest

from fowler4 import cli

CMD = [sys.executable, "-m", "fowler4"]


def _checked(out, check):
    if check and out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr}")
    return out


def run_process(*args, check=False):
    """Run one command through the entry point in a fresh interpreter."""
    return _checked(subprocess.run(CMD + list(args), capture_output=True, text=True), check)


def run_cli(capsys, *args, check=False):
    """Run one command in process through cli.main, its output captured."""
    code = cli.main(list(args))
    cap = capsys.readouterr()
    return _checked(subprocess.CompletedProcess(list(args), code, cap.out, cap.err), check)


def test_coeffs_exact_rational_output(capsys):
    out = run_cli(capsys, "coeffs", "--n", "5", "--s", "9/1", check=True)
    assert "5,9,K0,25/16,25/16," in out.stdout
    assert "MATCH" in out.stdout


def test_coeffs_zero_row_at_lower_exponent(capsys):
    out = run_cli(capsys, "coeffs", "--n", "5", "--s", "5", check=True)
    row = [l for l in out.stdout.splitlines() if l.startswith("5,5,K0")][0]
    assert row.split(",")[3] == "0"


def test_coeffs_judges_by_the_ledger_rule(monkeypatch, capsys):
    # a negated even coefficient is a MISMATCH: only K1, K3 and J1 flip with
    # the sign convention (coeffs called a negated K2 SIGN_CONVENTION)
    def planted(n, s, table=cli.printed_autonomous):
        values = table(n, s)
        values["K2"], values["K3"] = -values["K2"], -values["K3"]
        return values
    monkeypatch.setattr(cli, "printed_autonomous", planted)
    rows = run_cli(capsys, "coeffs", "--n", "5", "--s", "7", check=True).stdout.splitlines()
    verdicts = {r.split(",")[2]: r.split(",")[-1] for r in rows if r.startswith("5,7,")}
    assert verdicts == {"K0": "MATCH", "K1": "MATCH", "K2": "MISMATCH",
                        "K3": "SIGN_CONVENTION", "J0": "MATCH", "J1": "MISMATCH"}


@pytest.mark.parametrize("command", [
    ("integrate", "--s", "7", "--init", "1,0,0,0"), ("shoot",), ("fit",)])
def test_single_dimension_commands_refuse_a_range(command, capsys):
    out = run_cli(capsys, command[0], "--n", "5:6", *command[1:])
    assert out.returncode == 2
    assert out.stderr == f"error: {command[0]} takes a single dimension\n"


def test_malformed_s_exits_2_without_output(tmp_path, capsys):
    # an empty --s is malformed too, not the default
    target = tmp_path / "out.csv"
    for argv in (("coeffs", "--n", "5", "--s", "junk"), ("fit", "--n", "5", "--s", "")):
        out = run_cli(capsys, *argv, "--out", str(target))
        assert out.returncode == 2
        assert not target.exists()


@pytest.mark.parametrize("grid", ["1", "0", "-3", "junk"])
def test_signs_short_or_malformed_grid_exits_2_without_output(tmp_path, grid):
    target = tmp_path / "out.csv"
    assert cli.main(["signs", "--n", "5", "--s-grid", grid, "--out", str(target)]) == 2
    assert not target.exists()


@pytest.mark.parametrize("args", [
    ("coeffs", "--n", "7:5", "--s", "7"),
    ("coeffs", "--n", "x", "--s", "7"),
    ("signs", "--n", "7:5"),
    ("classify", "--n", "7:5", "--s", "7"),
    ("classify", "--n", "5:x", "--s", "7"),
    ("shoot", "--n", "6", "--a-grid", "junk"),
    ("shoot", "--n", "6", "--a-grid", "0.6,1/0"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,junk,0,0"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--t-end", "nan"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--t-end", "inf"),
    ("coeffs", "--n", "4", "--s", "7"),
    ("coeffs", "--n", "0", "--s", "7"),
    ("coeffs", "--n", "-3", "--s", "7"),
    ("fit", "--n", "5", "--r-lo", "-1"),
    ("fit", "--n", "5", "--r-lo", "nan"),
    ("fit", "--n", "5", "--r-hi", "inf"),
    ("fit", "--n", "5", "--r-lo", "1", "--r-hi", "1"),
    ("fit", "--n", "5", "--r-lo", "10", "--r-hi", "1"),
    ("fit", "--n", "5", "--num", "7"),
    ("fit", "--n", "5", "--profile", "aviles", "--num", "11"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--rel-tol", "nan"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--abs-tol", "nan"),
    # a scalar beyond float range (these exited 1 on OverflowError, classify 0)
    ("coeffs", "--n", "5", "--s", "1e400"),
    ("pohozaev", "--n", "5", "--s", "1e400"),
    ("fit", "--n", "5", "--s", "1e400"),
    ("classify", "--n", "5", "--s", "1e400"),
    ("integrate", "--n", "5", "--s", "1e400", "--init", "1,0,0,0"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1e400,0,0,0"),
    ("shoot", "--n", "6", "--a-grid", "1e400"),
    # an infinite tolerance
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--rel-tol", "1e400"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--abs-tol", "inf"),
    # |V|^2 overflows: the derivative at the initial state is not finite
    ("integrate", "--n", "5", "--s", "7", "--init", "1e200,0,0,0"),
    # |V|^6 overflows (this exited 1 on OverflowError)
    ("integrate", "--n", "5", "--s", "7", "--init", "1e100,0,0,0"),
    # the first step size is 0: the derivative's scaled norm overflows, or a
    # tenth of the span underflows (these exited 1 on ZeroDivisionError)
    ("integrate", "--n", "5", "--s", "7", "--init", "1e30,0,0,0"),
    ("integrate", "--n", "5", "--s", "7", "--init", "1,1e300,0,0"),
    ("integrate", "--n", "5", "--s", "7", "--init", "0,0,0,1e300"),
    ("integrate", "--n", "5", "--s", "7", "--init", "0.1,0,0,0", "--t-end", "5e-324"),
    # c(n) cannot be measured in float (these exited 1 on ArithmeticError,
    # ZeroDivisionError and OverflowError)
    ("shoot", "--n", "900", "--a-grid", "0.5"),
    ("shoot", "--n", "2000", "--a-grid", "0.5"),
    ("shoot", "--n", "9999", "--a-grid", "0.5"),
    # a limiting level leaves float range (104 wrote the non-JSON token
    # Infinity; the others exited 1 on OverflowError)
    ("pohozaev", "--n", "104", "--s", "7"),
    ("pohozaev", "--n", "105", "--s", "7"),
    ("pohozaev", "--n", "9999", "--s", "7"),
    ("pohozaev", "--n", "200", "--s", "201/196"),
    # a fraction of a0 outside (0, 1] (these exited 1 with a row of NaN and inf)
    ("shoot", "--n", "6", "--a-grid", "0"),
    ("shoot", "--n", "6", "--a-grid", "-1"),
    ("shoot", "--n", "6", "--a-grid", "3/2"),
    ("shoot", "--n", "6", "--a-grid", "1e30"),
])
def test_malformed_or_empty_input_exits_2_without_output(tmp_path, capsys, args):
    target = tmp_path / "out.csv"
    out = run_cli(capsys, *args, "--out", str(target))
    assert out.returncode == 2 and out.stderr.startswith("error: ")
    assert not target.exists()


def test_integrate_energy_failure_exits_2_without_output(tmp_path):
    # too short a run for the energy series' stencil: DomainError
    out, energy = tmp_path / "tr.csv", tmp_path / "energy.csv"
    argv = ["integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--t-end", "0.001",
            "--out", str(out), "--energy-out", str(energy)]
    assert cli.main(argv) == 2
    assert not out.exists() and not energy.exists()


@pytest.mark.parametrize("t_end", ["1e-30", "1e-300"])
def test_integrate_a_span_of_one_step_is_reached(capsys, t_end):
    # the first step equals the span (this exited 1 on StepUnderflowError)
    out = run_cli(capsys, "integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0",
                  "--t-end", t_end, check=True)
    assert "# status: reached" in out.stdout and out.stderr == ""
    rows = [l.split(",") for l in out.stdout.splitlines() if l[:1].isdigit()]
    assert [float(r[0]) for r in rows] == [0.0, float(t_end)]


@pytest.mark.parametrize("init, h, row", [("1,1e30,0,0", "6.551e-33", "0,1,1e+30,0,0,0"),
                                          ("0,0,0,1e30", "1.000e-32", "0,0,0,0,1e+30,0")])
def test_integrate_step_underflow_writes_the_partial_record(tmp_path, capsys, init, h, row):
    # a guarded stop, like the blowup guard's (this exited 1 on StepUnderflowError)
    target = tmp_path / "traj.csv"
    out = run_cli(capsys, "integrate", "--n", "5", "--s", "7", "--init", init,
                  "--out", str(target), check=True)
    assert out.stderr == f"integrate: step size underflow at t=0 (h={h})\n"
    text = target.read_text()
    assert "# status: underflow" in text
    assert [l for l in text.splitlines() if l[:1].isdigit()] == [row]


# the edge classes of every numeric flag; --n also takes the dimension edges
_EDGES = ("5", "0", "-1", "1e400", "nan", "inf", "-inf", "1e-300", "5e-324", "1e300",
          "1e30", "1e-30", "7/3", "1/0", "", "2", "1", "3/2")
_N_EDGES = _EDGES + ("4", "100", "5:4", "5:5", "6.5", "9999")
_INIT_P1 = ("0.3", "-0.2", "0.1", "0.25")
_INIT_P2 = _INIT_P1 + ("0.1", "0.05", "-0.1", "0.2")

# (base command, flags swept one at a time); "--init:i" is slot i of --init
_SWEEP = (
    (("coeffs", "--n", "5", "--s", "7"), ("--n", "--s", "--sigma")),
    (("signs", "--n", "5", "--s-grid", "4"), ("--n", "--s-grid", "--sigma")),
    (("classify", "--n", "5", "--s", "7"), ("--n", "--s")),
    (("pohozaev", "--n", "5", "--s", "7"), ("--n", "--s")),
    (("shoot", "--n", "6", "--a-grid", "0.9"), ("--n", "--a-grid")),
    (("fit", "--n", "5"), ("--n", "--s", "--r-lo", "--r-hi", "--num")),
    (("integrate", "--n", "5", "--s", "7", "--init", ",".join(_INIT_P1), "--t-end", "0.05"),
     ("--n", "--s", "--p", "--rel-tol", "--abs-tol", "--sigma", "--t-end",
      "--init:0", "--init:1", "--init:2", "--init:3")),
    (("integrate", "--n", "5", "--s", "7", "--p", "2", "--init", ",".join(_INIT_P2),
      "--t-end", "0.05"), ("--init:0", "--init:5")),
)


def _sweep_cases():
    for base, flags in _SWEEP:
        for flag in flags:
            for value in _N_EDGES if flag == "--n" else _EDGES:
                argv = list(base)
                name, _, slot = flag.partition(":")
                if slot:
                    entries = argv[argv.index(name) + 1].split(",")
                    entries[int(slot)] = value
                    value = ",".join(entries)
                if name in argv:
                    argv[argv.index(name) + 1] = value
                else:
                    argv += [name, value]
                yield argv


def test_every_numeric_flag_at_its_edge_values_exits_0_or_2(monkeypatch, capsys):
    # in process; the parser is built once, as each build costs more than
    # most of these commands.  shoot exits 1 where a row misses a C07
    # threshold, and says which on stderr
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache()(cli.build_parser))
    bad = []
    for argv in _sweep_cases():
        out = run_cli(capsys, *argv)
        missed = (argv[0] == "shoot" and out.returncode == 1 and
                  all(l.startswith("shoot: n=") for l in out.stderr.splitlines()))
        if not (out.returncode in (0, 2) or missed) or "failure:" in out.stderr:
            bad.append((argv, out.returncode, out.stderr.strip()))
    assert bad == []


def test_missing_subcommand_is_usage_error():
    out = run_process()
    assert out.returncode == 2


@pytest.mark.parametrize("args", [
    ("signs", "--n", "5", "--seed", "1"),
    ("signs", "--n", "5", "--s", "7"),     # not taken as an abbreviation of --s-grid
    ("shoot", "--n", "6", "--rel-tol", "1e-3"),
    ("fit", "--n", "5", "--format", "csv"),
    ("verify", "--n", "5"),
    # K0 and the levels do not depend on the sign convention; fit reads --s
    # only for the power profile (these exited 0 and echoed the flag)
    ("classify", "--n", "5", "--s", "7", "--sigma", "1"),
    ("pohozaev", "--n", "5", "--s", "7", "--sigma", "1"),
    ("fit", "--n", "5", "--profile", "aviles", "--s", "9"),
    ("fit", "--n", "6", "--profile", "bubble", "--s", "3/2"),
])
def test_flag_the_subcommand_does_not_read_is_usage_error(args, capsys):
    assert run_cli(capsys, *args).returncode == 2


# flags that only say where or how a result is written
_ROUTING = {"--out", "--format", "--gnuplot", "--energy-out", "--orbit-dir", "--samples-out"}
_INTEGRATE_SHORT = ("integrate", "--n", "5", "--s", "7", "--t-end", "0.05")
_INTEGRATE_P1 = _INTEGRATE_SHORT + ("--init", ",".join(_INIT_P1))
_FIT_POWER = ("fit", "--n", "5", "--profile", "power")
_FIT_AVILES = ("fit", "--n", "5", "--profile", "aviles")

# (subcommand, flag) -> (base command, two values that must give two
# results); a value that is a tuple is the flag's value and more arguments
_FLAG_MOVES = {
    ("coeffs", "--n"): (("coeffs", "--s", "7"), "5", "6"),
    ("coeffs", "--s"): (("coeffs", "--n", "5"), "7", "9"),
    ("coeffs", "--sigma"): (("coeffs", "--n", "5", "--s", "7"), "1", "-1"),
    ("signs", "--n"): (("signs", "--s-grid", "4"), "5", "6"),
    ("signs", "--s-grid"): (("signs", "--n", "5"), "4", "5"),
    ("signs", "--sigma"): (("signs", "--n", "5", "--s-grid", "4"), "1", "-1"),
    ("classify", "--n"): (("classify", "--s", "7"), "5", "6"),
    ("classify", "--s"): (("classify", "--n", "5"), "7", "9"),
    ("integrate", "--n"): (_INTEGRATE_P1, "5", "6"),
    ("integrate", "--s"): (_INTEGRATE_P1, "7", "9"),
    ("integrate", "--p"): (_INTEGRATE_SHORT, ("1", "--init", ",".join(_INIT_P1)),
                           ("2", "--init", ",".join(_INIT_P2))),
    ("integrate", "--rel-tol"): (_INTEGRATE_P1, "1e-10", "1e-6"),
    ("integrate", "--abs-tol"): (_INTEGRATE_P1, "1e-12", "1e-6"),
    ("integrate", "--sigma"): (_INTEGRATE_P1, "1", "-1"),
    ("integrate", "--init"): (_INTEGRATE_SHORT, ",".join(_INIT_P1), "0.3,0,0,0"),
    ("integrate", "--t-end"): (_INTEGRATE_P1, "0.05", "0.04"),
    ("pohozaev", "--n"): (("pohozaev", "--s", "7"), "5", "6"),
    ("pohozaev", "--s"): (("pohozaev", "--n", "5"), "7", "9"),
    ("shoot", "--n"): (("shoot", "--a-grid", "0.9"), "5", "6"),
    ("shoot", "--c-mode"): (("shoot", "--n", "6", "--a-grid", "0.9"), "measured", "unit"),
    ("shoot", "--a-grid"): (("shoot", "--n", "6"), "0.9", "0.6"),
    ("fit", "--n"): (_FIT_POWER, "5", "6"),
    ("fit", "--s"): (_FIT_POWER, "7", "9"),
    ("fit", "--profile"): (("fit", "--n", "5"), "power", "aviles"),
    ("fit", "--r-lo"): (_FIT_AVILES, "1e-3", "1e-4"),
    ("fit", "--r-hi"): (_FIT_AVILES, "1e-2", "5e-2"),
    ("fit", "--num"): (_FIT_AVILES, "40", "41"),
    ("verify", "--suite"): (("verify",), "coefficients", "asymptotics"),
}
# fit reads --s for the power profile only
_FLAG_REFUSED = (
    (_FIT_AVILES, "--s", "9"),
    (("fit", "--n", "6", "--profile", "bubble"), "--s", "3/2"),
)
_TIMING = re.compile(r" \[[0-9.]+s / budget [^]]*\]")


def _result(capsys, argv):
    """The exit code and what the command computed, without its header:
    the CSV rows, the JSON results, or verify's lines without timings."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    if argv[0] == "verify":
        return code, _TIMING.sub("", out).splitlines()
    if out.startswith("{"):
        return code, json.loads(out)["results"]
    return code, [l for l in out.splitlines() if not l.startswith("#")]


def test_every_flag_a_subcommand_reads_moves_its_result(capsys):
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    registered = {(name, flag) for name, parser in sub.choices.items()
                  for action in parser._actions for flag in action.option_strings
                  if flag.startswith("--") and flag not in _ROUTING | {"--help"}}
    bad = [f"{name} {flag}: not in the table" for name, flag in
           sorted(registered - set(_FLAG_MOVES))]
    for (name, flag), (base, a, b) in _FLAG_MOVES.items():
        runs = [_result(capsys, base + (flag,) + (v if isinstance(v, tuple) else (v,)))
                for v in (a, b)]
        if [code for code, _ in runs] != [0, 0] or runs[0][1] == runs[1][1]:
            bad.append(f"{name} {flag}: {a} and {b} give the same result, or fail")
    for base, flag, value in _FLAG_REFUSED:
        if _result(capsys, base + (flag, value))[0] != 2:
            bad.append(f"{' '.join(base)} {flag} {value}: not refused")
    assert bad == []


def test_classify_reports_regime_and_amplitude(capsys):
    out = run_cli(capsys, "classify", "--n", "5", "--s", "7", "--format", "json", check=True)
    doc = json.loads(out.stdout)
    rec = doc["results"][0]
    assert rec["regime"] == "GIDAS_SPRUCK"
    assert rec["K0"] == "112/81"
    assert set(doc) == {"config", "results", "ledger"}


def test_determinism_byte_identical():
    a = run_process("signs", "--n", "5:7", "--s-grid", "16", check=True).stdout
    b = run_process("signs", "--n", "5:7", "--s-grid", "16", check=True).stdout
    assert a == b


def test_headers_echo_config(capsys):
    out = run_cli(capsys, "coeffs", "--n", "6", "--s", "2", "--sigma", "-1", check=True).stdout
    assert "# sigma: -1" in out
    assert "# build: fowler4" in out


def test_integrate_writes_trajectory_and_energy(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    energy = tmp_path / "energy.csv"
    run_cli(capsys, "integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0",
            "--t-end", "2", "--out", str(traj), "--energy-out", str(energy),
            check=True)
    head = traj.read_text().splitlines()
    cols = [l for l in head if l.startswith("t,")][0]
    assert cols == "t,y0,y1,y2,y3,step"
    assert energy.exists()
    ecols = [l for l in energy.read_text().splitlines() if l.startswith("t,")][0]
    assert ecols == "t,H,dH_formula,dH_numeric"


def test_gnuplot_companion(tmp_path, capsys):
    target = tmp_path / "signs.csv"
    run_cli(capsys, "signs", "--n", "5", "--s-grid", "8", "--out", str(target),
            "--gnuplot", check=True)
    gp = (tmp_path / "signs.csv.gp").read_text()
    assert gp.startswith("#") and "plot" in gp


def test_fit_power_json(capsys):
    out = run_cli(capsys, "fit", "--n", "5", "--s", "7", "--profile", "power", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"]["exponent"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fit_echoes_the_default_s_as_a_given_one(tmp_path):
    # the header lists the s the power fit read, defaulted or not
    texts = []
    for argv in (("fit", "--n", "5"), ("fit", "--n", "5", "--s", "7", "--profile", "power")):
        target = tmp_path / "fit.json"
        assert cli.main([*argv, "--out", str(target)]) == 0
        texts.append(target.read_bytes())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["config"]["s"] == "7"


def test_fit_bubble_default_flags_recovers_far_field_exponent(capsys):
    out = run_cli(capsys, "fit", "--n", "6", "--profile", "bubble", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"]["exponent"] == pytest.approx(2.0, abs=1e-3)
    # the header echoes the radii actually sampled
    assert (doc["config"]["r_lo"], doc["config"]["r_hi"]) == (1e2, 1e4)


def test_fit_aviles_header_echoes_clamped_radius(capsys):
    out = run_cli(capsys, "fit", "--n", "5", "--profile", "aviles", check=True)
    assert json.loads(out.stdout)["config"]["r_hi"] == 0.1


def test_pohozaev_levels_json(capsys):
    out = run_cli(capsys, "pohozaev", "--n", "5", "--s", "7", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"][0]["verdict"] == "MISMATCH"


def test_verify_subset_suite_exits_zero(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.json"
    out = run_cli(capsys, "verify", "--suite", "asymptotics", "--format", "json",
                  "--out", str(ledger_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "C09 PASS" in out.stdout
    assert "verify: OK" in out.stdout
    doc = json.loads(ledger_path.read_text())
    assert any(e["symbol"] == "J40(n,s) appendix formula" for e in doc)


def test_verify_ledger_csv_has_its_pinned_digest(tmp_path, capsys):
    # the ledger's entries and verdicts, byte for byte
    target = tmp_path / "ledger.csv"
    run_cli(capsys, "verify", "--suite", "ledger", "--out", str(target), check=True)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == \
        "4d489e697ca1859d9da24f8bcf65ab200291bc5197618c9b38845c8ade199d88"


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run_cli(capsys, "verify", "--suite", "nope").returncode == 2


def test_shoot_table_columns_and_determinism(capsys):
    a = run_cli(capsys, "shoot", "--n", "6", "--a-grid", "0.6,0.9")
    assert a.returncode == 0, a.stderr
    cols = [l for l in a.stdout.splitlines() if l.startswith("n,")][0]
    assert cols == ("n,a,b,T,energy,residual,period_defect,energy_drift,min_v,"
                    "converged,precision")
    rows = [l for l in a.stdout.splitlines() if l.startswith("6,")]
    assert len(rows) == 2 and all(r.endswith(",1,float64") for r in rows)
    assert "# c_mode: measured" in a.stdout and "# rel_tol:" not in a.stdout
    again = run_cli(capsys, "shoot", "--n", "6", "--a-grid", "0.6,0.9", check=True)
    assert again.stdout == a.stdout


@pytest.mark.parametrize("grid, code", [("0.02", 1), ("0.6,1", 0)])
def test_shoot_exits_1_where_a_row_misses_a_c07_threshold(capsys, grid, code):
    # at 0.02 a0 the longdouble root converges but misses the closure target;
    # at a0 the constant orbit's message is no miss
    out = run_cli(capsys, "shoot", "--n", "6", "--a-grid", grid)
    assert out.returncode == code, out.stderr
    rows = [l for l in out.stdout.splitlines() if l.startswith("6,")]
    assert len(rows) == len(grid.split(",")) and all(r.split(",")[-2] == "1" for r in rows)
    if code:
        assert "closure defect 4.645e-06 above target 1.0e-06" in out.stderr
    else:
        assert out.stderr == ""


# a = a0 is the constant orbit: no orbit file
_ORBIT_DIR_ARGS = ("shoot", "--n", "6", "--a-grid", "3/5,1", "--orbit-dir")
# sha256 prefix of its orbit_00.csv, re-recorded when taylor.flow's h^m left
# numpy's power loop for the C library's pow: 4b7a8664e5ac19c2 before, which
# only numpy's AVX-512 loop computed; every other CPU computed this one
_ORBIT_DIR_DIGEST = "43de2b93affc497a"


def test_shoot_orbit_dir_writes_one_orbit_per_point_with_an_orbit(tmp_path, capsys):
    orbits = tmp_path / "orbits"
    out = run_cli(capsys, *_ORBIT_DIR_ARGS, str(orbits), check=True)
    assert sorted(p.name for p in orbits.iterdir()) == ["orbit_00.csv"]
    text = (orbits / "orbit_00.csv").read_text()
    header = dict(l[2:].split(": ", 1) for l in text.splitlines() if l.startswith("# "))
    table = dict(l[2:].split(": ", 1) for l in out.stdout.splitlines() if l.startswith("# "))
    row = [l for l in out.stdout.splitlines() if l.startswith("6,")][0].split(",")
    assert header == {**table, "a": row[1], "b": row[2], "T": row[3]}
    assert {"n", "c_mode", "a0", "c", "a_grid"} <= set(table)
    lines = text.splitlines()
    assert lines[len(header)] == "t,v,v1,v2,v3"
    rows = [[float(x) for x in l.split(",")] for l in lines[len(header) + 1:]]
    assert len(rows) == 801
    assert rows[0] == [0.0, float(row[1]), 0.0, float(row[2]), 0.0]
    assert rows[-1][0] == float(row[3])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _ORBIT_DIR_DIGEST


def _artifact_digests(tmp_path, args, side_flag=None):
    """Run one subcommand in-process with --out (and a side file); return
    the sha256 prefix of each file it wrote."""
    main, side = tmp_path / "main", tmp_path / "side"
    argv = list(args) + ["--out", str(main)]
    if side_flag:
        argv += [side_flag, str(side)]
    assert cli.main(argv) == 0
    paths = [main, side] if side_flag else [main]
    return [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths]


_INTEGRATE = ("integrate", "--n", "5", "--s", "7", "--init", "0.3,-0.2,0.1,0.25",
              "--t-end", "2")

# (args, side-file flag, digests of the main and side artifacts), recorded
# before the numerical keyword parameters became module constants; the
# build id is part of every artifact, so a version bump changes them all
_PINNED_ARTIFACTS = {
    # re-recorded when the chain-rule route began to replay the powers of r
    # at r = 0.3: only its float `chain_rule` column moved, by rounding
    "coeffs-csv": (("coeffs", "--n", "5:7", "--s", "7/3"), None,
                   ["9b37c336649c0df2"]),
    "coeffs-json": (("coeffs", "--n", "5:7", "--s", "7/3", "--format", "json"), None,
                    ["f68c635f9d2e7bbd"]),
    "signs": (("signs", "--n", "5:6", "--s-grid", "8"), None,
              ["94e62e965e92c7d3"]),
    # re-recorded when classify and pohozaev stopped taking --sigma: each
    # equals the earlier artifact (f580b574a1bf7f3b, 037c1274c706bdcb)
    # without its sigma key
    "classify": (("classify", "--n", "5:9", "--s", "7"), None,
                 ["8a52014bc2029cd1"]),
    "pohozaev": (("pohozaev", "--n", "5:7", "--s", "7"), None,
                 ["bc4250ee65b4438a"]),
    # re-recorded when the fits left LAPACK's lstsq for the fsum-based
    # closed form and the sample grid left np.geomspace: the grid radii and
    # every fitted float moved in the last bits
    "fit-power": (("fit", "--n", "5", "--s", "7", "--profile", "power"), "--samples-out",
                  ["fd2b88c18acd7f91", "b82f6bb83582c4e6"]),
    "fit-aviles": (("fit", "--n", "5", "--profile", "aviles"), "--samples-out",
                   ["76380a0dae066a62", "34ddf88860d3c0dd"]),
    "fit-bubble": (("fit", "--n", "6", "--profile", "bubble"), "--samples-out",
                   ["1faf8a311c47ecf7", "2369b91a4fb24e94"]),
    # re-recorded when the integrator, the RHS and the row energies left
    # BLAS for one left-to-right arithmetic: both files moved in the last bits
    "integrate": (_INTEGRATE, "--energy-out",
                  ["26906b9b30bf02eb", "8a752c106046c90f"]),
    # p = 3: the energy's dot products sum three terms, so a reordered sum
    # shows here where the p = 1 pin's single products cannot
    "integrate-p3": (("integrate", "--n", "5", "--s", "7", "--p", "3", "--init",
                      "0.3,-0.2,0.1,0.25,-0.15,0.05,0.2,-0.1,0.1,0.3,-0.25,0.05",
                      "--t-end", "2"), "--energy-out",
                     ["f3506d567fddcf1e", "3ebac64a0aa31996"]),
    # recorded while Dormand-Prince still ran the crash/escape bracket; the
    # CSV's 17 significant digits pin the float64 roots bit for bit
    "shoot": (("shoot", "--n", "6", "--a-grid", "3/5,9/10"), None,
              ["4639b5af77fec9b4"]),
}


@pytest.mark.parametrize("name", list(_PINNED_ARTIFACTS))
def test_artifacts_are_pinned_across_commits(tmp_path, name):
    args, side_flag, want = _PINNED_ARTIFACTS[name]
    assert _artifact_digests(tmp_path, args, side_flag) == want


def test_integrate_energy_series_uses_the_integrated_sigma(tmp_path):
    # the energy formula must use the coefficients the run integrated with:
    # dH_numeric (a stencil on H) then agrees with the dH_formula column
    energy = tmp_path / "energy.csv"
    assert cli.main(list(_INTEGRATE) + ["--sigma", "1", "--out", str(tmp_path / "t.csv"),
                                        "--energy-out", str(energy)]) == 0
    rows = [l.split(",") for l in energy.read_text().splitlines()
            if l[:1].isdigit() or l[:1] == "-"]
    gaps = [abs(float(r[2]) - float(r[3])) for r in rows if r[3] != "nan"]
    assert len(gaps) > 100 and max(gaps) < 1e-3
