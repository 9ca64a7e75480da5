"""Command-line contract: exact output, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from fowler4 import cli

CMD = [sys.executable, "-m", "fowler4"]


def run_cli(*args, check=False):
    out = subprocess.run(CMD + list(args), capture_output=True, text=True)
    if check and out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr}")
    return out


def test_coeffs_exact_rational_output():
    out = run_cli("coeffs", "--n", "5", "--s", "9/1", check=True)
    assert "5,9,K0,25/16,25/16," in out.stdout
    assert "MATCH" in out.stdout


def test_coeffs_zero_row_at_lower_exponent():
    out = run_cli("coeffs", "--n", "5", "--s", "5", check=True)
    row = [l for l in out.stdout.splitlines() if l.startswith("5,5,K0")][0]
    assert row.split(",")[3] == "0"


def test_malformed_s_exits_2_without_output(tmp_path):
    target = tmp_path / "out.csv"
    out = run_cli("coeffs", "--n", "5", "--s", "junk", "--out", str(target))
    assert out.returncode == 2
    assert not target.exists()


@pytest.mark.parametrize("grid", ["1", "0", "-3", "junk"])
def test_signs_short_or_malformed_grid_exits_2_without_output(tmp_path, grid):
    target = tmp_path / "out.csv"
    assert cli.main(["signs", "--n", "5", "--s-grid", grid, "--out", str(target)]) == 2
    assert not target.exists()


def test_integrate_energy_failure_exits_2_without_output(tmp_path):
    # too short a run for the energy series' stencil: DomainError
    out, energy = tmp_path / "tr.csv", tmp_path / "energy.csv"
    argv = ["integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0", "--t-end", "0.001",
            "--out", str(out), "--energy-out", str(energy)]
    assert cli.main(argv) == 2
    assert not out.exists() and not energy.exists()


def test_missing_subcommand_is_usage_error():
    out = run_cli()
    assert out.returncode == 2


@pytest.mark.parametrize("args", [
    ("signs", "--n", "5", "--seed", "1"),
    ("signs", "--n", "5", "--s", "7"),     # not taken as an abbreviation of --s-grid
    ("shoot", "--n", "6", "--rel-tol", "1e-3"),
    ("fit", "--n", "5", "--format", "csv"),
    ("verify", "--n", "5"),
])
def test_flag_the_subcommand_does_not_read_is_usage_error(args):
    assert run_cli(*args).returncode == 2


def test_classify_reports_regime_and_amplitude():
    out = run_cli("classify", "--n", "5", "--s", "7", "--format", "json", check=True)
    doc = json.loads(out.stdout)
    rec = doc["results"][0]
    assert rec["regime"] == "GIDAS_SPRUCK"
    assert rec["K0"] == "112/81"
    assert set(doc) == {"config", "results", "ledger"}


def test_determinism_byte_identical():
    a = run_cli("signs", "--n", "5:7", "--s-grid", "16", check=True).stdout
    b = run_cli("signs", "--n", "5:7", "--s-grid", "16", check=True).stdout
    assert a == b


def test_headers_echo_config():
    out = run_cli("coeffs", "--n", "6", "--s", "2", "--sigma", "-1", check=True).stdout
    assert "# sigma: -1" in out
    assert "# build: fowler4" in out


def test_integrate_writes_trajectory_and_energy(tmp_path):
    traj = tmp_path / "traj.csv"
    energy = tmp_path / "energy.csv"
    run_cli("integrate", "--n", "5", "--s", "7", "--init", "1,0,0,0",
            "--t-end", "2", "--out", str(traj), "--energy-out", str(energy),
            check=True)
    head = traj.read_text().splitlines()
    cols = [l for l in head if l.startswith("t,")][0]
    assert cols == "t,y0,y1,y2,y3,step"
    assert energy.exists()
    ecols = [l for l in energy.read_text().splitlines() if l.startswith("t,")][0]
    assert ecols == "t,H,dH_formula,dH_numeric"


def test_gnuplot_companion(tmp_path):
    target = tmp_path / "signs.csv"
    run_cli("signs", "--n", "5", "--s-grid", "8", "--out", str(target),
            "--gnuplot", check=True)
    gp = (tmp_path / "signs.csv.gp").read_text()
    assert gp.startswith("#") and "plot" in gp


def test_fit_power_json():
    out = run_cli("fit", "--n", "5", "--s", "7", "--profile", "power", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"]["exponent"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fit_bubble_default_flags_recovers_far_field_exponent():
    out = run_cli("fit", "--n", "6", "--profile", "bubble", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"]["exponent"] == pytest.approx(2.0, abs=1e-3)
    # the header echoes the radii actually sampled
    assert (doc["config"]["r_lo"], doc["config"]["r_hi"]) == (1e2, 1e4)


def test_fit_aviles_header_echoes_clamped_radius():
    out = run_cli("fit", "--n", "5", "--profile", "aviles", check=True)
    assert json.loads(out.stdout)["config"]["r_hi"] == 0.1


def test_pohozaev_levels_json():
    out = run_cli("pohozaev", "--n", "5", "--s", "7", check=True)
    doc = json.loads(out.stdout)
    assert doc["results"][0]["verdict"] == "MISMATCH"


def test_verify_subset_suite_exits_zero(tmp_path):
    ledger_path = tmp_path / "ledger.json"
    out = run_cli("verify", "--suite", "asymptotics", "--format", "json",
                  "--out", str(ledger_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "C09 PASS" in out.stdout
    assert "verify: OK" in out.stdout
    doc = json.loads(ledger_path.read_text())
    assert any(e["symbol"] == "J40(n,s) appendix formula" for e in doc)


def test_verify_unknown_suite_is_usage_error():
    assert run_cli("verify", "--suite", "nope").returncode == 2


def test_shoot_table_columns_and_determinism():
    a = run_cli("shoot", "--n", "6", "--a-grid", "0.6,0.9")
    assert a.returncode == 0, a.stderr
    cols = [l for l in a.stdout.splitlines() if l.startswith("n,")][0]
    assert cols == ("n,a,b,T,energy,residual,period_defect,energy_drift,min_v,"
                    "converged,precision")
    rows = [l for l in a.stdout.splitlines() if l.startswith("6,")]
    assert len(rows) == 2 and all(r.endswith(",1,float64") for r in rows)
    assert "# c_mode: measured" in a.stdout and "# rel_tol:" not in a.stdout
    assert run_cli("shoot", "--n", "6", "--a-grid", "0.6,0.9", check=True).stdout == a.stdout


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
    "coeffs-csv": (("coeffs", "--n", "5:7", "--s", "7/3"), None,
                   ["6516150182e5f433"]),
    "coeffs-json": (("coeffs", "--n", "5:7", "--s", "7/3", "--format", "json"), None,
                    ["a2860a063f7e1806"]),
    "signs": (("signs", "--n", "5:6", "--s-grid", "8"), None,
              ["94e62e965e92c7d3"]),
    "classify": (("classify", "--n", "5:9", "--s", "7"), None,
                 ["f580b574a1bf7f3b"]),
    "pohozaev": (("pohozaev", "--n", "5:7", "--s", "7"), None,
                 ["037c1274c706bdcb"]),
    "fit-power": (("fit", "--n", "5", "--s", "7", "--profile", "power"), "--samples-out",
                  ["8b81bf81e9835b71", "a5d8c0bc4daafe99"]),
    "fit-aviles": (("fit", "--n", "5", "--profile", "aviles"), "--samples-out",
                   ["fa642fbabce1a9a0", "e42458fde3110302"]),
    "fit-bubble": (("fit", "--n", "6", "--profile", "bubble"), "--samples-out",
                   ["02d8597cf6708b90", "cae886ca8b838035"]),
    "integrate": (_INTEGRATE, "--energy-out",
                  ["cd8c3f75d736cade", "553e6b9ac35528b9"]),
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
