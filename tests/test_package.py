"""The package's public names, resolved on first use, and its numpy-free path."""

import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fowler4

# every name the package exports, by the submodule that defines it
_EXPORTS = {
    "params": ["DomainError", "Params", "SpecialExponents", "gamma_exponent",
               "special_exponents"],
    "coefficients": ["BUILD_SIGMA", "CharSymbol", "char_symbol", "chain_rule_matrix",
                     "derive_cyl_coeffs_numeric", "hat_constant", "oracle_autonomous",
                     "printed_autonomous", "sign_report"],
    "integrate": ["Event", "StepUnderflowError", "Trajectory", "integrate"],
    "odes": ["equilibrium_state", "linearized_spectrum", "make_autonomous_rhs",
             "make_nonautonomous_rhs"],
    "profiles": ["AvilesProfile", "Bubble", "EmdenFowlerProfile", "RadialProfile",
                 "SingularPower", "green_ball", "inversion_map", "kelvin_transform"],
    "bubble": ["bubble_constant"],
    "levels": ["PohozaevLevels", "aviles_p_coeffs", "constant_level", "limiting_levels"],
    "pohozaev": ["aviles_hamiltonian", "hamiltonian_radial", "monotonicity_check_aviles",
                 "pohozaev_series"],
    "shooting": ["CriticalConstants", "ShootingResult", "critical_constants", "find_b",
                 "orbit_table"],
    "asymptotics": ["FitReport", "Regime", "RegimeReport", "classify_regime",
                    "fit_log_corrected", "fit_power_law", "residual_decay_check"],
    "ledger": ["DOCUMENTED_MISMATCHES", "LedgerEntry", "build_ledger", "check_ledger"],
}

# resolve every name through the package first, then load every defining
# module (which binds fowler4.integrate, the module, on the package) and
# compare both before and after
_CHECK = """
import importlib, json, sys
{first}
import fowler4
exports = json.loads(sys.argv[1])
got = {{name: getattr(fowler4, name) for names in exports.values() for name in names}}
bad = []
for mod, names in exports.items():
    home = importlib.import_module("fowler4." + mod)
    for name in names:
        if got[name] is not getattr(home, name) or getattr(fowler4, name) is not got[name]:
            bad.append(name)
from fowler4 import find_b, integrate
if integrate is not sys.modules["fowler4.integrate"].integrate:
    bad.append("from fowler4 import integrate")
print(json.dumps(bad))
"""


def run_fresh(code, *args):
    """Run Python code in a fresh interpreter that imports this fowler4."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fowler4.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)


@pytest.mark.parametrize("first", ["import fowler4", "import fowler4.integrate",
                                   "from fowler4 import find_b"])
def test_public_names_are_the_defining_modules_objects(first):
    out = run_fresh(_CHECK.format(first=first), json.dumps(_EXPORTS))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


def test_import_loads_no_submodule():
    out = run_fresh("import sys, fowler4\n"
                    "print(sorted(m for m in sys.modules if m.startswith(('fowler4', 'numpy'))))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["['fowler4']"]


def test_every_export_is_listed():
    names = {name for names in _EXPORTS.values() for name in names}
    assert set(fowler4.__all__) == names
    assert names <= set(dir(fowler4))
    with pytest.raises(AttributeError):
        fowler4.no_such_name


def test_every_exported_function_and_class_is_defined_in_its_home():
    # a name re-exported from a second module would be listed under a home
    # that does not define it
    for home, names in fowler4._EXPORTS.items():
        for name in names:
            value = getattr(fowler4, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == "fowler4." + home, name


@pytest.mark.parametrize("suite", ["coefficients", "ledger", "profiles", "asymptotics"])
def test_exact_suites_verify_without_numpy(tmp_path, suite):
    ledger = tmp_path / "ledger.csv"
    out = run_fresh("import sys\n"
                    "from fowler4 import cli\n"
                    "code = cli.main(['verify', '--suite', sys.argv[1], '--out', sys.argv[2]])\n"
                    "print(code, 'numpy' in sys.modules)", suite, str(ledger))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
    assert hashlib.sha256(ledger.read_bytes()).hexdigest() == \
        "4d489e697ca1859d9da24f8bcf65ab200291bc5197618c9b38845c8ade199d88"



@pytest.mark.parametrize("profile", ["power", "aviles", "bubble"])
def test_fit_runs_without_numpy_and_writes_the_in_process_bytes(tmp_path, profile):
    from fowler4 import cli

    def argv(d):
        d.mkdir()
        return ["fit", "--n", "5", "--profile", profile, "--out", str(d / "fit.json"),
                "--samples-out", str(d / "samples.csv")]

    fresh, here = tmp_path / "fresh", tmp_path / "here"
    out = run_fresh("import json, sys\n"
                    "from fowler4 import cli\n"
                    "code = cli.main(json.loads(sys.argv[1]))\n"
                    "print(code, 'numpy' in sys.modules)", json.dumps(argv(fresh)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
    assert cli.main(argv(here)) == 0
    for name in ("fit.json", "samples.csv"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes()
