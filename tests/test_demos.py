"""The demo scripts run to completion against the in-tree package."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_coefficient_oracles.py",
                                  "02_closed_form_solutions.py",
                                  "03_delaunay_orbits.py",
                                  "04_energy_monotonicity.py",
                                  "05_regimes_and_fits.py"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
