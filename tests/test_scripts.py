"""The example scripts run to completion, each in a fresh interpreter as a user runs it."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_polarization_oscillator_follows_the_analytic_orbit():
    out = run_script("polarization_oscillator.py", "--steps", "50", "--report-every", "25")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.025", "0.050"]
    assert max(float(row[2]) for row in rows) < 1e-10  # the orbit error column


def test_vdw_spinodal_reports_the_spinodal():
    found = re.findall(r"^spinodal at V = (\S+) \(S = 0\.0\)$", run_script("vdw_spinodal.py"), re.M)
    assert [float(v) for v in found] == [pytest.approx(0.2215, abs=1e-4)]
