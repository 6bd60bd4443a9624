"""Smoke tests for the plotting-data scripts under scripts/: each runs in its
own interpreter on small arguments and writes a non-empty CSV."""

import os
import subprocess
import sys

import pytest

from conftest import cli_env

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("script,args,outputs", [
    ("convergence_cdf.py", ["--seeds", "2", "--budget", "3"], ["out.csv"]),
    ("secrecy_gap.py", ["--grid-points", "2", "--resolution", "4"], ["out.csv"]),
    ("tradeoff_frontier.py", ["--magnitudes", "0.2", "--grid-points", "2",
                              "--samples", "4"], ["out.csv"]),
    ("field_dynamics.py", [], ["mfg_field.csv", "lohe_sync.csv"]),
])
def test_script_writes_csv(tmp_path, script, args, outputs):
    dest = ["--outdir", str(tmp_path)] if script == "field_dynamics.py" \
        else ["--out", str(tmp_path / "out.csv")]
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args, *dest],
                         env=cli_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2 and lines[0].startswith("rep,")
