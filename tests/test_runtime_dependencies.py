"""The package runs on the standard library alone, as pyproject.toml declares."""

import csv
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every qgrpsim module, runs one tiny scenario with its log and verifies
# that log, with the test-only packages made unimportable: `import numpy` raises
# ImportError in the child.
CHILD = """
import importlib, pkgutil, sys
for name in ("numpy", "hypothesis", "pytest"):
    sys.modules[name] = None
import qgrpsim
for module in pkgutil.iter_modules(qgrpsim.__path__):
    importlib.import_module("qgrpsim." + module.name)
from qgrpsim import cli
status = cli.main(["run", "-c", sys.argv[1], "-o", sys.argv[2], "--logs"])
sys.exit(status or cli.main(["verify", sys.argv[2]]))
"""

# A 300 x 300 m field keeps the 12 nodes connected, so the run carries data.
TINY = (
    "[topology]\nn = 12\nfield_width = 300.0\nfield_height = 300.0\n"
    "[sim]\nduration_s = 3.0\nwarm_up_s = 0.5\nrepetitions = 1\n"
    "[flow:1]\nrate_bps = 100000.0\nstart_s = 0.5\n"
)


def test_package_imports_and_runs_without_test_dependencies(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cfg_path), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["seed"] for row in rows] == ["1", "avg"]  # one run, then its average
    assert float(rows[0]["pdr"]) > 0.0
    assert os.listdir(out / "logs") == ["qgrp_12_1.log"]
