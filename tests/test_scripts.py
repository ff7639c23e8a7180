"""The scripts under scripts/ run end to end against the checked-out src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # put this checkout's src/ first by its absolute path, as
    # test_cli.test_module_entry_point does, so the child imports this tree
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_density_survey_squares_are_gf2_grids():
    out = run_script("density_survey.py", "--line-n", "3", "--eq")
    rows = {}
    for line in out.splitlines()[2:]:
        family, params, value, witness, universe, _ = re.split(r"\s{2,}", line.strip())
        rows[family, params] = (value, witness, universe)
    for n in (1, 2):
        assert rows["square", f"n={n}"] == rows["grid", f"k=2, n={n}, p=2, r=1"]
