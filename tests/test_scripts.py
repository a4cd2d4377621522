"""The scripts report malformed input on stderr and exit 2, as the CLI does;
exit 1 is left to a mathematical check that ran and failed."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,message", [
    ("run_verification.py", ["--corpus", "quandles", "--max-size", "9"],
     "corpus kind 'quandles' supports max_size <= 6"),
    ("operator_census.py", ["--max-order", "0"], "corpus max_size must be >= 1"),
])
def test_scripts_exit_2_on_bad_input(script, args, message):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"input error: {message}\n")
