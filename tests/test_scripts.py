"""The census script reports malformed input on stderr and exits 2, as the
CLI does; exit 1 is left to a mathematical check that ran and failed.  The
benchmark's tracer still finds every library function it wraps."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_census_script_exits_2_on_bad_input():
    proc = run_python(str(ROOT / "scripts" / "operator_census.py"), "--max-order", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "input error: corpus max_size must be >= 1\n")


def test_benchmark_tracer_installs():
    # install() raises if a traced name is gone from congform
    proc = run_python("-c", "from tracer import Tracer; print(Tracer('t').install())",
                      path=[ROOT / "src", ROOT / "perfbench"])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def run_python(*args, path=(ROOT / "src",)):
    """Run the interpreter with ``path`` ahead of any inherited PYTHONPATH."""
    env_path = os.pathsep.join(filter(None, [*map(str, path), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": env_path})
