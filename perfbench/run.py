#!/usr/bin/env python3
"""congform benchmark: cold-process samples of one workload, gated on exact outputs.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload verify-quandles5 --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Load model: a closed loop with one client.  Samples run one after
another, each in a fresh interpreter (``sample.py``), so every
``lru_cache`` in congform starts cold, as in one ``congform verify-all``
invocation.  Samples start until ``--seconds`` have passed (at least
one), then set-up-only processes run until ``MIN_SETUPS`` set-ups have
been timed.  A sample whose outcome differs from ``expected.json``, that
raises or that exits non-zero counts as failed and gives no timing.
``attempted`` counts every child process, set-up-only ones included.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (median timed phase), ``setup_s`` (median set-up) and
``peak_rss_mb`` (median peak RSS of a sample process).
``--trace 1`` runs pairs of one untraced and one traced sample,
alternating which runs first, and reports the per-layer metrics of
``tracer.PER_LAYER`` (medians over the traced samples) plus
``trace.overhead``, the traced over the untraced median wall, minus
one.  Spans go to ``perfbench/out/``.

Human-readable lines come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every sample passed its gate, 1 when one failed, 2 when the
program to measure is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from sample import WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

MIN_SETUPS = 3
# No sample or pair starts when the last one would then end after this
# many seconds of the run; a child still running at CHILD_LIMIT_S is
# killed and counts as failed.
START_LIMIT_S = 150.0
CHILD_LIMIT_S = 175.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def gate(kind: str, outcome: dict, expected: dict) -> str | None:
    """Why ``outcome`` fails the workload's correctness check, or None."""
    if kind == "verify":
        if not outcome["pass"]:
            return "verify-all report does not pass"
        if outcome["sha256"] != expected["sha256"]:
            return f"verify-all report digest {outcome['sha256']} differs from the recorded one"
    elif kind == "census":
        if not outcome["agree"]:
            return "minimality and pushout preservation disagree on some generator"
        if outcome["rows"] != expected["rows"]:
            return f"census rows {outcome['rows']} differ from the recorded table"
    else:
        if outcome["members"] != expected["members"]:
            return f"corpus has {outcome['members']} members, expected {expected['members']}"
        if outcome["sha256"] != expected["sha256"]:
            return f"corpus manifest digest {outcome['sha256']} differs from the recorded one"
    return None


class Run:
    """Samples of one workload in one run, with their failures."""

    def __init__(self, name: str, seed: int, expected: dict):
        self.name = name
        self.kind = WORKLOADS[name][0]
        self.seed = seed
        self.expected = expected
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def sample(self, index: int, *, setup_only: bool = False,
               trace: bool = False) -> dict | None:
        """Run sample ``index`` in a child process; None if it failed (the reason is recorded)."""
        self.attempted += 1
        tail = ["--setup-only"] if setup_only else []
        if trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tail += ["--trace", str(out_dir / f"{self.name}-seed{self.seed}-{index}.json")]
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = max(1.0, CHILD_LIMIT_S - self.elapsed())
        spawned = time.perf_counter()
        cmd = [sys.executable, str(HERE / "sample.py"), self.name, str(self.seed), str(index),
               repr(spawned), *tail]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(f"sample killed after {timeout:.0f} s")
        if proc.returncode != 0:
            return self._fail(f"sample exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return self._fail("sample printed no result")
        if not setup_only:
            reason = gate(self.kind, result["outcome"], self.expected)
            if reason is not None:
                return self._fail(reason)
        return result

    def _fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"  FAILED sample: {reason}", file=sys.stderr)
        return None

    def may_start(self, last_s: float) -> bool:
        return self.elapsed() + last_s <= START_LIMIT_S


def tail_note(values: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"{n} samples; no percentile has 10 samples beyond it"
    k = n - 10
    return (f"{n} samples; p{100 * k // n} = {sorted(values)[k - 1]:.4f} s "
            f"(10 samples beyond it)")


def measure(run: Run, seconds: float) -> dict:
    """Untraced samples for ``seconds``, then set-up probes; end-to-end metrics."""
    walls, setups, rss = [], [], []
    while True:
        t0 = run.elapsed()
        result = run.sample(len(walls) + len(run.failures))
        if result is not None:
            walls.append(result["wall_s"])
            setups.append(result["setup_s"])
            rss.append(result["peak_rss_mb"])
        if run.elapsed() >= seconds or not run.may_start(run.elapsed() - t0):
            break
    if not walls:
        return {}
    while len(setups) < MIN_SETUPS and run.attempted < 4 * MIN_SETUPS:
        result = run.sample(run.attempted, setup_only=True)
        if result is not None:
            setups.append(result["setup_s"])
    print(f"  wall_s       {statistics.median(walls):10.4f} s      median; {tail_note(walls)}; "
          f"range {min(walls):.4f}-{max(walls):.4f} s")
    print(f"  setup_s      {statistics.median(setups):10.4f} s      median of {len(setups)} set-ups")
    print(f"  peak_rss_mb  {statistics.median(rss):10.2f} MB     median over samples")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(run: Run, seconds: float) -> dict:
    """Pairs of untraced and traced samples for ``seconds``; per-layer metrics."""
    plain, traced, counters = [], [], []
    while True:
        t0 = run.elapsed()
        # Both halves of a pair measure the same input; which half runs
        # first alternates, so an order effect does not bias the overhead.
        index = len(traced) + len(run.failures)
        if index % 2:
            b = run.sample(index, trace=True)
            a = run.sample(index)
        else:
            a = run.sample(index)
            b = run.sample(index, trace=True)
        if a is not None and b is not None:
            plain.append(a["wall_s"])
            traced.append(b["wall_s"])
            counters.append(b["counters"])
        if run.elapsed() >= seconds or not run.may_start(run.elapsed() - t0):
            break
    if not traced:
        return {}
    wall = statistics.median(traced)
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.wall_s":
            metrics[name] = wall
        elif name == "trace.overhead":
            metrics[name] = wall / statistics.median(plain) - 1
        else:
            metrics[name] = statistics.median(c.get(name, 0) for c in counters)
    width = max(len(name) for name, _, _ in PER_LAYER)
    for name, unit, _ in PER_LAYER:
        value = f"{metrics[name]:14.0f}" if unit == "count" else f"{metrics[name]:14.4f}"
        share = f"  {100 * metrics[name] / wall:5.1f}% of traced wall" if unit == "s" else ""
        print(f"  {name:<{width}}  {value} {unit:<5}{share}")
    print(f"  ({len(traced)} traced samples; spans in {(HERE / 'out').relative_to(ROOT)}/)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> tuple[dict, Run]:
    run = Run(name, seed, expected)
    print(f"workload {name}  seed {seed}  trace {'on' if trace else 'off'}  "
          f"(samples run serially, one fresh interpreter each)")
    metrics = (measure_traced if trace else measure)(run, seconds)
    failed = len(run.failures)
    print(f"  fail_frac    {failed / run.attempted:10.4f} ratio  "
          f"{failed} of {run.attempted} samples failed")
    return metrics, run


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def benchmark_workloads() -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "congform" / "__init__.py").is_file():
        print(f"no congform sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    expected = load_expected()
    names = benchmark_workloads() if args.workload == "all" else [args.workload]
    units = {n: u for n, u, _ in PER_LAYER} if args.trace else dict(END_TO_END)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, run = run_workload(name, args.seed, args.seconds, bool(args.trace), expected[name])
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in got.items()})
        attempted += run.attempted
        failed += len(run.failures)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
