#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (a few seconds).

  python3 perfbench/selftest.py

Runs the harness on verify-quandles3, census-4 and corpus-quandles3 and
checks that:
  * BENCHMARK.json names valid metrics and lists exactly what the
    harness reports (16 end-to-end and 128 per-layer names at most);
  * every tiny workload passes its gate untraced and traced, and a
    corrupted expected digest or table fails every sample (fail_frac 1);
  * the tracer patches every binding of the traced functions, and
    reaches the re-imported ones: ``forms.lifts`` is counted under
    ``make_operator``, and neither runs on the corpus workload;
  * the benchmark exits non-zero, printing no result, when the congform
    sources are absent.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import run
from tracer import PER_LAYER, TRACED, Tracer, congform_modules

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    e2e = [m["name"] for m in doc["end_to_end"]]
    layer = [m["name"] for m in doc["per_layer"]]
    names = e2e + layer + [w["name"] for w in doc["workloads"]]
    check(all(NAME.match(n) for n in names), "every metric and workload name is valid")
    check(len(set(names)) == len(names), "no name is used twice")
    check(1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128, "metric counts within limits")
    check(e2e == [n for n, _ in run.END_TO_END], "end_to_end lists the harness's metrics")
    check(doc["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
          "per_layer lists tracer.PER_LAYER")
    check("setup_s" in e2e and all(m["bound"] <= 0.25 for m in doc["end_to_end"]),
          "setup_s is end-to-end and every bound is at most 0.25")


def check_tracer_bindings() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    tracer = Tracer("selftest")
    patched = tracer.install()
    originals = {id(fn) for fn in tracer.originals.values()}
    left = [f"{mod.__name__}.{attr}" for mod in congform_modules()
            for attr, obj in vars(mod).items() if id(obj) in originals]
    check(set(tracer.originals) == TRACED and not left,
          f"tracer patched all {patched} bindings of {len(TRACED)} functions")


def tiny(name: str, *, trace: bool = False, expected: dict | None = None):
    expected = run.load_expected()[name] if expected is None else expected
    return run.run_workload(name, 1, 0.2, trace, expected)


def check_workloads() -> None:
    for name in ("verify-quandles3", "census-4", "corpus-quandles3"):
        metrics, r = tiny(name)
        check(not r.failures and set(metrics) == {n for n, _ in run.END_TO_END}
              and all(v > 0 for v in metrics.values()),
              f"{name}: gate passes and every end-to-end metric is reported, non-zero")
        layers, r = tiny(name, trace=True)
        check(not r.failures and set(layers) == {n for n, _, _ in PER_LAYER},
              f"{name}: traced samples pass the same gate and report every per-layer metric")
        if name == "census-4":
            check(layers["forms.lifts.calls"] > 0 and layers["operators.make_operator.calls"] > 0,
                  "census-4: forms.lifts is counted under make_operator")
        if name == "corpus-quandles3":
            check(layers["operators.make_operator.calls"] == 0
                  and layers["forms.lifts.calls"] == 0,
                  "corpus-quandles3: make_operator and lifts do not run")

        bad = copy.deepcopy(run.load_expected()[name])
        if "sha256" in bad:
            bad["sha256"] = "0" * 64
        else:
            bad["rows"][-1][-1] += 1
        _, r = tiny(name, expected=bad)
        check(r.attempted > 0 and len(r.failures) == r.attempted,
              f"{name}: a corrupted expectation fails every sample (fail_frac 1)")


def check_bare_directory() -> None:
    bare = run.HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census-8", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without congform sources the benchmark exits non-zero and prints no result")


def main() -> int:
    check_benchmark_json()
    check_workloads()
    check_bare_directory()
    check_tracer_bindings()
    print(f"{len(failures)} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
