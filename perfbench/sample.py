"""One benchmark sample in a fresh interpreter: set up, run, report.

Started by ``run.py`` as

  python3 perfbench/sample.py WORKLOAD SEED INDEX SPAWNED [--setup-only] [--trace PATH]

INDEX numbers the samples of one run; the census draws sample INDEX's
permutations from the seed and INDEX, so a run's median covers several
relabelings and the same seed still gives the same inputs.

SPAWNED is the parent's ``time.perf_counter()`` just before it started
this process.  On Linux that clock is CLOCK_MONOTONIC, shared by all
processes, so ``setup_s`` covers interpreter start, the congform import
and building the workload's inputs.  The timed phase is then measured
on its own.  The last stdout line is one JSON object with both times,
the process's peak RSS (``ru_maxrss`` right after the timed phase) and
the outcome the parent checks against ``expected.json``.  With
``--trace`` the congform functions are wrapped before set-up (see
``tracer.py``), and the spans and counters are written to PATH.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> (kind, size).  The benchmarked workloads are listed in
# BENCHMARK.json; the small ones are for selftest.py.
WORKLOADS = {
    "verify-quandles5": ("verify", 5),
    "census-8": ("census", 8),
    "corpus-quandles5": ("corpus", 5),
    "corpus-quandles6": ("corpus", 6),
    "verify-quandles3": ("verify", 3),
    "census-4": ("census", 4),
    "corpus-quandles3": ("corpus", 3),
}


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


# Each kind has set-up (inputs from the seed), a timed phase, and an
# outcome built after the clock stops.  Functions are looked up on the
# package at call time so that a traced run reaches the wrappers.

def verify_setup(cf, size: int, seed: int, index: int):
    # Exhaustive enumeration: the seed is recorded but changes nothing.
    cf.corpus("quandles", size)
    return size


def verify_timed(cf, size):
    return cf.run_verification("quandles", size)


def verify_outcome(cf, size, report) -> dict:
    # The digest is over the bytes ``congform verify-all`` prints.
    return {"pass": bool(report["pass"]), "sha256": _sha256(report)}


def census_setup(cf, order: int, seed: int, index: int):
    from congform.algebras import relabel_algebra

    rng = random.Random(f"census/{seed}/{index}")
    generators = []
    for g in cf.corpus("groups", order).algebras:
        perm = list(range(g.size))
        rng.shuffle(perm)
        generators.append(relabel_algebra(g, perm))
    return generators


def census_timed(cf, generators):
    # The loop of scripts/operator_census.py, one row per generator.
    rows = []
    for g in generators:
        u = cf.universe_from_generators([g])
        family = cf.enumerate_operators(u)
        idem = [c for c in family if cf.is_idempotent(c)]
        cohered = [c for c in idem if cf.is_cohereditary(c)]
        minimal = [c for c in cohered if cf.is_minimal(c)]
        pushout = [c for c in cohered if cf.preserves_cocartesian(c)]
        agree = {c.name for c in minimal} == {c.name for c in pushout}
        rows.append(([g.size, len(u), len(family), len(idem), len(cohered),
                      len(minimal), len(pushout)], agree))
    return rows


def census_outcome(cf, generators, rows) -> dict:
    return {"rows": [row for row, _ in rows], "agree": all(agree for _, agree in rows)}


def corpus_setup(cf, size: int, seed: int, index: int):
    # Exhaustive enumeration: the seed is recorded but changes nothing.
    return size


def corpus_timed(cf, size):
    return cf.corpus("quandles", size)


def corpus_outcome(cf, size, u) -> dict:
    return {"members": len(u), "sha256": _sha256(cf.corpus_manifest("quandles", size))}


KINDS = {
    "verify": (verify_setup, verify_timed, verify_outcome),
    "census": (census_setup, census_timed, census_outcome),
    "corpus": (corpus_setup, corpus_timed, corpus_outcome),
}


def main(argv: list[str]) -> int:
    name, seed, index, spawned = argv[0], int(argv[1]), int(argv[2]), float(argv[3])
    setup_only = "--setup-only" in argv
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    kind, size = WORKLOADS[name]
    setup, timed, outcome = KINDS[kind]

    sys.path.insert(0, str(ROOT / "src"))
    import congform as cf

    tracer = None
    if trace_path is not None:
        from tracer import Tracer  # perfbench/ is this script's directory

        tracer = Tracer(f"{name}/seed{seed}/{index}")
        tracer.install()

    inputs = setup(cf, size, seed, index)
    setup_s = time.perf_counter() - spawned
    result = {"setup_s": setup_s}
    if not setup_only:
        t0 = time.perf_counter()
        value = timed(cf, inputs)
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            # Read before the outcome, whose own congform calls are not the workload's.
            result["counters"] = tracer.counters()
            tracer.dump(trace_path, result["counters"])
        result["outcome"] = outcome(cf, inputs, value)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
