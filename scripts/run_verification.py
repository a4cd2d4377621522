#!/usr/bin/env python3
"""Run the full theorem suite over one or all corpora and save the reports.

Usage:
  python scripts/run_verification.py                     # all three corpora
  python scripts/run_verification.py --corpus groups --max-size 6
  python scripts/run_verification.py --out reports/

Exits 0 when every check passes, 1 when one ran and failed, and 2 on
malformed input such as an unsupported size, with the message on stderr.
"""

import argparse
import json
import pathlib
import sys
import time

from congform.errors import InputError
from congform.instances import CORPUS_KINDS
from congform.verify import run_verification


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", choices=[*CORPUS_KINDS, "all"], default="all")
    parser.add_argument("--max-size", type=int, default=None,
                        help="largest carrier (per-kind default if omitted)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write one JSON report per corpus")
    args = parser.parse_args()

    kinds = CORPUS_KINDS if args.corpus == "all" else [args.corpus]
    all_ok = True
    for kind in kinds:
        started = time.monotonic()
        report = run_verification(kind, args.max_size)
        elapsed = time.monotonic() - started
        for name, theorem in report["theorems"].items():
            print(f"  {'PASS' if theorem['pass'] else 'FAIL'} {name}")
        status = "PASS" if report["pass"] else "FAIL"
        print(f"{status} {kind} (max size {report['corpus']['max_size']}, "
              f"{report['corpus']['members']} members) in {elapsed:.1f}s")
        all_ok &= report["pass"]
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"verification-{kind}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"  report written to {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        sys.exit(2)
