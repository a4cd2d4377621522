#!/usr/bin/env python3
"""Census of every closure operator on small group-generated universes.

For each group of order <= --max-order, closes it under quotients, then
enumerates every extensive natural family of fibre maps and classifies
it by the four operator axioms.  The census double-checks, on the
idempotent cohereditary ones, that minimality and preservation of
cocartesian liftings pick out the same operators.

Usage:
  python scripts/operator_census.py
  python scripts/operator_census.py --max-order 6

Exits 0 when every check passes, 1 when one ran and failed, and 2 on
malformed input such as an unsupported size, with the message on stderr.
"""

import argparse
import sys

from congform import (
    corpus,
    enumerate_operators,
    is_cohereditary,
    is_idempotent,
    is_minimal,
    preserves_cocartesian,
    universe_from_generators,
)
from congform.errors import InputError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=4)
    args = parser.parse_args()

    seeds = corpus("groups", args.max_order).algebras
    print(f"{len(seeds)} generating groups of order <= {args.max_order}\n")
    header = f"{'universe':>22}  {'ops':>4} {'idem':>4} {'cohe':>4} {'min':>4} {'push':>4}  agree"
    print(header)
    print("-" * len(header))
    mismatches = 0
    for g in seeds:
        u = universe_from_generators([g])
        family = enumerate_operators(u)
        idem = [c for c in family if is_idempotent(c)]
        cohered = [c for c in idem if is_cohereditary(c)]
        minimal = [c for c in cohered if is_minimal(c)]
        pushout = [c for c in cohered if preserves_cocartesian(c)]
        agree = {c.name for c in minimal} == {c.name for c in pushout}
        mismatches += 0 if agree else 1
        label = f"from order-{g.size} group"
        print(f"{label:>22}  {len(family):>4} {len(idem):>4} {len(cohered):>4} "
              f"{len(minimal):>4} {len(pushout):>4}  {'ok' if agree else 'MISMATCH'}")
    print()
    if mismatches:
        print(f"{mismatches} universes disagree between minimality and "
              "pushout preservation")
        return 1
    print("minimality and pushout preservation agree on every universe")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        sys.exit(2)
