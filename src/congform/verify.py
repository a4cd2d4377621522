"""The paper's theorems as one table, and the loop that runs it on a corpus.

``THEOREMS`` maps each theorem, in report order, to its check, its pass
rule and the key of its items.  A check takes one subject, or for
``antitone_order`` an ordered pair of distinct subjects, and returns a
JSON item, or None to skip the subject; the theorem passes when its rule
holds on every item.  A ``Subject`` is a built-in operator on a universe
and its oracle predicate; what the theorems derive from it is built on
first use and then shared: the operator report C, the reflector R of C,
and the operator D derived back from R.

``run_verification`` (the ``verify-all`` command) runs
every entry on one subject per built-in operator of a corpus kind (the
registry in ``instances``).  The ``roundtrip`` command runs the entry
``roundtrip_identities`` on one subject, and ``antitone`` runs
``antitone_order`` on a pair.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .instances import builtin_operator, corpus, corpus_kind, corpus_operators, oracle_predicate
from .operators import Universe, is_cohereditary, is_idempotent, operator_report
from .reflection import (
    antitone_check,
    closed_under_quotients,
    closure_from_reflector,
    closures_agree,
    oracle_reflector,
    predicate_from_operator,
    reflector_from_closure,
    reflectors_agree,
)


class Subject:
    """The named built-in operator on ``u``, its oracle predicate, and the
    objects derived from them, each built on first use."""

    def __init__(self, name: str, u: Universe):
        self.operator = builtin_operator(name, u)
        self.predicate = oracle_predicate(name)

    report = cached_property(lambda self: operator_report(self.operator))
    reflector = cached_property(lambda self: reflector_from_closure(self.operator))
    derived = cached_property(lambda self: closure_from_reflector(self.reflector))


def _axiom_suite(s: Subject) -> dict:
    return {
        "extensive": True,  # enforced at construction
        "natural": True,
        "idempotent": is_idempotent(s.derived).as_json(),
        "cohereditary": is_cohereditary(s.derived).as_json(),
    }


def _minimality_pushout(s: Subject) -> dict | None:
    rep = s.report
    if rep["idempotent"] and rep["cohereditary"]:
        return {"minimal": rep["minimal"], "preserves_pushouts": rep["preserves_pushouts"]}
    return None


def _roundtrip(s: Subject) -> dict:
    return {
        "closure": closures_agree(s.operator, s.derived).as_json(),
        "reflector": reflectors_agree(s.reflector, reflector_from_closure(s.derived)).as_json(),
    }


def _birkhoff(s: Subject) -> dict:
    c = s.operator
    closed = bool(closed_under_quotients(predicate_from_operator(c), c.universe))
    return {"minimal": s.report["minimal"], "closed_under_quotients": closed}


def _antitone(s: Subject, t: Subject) -> dict:
    return antitone_check(s.operator, t.operator).as_json()


def _oracle_agreement(s: Subject) -> dict:
    c = s.operator
    oracle = closure_from_reflector(oracle_reflector(c.universe, s.predicate))
    return closures_agree(c, oracle).as_json()


_ok = itemgetter("ok")

# name -> (check, pass rule on one item, items key), in report order
THEOREMS = {
    # reflection-derived operators satisfy the closure operator axioms
    "axiom_suite": (
        _axiom_suite, lambda v: v["idempotent"]["ok"] and v["cohereditary"]["ok"], "operators"),
    # minimality coincides with preservation of cocartesian liftings
    "minimality_pushout_equivalence": (
        _minimality_pushout, lambda v: v["minimal"] == v["preserves_pushouts"], "operators"),
    # both round trips are pointwise identities
    "roundtrip_identities": (
        _roundtrip, lambda v: v["closure"]["ok"] and v["reflector"]["ok"], "operators"),
    # minimal operators are exactly the quotient-closed subcategories
    "birkhoff_equivalence": (
        _birkhoff, lambda v: v["minimal"] == v["closed_under_quotients"], "operators"),
    # operator order is opposite to subcategory inclusion, on every ordered pair
    "antitone_order": (_antitone, _ok, "pairs"),
    # built-in rules agree with the brute-force reflection oracle
    "oracle_agreement": (_oracle_agreement, _ok, "operators"),
}


def run_verification(kind: str, max_size: int | None = None) -> dict:
    """Full theorem suite for one corpus; the report's ``pass`` key sums it up."""
    if max_size is None:
        max_size = corpus_kind(kind).default_size
    u = corpus(kind, max_size)
    subjects = {name: Subject(name, u) for name in corpus_operators(kind)}
    args = {"operators": {a: (s,) for a, s in subjects.items()},
            "pairs": {f"{a} / {b}": (s, t) for a, s in subjects.items()
                      for b, t in subjects.items() if a != b}}
    report: dict = {
        "corpus": {"kind": kind, "max_size": max_size, "members": len(u)},
        "operators": {name: s.report for name, s in subjects.items()},
        "theorems": {},
    }
    for theorem, (check, passes, key) in THEOREMS.items():
        items = {k: item for k, xs in args[key].items() if (item := check(*xs)) is not None}
        report["theorems"][theorem] = {"pass": all(map(passes, items.values())), key: items}
    report["pass"] = all(t["pass"] for t in report["theorems"].values())
    return report
