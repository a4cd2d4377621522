"""Corpus-level verification: run every theorem check and collect a report.

This backs the ``verify-all`` CLI command and the verification scripts.
For one corpus it exercises, per built-in operator that applies to the
corpus kind (the registry in ``instances``): the reflection round-trips,
the axiom suite on reflection-derived operators, the minimal/cocartesian
equivalence, the minimality/quotient-closure equivalence, the antitone
operator order, and agreement with the brute-force reflection oracle.

Each derived object is built once per operator and shared by every
theorem that reads it: the operator report C (whose verdicts the
minimality sections reuse), the reflector R of C, the operator D derived
back from R (the axiom suite's subject and the middle of both round
trips), and the reflector derived from D.
"""

from __future__ import annotations

from .instances import builtin_operator, corpus, corpus_kind, corpus_operators, oracle_predicate
from .operators import is_cohereditary, is_idempotent, operator_report
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

def run_verification(kind: str, max_size: int | None = None) -> dict:
    """Full theorem suite for one corpus; the report's ``pass`` key sums it up."""
    if max_size is None:
        max_size = corpus_kind(kind).default_size
    u = corpus(kind, max_size)
    names = corpus_operators(kind)
    operators = {name: builtin_operator(name, u) for name in names}
    reports = {name: operator_report(c) for name, c in operators.items()}

    report: dict = {
        "corpus": {"kind": kind, "max_size": max_size, "members": len(u)},
        "operators": reports,
        "theorems": {},
    }

    # reflection-derived operators satisfy the closure operator axioms
    axiom_items = {}
    reflectors = {}
    derived = {}
    for name, c in operators.items():
        reflectors[name] = reflector_from_closure(c)
        d = derived[name] = closure_from_reflector(reflectors[name])
        axiom_items[name] = {
            "extensive": True,
            "natural": True,
            "idempotent": is_idempotent(d).as_json(),
            "cohereditary": is_cohereditary(d).as_json(),
        }
    report["theorems"]["axiom_suite"] = {
        "pass": all(v["idempotent"]["ok"] and v["cohereditary"]["ok"]
                    for v in axiom_items.values()),
        "operators": axiom_items,
    }

    # minimality coincides with preservation of cocartesian liftings
    mp_items = {
        name: {"minimal": rep["minimal"], "preserves_pushouts": rep["preserves_pushouts"]}
        for name, rep in reports.items() if rep["idempotent"] and rep["cohereditary"]
    }
    report["theorems"]["minimality_pushout_equivalence"] = {
        "pass": all(v["minimal"] == v["preserves_pushouts"] for v in mp_items.values()),
        "operators": mp_items,
    }

    # both round trips are pointwise identities
    rt_items = {}
    for name, c in operators.items():
        rt_items[name] = {
            "closure": closures_agree(c, derived[name]).as_json(),
            "reflector": reflectors_agree(
                reflectors[name], reflector_from_closure(derived[name])).as_json(),
        }
    report["theorems"]["roundtrip_identities"] = {
        "pass": all(v["closure"]["ok"] and v["reflector"]["ok"] for v in rt_items.values()),
        "operators": rt_items,
    }

    # minimal operators are exactly the quotient-closed subcategories
    bir_items = {}
    for name, c in operators.items():
        closed = bool(closed_under_quotients(predicate_from_operator(c), u))
        bir_items[name] = {"minimal": reports[name]["minimal"], "closed_under_quotients": closed}
    report["theorems"]["birkhoff_equivalence"] = {
        "pass": all(v["minimal"] == v["closed_under_quotients"] for v in bir_items.values()),
        "operators": bir_items,
    }

    # operator order is opposite to subcategory inclusion, on every ordered pair
    ant_items = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            ant_items[f"{a} / {b}"] = antitone_check(operators[a], operators[b]).as_json()
    report["theorems"]["antitone_order"] = {
        "pass": all(v["ok"] for v in ant_items.values()),
        "pairs": ant_items,
    }

    # built-in rules agree with the brute-force reflection oracle
    ora_items = {}
    for name, c in operators.items():
        oracle_c = closure_from_reflector(oracle_reflector(u, oracle_predicate(name)))
        ora_items[name] = closures_agree(c, oracle_c).as_json()
    report["theorems"]["oracle_agreement"] = {
        "pass": all(v["ok"] for v in ora_items.values()),
        "operators": ora_items,
    }

    report["pass"] = all(t["pass"] for t in report["theorems"].values())
    return report
