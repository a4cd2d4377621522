"""Acceptance criteria, one test per criterion, all at exact equality.

Each test prints a single pass line (visible under ``pytest -s``) with
its elapsed time and asserts the stated runtime bound.  The corpora are
the bundled ones: rngs Z_n for n <= 12, quandles of size <= 3, groups
of order <= 8.
"""

import itertools
import time

from congform import (
    builtin_operator,
    closed_under_quotients,
    closure_from_reflector,
    con_lattice,
    corpus,
    enumerate_operators,
    enumerate_surjections,
    generated_congruence,
    image_congruence,
    is_cohereditary,
    is_idempotent,
    is_minimal,
    leq,
    lifts,
    operator_leq,
    oracle_reflector,
    predicate_from_operator,
    preimage_congruence,
    preserves_cocartesian,
    reflector_from_closure,
    roundtrip_closure,
    roundtrip_reflector,
    subcategory_members,
    universe_from_generators,
)
from congform.instances import oracle_predicate

import oracles


def operators_on_their_corpora(group_corpus, rng_corpus, quandle_corpus):
    """(operator, universe) pairs: identity/top everywhere, the rest at home."""
    pairs = []
    for u in (group_corpus, rng_corpus, quandle_corpus):
        pairs.append((builtin_operator("identity", u), u))
        pairs.append((builtin_operator("top", u), u))
    pairs.append((builtin_operator("nilradical", rng_corpus), rng_corpus))
    pairs.append((builtin_operator("quandle", quandle_corpus), quandle_corpus))
    pairs.append((builtin_operator("abelianization", group_corpus), group_corpus))
    return pairs


def _report(name: str, started: float, bound: float):
    elapsed = time.monotonic() - started
    print(f"PASS {name} in {elapsed:.1f}s (bound {bound:.0f}s)")
    assert elapsed < bound


def test_criterion_1_roundtrips_are_identities(group_corpus, rng_corpus, quandle_corpus):
    started = time.monotonic()
    for c, _u in operators_on_their_corpora(group_corpus, rng_corpus, quandle_corpus):
        assert roundtrip_closure(c), f"closure roundtrip failed for {c.name}"
        refl = reflector_from_closure(c)
        assert roundtrip_reflector(refl), f"reflector roundtrip failed for {c.name}"
    _report("criterion 1 (round-trips)", started, 120.0)


def test_criterion_2_axiom_suite_on_reflection_derived_operators(
        group_corpus, rng_corpus, quandle_corpus):
    started = time.monotonic()
    for c, _u in operators_on_their_corpora(group_corpus, rng_corpus, quandle_corpus):
        derived = closure_from_reflector(reflector_from_closure(c))
        # construction enforces extensive + natural; these two are runtime checks
        assert is_idempotent(derived), f"{c.name} derived operator not idempotent"
        assert is_cohereditary(derived), f"{c.name} derived operator not cohereditary"
    _report("criterion 2 (axiom suite)", started, 120.0)


def test_criterion_3_minimality_equals_pushout_preservation():
    started = time.monotonic()
    seeds = corpus("groups", 4).algebras
    assert [a.size for a in seeds] == [1, 2, 3, 4, 4]
    total = checked = 0
    for g in seeds:
        u = universe_from_generators([g])
        for c in enumerate_operators(u):
            total += 1
            if not (is_idempotent(c) and is_cohereditary(c)):
                continue
            checked += 1
            assert bool(is_minimal(c)) == bool(preserves_cocartesian(c)), (
                f"equivalence failed on universe from size-{g.size} group")
    assert checked >= 5  # the family is not vacuous
    print(f"  ({checked} idempotent cohereditary operators out of {total})")
    _report("criterion 3 (minimal = preserves pushouts)", started, 60.0)


def test_criterion_4_minimality_equals_quotient_closure(
        group_corpus, rng_corpus, quandle_corpus):
    started = time.monotonic()
    for c, u in operators_on_their_corpora(group_corpus, rng_corpus, quandle_corpus):
        minimal = bool(is_minimal(c))
        closed = bool(closed_under_quotients(predicate_from_operator(c), u))
        assert minimal == closed, f"inconsistent for {c.name}"
    for g in corpus("groups", 4).algebras:
        u = universe_from_generators([g])
        for c in enumerate_operators(u):
            if not (is_idempotent(c) and is_cohereditary(c)):
                continue
            minimal = bool(is_minimal(c))
            closed = bool(closed_under_quotients(predicate_from_operator(c), u))
            assert minimal == closed
    _report("criterion 4 (minimal = closed under quotients)", started, 120.0)


def test_criterion_5_oracle_agreement(group_corpus, rng_corpus, quandle_corpus):
    started = time.monotonic()
    cases = [
        ("nilradical", rng_corpus),
        ("quandle", quandle_corpus),
        ("abelianization", group_corpus),
    ]
    for name, u in cases:
        c = builtin_operator(name, u)
        d = closure_from_reflector(oracle_reflector(u, oracle_predicate(name)))
        for i, x in enumerate(u.algebras):
            for r in con_lattice(x):
                assert c.apply(i, r) == d.apply(i, r), (
                    f"{name} disagrees with the oracle on member {i}")
    _report("criterion 5 (oracle agreement)", started, 120.0)


def test_criterion_6_antitone_order_on_the_abelianization_pair(group_corpus):
    started = time.monotonic()
    ab = builtin_operator("abelianization", group_corpus)
    exp2 = builtin_operator("exp2-abelianization", group_corpus)
    members_ab = set(subcategory_members(ab))
    members_exp2 = set(subcategory_members(exp2))
    # operator order holds in exactly the direction opposite to inclusion
    assert operator_leq(ab, exp2)
    assert not operator_leq(exp2, ab)
    assert members_exp2 < members_ab
    assert not (members_ab <= members_exp2)
    _report("criterion 6 (antitone order)", started, 120.0)


def test_criterion_7_core_engine_oracles(group_corpus, rng_corpus, quandle_corpus):
    started = time.monotonic()
    corpora = (group_corpus, rng_corpus, quandle_corpus)

    # congruence lattices match the all-partitions filter (size <= 6)
    for u in corpora:
        for x in u.algebras:
            if x.size > 6:
                continue
            assert sorted(r.ids for r in con_lattice(x)) == \
                sorted(oracles.brute_congruences(x))

    # generated congruences are meets of the containing congruences
    for u in corpora:
        for x in u.algebras:
            if x.size > 6:
                continue
            for pair in itertools.combinations(range(x.size), 2):
                assert generated_congruence(x, [pair]).ids == \
                    oracles.brute_generated(x, [pair])

    # lifting adjunction: image -| preimage along every corpus surjection
    for u in corpora:
        for x in u.algebras:
            for y in u.algebras:
                for f in enumerate_surjections(x, y):
                    for r in con_lattice(x):
                        for s in con_lattice(y):
                            lifted = lifts(f, r, s)
                            assert lifted == leq(image_congruence(f, r), s)
                            assert lifted == leq(r, preimage_congruence(f, s))
    _report("criterion 7 (core-engine oracles)", started, 180.0)
