import gc
import hashlib
import itertools
import json
import random
import sys
from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    Equation,
    QuasiEquation,
    app,
    builtin_operator,
    con_lattice,
    congruence_from_blocks,
    corpus,
    corpus_manifest,
    cyclic_group,
    cyclic_rng,
    diagonal,
    dihedral_group,
    find_isomorphism,
    full,
    generated_congruence,
    klein_four_group,
    leq,
    make_operator,
    meet,
    quotient,
    satisfies_equations,
    symmetric_group,
    var,
)
from congform.errors import (
    AxiomViolation,
    NotExtensive,
    NotGroup,
    NotNatural,
    NotQuandle,
    NotRng,
    OutOfRange,
    SizeTooLarge,
)
from congform.instances import (
    enumerate_quandles,
    _quandle_classes,
)
from congform import instances, reflection, terms
from congform.algebras import (
    COMMUTATIVE_RNG_SIGNATURE,
    RNG_TAG,
    FiniteAlgebra,
    Signature,
    relabel_algebra,
    validate_algebra,
)

import oracles
from oracles import (CompositeNotCongruence, InvalidIdeal, _composite_with_reachability,
                     _dedup_up_to_iso, commutator_congruence, congruence_of_ideal,
                     dihedral_quandle, enumerate_groups, exponent_two_congruence, ideal,
                     ideal_of_congruence, nilradical, quandle_reachability, trivial_quandle)


# --- the ideal / congruence bridge ----------------------------------------------

def test_ideal_of_congruence_is_block_of_zero():
    z4 = cyclic_rng(4)
    r = congruence_from_blocks(z4, [[0, 2], [1, 3]])
    assert ideal_of_congruence(r).elements == (0, 2)


def test_zero_ideal_gives_diagonal():
    z4 = cyclic_rng(4)
    assert congruence_of_ideal(ideal(z4, [0])) == diagonal(z4)


def test_bridge_roundtrip_on_every_corpus_ideal(rng_corpus):
    for a in rng_corpus.algebras:
        for r in con_lattice(a):
            i = ideal_of_congruence(r)
            assert congruence_of_ideal(i) == r
            assert ideal_of_congruence(congruence_of_ideal(i)) == i


def test_bridge_is_a_lattice_isomorphism(rng_corpus):
    from congform import join, leq, meet

    for a in rng_corpus.algebras:
        cons = list(con_lattice(a))
        for r in cons:
            for s in cons:
                ir = set(ideal_of_congruence(r).elements)
                is_ = set(ideal_of_congruence(s).elements)
                assert leq(r, s) == (ir <= is_)
                assert set(ideal_of_congruence(meet(r, s)).elements) == ir & is_
                joined = set(ideal_of_congruence(join(r, s)).elements)
                assert joined >= ir | is_
                # the join block is the additive span of the two blocks
                span = {a.op("add", x, y) for x in ir for y in is_}
                assert joined == span


def test_ideal_validation():
    z4 = cyclic_rng(4)
    with pytest.raises(InvalidIdeal):
        ideal(z4, [0, 1])  # not closed under addition: 1+1=2 missing
    with pytest.raises(InvalidIdeal):
        ideal(z4, [2])  # missing 0
    with pytest.raises(NotRng):
        ideal(cyclic_group(4), [0])


def test_ideal_json_roundtrip():
    from oracles import ideal_from_json, ideal_to_json

    z8 = cyclic_rng(8)
    i = ideal(z8, [4, 0])
    assert ideal_to_json(i) == [0, 4]
    assert ideal_from_json(z8, [0, 4]) == i
    with pytest.raises(InvalidIdeal):
        ideal_from_json(z8, [0, 3])


# --- nilradical -----------------------------------------------------------------

def test_nilradical_z8_of_zero():
    z8 = cyclic_rng(8)
    assert nilradical(z8, ideal(z8, [0])).elements == (0, 2, 4, 6)


def test_nilradical_z6_is_trivial():
    z6 = cyclic_rng(6)
    assert nilradical(z6, ideal(z6, [0])).elements == (0,)


def test_nilradical_of_whole_rng():
    z6 = cyclic_rng(6)
    whole = ideal(z6, range(6))
    assert nilradical(z6, whole).elements == tuple(range(6))


def test_nilradical_contains_ideal(rng_corpus):
    for a in rng_corpus.algebras:
        for r in con_lattice(a):
            i = ideal_of_congruence(r)
            assert set(i.elements) <= set(nilradical(a, i).elements)


def test_nilradical_operator_values(rng_corpus):
    nil = builtin_operator("nilradical", rng_corpus)
    z4, z6 = cyclic_rng(4), cyclic_rng(6)
    assert nil.apply(z4, diagonal(z4)).blocks() == ((0, 2), (1, 3))
    assert nil.apply(z6, diagonal(z6)) == diagonal(z6)
    for a in rng_corpus.algebras:
        assert nil.apply(a, full(a)) == full(a)


def test_nilradical_operator_rejects_non_rngs(group_corpus):
    with pytest.raises(NotRng):
        builtin_operator("nilradical", group_corpus)


def test_nilradical_observed_minimal_on_finite_corpus(rng_corpus):
    # Recorded observation, not a general claim: on the Z_n family the
    # reduced members (squarefree n) keep reduced quotients, so the
    # operator happens to be minimal here.  Over all commutative rngs it
    # is not (Z is reduced, its quotient Z/4 is not).
    from congform import is_minimal

    assert bool(is_minimal(builtin_operator("nilradical", rng_corpus))) is True


# --- quandles --------------------------------------------------------------------

def test_reachability_of_trivial_quandle_is_diagonal():
    assert quandle_reachability(trivial_quandle(3)) == diagonal(trivial_quandle(3))


def test_reachability_of_dihedral_quandle_is_full():
    dq = dihedral_quandle(3)
    assert quandle_reachability(dq) == full(dq)


def test_reachability_of_one_element_quandle():
    one = trivial_quandle(1)
    assert quandle_reachability(one) == diagonal(one) == full(one)


def test_reachability_rejects_non_quandles():
    with pytest.raises(NotQuandle):
        quandle_reachability(cyclic_group(3))


def test_quandle_operator_closure_of_diagonal_is_reachability(quandle_corpus):
    q = builtin_operator("quandle", quandle_corpus)
    for a in quandle_corpus.algebras:
        assert q.apply(a, diagonal(a)) == quandle_reachability(a)
        assert q.apply(a, full(a)) == full(a)


def test_quandle_operator_on_dihedral_quandle():
    from congform import universe_from_generators

    u = universe_from_generators([dihedral_quandle(3)])
    q = builtin_operator("quandle", u)
    dq = next(a for a in u.algebras if a.size == 3)
    assert q.apply(dq, diagonal(dq)) == full(dq)


def test_reachability_diagonal_iff_trivial(quandle_corpus):
    from congform.terms import TRIVIAL_QUANDLE

    for a in quandle_corpus.algebras:
        is_trivial = bool(satisfies_equations(a, TRIVIAL_QUANDLE))
        assert (quandle_reachability(a) == diagonal(a)) == is_trivial


def test_quandle_rule_matches_the_composite_scan():
    pairs = [(x, r) for x in corpus("quandles", 5).algebras for r in con_lattice(x)]
    assert len(pairs) == 267
    for x, r in pairs:
        assert _composite_with_reachability(x, r) == oracles.composite_with_reachability(x, r)


def test_permutability_guard_rejects_non_permuting_equivalences(monkeypatch):
    # every partition is a congruence of a set whose only operation is the
    # identity; {01|2} then {0|12} relates 0 to 2, but not 2 to 0
    x = FiniteAlgebra(3, Signature((("id", 1),)), ((0, 1, 2),))
    r = congruence_from_blocks(x, [[0, 1], [2]])
    s = congruence_from_blocks(x, [[0], [1, 2]])
    for sim, closure in [(diagonal(x), r), (full(x), full(x)), (r, r)]:
        monkeypatch.setattr(oracles, "quandle_reachability", lambda a, sim=sim: sim)
        assert _composite_with_reachability(x, r) == closure
    monkeypatch.setattr(oracles, "quandle_reachability", lambda a: s)
    with pytest.raises(CompositeNotCongruence) as exc:
        _composite_with_reachability(x, r)
    assert exc.value.witness == {"block": [0, 1, 2]}


def test_reachability_matches_the_listed_moves():
    for a in corpus("quandles", 6).algebras:
        assert quandle_reachability(a) == oracles.listed_reachability(a)


# --- groups -------------------------------------------------------------------------

def test_commutator_congruence_of_s3():
    s3 = symmetric_group(3)
    assert commutator_congruence(s3).blocks() == ((0, 3, 4), (1, 2, 5))


def test_commutator_congruence_of_abelian_group_is_diagonal():
    assert commutator_congruence(cyclic_group(4)) == diagonal(cyclic_group(4))


def test_abelianization_operator_values(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    s3 = symmetric_group(3)
    assert ab.apply(s3, diagonal(s3)).blocks() == ((0, 3, 4), (1, 2, 5))
    z4 = cyclic_group(4)
    for r in con_lattice(z4):
        assert ab.apply(z4, r) == r  # identity on an abelian member
    for a in group_corpus.algebras:
        assert ab.apply(a, full(a)) == full(a)


def test_exponent_two_congruence_values():
    assert exponent_two_congruence(cyclic_group(8)).n_blocks == 2
    assert exponent_two_congruence(cyclic_group(3)) == full(cyclic_group(3))
    assert exponent_two_congruence(klein_four_group()) == diagonal(klein_four_group())
    d4 = dihedral_group(4)
    assert exponent_two_congruence(d4) == commutator_congruence(d4)


@pytest.mark.parametrize("laws,oracle", [(terms.COMMUTATIVITY, oracles.commutator_congruence),
                                         (terms.ELEMENTARY_ABELIAN_2,
                                          oracles.exponent_two_congruence)])
def test_verbal_congruence_matches_the_hand_built_congruence(laws, oracle):
    # every member of the order-12 corpus, three relabelings of each, and S4
    rng = random.Random(7)
    groups = [symmetric_group(4)]
    for a in corpus("groups", 12).algebras:
        groups.append(a)
        groups.extend(relabel_algebra(a, rng.sample(range(a.size), a.size)) for _ in range(3))
    for a in groups:
        assert reflection.rule_from_laws(laws)(a, diagonal(a)) == oracle(a)


def test_group_operators_reject_wrong_tags(rng_corpus):
    with pytest.raises(NotGroup):
        builtin_operator("abelianization", rng_corpus)
    with pytest.raises(NotGroup):
        builtin_operator("exp2-abelianization", rng_corpus)


# --- the law rules against the rules they replaced ------------------------------------

LAW_DEFINED = [("nilradical", terms.REDUCED_RNG, "rngs", 24),
               ("quandle", terms.TRIVIAL_QUANDLE, "quandles", 6),
               ("abelianization", terms.COMMUTATIVITY, "groups", 12),
               ("exp2-abelianization", terms.ELEMENTARY_ABELIAN_2, "groups", 12),
               ("identity", (), "rngs", 24),
               ("top", terms.ONE_ELEMENT, "quandles", 6)]


@pytest.mark.parametrize("name,laws,kind,size", LAW_DEFINED, ids=[d[0] for d in LAW_DEFINED])
def test_law_rule_matches_the_replaced_rule(name, laws, kind, size):
    rule, builtin, oracle = (reflection.rule_from_laws(laws), instances.closure_rule(name),
                             oracles.law_rule_oracle(name))
    checked = 0
    for x in corpus(kind, size).algebras:
        for r in con_lattice(x):
            expected = oracle(x, r)
            assert rule(x, r) == expected, (name, x, r)
            assert builtin(x, r) == expected, (name, x, r)
            checked += 1
    assert checked == {"rngs": 84, "quandles": 1553, "groups": 59}[kind]


@pytest.mark.parametrize("kind,size", [("groups", 12), ("quandles", 6), ("rngs", 24)])
def test_law_rule_matches_the_verbal_join_on_equations(kind, size):
    # for equations the rule's loop gives R v V(X) in its first step and
    # finds no pair in its second, which is the branch it replaced
    names = [name for name in instances.corpus_operators(kind)
             if all(isinstance(law, Equation) for law in instances._BUILTIN_RULES[name][1])]
    assert names == {"groups": ["identity", "top", "abelianization", "exp2-abelianization"],
                     "quandles": ["identity", "top", "quandle"],
                     "rngs": ["identity", "top"]}[kind]
    algebras = corpus(kind, size).algebras
    for name in names:
        laws = instances._BUILTIN_RULES[name][1]
        rule, oracle = reflection.rule_from_laws(laws), oracles.verbal_join_rule(laws)
        for x in algebras:
            for r in con_lattice(x):
                assert rule(x, r) == oracle(x, r), (name, x, r)


# every corpus at its default and its largest sizes
LAW_ROW_CORPORA = [("quandles", 3), ("quandles", 4), ("quandles", 5), ("quandles", 6),
                   ("groups", 8), ("groups", 12), ("rngs", 12), ("rngs", 24)]


@pytest.mark.parametrize("kind,size", LAW_ROW_CORPORA)
def test_law_rows_match_make_operator_on_the_law_rule(kind, size):
    # a built-in's rows are read off the universe's pair masks; the path they
    # replaced tabulates rule_from_laws through make_operator
    u = corpus(kind, size)
    for name in instances.corpus_operators(kind):
        laws = instances._BUILTIN_RULES[name][1]
        expected = make_operator(u, reflection.rule_from_laws(laws), name)
        assert builtin_operator(name, u).rows == expected.rows, name


@pytest.mark.parametrize("size", [4, 5, 6])
def test_law_rows_of_a_quasi_identity_match_the_rule(size):
    # x <| y = x => y <| x = y on quandles: a quasi-identity whose rows
    # iterate, as the nilradical's do, beyond the rngs Z_n
    law = QuasiEquation((Equation(app("lhd", var(0), var(1)), var(0)),),
                        Equation(app("lhd", var(1), var(0)), var(1)))
    u, rule = corpus("quandles", size), reflection.rule_from_laws((law,))
    expected = tuple(tuple(by_ids[rule(x, r).ids] for r in lattice)
                     for x, lattice, by_ids in zip(u.algebras, u.lattices, u.by_ids))
    rows = tuple(reflection._law_rows(u, (law,)))
    assert rows == expected
    assert any(row[-1] != len(row) - 1 for row in rows)  # some member is outside


def test_law_rows_are_checked_as_make_operator_checks_rows(monkeypatch):
    # builtin_operator sends its rows through make_operator's checks: rows
    # that are not extensive, or not natural, raise the same error with the
    # same witness
    u = corpus("groups", 8)
    v4 = u.lookup(klein_four_group())
    lattice = u.lattices[v4]
    identity = [tuple(range(len(lat))) for lat in u.lattices]
    shrunk = [list(row) for row in identity]
    shrunk[v4][0] = len(lattice) - 1  # C(full) = diagonal
    atom = next(a for a in range(len(lattice)) if lattice[a].n_blocks == 2)
    bent = [list(row) for row in identity]
    bent[v4][-1] = atom  # C(diagonal) is an atom, not below the other atoms
    for rows, error in ((shrunk, NotExtensive), (bent, NotNatural)):
        rows = tuple(map(tuple, rows))
        monkeypatch.setattr(instances, "_law_rows", lambda u, laws: iter(rows))
        with pytest.raises(error) as got:
            builtin_operator("identity", u)
        tables = [{r: lat[b] for r, b in zip(lat, row)} for lat, row in zip(u.lattices, rows)]
        with pytest.raises(error) as want:
            make_operator(u, oracles.table_rule(u, tables), "identity")
        assert got.value.witness == want.value.witness


def _rng(elements, add, mul):
    """The commutative rng on ``elements`` (the first is 0) with + and . given
    on the elements."""
    index = {e: i for i, e in enumerate(elements)}
    tables = {"add": [[index[add(a, b)] for b in elements] for a in elements],
              "neg": [next(index[b] for b in elements if add(a, b) == elements[0])
                      for a in elements],
              "zero": 0,
              "mul": [[index[mul(a, b)] for b in elements] for a in elements]}
    return validate_algebra(len(elements), COMMUTATIVE_RNG_SIGNATURE, tables, RNG_TAG)


def hand_built_rngs():
    """Commutative rngs that are no Z_n: F2 x F2 (reduced), F2[t]/(t^2) (its
    nilradical is (t)), the zero-multiplication rng on Z4 (all nilpotent), and
    Z2 x Z4 (nilradical {0} x 2Z4)."""
    pairs = list(itertools.product(range(2), range(2)))
    z2z4 = list(itertools.product(range(2), range(4)))

    def xor(a, b):
        return a[0] ^ b[0], a[1] ^ b[1]

    return [
        _rng(pairs, xor, lambda a, b: (a[0] & b[0], a[1] & b[1])),
        _rng(pairs, xor, lambda a, b: (a[0] & b[0], (a[0] & b[1]) ^ (a[1] & b[0]))),
        _rng(list(range(4)), lambda a, b: (a + b) % 4, lambda a, b: 0),
        _rng(z2z4, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 4),
             lambda a, b: (a[0] * b[0] % 2, a[1] * b[1] % 4)),
    ]


def test_nilradical_law_rule_matches_the_bridge_beyond_z_n():
    rule = reflection.rule_from_laws(terms.REDUCED_RNG)
    oracle = oracles.law_rule_oracle("nilradical")
    rngs = hand_built_rngs()
    radicals = [rule(x, diagonal(x)) for x in rngs]
    assert [r.n_blocks for r in radicals] == [4, 2, 1, 4]
    for x in rngs:
        for r in con_lattice(x):
            assert rule(x, r) == oracle(x, r), (x, r)


def test_nilradical_law_rule_iterates_past_the_first_round():
    # in Z8 only x = 0, 4 have x.x = 0; the ideal {0, 4} they generate has
    # x.x in it for x = 2, 6, so a second round reaches {0, 2, 4, 6}
    z8 = cyclic_rng(8)
    first = congruence_from_blocks(z8, [[0, 4], [1, 5], [2, 6], [3, 7]])
    assert generated_congruence(z8, terms.law_pairs(z8, terms.REDUCED_RNG)) == first
    closed = reflection.rule_from_laws(terms.REDUCED_RNG)(z8, diagonal(z8))
    assert closed.blocks() == ((0, 2, 4, 6), (1, 3, 5, 7))
    assert closed == oracles.law_rule_oracle("nilradical")(z8, diagonal(z8))


def test_law_rule_of_a_quasi_identity_is_the_least_accepted_congruence():
    # x <| y = x => y <| x = y: commuting is symmetric.  Its quandles form a
    # quasivariety that is not closed under quotients, so the rule iterates;
    # it must give the meet of the congruences above R with accepted quotient.
    law = QuasiEquation((Equation(app("lhd", var(0), var(1)), var(0)),),
                        Equation(app("lhd", var(1), var(0)), var(1)))
    rule = reflection.rule_from_laws((law,))
    accepted = {}
    for x in corpus("quandles", 5).algebras:
        for r in con_lattice(x):
            above = [t for t in con_lattice(x) if leq(r, t)]
            for t in above:
                if t not in accepted:
                    accepted[t] = bool(satisfies_equations(quotient(x, t)[0], (law,)))
            assert rule(x, r) == reduce(meet, [t for t in above if accepted[t]]), (x, r)
    assert not all(accepted.values())


# --- enumeration and corpora -----------------------------------------------------------

def test_group_class_counts_up_to_six():
    counts = [len(_dedup_up_to_iso(enumerate_groups(n))) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 1, 2]


def test_quandle_class_counts_up_to_four():
    counts = [len(_dedup_up_to_iso(searched_algebras(n))) for n in range(1, 5)]
    assert counts == [1, 1, 3, 7]


def test_quandle_class_counts_by_orbit_up_to_six():
    counts = [len(_quandle_classes(searched_quandles(n))) for n in range(1, 7)]
    assert counts == [1, 1, 3, 7, 22, 73]


@lru_cache(maxsize=None)
def searched_quandles(n: int) -> tuple:
    return tuple(enumerate_quandles(n))


@lru_cache(maxsize=None)
def searched_algebras(n: int) -> tuple:
    """The searched tables as quandles, inverse columns solved by the oracle."""
    return tuple(map(oracles.quandle_algebra, searched_quandles(n)))


def test_quandle_search_breaks_the_stabiliser_symmetry():
    assert [len(searched_quandles(n)) for n in range(1, 7)] == [1, 1, 4, 19, 119, 981]
    # One least permutation per cycle type for column 0, then every
    # permutation: 1, 1, 5, 26, 218, and 2,790 at size 6.
    assert ([len(oracles.all_quandle_tables(n, one_per_cycle_type=True)) for n in range(1, 6)]
            == [1, 1, 5, 26, 218])
    # The full column search emits 1, 1, 5, 36, 404 labeled tables.
    assert [len(oracles.all_quandle_tables(n)) for n in range(1, 6)] == [1, 1, 5, 36, 404]


@pytest.mark.parametrize("n", range(1, 7))
def test_quandle_search_matches_the_search_without_the_column_check(n):
    assert list(searched_quandles(n)) == oracles.orbit_quandle_search(n)


@pytest.mark.parametrize("n", [0, -1])
def test_quandle_search_needs_a_nonempty_carrier(n):
    with pytest.raises(OutOfRange):
        enumerate_quandles(n)


def test_quandle_search_leaves_no_emitted_table_to_the_garbage_collector():
    # with the collector off, a table outlives its list only if something
    # else holds it (the list and the call's argument are its only
    # references); the search state is freed too
    gc.disable()
    try:
        gc.collect()
        tables = enumerate_quandles(4)
        assert all(sys.getrefcount(tables[i]) == 2 for i in range(len(tables)))
        del tables
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(1, 7))
def test_quandle_search_finds_every_class_of_the_full_search(n):
    def classes(tables):
        return sorted(_quandle_classes(tables), key=lambda a: a.tables)

    full_search = [a.tables[0] for a in oracles.all_quandle_tables(n)]
    assert classes(searched_quandles(n)) == classes(full_search)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_full_search_table_is_a_quandle(n):
    for a in oracles.all_quandle_tables(n):
        assert validate_algebra(a.size, a.sig, {"lhd": a.table_nested("lhd"),
                                                "lhd_inv": a.table_nested("lhd_inv")},
                                a.tag) == a


def test_quandle_corpus_checks_the_axioms_of_every_class(monkeypatch):
    # x <| y = 1 - x on two elements: both columns swap, so x <| x = x fails
    swap = (1, 1, 0, 0)
    searched = instances.enumerate_quandles
    monkeypatch.setattr(instances, "enumerate_quandles",
                        lambda n: searched(n) + ([swap] if n == 2 else []))
    with pytest.raises(AxiomViolation):
        instances.corpus.__wrapped__("quandles", 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_dedup_matches_the_oracle_on_quandles(n):
    tables = searched_algebras(n)
    assert oracles.dedup_by_orbit(tables) == oracles.dedup_then_canonical(tables)


@pytest.mark.parametrize("n", range(1, 7))
def test_quandle_classes_match_the_orbit_oracle_on_the_search(n):
    # orbits of the flat lhd tables against orbits of both tables, and
    # against the list-comprehension orbits of lhd on algebras
    classes = _quandle_classes(searched_quandles(n))
    assert classes == oracles.dedup_by_orbit(searched_algebras(n))
    assert classes == oracles.listed_quandle_classes(searched_algebras(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_dedup_matches_the_oracle_on_groups(n):
    tables = enumerate_groups(n)
    assert oracles.dedup_by_orbit(tables) == oracles.dedup_then_canonical(tables)


@pytest.mark.parametrize("tables", [searched_algebras(n) for n in range(1, 6)]
                         + [enumerate_groups(n) for n in range(1, 7)])
def test_orbit_dedup_matches_the_transport_oracle(tables):
    # Index arrays built once per call against arrays rebuilt for every table
    assert oracles.dedup_by_orbit(tables) == oracles.transport_dedup_by_orbit(tables)


@lru_cache(maxsize=None)
def _members() -> tuple:
    """Corpus members of three signatures, plus untagged copies of some, whose
    tables equal a tagged member's: the tag alone tells them apart."""
    tagged = [*corpus("quandles", 4).algebras, *corpus("groups", 6).algebras,
              *corpus("rngs", 6).algebras]
    untagged = [FiniteAlgebra(a.size, a.sig, a.tables) for a in tagged[::3]]
    return tuple(tagged + untagged)


def relabeled_streams(members):
    member = st.sampled_from(members)
    relabeled = member.flatmap(lambda a: st.permutations(range(a.size)).map(
        lambda p: relabel_algebra(a, p)))

    @st.composite
    def stream(draw):
        drawn = draw(st.lists(relabeled, min_size=1, max_size=12))
        repeats = draw(st.lists(st.sampled_from(drawn), max_size=4))
        return draw(st.permutations(drawn + repeats))

    return stream()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_dedup_matches_the_oracle_on_relabeled_streams(data):
    stream = data.draw(relabeled_streams(_members()))
    assert oracles.dedup_by_orbit(stream) == oracles.dedup_then_canonical(stream)
    assert oracles.dedup_by_orbit(stream) == oracles.transport_dedup_by_orbit(stream)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quandle_classes_match_the_orbit_oracle_on_relabeled_streams(data):
    stream = data.draw(relabeled_streams(corpus("quandles", 5).algebras))
    classes = _quandle_classes([a.tables[0] for a in stream])
    assert classes == oracles.dedup_by_orbit(stream)
    assert classes == oracles.listed_quandle_classes(stream)


def test_quandle_members_match_the_json_round_trip():
    # every class validated on its own against every searched table built as
    # an algebra, deduplicated and validated on the JSON input path
    assert instances._quandle_members(6) == oracles.json_quandle_members(6)


def test_quandle_members_validate_each_representative_once(monkeypatch):
    validated = []
    monkeypatch.setattr(instances, "validate_algebra",
                        lambda *args: validated.append(args[0]) or validate_algebra(*args))
    assert len(instances._quandle_members(5)) == len(validated) == 34


def test_group_corpus_small_members():
    u = corpus("groups", 4)
    assert [a.size for a in u.algebras] == [1, 2, 3, 4, 4]
    assert any(find_isomorphism(a, klein_four_group()) for a in u.algebras
               if a.size == 4)
    assert any(a == cyclic_group(4) for a in u.algebras)


def test_group_corpus_order_eight(group_corpus):
    sizes = [a.size for a in group_corpus.algebras]
    assert sizes == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8]
    assert any(a == symmetric_group(3) for a in group_corpus.algebras)
    assert any(find_isomorphism(a, dihedral_group(4)) for a in group_corpus.algebras
               if a.size == 8)


@pytest.mark.parametrize("n", range(1, 7))
def test_group_corpus_holds_one_member_per_class_of_the_table_search(n):
    members = [g for g in corpus("groups", 6).algebras if g.size == n]
    classes = _dedup_up_to_iso(enumerate_groups(n))
    assert len(members) == len(classes)
    for c in classes:
        assert sum(find_isomorphism(c, g) is not None for g in members) == 1


def test_group_corpus_members_are_pairwise_non_isomorphic():
    members = corpus("groups", 12).algebras
    assert all(find_isomorphism(a, b) is None
               for a, b in itertools.combinations(members, 2) if a.size == b.size)


def test_rng_corpus_is_the_cyclic_family(rng_corpus):
    assert [a.size for a in rng_corpus.algebras] == list(range(1, 13))
    assert all(a == cyclic_rng(a.size) for a in rng_corpus.algebras)


def test_quandle_corpus_members(quandle_corpus):
    assert [a.size for a in quandle_corpus.algebras] == [1, 2, 3, 3, 3]
    trivials = [a for a in quandle_corpus.algebras
                if find_isomorphism(a, trivial_quandle(a.size))]
    assert len(trivials) == 3
    assert any(find_isomorphism(a, dihedral_quandle(3)) for a in quandle_corpus.algebras
               if a.size == 3)


def test_corpus_size_limits():
    with pytest.raises(SizeTooLarge):
        corpus("groups", 13)
    with pytest.raises(SizeTooLarge):
        corpus("rngs", 25)
    with pytest.raises(SizeTooLarge):
        corpus("quandles", 7)
    with pytest.raises(OutOfRange):
        corpus("fields", 4)


def test_corpus_manifest_shape():
    m = corpus_manifest("quandles", 3)
    assert m["kind"] == "quandles" and m["max_size"] == 3
    assert [e["id"] for e in m["algebras"]] == [
        f"quandles-{i:03d}" for i in range(5)
    ]
    assert all(e["algebra"]["tag"] == "quandle" for e in m["algebras"])


@pytest.mark.parametrize("kind,size,digest", [
    ("groups", 8, "7477bebbcee963447bc0deeed112e514c644b844ad9dcf19fec56ea497c4b812"),
    ("rngs", 12, "fd97e96dc0c6d0d1d88c38868c30e3ecb2e97d5f6746b4be8ef0c32d1d363ffb"),
    ("quandles", 4, "65ee546ec8cde64e8f541b60dad5e2bfeb9f5295bc88dff4f7b74f75409c393b"),
    ("quandles", 5, "0e2bf164008b337e3194d325d8b4cb847e6cf2ce877f81a744c462dc01aeee00"),
])
def test_corpus_manifest_digests_are_pinned(kind, size, digest):
    # members, their order and their canonical tables must not move
    text = json.dumps(corpus_manifest(kind, size), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dihedral_group_structure():
    d4 = dihedral_group(4)
    assert d4.size == 8
    # r * s-type reflection stays a reflection; reflections are involutions
    for x in range(4, 8):
        assert d4.op("mul", x, x) == 0
    assert find_isomorphism(dihedral_group(3), symmetric_group(3)) is not None
