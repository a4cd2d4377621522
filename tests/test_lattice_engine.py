"""Differential tests: the lattice-native engine against the code it replaced.

``make_operator`` checks naturality as monotonicity plus continuity,
``join`` is the equivalence closure of the union and ``image_congruence``
needs no operation propagation.  ``enumerate_operators`` builds
operators member by member and prunes on monotonicity and continuity.
Surjections are not searched for: they
are the quotient maps followed by automorphisms, and the laws are decided
along a generating set of them (``generating_maps``), against the scans of
the full lists in ``oracles``.  Each is compared here
with the general search it replaced, kept in ``oracles``: the (f, R, S)
lifting-law scan, the Mal'cev join, the propagated image, coheredity
and cocartesian preservation along every searched surjection, and
operator enumeration by generating and rejecting every extensive family.
``con_lattice`` joins each congruence found only with the principal
congruences, on block-id arrays; the oracles join every pair, or join
``Congruence`` objects with each principal one.  In quandles it
generates one principal congruence per orbit of the inner automorphisms,
shared by the whole orbit; the oracle generates each from its own pair.
The operator checks read the universe's integer tables (``fibration``);
the oracles are the same checks on ``Congruence`` objects, and must give
the same verdicts and witnesses.
The tables read the order and joins off up-sets built from the block-id
arrays, pull-backs off block-id arrays and images off the pull-backs and
up-sets; the oracles compare every pair with ``leq`` and build each entry
with ``join``, ``preimage_congruence`` and ``image_congruence``.
Compatibility of a partition is decided by comparing it with the
congruence its blocks generate; the oracle scans every operation tuple.
The hom search indexes each element by the operation tuples it occurs in;
the oracle scans every tuple on each step; ``find_embedding`` first rules
embeddings out by element counts, and must still give the scan's first
injective hom.  ``closure_from_reflector`` reads its rows off the
pull-back tables; the oracle pulls ``Congruence`` objects back
(``oracles.pullback_rule``) through ``make_operator``.  ``make_reflector`` checks the
universal property by factorisation through quotient maps and embeddings;
the oracle tests every hom into the subcategory.  ``relabel_algebra`` and
``quotient`` read each table along one flat index array; the oracles call
``FiniteAlgebra.op`` once per table entry.  On a quotient-closed universe
``oracle_reflector`` and ``closed_under_quotients`` test each member once and
read X/R's verdict off ``quotient_maps``; the oracles build and test every X/R.
``automorphism_generators`` reads generators off a stabiliser chain; they
must generate the group that ``automorphisms`` lists, as the greedy
selection it replaced does.  ``is_minimal`` checks each fibre against
C(diagonal) first; the oracle scans every pair of every fibre.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    automorphisms,
    builtin_operator,
    closed_under_quotients,
    compose,
    con_lattice,
    congruence_from_blocks,
    corpus,
    cyclic_group,
    diagonal,
    enumerate_homs,
    enumerate_operators,
    enumerate_surjections,
    find_embedding,
    find_isomorphism,
    full,
    generated_congruence,
    homomorphism,
    identity_hom,
    image_congruence,
    is_cohereditary,
    is_idempotent,
    is_minimal,
    join,
    klein_four_group,
    leq,
    lifts,
    make_operator,
    operator_leq,
    oracle_reflector,
    preimage_congruence,
    preserves_cocartesian,
    quotient_maps,
    symmetric_group,
    universe,
    universe_from_generators,
)
from congform import algebras, reflection
from congform.algebras import (FiniteAlgebra, Signature, _block_pairs, automorphism_generators,
                               quotient, relabel_algebra)
from congform.errors import CongformError, NotNatural, NotReflective
from congform.instances import CORPUS_KINDS, corpus_kind, corpus_operators, oracle_predicate
from congform.operators import fibration, generating_maps, naturality_maps
from congform.reflection import (Reflector, SubcategoryPredicate, closure_from_reflector,
                                 make_reflector)

import oracles
from oracles import kernel_congruence, trivial_quandle


def assert_real_violation(u, tables, witness):
    """The witness names a map of the universe that breaks the lifting law."""
    x, y = u.algebras[witness["dom"]], u.algebras[witness["cod"]]
    f = homomorphism(x, y, witness["map"])
    assert f in oracles.searched_maps(u, x, y)
    r = congruence_from_blocks(x, witness["R"])
    s = congruence_from_blocks(y, witness["S"])
    assert lifts(f, r, s)
    assert not lifts(f, tables[witness["dom"]][r], tables[witness["cod"]][s])


def natural_verdict(u, tables) -> bool:
    """make_operator's verdict on the rule reading ``tables``, checked against
    the oracle scan, and its witness, checked against the same check on
    ``Congruence`` objects."""
    expected = oracles.lifting_law_witness(u, tables) is None
    witness = oracles.naturality_witness(u, tables)
    try:
        make_operator(u, oracles.table_rule(u, tables), "candidate")
    except NotNatural as exc:
        assert not expected
        assert exc.witness == witness
        assert_real_violation(u, tables, exc.witness)
        return False
    assert expected and witness is None
    return True


def verdict_counts(u):
    """(families, natural ones) over every extensive family."""
    verdicts = [natural_verdict(u, list(family)) for family in oracles.extensive_families(u)]
    return len(verdicts), sum(verdicts)


# --- naturality ----------------------------------------------------------------

def test_naturality_verdicts_on_group_universes_up_to_order_4():
    counts = [verdict_counts(universe_from_generators([g]))
              for g in corpus("groups", 4).algebras]
    # (candidates, natural) for Z1, Z2, Z3, V4 and Z4
    assert counts == [(1, 1), (2, 2), (2, 2), (80, 4), (12, 7)]


def test_naturality_verdicts_on_a_chain_of_height_3():
    # Con(Z8) is a 4-chain: the first non-monotone pair in lattice order can
    # start at a congruence other than the diagonal.
    assert verdict_counts(universe_from_generators([cyclic_group(8)])) == (288, 42)


def test_naturality_verdicts_on_a_non_quotient_closed_universe():
    u = universe([cyclic_group(4), klein_four_group(), cyclic_group(2)])
    assert not u.quotient_closed
    assert verdict_counts(u) == (480, 5)


def universe_with_copies():
    """Quotient-closed, with two isomorphic copies of Z2 as members."""
    z2_copy = relabel_algebra(cyclic_group(2), [1, 0])
    return universe([cyclic_group(4), cyclic_group(2), z2_copy, cyclic_group(1)],
                    quotient_closed=True)


def test_naturality_verdicts_on_a_universe_with_isomorphic_copies():
    assert verdict_counts(universe_with_copies()) == (24, 7)


def _random_extensive_tables(data, u):
    """Random extensive tables, keyed in ``con_lattice`` order."""
    return [{r: data.draw(st.sampled_from([s for s in con_lattice(x) if leq(r, s)]))
             for r in con_lattice(x)} for x in u.algebras]


RANDOM_UNIVERSES = [
    lambda: universe_from_generators([symmetric_group(3)]),
    lambda: universe_from_generators([klein_four_group()]),
    lambda: universe([cyclic_group(4), klein_four_group(), cyclic_group(2)]),
    lambda: corpus("quandles", 3),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RANDOM_UNIVERSES), st.data())
def test_naturality_verdicts_on_random_extensive_tables(make_universe, data):
    u = make_universe()
    natural_verdict(u, _random_extensive_tables(data, u))


# --- lattices, joins and images -----------------------------------------------------

CORPORA = [("groups", 8), ("rngs", 12), ("quandles", 4)]


# Groups and rngs generate their principal congruences from the neutral
# element; the oracle generates them from every pair.
@pytest.mark.parametrize("kind,size", CORPORA + [("groups", 12), ("rngs", 24)])
def test_con_lattice_matches_all_pairs_closure(kind, size):
    for x in corpus(kind, size).algebras:
        assert con_lattice(x) == oracles.all_pairs_con_lattice(x)


def identity_only_algebra():
    """Only the identity operation: all Bell(7) = 877 partitions are
    congruences, and the C(7, 2) = 21 principal ones are distinct."""
    return FiniteAlgebra(7, Signature((("id", 1),)), (tuple(range(7)),))


def test_con_lattice_joins_only_with_principal_congruences(monkeypatch):
    # a join step is a ``_merge`` that reads no table; generation reads them
    bound, calls, real = 877 * 21, [0], algebras._merge

    def counted(ids, pairs, x=None):
        if x is None:
            calls[0] += 1
            assert calls[0] <= bound, "joined more than each congruence with each principal one"
        return real(ids, pairs, x)

    monkeypatch.setattr(algebras, "_merge", counted)
    assert len(con_lattice.__wrapped__(identity_only_algebra())) == 877
    assert calls[0] > 0


# --- one label-merge routine against the union-find closures it replaced ----------

def operation_free_algebras():
    """No operations: every partition is a congruence, and generation is the
    equivalence closure."""
    return [FiniteAlgebra(n, Signature(()), ()) for n in range(1, 8)]


def positional_ternary_algebras():
    """Ternary operations that read one argument position only, the last
    (2z mod 5) or the middle (y * y mod 6), so that a merge must be
    propagated at every position."""
    return [FiniteAlgebra(n, Signature((("m", 3),)), (tuple(f(x, y, z) for x, y, z in
                                                              itertools.product(range(n), repeat=3)),))
            for n, f in ((5, lambda x, y, z: 2 * z % 5), (6, lambda x, y, z: y * y % 6))]


MERGE_CASES = {
    "quandles6": lambda: corpus("quandles", 6).algebras,
    "groups12": lambda: corpus("groups", 12).algebras,
    "rngs24": lambda: corpus("rngs", 24).algebras,
    "ternary": lambda: ternary_algebras() + positional_ternary_algebras(),
    "operation-free": operation_free_algebras,
}


def nontrivial_pairs(r):
    return [p for p in _block_pairs(r) if p[0] != p[1]]


@pytest.mark.parametrize("case", MERGE_CASES)
def test_merge_matches_the_union_find_closures(case):
    # Every principal congruence, and every join of two lattice elements, as
    # ``join`` and as the lattice's join step; past Bell(6) = 203 congruences
    # (the operation-free algebra of size 7) only the joins with the
    # principal congruences, which are the lattice's join steps.
    for x in MERGE_CASES[case]():
        principal = []
        for pair in itertools.combinations(range(x.size), 2):
            r = generated_congruence(x, [pair])
            assert r == oracles.union_find_generated_congruence(x, [pair])
            principal.append(r)
        lattice = con_lattice(x)
        for r in lattice:
            for s in lattice if len(lattice) <= 203 else principal:
                j = join(r, s)
                assert j == oracles.equivalence_closure(x, _block_pairs(r) + _block_pairs(s))
                blocks = [b for b in s.blocks() if len(b) > 1]
                assert algebras._merge(r.ids, nontrivial_pairs(s)) == \
                    (oracles.join_blocks(r.ids, blocks) or r.ids) == j.ids


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_merge_matches_the_union_find_closures_on_drawn_pairs(data):
    x = data.draw(st.sampled_from(MERGE_CASES[data.draw(st.sampled_from(sorted(MERGE_CASES)))]()))
    element = st.integers(0, x.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=8))
    r = data.draw(st.sampled_from(con_lattice(x)))
    assert generated_congruence(x, pairs) == oracles.union_find_generated_congruence(x, pairs)
    assert algebras._merge(r.ids, pairs) == \
        oracles.equivalence_closure(x, _block_pairs(r) + pairs).ids


# Joins on block-id arrays, and in quandles one principal congruence per
# orbit of the inner automorphisms; the oracle joins Congruence objects and
# generates every principal congruence from its own pair.
@pytest.mark.parametrize("members", [
    lambda: corpus("quandles", 5).algebras,
    lambda: corpus("groups", 12).algebras,
    lambda: corpus("rngs", 24).algebras,
    lambda: [identity_only_algebra()],
], ids=["quandles5", "groups12", "rngs24", "partitions7"])
def test_con_lattice_matches_the_principal_join_closure(members):
    for x in members():
        assert con_lattice(x) == oracles.principal_join_closure(x)


def count_generations(monkeypatch) -> list[int]:
    """Count ``generated_congruence`` calls from here on, in the one-item list."""
    calls, real = [0], algebras.generated_congruence

    def counted(x, pairs):
        calls[0] += 1
        return real(x, pairs)

    monkeypatch.setattr(algebras, "generated_congruence", counted)
    return calls


def test_inner_automorphism_principal_congruences_match_generation(monkeypatch):
    members = corpus("quandles", 5).algebras
    expected = [{pair: generated_congruence(x, [pair]).ids
                 for pair in itertools.combinations(range(x.size), 2)} for x in members]
    calls = count_generations(monkeypatch)
    assert [algebras._principal_ids(x) for x in members] == expected
    # one generation per orbit of the right translations on pairs, not 272
    assert calls[0] == 125


def test_right_translations_of_quandles_are_automorphisms():
    for x in corpus("quandles", 5).algebras:
        for b in range(x.size):
            assert homomorphism(x, x, x.tables[0][b::x.size]).surjective


def test_untagged_quandle_tables_take_the_all_pairs_path(monkeypatch):
    members = corpus("quandles", 5).algebras
    calls = count_generations(monkeypatch)
    for x in members:
        untagged = FiniteAlgebra(x.size, x.sig, x.tables)
        calls[0] = 0
        lattice = con_lattice.__wrapped__(untagged)
        assert calls[0] == x.size * (x.size - 1) // 2
        assert [r.ids for r in lattice] == [r.ids for r in con_lattice(x)]


@pytest.mark.parametrize("kind,size", CORPORA)
def test_every_join_matches_malcev_join(kind, size):
    for x in corpus(kind, size).algebras:
        lattice = list(con_lattice(x))
        for r in lattice:
            for s in lattice:
                assert join(r, s) == oracles.malcev_join(r, s)


@pytest.mark.parametrize("kind,size", CORPORA)
def test_every_image_matches_propagated_image(kind, size):
    for f in oracles.surjections_in(corpus(kind, size)):
        for r in con_lattice(f.dom):
            assert image_congruence(f, r) == oracles.propagated_image(f, r)


# --- surjections by kernel ----------------------------------------------------------

def generated_group(x, gens) -> set:
    """The maps of the automorphisms of x that ``gens`` generate, by composing
    until nothing new appears."""
    group = {identity_hom(x)}
    while True:
        grown = group | {compose(g, h) for g in gens for h in group}
        if grown == group:
            return {h.map for h in group}
        group = grown


def kernel(f) -> tuple[int, ...]:
    """ker f as block ids numbered by first occurrence."""
    first = {}
    return tuple(first.setdefault(y, len(first)) for y in f.map)


def composites(x, maps) -> dict:
    """(codomain, kernel) -> one composite of ``maps`` out of x, the identity included."""
    seen, todo = {identity_hom(x)}, [identity_hom(x)]
    while todo:
        h = todo.pop()
        for k in (compose(g, h) for g in maps if g.dom == h.cod):
            if k not in seen:
                seen.add(k)
                todo.append(k)
    return {(h.cod, kernel(h)): h for h in seen}


@pytest.mark.parametrize("make_universe", [
    lambda: corpus("quandles", 5),
    lambda: corpus("groups", 12),
    lambda: corpus("rngs", 24),
    universe_with_copies,
], ids=["quandles5", "groups12", "rngs24", "copies"])
def test_generating_maps_generate_every_surjection(make_universe):
    u = make_universe()
    gens = generating_maps(u)
    quotients = [g for g in gens if g.dom != g.cod]
    for x in u.algebras:
        kept = [a for a in gens if a.dom == x and a.cod == x]
        assert generated_group(x, kept) == {a.map for a in automorphisms(x)}
        built = composites(x, quotients)
        for g in (g for gs in quotient_maps(u).values() for g in gs if g.dom == x):
            h = built[g.cod, kernel(g)]
            assert any(compose(a, h) == g for a in automorphisms(g.cod))


def test_generating_maps_are_fewer_than_the_naturality_maps():
    u = corpus("quandles", 5)
    gens = generating_maps(u)
    assert set(gens) <= set(naturality_maps(u))
    # (all, automorphisms) of each list
    assert (len(gens), sum(f.dom == f.cod for f in gens)) == (139, 71)
    assert (len(naturality_maps(u)), sum(f.dom == f.cod for f in naturality_maps(u))) == (612, 379)


def test_generating_maps_are_all_homs_off_quotient_closed_universes():
    u = universe([cyclic_group(4), klein_four_group(), cyclic_group(2)])
    assert generating_maps(u) is naturality_maps(u)


@pytest.mark.parametrize("make_universe", [
    lambda: corpus("quandles", 6),
    lambda: corpus("groups", 12),
    lambda: corpus("rngs", 24),
    universe_with_copies,
], ids=["quandles6", "groups12", "rngs24", "copies"])
def test_automorphism_generators_generate_the_automorphism_group(make_universe):
    # the stabiliser chain against the full list, and the greedy selection it replaced
    for x in make_universe().algebras:
        group = {a.map for a in automorphisms(x)}
        gens = automorphism_generators(x)
        assert all(g.dom == g.cod == x for g in gens)
        assert oracles.permutation_group(x.size, [g.map for g in gens]) == group
        greedy = oracles.greedy_automorphism_generators(x)
        assert oracles.permutation_group(x.size, [a.map for a in greedy]) == group


def test_surjections_are_quotient_maps_followed_by_automorphisms():
    for u in [corpus(kind, size) for kind, size in CORPORA] + [universe_with_copies()]:
        maps = [g for gs in quotient_maps(u).values() for g in gs]
        for x in u.algebras:
            for y in u.algebras:
                built = {compose(a, g) for g in maps if g.dom == x and g.cod == y
                         for a in automorphisms(y)}
                assert built == set(enumerate_surjections(x, y))


def assert_real_failure(c, check, witness):
    """The witness names a surjection between members that breaks ``check``."""
    u = c.universe
    f = homomorphism(u.algebras[witness["dom"]], u.algebras[witness["cod"]], witness["map"])
    assert f.surjective
    i, j = witness["dom"], witness["cod"]
    if check is is_cohereditary:
        s = congruence_from_blocks(f.cod, witness["S"])
        assert c.apply(i, preimage_congruence(f, s)) != preimage_congruence(f, c.apply(j, s))
    else:
        r = congruence_from_blocks(f.dom, witness["R"])
        assert image_congruence(f, c.apply(i, r)) != c.apply(j, image_congruence(f, r))


SEARCHED = {is_cohereditary: oracles.searched_is_cohereditary,
            preserves_cocartesian: oracles.searched_preserves_cocartesian}


def surjection_verdicts(c) -> tuple[bool, ...]:
    """Both checks along the quotient maps, against the surjection scans."""
    out = []
    for check, searched in SEARCHED.items():
        got, expected = check(c), searched(c)
        assert got.ok == expected.ok
        if not got.ok:
            assert set(got.witness) == set(expected.witness)
            assert_real_failure(c, check, got.witness)
        out.append(got.ok)
    return tuple(out)


def test_surjection_checks_on_enumerated_operators():
    universes = [universe_from_generators([g]) for g in corpus("groups", 4).algebras]
    universes.append(universe([cyclic_group(4), klein_four_group(), cyclic_group(2)]))
    universes.append(universe_with_copies())
    counts = [(len(ops), *map(sum, zip(*map(surjection_verdicts, ops))))
              for ops in map(enumerate_operators, universes)]
    # (operators, cohereditary, preserving) for Z1, Z2, Z3, V4, Z4, {Z4, V4, Z2}
    # and the universe with copies
    assert counts == [(1, 1, 1), (2, 2, 2), (2, 2, 2), (4, 3, 2), (7, 5, 3), (5, 4, 3),
                      (7, 5, 3)]


def operator_universes():
    """The group universes up to order 8, {Z4, V4, Z2} and the one with copies."""
    universes = [universe_from_generators([g]) for g in corpus("groups", 8).algebras]
    universes.append(universe([cyclic_group(4), klein_four_group(), cyclic_group(2)]))
    universes.append(universe_with_copies())
    return universes


# Quandle universes whose members have many automorphisms: T3's quotients (Aut S3)
# and those of a 4-element quandle with 8 automorphisms.
QUANDLE_GENERATORS = [
    lambda: trivial_quandle(3),
    lambda: next(q for q in corpus("quandles", 4).algebras
                 if q.tables[0] == (0, 0, 1, 1, 1, 1, 0, 0, 3, 3, 2, 2, 2, 2, 3, 3)),
]


def test_naturality_verdicts_on_quandle_universes():
    counts = [verdict_counts(universe_from_generators([make()])) for make in QUANDLE_GENERATORS]
    assert counts == [(80, 4), (1080, 25)]


def test_surjection_checks_on_enumerated_operators_of_quandle_universes():
    for make in QUANDLE_GENERATORS:
        u = universe_from_generators([make()])
        ops = enumerate_operators(u)
        assert [(c.name, c.rows) for c in ops] == [
            (c.name, c.rows) for c in oracles.generate_and_test_operators(u)]
        for c in ops:
            assert_tables_match_oracles(c)


def _random_monotone_tables(data, u):
    """Random monotone extensive tables: each C(R), finer R first, is drawn
    above R and above C of every congruence below R; keys in ``con_lattice`` order."""
    tables = []
    for x in u.algebras:
        lattice = list(con_lattice(x))
        table = {}
        for r in sorted(lattice, key=lambda r: -r.n_blocks):
            floor = r
            for below, c in table.items():
                if leq(below, r):
                    floor = join(floor, c)
            table[r] = data.draw(st.sampled_from([s for s in lattice if leq(floor, s)]))
        tables.append({r: table[r] for r in lattice})
    return tables


def t4_universe():
    """The trivial quandles T1..T4: Aut(T4) is S4, and every partition is a congruence."""
    return universe_from_generators([trivial_quandle(4)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_naturality_verdicts_on_random_monotone_tables_under_s4(data):
    natural_verdict(t4_universe(), _random_monotone_tables(data, t4_universe()))


def test_checks_match_oracles_on_builtin_operators_under_s4():
    u = t4_universe()
    for name in corpus_operators("quandles"):
        assert_tables_match_oracles(builtin_operator(name, u))


def test_operator_search_matches_generate_and_test():
    for u in operator_universes():
        expected = [(c.name, c.rows) for c in oracles.generate_and_test_operators(u)]
        assert [(c.name, c.rows) for c in enumerate_operators(u)] == expected


@pytest.mark.parametrize("kind,size", CORPORA)
def test_surjection_checks_on_builtin_operators(kind, size):
    u = corpus(kind, size)
    for name in corpus_operators(kind):
        surjection_verdicts(builtin_operator(name, u))


# --- integer tables against the checks on Congruence objects -------------------------

TABLE_CHECKS = {is_idempotent: oracles.is_idempotent,
                is_cohereditary: oracles.is_cohereditary,
                is_minimal: oracles.is_minimal,
                preserves_cocartesian: oracles.preserves_cocartesian}


def assert_tables_match_oracles(c):
    """Equal verdicts and witnesses from the table checks and the oracles."""
    u = c.universe
    tables = [{r: c.apply(i, r) for r in con_lattice(x)} for i, x in enumerate(u.algebras)]
    assert oracles.naturality_witness(u, tables) is None
    for check, oracle in TABLE_CHECKS.items():
        assert check(c) == oracle(c)
    if u.quotient_closed:
        rho = tuple(c.apply(i, diagonal(x)) for i, x in enumerate(u.algebras))
        assert derivation(lambda: closure_from_reflector(Reflector(u, c.name, rho))) == \
            derivation(lambda: make_operator(u, oracles.pullback_rule(u, rho), c.name))


def derivation(build):
    """The rows of ``build()``, or the type, message and witness of what it raises."""
    try:
        return build().rows
    except CongformError as exc:
        return type(exc).__name__, str(exc), exc.witness


def test_table_checks_match_oracles_on_enumerated_operators():
    for u in operator_universes():
        for c in enumerate_operators(u):
            assert_tables_match_oracles(c)


def test_minimality_check_matches_the_pairwise_scan():
    # enumerated operators, then the built-ins at the default and the largest sizes
    ops = [c for u in operator_universes() for c in enumerate_operators(u)]
    for kind in CORPUS_KINDS:
        for size in (corpus_kind(kind).default_size, corpus_kind(kind).limit):
            u = corpus(kind, size)
            ops.extend(builtin_operator(name, u) for name in corpus_operators(kind))
    verdicts = Counter()
    for c in ops:
        got = is_minimal(c)
        assert got == oracles.pairwise_is_minimal(c)
        verdicts[got.ok] += 1
    assert verdicts[True] and verdicts[False]


def test_operator_order_matches_the_oracle_on_enumerated_operators():
    verdicts = Counter()
    for u in operator_universes():
        ops = enumerate_operators(u)
        for c1, c2 in itertools.product(ops, repeat=2):
            got = operator_leq(c1, c2)
            assert got == oracles.operator_leq(c1, c2)
            verdicts[got.ok] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("kind,size", CORPORA)
def test_table_checks_match_oracles_on_builtin_operators(kind, size):
    u = corpus(kind, size)
    for name in corpus_operators(kind):
        assert_tables_match_oracles(builtin_operator(name, u))


def test_fibration_tables_match_the_union_find_oracles():
    for u in operator_universes() + [corpus("rngs", 12), corpus("quandles", 4)]:
        fib = fibration(u)
        for i, (up, by_up) in enumerate(zip(fib.up, fib.by_up)):
            # the joins is_minimal reads: up(a v b) = up(a) & up(b)
            assert tuple(tuple(by_up[a & b] for b in up) for a in up) == oracles.join_table(fib, i)
        quotients = [g for gs in quotient_maps(u).values() for g in gs]
        for f in dict.fromkeys(naturality_maps(u) + tuple(quotients)):
            pull = oracles.pull_table(fib, f)
            assert fib.pull(f) == pull
            assert tuple(fib.pulled(f, k) for k in range(len(pull))) == pull
        for f in quotients:
            assert fib.image(f) == oracles.image_table(fib, f)


@pytest.mark.parametrize("kind,size", [(kind, corpus_kind(kind).default_size) for kind in CORPUS_KINDS]
                         + [("groups", 12), ("rngs", 24), ("quandles", 6)])
def test_fibration_order_matches_pairwise_leq(kind, size):
    fib = fibration(corpus(kind, size))
    for i, lattice in enumerate(fib.lattices):
        assert (fib.le[i], fib.up[i]) == oracles.pairwise_order(lattice)


def ternary_algebras():
    """One operation of arity 3, which ``generated_congruence`` propagates in
    its wide branch: x - y + z on Z4, and a random table on four elements
    that keeps the blocks {0, 1} and {2, 3}."""
    rng = random.Random(3)
    sig, cube = Signature((("m", 3),)), list(itertools.product(range(4), repeat=3))
    return [FiniteAlgebra(4, sig, (tuple((x - y + z) % 4 for x, y, z in cube),)),
            FiniteAlgebra(4, sig, (tuple(2 * ((x // 2 + y // 2 * (z // 2)) % 2) + rng.randrange(2)
                                         for x, y, z in cube),))]


def test_compatibility_matches_the_tuple_scan():
    # Each congruence, the partitions one merge or one split away from it,
    # and random partitions; every partition of the ternary algebras.
    rng = random.Random(16)
    cases = []
    for x in corpus("quandles", 5).algebras + corpus("groups", 8).algebras \
            + corpus("rngs", 12).algebras:
        for r in con_lattice(x):
            a, b = rng.randrange(x.size), rng.randrange(x.size)
            cases.append((x, r.ids))
            cases.append((x, tuple(r.ids[b] if k == r.ids[a] else k for k in r.ids)))
            cases.append((x, tuple(x.size if y == a else k for y, k in enumerate(r.ids))))
            cases.append((x, tuple(rng.randrange(x.size) for _ in range(x.size))))
    for x in ternary_algebras() + positional_ternary_algebras():
        if x.size <= 5:
            for ids in oracles.all_partitions(x.size):
                assert oracles.scan_is_compatible(x, ids) == oracles.partition_compatible(x, ids)
    # the definition-level check compares n^6 tuple pairs: past size 5 (about
    # 5 s on the middle-position algebra) only the tuple scan judges them
    for x in ternary_algebras() + positional_ternary_algebras():
        cases.extend((x, ids) for ids in oracles.all_partitions(x.size))
    verdicts = Counter()
    for x, ids in cases:
        got = algebras.is_compatible(x, ids)
        assert got == oracles.scan_is_compatible(x, ids)
        verdicts[got, x.sig.ops[0][1]] += 1
    assert verdicts[True, 3] and verdicts[False, 3] and verdicts[True, 2] and verdicts[False, 2]


# --- hom search and the universal property -----------------------------------------

def pointed_sets():
    """Sets with a constant and a permutation: unlike in groups and rngs,
    preserving the other operation does not force the constant's image."""
    sig = Signature((("c", 0), ("s", 1)))
    return universe(FiniteAlgebra(n, sig, ((c,), perm)) for n, c, perm in [
        (1, 0, (0,)), (2, 0, (0, 1)), (2, 1, (1, 0)), (3, 0, (0, 2, 1)), (3, 2, (1, 2, 0))])


def test_hom_searches_match_the_scan_and_brute_force():
    # brute force scans cod.size ** dom.size maps: only where that is small
    universes = [corpus(kind, corpus_kind(kind).default_size) for kind in CORPUS_KINDS]
    for u in universes + [universe_with_copies(), pointed_sets()]:
        for x in u.algebras:
            for y in u.algebras:
                homs = oracles.scan_hom_search(x, y, bijective=False, first_only=False)
                if y.size ** x.size <= 5 ** 5:
                    assert homs == oracles.brute_homs(x, y)
                assert [f.map for f in enumerate_homs(x, y)] == homs
                injective = [h for h in homs if len(set(h)) == x.size]
                embedding = find_embedding(x, y)
                assert (embedding and embedding.map) == (injective[:1] or [None])[0]
                if x.size != y.size:
                    continue
                isos = oracles.scan_hom_search(x, y, bijective=True, first_only=False)
                assert isos == injective
                assert oracles.scan_hom_search(x, y, bijective=True, first_only=True) == isos[:1]
                iso = find_isomorphism(x, y)
                assert (iso and iso.map) == (isos[:1] or [None])[0]
                if x == y:
                    assert [a.map for a in automorphisms(x)] == isos


@pytest.mark.parametrize("build", [lambda: corpus("quandles", 5), lambda: corpus("groups", 12),
                                   lambda: corpus("rngs", 24), pointed_sets],
                         ids=["quandles-5", "groups-12", "rngs-24", "pointed-sets"])
def test_find_embedding_matches_the_scan_and_keeps_the_profiles(build):
    # the least embedding is the scan's first injective hom, whether or not
    # the element counts refute it first, and it never lowers a count
    u = build()
    for x in u.algebras:
        for y in u.algebras:
            homs = oracles.scan_hom_search(x, y, bijective=False, first_only=False) \
                if x.size <= y.size else []
            embedding = find_embedding(x, y)
            assert (embedding and embedding.map) == \
                next((h for h in homs if len(set(h)) == x.size), None)
            if embedding is not None:
                px, py = algebras._embedding_profile(x), algebras._embedding_profile(y)
                assert all(a <= b for k, v in enumerate(embedding.map)
                           for a, b in zip(px[k], py[v]))


def reflector_verdict(u, rho) -> str:
    """make_reflector's verdict on ``rho``, against the oracle that tests every
    hom: the same dom, cod and rho, and a map that is a hom not factoring."""
    expected = oracles.hom_universal_property_witness(u, rho)
    try:
        make_reflector(u, rho, "candidate")
    except NotReflective as exc:
        witness = exc.witness
        if "dom" not in witness:  # found before the universal property
            return "leaves or lands outside"
        assert expected is not None
        assert {k: witness[k] for k in ("dom", "cod", "rho")} == \
            {k: expected[k] for k in ("dom", "cod", "rho")}
        i, j = witness["dom"], witness["cod"]
        f = homomorphism(u.algebras[i], u.algebras[j], witness["map"])
        assert not leq(rho[i], kernel_congruence(f))
        return "does not factor"
    assert expected is None
    return "passes"


def test_derived_closures_match_the_pullback_oracle_on_every_rho():
    # every family rho on the quotient-closed universes, reflective or not:
    # the same rows, or the same NotNatural message and witness
    outcomes = Counter()
    quandle_universes = [universe_from_generators([make()]) for make in QUANDLE_GENERATORS]
    for u in operator_universes() + quandle_universes:
        if not u.quotient_closed:
            continue
        for rho in itertools.product(*map(con_lattice, u.algebras)):
            got = derivation(lambda: closure_from_reflector(Reflector(u, "rho", rho)))
            assert got == derivation(lambda: make_operator(u, oracles.pullback_rule(u, rho), "rho"))
            outcomes[got[0] if isinstance(got[0], str) else "rows"] += 1
    assert outcomes == {"rows": 75, "NotNatural": 108}


def test_universal_property_matches_hom_enumeration():
    verdicts = Counter(reflector_verdict(u, [c.apply(i, diagonal(x))
                                             for i, x in enumerate(u.algebras)])
                       for u in operator_universes() for c in enumerate_operators(u))
    assert verdicts == {"leaves or lands outside": 48, "passes": 33, "does not factor": 46}


@pytest.mark.parametrize("members,outside", [
    ([1, 4, 8], 8),   # Z8/2Z8 = Z2 is no member and embeds in Z4
    ([1, 4, "V4"], 4),  # only Z4/2Z4 = Z2, no member, embeds in V4
    ([1, 3, 4, 12], 12),  # Z12/2Z12 embeds in Z4, but Z3 comes first
])
def test_universal_property_matches_hom_enumeration_off_quotient_closure(members, outside):
    u = universe(klein_four_group() if n == "V4" else cyclic_group(n) for n in members)
    rho = [full(x) if x == cyclic_group(outside) else diagonal(x) for x in u.algebras]
    assert reflector_verdict(u, rho) == "does not factor"


# --- table transport by flat index arrays -------------------------------------------

def test_relabeling_matches_the_per_entry_oracle():
    members = corpus("quandles", 4).algebras + corpus("groups", 6).algebras
    for a in members:
        for perm in itertools.permutations(range(a.size)):
            assert relabel_algebra(a, perm) == oracles.op_relabel_algebra(a, perm)


def test_quotient_matches_the_per_entry_oracle():
    for x in corpus("groups", 8).algebras + corpus("quandles", 4).algebras:
        for r in con_lattice(x):
            q, proj = quotient(x, r)
            assert q.tables == oracles.op_quotient_tables(x, r)
            assert q.size == r.n_blocks and proj.map == r.ids


# --- one predicate verdict per member against the quotient scan ---------------------

SIZE_PREDICATES = [
    SubcategoryPredicate("size==8", lambda a: a.size == 8),  # not closed under quotients
    SubcategoryPredicate("size<=2", lambda a: a.size <= 2),  # V4: the meet of its Z2s fails
]


def outcome(build):
    """What ``build()`` returns, or the message and witness of its ``NotReflective``."""
    try:
        return build()
    except NotReflective as exc:
        return str(exc), exc.witness


def assert_verdicts_match_quotient_scan(u, preds):
    for pred in preds:
        assert outcome(lambda: oracle_reflector(u, pred)) == \
            outcome(lambda: oracles.oracle_reflector(u, pred))
        assert closed_under_quotients(pred, u) == oracles.closed_under_quotients(pred, u)


@pytest.mark.parametrize("kind,size", [("quandles", 5), ("groups", 12), ("rngs", 24)])
def test_member_verdicts_match_the_quotient_scan(kind, size):
    u = corpus(kind, size)
    preds = [oracle_predicate(name) for name in corpus_operators(kind)]
    assert_verdicts_match_quotient_scan(u, preds + SIZE_PREDICATES)


def test_member_verdicts_match_the_quotient_scan_on_isomorphic_copies():
    u = universe_with_copies()
    # the quotient of the second copy of Z2 by its diagonal lands on the first
    assert {g.cod for g in quotient_maps(u)[diagonal(u.algebras[2])]} == set(u.algebras[1:3])
    preds = [oracle_predicate(name) for name in corpus_operators("groups")]
    assert_verdicts_match_quotient_scan(u, preds + SIZE_PREDICATES)


def universe_with_relabeled_and_untagged_copies():
    """Quandles up to size 4 and groups up to order 6, with a relabeled copy of
    every other member and an untagged copy of every third: several members
    share an ``_iso_invariant``, and the tag alone tells some apart."""
    tagged = [*corpus("quandles", 4).algebras, *corpus("groups", 6).algebras]
    relabeled = [relabel_algebra(a, list(range(a.size))[::-1]) for a in tagged[::2]]
    untagged = [FiniteAlgebra(a.size, a.sig, a.tables) for a in tagged[::3]]
    return universe(tagged + relabeled + untagged)


@pytest.mark.parametrize("build", [
    lambda: corpus("quandles", 6), lambda: corpus("groups", 12), lambda: corpus("rngs", 24),
    universe_with_relabeled_and_untagged_copies,
], ids=["quandles6", "groups12", "rngs24", "copies"])
def test_quotient_maps_match_the_all_members_scan(build):
    u = build()
    assert list(quotient_maps(u).items()) == list(oracles.scan_quotient_maps(u).items())


def test_quotient_maps_reach_several_members_of_one_bucket():
    maps = quotient_maps(universe_with_relabeled_and_untagged_copies())
    assert max(len(gs) for gs in maps.values()) >= 2


def test_failing_size_predicates_give_witnesses():
    u = corpus("groups", 12)
    eight, at_most_two = SIZE_PREDICATES
    assert not closed_under_quotients(eight, u)
    assert outcome(lambda: oracle_reflector(u, at_most_two))[1] == {
        "predicate": "size<=2", "meet": [[0], [1], [2], [3]]}


def counting_quotients(monkeypatch):
    calls = []
    original = reflection.quotient

    def counting(x, r):
        calls.append(r)
        return original(x, r)

    monkeypatch.setattr(reflection, "quotient", counting)
    return calls


def counting_predicate(pred):
    calls = []

    def accepts(a):
        calls.append(a)
        return pred(a)

    return SubcategoryPredicate(pred.name, accepts), calls


def test_oracle_reflector_tests_each_member_once(monkeypatch):
    u = corpus("quandles", 5)
    quotients = counting_quotients(monkeypatch)
    pred, calls = counting_predicate(oracle_predicate("quandle"))
    oracle_reflector(u, pred)
    assert (len(calls), len(quotients)) == (34, 0)


def test_off_quotient_closure_every_quotient_is_built_and_tested(monkeypatch):
    u = universe([cyclic_group(4), klein_four_group(), cyclic_group(2)])
    assert not u.quotient_closed
    quotients = counting_quotients(monkeypatch)
    pred, calls = counting_predicate(oracle_predicate("abelianization"))
    oracle_reflector(u, pred)
    # every congruence of every member, then each member's meet
    expected = sum(len(con_lattice(x)) + 1 for x in u.algebras)
    assert len(quotients) == len(calls) == expected
    assert_verdicts_match_quotient_scan(u, [oracle_predicate("abelianization")] + SIZE_PREDICATES)
