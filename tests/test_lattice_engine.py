"""Differential tests: the lattice-native engine against the code it replaced.

``make_operator`` checks naturality as monotonicity plus continuity,
``join`` is the equivalence closure of the union and ``image_congruence``
needs no operation propagation.  ``enumerate_operators`` builds
operators member by member and prunes on monotonicity and continuity.
Surjections are not searched for: they
are the quotient maps followed by automorphisms, and the laws are decided
along a generating set of them (``Universe.generating_maps``), against the scans of
the full lists in ``oracles``.  Each is compared here
with the general search it replaced, kept in ``oracles``: the (f, R, S)
lifting-law scan, the Mal'cev join, the propagated image, coheredity
and cocartesian preservation along every searched surjection, and
operator enumeration by generating and rejecting every extensive family.
``con_lattice`` joins each congruence found only with the principal
congruences not below it, on block-id arrays; the oracles join every pair,
or join ``Congruence`` objects with each principal one.  In quandles it
generates one principal congruence per orbit of the inner automorphisms,
shared by the whole orbit, from the <| table alone; the oracle generates
each from its own pair, reading both tables.
The operator checks read the universe's integer tables (``Universe``);
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
injective hom.  ``find_isomorphism`` searches only pairs whose sorted
element counts agree, and must give the scan's least bijection, and None
wherever the fingerprint it replaced (``oracles.counter_iso_invariant``)
tells the pair apart.  ``closure_from_reflector`` reads its rows off the
pull-back tables; the oracle pulls ``Congruence`` objects back
(``oracles.pullback_rule``) through ``make_operator``.  ``make_reflector`` checks the
universal property by factorisation through quotient maps and embeddings;
the oracle tests every hom into the subcategory.  ``relabel_algebra`` and
``quotient`` read each table along one flat index array; the oracles call
``FiniteAlgebra.op`` once per table entry.  ``oracle_reflector`` and
``closed_under_quotients`` test each member once and read X/R's verdict off
``quotient_maps``; the oracles build and test every X/R.
``is_natural_along_homs`` checks continuity along one embedding per image
between members; the oracle scans every hom that ``enumerate_homs`` finds.
``automorphism_generators`` reads generators off a stabiliser chain; they
must generate the group that ``automorphisms`` lists, as the greedy
selection it replaced does.  ``is_minimal`` checks each fibre against
C(diagonal) first; the oracle scans every pair of every fibre.
A failing coheredity, cocartesian or minimality check locates its witness
when it is first read; the oracles locate it at check time, and must name
the same one.  ``generating_maps`` keeps a member's automorphism generators
only where two of its congruences have the same block sizes; the oracle
keeps every member's, and must give the same verdicts and witnesses.
``universe_from_generators`` closes its seeds in the pass that finds the
quotient maps; the oracle closes them first and lets ``universe`` check the
closure in a second pass, and must give the same members and maps.
``Universe.covers`` finds each cover as a minimal join with a principal
congruence, read off the up-sets and pair masks; the oracles find them in the
dense order table that the up-sets replaced, and on every triple.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    Universe,
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
    is_natural_along_homs,
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
from congform import algebras, operators, reflection
from congform.algebras import (Congruence, FiniteAlgebra, Signature, _block_pairs,
                               automorphism_generators, quotient, relabel_algebra)
from congform.errors import CongformError, NotNatural, NotReflective, UniverseMismatch
from congform.instances import (CORPUS_KINDS, corpus_kind, corpus_operators, enumerate_quandles,
                                 oracle_predicate)
from congform.reflection import (Reflector, SubcategoryPredicate, closure_from_reflector,
                                 make_reflector, subcategory_members)

import oracles
from oracles import kernel_congruence, trivial_quandle


def assert_real_violation(u, tables, witness):
    """The witness names a map of the universe that breaks the lifting law."""
    x, y = u.algebras[witness["dom"]], u.algebras[witness["cod"]]
    f = homomorphism(x, y, witness["map"])
    assert f in enumerate_surjections(x, y)
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


def universe_with_copies():
    """Quotient-closed, with two isomorphic copies of Z2 as members."""
    z2_copy = relabel_algebra(cyclic_group(2), [1, 0])
    return universe([cyclic_group(4), cyclic_group(2), z2_copy, cyclic_group(1)])


def z4_v4_closure():
    """Z1, Z2, Z4 and V4: Z2 embeds in V4 three ways, each a subgroup of its own."""
    return universe_from_generators([cyclic_group(4), klein_four_group()])


def test_naturality_verdicts_on_a_universe_with_isomorphic_copies():
    assert verdict_counts(universe_with_copies()) == (24, 7)


def _random_extensive_tables(data, u):
    """Random extensive tables, keyed in ``con_lattice`` order."""
    return [{r: data.draw(st.sampled_from([s for s in con_lattice(x) if leq(r, s)]))
             for r in con_lattice(x)} for x in u.algebras]


RANDOM_UNIVERSES = [
    lambda: universe_from_generators([symmetric_group(3)]),
    lambda: universe_from_generators([klein_four_group()]),
    z4_v4_closure,
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

    def counted(ids, pairs, ops=()):
        if not ops:
            calls[0] += 1
            assert calls[0] <= bound, "joined more than each congruence with each principal one"
        return real(ids, pairs, ops)

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


def count_merges(monkeypatch, reading_tables: bool) -> list[int]:
    """Count ``_merge`` calls from here on, in the one-item list: generations,
    which read tables, or joins, which read none."""
    calls, real = [0], algebras._merge

    def counted(ids, pairs, ops=()):
        calls[0] += bool(ops) == reading_tables
        return real(ids, pairs, ops)

    monkeypatch.setattr(algebras, "_merge", counted)
    return calls


def test_inner_automorphism_principal_congruences_match_generation(monkeypatch):
    members = corpus("quandles", 5).algebras
    expected = [{pair: generated_congruence(x, [pair]).ids
                 for pair in itertools.combinations(range(x.size), 2)} for x in members]
    calls = count_merges(monkeypatch, reading_tables=True)
    assert [algebras._principal_ids(x) for x in members] == expected
    # one generation per orbit of the right translations on pairs, not 272
    assert calls[0] == 125


def quandle_with_lhd_inv_first(x):
    """x with its signature listed as (lhd_inv, lhd), as a user's file may."""
    sig = Signature(tuple(reversed(x.sig.ops)))
    return FiniteAlgebra(x.size, sig, tuple(reversed(x.tables)), x.tag)


def test_quandle_principal_congruences_from_lhd_alone_match_two_table_generation():
    # an equivalence respecting <| respects <|^-1, as sigma_b^-1 is a power of sigma_b
    for x in corpus("quandles", 6).algebras:
        lhd, diag = x.tables[0], tuple(range(x.size))
        expected = {pair: generated_congruence(x, [pair]).ids
                    for pair in itertools.combinations(range(x.size), 2)}
        assert {pair: algebras._merge(diag, [pair], [(2, lhd)]) for pair in expected} == expected
        swapped = quandle_with_lhd_inv_first(x)
        assert algebras._principal_ids(x) == algebras._principal_ids(swapped) == expected
        assert [r.ids for r in con_lattice.__wrapped__(swapped)] == [r.ids for r in con_lattice(x)]


@pytest.mark.parametrize("kind, size, joins, unskipped", [
    ("quandles", 5, 851, 1544), ("quandles", 6, 7782, 12860), ("groups", 12, 59, 174),
    ("rngs", 24, 101, 280)], ids=["quandles-5", "quandles-6", "groups-12", "rngs-24"])
def test_con_lattice_skips_the_joins_that_add_nothing(monkeypatch, kind, size, joins, unskipped):
    # one join per R other than the diagonal and principal P not below R, against
    # |Con(X)| joins per principal congruence when each congruence met each; the
    # lattices are the oracle's, which joins every congruence with every principal one
    members = corpus(kind, size).algebras
    principals = [set(algebras._principal_ids(x).values()) for x in members]
    calls = count_merges(monkeypatch, reading_tables=False)
    lattices = [con_lattice.__wrapped__(x) for x in members]
    assert calls[0] == sum(sum(not leq(Congruence(x, p), r) for p in ps)
                           for x, lattice, ps in zip(members, lattices, principals)
                           for r in lattice[:-1]) == joins
    assert sum(len(lat) * len(ps) for lat, ps in zip(lattices, principals)) == unskipped
    assert lattices == [oracles.principal_join_closure(x) for x in members]


def test_right_translations_of_quandles_are_automorphisms():
    for x in corpus("quandles", 5).algebras:
        for b in range(x.size):
            assert homomorphism(x, x, x.tables[0][b::x.size]).surjective


def test_untagged_quandle_tables_take_the_all_pairs_path(monkeypatch):
    members = corpus("quandles", 5).algebras
    calls = count_merges(monkeypatch, reading_tables=True)
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
    gens = u.generating_maps
    quotients = [g for g in gens if g.dom != g.cod]
    for x, lattice in zip(u.algebras, u.lattices):
        kept = [a for a in gens if a.dom == x and a.cod == x]
        # the kept automorphisms induce on Con(X) every permutation that Aut(X)
        # induces, the identity alone where none are kept
        induced = {u.pull(a) for a in automorphisms(x)}
        assert oracles.permutation_group(len(lattice), [u.pull(a) for a in kept]) == induced
        if kept:
            assert generated_group(x, kept) == {a.map for a in automorphisms(x)}
        built = composites(x, quotients)
        for g in (g for gs in quotient_maps(u).values() for g in gs if g.dom == x):
            h = built[g.cod, kernel(g)]
            assert any(compose(a, h) == g for a in automorphisms(g.cod))


def test_generating_maps_are_fewer_than_the_naturality_maps():
    u = corpus("quandles", 5)
    gens = u.generating_maps
    assert set(gens) <= set(u.naturality_maps)
    # (all, automorphisms) of each list
    assert (len(gens), sum(f.dom == f.cod for f in gens)) == (113, 45)
    assert (len(u.naturality_maps), sum(f.dom == f.cod for f in u.naturality_maps)) == (612, 379)


# --- automorphisms kept only where block sizes repeat; closing in one pass ----------

def relabeled_group_seeds() -> list:
    """Each group of order at most 12, then each relabeled by a seeded shuffle."""
    rng, groups = random.Random(41), corpus("groups", 12).algebras
    return [*groups, *(relabel_algebra(g, rng.sample(range(g.size), g.size)) for g in groups)]


def test_one_pass_closure_matches_the_two_pass_closure():
    # the same members, and the same quotient maps in the same order
    seed_lists = [[g] for g in relabeled_group_seeds()] + [
        list(corpus(kind, size).algebras) for kind, size in BIG_CORPORA] + [
        list(universe_with_copies().algebras),
        list(universe_with_relabeled_and_untagged_copies().algebras)]
    for seeds in seed_lists:
        new, old = universe_from_generators(seeds), oracles.two_pass_universe_from_generators(seeds)
        assert new == old
        assert list(quotient_maps(new).items()) == list(quotient_maps(old).items())


@pytest.mark.parametrize("build", [universe_from_generators, universe, Universe],
                         ids=["universe_from_generators", "universe", "Universe"])
def test_a_universe_needs_an_algebra(build):
    with pytest.raises(UniverseMismatch, match="^a universe needs at least one algebra$"):
        build(())


def joined_rows(u, rng) -> tuple:
    """C(R) = R v T, one random T per member: extensive and monotone rows."""
    rows = []
    for up, by_up in zip(u.up, u.by_up):
        t = rng.choice(up)
        rows.append(tuple(by_up[ua & t] for ua in up))
    return tuple(rows)


def natural_outcome(u, rows):
    """``_natural_operator``'s rows, or the message and witness of its ``NotNatural``."""
    try:
        return operators._natural_operator(u, "c", rows).rows
    except NotNatural as exc:
        return str(exc), exc.witness


def axiom_outcomes(ops) -> list:
    return [(c.name, c.rows, is_cohereditary(c).as_json(), preserves_cocartesian(c).as_json())
            for c in ops]


def builtins(*names):
    return lambda u: [builtin_operator(name, u) for name in names]


@pytest.mark.parametrize("cases", [
    lambda: [(universe_from_generators([g]), enumerate_operators) for g in relabeled_group_seeds()],
    lambda: [(corpus(kind, size), builtins(*corpus_operators(kind))) for kind, size in BIG_CORPORA],
    lambda: [(universe_with_copies(), enumerate_operators),
             (universe_with_relabeled_and_untagged_copies(), builtins("identity", "top"))],
], ids=["groups", "corpora", "copies"])
def test_skipping_unmoving_automorphisms_keeps_verdicts_and_witnesses(cases):
    # Against generating maps that keep every member's automorphism generators:
    # the same naturality verdicts and NotNatural witnesses on rows R v T, the
    # same operators built, and the same coheredity and cocartesian results.
    rng, broken, skipped = random.Random(41), 0, 0
    for u, build in cases():
        new, old = Universe(u.algebras), Universe(u.algebras)
        vars(old)["generating_maps"] = oracles.every_automorphism_generating_maps(old)
        for _ in range(30):
            rows = joined_rows(new, rng)
            verdict = natural_outcome(new, rows)
            assert verdict == natural_outcome(old, rows)
            broken += verdict != rows
        assert axiom_outcomes(build(new)) == axiom_outcomes(build(old))
        # by brute force: each automorphism of a member with none kept pulls
        # every congruence back to itself
        for x, lattice in zip(new.algebras, new.lattices):
            if not any(f.dom == f.cod == x for f in new.generating_maps):
                skipped += len(automorphisms(x)) > 1
                assert all(new.pull(a) == tuple(range(len(lattice))) for a in automorphisms(x))
    assert broken and skipped


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
    universes.append(z4_v4_closure())
    universes.append(universe_with_copies())
    counts = [(len(ops), *map(sum, zip(*map(surjection_verdicts, ops))))
              for ops in map(enumerate_operators, universes)]
    # (operators, cohereditary, preserving) for Z1, Z2, Z3, V4, Z4, the closure
    # of {Z4, V4} and the universe with copies
    assert counts == [(1, 1, 1), (2, 2, 2), (2, 2, 2), (4, 3, 2), (7, 5, 3), (17, 8, 3),
                      (7, 5, 3)]


def test_a_failing_check_builds_its_witness_once(monkeypatch):
    # the scans return positions, so only the reported failure's congruences
    # are written out as blocks: R and S of a NotNatural witness, and S or R,
    # lhs and rhs of a coheredity or cocartesian one, on the first read of
    # the witness and not at check time
    calls = []
    original = operators.congruence_to_blocks
    monkeypatch.setattr(operators, "congruence_to_blocks", lambda r: calls.append(r) or original(r))
    failures = Counter()
    for u in operator_universes():
        for family in itertools.islice(oracles.extensive_families(u), 200):
            calls.clear()
            try:
                make_operator(u, oracles.table_rule(u, list(family)), "candidate")
            except NotNatural:
                failures["natural"] += 1
                assert len(calls) == 2
        for c in enumerate_operators(u):
            for check in (is_cohereditary, preserves_cocartesian):
                calls.clear()
                result = check(c)
                failures[check.__name__] += not result.ok
                assert len(calls) == 0
                if not result.ok:
                    assert result.witness and len(calls) == 3
                    assert result.witness and len(calls) == 3
    assert failures["natural"] and failures["is_cohereditary"] and \
        failures["preserves_cocartesian"]


EAGER = {is_cohereditary: oracles.eager_is_cohereditary,
         preserves_cocartesian: oracles.eager_preserves_cocartesian,
         is_minimal: oracles.eager_is_minimal}


def deferred_failures(c) -> tuple[bool, ...]:
    """Per check of ``EAGER``, whether it fails on ``c``; each verdict and
    witness equal to the eager check's."""
    out = []
    for check, eager in EAGER.items():
        got, expected = check(c), eager(c)
        assert (got.ok, got.witness) == (expected.ok, expected.witness), (c, check.__name__)
        out.append(not got.ok)
    return tuple(out)


def test_deferred_witnesses_match_the_eager_scans():
    universes = [universe_from_generators([g]) for g in corpus("groups", 12).algebras]
    universes.append(z4_v4_closure())
    universes.append(universe_with_copies())
    enumerated = [c for u in universes for c in enumerate_operators(u)]
    builtins = [builtin_operator(name, corpus(kind, n))
                for kind, n in (("quandles", 6), ("groups", 12), ("rngs", 24))
                for name in corpus_operators(kind)]
    assert {c.name for c in builtins} == {"identity", "top", "quandle", "abelianization",
                                          "exp2-abelianization", "nilradical"}
    # (operators, not cohereditary, not preserving, not minimal)
    counts = [(len(ops), *map(sum, zip(*map(deferred_failures, ops))))
              for ops in (enumerated, builtins)]
    assert counts == [(845, 683, 790, 683), (10, 0, 0, 0)]


def test_the_census_pulls_along_generators_until_a_witness_is_read():
    # the census loop reads verdicts only, so a failing coheredity or
    # cocartesian check pulls congruences back along no quotient map
    # outside the generators; reading the witnesses scans the rest
    pulled_on_read = 0
    for g in corpus("groups", 8).algebras:
        u = universe_from_generators([g])
        idem = [c for c in enumerate_operators(u) if is_idempotent(c)]
        results = [is_cohereditary(c) for c in idem]
        cohered = [c for c, result in zip(idem, results) if result]
        results += [check(c) for c in cohered for check in (is_minimal, preserves_cocartesian)]
        assert set(u._pulls) <= set(u.generating_maps)
        for result in results:
            assert result.ok or result.witness
        pulled_on_read += len(set(u._pulls) - set(u.generating_maps))
    assert pulled_on_read


def operator_universes():
    """The group universes up to order 8, the closure of {Z4, V4} and the one
    with copies."""
    universes = [universe_from_generators([g]) for g in corpus("groups", 8).algebras]
    universes.append(z4_v4_closure())
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


# --- naturality along every hom against the all-hom scan -----------------------------

def assert_real_discontinuity(c, witness):
    """The witness names an embedding e between members and S with R = e*S
    but C(R) not <= e*C(S)."""
    u = c.universe
    i, j = witness["dom"], witness["cod"]
    e = homomorphism(u.algebras[i], u.algebras[j], witness["map"])
    assert len(set(e.map)) == e.dom.size < e.cod.size
    s = congruence_from_blocks(e.cod, witness["S"])
    r = preimage_congruence(e, s)
    assert r == congruence_from_blocks(e.dom, witness["R"])
    assert not leq(c.apply(i, r), preimage_congruence(e, c.apply(j, s)))


def hom_naturality_counts(u):
    """(operators, hom-natural, idempotent cohereditary, hom-natural among
    those) over ``enumerate_operators(u)``, each verdict checked against the
    scan of every hom."""
    rows = []
    for c in enumerate_operators(u):
        got = is_natural_along_homs(c)
        assert got.ok == oracles.is_natural_along_homs(c).ok
        if not got.ok:
            assert_real_discontinuity(c, got.witness)
        settled = bool(is_idempotent(c) and is_cohereditary(c))
        rows.append((1, got.ok, settled, settled and got.ok))
    return tuple(map(sum, zip(*rows)))


def test_naturality_along_homs_matches_the_all_hom_scan_on_group_universes():
    counts = [hom_naturality_counts(universe_from_generators([g]))
              for g in corpus("groups", 12).algebras]
    assert counts == [(1, 1, 1, 1), (2, 2, 2, 2), (2, 2, 2, 2), (4, 2, 3, 2), (7, 5, 4, 3),
                      (2, 2, 2, 2), (7, 3, 4, 3), (16, 4, 7, 4), (2, 2, 2, 2), (30, 3, 6, 3),
                      (42, 16, 8, 4), (7, 5, 4, 3), (7, 3, 4, 3), (16, 4, 7, 4), (2, 2, 2, 2),
                      (154, 3, 10, 3), (520, 10, 23, 6)]
    # the last is the closure of Z12: of 520 families natural along
    # surjections, 10 are natural along every hom, and 6 of the 23 idempotent
    # cohereditary ones
    assert corpus("groups", 12).algebras[-1] == cyclic_group(12)


def test_naturality_along_homs_matches_the_all_hom_scan_on_other_universes():
    # the closure of {Z4, V4}, then the two quandle universes
    counts = [hom_naturality_counts(u) for u in [z4_v4_closure()] + [
        universe_from_generators([make()]) for make in QUANDLE_GENERATORS]]
    assert counts == [(17, 5, 6, 3), (4, 2, 3, 2), (25, 11, 6, 4)]


def test_naturality_along_homs_fails_along_the_embedding_of_z2_in_z4():
    # {Z1, Z2, Z4}: the subcategories of op2 and op5 hold Z4 but not Z2, so
    # the embedding Z2 -> Z4 does not factor through Z2 -> Z1
    u = universe_from_generators([cyclic_group(4)])
    failures = {c.name: is_natural_along_homs(c).witness for c in enumerate_operators(u)
                if not is_natural_along_homs(c)}
    assert failures == {name: {"dom": 1, "cod": 2, "map": [0, 2], "R": [[0], [1]],
                               "S": [[0], [1], [2], [3]]} for name in ("op2", "op5")}


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


def test_monotonicity_on_covers_matches_the_pair_scan():
    # every extensive row of every fibre: the candidates of enumerate_operators
    verdicts = Counter()
    for u in operator_universes():
        for lattice, covers, up in zip(u.lattices, u.covers, u.up):
            above = [[b for b in range(len(up)) if ua >> b & 1] for ua in up]
            for row in itertools.product(*above):
                got = operators._monotone(covers, up, row)
                table = {r: lattice[b] for r, b in zip(lattice, row)}
                assert got == (oracles.non_monotone(table) is None)
                verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


def t4_universe():
    """The trivial quandles T1..T4: Aut(T4) is S4, and every partition is a congruence."""
    return universe_from_generators([trivial_quandle(4)])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_naturality_verdicts_on_random_monotone_tables_under_s4(data):
    natural_verdict(t4_universe(), _random_monotone_tables(data, t4_universe()))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_monotonicity_on_covers_matches_the_pair_scan_on_random_tables(data):
    # each random monotone table, and the table with one value moved to a
    # random congruence above its argument, which may break monotonicity
    u = t4_universe()
    for i, table in enumerate(_random_monotone_tables(data, u)):
        lattice = u.lattices[i]
        r = data.draw(st.sampled_from(lattice))
        bent = {**table, r: data.draw(st.sampled_from([s for s in lattice if leq(r, s)]))}
        for t in (table, bent):
            row = tuple(u.by_ids[i][t[s].ids] for s in lattice)
            got = operators._monotone(u.covers[i], u.up[i], row)
            assert got == (oracles.non_monotone(t) is None)


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
        for i, (up, by_up) in enumerate(zip(u.up, u.by_up)):
            # the joins is_minimal reads: up(a v b) = up(a) & up(b)
            assert tuple(tuple(by_up[a & b] for b in up) for a in up) == oracles.join_table(u, i)
        quotients = [g for gs in quotient_maps(u).values() for g in gs]
        for f in dict.fromkeys(u.naturality_maps + tuple(quotients)):
            assert u.pull(f) == oracles.pull_table(u, f)
        for f in quotients:
            i, j = u.lookup(f.dom), u.lookup(f.cod)
            assert u.image(i, j, u.pull(f)) == oracles.image_table(u, f)
        assert [(i, j, e) for i, j, e, _ in u.embeddings] == oracles.first_embeddings(u)
        for i, j, e, pull in u.embeddings:
            assert pull == oracles.pull_table(u, e)
        # the coordinates the checks read, against look-ups by hashed keys
        assert (u.diagonal, u.generators, u.images, u.quotients) == oracles.hashed_coordinates(u)
        assert u.covers == tuple(map(oracles.scanned_covers, oracles.dense_order(u)))
        assert u.generating_maps == oracles.summed_generating_maps(u)


@pytest.mark.parametrize("kind,size", [(kind, corpus_kind(kind).default_size) for kind in CORPUS_KINDS]
                         + [("groups", 12), ("rngs", 24), ("quandles", 6)])
def test_fibration_order_matches_pairwise_leq(kind, size):
    u = corpus(kind, size)
    for i, (lattice, le) in enumerate(zip(u.lattices, oracles.dense_order(u))):
        assert (le, u.up[i]) == oracles.pairwise_order(lattice)
        # canonical ids sort the diagonal last
        assert lattice[u.diagonal[i]] == diagonal(lattice[0].algebra)


def operation_free_universe(n):
    """The operation-free algebras of sizes 1..n: Con of size k is the whole
    partition lattice, with Bell(k) elements."""
    return universe(FiniteAlgebra(k, Signature(()), ()) for k in range(1, n + 1))


@pytest.mark.parametrize("kind", CORPUS_KINDS + ("operation-free",))
def test_covers_match_the_dense_and_scanned_oracles(kind):
    # every corpus at its largest size, and the partition lattices up to
    # Bell(7) = 877: the covers read off the pair masks, those of the dense
    # order table and those of every triple
    u = (operation_free_universe(7) if kind == "operation-free"
         else corpus(kind, corpus_kind(kind).limit))
    le = oracles.dense_order(u)
    assert u.covers == tuple(map(oracles.dense_covers, u.up, le))
    assert u.covers == tuple(map(oracles.scanned_covers, le))


def stirling2(n, k):
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1) if n and k else int(n == k)


@pytest.mark.parametrize("n,count", [(7, 5_856), (8, 34_193)])
def test_partition_lattice_covers_have_the_closed_form_count(n, count):
    # a partition with k blocks has C(k, 2) upper covers, one per pair of
    # blocks merged, and S(m, k) partitions of m points have k blocks
    assert count == sum(stirling2(m, k) * math.comb(k, 2)
                        for m in range(1, n + 1) for k in range(1, m + 1))
    assert sum(map(len, operation_free_universe(n).covers)) == count


@pytest.mark.parametrize("kind,size", [("quandles", 3), ("quandles", 4), ("quandles", 5),
                                       ("quandles", 6), ("groups", 8), ("groups", 12),
                                       ("rngs", 12), ("rngs", 24)])
def test_pair_masks_hold_exactly_the_relating_congruences(kind, size):
    u = corpus(kind, size)
    for x, lattice, masks in zip(u.algebras, u.lattices, u.pair_masks):
        n = x.size
        assert len(masks) == n * n
        for a, b in itertools.product(range(n), repeat=2):
            assert masks[a * n + b] == sum(1 << k for k, r in enumerate(lattice)
                                           if r.together(a, b)), (x, a, b)


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


# --- isomorphism invariants, occurrence lists and the search for one's self ---------

BIG_CORPORA = (("quandles", 6), ("groups", 12), ("rngs", 24))


def big_corpus_members() -> list:
    return [a for kind, size in BIG_CORPORA for a in corpus(kind, size).algebras]


def assert_occurrences_match_the_replaced_code(a):
    occurrences = algebras._occurrences.__wrapped__(a.size, a.sig)
    assert [[(t, a.tables[k][i], k) for t, i, k in entries] for entries in occurrences] == \
        list(map(list, oracles.product_walk_occurrences(a)))


def test_invariants_and_occurrences_match_the_replaced_code():
    # every member of the largest corpora and every table the quandle search
    # emits up to size 6
    searched = [oracles.quandle_algebra(t) for n in range(1, 7) for t in enumerate_quandles(n)]
    for a in big_corpus_members() + searched:
        assert_occurrences_match_the_replaced_code(a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invariants_and_occurrences_match_the_replaced_code_on_relabelings(data):
    a = data.draw(st.sampled_from(big_corpus_members()))
    b = relabel_algebra(a, data.draw(st.permutations(range(a.size))))
    assert_occurrences_match_the_replaced_code(b)
    assert algebras._iso_invariant(b) == algebras._iso_invariant(a)


@pytest.mark.parametrize("kind, size, pairs, separated", [
    ("quandles", 5, 51, 10), ("quandles", 6, 231, 86), ("groups", 12, 18, 0),
    ("rngs", 24, 24, 0)], ids=["quandles-5", "quandles-6", "groups-12", "rngs-24"])
def test_isomorphism_search_matches_the_scan_on_the_compared_pairs(monkeypatch, kind, size,
                                                                    pairs, separated):
    # every (X/K, member) pair the closure check hands to find_isomorphism, bucketed
    # by the sorted element counts: the scan's least bijection, and None wherever
    # the fingerprint it replaced tells the two apart.  Each distinct X/K is
    # matched once, so no pair is handed over twice.
    u, compared = corpus(kind, size), []
    monkeypatch.setattr(operators, "find_isomorphism",
                        lambda q, m: compared.append((q, m)) or find_isomorphism(q, m))
    operators._quotient_maps(list(u.algebras), u._buckets)
    told_apart = 0
    assert len(set(compared)) == len(compared)
    for q, m in compared:
        iso = find_isomorphism(q, m)
        assert (iso and iso.map) == \
            next(iter(oracles.scan_hom_search(q, m, bijective=True, first_only=True)), None)
        if oracles.counter_iso_invariant(q) != oracles.counter_iso_invariant(m):
            assert iso is None
            told_apart += 1
    assert (len(compared), told_apart) == (pairs, separated)


def test_an_algebra_is_its_own_least_isomorphism_without_a_search():
    # the identity that equal tables return is the map the search finds first
    for a in big_corpus_members():
        searched = next(algebras._hom_search(a, a, injective=True))
        assert find_isomorphism(a, a).map == searched == tuple(range(a.size))


def test_first_map_searches_draw_one_map(monkeypatch):
    # find_embedding and automorphism_generators keep the first map of each
    # search, and read the search no further than that map
    original, drawn, found = algebras._hom_search, [], []

    def counting(*args, **kwargs):
        found.append(sum(1 for _ in original(*args, **kwargs)))
        drawn.append(0)
        for m in original(*args, **kwargs):
            drawn[-1] += 1
            yield m

    monkeypatch.setattr(algebras, "_hom_search", counting)
    assert find_embedding(cyclic_group(2), klein_four_group()).map == (0, 1)
    for x in (klein_four_group(), symmetric_group(3), trivial_quandle(4)):
        assert automorphism_generators.__wrapped__(x)
    assert drawn == [min(n, 1) for n in found]
    assert found[0] == 3 and max(found) > 1


# --- hom search and the universal property -----------------------------------------

def pointed_sets():
    """Sets with a constant and a permutation: unlike in groups and rngs,
    preserving the other operation does not force the constant's image."""
    sig = Signature((("c", 0), ("s", 1)))
    return [FiniteAlgebra(n, sig, ((c,), perm)) for n, c, perm in [
        (1, 0, (0,)), (2, 0, (0, 1)), (2, 1, (1, 0)), (3, 0, (0, 2, 1)), (3, 2, (1, 2, 0))]]


def test_hom_searches_match_the_scan_and_brute_force():
    # brute force scans cod.size ** dom.size maps: only where that is small
    member_lists = [corpus(kind, corpus_kind(kind).default_size).algebras for kind in CORPUS_KINDS]
    for members in member_lists + [universe_with_copies().algebras, pointed_sets()]:
        for x in members:
            for y in members:
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


@pytest.mark.parametrize("build", [lambda: corpus("quandles", 5).algebras,
                                   lambda: corpus("groups", 12).algebras,
                                   lambda: corpus("rngs", 24).algebras, pointed_sets],
                         ids=["quandles-5", "groups-12", "rngs-24", "pointed-sets"])
def test_find_embedding_matches_the_scan_and_keeps_the_profiles(build):
    # the least embedding is the scan's first injective hom, whether or not
    # the element counts refute it first, and it never lowers a count
    members = build()
    for x in members:
        for y in members:
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


def test_derived_closures_match_the_pullback_oracle_on_every_rho(monkeypatch):
    # every family rho on the quotient-closed universes, reflective or not:
    # the same rows, or the same NotNatural message and witness; and every
    # derived row, natural or not, is extensive, as g*(S) contains ker g = R
    outcomes, derived = Counter(), []
    real = reflection._natural_operator
    monkeypatch.setattr(reflection, "_natural_operator",
                        lambda u, name, rows: derived.append((u, rows)) or real(u, name, rows))
    quandle_universes = [universe_from_generators([make()]) for make in QUANDLE_GENERATORS]
    for u in operator_universes() + quandle_universes:
        for rho in itertools.product(*map(con_lattice, u.algebras)):
            got = derivation(lambda: closure_from_reflector(Reflector(u, "rho", rho)))
            assert got == derivation(lambda: make_operator(u, oracles.pullback_rule(u, rho), "rho"))
            outcomes[got[0] if isinstance(got[0], str) else "rows"] += 1
    assert outcomes == {"rows": 83, "NotNatural": 130}
    assert len(derived) == 213
    assert all(u.up[i][a] >> b & 1 for u, rows in derived
               for i, row in enumerate(rows) for a, b in enumerate(row))


def test_universal_property_matches_hom_enumeration():
    verdicts = Counter(reflector_verdict(u, [c.apply(i, diagonal(x))
                                             for i, x in enumerate(u.algebras)])
                       for u in operator_universes() for c in enumerate_operators(u))
    assert verdicts == {"leaves or lands outside": 51, "passes": 34, "does not factor": 54}


def test_membership_matches_apply_on_enumerated_operators():
    # each operator, and the reflector of its closed diagonals: the closed diagonals and
    # the subcategory members against apply and rho_of
    verdicts = Counter()
    for u in operator_universes():
        for c in enumerate_operators(u):
            rho = tuple(c.apply(i, diagonal(x)) for i, x in enumerate(u.algebras))
            for ref in (c, Reflector(u, c.name, rho)):
                expected = [oracles.apply_membership(ref, x) for x in u.algebras]
                assert reflection._closed_diagonals(ref) == expected
                assert subcategory_members(ref) == tuple(itertools.compress(u.algebras, expected))
                verdicts.update(expected)
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("members,outside", [([1, 4, 8], 8), ([1, 4, "V4"], 4), ([1, 3, 4, 12], 12)])
def test_universal_property_matches_hom_enumeration_off_quotient_closure(members, outside):
    # the quotient closure of members that are not closed: rho is full on one
    # member and the diagonal on the others, which are then all in the
    # subcategory; the first map out of that member that does not factor is
    # the one onto Z2, member 1, which is not among the members listed
    u = universe_from_generators(klein_four_group() if n == "V4" else cyclic_group(n)
                                 for n in members)
    rho = [full(x) if x == cyclic_group(outside) else diagonal(x) for x in u.algebras]
    assert reflector_verdict(u, rho) == "does not factor"
    with pytest.raises(NotReflective) as exc:
        make_reflector(u, rho, "candidate")
    assert (exc.value.witness["cod"], exc.value.witness["map"]) == (1, [0, 1] * (outside // 2))


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
    lattices = u.lattices
    for pred in preds:
        hashed = oracles.hashed_quotient_verdict(u, pred)
        assert [[accepts(a) for a in range(len(lattice))] for accepts, lattice
                in zip(reflection._quotient_verdicts(u, pred), lattices)] == \
            [[hashed(r) for r in lattice] for lattice in lattices]
        assert outcome(lambda: oracle_reflector(u, pred)) == \
            outcome(lambda: oracles.oracle_reflector(u, pred))
        assert closed_under_quotients(pred, u) == oracles.closed_under_quotients(pred, u)


@pytest.mark.parametrize("kind,size", [("quandles", 5), ("groups", 12), ("rngs", 24)])
def test_member_verdicts_match_the_quotient_scan(kind, size):
    u = corpus(kind, size)
    preds = [oracle_predicate(name) for name in corpus_operators(kind)]
    assert_verdicts_match_quotient_scan(u, preds + SIZE_PREDICATES)


@pytest.mark.parametrize("kind,size", [("quandles", 6), ("groups", 12), ("rngs", 24)])
def test_least_accepted_matches_the_reduced_meet(kind, size):
    # the oracle's meet is one relabeling of the tuples of block ids; the
    # replaced code reduced the accepted congruences with ``meet``
    u = corpus(kind, size)
    preds = [oracle_predicate(name) for name in corpus_operators(kind)] + SIZE_PREDICATES + [
        SubcategoryPredicate("size<=3", lambda a: a.size <= 3),
        SubcategoryPredicate("nothing", lambda a: False)]
    refusals = Counter()
    for pred in preds:
        for lattice, accepts, by_ids in zip(u.lattices, reflection._quotient_verdicts(u, pred),
                                            u.by_ids):
            got, expected = (outcome(lambda: least(pred.name, lattice, accepts, by_ids))
                             for least in (reflection._least_accepted,
                                           oracles.reduced_least_accepted))
            assert got == expected, (pred.name, lattice[0].algebra)
            if isinstance(got, tuple):
                refusals["meet" if "meet" in got[1] else "none"] += 1
    assert refusals["meet"] and refusals["none"]


def test_member_verdicts_match_the_quotient_scan_on_isomorphic_copies():
    u = universe_with_copies()
    # the quotient of the second copy of Z2 by its diagonal lands on the first
    assert {g.cod for g in quotient_maps(u)[diagonal(u.algebras[2])]} == set(u.algebras[1:3])
    preds = [oracle_predicate(name) for name in corpus_operators("groups")]
    assert_verdicts_match_quotient_scan(u, preds + SIZE_PREDICATES)


def universe_with_relabeled_and_untagged_copies():
    """Quandles up to size 4 and groups up to order 6, with a relabeled copy of
    every other member and an untagged copy of every third, closed under
    quotients by the untagged quotients of those: several members share an
    ``_iso_invariant``, and the tag alone tells some apart."""
    tagged = [*corpus("quandles", 4).algebras, *corpus("groups", 6).algebras]
    relabeled = [relabel_algebra(a, list(range(a.size))[::-1]) for a in tagged[::2]]
    untagged = universe_from_generators(FiniteAlgebra(a.size, a.sig, a.tables)
                                        for a in tagged[::3]).algebras
    return universe(tagged + relabeled + list(untagged))


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
