import gc
import random
import weakref

import pytest

from congform import (
    Universe,
    builtin_operator,
    con_lattice,
    congruence_from_blocks,
    corpus,
    cyclic_group,
    diagonal,
    dihedral_group,
    enumerate_operators,
    full,
    is_cohereditary,
    is_idempotent,
    is_minimal,
    klein_four_group,
    leq,
    make_operator,
    operator_leq,
    operator_report,
    preserves_cocartesian,
    symmetric_group,
    universe,
    universe_from_generators,
)
from congform import algebras, operators
from congform.algebras import (
    FiniteAlgebra,
    Signature,
    _iso_invariant,
    find_embedding,
    find_isomorphism,
    identity_hom,
    relabel_algebra,
)
from congform.errors import (
    FibreMismatch,
    NotExtensive,
    NotNatural,
    SizeTooLarge,
    UniverseMismatch,
    UniverseNotQuotientClosed,
)
from congform.instances import CORPUS_KINDS, closure_rule, corpus_kind, corpus_operators
from congform.reflection import make_reflector

import oracles
from oracles import PreconditionFailed, strictify


@pytest.fixture(scope="module")
def z4_universe():
    return universe_from_generators([cyclic_group(4)])


@pytest.fixture(scope="module")
def v4_universe():
    return universe_from_generators([klein_four_group()])


# --- universes -----------------------------------------------------------------

def test_universe_from_generators_closes_under_quotients(z4_universe):
    assert [a.size for a in z4_universe.algebras] == [1, 2, 4]


@pytest.mark.parametrize("build", [universe, lambda members: Universe(tuple(members))],
                         ids=["universe", "Universe"])
def test_universe_rejects_a_family_not_closed_under_quotients(build):
    with pytest.raises(UniverseNotQuotientClosed) as exc:
        build([cyclic_group(4)])
    # con_lattice lists the full congruence first, so Z1 is the first quotient missing
    assert exc.value.witness == {"algebra": 0, "congruence": [[0, 1, 2, 3]]}
    # Z4 and V4 with Z2 but not Z1: the first quotient missing is Z2 by its full congruence
    with pytest.raises(UniverseNotQuotientClosed) as exc:
        build([cyclic_group(2), cyclic_group(4), klein_four_group()])
    assert exc.value.witness == {"algebra": 0, "congruence": [[0, 1]]}


def test_universe_deduplicates_and_orders():
    u = universe([cyclic_group(2), cyclic_group(2), cyclic_group(1)])
    assert [a.size for a in u.algebras] == [1, 2]


def test_generated_universes_verify_as_quotient_closed():
    from congform import dihedral_group, cyclic_rng
    from oracles import dihedral_quandle

    for seed in (dihedral_group(4), dihedral_quandle(3), cyclic_rng(12)):
        u = universe_from_generators([seed])
        # building a universe checks the closure, raising
        # UniverseNotQuotientClosed on a witness
        assert universe(u.algebras) == Universe(u.algebras) == u


def relabeled_seeds(kind, size):
    """Per member of the corpus, three relabelings of it as one seed list;
    then one relabeling of every member, a seed list in which a seed can be
    isomorphic to a quotient of another seed without being equal to it."""
    rng = random.Random(size)

    def relabeled(g):
        return relabel_algebra(g, rng.sample(range(g.size), g.size))

    members = corpus(kind, size).algebras
    return [[relabeled(g) for _ in range(3)] for g in members] + [[relabeled(g) for g in members]]


# One layer of quotients of the seeds against the queue that quotients every
# member it keeps again: the same members, tables included.
@pytest.mark.parametrize("seed_lists", [
    lambda: relabeled_seeds("groups", 8),
    lambda: relabeled_seeds("groups", 12),
    lambda: [corpus("rngs", 12).algebras, corpus("quandles", 4).algebras,
             corpus("groups", 12).algebras],
], ids=["relabeled-groups8", "relabeled-groups12", "corpora"])
def test_universe_from_generators_matches_the_queue(seed_lists):
    for seeds in seed_lists():
        assert universe_from_generators(seeds) == oracles.bfs_universe_from_generators(seeds)


# The first member isomorphic to an algebra, found through the universe's
# buckets, against the scan over every member of its size.
@pytest.mark.parametrize("kind,size", [("groups", 12), ("quandles", 5)])
def test_find_member_iso_matches_the_linear_scan_on_relabeled_copies(kind, size):
    u = corpus(kind, size)
    for seeds in relabeled_seeds(kind, size):
        for a in seeds + list(u.algebras):
            assert operators.find_member_iso(u, a) == oracles.linear_find_member_iso(u, a)


def test_find_member_iso_rejects_an_algebra_isomorphic_to_no_member():
    # each quandle of size 5 against the universe of another with its invariant,
    # whose bucket it shares; then a size no member has, and a group of order 4
    # against the Klein universe
    members = corpus("quandles", 5).algebras
    cases = [(universe_from_generators([m]), a) for m in members for a in members
             if m != a and _iso_invariant(m) == _iso_invariant(a)]
    assert len(cases) >= 2
    cases += [(corpus("groups", 8), cyclic_group(9)),
              (universe_from_generators([klein_four_group()]), cyclic_group(4))]
    for u, a in cases:
        for find in (operators.find_member_iso, oracles.linear_find_member_iso):
            with pytest.raises(UniverseMismatch) as exc:
                find(u, a)
            assert exc.value.witness == {"size": a.size, "tag": a.tag}


def test_find_member_iso_searches_only_members_with_the_same_invariant(monkeypatch):
    u, searched = corpus("quandles", 5), []
    monkeypatch.setattr(operators, "find_isomorphism",
                        lambda a, m: searched.append((a, m)) or find_isomorphism(a, m))
    for seeds in relabeled_seeds("quandles", 5):
        for a in seeds:
            searched.clear()
            i, iso = operators.find_member_iso(u, a)
            if a in u.algebras:  # a relabeling by an automorphism: no search
                assert not searched and iso.map == tuple(range(a.size))
                continue
            assert searched[-1] == (a, u.algebras[i]) == (iso.dom, iso.cod)
            assert {_iso_invariant(m) for _, m in searched} == {_iso_invariant(a)}
            # a member between two searched ones in its bucket is searched too
            bucket = [m for m in u.algebras if _iso_invariant(m) == _iso_invariant(a)]
            assert [m for _, m in searched] == bucket[:len(searched)]


# --- construction and validation --------------------------------------------------

def test_pull_rejects_a_map_with_an_end_outside_the_universe(z4_universe, v4_universe):
    # V4 is no member of the closure of Z4, which holds the Z2 that V4 maps onto
    v4 = v4_universe.algebras[-1]
    onto_z2 = next(f for fs in operators.quotient_maps(v4_universe).values() for f in fs
                   if f.dom == v4 and f.cod in z4_universe.algebras)
    for f in (identity_hom(v4), onto_z2, find_embedding(onto_z2.cod, v4)):
        with pytest.raises(UniverseMismatch):
            z4_universe.pull(f)


def test_identity_and_top_are_valid_everywhere(z4_universe):
    for u in (z4_universe,):
        builtin_operator("identity", u)
        builtin_operator("top", u)


def test_not_extensive_witness(z4_universe):
    def crush(x, r):
        return diagonal(x)

    with pytest.raises(NotExtensive) as exc:
        make_operator(z4_universe, crush, "crush")
    assert exc.value.witness == {"algebra": 1, "congruence": [[0, 1]], "closure": [[0], [1]]}


@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_operator_views_match_the_rule(kind):
    # An operator stores index rows; apply reads Congruences off them, and
    # must give the values of the rule.
    u = corpus(kind, corpus_kind(kind).default_size)
    foreign = diagonal(cyclic_group(13))  # larger than every member
    twins = 0
    for name in corpus_operators(kind):
        c, rule = builtin_operator(name, u), closure_rule(name)
        for i, x in enumerate(u.algebras):
            for r in con_lattice(x):
                assert c.apply(i, r) == c.apply(x, r) == rule(x, r)
            # the diagonal of another member of x's size has the ids of x's own
            others = [diagonal(y) for y in u.algebras if y.size == x.size and y != x]
            for r in [foreign, *others]:
                with pytest.raises(FibreMismatch):
                    c.apply(i, r)
            twins += len(others)
    assert twins or kind == "rngs"  # the rngs have one member per size


def z8_universe():
    """Z1, Z2, Z4, Z8: every Con(Z_n) is a chain, named by block counts."""
    return universe_from_generators([cyclic_group(8)])


def chain_rule(u, closures):
    """The rule sending R on member i to the congruence with
    ``closures[i][blocks of R]`` blocks."""
    by_blocks = {x: {r.n_blocks: r for r in con_lattice(x)} for x in u.algebras}
    closure = dict(zip(u.algebras, closures))
    return lambda x, r: by_blocks[x][closure[x][r.n_blocks]]


Z8 = [[0, 1, 2, 3, 4, 5, 6, 7]]
Z8_MOD2, Z8_MOD4 = [[0, 2, 4, 6], [1, 3, 5, 7]], [[0, 4], [1, 5], [2, 6], [3, 7]]

# Extensive rules on the Z8 universe that break the lifting law, each with
# its witness, the first failure in con_lattice order.
NOT_NATURAL_CASES = [
    # not monotone on Z8: the 4-block congruence closes to the top, the
    # 2-block one to itself
    ([{1: 1}, {1: 1, 2: 1}, {1: 1, 2: 1, 4: 1}, {1: 1, 2: 2, 4: 1, 8: 1}],
     {"dom": 3, "cod": 3, "map": list(range(8)), "R": Z8_MOD4, "S": Z8_MOD2}),
    # monotone, but not continuous along Z8 -> Z4
    ([{1: 1}, {1: 1, 2: 1}, {1: 1, 2: 2, 4: 2}, {1: 1, 2: 1, 4: 1, 8: 1}],
     {"dom": 3, "cod": 2, "map": [0, 1, 2, 3] * 2, "R": Z8_MOD2, "S": [[0, 2], [1, 3]]}),
]


@pytest.mark.parametrize("closures,witness", NOT_NATURAL_CASES)
def test_not_natural_witness_follows_the_lattice_order(closures, witness):
    u = z8_universe()
    with pytest.raises(NotNatural) as exc:
        make_operator(u, chain_rule(u, closures), "chain")
    assert exc.value.witness == witness


def test_not_natural_witness(v4_universe):
    # join with one fixed atom of Con(V4) is extensive but breaks the
    # lifting law along the surjection whose kernel is a different atom
    v4 = next(a for a in v4_universe.algebras if a.size == 4)
    atom = congruence_from_blocks(v4, [[0, 1], [2, 3]])

    from congform import join

    def skew(x, r):
        if x == v4:
            return join(r, atom)
        return r

    with pytest.raises(NotNatural) as exc:
        make_operator(v4_universe, skew, "skew")
    assert exc.value.witness == {"dom": 2, "cod": 1, "map": [0, 1, 0, 1],
                                 "R": [[0, 2], [1, 3]], "S": [[0], [1]]}


def test_operator_apply_rejects_foreign_algebra(z4_universe):
    c = builtin_operator("identity", z4_universe)
    with pytest.raises(UniverseMismatch):
        c.apply(symmetric_group(3), diagonal(symmetric_group(3)))


def test_closure_values_must_be_congruences_of_the_member(z4_universe):
    foreign = diagonal(symmetric_group(3))
    with pytest.raises(FibreMismatch, match="not a congruence of member 0"):
        make_operator(z4_universe, lambda x, r: foreign, "foreign")
    z4 = z4_universe.algebras[2]
    with pytest.raises(FibreMismatch, match="not a congruence of member 2"):
        make_operator(z4_universe, lambda x, r: foreign if r == full(z4) else r, "foreign")


def test_members_are_checked_in_order(z4_universe):
    # member 1 is not extensive; member 2 has a foreign value, which is not reached
    z2, z4 = z4_universe.algebras[1:]
    foreign = diagonal(symmetric_group(3))

    def crush(x, r):
        return diagonal(x) if x == z2 else foreign if x == z4 else r

    with pytest.raises(NotExtensive) as exc:
        make_operator(z4_universe, crush, "crush")
    assert exc.value.witness == {"algebra": 1, "congruence": [[0, 1]], "closure": [[0], [1]]}


def test_a_failing_table_raises_the_same_witness_twice(z4_universe):
    # not monotone on Z4: C(diagonal) = full, but C(halves) = halves
    z4 = z4_universe.algebras[2]

    def bent(x, r):
        return full(x) if r == diagonal(z4) else r

    raised = []
    for _ in range(2):
        with pytest.raises(NotNatural) as exc:
            make_operator(z4_universe, bent, "bent")
        raised.append((str(exc.value), exc.value.witness))
    assert raised[0] == raised[1]
    assert raised[0][1]["R"] == [[0], [1], [2], [3]]
    u = z4_universe
    rows = tuple(tuple(u.by_ids[i][bent(x, r).ids] for r in u.lattices[i])
                 for i, x in enumerate(u.algebras))
    assert rows not in u.natural


def test_known_rows_arriving_as_a_tuple_read_no_fibre(monkeypatch):
    # rows kept in Universe.natural passed the extensive pass, so rows that
    # arrive whole are looked up before any fibre is read
    u = universe_from_generators([cyclic_group(4)])
    rows = builtin_operator("identity", u).rows
    assert rows in u.natural
    read = []

    class Recording(tuple):
        def __iter__(self):
            read.append(True)
            return super().__iter__()

    monkeypatch.setitem(vars(u), "up", Recording(u.up))
    assert operators._natural_operator(u, "again", rows).rows == rows
    assert read == []
    # rows read member by member are checked as they arrive
    assert operators._natural_operator(u, "again", iter(rows)).rows == rows
    assert read


# --- axiom checkers -----------------------------------------------------------------

def test_identity_operator_passes_everything(z4_universe):
    c = builtin_operator("identity", z4_universe)
    assert is_idempotent(c)
    assert is_cohereditary(c)
    assert is_minimal(c)
    assert preserves_cocartesian(c)


def test_top_operator_passes_everything(z4_universe):
    c = builtin_operator("top", z4_universe)
    assert is_idempotent(c)
    assert is_cohereditary(c)
    assert is_minimal(c)
    assert preserves_cocartesian(c)


def test_monotone_on_each_fibre(z4_universe):
    # naturality along identities forces monotonicity; assert it directly
    for c in (builtin_operator("identity", z4_universe), builtin_operator("top", z4_universe)):
        for i, x in enumerate(c.universe.algebras):
            for r in con_lattice(x):
                for s in con_lattice(x):
                    if leq(r, s):
                        assert leq(c.apply(i, r), c.apply(i, s))


def test_wellpointed_containment_chain(z4_universe):
    for c in (builtin_operator("identity", z4_universe), builtin_operator("top", z4_universe)):
        for i, x in enumerate(c.universe.algebras):
            for r in con_lattice(x):
                cr = c.apply(i, r)
                assert leq(r, cr) and leq(cr, c.apply(i, cr))


def _staircase_operator(z4_universe):
    """Extensive, natural, but not idempotent: diag -> mid -> full on Z4."""
    z4 = next(a for a in z4_universe.algebras if a.size == 4)
    z2 = next(a for a in z4_universe.algebras if a.size == 2)
    mid = congruence_from_blocks(z4, [[0, 2], [1, 3]])

    def rule(x, r):
        if x == z4:
            if r == diagonal(x):
                return mid
            return full(x)
        if x == z2:
            return full(x)
        return r

    return make_operator(z4_universe, rule, "staircase")


def test_staircase_is_natural_but_not_idempotent(z4_universe):
    c = _staircase_operator(z4_universe)
    res = is_idempotent(c)
    assert not res
    assert res.witness["algebra"] is not None


def test_nilradical_operator_is_idempotent():
    u = corpus("rngs", 12)
    assert is_idempotent(builtin_operator("nilradical", u))


def test_cohereditary_abelianization():
    u = corpus("groups", 6)
    assert is_cohereditary(builtin_operator("abelianization", u))


def _count_coheredity_scans(monkeypatch) -> list:
    """The operators whose quotient maps ``is_cohereditary`` scans from now on."""
    scanned = []
    real = operators._along_quotient_maps

    def scanning(c, key, sides):
        if key == "S":
            scanned.append(c)
        return real(c, key, sides)

    monkeypatch.setattr(operators, "_along_quotient_maps", scanning)
    return scanned


def test_a_universe_is_freed_with_its_tables():
    # every table and memo is kept on the universe, and no module cache is
    # keyed by one, so the universe goes with the caller's last reference;
    # the cycle collector is off, so a reference cycle through it would keep it
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = dihedral_group(4)
        u = universe_from_generators([g])
        family = enumerate_operators(u)
        assert {is_cohereditary(c).ok for c in family} == {True, False}
        make_reflector(u, [diagonal(x) for x in u.algebras], "id")
        with pytest.raises(NotNatural):
            make_operator(u, lambda x, r: full(x) if x == g else r, "top on the seed")
        assert {"natural", "cohereditary", "reflective", "naturality_maps"} <= set(vars(u))
        freed = weakref.ref(u)
        del u, family
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def test_only_passing_coheredity_verdicts_are_kept(monkeypatch):
    # a failure is decided again along the generators on each call; only
    # reading its witness pulls along the other quotient maps
    u = universe_from_generators([cyclic_group(4)])
    c = next(c for c in enumerate_operators(u) if not is_cohereditary(c))
    assert c.rows not in u.cohereditary
    scanned = _count_coheredity_scans(monkeypatch)
    first, second = is_cohereditary(c), is_cohereditary(c)
    assert scanned == [c, c] and not first.ok and not second.ok
    assert set(u._pulls) <= set(u.generating_maps)
    assert first.witness and set(u._pulls) - set(u.generating_maps)
    assert first == second == oracles.is_cohereditary(c)


def test_coheredity_verdicts_are_kept_per_universe(monkeypatch):
    # the same rows on another universe are checked afresh, once
    scanned = _count_coheredity_scans(monkeypatch)
    ops = [make_operator(universe_from_generators([g]), lambda x, r: full(x), "top")
           for g in (cyclic_group(2), cyclic_group(3))]
    assert ops[0].rows == ops[1].rows
    for c in ops + ops:
        assert is_cohereditary(c) == oracles.is_cohereditary(c)
    assert scanned == ops


def test_minimality_of_abelianization_via_join_associativity():
    u = corpus("groups", 6)
    assert is_minimal(builtin_operator("abelianization", u))


# --- operator order -------------------------------------------------------------------

def test_operator_order_basics(z4_universe):
    ident = builtin_operator("identity", z4_universe)
    top = builtin_operator("top", z4_universe)
    assert operator_leq(ident, ident)
    assert operator_leq(ident, top)
    assert operator_leq(top, top)
    res = operator_leq(top, ident)
    assert not res and res.witness


def test_operator_order_is_a_partial_order(z4_universe):
    ops = enumerate_operators(z4_universe)
    for a in ops:
        assert operator_leq(a, a)
        for b in ops:
            if operator_leq(a, b) and operator_leq(b, a):
                assert a.rows == b.rows
            for c in ops:
                if operator_leq(a, b) and operator_leq(b, c):
                    assert operator_leq(a, c)


def test_operator_order_requires_shared_universe(z4_universe, v4_universe):
    with pytest.raises(UniverseMismatch):
        operator_leq(builtin_operator("identity", z4_universe), builtin_operator("identity", v4_universe))


# --- strictify ---------------------------------------------------------------------------

def test_strictify_identity_is_identity(z4_universe):
    ident = builtin_operator("identity", z4_universe)
    assert strictify(ident).rows == ident.rows


def test_strictify_top_fixes_full_congruence(z4_universe):
    top = builtin_operator("top", z4_universe)
    st = strictify(top)
    for i, x in enumerate(z4_universe.algebras):
        assert st.apply(i, full(x)) == full(x)
        for r in con_lattice(x):
            assert st.apply(i, r) == top.apply(i, r)


def test_strictify_requires_idempotence(z4_universe):
    with pytest.raises(PreconditionFailed):
        strictify(_staircase_operator(z4_universe))


def test_strictify_fixes_subcategory_members():
    cases = [
        builtin_operator("abelianization", corpus("groups", 6)),
        builtin_operator("nilradical", corpus("rngs", 8)),
    ]
    for c in cases:
        st = strictify(c)
        for i, x in enumerate(c.universe.algebras):
            if c.apply(i, diagonal(x)) == diagonal(x):
                assert st.apply(i, diagonal(x)) == diagonal(x)
            for r in con_lattice(x):
                assert st.apply(i, r) == c.apply(i, r)


# --- exhaustive operator enumeration ------------------------------------------------------

def test_enumerate_operators_on_micro_universes(z4_universe, v4_universe):
    # Con(Z4) is the 3-chain: 7 natural families survive out of 12 extensive
    # ones.  On V4 the automorphisms permute the three atoms, which cuts the
    # 80 extensive families down to 4.
    family = enumerate_operators(z4_universe)
    assert len(family) == 7
    rows = {c.rows for c in family}
    assert len(rows) == 7  # pairwise distinct
    assert builtin_operator("identity", z4_universe).rows in rows
    assert builtin_operator("top", z4_universe).rows in rows
    assert len(enumerate_operators(v4_universe)) == 4


def test_enumerate_operators_guard():
    # fresh universes of rngs 12 and of the operation-free algebras of sizes
    # 1-8 (top fibre Bell(8) = 4,140): the budget is read off the up-sets'
    # bit counts, and the search raises before it reads a covering pair
    partitions = universe(FiniteAlgebra(n, Signature(()), ()) for n in range(1, 9))
    for u in (universe(corpus("rngs", 12).algebras), partitions):
        with pytest.raises(SizeTooLarge, match="more than 500000 extensive families"):
            enumerate_operators(u)
        assert "covers" not in vars(u)


def test_fibre_budget(monkeypatch):
    # Con of the operation-free algebra of size 5 is the partition lattice,
    # with Bell(5) = 52 elements; con_lattice raises, and both constructors
    # before any quotient.  Equal operation-free algebras hit con_lattice's
    # cache, so it is cleared first.
    con_lattice.cache_clear()
    monkeypatch.setattr(algebras, "MAX_FIBRE", 51)
    monkeypatch.setattr(operators, "quotient", None)
    members = [FiniteAlgebra(n, Signature(()), ()) for n in range(1, 6)]
    for build in (con_lattice, universe, universe_from_generators):
        with pytest.raises(SizeTooLarge, match="more than 51 congruences"):
            build(members[-1] if build is con_lattice else members)
    monkeypatch.undo()
    monkeypatch.setattr(algebras, "MAX_FIBRE", 52)
    assert len(universe(members).lattices[-1]) == 52


# Rows [order, members, operators, idempotent, cohereditary, minimal,
# pushout-preserving] for the universe generated by each group of order <= 8.
CENSUS_8 = [
    [1, 1, 1, 1, 1, 1, 1],
    [2, 2, 2, 2, 2, 2, 2],
    [3, 2, 2, 2, 2, 2, 2],
    [4, 3, 4, 4, 3, 2, 2],
    [4, 3, 7, 6, 4, 3, 3],
    [5, 2, 2, 2, 2, 2, 2],
    [6, 3, 7, 6, 4, 3, 3],
    [6, 4, 16, 14, 7, 4, 4],
    [7, 2, 2, 2, 2, 2, 2],
    [8, 4, 30, 24, 6, 3, 3],
    [8, 4, 42, 24, 8, 4, 4],
]


def test_operator_census_up_to_order_8():
    rows = []
    for g in corpus("groups", 8).algebras:
        u = universe_from_generators([g])
        family = enumerate_operators(u)
        idem = [c for c in family if is_idempotent(c)]
        cohered = [c for c in idem if is_cohereditary(c)]
        minimal = {c.name for c in cohered if is_minimal(c)}
        pushout = {c.name for c in cohered if preserves_cocartesian(c)}
        assert minimal == pushout
        rows.append([g.size, len(u), len(family), len(idem), len(cohered),
                     len(minimal), len(pushout)])
    assert rows == CENSUS_8


def test_enumerate_operators_validates_only_survivors(monkeypatch):
    # The D4 universe has 19,200 extensive families and 30 operators.  The
    # search prunes on monotonicity and continuity along the generators, which
    # is the naturality verdict, so no survivor is checked again: its rows go
    # straight into the universe's set of natural rows.
    u = universe_from_generators([dihedral_group(4)])
    assert [len(con_lattice(x)) for x in u.algebras] == [1, 2, 5, 6]
    calls = []
    monkeypatch.setattr(operators, "_natural_operator", lambda *args: calls.append(args[1]))
    monkeypatch.setattr(operators, "make_operator", None)
    family = enumerate_operators(u)
    assert len(family) == 30
    assert calls == []
    assert u.natural == {c.rows for c in family}


# --- reporting ------------------------------------------------------------------------------

def test_operator_report_shape(z4_universe):
    rep = operator_report(builtin_operator("identity", z4_universe))
    assert set(rep) == {
        "name", "extensive", "natural", "idempotent", "cohereditary",
        "minimal", "preserves_pushouts", "witnesses",
    }
    assert rep["extensive"] and rep["natural"] and rep["idempotent"]
    assert rep["witnesses"] == {}


def test_operator_report_carries_witnesses(z4_universe):
    rep = operator_report(_staircase_operator(z4_universe))
    assert not rep["idempotent"]
    assert "idempotent" in rep["witnesses"]
