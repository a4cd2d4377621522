import gc
import hashlib
import itertools
import json
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    builtin_operator,
    con_lattice,
    congruence_from_blocks,
    congruence_of_ideal,
    corpus,
    corpus_manifest,
    cyclic_group,
    cyclic_rng,
    diagonal,
    dihedral_group,
    find_isomorphism,
    full,
    ideal,
    ideal_of_congruence,
    klein_four_group,
    nilradical,
    quandle_reachability,
    symmetric_group,
)
from congform.errors import (
    AxiomViolation,
    CompositeNotCongruence,
    InvalidIdeal,
    NotGroup,
    NotQuandle,
    NotRng,
    OutOfRange,
    SizeTooLarge,
)
from congform.instances import (
    enumerate_quandles,
    _composite_with_reachability,
    _quandle_classes,
)
from congform import instances, terms
from congform.algebras import (
    QUANDLE_SIGNATURE,
    QUANDLE_TAG,
    FiniteAlgebra,
    Signature,
    relabel_algebra,
    validate_algebra,
)

import oracles
from oracles import (_dedup_up_to_iso, commutator_congruence, dihedral_quandle, enumerate_groups,
                     exponent_two_congruence, trivial_quandle)


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
    from congform import satisfies_equations

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
        monkeypatch.setattr(instances, "quandle_reachability", lambda a, sim=sim: sim)
        assert _composite_with_reachability(x, r) == closure
    monkeypatch.setattr(instances, "quandle_reachability", lambda a: s)
    with pytest.raises(CompositeNotCongruence) as exc:
        _composite_with_reachability(x, r)
    assert exc.value.witness == {"block": [0, 1, 2]}


def test_reachability_matches_the_listed_moves():
    for a in corpus("quandles", 6).algebras:
        assert quandle_reachability(a) == oracles.listed_reachability(a)


def test_reachability_is_memoised_in_a_bounded_cache():
    dq = dihedral_quandle(3)
    assert quandle_reachability(dq) is quandle_reachability(dq)
    assert quandle_reachability.cache_info().maxsize is not None


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
        assert instances._verbal_congruence(a, laws) == oracle(a)


def test_group_operators_reject_wrong_tags(rng_corpus):
    with pytest.raises(NotGroup):
        builtin_operator("abelianization", rng_corpus)
    with pytest.raises(NotGroup):
        builtin_operator("exp2-abelianization", rng_corpus)


# --- enumeration and corpora -----------------------------------------------------------

def test_group_class_counts_up_to_six():
    counts = [len(_dedup_up_to_iso(enumerate_groups(n))) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 1, 2]


def test_quandle_class_counts_up_to_four():
    counts = [len(_dedup_up_to_iso(enumerate_quandles(n))) for n in range(1, 5)]
    assert counts == [1, 1, 3, 7]


def test_quandle_class_counts_by_orbit_up_to_six():
    counts = [len(_quandle_classes(searched_quandles(n))) for n in range(1, 7)]
    assert counts == [1, 1, 3, 7, 22, 73]


@lru_cache(maxsize=None)
def searched_quandles(n: int) -> tuple:
    return tuple(enumerate_quandles(n))


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
    # with the collector off, a table outlives its list only if a reference
    # cycle holds it; the search state is freed too
    gc.disable()
    try:
        gc.collect()
        tables = enumerate_quandles(4)
        first = weakref.ref(tables[0])
        del tables
        assert first() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(1, 7))
def test_quandle_search_finds_every_class_of_the_full_search(n):
    def classes(tables):
        return sorted(_quandle_classes(tables), key=lambda a: a.tables)

    assert classes(searched_quandles(n)) == classes(oracles.all_quandle_tables(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_every_full_search_table_is_a_quandle(n):
    for a in oracles.all_quandle_tables(n):
        assert validate_algebra(a.size, a.sig, {"lhd": a.table_nested("lhd"),
                                                "lhd_inv": a.table_nested("lhd_inv")},
                                a.tag) == a


def test_quandle_corpus_checks_the_axioms_of_every_class(monkeypatch):
    # x <| y = 1 - x on two elements: both columns swap, so x <| x = x fails
    swap = FiniteAlgebra(2, QUANDLE_SIGNATURE, ((1, 1, 0, 0), (1, 1, 0, 0)), QUANDLE_TAG)
    searched = instances.enumerate_quandles
    monkeypatch.setattr(instances, "enumerate_quandles",
                        lambda n: searched(n) + ([swap] if n == 2 else []))
    with pytest.raises(AxiomViolation):
        instances.corpus.__wrapped__("quandles", 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_dedup_matches_the_oracle_on_quandles(n):
    tables = enumerate_quandles(n)
    assert oracles.dedup_by_orbit(tables) == oracles.dedup_then_canonical(tables)


@pytest.mark.parametrize("n", range(1, 7))
def test_quandle_classes_match_the_orbit_oracle_on_the_search(n):
    # orbits of lhd alone against orbits of both tables
    tables = searched_quandles(n)
    assert _quandle_classes(tables) == oracles.dedup_by_orbit(tables)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_dedup_matches_the_oracle_on_groups(n):
    tables = enumerate_groups(n)
    assert oracles.dedup_by_orbit(tables) == oracles.dedup_then_canonical(tables)


@pytest.mark.parametrize("tables", [enumerate_quandles(n) for n in range(1, 6)]
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
    assert _quandle_classes(stream) == oracles.dedup_by_orbit(stream)


def test_group_corpus_small_members():
    u = corpus("groups", 4)
    assert [a.size for a in u.algebras] == [1, 2, 3, 4, 4]
    assert any(find_isomorphism(a, klein_four_group()) for a in u.algebras
               if a.size == 4)
    assert any(a == cyclic_group(4) for a in u.algebras)


def test_group_corpus_order_eight(group_corpus):
    sizes = [a.size for a in group_corpus.algebras]
    assert sizes == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8]
    assert group_corpus.quotient_closed
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
