import itertools
import sys

import pytest

from congform import (
    Congruence,
    Universe,
    builtin_operator,
    closed_under_quotients,
    closure_from_reflector,
    con_lattice,
    congruence_from_blocks,
    corpus,
    cyclic_group,
    cyclic_rng,
    diagonal,
    full,
    is_cohereditary,
    is_idempotent,
    klein_four_group,
    leq,
    make_operator,
    oracle_reflection,
    oracle_reflector,
    operator_leq,
    predicate_from_laws,
    predicate_from_operator,
    quotient,
    reflector_from_closure,
    roundtrip_closure,
    roundtrip_reflector,
    subcategory_members,
    antitone_check,
    symmetric_group,
    universe,
    universe_from_generators,
)
from congform.errors import (
    NotIdempotent,
    NotReflective,
    UniverseMismatch,
    UniverseNotQuotientClosed,
)
from congform.algebras import FiniteAlgebra, Signature, enumerate_homs
from congform import operators, reflection
from congform.reflection import (SubcategoryPredicate, closures_agree, make_reflector,
                                 reflectors_agree)
from congform.terms import (COMMUTATIVITY, REDUCED_RNG, TRIVIAL_QUANDLE, Equation,
                             QuasiEquation, app, var)

from oracles import trivial_quandle


@pytest.fixture(scope="module")
def s3_universe():
    return universe_from_generators([symmetric_group(3)])


# --- deriving closures from reflectors ------------------------------------------

def test_abelianization_closure_of_diagonal_on_s3(s3_universe, group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    refl = reflector_from_closure(ab)
    c = closure_from_reflector(refl)
    s3 = symmetric_group(3)
    # the commutator subgroup of S3 is A3 = {id and the two 3-cycles}
    assert c.apply(s3, diagonal(s3)).blocks() == ((0, 3, 4), (1, 2, 5))


def test_closure_of_diagonal_is_diagonal_on_members(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    c = closure_from_reflector(reflector_from_closure(ab))
    z4 = cyclic_group(4)
    assert c.apply(z4, diagonal(z4)) == diagonal(z4)


def test_terminal_reflector_closes_everything(s3_universe):
    top = builtin_operator("top", s3_universe)
    refl = reflector_from_closure(top)
    c = closure_from_reflector(refl)
    for i, x in enumerate(s3_universe.algebras):
        for r in con_lattice(x):
            assert c.apply(i, r) == full(x)


# --- deriving reflectors from closures --------------------------------------------

def test_reflector_of_identity_is_diagonal_family(s3_universe):
    refl = reflector_from_closure(builtin_operator("identity", s3_universe))
    assert all(r == diagonal(a) for r, a in zip(refl.rho, s3_universe.algebras))


def test_reflector_of_top_is_terminal(s3_universe):
    refl = reflector_from_closure(builtin_operator("top", s3_universe))
    assert all(r == full(a) for r, a in zip(refl.rho, s3_universe.algebras))


def test_reflector_of_nilradical_is_sqrt_zero(rng_corpus):
    refl = reflector_from_closure(builtin_operator("nilradical", rng_corpus))
    z4 = cyclic_rng(4)
    assert refl.rho_of(z4).blocks() == ((0, 2), (1, 3))
    z8 = cyclic_rng(8)
    assert refl.rho_of(z8).blocks() == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_reflector_requires_idempotence(s3_universe):
    s3 = symmetric_group(3)
    a3 = congruence_from_blocks(s3, [[0, 3, 4], [1, 2, 5]])

    def staircase(x, r):
        if x == s3 and r == diagonal(x):
            return a3
        if x == s3 and r == a3:
            return full(x)
        if x.size == 2:
            return full(x)
        return r if x.size == 1 else full(x)

    c = make_operator(s3_universe, staircase, "staircase")
    with pytest.raises(NotIdempotent):
        reflector_from_closure(c)


def pathological_rule(u):
    """Extensive, natural along surjections, idempotent and cohereditary on
    the quotient closure of Z4, but rho is trivial on Z4 and full on Z2."""
    z4 = next(a for a in u.algebras if a.size == 4)
    z2 = next(a for a in u.algebras if a.size == 2)
    mid = congruence_from_blocks(z4, [[0, 2], [1, 3]])

    def rule(x, r):
        if x == z4:
            return full(x) if r == mid or r == full(x) else r
        if x == z2:
            return full(x)
        return r

    return rule


def test_surjection_only_naturality_can_fail_universal_property():
    # Extensive + natural along surjections + idempotent + cohereditary is
    # not enough: the injection Z2 -> Z4 violates the universal property.
    # The reflector constructor must catch this and name the offending map.
    u = universe_from_generators([cyclic_group(4)])
    c = make_operator(u, pathological_rule(u), "pathological")
    assert is_idempotent(c) and is_cohereditary(c)
    with pytest.raises(NotReflective) as exc:
        reflector_from_closure(c)
    assert exc.value.witness["map"] == [0, 2]


def test_a_second_universe_validates_afresh(monkeypatch):
    # the members of the quotient closure of Z4 in reverse order make another
    # universe, with its own tables: rows and a rho accepted on one are
    # checked again, and kept, on the other
    u = universe_from_generators([cyclic_group(4)])
    turned = Universe(u.algebras[::-1])
    assert turned != u
    c = make_operator(u, pathological_rule(u), "pathological")
    assert c.rows in u.natural
    scans = []
    original_scan = operators._first_failure
    monkeypatch.setattr(operators, "_first_failure", lambda *a: scans.append(a[0]) or original_scan(*a))
    make_operator(u, pathological_rule(u), "pathological")
    assert scans == []
    assert make_operator(turned, pathological_rule(u), "pathological").rows == c.rows[::-1]
    assert scans == [turned] and c.rows[::-1] in turned.natural
    rho = [diagonal(x) for x in u.algebras]
    make_reflector(u, rho, "id")
    reads = []
    original = reflection.quotient_maps
    monkeypatch.setattr(reflection, "quotient_maps", lambda v: reads.append(v) or original(v))
    make_reflector(u, rho, "id")
    assert reads == []
    make_reflector(turned, rho[::-1], "id")
    assert reads == [turned] and tuple(rho[::-1]) in turned.reflective


def test_make_reflector_enumerates_no_homs(monkeypatch):
    # pull-backs are built along the maps read, here quotient maps only,
    # and neither the naturality maps nor any hom list is built
    u = universe_from_generators([cyclic_group(8)])
    calls = []
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("congform") and \
                getattr(module, "enumerate_homs", None) is enumerate_homs:
            monkeypatch.setattr(module, "enumerate_homs",
                                lambda x, y: calls.append((x, y)) or enumerate_homs(x, y))
    make_reflector(u, [diagonal(x) for x in u.algebras], "id")
    assert calls == []
    assert "naturality_maps" not in vars(u)


def test_make_reflector_rejects_reflections_outside_the_subcategory():
    u = universe_from_generators([cyclic_group(4)])
    z1, z2, z4 = u.algebras
    halves = congruence_from_blocks(z4, [[0, 2], [1, 3]])
    # Z4 reflects onto Z2, which is not in the subcategory {Z1}
    for _ in range(2):  # a rejected rho is checked again, with the same witness
        with pytest.raises(NotReflective) as exc:
            make_reflector(u, [diagonal(z1), full(z2), halves], "lands-outside")
        assert exc.value.witness == {"algebra": 2, "reflection_member": 1}
    # a rho that is no congruence is rejected before anything is read off it
    with pytest.raises(NotReflective) as exc:
        make_reflector(u, [diagonal(z1), full(z2), Congruence(z4, (0, 0, 1, 1))], "no-congruence")
    assert exc.value.witness == {"algebra": 2, "rho": [[0, 1], [2, 3]]}
    # without Z2 there is no universe: the reflection of Z4 would leave it
    with pytest.raises(UniverseNotQuotientClosed):
        universe([z1, z4])


# --- membership and subcategories ----------------------------------------------------

def test_membership_examples(group_corpus, rng_corpus, quandle_corpus):

    assert {cyclic_rng(4), cyclic_rng(6)} <= set(rng_corpus.algebras)
    reduced = subcategory_members(builtin_operator("nilradical", rng_corpus))
    assert cyclic_rng(4) not in reduced
    assert cyclic_rng(6) in reduced
    q = subcategory_members(builtin_operator("quandle", quandle_corpus))
    assert [a for a in q if a.size == 3] == [trivial_quandle(3)]
    assert subcategory_members(builtin_operator("top", group_corpus)) == (cyclic_group(1),)


def test_member_lookup_rejects_what_indexes_no_member(s3_universe):
    # a negative index would read another member, and one past the end would
    # escape as an IndexError
    c = builtin_operator("identity", s3_universe)
    refl = reflector_from_closure(c)
    x = s3_universe.algebras[0]
    for outside in (-1, len(s3_universe), cyclic_group(5)):
        with pytest.raises(UniverseMismatch):
            c.apply(outside, diagonal(x))
        with pytest.raises(UniverseMismatch):
            refl.rho_of(outside)


def test_subcategory_of_abelianization(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    members = subcategory_members(ab)
    sizes = sorted(a.size for a in members)
    # abelian members of the order-<=8 corpus: Z1..Z8 and V4
    assert sizes == [1, 2, 3, 4, 4, 5, 6, 7, 8]


def test_closed_under_quotients_abelian(group_corpus):
    abelian = predicate_from_laws("abelian", COMMUTATIVITY)
    assert closed_under_quotients(abelian, group_corpus)


def test_closed_under_quotients_trivial_quandles(quandle_corpus):
    trivial = predicate_from_laws("trivial", TRIVIAL_QUANDLE)
    assert closed_under_quotients(trivial, quandle_corpus)


def test_closed_under_quotients_size_bound(group_corpus):
    small = SubcategoryPredicate("size<=2", lambda a: a.size <= 2)
    assert closed_under_quotients(small, group_corpus)


def test_not_closed_under_quotients_witness(group_corpus):
    # algebras of size exactly 8 lose closure under their proper quotients
    exactly8 = SubcategoryPredicate("size==8", lambda a: a.size == 8)
    res = closed_under_quotients(exactly8, group_corpus)
    assert not res and res.witness["predicate"] == "size==8"


# --- round trips -----------------------------------------------------------------------

def test_roundtrips_identity_and_top(s3_universe):
    for c in (builtin_operator("identity", s3_universe), builtin_operator("top", s3_universe)):
        assert roundtrip_closure(c)
        assert roundtrip_reflector(reflector_from_closure(c))


def test_roundtrip_nilradical(rng_corpus):
    assert roundtrip_closure(builtin_operator("nilradical", rng_corpus))


def test_roundtrip_abelianization_reflector(group_corpus):
    refl = reflector_from_closure(builtin_operator("abelianization", group_corpus))
    assert roundtrip_reflector(refl)


def test_closures_agree_names_the_first_difference():
    u = universe_from_generators([cyclic_group(4)])
    z4 = u.algebras[2]
    mid = congruence_from_blocks(z4, [[0, 2], [1, 3]])
    ident, top = builtin_operator("identity", u), builtin_operator("top", u)
    stair = make_operator(u, lambda x, r: r if x.size == 1 else mid if r == diagonal(z4)
                          else full(x), "staircase")
    assert closures_agree(top, top)
    assert closures_agree(ident, top).witness == {
        "operator": "identity", "algebra": 1, "congruence": [[0], [1]],
        "expected": [[0], [1]], "got": [[0, 1]]}
    assert closures_agree(stair, top).witness == {
        "operator": "staircase", "algebra": 2, "congruence": [[0], [1], [2], [3]],
        "expected": [[0, 2], [1, 3]], "got": [[0, 1, 2, 3]]}
    with pytest.raises(UniverseMismatch):
        closures_agree(ident, builtin_operator("identity", universe_from_generators([cyclic_group(2)])))


def test_reflectors_agree_needs_a_shared_universe():
    q3, q4 = (reflector_from_closure(builtin_operator("top", corpus("quandles", n))) for n in (3, 4))
    z1, t1 = (reflector_from_closure(builtin_operator("identity", universe_from_generators([a])))
              for a in (cyclic_group(1), trivial_quandle(1)))
    assert reflectors_agree(q3, q3)
    # a longer universe first, a prefix of the other first, and two
    # one-member universes whose diagonals print alike as [[0]]
    for refl, back in [(q4, q3), (q3, q4), (z1, t1)]:
        with pytest.raises(UniverseMismatch, match="comparing reflectors needs a shared universe"):
            reflectors_agree(refl, back)


# --- order comparison ---------------------------------------------------------------------

def test_antitone_identity_vs_top(s3_universe):
    ident, top = builtin_operator("identity", s3_universe), builtin_operator("top", s3_universe)
    assert antitone_check(ident, top)
    assert antitone_check(top, ident)
    assert antitone_check(ident, ident)


def test_antitone_abelianization_pair(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    exp2 = builtin_operator("exp2-abelianization", group_corpus)
    assert operator_leq(ab, exp2)
    assert not operator_leq(exp2, ab)
    assert set(subcategory_members(exp2)) < set(subcategory_members(ab))
    assert antitone_check(ab, exp2)
    assert antitone_check(exp2, ab)


# --- the brute-force reflection oracle -------------------------------------------------------

def test_oracle_reflection_s3_abelian():
    abelian = predicate_from_laws("abelian", COMMUTATIVITY)
    rho = oracle_reflection(symmetric_group(3), abelian)
    assert rho.blocks() == ((0, 3, 4), (1, 2, 5))


def test_oracle_reflection_already_member():
    abelian = predicate_from_laws("abelian", COMMUTATIVITY)
    assert oracle_reflection(cyclic_group(4), abelian) == diagonal(cyclic_group(4))


def test_oracle_reflection_reduced_z8():
    reduced = predicate_from_laws("reduced", REDUCED_RNG)
    rho = oracle_reflection(cyclic_rng(8), reduced)
    assert rho.blocks() == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_one_fixed_point_law_on_every_unary_map_up_to_size_4():
    # f(x) = x & f(y) = y => x = y, each premise over one of its variables:
    # the maps with at most one fixed point, a quasivariety that is not
    # closed under quotients (collapse the 2-cycle beside a fixed point)
    law = QuasiEquation((Equation(app("f", var(0)), var(0)), Equation(app("f", var(1)), var(1))),
                        Equation(var(0), var(1)))
    accepts = predicate_from_laws("one-fixed-point", (law,))
    rule = reflection.rule_from_laws((law,))

    def one_fixed_point(x):
        return sum(x.tables[0][i] == i for i in range(x.size)) <= 1

    maps = [m for n in range(1, 5) for m in itertools.product(range(n), repeat=n)]
    assert len(maps) == 288
    for m in maps:
        x = FiniteAlgebra(len(m), Signature((("f", 1),)), (m,))
        assert accepts(x) == one_fixed_point(x), m
        lattice = con_lattice(x)
        accepted = [k for k in lattice if one_fixed_point(quotient(x, k)[0])]
        for r in lattice:
            above = [k for k in accepted if leq(r, k)]
            assert [k for k in above if all(leq(k, t) for t in above)] == [rule(x, r)], (m, r)


def test_oracle_reflection_not_reflective_witness():
    # "size is exactly 2" accepts three quotients of V4 whose meet is the
    # diagonal, and V4 itself has size 4: not reflective
    pred = SubcategoryPredicate("size==2", lambda a: a.size == 2)
    with pytest.raises(NotReflective):
        oracle_reflection(klein_four_group(), pred)


def test_oracle_reflector_matches_derived_reflector(group_corpus):
    abelian = predicate_from_laws("abelian", COMMUTATIVITY)
    orc = oracle_reflector(group_corpus, abelian)
    refl = reflector_from_closure(builtin_operator("abelianization", group_corpus))
    assert orc.rho == refl.rho


def test_predicate_from_operator_matches_membership(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    pred = predicate_from_operator(ab)
    members = subcategory_members(ab)
    for a in group_corpus.algebras:
        assert pred(a) == (a in members)
