import pytest

from congform import (
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
    make_operator,
    membership,
    oracle_reflection,
    oracle_reflector,
    operator_leq,
    predicate_from_equations,
    predicate_from_operator,
    predicate_from_quasiequations,
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
    NotNatural,
    NotReflective,
    UniverseMismatch,
    UniverseNotQuotientClosed,
)
from congform.algebras import enumerate_homs
from congform import reflection
from congform.operators import fibration, naturality_maps
from congform.reflection import (SubcategoryPredicate, closures_agree, make_reflector,
                                 reflectors_agree)
from congform.terms import COMMUTATIVITY, REDUCED_RNG, TRIVIAL_QUANDLE

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


def test_closure_from_reflector_needs_quotient_closed_universe():
    u = universe([cyclic_group(2), cyclic_group(1)])  # flag not set
    ident = builtin_operator("identity", u)
    refl = reflector_from_closure(ident)
    with pytest.raises(UniverseNotQuotientClosed):
        closure_from_reflector(refl)


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
    # the same rows pass on the quotient closure of Z4, where naturality runs
    # along surjections, and fail on the same members without the flag
    fibration.cache_clear()
    u = universe_from_generators([cyclic_group(4)])
    c = make_operator(u, pathological_rule(u), "pathological")
    assert c.rows in fibration(u).natural
    plain = universe(u.algebras)
    with pytest.raises(NotNatural):
        make_operator(plain, pathological_rule(u), "pathological")
    assert c.rows not in fibration(plain).natural
    # a rho accepted on u is checked again, and kept, on another universe
    rho = [diagonal(x) for x in u.algebras]
    make_reflector(u, rho, "id")
    reads = []
    original = reflection.quotient_maps
    monkeypatch.setattr(reflection, "quotient_maps", lambda v: reads.append(v) or original(v))
    make_reflector(u, rho, "id")
    assert reads == []
    make_reflector(plain, rho, "id")
    assert reads == [plain] and tuple(rho) in fibration(plain).reflective


def test_universal_property_through_a_quotient_that_is_no_member():
    # Z8/2Z8 is Z2, which is no member: the map Z8 -> Z4 through it does not
    # factor through the unit of Z8, whose reflection is Z1
    u = universe([cyclic_group(1), cyclic_group(4), cyclic_group(8)])
    z1, z4, z8 = u.algebras
    with pytest.raises(NotReflective) as exc:
        make_reflector(u, [diagonal(z1), diagonal(z4), full(z8)], "through-z2")
    assert (exc.value.witness["dom"], exc.value.witness["cod"]) == (2, 1)
    assert exc.value.witness["rho"] == [list(range(8))]
    # the first K of Con(Z8) with a quotient that embeds in Z4 is the one of Z2
    assert exc.value.witness["map"] == [0, 2] * 4


def test_make_reflector_enumerates_no_homs_off_a_quotient_closed_universe():
    # pull-backs are built along the maps read, here quotient maps only,
    # not along every hom of a universe that is not quotient-closed
    u = universe([cyclic_group(1), cyclic_group(4), cyclic_group(8)])
    for cached in (fibration, naturality_maps, enumerate_homs):
        cached.cache_clear()
    make_reflector(u, [diagonal(x) for x in u.algebras], "id")
    assert enumerate_homs.cache_info().misses == 0


def test_make_reflector_rejects_reflections_outside_the_subcategory():
    u = universe_from_generators([cyclic_group(4)])
    z1, z2, z4 = u.algebras
    halves = congruence_from_blocks(z4, [[0, 2], [1, 3]])
    # Z4 reflects onto Z2, which is not in the subcategory {Z1}
    for _ in range(2):  # a rejected rho is checked again, with the same witness
        with pytest.raises(NotReflective) as exc:
            make_reflector(u, [diagonal(z1), full(z2), halves], "lands-outside")
        assert exc.value.witness == {"algebra": 2, "reflection_member": 1}
    # without Z2 in the universe, the reflection of Z4 leaves it
    with pytest.raises(NotReflective) as exc:
        make_reflector(universe([z1, z4]), [diagonal(z1), halves], "leaves")
    assert exc.value.witness == {"algebra": 1, "rho": [[0, 2], [1, 3]]}


# --- membership and subcategories ----------------------------------------------------

def test_membership_examples(group_corpus, rng_corpus, quandle_corpus):

    nil = builtin_operator("nilradical", rng_corpus)
    assert not membership(nil, cyclic_rng(4))
    assert membership(nil, cyclic_rng(6))
    q = builtin_operator("quandle", quandle_corpus)
    tq = next(a for a in quandle_corpus.algebras
              if a.size == 3 and membership(q, a))
    assert tq == trivial_quandle(3)
    top = builtin_operator("top", group_corpus)
    assert membership(top, cyclic_group(1))
    assert not membership(top, cyclic_group(2))


def test_subcategory_of_abelianization(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    members = subcategory_members(ab)
    sizes = sorted(a.size for a in members)
    # abelian members of the order-<=8 corpus: Z1..Z8 and V4
    assert sizes == [1, 2, 3, 4, 4, 5, 6, 7, 8]


def test_closed_under_quotients_abelian(group_corpus):
    abelian = predicate_from_equations("abelian", COMMUTATIVITY)
    assert closed_under_quotients(abelian, group_corpus)


def test_closed_under_quotients_trivial_quandles(quandle_corpus):
    trivial = predicate_from_equations("trivial", TRIVIAL_QUANDLE)
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
    abelian = predicate_from_equations("abelian", COMMUTATIVITY)
    rho = oracle_reflection(symmetric_group(3), abelian)
    assert rho.blocks() == ((0, 3, 4), (1, 2, 5))


def test_oracle_reflection_already_member():
    abelian = predicate_from_equations("abelian", COMMUTATIVITY)
    assert oracle_reflection(cyclic_group(4), abelian) == diagonal(cyclic_group(4))


def test_oracle_reflection_reduced_z8():
    reduced = predicate_from_quasiequations("reduced", REDUCED_RNG)
    rho = oracle_reflection(cyclic_rng(8), reduced)
    assert rho.blocks() == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_oracle_reflection_not_reflective_witness():
    # "size is exactly 2" accepts three quotients of V4 whose meet is the
    # diagonal, and V4 itself has size 4: not reflective
    pred = SubcategoryPredicate("size==2", lambda a: a.size == 2)
    with pytest.raises(NotReflective):
        oracle_reflection(klein_four_group(), pred)


def test_oracle_reflector_matches_derived_reflector(group_corpus):
    abelian = predicate_from_equations("abelian", COMMUTATIVITY)
    orc = oracle_reflector(group_corpus, abelian)
    refl = reflector_from_closure(builtin_operator("abelianization", group_corpus))
    assert orc.rho == refl.rho


def test_predicate_from_operator_matches_membership(group_corpus):
    ab = builtin_operator("abelianization", group_corpus)
    pred = predicate_from_operator(ab)
    for a in group_corpus.algebras:
        assert pred(a) == membership(ab, a)
