import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    GROUP_SIGNATURE,
    QUANDLE_SIGNATURE,
    Signature,
    canonical_algebra,
    con_lattice,
    congruence_from_blocks,
    corpus,
    cyclic_group,
    cyclic_rng,
    diagonal,
    dihedral_group,
    enumerate_homs,
    enumerate_surjections,
    find_isomorphism,
    full,
    generated_congruence,
    homomorphism,
    identity_hom,
    join,
    klein_four_group,
    meet,
    quotient,
    symmetric_group,
    validate_algebra,
)
from congform import algebras
from congform.algebras import Congruence, _canonical_ids, _flatten, is_compatible
from congform.errors import (
    AxiomViolation,
    FibreMismatch,
    NotACongruence,
    NotAHomomorphism,
    OutOfRange,
    SignatureMismatch,
    SizeTooLarge,
    TableShape,
    UnknownOp,
)

import oracles
from oracles import kernel_congruence, trivial_quandle
from test_lattice_engine import positional_ternary_algebras


def z4_tables():
    return {
        "mul": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        "inv": [(-i) % 4 for i in range(4)],
        "e": 0,
    }


# --- validation ---------------------------------------------------------------

def test_validate_accepts_z4_group():
    a = validate_algebra(4, GROUP_SIGNATURE, z4_tables(), "group")
    assert a == cyclic_group(4)


def test_validate_rejects_out_of_range_entry():
    tables = z4_tables()
    tables["mul"][1][1] = 7
    with pytest.raises(OutOfRange):
        validate_algebra(4, GROUP_SIGNATURE, tables, "group")


def test_validate_rejects_bad_shape():
    tables = z4_tables()
    tables["mul"] = tables["mul"][:3]
    with pytest.raises(TableShape):
        validate_algebra(4, GROUP_SIGNATURE, tables, "group")
    with pytest.raises(TableShape):
        validate_algebra(4, GROUP_SIGNATURE, {"mul": z4_tables()["mul"]}, None)


def _flatten_outcome(flatten, nested, n, arity):
    try:
        return flatten(nested, n, arity, "f")
    except TableShape as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flatten_matches_the_recursive_oracle(data):
    # a nested table with at most one defect, so both report the same one
    n, arity = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=n ** arity,
                                 max_size=n ** arity))
    table = entries if arity else entries[0]
    for _ in range(arity - 1):  # rows of n, innermost level first, as lists or tuples
        rows = [table[i:i + n] for i in range(0, len(table), n)]
        table = rows if data.draw(st.booleans()) else [tuple(r) for r in rows]
    depth = data.draw(st.integers(-1, arity))
    if depth >= 0:
        path = [data.draw(st.integers(0, n - 1)) for _ in range(depth)]
        bad = data.draw(st.sampled_from([7, True, "x", None, 1.5, [], [0] * (n + 1)]))
        if not path:
            table = bad
        else:
            node = table = json.loads(json.dumps(table))
            for i in path[:-1]:
                node = node[i]
            node[path[-1]] = bad
    assert (_flatten_outcome(_flatten, table, n, arity)
            == _flatten_outcome(oracles.recursive_flatten, table, n, arity))


def test_validate_quandle_axiom_violation_cites_idempotence():
    t = [[x for _ in range(3)] for x in range(3)]
    t[0][0] = 1  # break a <| a = a
    with pytest.raises(AxiomViolation) as exc:
        validate_algebra(3, QUANDLE_SIGNATURE, {"lhd": t, "lhd_inv": t}, "quandle")
    assert "a ◁ a = a" in str(exc.value)
    assert exc.value.witness["assignment"] == [0]


def test_signature_rejects_duplicates():
    with pytest.raises(ValueError):
        Signature((("f", 2), ("f", 1)))


def test_op_rejects_a_wrong_argument_count_and_elements_outside_the_carrier():
    # before the check, these read another table entry or escaped as IndexError
    last = corpus("quandles", 3).algebras[-1]
    z4 = cyclic_group(4)
    for a, call in [(last, ("lhd", 1)), (last, ("lhd_inv", 2)), (last, ("lhd", 0, 1, 2)),
                    (z4, ("e", 3)), (z4, ("inv",)), (z4, ("mul", 1))]:
        with pytest.raises(UnknownOp, match="arguments, arity is"):
            a.op(*call)
    for a, call in [(last, ("lhd", 0, 3)), (z4, ("mul", 4, 0)), (z4, ("inv", -1)),
                    (z4, ("mul", True, 0)), (z4, ("inv", 1.0))]:
        with pytest.raises(OutOfRange):
            a.op(*call)


def test_op_reads_the_flat_tables():
    for a in [*corpus("quandles", 3).algebras, cyclic_group(4), cyclic_rng(6),
              *positional_ternary_algebras()]:
        for (name, arity), table in zip(a.sig.ops, a.tables):
            tuples = itertools.product(range(a.size), repeat=arity)
            assert [a.op(name, *t) for t in tuples] == list(table)


# --- homomorphisms ------------------------------------------------------------

def test_homs_z2_z2_match_brute_force():
    z2 = cyclic_group(2)
    homs = enumerate_homs(z2, z2)
    assert [f.map for f in homs] == oracles.brute_homs(z2, z2)
    assert [f.map for f in homs] == [(0, 0), (0, 1)]


def test_homs_agree_with_brute_force_on_small_pairs():
    algebras = [cyclic_group(2), cyclic_group(3), cyclic_group(4), trivial_quandle(2)]
    for x in algebras:
        for y in algebras:
            if x.sig != y.sig:
                continue
            assert [f.map for f in enumerate_homs(x, y)] == oracles.brute_homs(x, y)


def test_no_surjections_onto_larger_algebra():
    assert enumerate_surjections(cyclic_group(2), cyclic_group(4)) == ()


def test_unique_surjection_to_terminal_algebra():
    for x in (cyclic_group(4), symmetric_group(3)):
        assert len(enumerate_surjections(x, cyclic_group(1))) == 1


def test_hom_enumeration_requires_shared_signature():
    with pytest.raises(SignatureMismatch):
        enumerate_homs(cyclic_group(2), cyclic_rng(2))


def test_homomorphism_constructor_validates():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = homomorphism(z4, z2, [0, 1, 0, 1])
    assert f.surjective
    with pytest.raises(NotAHomomorphism):
        homomorphism(z4, z2, [0, 0, 0, 1])


# --- kernels and quotients ------------------------------------------------------

def test_kernel_of_mod2_projection():
    f = homomorphism(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1])
    assert kernel_congruence(f).blocks() == ((0, 2), (1, 3))


def test_kernels_are_always_compatible():
    s3, z2 = symmetric_group(3), cyclic_group(2)
    for f in enumerate_homs(s3, s3) + enumerate_homs(s3, z2):
        k = kernel_congruence(f)
        assert is_compatible(f.dom, k.ids)


def test_kernel_of_identity_is_diagonal():
    z4 = cyclic_group(4)
    assert kernel_congruence(identity_hom(z4)) == diagonal(z4)


def test_kernel_of_constant_map_is_full():
    z4 = cyclic_group(4)
    f = homomorphism(z4, cyclic_group(1), [0, 0, 0, 0])
    assert kernel_congruence(f) == full(z4)


def test_quotient_of_z4_by_mod2_kernel_is_z2():
    z4 = cyclic_group(4)
    r = congruence_from_blocks(z4, [[0, 2], [1, 3]])
    q, proj = quotient(z4, r)
    assert q == cyclic_group(2)
    assert proj.surjective and kernel_congruence(proj) == r
    for a in range(4):
        for b in range(4):
            assert proj.map[z4.op("mul", a, b)] == q.op("mul", proj.map[a], proj.map[b])


def test_quotient_by_diagonal_is_same_algebra():
    for a in (cyclic_group(4), symmetric_group(3), cyclic_rng(6)):
        q, proj = quotient(a, diagonal(a))
        assert q == a and proj.map == tuple(range(a.size))


def test_quotient_by_full_is_one_element():
    q, _ = quotient(symmetric_group(3), full(symmetric_group(3)))
    assert q.size == 1


def test_quotient_kernel_roundtrip_on_all_congruences():
    for a in (cyclic_group(8), symmetric_group(3), cyclic_rng(12), dihedral_group(4)):
        for r in con_lattice(a):
            _, proj = quotient(a, r)
            assert kernel_congruence(proj) == r


# --- congruence generation -------------------------------------------------------

def test_generated_congruence_z4_examples():
    z4 = cyclic_group(4)
    assert generated_congruence(z4, [(0, 2)]).blocks() == ((0, 2), (1, 3))
    assert generated_congruence(z4, [(0, 1)]) == full(z4)
    assert generated_congruence(z4, []) == diagonal(z4)


@pytest.mark.parametrize("maker", [
    lambda: cyclic_group(4),
    lambda: cyclic_group(6),
    lambda: symmetric_group(3),
    lambda: cyclic_rng(6),
    lambda: trivial_quandle(3),
    lambda: dihedral_group(3),
])
def test_generated_congruence_matches_meet_oracle(maker):
    a = maker()
    for pair in itertools.combinations(range(a.size), 2):
        assert generated_congruence(a, [pair]).ids == oracles.brute_generated(a, [pair])


def test_generated_congruence_multi_pair_oracle():
    a = dihedral_group(3)
    pairs = [(0, 2), (1, 4)]
    assert generated_congruence(a, pairs).ids == oracles.brute_generated(a, pairs)


def test_generated_congruence_ternary_operation():
    # median operation on a 4-chain: exercises the arity>2 propagation path
    n = 4
    med = [[[sorted((a, b, c))[1] for c in range(n)] for b in range(n)]
           for a in range(n)]
    alg = validate_algebra(n, Signature((("med", 3),)), {"med": med})
    for pair in itertools.combinations(range(n), 2):
        assert generated_congruence(alg, [pair]).ids == \
            oracles.brute_generated(alg, [pair])
    # operations that read only the last or only the middle argument, against
    # the meet of the partitions that pass the tuple scan
    for x in positional_ternary_algebras():
        congruences = [ids for ids in oracles.all_partitions(x.size)
                       if oracles.scan_is_compatible(x, ids)]
        for a, b in itertools.combinations(range(x.size), 2):
            assert generated_congruence(x, [(a, b)]).ids == oracles.meet_ids(
                [ids for ids in congruences if ids[a] == ids[b]], x.size)


# --- lattices ---------------------------------------------------------------------

def test_con_lattice_z4_is_the_three_chain():
    lattice = con_lattice(cyclic_group(4))
    assert [r.blocks() for r in lattice] == [
        ((0, 1, 2, 3),),
        ((0, 2), (1, 3)),
        ((0,), (1,), (2,), (3,)),
    ]
    assert oracles.brute_congruences(cyclic_group(4)) == sorted(
        r.ids for r in lattice)


def test_con_lattice_one_element():
    one = cyclic_group(1)
    lattice = con_lattice(one)
    assert len(lattice) == 1
    assert lattice == (diagonal(one),) == (full(one),)


@pytest.mark.parametrize("maker", [
    lambda: symmetric_group(3),
    lambda: cyclic_rng(6),
    lambda: trivial_quandle(3),
    lambda: klein_four_group(),
    lambda: dihedral_group(3),
])
def test_con_lattice_matches_partition_scan(maker):
    a = maker()
    assert sorted(r.ids for r in con_lattice(a)) == sorted(oracles.brute_congruences(a))


def test_join_meet_unit_laws():
    a = symmetric_group(3)
    for r in con_lattice(a):
        assert join(diagonal(a), r) == r
        assert meet(full(a), r) == r
        assert join(r, r) == r and meet(r, r) == r


def test_lattice_axioms_exhaustive_on_s3():
    a = symmetric_group(3)
    cons = list(con_lattice(a))
    for r in cons:
        for s in cons:
            assert join(r, s) == join(s, r)
            assert meet(r, s) == meet(s, r)
            assert join(r, meet(r, s)) == r
            assert meet(r, join(r, s)) == r
            for t in cons:
                assert join(join(r, s), t) == join(r, join(s, t))
                assert meet(meet(r, s), t) == meet(r, meet(s, t))


def test_meet_requires_same_algebra():
    with pytest.raises(FibreMismatch):
        meet(diagonal(cyclic_group(2)), diagonal(cyclic_group(3)))


def test_lattice_closed_under_join_and_meet():
    for a in (symmetric_group(3), cyclic_rng(8), trivial_quandle(3)):
        elements = set(con_lattice(a))
        assert diagonal(a) in elements and full(a) in elements
        for r in elements:
            for s in elements:
                assert join(r, s) in elements
                assert meet(r, s) in elements


def _magma(table_flat: list[int]) -> "FiniteAlgebra":
    import math

    n = math.isqrt(len(table_flat))
    nested = [table_flat[i * n:(i + 1) * n] for i in range(n)]
    return validate_algebra(n, Signature((("f", 2),)), {"f": nested})


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
def test_lattice_and_generation_on_random_magmas(flat):
    # untagged binary tables: a different population than the bundled varieties
    a = _magma(flat)
    assert sorted(r.ids for r in con_lattice(a)) == sorted(oracles.brute_congruences(a))
    for pair in itertools.combinations(range(a.size), 2):
        assert generated_congruence(a, [pair]).ids == oracles.brute_generated(a, [pair])


def test_first_isomorphism_law():
    # a surjection factors as its canonical quotient followed by an iso
    s3, z2 = symmetric_group(3), cyclic_group(2)
    for f in enumerate_surjections(s3, z2) + enumerate_surjections(s3, s3):
        q, proj = quotient(f.dom, kernel_congruence(f))
        iso = find_isomorphism(q, f.cod)
        assert iso is not None
        # ...and some iso actually commutes with the projection
        induced = [None] * q.size
        for x in range(f.dom.size):
            induced[proj.map[x]] = f.map[x]
        g = homomorphism(q, f.cod, induced)
        assert g.surjective and [g(proj(x)) for x in range(f.dom.size)] == list(f.map)


# --- canonical encodings -----------------------------------------------------------

@given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
def test_canonical_ids_idempotent_and_least_element_indexed(labels):
    ids = _canonical_ids(labels)
    assert _canonical_ids(ids) == ids
    assert ids[0] == 0
    assert max(ids) + 1 == len(set(labels))
    # first occurrence of each id is increasing
    firsts = [ids.index(b) for b in range(max(ids) + 1)]
    assert firsts == sorted(firsts)


@settings(max_examples=300)
@given(st.lists(st.integers(-3, 5) | st.tuples(st.integers(0, 2), st.integers(0, 2)),
                max_size=16))
def test_canonical_ids_match_the_loop_they_replaced(labels):
    # ints, as a pull-back labels its elements, and tuples of block ids, as a meet does
    assert _canonical_ids(labels) == oracles.loop_canonical_ids(labels)
    assert _canonical_ids(iter(labels)) == oracles.loop_canonical_ids(labels)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=8))
def test_relabeled_partitions_are_equal_as_congruences(labels):
    a = trivial_quandle(len(labels))  # every partition is compatible here
    shifted = [(lab + 17) * 3 for lab in labels]
    assert Congruence(a, _canonical_ids(labels)) == Congruence(a, _canonical_ids(shifted))


def test_blocks_roundtrip():
    a = cyclic_group(6)
    for r in con_lattice(a):
        assert congruence_from_blocks(a, [list(b) for b in r.blocks()]) == r


def test_congruence_from_blocks_fills_singletons():
    tq = trivial_quandle(3)
    r = congruence_from_blocks(tq, [[0, 2]])
    assert r.blocks() == ((0, 2), (1,))
    assert is_compatible(tq, r.ids)


def test_congruence_from_blocks_rejects_incompatible_partition():
    z4 = cyclic_group(4)
    # {0,2} with singletons {1},{3} is not compatible: 0~2 forces 1~3
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z4, [[0, 2]])
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z4, [[0, 1], [2], [3]])
    with pytest.raises(NotACongruence):
        congruence_from_blocks(z4, [[0, 1], [1, 2]])
    with pytest.raises(OutOfRange):
        congruence_from_blocks(z4, [[0, 9]])


# --- isomorphism machinery ----------------------------------------------------------

def test_find_isomorphism_identity_first():
    a = symmetric_group(3)
    iso = find_isomorphism(a, a)
    assert iso.map == tuple(range(6))


def test_find_isomorphism_between_presentations():
    iso = find_isomorphism(dihedral_group(3), symmetric_group(3))
    assert iso is not None
    f = homomorphism(dihedral_group(3), symmetric_group(3), iso.map)
    assert f.surjective


def test_no_isomorphism_across_classes():
    assert find_isomorphism(cyclic_group(4), klein_four_group()) is None


def test_canonical_algebra_is_isomorphism_invariant(monkeypatch):
    d3, s3 = dihedral_group(3), symmetric_group(3)
    assert canonical_algebra(d3) == canonical_algebra(s3)
    assert find_isomorphism(canonical_algebra(d3), d3) is not None
    # a size-8 algebra is refused before any of its 8! relabelings is built
    monkeypatch.setattr(algebras, "_transport", None)
    with pytest.raises(SizeTooLarge):
        canonical_algebra(cyclic_group(8))
