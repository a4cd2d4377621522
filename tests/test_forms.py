import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    compose,
    con_lattice,
    congruence_from_blocks,
    cyclic_group,
    diagonal,
    enumerate_surjections,
    full,
    homomorphism,
    identity_hom,
    image_congruence,
    join,
    leq,
    lifts,
    meet,
    preimage_congruence,
    quotient,
    symmetric_group,
)
from congform.errors import FibreMismatch, NotInE

import oracles
from oracles import kernel_congruence


def mod_map(n, m):
    return homomorphism(cyclic_group(n), cyclic_group(m), [i % m for i in range(n)])


# --- fibre order and lifting ----------------------------------------------------

def test_leq_matches_definition_exhaustively():
    a = symmetric_group(3)
    for r in con_lattice(a):
        for s in con_lattice(a):
            assert leq(r, s) == oracles.ids_leq(r.ids, s.ids)


def test_lift_along_identity_is_fibre_order():
    a = cyclic_group(8)
    for r in con_lattice(a):
        for s in con_lattice(a):
            assert lifts(identity_hom(a), r, s) == leq(r, s)


def test_diagonal_lifts_along_anything():
    f = mod_map(4, 2)
    for s in con_lattice(f.cod):
        assert lifts(f, diagonal(f.dom), s)


def test_full_does_not_lift_to_diagonal_along_mod2():
    f = mod_map(4, 2)
    assert not lifts(f, full(f.dom), diagonal(f.cod))


def test_lifts_checks_fibres():
    f = mod_map(4, 2)
    with pytest.raises(FibreMismatch):
        lifts(f, diagonal(cyclic_group(2)), diagonal(f.cod))


# --- canonical liftings -----------------------------------------------------------

def test_preimage_of_mod4_example():
    f = mod_map(8, 4)
    s = congruence_from_blocks(f.cod, [[0, 2], [1, 3]])
    assert preimage_congruence(f, s).blocks() == ((0, 2, 4, 6), (1, 3, 5, 7))


def test_preimage_of_full_and_along_identity():
    f = mod_map(8, 4)
    assert preimage_congruence(f, full(f.cod)) == full(f.dom)
    a = cyclic_group(4)
    for s in con_lattice(a):
        assert preimage_congruence(identity_hom(a), s) == s


def test_image_of_mod4_example():
    f = mod_map(8, 4)
    r = congruence_from_blocks(f.dom, [[0, 2, 4, 6], [1, 3, 5, 7]])
    assert image_congruence(f, r).blocks() == ((0, 2), (1, 3))


def test_image_of_diagonal_and_kernel():
    f = mod_map(8, 4)
    assert image_congruence(f, diagonal(f.dom)) == diagonal(f.cod)
    assert image_congruence(f, kernel_congruence(f)) == diagonal(f.cod)


def test_image_rejects_non_surjective_maps():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    f = homomorphism(z2, z4, [0, 2])
    with pytest.raises(NotInE):
        image_congruence(f, diagonal(z2))


# --- the two adjunction laws -------------------------------------------------------

def surjections_of_interest():
    pairs = [(8, 4), (8, 2), (4, 2), (6, 3), (6, 2)]
    homs = [mod_map(n, m) for n, m in pairs]
    s3, z1 = symmetric_group(3), cyclic_group(1)
    homs.extend(enumerate_surjections(s3, s3))
    homs.append(homomorphism(s3, z1, [0] * 6))
    return homs


@pytest.mark.parametrize("f", surjections_of_interest())
def test_lifting_adjunction(f):
    for r in con_lattice(f.dom):
        for s in con_lattice(f.cod):
            lifted = lifts(f, r, s)
            assert lifted == leq(image_congruence(f, r), s)
            assert lifted == leq(r, preimage_congruence(f, s))


@pytest.mark.parametrize("f", surjections_of_interest())
def test_cartesian_law_preimage_of_kernel(f):
    # for e a quotient of cod(f): f^{-1}(ker e) = ker (e o f)
    for s in con_lattice(f.cod):
        _, e = quotient(f.cod, s)
        assert preimage_congruence(f, kernel_congruence(e)) == kernel_congruence(compose(e, f))


def test_pushout_law_composition():
    f = mod_map(8, 4)
    g = mod_map(4, 2)
    for r in con_lattice(f.dom):
        assert image_congruence(compose(g, f), r) == \
            image_congruence(g, image_congruence(f, r))


@pytest.mark.parametrize("f", surjections_of_interest())
def test_preimage_monotone_and_meet_preserving(f):
    cons = list(con_lattice(f.cod))
    for s in cons:
        for t in cons:
            if leq(s, t):
                assert leq(preimage_congruence(f, s), preimage_congruence(f, t))
            assert preimage_congruence(f, meet(s, t)) == \
                meet(preimage_congruence(f, s), preimage_congruence(f, t))


@pytest.mark.parametrize("f", surjections_of_interest())
def test_image_monotone_and_join_preserving(f):
    cons = list(con_lattice(f.dom))
    for r in cons:
        for t in cons:
            if leq(r, t):
                assert leq(image_congruence(f, r), image_congruence(f, t))
            assert image_congruence(f, join(r, t)) == \
                join(image_congruence(f, r), image_congruence(f, t))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.data())
def test_adjunction_on_sampled_cyclic_quotients(n, data):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    m = data.draw(st.sampled_from(divisors))
    f = mod_map(n, m)
    cons_dom = list(con_lattice(f.dom))
    cons_cod = list(con_lattice(f.cod))
    r = data.draw(st.sampled_from(cons_dom))
    s = data.draw(st.sampled_from(cons_cod))
    assert lifts(f, r, s) == leq(r, preimage_congruence(f, s))
    assert lifts(f, r, s) == leq(image_congruence(f, r), s)
