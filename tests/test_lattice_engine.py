"""Differential tests: the lattice-native engine against the code it replaced.

``make_operator`` checks naturality as monotonicity plus continuity,
``join`` is the equivalence closure of the union and ``image_congruence``
needs no operation propagation.  Each is compared here with the general
search it replaced, kept in ``oracles``: the (f, R, S) lifting-law scan,
the Mal'cev join and the propagated image.
"""

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    con_lattice,
    congruence_from_blocks,
    corpus,
    cyclic_group,
    homomorphism,
    image_congruence,
    join,
    klein_four_group,
    leq,
    lifts,
    make_operator,
    symmetric_group,
    universe,
    universe_from_generators,
)
from congform.errors import NotNatural
from congform.operators import extensive_families, naturality_maps, surjections_in

import oracles


def assert_real_violation(u, tables, witness):
    """The witness names a map of the universe that breaks the lifting law."""
    x, y = u.algebras[witness["dom"]], u.algebras[witness["cod"]]
    f = homomorphism(x, y, witness["map"])
    assert f in naturality_maps(u, x, y)
    r = congruence_from_blocks(x, witness["R"])
    s = congruence_from_blocks(y, witness["S"])
    assert lifts(f, r, s)
    assert not lifts(f, tables[witness["dom"]][r], tables[witness["cod"]][s])


def natural_verdict(u, tables) -> bool:
    """make_operator's verdict, checked against the oracle scan and its witness."""
    expected = oracles.lifting_law_witness(u, tables) is None
    try:
        make_operator(u, tables, "candidate")
    except NotNatural as exc:
        assert not expected
        assert set(exc.witness) == {"dom", "cod", "map", "R", "S"}
        assert_real_violation(u, tables, exc.witness)
        return False
    assert expected
    return True


def verdict_counts(u):
    verdicts = [natural_verdict(u, list(c)) for c in extensive_families(u)]
    return len(verdicts), sum(verdicts)


# --- naturality ----------------------------------------------------------------

def test_naturality_verdicts_on_group_universes_up_to_order_4():
    counts = [verdict_counts(universe_from_generators([g]))
              for g in corpus("groups", 4).algebras]
    # (candidates, natural) for Z1, Z2, Z3, V4 and Z4
    assert counts == [(1, 1), (2, 2), (2, 2), (80, 4), (12, 7)]


def test_naturality_verdicts_on_a_non_quotient_closed_universe():
    u = universe([cyclic_group(4), klein_four_group(), cyclic_group(2)])
    assert not u.quotient_closed
    assert verdict_counts(u) == (480, 5)


def _random_extensive_tables(data, u):
    tables = []
    for x in u.algebras:
        lattice = list(con_lattice(x))
        tables.append({r: data.draw(st.sampled_from([s for s in lattice if leq(r, s)]))
                       for r in lattice})
    return tables


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


# --- joins and images --------------------------------------------------------------

CORPORA = [("groups", 8), ("rngs", 12), ("quandles", 4)]


@pytest.mark.parametrize("kind,size", CORPORA)
def test_every_join_matches_malcev_join(kind, size):
    for x in corpus(kind, size).algebras:
        lattice = list(con_lattice(x))
        for r in lattice:
            for s in lattice:
                assert join(r, s) == oracles.malcev_join(r, s)


@pytest.mark.parametrize("kind,size", CORPORA)
def test_every_image_matches_propagated_image(kind, size):
    for f in surjections_in(corpus(kind, size)):
        for r in con_lattice(f.dom):
            assert image_congruence(f, r) == oracles.propagated_image(f, r)
