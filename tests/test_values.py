"""The value classes against their frozen-dataclass twins.

Every value class is a slotted ``errors.Frozen``: immutable, equal only to
an instance of the same class with equal fields, and hashed by those
fields.  Here each corpus value is rebuilt as a frozen dataclass
(``oracles.dataclass_twin``), whose generated ``__eq__`` compares the field
tuples, and the two equalities must agree on every pair.
"""

import copy
import itertools
import pickle

import pytest

from congform import (
    CheckResult,
    ClosureOperator,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    Reflector,
    Signature,
    SubcategoryPredicate,
    Universe,
    builtin_operator,
    con_lattice,
    corpus,
    cyclic_group,
    enumerate_operators,
    preserves_cocartesian,
    quotient_maps,
    reflector_from_closure,
    satisfies_equations,
    universe_from_generators,
)
from congform import instances, terms
from congform.errors import PASSED

import oracles

LAWS = (terms.GROUP_AXIOMS, terms.COMMUTATIVE_RNG_AXIOMS, terms.QUANDLE_AXIOMS,
        terms.COMMUTATIVITY, terms.ELEMENTARY_ABELIAN_2, terms.TRIVIAL_QUANDLE,
        terms.ONE_ELEMENT)


def corpus_values():
    """Values of every class, with equal copies that are not identical and
    near misses that differ in one field."""
    u = corpus("groups", 8)
    algebras = list(u.algebras)
    copies = [FiniteAlgebra(a.size, a.sig, a.tables, a.tag) for a in algebras]
    untagged = [FiniteAlgebra(a.size, a.sig, a.tables) for a in algebras[:3]]
    congruences = [r for a in algebras for r in con_lattice(a)]
    congruence_copies = [Congruence(b, r.ids) for a, b in zip(algebras, copies)
                         for r in con_lattice(a)]
    homs = list(dict.fromkeys(f for fs in quotient_maps(u).values() for f in fs))
    flipped = [Homomorphism(f.dom, f.cod, f.map, not f.surjective) for f in homs[:3]]
    universes = [u, Universe(u.algebras), Universe(u.algebras[::-1]),
                 universe_from_generators([algebras[-1]])]
    operators = [builtin_operator(name, u) for name in instances.corpus_operators("groups")]
    operators += [ClosureOperator(c.universe, c.name, c.rows) for c in operators]
    operators.append(ClosureOperator(u, "renamed", operators[0].rows))
    reflectors = [reflector_from_closure(c) for c in operators[:2]]
    reflectors.append(Reflector(u, reflectors[0].name, reflectors[0].rho))
    predicates = [instances.oracle_predicate(c.name) for c in operators[:2]]
    predicates.append(SubcategoryPredicate(predicates[0].name, predicates[0].accepts))
    equations = [e for laws in LAWS for e in laws]
    term_values = [t for e in equations for t in (e.lhs, e.rhs)]
    results = [PASSED, CheckResult(True), CheckResult(False), *deferred_and_eager()]
    results += [satisfies_equations(a, terms.COMMUTATIVITY) for a in algebras[:6]]
    rngs = corpus("rngs", 4).algebras
    signatures = [a.sig for a in algebras[:2] + list(rngs[:1])]
    signatures.append(Signature(algebras[0].sig.ops))
    return (algebras + copies + untagged + congruences + congruence_copies + homs + flipped
            + universes + operators + reflectors + predicates + equations + term_values
            + list(terms.REDUCED_RNG) + results + signatures)


def deferred_and_eager() -> tuple[CheckResult, CheckResult]:
    """A failing result whose witness is not yet read, and its eager twin."""
    u = universe_from_generators([cyclic_group(4)])
    c = next(c for c in enumerate_operators(u) if not preserves_cocartesian(c))
    return preserves_cocartesian(c), oracles.eager_preserves_cocartesian(c)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_every_value_class_is_covered():
    assert {type(v) for v in corpus_values()} == set(oracles.value_fields())


def test_equality_and_hash_match_the_dataclass_twins():
    values = corpus_values()
    memo: dict = {}
    twins = [oracles.dataclass_twin(v, memo) for v in values]
    equal_pairs = 0
    for (a, ta), (b, tb) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) == (ta == tb), (a, b)
        assert (a != b) == (ta != tb), (a, b)
        if a == b:
            equal_pairs += 1
            assert _hash_or_error(a) == _hash_or_error(b), (a, b)
    assert equal_pairs > len(values)  # the copies are equal to their originals
    for v, t in zip(values, twins):
        assert (_hash_or_error(v) is TypeError) == (_hash_or_error(t) is TypeError), v


def test_values_are_immutable():
    for v in corpus_values():
        for name in oracles.value_fields()[type(v)]:
            with pytest.raises(AttributeError):
                setattr(v, name, getattr(v, name))
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = None


def test_copies_are_equal_and_reprs_are_kept():
    for v in corpus_values():
        assert copy.copy(v) == v
        if type(v) in (CheckResult, SubcategoryPredicate):
            # the dataclass-generated repr, with the fields as they are
            fields = oracles.value_fields()[type(v)]
            assert repr(v) == repr(oracles.twin_class(type(v))(*(getattr(v, f) for f in fields)))


def test_a_deferred_witness_reads_as_its_eager_twin():
    # each check reads the witness of a fresh result first
    deferred, eager = deferred_and_eager()
    assert callable(deferred._witness)  # not located yet
    assert repr(deferred) == repr(eager)
    assert deferred._witness == eager.witness
    assert deferred_and_eager()[0] == eager
    assert _hash_or_error(deferred_and_eager()[0]) is TypeError
    assert copy.copy(deferred_and_eager()[0]) == eager
    assert copy.deepcopy(deferred_and_eager()[0]) == eager
    assert pickle.loads(pickle.dumps(deferred_and_eager()[0])) == eager
    assert deferred_and_eager()[0].as_json() == eager.as_json()


def test_laws_hash_without_building_their_key(monkeypatch):
    # the lru_caches keyed by law tuples (the verbal congruence of the law
    # rules) hash every law on each call, so each law stores its hash
    laws = [e for laws in LAWS + (terms.REDUCED_RNG,) for e in laws]
    expected = [hash(law._key()) for law in laws]
    for cls in (terms.Equation, terms.QuasiEquation):
        monkeypatch.setattr(cls, "_key", lambda self: pytest.fail("a law built its key to hash"))
    assert [hash(law) for law in laws] == expected
