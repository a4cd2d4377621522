"""Equation checks, and the compiled programs against the tree-walking scan.

``satisfies_equations`` runs each law, equation or quasi-equation, as a
compiled post-order program over blocks of assignments; the oracles in
``oracles`` evaluate the terms at every assignment with ``eval_term``.
Both must return equal ``CheckResult``s: the verdict, the failing law's
label and the first failing assignment.
"""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from congform import (
    corpus,
    cyclic_group,
    cyclic_rng,
    satisfies_equations,
    symmetric_group,
)
from congform import terms
from congform.algebras import FiniteAlgebra, Signature
from congform.errors import PASSED, UnknownOp
from congform.terms import (
    COMMUTATIVITY,
    Equation,
    QuasiEquation,
    REDUCED_RNG,
    TRIVIAL_QUANDLE,
    app,
    var,
)

import oracles
from oracles import trivial_quandle


def test_a_law_need_not_use_every_variable_index():
    # f(x1) = x1 gets one column, for x1; its witness lists x1's value
    eq = Equation(app("f", var(1)), var(1))
    k, _, _ = terms._compile((eq.lhs, eq.rhs))
    assert k == 1
    unary = FiniteAlgebra(3, Signature((("f", 1),)), ((0, 2, 1),))
    assert satisfies_equations(unary, (eq,)).witness == {"equation": "f(x1) = x1",
                                                         "assignment": [1]}


def test_unknown_op_raises():
    z4 = cyclic_group(4)
    bad = (Equation(app("frobnicate", var(0)), var(0)),)
    with pytest.raises(UnknownOp):
        satisfies_equations(z4, bad)


def test_commutativity_on_cyclic_group():
    assert satisfies_equations(cyclic_group(4), COMMUTATIVITY)


def test_commutativity_fails_on_s3_with_first_witness():
    res = satisfies_equations(symmetric_group(3), COMMUTATIVITY)
    assert not res
    # lexicographic scan: (1, 2) is the first non-commuting pair
    assert res.witness == {"equation": "x·y = y·x", "assignment": [1, 2]}


def test_reflexive_equation_always_holds():
    eq = (Equation(var(0), var(0)),)
    for a in (cyclic_group(4), symmetric_group(3), trivial_quandle(3)):
        assert satisfies_equations(a, eq)


def test_reducedness_quasiequation():
    assert satisfies_equations(cyclic_rng(2), REDUCED_RNG)
    res = satisfies_equations(cyclic_rng(4), REDUCED_RNG)
    assert not res
    assert res.witness["assignment"] == [2]


def test_empty_premises_mean_plain_equation():
    q = (QuasiEquation(premises=(), conclusion=Equation(var(0), var(0))),)
    assert satisfies_equations(cyclic_rng(4), q)


def test_trivial_quandle_predicate():
    assert satisfies_equations(trivial_quandle(3), TRIVIAL_QUANDLE)


def test_variable_free_equation_has_the_empty_assignment():
    z4 = cyclic_group(4)
    assert satisfies_equations(z4, (Equation(app("inv", app("e")), app("e")),))
    res = satisfies_equations(z4, (Equation(app("e"), app("mul", app("e"), app("e")),
                                            label="e = e·e"),))
    assert res
    res = satisfies_equations(z4, (Equation(app("inv", app("e")), app("e")),
                                   Equation(app("e"), app("inv", app("e"))),
                                   Equation(var(0), app("e"), label="x = e")))
    assert res.witness == {"equation": "x = e", "assignment": [1]}


def test_wrong_arity_raises():
    with pytest.raises(UnknownOp):
        satisfies_equations(cyclic_group(4), (Equation(app("inv", var(0), var(0)), var(0)),))
    with pytest.raises(UnknownOp):
        satisfies_equations(cyclic_rng(4), (QuasiEquation(
            premises=(Equation(app("zero", var(0)), var(0)),),
            conclusion=Equation(var(0), var(0))),))


# --- compiled programs against the tree-walking scan ------------------------------

EQUATION_TUPLES = (terms.GROUP_AXIOMS, terms.COMMUTATIVE_RNG_AXIOMS, terms.QUANDLE_AXIOMS,
                   terms.COMMUTATIVITY, terms.ELEMENTARY_ABELIAN_2, terms.TRIVIAL_QUANDLE,
                   terms.ONE_ELEMENT)
CORPORA = (("groups", 8), ("rngs", 12), ("quandles", 4))


def _outcome(check, algebra, eqs):
    """The CheckResult, or the UnknownOp message for a foreign signature."""
    try:
        return check(algebra, eqs)
    except UnknownOp as e:
        return ("UnknownOp", str(e))


def _assert_checks_agree(algebra):
    for eqs in EQUATION_TUPLES:
        got = _outcome(satisfies_equations, algebra, eqs)
        assert got == _outcome(oracles.scan_satisfies_equations, algebra, eqs), eqs
        assert got == _outcome(oracles.block_satisfies_equations, algebra, eqs), eqs
    assert (_outcome(satisfies_equations, algebra, REDUCED_RNG)
            == _outcome(oracles.scan_satisfies_quasiequations, algebra, REDUCED_RNG))


def _members():
    return [a for kind, size in CORPORA for a in corpus(kind, size).algebras]


def test_compiled_checks_match_the_scan_on_corpus_members():
    for a in _members():
        _assert_checks_agree(a)


def test_compiled_checks_match_the_scan_on_altered_members():
    # one entry changed per table, at its first and its last index, so that
    # the axioms fail and failing witnesses are compared too
    altered = 0
    for a in _members():
        if a.size == 1:
            continue
        for i, table in enumerate(a.tables):
            for idx in {0, len(table) - 1}:
                t = list(table)
                t[idx] = (t[idx] + 1) % a.size
                tables = a.tables[:i] + (tuple(t),) + a.tables[i + 1:]
                b = FiniteAlgebra(a.size, a.sig, tables, a.tag)
                _assert_checks_agree(b)
                altered += not satisfies_equations(b, _axioms(a))
    assert altered > 100


def _axioms(a):
    return {"group": terms.GROUP_AXIOMS, "commutative-rng": terms.COMMUTATIVE_RNG_AXIOMS,
            "quandle": terms.QUANDLE_AXIOMS}[a.tag]


@st.composite
def _random_case(draw):
    """An untagged algebra with operations of arity 0 to 3, and equations and
    a quasi-equation drawn from one pool of terms, so subterms are shared and
    a law may skip variable indices."""
    n = draw(st.integers(1, 3))
    arities = [0] + draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    sig = Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))
    tables = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n ** k,
                                       max_size=n ** k)))
                   for k in arities)
    algebra = FiniteAlgebra(n, sig, tables)
    pool = [var(i) for i in range(draw(st.integers(0, 3)))] + [app("f0")]
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(sig.ops))
        pool.append(app(op[0], *(draw(st.sampled_from(pool)) for _ in range(op[1]))))
    closed = [t for t in pool if not t.variables()]
    pick = st.sampled_from(pool)
    eqs = [Equation(draw(pick), draw(pick)) for _ in range(draw(st.integers(1, 3)))]
    eqs.append(Equation(draw(st.sampled_from(closed)), draw(st.sampled_from(closed))))
    qeq = QuasiEquation(tuple(eqs[:-2]), eqs[-2])
    return algebra, eqs, qeq


@settings(max_examples=200, deadline=None)
@given(_random_case())
def test_compiled_checks_match_the_scan_on_random_algebras(case):
    algebra, eqs, qeq = case
    for order in (eqs, eqs[::-1]):
        got = satisfies_equations(algebra, order)
        assert got == oracles.scan_satisfies_equations(algebra, order)
        assert got == oracles.block_satisfies_equations(algebra, order)
    for q in (qeq, QuasiEquation((), qeq.conclusion)):
        assert satisfies_equations(algebra, (q,)) == (
            oracles.scan_satisfies_quasiequations(algebra, (q,)))


# --- mixed lists of equations and quasi-equations ------------------------------------

def _law_by_law(algebra, laws):
    """The first failing law's result from the scan of its kind, or PASSED."""
    for law in laws:
        scan = (oracles.scan_satisfies_equations if isinstance(law, Equation)
                else oracles.scan_satisfies_quasiequations)
        res = scan(algebra, (law,))
        if not res:
            return res
    return PASSED


_x, _y = var(0), var(1)
MIXED_LAWS = {
    "group": (
        (QuasiEquation((Equation(app("mul", _x, _x), app("e")),), Equation(_x, app("e")),
                       label="x·x = e ⇒ x = e"),) + COMMUTATIVITY,
        terms.ELEMENTARY_ABELIAN_2 + (QuasiEquation(
            (Equation(app("mul", _x, _x), app("e")), Equation(app("mul", var(2), var(2)),
                                                               app("e"))),
            Equation(_x, var(2))),),
    ),
    "commutative-rng": (
        REDUCED_RNG + COMMUTATIVITY,
        terms.COMMUTATIVE_RNG_AXIOMS + (QuasiEquation(
            (Equation(app("mul", var(2), var(2)), app("zero")),), Equation(var(2), app("zero"))),),
    ),
    "quandle": (
        TRIVIAL_QUANDLE + (QuasiEquation((Equation(app("lhd", _x, _y), _x),),
                                         Equation(app("lhd", _y, _x), _y),
                                         label="x ◁ y = x ⇒ y ◁ x = y"),),
    ),
}


def test_mixed_law_lists_match_the_scans_law_by_law_on_corpus_members():
    kinds = set()
    for a in _members():
        for laws in MIXED_LAWS[a.tag]:
            for order in (laws, laws[::-1]):
                got = satisfies_equations(a, order)
                assert got == _law_by_law(a, order), (a, order)
                if not got:
                    kinds |= got.witness.keys() - {"assignment"}
    assert kinds == {"equation", "quasiequation"}  # both kinds of witness are compared


@st.composite
def _unary_case(draw):
    """An algebra with one or two unary operations on at most four elements,
    and equations and quasi-equations over x0..x3, so that a law or a
    premise may skip variable indices."""
    n = draw(st.integers(1, 4))
    names = ("f", "g")[:draw(st.integers(1, 2))]
    tables = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
                   for _ in names)
    algebra = FiniteAlgebra(n, Signature(tuple((name, 1) for name in names)), tables)
    term = st.builds(lambda i, ops: reduce(lambda t, op: app(op, t), ops, var(i)),
                     st.integers(0, 3), st.lists(st.sampled_from(names), max_size=3))
    equation = st.builds(Equation, term, term)
    law = st.one_of(equation, st.builds(QuasiEquation, st.lists(equation, max_size=2).map(tuple),
                                        equation))
    return algebra, draw(st.lists(law, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_unary_case())
def test_mixed_law_lists_match_the_scans_law_by_law_on_unary_algebras(case):
    algebra, laws = case
    assert satisfies_equations(algebra, laws) == _law_by_law(algebra, laws)


@settings(max_examples=200, deadline=None)
@given(_random_case(), st.data())
def test_law_pairs_modulo_a_partition_match_the_scan(case, data):
    # the premises and the conclusion compared by block ids; an equation is a
    # quasi-equation with no premises
    algebra, eqs, qeq = case
    n = algebra.size
    ids = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    laws = (qeq, *eqs)
    as_quasi = (qeq, *(QuasiEquation((), e) for e in eqs))
    assert terms.law_pairs(algebra, laws, ids) == oracles.scan_quasi_law_pairs(
        algebra, as_quasi, ids)
    assert terms.law_pairs(algebra, laws, tuple(range(n))) == terms.law_pairs(algebra, laws)


# --- law pairs against the tree-walking scan ----------------------------------------

def test_law_pairs_match_the_scan():
    # On members, and with the first entry of each table changed, so that the
    # axioms fail at some assignments; laws of a foreign signature raise
    # UnknownOp in both.
    failing = 0
    for a in _members():
        altered = [FiniteAlgebra(a.size, a.sig, a.tables[:i] + (((t[0] + 1) % a.size,) + t[1:],)
                                 + a.tables[i + 1:], a.tag) for i, t in enumerate(a.tables)]
        for b in [a] + altered:
            for eqs in EQUATION_TUPLES:
                assert (_outcome(terms.law_pairs, b, eqs)
                        == _outcome(oracles.scan_law_pairs, b, eqs)), eqs
        failing += sum(bool(terms.law_pairs(b, _axioms(b))) for b in altered)
    assert failing > 90


# --- blocks of at most terms._BLOCK assignments ---------------------------------------

def test_a_law_past_the_block_bound_runs_in_several_blocks(monkeypatch):
    # m(x, y, z) = x on 13 elements has 13^3 = 2197 > 2048 assignments; the
    # table breaks it only at its last two, (12, 12, 11) and (12, 12, 12)
    n = 13
    table = [x for x in range(n) for _ in range(n * n)]
    table[-2:] = [0, 1]
    algebra = FiniteAlgebra(n, Signature((("m", 3),)), (tuple(table),))
    law = (Equation(app("m", var(0), var(1), var(2)), var(0), label="m(x, y, z) = x"),)
    assert n ** 3 > terms._BLOCK
    sizes = []
    original = terms._apply

    def recording(table, n, cols, size):
        sizes.append(size)
        return original(table, n, cols, size)

    monkeypatch.setattr(terms, "_apply", recording)
    got = satisfies_equations(algebra, law)
    assert len(sizes) > 1 and max(sizes) <= terms._BLOCK and sum(sizes) == n ** 3
    assert got.witness == {"equation": "m(x, y, z) = x", "assignment": [12, 12, 11]}
    assert got == oracles.scan_satisfies_equations(algebra, law)
    assert terms.law_pairs(algebra, law) == oracles.scan_law_pairs(algebra, law) == \
        [(0, 12), (1, 12)]
