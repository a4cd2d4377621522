"""Reflective subcategories of a universe and their closure operators.

A Reflector stores, for each member X, the reflection congruence rho_X;
the reflection of X is the canonical quotient X/rho_X and the unit is
the projection.  Validation checks that reflections land in the
subcategory, and the universal property: every homomorphism f from X
into a member M of the subcategory factors through the unit, i.e.
rho_X <= ker f.  No hom is enumerated for it.  Each f is e.g_K, the
quotient map of K = ker f followed by an embedding of X/K (Adamek,
Herrlich & Strecker, *Abstract and Concrete Categories*, 14-16), so the
property fails exactly when X/K embeds in M for some K with
rho_X not <= K.  ``Universe.embedding`` answers that once per universe,
for the member isomorphic to X/K; ``find_embedding`` mostly answers None
from element counts, unsearched.

The two constructions converting between reflectors and idempotent
cohereditary closure operators are mutually inverse here.  Each round
trip is a derivation followed by a pointwise comparison
(``closures_agree``, ``reflectors_agree``, both on one universe), so a
caller that already holds the derived objects compares them without
rebuilding them.  ``closure_from_reflector`` writes the index rows
directly, C(R) = g*(rho_j) read off the pull-back along R's quotient map
g onto member j.  An operator's rows and a reflector's rho are validated
once per universe (``Universe.natural`` and ``.reflective``), so the
derived and oracle objects that equal them cost a set look-up.

Pull-backs run along the quotient maps of ``operators.quotient_maps``,
which the universe built for its closure check.  The oracles read them
too: an isomorphism-invariant predicate runs once per member, and X/R
takes the verdict of the member it is sent onto.

A subcategory given by laws, equations and quasi-equations alike, has three
descriptions here, all read off one law list: its membership predicate
(``predicate_from_laws``), its closure rule on one algebra
(``rule_from_laws``), one merging loop sending R to the least congruence
above R whose quotient satisfies the laws, and that rule's index rows on a
universe (``_law_rows``), read off ``Universe.pair_masks`` with no merging.
The reflection oracle meets the accepted congruences of each member in one
relabeling of the tuples of their block ids, so it reads no mask.

Note that operators are only validated against surjections, which admits
operators whose congruence family fails the universal property along some
non-surjective map; ``reflector_from_closure`` re-verifies and reports
such a map as a witness instead of returning a broken reflector, and
``operators.is_natural_along_homs`` rejects such an operator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import reduce
from itertools import compress
from operator import and_

from .algebras import (
    Congruence,
    FiniteAlgebra,
    _canonical_ids,
    _merge,
    _operations,
    compose,
    con_lattice,
    congruence_to_blocks,
    quotient,
)
from .errors import (
    CheckResult,
    Frozen,
    NotCohereditary,
    NotIdempotent,
    NotReflective,
    PASSED,
    UniverseMismatch,
    failed,
)
from .operators import (
    ClosureOperator,
    Rule,
    Universe,
    _natural_operator,
    find_member_iso,
    is_cohereditary,
    is_idempotent,
    operator_leq,
    quotient_maps,
)
from .terms import Equation, law_pairs, satisfies_equations


class Reflector(Frozen):
    """Reflection congruences rho_X per universe member."""

    __slots__ = ("universe", "name", "rho")

    def __init__(self, universe: Universe, name: str, rho: tuple[Congruence, ...]):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rho", rho)

    def _key(self):
        return self.universe, self.name, self.rho

    def rho_of(self, x: int | FiniteAlgebra) -> Congruence:
        return self.rho[self.universe.lookup(x)]

    def __repr__(self):
        return f"Reflector({self.name!r} on {self.universe!r})"


def make_reflector(u: Universe, rho: Sequence[Congruence], name: str) -> Reflector:
    """Validate values-in-subcategory and, by factorisation, the universal
    property; its witness map is e.g_K for the first K in ``con_lattice`` order.
    A rho accepted before on ``u`` is not checked again."""
    rho = tuple(rho)
    if len(rho) != len(u.algebras):
        raise UniverseMismatch("one reflection congruence per member required")
    for i, (x, r) in enumerate(zip(u.algebras, rho)):
        if r.algebra != x:
            raise UniverseMismatch(f"rho[{i}] lives on a different algebra")
    if rho in u.reflective:
        return Reflector(u, name, rho)
    maps = quotient_maps(u)
    at = [by_ids.get(r.ids) for by_ids, r in zip(u.by_ids, rho)]
    members_in = [i for i, a in enumerate(at) if a == u.diagonal[i]]
    # reflections land in the subcategory: with g: X -> M the quotient map
    # by rho_X, g* is injective and g*(diagonal) = rho_X, so g*(rho_M) = rho_X
    # exactly when rho_M is the diagonal
    for i, (a, quotients) in enumerate(zip(at, u.quotients)):
        if a is None:
            raise NotReflective(
                f"reflector {name!r}: rho[{i}] is not a congruence",
                witness={"algebra": i, "rho": congruence_to_blocks(rho[i])},
            )
        j = quotients[a][0]
        if j not in members_in:
            raise NotReflective(
                f"reflector {name!r}: reflection of member {i} is not in the subcategory",
                witness={"algebra": i, "reflection_member": j},
            )
    # universal property, by factorisation (see the module docstring); it
    # holds on the subcategory's own members, whose rho is the diagonal
    for i, (lattice, quotients) in enumerate(zip(u.lattices, u.quotients)):
        if i in members_in:
            continue
        cods = [(k, q[0]) for k, q in enumerate(quotients) if not u.up[i][at[i]] >> k & 1]
        for j in members_in:
            for k, m in cods:
                e = u.embedding(m, j)
                if e is not None:
                    g = maps[lattice[k]][0]
                    raise NotReflective(
                        f"reflector {name!r}: a map from member {i} into member {j} "
                        "does not factor through the unit",
                        witness={"dom": i, "cod": j, "map": list(compose(e, g).map),
                                 "rho": congruence_to_blocks(rho[i])},
                    )
    u.reflective.add(rho)
    return Reflector(u, name, rho)


def closure_from_reflector(refl: Reflector) -> ClosureOperator:
    """C_X(R) pulls the reflection congruence of X/R back along its quotient
    map g: X -> M_j, read as an index: rows[i][a] = g*(rho_j), then checked
    as ``make_operator`` checks a rule's rows (``_natural_operator``); they
    are extensive, as g*(S) contains ker g = R for every S."""
    u = refl.universe
    at = [by_ids[r.ids] for by_ids, r in zip(u.by_ids, refl.rho)]
    rows = tuple(tuple(at[j] if pull is None else pull[at[j]] for j, pull in quotients)
                 for quotients in u.quotients)
    return _natural_operator(u, refl.name, rows)


def reflector_from_closure(c: ClosureOperator) -> Reflector:
    """rho_X = C_X(diagonal); requires an idempotent cohereditary operator."""
    idem = is_idempotent(c)
    if not idem:
        raise NotIdempotent(
            f"operator {c.name!r} is not idempotent", witness=idem.witness
        )
    cohered = is_cohereditary(c)
    if not cohered:
        raise NotCohereditary(
            f"operator {c.name!r} is not cohereditary", witness=cohered.witness
        )
    u = c.universe
    rho = tuple(lattice[row[d]] for lattice, row, d in zip(u.lattices, c.rows, u.diagonal))
    return make_reflector(u, rho, c.name)


def _closed_diagonals(ref: ClosureOperator | Reflector) -> list[bool]:
    """Per member, is its diagonal closed, i.e. is it in the subcategory?"""
    u = ref.universe
    if isinstance(ref, Reflector):
        return [r == lattice[d] for r, lattice, d in zip(ref.rho, u.lattices, u.diagonal)]
    return [row[d] == d for row, d in zip(ref.rows, u.diagonal)]


def subcategory_members(ref: ClosureOperator | Reflector) -> tuple[FiniteAlgebra, ...]:
    return tuple(compress(ref.universe.algebras, _closed_diagonals(ref)))


class SubcategoryPredicate(Frozen):
    """Named isomorphism-invariant membership test for algebras.  Invariance
    is relied on: ``oracle_reflector`` and ``closed_under_quotients`` test
    each member once and give X/R the verdict of a member isomorphic to it."""

    __slots__ = ("name", "accepts")

    def __init__(self, name: str, accepts: Callable[[FiniteAlgebra], bool]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "accepts", accepts)

    def _key(self):
        return self.name, self.accepts

    def __call__(self, x: FiniteAlgebra) -> bool:
        return bool(self.accepts(x))


def predicate_from_laws(name: str, laws) -> SubcategoryPredicate:
    """The algebras that satisfy ``laws``, equations and quasi-equations."""
    laws = tuple(laws)
    return SubcategoryPredicate(name, lambda x: bool(satisfies_equations(x, laws)))


def rule_from_laws(laws) -> Rule:
    """The closure rule of the algebras that satisfy ``laws``: R goes to the
    least congruence theta >= R whose quotient satisfies them.  X/theta
    satisfies a law exactly when ``law_pairs`` modulo theta is empty, as every
    assignment in X/theta lifts to X.  So theta is reached by iterating
    theta <- Cg(theta u law_pairs(X, laws, theta)) from R (Gorbunov,
    *Algebraic Theory of Quasivarieties*, 1998).  For equations the first
    step gives R v V(X), V(X) the verbal congruence their instances generate,
    and the second finds no pair."""
    laws = tuple(laws)

    def rule(x: FiniteAlgebra, r: Congruence) -> Congruence:
        while pairs := law_pairs(x, laws, r.ids):
            r = Congruence(x, _merge(r.ids, pairs, _operations(x)))
        return r

    return rule


def _law_rows(u: Universe, laws) -> Iterator[tuple[int, ...]]:
    """The index rows of ``rule_from_laws(laws)`` on ``u``, member by member,
    read off the universe's masks with no congruence built: theta v Cg(P) is
    the congruence whose up-set is up(theta) AND the ``pair_masks`` of the
    pairs of P.  For equations one ``law_pairs`` per member gives V(X), and
    C(R) = R v V(X); for quasi-equations theta <- theta v Cg(law_pairs(X,
    laws, theta)) is iterated from R, as in the rule."""
    laws = tuple(laws)
    equational = all(isinstance(law, Equation) for law in laws)
    for x, lattice, up, by_up, masks in zip(u.algebras, u.lattices, u.up, u.by_up,
                                            u.pair_masks):
        n = x.size

        def above(mask, pairs):
            return reduce(and_, (masks[a * n + b] for a, b in pairs), mask)

        if equational:
            verbal = above(-1, law_pairs(x, laws))  # -1: every bit set
            yield tuple(by_up[ua & verbal] for ua in up)
            continue
        row = []
        for a in range(len(lattice)):
            while pairs := law_pairs(x, laws, lattice[a].ids):
                a = by_up[above(up[a], pairs)]
            row.append(a)
        yield tuple(row)


def predicate_from_operator(c: ClosureOperator) -> SubcategoryPredicate:
    """Membership via the matched universe member's closed diagonal."""
    closed = _closed_diagonals(c)
    return SubcategoryPredicate(c.name, lambda x: closed[find_member_iso(c.universe, x)[0]])


def _quotient_verdicts(u: Universe, pred: SubcategoryPredicate) -> list[Callable[[int], bool]]:
    """Per member X, a -> pred(X/R), R the a-th congruence of X: pred runs once
    per member and X/R takes the verdict of the member that
    ``Universe.quotients`` sends it onto."""
    verdicts = [pred(x) for x in u.algebras]
    return [[verdicts[j] for j, _ in quotients].__getitem__ for quotients in u.quotients]


def closed_under_quotients(pred: SubcategoryPredicate, u: Universe) -> CheckResult:
    """Every quotient of a member satisfying ``pred`` satisfies it too."""
    verdicts = _quotient_verdicts(u, pred)
    for i, (accepts, lattice, d) in enumerate(zip(verdicts, u.lattices, u.diagonal)):
        if accepts(d):  # X/diagonal is X
            a = next((a for a in range(len(lattice)) if not accepts(a)), None)
            if a is not None:
                return failed(predicate=pred.name, algebra=i,
                              congruence=congruence_to_blocks(lattice[a]))
    return PASSED


def closures_agree(c: ClosureOperator, back: ClosureOperator) -> CheckResult:
    """``back`` (derived from ``c`` through its reflector, or an oracle's
    closure) equals ``c`` pointwise; the witness is the first difference."""
    if c.universe != back.universe:
        raise UniverseMismatch("comparing closures needs a shared universe")
    for i, lattice in enumerate(c.universe.lattices):
        for a, (b, got) in enumerate(zip(c.rows[i], back.rows[i])):
            if b != got:
                r, cr, back_r = (congruence_to_blocks(lattice[k]) for k in (a, b, got))
                return failed(operator=c.name, algebra=i, congruence=r, expected=cr, got=back_r)
    return PASSED


def reflectors_agree(refl: Reflector, back: Reflector) -> CheckResult:
    """``back``, derived from ``refl`` through its closure, has every rho_X of ``refl``."""
    if refl.universe != back.universe:
        raise UniverseMismatch("comparing reflectors needs a shared universe")
    for i in range(len(refl.universe)):
        if back.rho[i] != refl.rho[i]:
            return failed(reflector=refl.name, algebra=i,
                          expected=congruence_to_blocks(refl.rho[i]),
                          got=congruence_to_blocks(back.rho[i]))
    return PASSED


def roundtrip_closure(c: ClosureOperator) -> CheckResult:
    """closure -> reflector -> closure is the pointwise identity."""
    return closures_agree(c, closure_from_reflector(reflector_from_closure(c)))


def roundtrip_reflector(refl: Reflector) -> CheckResult:
    """reflector -> closure -> reflector reproduces every rho_X."""
    return reflectors_agree(refl, reflector_from_closure(closure_from_reflector(refl)))


def antitone_check(c1: ClosureOperator, c2: ClosureOperator) -> CheckResult:
    """operator order iff reversed subcategory inclusion."""
    lo = bool(operator_leq(c1, c2))
    included = set(subcategory_members(c2)) <= set(subcategory_members(c1))
    if lo == included:
        return PASSED
    return failed(first=c1.name, second=c2.name, operator_leq=lo, subcategory_reversed=included)


def oracle_reflection(x: FiniteAlgebra, pred: SubcategoryPredicate) -> Congruence:
    """Least congruence whose quotient satisfies ``pred``, by lattice scan; a
    predicate that is not reflective on ``x`` raises ``NotReflective`` with
    the meet of the congruences it accepts as witness."""
    lattice = con_lattice(x)
    return _least_accepted(pred.name, lattice, lambda a: pred(quotient(x, lattice[a])[0]),
                           {r.ids: a for a, r in enumerate(lattice)})


def _least_accepted(name: str, lattice, accepts: Callable[[int], bool], by_ids):
    """``oracle_reflection`` on Con(X) = ``lattice`` (numbered by ``by_ids``), with
    ``accepts(a)`` standing for pred(X/lattice[a]): the meet of the accepted
    congruences, one canonical relabeling of the tuples of their block ids, is
    re-checked, not assumed."""
    good = [r.ids for a, r in enumerate(lattice) if accepts(a)]
    if not good:
        raise NotReflective(f"predicate {name!r} accepts no quotient of the algebra",
                            witness={"predicate": name})
    least = by_ids[_canonical_ids(zip(*good))]
    if not accepts(least):
        raise NotReflective(f"predicate {name!r} is not reflective here: the meet of its "
                            "congruences fails it",
                            witness={"predicate": name,
                                     "meet": congruence_to_blocks(lattice[least])})
    return lattice[least]


def oracle_reflector(u: Universe, pred: SubcategoryPredicate) -> Reflector:
    """Ground-truth reflector built member by member from the oracle."""
    rho = tuple(_least_accepted(pred.name, lattice, accepts, by_ids) for lattice, accepts, by_ids
                in zip(u.lattices, _quotient_verdicts(u, pred), u.by_ids))
    return make_reflector(u, rho, f"oracle({pred.name})")
