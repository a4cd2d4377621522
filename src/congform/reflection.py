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
rho_X not <= K.  ``Fibration.embedding`` answers that once per universe,
for the member isomorphic to X/K or, when there is none, for X/K itself;
``find_embedding`` mostly answers None from element counts, unsearched.

The two constructions converting between reflectors and idempotent
cohereditary closure operators are mutually inverse here.  Each round
trip is a derivation followed by a pointwise comparison
(``closures_agree``, ``reflectors_agree``, both on one universe), so a
caller that already holds the derived objects compares them without
rebuilding them.  ``closure_from_reflector`` writes the index rows
directly, C(R) = g*(rho_j) read off the pull-back along R's quotient map
g onto member j.  An operator's rows and a reflector's rho are validated
once per universe (``Fibration.natural`` and ``.reflective``), so the
derived and oracle objects that equal them cost a set look-up.

Pull-backs run along the quotient maps of ``operators.quotient_maps``,
built once per universe.  Over a quotient-closed universe the oracles read
them too: an isomorphism-invariant predicate runs once per member, and X/R
takes the verdict of the member it is sent onto; elsewhere X/R is tested.

Note that operators over a quotient-closed universe are only validated
against surjections, which admits operators whose congruence family
fails the universal property along some non-surjective map;
``reflector_from_closure`` re-verifies and reports such a map as a
witness instead of returning a broken reflector.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Optional, Sequence, Union

from .algebras import (
    Congruence,
    FiniteAlgebra,
    compose,
    con_lattice,
    congruence_to_blocks,
    diagonal,
    meet,
    quotient,
)
from .errors import (
    CheckResult,
    Frozen,
    NotCohereditary,
    NotExtensive,
    NotIdempotent,
    NotReflective,
    PASSED,
    UniverseMismatch,
    UniverseNotQuotientClosed,
    failed,
)
from .operators import (
    ClosureOperator,
    Universe,
    _natural_operator,
    _witness,
    fibration,
    find_member_iso,
    is_cohereditary,
    is_idempotent,
    operator_leq,
    quotient_maps,
)
from .terms import satisfies_equations, satisfies_quasiequations


class Reflector(Frozen):
    """Reflection congruences rho_X per universe member."""

    __slots__ = ("universe", "name", "rho")

    def __init__(self, universe: Universe, name: str, rho: tuple[Congruence, ...]):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rho", rho)

    def _key(self):
        return self.universe, self.name, self.rho

    def rho_of(self, x: Union[int, FiniteAlgebra]) -> Congruence:
        if isinstance(x, FiniteAlgebra):
            i = self.universe.member_index(x)
            if i is None:
                raise UniverseMismatch("algebra is not a universe member")
        else:
            i = x
        return self.rho[i]

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
    fib = fibration(u)
    if rho in fib.reflective:
        return Reflector(u, name, rho)
    members_in = [i for i, r in enumerate(rho) if r == diagonal(u.algebras[i])]
    # reflections land in the subcategory: with g: X -> M the quotient map
    # by rho_X, g* is injective and g*(diagonal) = rho_X, so g*(rho_M) = rho_X
    # exactly when rho_M is the diagonal
    maps = quotient_maps(u)
    for i, r in enumerate(rho):
        if r not in maps:
            raise NotReflective(
                f"reflector {name!r}: reflection of member {i} leaves the universe",
                witness={"algebra": i, "rho": congruence_to_blocks(r)},
            )
        j = u.member_index(maps[r][0].cod)
        if j not in members_in:
            raise NotReflective(
                f"reflector {name!r}: reflection of member {i} is not in the subcategory",
                witness={"algebra": i, "reflection_member": j},
            )
    # universal property, by factorisation (see the module docstring); it
    # holds on the subcategory's own members, whose rho is the diagonal
    for i, x in enumerate(u.algebras):
        if i in members_in:
            continue
        above = fib.le[i][fib.index[i][rho[i]]]
        gs = [maps[r][0] if r in maps else quotient(x, r)[1]
              for k, r in enumerate(fib.lattices[i]) if not above[k]]
        for j in members_in:
            for g in gs:
                e = fib.embedding(g.cod, j)
                if e is not None:
                    raise NotReflective(
                        f"reflector {name!r}: a map from member {i} into member {j} "
                        "does not factor through the unit",
                        witness={"dom": i, "cod": j, "map": list(compose(e, g).map),
                                 "rho": congruence_to_blocks(rho[i])},
                    )
    fib.reflective.add(rho)
    return Reflector(u, name, rho)


def closure_from_reflector(refl: Reflector) -> ClosureOperator:
    """C_X(R) pulls the reflection congruence of X/R back along its quotient
    map g: X -> M_j, read as an index: rows[i][a] = g*(rho_j), checked
    extensive member by member and then natural, as ``make_operator`` does."""
    u = refl.universe
    if not u.quotient_closed:
        raise UniverseNotQuotientClosed(
            "deriving a closure operator requires a quotient-closed universe")
    maps, fib = quotient_maps(u), fibration(u)
    at = [fib.index[j][r] for j, r in enumerate(refl.rho)]
    rows = []
    for i, (lattice, le) in enumerate(zip(fib.lattices, fib.le)):
        row = []
        for r in lattice:
            g = maps[r][0]
            row.append(fib.pulled(g, at[u.member_index(g.cod)]))
        for a, b in enumerate(row):
            if not le[a][b]:
                raise NotExtensive(f"operator {refl.name!r} is not extensive on member {i}",
                                   witness=_witness(i, lattice[a],
                                                    closure=congruence_to_blocks(lattice[b])))
        rows.append(tuple(row))
    return _natural_operator(u, refl.name, tuple(rows))


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
    rho = tuple(c.apply(i, diagonal(x)) for i, x in enumerate(c.universe.algebras))
    return make_reflector(c.universe, rho, c.name)


def membership(ref: Union[ClosureOperator, Reflector], x: FiniteAlgebra) -> bool:
    """Is X in the subcategory, i.e. is its diagonal closed?"""
    if isinstance(ref, Reflector):
        return ref.rho_of(x) == diagonal(x)
    return ref.apply(x, diagonal(x)) == diagonal(x)


def subcategory_members(ref: Union[ClosureOperator, Reflector]) -> tuple[FiniteAlgebra, ...]:
    return tuple(x for x in ref.universe.algebras if membership(ref, x))


class SubcategoryPredicate(Frozen):
    """Named isomorphism-invariant membership test for algebras.  Invariance
    is relied on: over a quotient-closed universe ``oracle_reflector`` and
    ``closed_under_quotients`` test each member once and give X/R the verdict
    of a member isomorphic to it; over other universes they test X/R itself."""

    __slots__ = ("name", "accepts")

    def __init__(self, name: str, accepts: Callable[[FiniteAlgebra], bool]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "accepts", accepts)

    def _key(self):
        return self.name, self.accepts

    def __call__(self, x: FiniteAlgebra) -> bool:
        return bool(self.accepts(x))


def predicate_from_equations(name: str, eqs) -> SubcategoryPredicate:
    return SubcategoryPredicate(name, lambda x: bool(satisfies_equations(x, eqs)))


def predicate_from_quasiequations(name: str, qeqs) -> SubcategoryPredicate:
    return SubcategoryPredicate(name, lambda x: bool(satisfies_quasiequations(x, qeqs)))


def predicate_from_operator(c: ClosureOperator) -> SubcategoryPredicate:
    """Membership via the matched universe member's closed diagonal."""

    def accepts(x: FiniteAlgebra) -> bool:
        i, _ = find_member_iso(c.universe, x)
        return membership(c, c.universe.algebras[i])

    return SubcategoryPredicate(c.name, accepts)


def _quotient_verdict(u: Universe, pred: SubcategoryPredicate) -> Callable[[Congruence], bool]:
    """R -> pred(X/R) for R in Con(X), X a member.  On a quotient-closed ``u``
    pred runs once per member and X/R takes the verdict of the member that
    ``quotient_maps`` sends it onto; elsewhere each X/R is built and tested."""
    if not u.quotient_closed:
        return lambda r: pred(quotient(r.algebra, r)[0])
    maps, verdicts = quotient_maps(u), [pred(x) for x in u.algebras]
    return lambda r: verdicts[u.member_index(maps[r][0].cod)]


def closed_under_quotients(pred: SubcategoryPredicate, u: Universe) -> CheckResult:
    """Every quotient of a member satisfying ``pred`` satisfies it too."""
    accepts = _quotient_verdict(u, pred)
    for i, x in enumerate(u.algebras):
        if accepts(diagonal(x)):  # X/diagonal is X
            r = next((r for r in con_lattice(x) if not accepts(r)), None)
            if r is not None:
                return failed(predicate=pred.name, algebra=i, congruence=congruence_to_blocks(r))
    return PASSED


def closures_agree(c: ClosureOperator, back: ClosureOperator) -> CheckResult:
    """``back`` (derived from ``c`` through its reflector, or an oracle's
    closure) equals ``c`` pointwise; the witness is the first difference."""
    if c.universe != back.universe:
        raise UniverseMismatch("comparing closures needs a shared universe")
    for i, lattice in enumerate(fibration(c.universe).lattices):
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
    return _least_accepted(x, pred.name, lambda r: pred(quotient(x, r)[0]))


def _least_accepted(x: FiniteAlgebra, name: str, accepts: Callable[[Congruence], bool]):
    """``oracle_reflection`` with ``accepts(R)`` standing for pred(X/R): the
    meet of the accepted congruences is re-checked, not assumed."""
    good = [r for r in con_lattice(x) if accepts(r)]
    if not good:
        raise NotReflective(f"predicate {name!r} accepts no quotient of the algebra",
                            witness={"predicate": name})
    least = reduce(meet, good)
    if not accepts(least):
        raise NotReflective(f"predicate {name!r} is not reflective here: the meet of its "
                            "congruences fails it",
                            witness={"predicate": name, "meet": congruence_to_blocks(least)})
    return least


def oracle_reflector(u: Universe, pred: SubcategoryPredicate,
                     name: Optional[str] = None) -> Reflector:
    """Ground-truth reflector built member by member from the oracle."""
    accepts = _quotient_verdict(u, pred)
    rho = tuple(_least_accepted(x, pred.name, accepts) for x in u.algebras)
    return make_reflector(u, rho, name or f"oracle({pred.name})")
