"""Closure operators on the congruence fibres of a finite universe.

A Universe is a finite set of algebras standing in for a category; the
quotient-closed flag asserts that every quotient of a member is
isomorphic to a member, which is what the subcategory theorems need.
A ClosureOperator stores one extensional map Con(X) -> Con(X) per
member, as an index array.  Construction validates the two laws eagerly:

* extensive: R <= C(R) on every fibre;
* natural:   whenever f lifts R into S, it lifts C(R) into C(S).

Naturality is quantified over the surjections between members when the
universe is quotient-closed (the class of quotient maps, which is all
the subcategory theorems use), and over all homomorphisms otherwise.
As f lifts R into S exactly when R <= f*S, the law is equivalent to
monotonicity on each fibre (the law along identities) plus continuity,
C(f*S) <= f*C(S) for every map f and S in Con(Y) (Dikranjan & Tholen,
*Categorical Structure of Closure Operators*, 1995).

Surjections are never searched for: by the first isomorphism theorem
each one is a.g_K, with g_K the quotient map of its kernel K
(``quotient_maps``) and a an automorphism.  Continuity, coheredity and
image preservation each hold along composites, so on a quotient-closed
universe they are decided along ``generating_maps``: quotient maps by
atoms of Con(X) (by the correspondence theorem each cover in a chain from
the diagonal to K is an atom of a quotient), isomorphisms onto copies of
X, and generators of Aut(X) read off a stabiliser chain
(``automorphism_generators``; an inverse is a positive power).  A natural
C has C(a*S) = a*C(S) for a in Aut(X), so coheredity and cocartesian
preservation skip automorphisms.  Only a failure along the generators
rescans ``naturality_maps`` or ``quotient_maps``, to name as witness the
first failure in the full list's order.
The remaining axioms (idempotent, cohereditary, minimal, preservation
of cocartesian liftings) are runtime checks returning witnesses, not
construction requirements.  Minimality is checked on each fibre as
C(S) = S v C(diagonal), its equivalent (see ``is_minimal``).

The checks compare integers: ``fibration(u)``, built on a universe's first
check, numbers each Con(X) and reads its order off the block-id arrays, and
an operator is its index rows over those numberings.  The fibration builds
on first use, and then holds, f* along each map read (naturality,
coheredity and the reflection layer), images along quotient maps
(cocartesian preservation) and embeddings into members
(``make_reflector``), reading joins and images off the order (see
``Fibration``).  It also keeps the operator rows and reflection
congruences that passed validation, so each is validated once per universe,
and each row tuple's coheredity result.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from operator import and_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Union

from .algebras import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    _block_pairs,
    _canonical_ids,
    _iso_invariant,
    automorphism_generators,
    automorphisms,
    compose,
    con_lattice,
    congruence_to_blocks,
    diagonal,
    enumerate_homs,
    find_embedding,
    find_isomorphism,
    identity_hom,
    quotient,
)
from .errors import (
    CheckResult,
    FibreMismatch,
    Frozen,
    Hashed,
    NotExtensive,
    NotNatural,
    PASSED,
    SizeTooLarge,
    UniverseMismatch,
    UniverseNotQuotientClosed,
    failed,
)


def _algebra_sort_key(a: FiniteAlgebra):
    return (a.size, a.sig.ops, a.tag or "", a.tables)


class Universe(Hashed):
    """Deterministically ordered member list; optionally quotient-closed."""

    __slots__ = ("algebras", "quotient_closed", "_index")

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], quotient_closed: bool = False):
        object.__setattr__(self, "algebras", algebras)
        object.__setattr__(self, "quotient_closed", quotient_closed)
        object.__setattr__(self, "_hash", hash(tuple(a._hash for a in algebras) + (quotient_closed,)))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(algebras)})

    def _key(self):
        return self.algebras, self.quotient_closed

    def __len__(self):
        return len(self.algebras)

    def __iter__(self):
        return iter(self.algebras)

    def member_index(self, a: FiniteAlgebra) -> Optional[int]:
        return self._index.get(a)

    def __repr__(self):
        flag = ", quotient-closed" if self.quotient_closed else ""
        sizes = [a.size for a in self.algebras]
        return f"Universe({len(self.algebras)} algebras, sizes {sizes}{flag})"


def universe(algebras: Iterable[FiniteAlgebra], *, quotient_closed: bool = False) -> Universe:
    """Sort, drop literal duplicates, and verify the closure flag if set."""
    members = sorted(set(algebras), key=_algebra_sort_key)
    if not members:
        raise UniverseMismatch("a universe needs at least one algebra")
    u = Universe(tuple(members), quotient_closed)
    if quotient_closed:
        maps = quotient_maps(u)
        for i, x in enumerate(u.algebras):
            for r in con_lattice(x):
                if r not in maps:
                    raise UniverseNotQuotientClosed(
                        "quotient of a member is not isomorphic to any member",
                        witness=_witness(i, r))
    return u


def universe_from_generators(seeds: Iterable[FiniteAlgebra]) -> Universe:
    """Close the seeds under canonical quotients, up to isomorphism: the
    sorted seeds, then their quotients, keeping the first of each
    isomorphism class.  One layer suffices, as canonical ids make (X/K)/L
    equal to X/K' for K' the preimage of L."""
    members: list[FiniteAlgebra] = []
    seeds = sorted(set(seeds), key=_algebra_sort_key)
    for a in itertools.chain(seeds, (quotient(x, r)[0] for x in seeds for r in con_lattice(x))):
        if all(find_isomorphism(a, m) is None for m in members if m.size == a.size):
            members.append(a)
    return universe(members, quotient_closed=True)


@lru_cache(maxsize=None)
def find_member_iso(u: Universe, a: FiniteAlgebra) -> tuple[int, Homomorphism]:
    """Member isomorphic to ``a`` plus an isomorphism a -> member."""
    i = u.member_index(a)
    if i is not None:
        return i, identity_hom(a)
    for i, m in enumerate(u.algebras):
        if m.size != a.size:
            continue
        iso = find_isomorphism(a, m)
        if iso is not None:
            return i, iso
    raise UniverseMismatch(
        f"no universe member is isomorphic to {a!r}",
        witness={"size": a.size, "tag": a.tag},
    )


Rule = Callable[[FiniteAlgebra, Congruence], Congruence]


@lru_cache(maxsize=None)
def quotient_maps(u: Universe) -> Mapping[Congruence, tuple[Homomorphism, ...]]:
    """K in Con(X), X a member -> the maps X -> X/K -> M: the projection, then
    the least isomorphism onto M, for each member M isomorphic to X/K in
    member order.  K is no key when X/K is isomorphic to no member.  Only
    members with the ``_iso_invariant`` of X/K can be isomorphic to it."""
    buckets: dict = {}
    for m in u.algebras:
        buckets.setdefault(_iso_invariant(m), []).append(m)
    out = {}
    for x in u.algebras:
        for r in con_lattice(x):
            q, proj = quotient(x, r)
            isos = (find_isomorphism(q, m) for m in buckets.get(_iso_invariant(q), ()))
            gs = tuple(compose(iso, proj) for iso in isos if iso is not None)
            if gs:
                out[r] = gs
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def naturality_maps(u: Universe) -> tuple[Homomorphism, ...]:
    """Maps a ``NotNatural`` witness is sought along, in this order: per
    member X, the quotient maps out of X and then Aut(X) if ``u`` is
    quotient-closed, else all homs.  The verdict is decided along
    ``generating_maps``; this list is scanned only when that fails."""
    if not u.quotient_closed:
        return tuple(f for x in u.algebras for y in u.algebras for f in enumerate_homs(x, y))
    maps = quotient_maps(u)
    out: list[Homomorphism] = []
    for x in u.algebras:
        out.extend(g for r in con_lattice(x) for g in maps.get(r, ()))
        out.extend(automorphisms(x))
    return tuple(dict.fromkeys(out))


@lru_cache(maxsize=None)
def generating_maps(u: Universe) -> tuple[Homomorphism, ...]:
    """The maps the lifting laws are decided along: ``naturality_maps`` if
    ``u`` is not quotient-closed, else per member X the quotient maps by
    atoms of Con(X) and by the diagonal onto other members, then the
    ``automorphism_generators`` of X."""
    if not u.quotient_closed:
        return naturality_maps(u)
    maps, fib = quotient_maps(u), fibration(u)
    out: list[Homomorphism] = []
    for i, x in enumerate(u.algebras):
        atoms = [r for a, r in enumerate(fib.lattices[i]) if sum(row[a] for row in fib.le[i]) == 2]
        out.extend(g for r in atoms for g in maps.get(r, ()))
        out.extend(g for g in maps.get(diagonal(x), ()) if g.cod != x)
        out.extend(automorphism_generators(x))
    return tuple(out)


def _up_sets(lattice) -> tuple[int, ...]:
    """Each R's up-set as a bitmask over ``lattice``: S >= R exactly when S
    holds each pair (least element of x's R-block, x), so up(R) is the AND of
    the masks of the S holding those pairs."""
    held: dict = {}
    for b, s in enumerate(lattice):
        for pair in itertools.combinations(range(len(s.ids)), 2):
            if s.ids[pair[0]] == s.ids[pair[1]]:
                held[pair] = held.get(pair, 0) | 1 << b
    top = (1 << len(lattice)) - 1
    return tuple(reduce(and_, (held[p] for p in _block_pairs(r) if p[0] != p[1]), top)
                 for r in lattice)


class Fibration:
    """The integer tables of one universe, built once by ``fibration``: per
    member i, ``lattices[i]`` in ``con_lattice`` order, its inverses
    ``index[i]`` and ``by_ids[i]`` (keyed by block-id arrays), each up-set as
    a bitmask ``up[i][a]`` (``_up_sets``) with inverse ``by_up[i]``, and the
    order ``le[i][a][b]`` read off the up-sets.  Since up(a v b) = up(a) &
    up(b), joins are read off them too.  Along a quotient map f: X -> Y, f*
    is an order isomorphism from Con(Y) onto the up-set of ker f =
    f*(diagonal) in Con(X) (correspondence theorem), so f(R) is the S with
    f*S = R v ker f.  ``natural`` holds the row tuples that passed
    ``_natural_operator`` and ``reflective`` the rho tuples ``make_reflector``
    accepted; a verdict depends only on the universe and the input, so both
    return at once for a known one; failures are not kept.  ``cohereditary``
    keeps each row tuple's ``is_cohereditary`` result, failing or not."""

    def __init__(self, u: Universe):
        self.universe = u
        self.lattices = tuple(map(con_lattice, u.algebras))
        self.index = tuple({r: a for a, r in enumerate(lat)} for lat in self.lattices)
        self.by_ids = tuple({r.ids: a for a, r in enumerate(lat)} for lat in self.lattices)
        self.up = tuple(map(_up_sets, self.lattices))
        # le[a][b] is bit b of up[a]; one format() call per row beats a shift per bit
        self.le = tuple(tuple(tuple(map("1".__eq__, format(mask, f"0{len(up)}b")[::-1]))
                              for mask in up) for up in self.up)
        self.by_up = tuple({mask: a for a, mask in enumerate(up)} for up in self.up)
        self._pulls, self._images, self._embeddings = {}, {}, {}
        self.natural: set[tuple[tuple[int, ...], ...]] = set()
        self.reflective: set[tuple[Congruence, ...]] = set()
        self.cohereditary: dict[tuple[tuple[int, ...], ...], CheckResult] = {}

    def pull(self, f: Homomorphism) -> tuple[int, ...]:
        """S -> f*S as an index array, built on first request; f between members."""
        if f not in self._pulls:
            into = self.by_ids[self.universe.member_index(f.dom)]
            self._pulls[f] = tuple(into[_canonical_ids([s.ids[y] for y in f.map])]
                                   for s in con_lattice(f.cod))
        return self._pulls[f]

    def pulled(self, f: Homomorphism, k: int) -> int:
        """f*S for S the k-th congruence of f.cod; an identity f needs no table."""
        return k if f.dom == f.cod and f.map == tuple(range(f.dom.size)) else self.pull(f)[k]

    def image(self, f: Homomorphism) -> tuple[int, ...]:
        """R -> f(R) as an index array, built on first request; f a quotient
        map, so f(R) = (f*)^-1 (R v ker f)."""
        if f not in self._images:
            pull = self.pull(f)
            back = {a: s for s, a in enumerate(pull)}
            i, j = self.universe.member_index(f.dom), self.universe.member_index(f.cod)
            kernel = self.up[i][pull[self.index[j][diagonal(f.cod)]]]
            self._images[f] = tuple(back[self.by_up[i][ua & kernel]] for ua in self.up[i])
        return self._images[f]

    def embedding(self, a: FiniteAlgebra, j: int) -> Optional[Homomorphism]:
        """The least embedding of ``a`` into member j, or None; built on first request."""
        if (a, j) not in self._embeddings:
            self._embeddings[a, j] = find_embedding(a, self.universe.algebras[j])
        return self._embeddings[a, j]


fibration = lru_cache(maxsize=None)(Fibration)


class ClosureOperator(Frozen):
    """Validated extensive + natural fibre maps over a universe: ``rows[i][a]``
    indexes C of member i's a-th congruence in ``fibration(universe).lattices[i]``
    (``con_lattice`` order).  ``apply`` reads a ``Congruence`` off them."""

    __slots__ = ("universe", "name", "rows")

    def __init__(self, universe: Universe, name: str, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rows", rows)

    def _key(self):
        return self.universe, self.name, self.rows

    def apply(self, x: Union[int, FiniteAlgebra], r: Congruence) -> Congruence:
        if isinstance(x, FiniteAlgebra):
            i = self.universe.member_index(x)
            if i is None:
                raise UniverseMismatch("algebra is not a universe member")
        else:
            i = x
        fib = fibration(self.universe)
        a = fib.index[i].get(r)
        if a is None:
            raise FibreMismatch("congruence is not in the member's lattice")
        return fib.lattices[i][self.rows[i][a]]

    def __repr__(self):
        return f"ClosureOperator({self.name!r} on {self.universe!r})"


def _non_monotone(le, row):
    """First (a, b) of one fibre with a <= b but C(a) not <= C(b)."""
    order = range(len(row))
    for a in order:
        for b in order:
            if le[a][b] and not le[row[a]][row[b]]:
                return a, b
    return None


def _discontinuity(pull, le, dom_row, cod_row):
    """First S of Con(cod) with C(f*S) not <= f*C(S); ``pull`` is f*."""
    for s in range(len(cod_row)):
        if not le[dom_row[pull[s]]][pull[cod_row[s]]]:
            return s
    return None


def _first_failure(u: Universe, broken_along, generators, full: Callable):
    """The first failure ``broken_along(f)`` (None if f keeps the law) for f in
    ``full()``, or None.  On a quotient-closed ``u`` the ``generators`` decide
    the same verdict, so ``full()`` is scanned only to name a failure's witness."""
    if u.quotient_closed and all(broken_along(f) is None for f in generators):
        return None
    return next((w for w in map(broken_along, full()) if w is not None), None)


def make_operator(u: Universe, rule: Rule, name: str) -> ClosureOperator:
    """Tabulate ``rule``, a callable (algebra, congruence) -> congruence, into
    index rows in ``con_lattice`` order, checking each member's closure values
    and extensivity before the next member is read, then decide naturality
    (``_natural_operator``)."""
    fib = fibration(u)
    rows = []
    for i, x in enumerate(u.algebras):
        lattice, index, le = fib.lattices[i], fib.index[i], fib.le[i]
        values = [rule(x, r) for r in lattice]
        row = []
        for a, (r, c) in enumerate(zip(lattice, values)):
            b = index.get(c)
            if b is None:
                raise FibreMismatch(f"closure value is not a congruence of member {i}")
            if not le[a][b]:
                raise NotExtensive(f"operator {name!r} is not extensive on member {i}",
                                   witness=_witness(i, r, closure=congruence_to_blocks(c)))
            row.append(b)
        rows.append(tuple(row))
    return _natural_operator(u, name, tuple(rows))


def _natural_operator(u: Universe, name: str, rows: tuple[tuple[int, ...], ...]) -> ClosureOperator:
    """The operator with these extensive ``rows``, once checked monotone on
    each fibre and continuous along ``generating_maps``, which composes to
    continuity along every map (see the module docstring).  A ``NotNatural``
    witness {dom, cod, map, R, S} is a lift that C breaks: the identity with
    R <= S, or a map f with R = f*S; it is the first along the full
    ``naturality_maps``, congruences taken in ``con_lattice`` order.
    Rows that passed before on ``u`` are not checked again."""
    fib = fibration(u)
    if rows in fib.natural:
        return ClosureOperator(u, name, rows)

    def not_natural(i, j, f, ri, si):
        return NotNatural(f"operator {name!r} breaks the lifting law", witness={
            "dom": i, "cod": j, "map": list(f.map), "R": congruence_to_blocks(fib.lattices[i][ri]),
            "S": congruence_to_blocks(fib.lattices[j][si])})

    for i, row in enumerate(rows):
        pair = _non_monotone(fib.le[i], row)
        if pair is not None:
            raise not_natural(i, i, identity_hom(u.algebras[i]), *pair)

    def broken_along(f):
        i, j = u.member_index(f.dom), u.member_index(f.cod)
        pull = fib.pull(f)
        s = _discontinuity(pull, fib.le[i], rows[i], rows[j])
        return None if s is None else not_natural(i, j, f, pull[s], s)

    broken = _first_failure(u, broken_along, generating_maps(u), lambda: naturality_maps(u))
    if broken is not None:
        raise broken
    fib.natural.add(rows)
    return ClosureOperator(u, name, rows)


# --- axiom checkers -----------------------------------------------------------

def _witness(i: int, r: Congruence, **extra) -> dict:
    out = {"algebra": i, "congruence": congruence_to_blocks(r)}
    out.update(extra)
    return out


def is_idempotent(c: ClosureOperator) -> CheckResult:
    """C(C(R)) = C(R) on every fibre."""
    lattices = fibration(c.universe).lattices
    for i, row in enumerate(c.rows):
        for a, ca in enumerate(row):
            if row[ca] != ca:
                return failed(**_witness(i, lattices[i][a]))
    return PASSED


def _along_quotient_maps(c: ClosureOperator, key: str, sides) -> CheckResult:
    """First quotient map f and congruence T where the congruence indices
    ``sides(a, i, j, t)`` differ; for key "S" (its key in the witness) T runs
    over Con(cod) and ``a`` is f*, for key "R" over Con(dom) and ``a`` is f(-).
    Decided along the ``generating_maps`` that are not automorphisms."""
    u, fib = c.universe, fibration(c.universe)

    def broken_along(f):
        i, j = u.member_index(f.dom), u.member_index(f.cod)
        over, into = fib.lattices[j if key == "S" else i], fib.lattices[i if key == "S" else j]
        a = fib.pull(f) if key == "S" else fib.image(f)
        for t in range(len(over)):
            lhs, rhs = sides(a, i, j, t)
            if lhs != rhs:
                return failed(dom=i, cod=j, map=list(f.map),
                              **{key: congruence_to_blocks(over[t])},
                              lhs=congruence_to_blocks(into[lhs]),
                              rhs=congruence_to_blocks(into[rhs]))
        return None

    broken = _first_failure(u, broken_along, (f for f in generating_maps(u) if f.dom != f.cod),
                            lambda: itertools.chain.from_iterable(quotient_maps(u).values()))
    return PASSED if broken is None else broken


def is_cohereditary(c: ClosureOperator) -> CheckResult:
    """C(f*S) = f*C(S) along every surjection between members: the law
    composes and holds along automorphisms, so it is decided along atomic
    quotient maps and isomorphisms onto copies; the witness is the first
    along ``quotient_maps`` (see the module docstring).  The result is kept
    per row tuple in ``fibration(c.universe).cohereditary``."""
    known = fibration(c.universe).cohereditary
    if c.rows not in known:
        known[c.rows] = _along_quotient_maps(c, "S", lambda pull, i, j, s: (
            c.rows[i][pull[s]], pull[c.rows[j][s]]))
    return known[c.rows]


def is_minimal(c: ClosureOperator) -> CheckResult:
    """C(R v S) = C(R) v S on every fibre; joins are read off the up-sets.
    On a fibre with diagonal D that holds exactly when C(S) = S v C(D) for
    every S (take R = D; conversely C(R v S) = R v S v C(D) = C(R) v S), which
    is checked first; only a fibre that fails it is scanned for the first pair."""
    fib = fibration(c.universe)
    for i, (x, row) in enumerate(zip(c.universe.algebras, c.rows)):
        up, by_up, lattice = fib.up[i], fib.by_up[i], fib.lattices[i]
        floor = up[row[fib.index[i][diagonal(x)]]]
        if all(row[s] == by_up[floor & us] for s, us in enumerate(up)):
            continue
        for r, s in itertools.product(range(len(row)), repeat=2):
            if row[by_up[up[r] & up[s]]] != by_up[up[row[r]] & up[s]]:
                return failed(**_witness(i, lattice[r], second=congruence_to_blocks(lattice[s])))
    return PASSED


def preserves_cocartesian(c: ClosureOperator) -> CheckResult:
    """image(f, C(R)) = C(image(f, R)) along every surjection: images compose
    and C commutes with automorphisms, so it is decided along atomic quotient
    maps and isomorphisms onto copies; the witness is the first along
    ``quotient_maps`` (see the module docstring)."""
    return _along_quotient_maps(c, "R", lambda image, i, j, r: (
        image[c.rows[i][r]], c.rows[j][image[r]]))


def operator_leq(c1: ClosureOperator, c2: ClosureOperator) -> CheckResult:
    """C1 <= C2 pointwise on every fibre."""
    if c1.universe != c2.universe:
        raise UniverseMismatch("operator order needs a shared universe")
    fib = fibration(c1.universe)
    for i, (row1, row2) in enumerate(zip(c1.rows, c2.rows)):
        for a, (b1, b2) in enumerate(zip(row1, row2)):
            if not fib.le[i][b1][b2]:
                return failed(**_witness(i, fib.lattices[i][a]))
    return PASSED


def enumerate_operators(u: Universe, *, max_candidates: int = 500_000) -> tuple[ClosureOperator, ...]:
    """Every closure operator on ``u``, by depth-first search over the members.

    A member's candidates are its monotone extensive fibre tables.  A
    partial family is extended one member at a time, in universe order,
    and cut off as soon as it breaks continuity along a map of
    ``generating_maps`` whose two ends are assigned.  The maps of
    ``naturality_maps`` at that depth compose from those (quotients sort
    earlier), so the cuts are the full list's.  Each survivor's rows, in
    ``con_lattice`` order, pass the naturality check of ``make_operator``
    again, and it is named ``op{k}``, k its index in the product of all
    extensive families (member-major, as ``itertools.product``).
    Raises ``SizeTooLarge`` up front when there are more than
    ``max_candidates`` extensive families.
    """
    fib = fibration(u)
    options = [[[b for b in range(len(le)) if le[a][b]] for a in range(len(le))] for le in fib.le]
    radix = [math.prod(map(len, per_a)) for per_a in options]
    if math.prod(radix) > max_candidates:
        raise SizeTooLarge(f"universe admits more than {max_candidates} extensive families")
    candidates = [[(k, row) for k, row in enumerate(itertools.product(*per_a))
                   if _non_monotone(le, row) is None]
                  for per_a, le in zip(options, fib.le)]
    checks: list[list] = [[] for _ in fib.lattices]
    for f in generating_maps(u):
        i, j = u.member_index(f.dom), u.member_index(f.cod)
        checks[max(i, j)].append((i, j, fib.pull(f)))

    rows: list = [None] * len(fib.lattices)
    out = []

    def extend(m: int, k: int) -> None:
        if m == len(rows):
            out.append(_natural_operator(u, f"op{k}", tuple(rows)))
            return
        for index, row in candidates[m]:
            rows[m] = row
            if all(_discontinuity(pull, fib.le[i], rows[i], rows[j]) is None
                   for i, j, pull in checks[m]):
                extend(m + 1, k * radix[m] + index)

    extend(0, 0)
    return tuple(out)


def operator_report(c: ClosureOperator) -> dict:
    """JSON report of all operator axioms plus witnesses for failures."""
    checks = {
        "idempotent": is_idempotent(c),
        "cohereditary": is_cohereditary(c),
        "minimal": is_minimal(c),
        "preserves_pushouts": preserves_cocartesian(c),
    }
    witnesses = {k: v.witness for k, v in checks.items() if not v.ok}
    return {
        "name": c.name,
        "extensive": True,   # enforced at construction
        "natural": True,     # enforced at construction
        "idempotent": checks["idempotent"].ok,
        "cohereditary": checks["cohereditary"].ok,
        "minimal": checks["minimal"].ok,
        "preserves_pushouts": checks["preserves_pushouts"].ok,
        "witnesses": witnesses,
    }
