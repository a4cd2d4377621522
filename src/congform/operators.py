"""Closure operators on the congruence fibres of a finite universe.

A Universe is a finite set of algebras standing in for a category, checked
closed under quotients: every quotient of a member is isomorphic to a
member, which is what the subcategory theorems need.
A ClosureOperator stores one extensional map Con(X) -> Con(X) per
member, as an index array.  Every operator built from a rule, from laws or
from a reflector has its rows checked by ``_natural_operator``, which
validates the two laws eagerly:

* extensive: R <= C(R) on every fibre;
* natural:   whenever f lifts R into S, it lifts C(R) into C(S).

Naturality is quantified over the surjections between members (the class
of quotient maps, which is all the subcategory theorems use); the check of
the paper's, along every hom, is ``is_natural_along_homs``.  As f lifts R
into S exactly when R <= f*S, the law is equivalent to monotonicity on
each fibre (the law along identities) plus continuity, C(f*S) <= f*C(S)
for every map f and S in Con(Y) (Dikranjan & Tholen, *Categorical
Structure of Closure Operators*, 1995).

Surjections are never searched for: by the first isomorphism theorem
each one is a.g_K, with g_K the quotient map of its kernel K
(``quotient_maps``) and a an automorphism.  Continuity, coheredity and
image preservation each hold along composites, so they are decided
along a universe's ``generating_maps``: quotient maps by atoms of Con(X)
(by the correspondence theorem each cover in a chain from the diagonal
to K is an atom of a quotient), isomorphisms onto copies of X, and
``automorphism_generators`` (an inverse is a positive power) if two
congruences of X have equal block sizes; else Aut(X), keeping block sizes,
fixes each congruence.  A natural C has C(a*S) = a*C(S) for a in Aut(X),
so coheredity and cocartesian preservation skip them.  A failure along the
generators names as witness the first one ``_first_failure`` finds: along
``naturality_maps``, raised at once, or along ``quotient_maps``, when the
witness is read (``CheckResult``).
The remaining axioms (idempotent, cohereditary, minimal, preservation
of cocartesian liftings, naturality along every hom) are runtime checks
returning witnesses, not construction requirements.  Minimality is checked
on each fibre as C(S) = S v C(diagonal), its equivalent (see ``is_minimal``).

The checks compare integers.  A universe owns its tables (see
``Universe``): its constructor numbers each Con(X) and finds the quotient
maps (the class E, up to automorphisms) in the pass that checks closure; an
operator is its index rows over those numberings.  A fibre's order is held
once, as up-set bitmasks: R <= S is one bit test.  Other tables are built on
the first check that reads them, and kept, as are the rows that passed a
check; a failure is not kept.  The checks read the tables by member and
congruence indices, and a failing scan returns a position, so only the
reported witness is built, by an axiom check only when it is read.  No
module cache is keyed by a universe.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property, reduce
from operator import and_, eq, ne, or_
from types import MappingProxyType

from .algebras import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    _block_pairs,
    _canonical_ids,
    _hom_search,
    _iso_invariant,
    automorphism_generators,
    automorphisms,
    compose,
    con_lattice,
    congruence_to_blocks,
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
    """Deterministically ordered member list, checked closed under quotients,
    and the owner of the integer tables the checks read.

    The constructor makes one pass: ``lattices[i]``, Con of member i in
    ``con_lattice`` order, the members bucketed by ``_iso_invariant`` (see
    ``_isomorphs``) and from both ``quotient_maps``: the closure check, or the
    closing pass of ``universe_from_generators``.  Other tables are built on
    first use and kept with the universe: per member i, the inverse ``by_ids[i]``
    of ``lattices[i]`` (keyed by block-id arrays), for each pair (a, b) of
    elements the bitmask ``pair_masks[i][a * n + b]`` of the congruences
    relating a and b (``_pair_masks``), each up-set as a bitmask ``up[i][a]``
    (``_up_sets``, read off the pair masks; a <= b is bit b of ``up[i][a]``)
    with inverse ``by_up[i]``, and the covering pairs ``covers[i]`` (``_covers``);
    ``diagonal[i]`` is the last index, as canonical ids sort the diagonal
    last.  Since up(a v b) = up(a) & up(b), joins are read off the
    up-sets too, and so are generated congruences: the congruences above
    Cg(R u P) are those above R that relate every pair of P, so its up-set is
    up(R) AND the masks of P's pairs.  Along a quotient map f: X -> Y, f* is
    an order isomorphism from Con(Y) onto the up-set of ker f = f*(diagonal)
    in Con(X) (correspondence theorem), so f(R) is the S with
    f*S = R v ker f.  ``generators`` holds
    (i, j, f*) for each map of ``generating_maps`` from member i to member j;
    ``images``, (i, j, f(-)) for its quotient maps; ``quotients[i][a]``,
    (j, g*) for g = ``quotient_maps(u)[R][0]`` onto member j, R = lattice a of
    member i (g* None: g the identity); ``embeddings``, (i, j, e, e*) for the
    first embedding e, in ``_hom_search`` order, of member i onto each
    subalgebra of a larger member j.  ``natural`` holds the row tuples that
    passed ``_natural_operator`` or survived ``enumerate_operators``,
    ``cohereditary`` those that passed ``is_cohereditary``, and ``reflective``
    the rho tuples ``make_reflector`` accepted; a verdict depends only on the
    universe and the input, so each returns at once for a known one; failures
    are not kept."""

    __slots__ = ("algebras", "_index", "_quotient_maps", "__dict__", "__weakref__")

    def __init__(self, algebras: tuple[FiniteAlgebra, ...]):
        self._own(algebras, None)

    def _own(self, algebras, maps) -> Universe:
        if not algebras:
            raise UniverseMismatch("a universe needs at least one algebra")
        object.__setattr__(self, "algebras", algebras)
        object.__setattr__(self, "_hash", hash(tuple(a._hash for a in algebras)))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(algebras)})
        object.__setattr__(self, "lattices", tuple(map(con_lattice, algebras)))
        buckets: dict = {}
        for m in algebras:
            buckets.setdefault(_iso_invariant(m), []).append(m)
        object.__setattr__(self, "_buckets", buckets)
        maps = maps or _quotient_maps(list(algebras), buckets)
        object.__setattr__(self, "_quotient_maps", MappingProxyType(
            {r: maps[r] for lattice in self.lattices for r in lattice}))
        return self

    def _key(self):
        return (self.algebras,)

    def __len__(self):
        return len(self.algebras)

    def __iter__(self):
        return iter(self.algebras)

    def lookup(self, x: int | FiniteAlgebra) -> int:
        """The index of member ``x``, or ``x`` itself if it indexes a member."""
        i = self._index.get(x) if isinstance(x, FiniteAlgebra) else x
        if type(i) is not int or not 0 <= i < len(self.algebras):
            raise UniverseMismatch("not a universe member or member index")
        return i

    def __repr__(self):
        return f"Universe({len(self.algebras)} algebras, sizes {[a.size for a in self.algebras]})"

    by_ids = cached_property(lambda self: tuple({r.ids: a for a, r in enumerate(lat)}
                                                for lat in self.lattices))
    pair_masks = cached_property(lambda self: tuple(map(_pair_masks, self.lattices)))
    up = cached_property(lambda self: tuple(map(_up_sets, self.lattices, self.pair_masks)))
    by_up = cached_property(lambda self: tuple({mask: a for a, mask in enumerate(up)}
                                               for up in self.up))
    covers = cached_property(lambda self: tuple(map(_covers, self.up, self.by_up, self.pair_masks)))
    diagonal = cached_property(lambda self: tuple(len(lat) - 1 for lat in self.lattices))
    natural = cached_property(lambda self: set())
    reflective = cached_property(lambda self: set())
    cohereditary = cached_property(lambda self: set())
    _pulls = cached_property(lambda self: {})
    _embeddings = cached_property(lambda self: {})

    @cached_property
    def naturality_maps(self) -> tuple[Homomorphism, ...]:
        """Maps a ``NotNatural`` witness is sought along, in this order: per
        member X, the quotient maps out of X and then Aut(X).  The verdict is
        decided along ``generating_maps``; this list is scanned only when that
        fails."""
        out: list[Homomorphism] = []
        for x, lattice in zip(self.algebras, self.lattices):
            out.extend(g for r in lattice for g in self._quotient_maps[r])
            out.extend(automorphisms(x))
        return tuple(dict.fromkeys(out))

    @cached_property
    def generating_maps(self) -> tuple[Homomorphism, ...]:
        """The maps the lifting laws are decided along: per member X the quotient
        maps by atoms of Con(X) and by the diagonal onto other members, then the
        ``automorphism_generators`` of X if two congruences share block sizes."""
        maps = self._quotient_maps
        out: list[Homomorphism] = []
        for x, lattice, covers, d in zip(self.algebras, self.lattices, self.covers, self.diagonal):
            atoms = [lattice[b] for a, b in covers if a == d]
            out.extend(g for r in atoms for g in maps[r])
            out.extend(g for g in maps[lattice[d]] if g.cod != x)
            if len({tuple(sorted(map(r.ids.count, set(r.ids)))) for r in lattice}) < len(lattice):
                out.extend(automorphism_generators(x))
        return tuple(out)

    generators = cached_property(lambda self: tuple(
        (self.lookup(f.dom), self.lookup(f.cod), self.pull(f)) for f in self.generating_maps))
    images = cached_property(lambda self: tuple(
        (i, j, self.image(i, j, pull)) for i, j, pull in self.generators if i != j))

    @cached_property
    def quotients(self) -> tuple[tuple[tuple[int, tuple[int, ...] | None], ...], ...]:
        def coordinates(i, g):
            j = self.lookup(g.cod)
            return j, None if i == j and g.map == tuple(range(len(g.map))) else self.pull(g)

        return tuple(tuple(coordinates(i, self._quotient_maps[r][0]) for r in lattice)
                     for i, lattice in enumerate(self.lattices))

    @cached_property
    def embeddings(self) -> tuple[tuple[int, int, Homomorphism, tuple[int, ...]], ...]:
        firsts: dict = {}
        for (i, m), (j, n) in itertools.product(enumerate(self.algebras), repeat=2):
            if m.sig == n.sig and m.size < n.size:
                for e in _hom_search(m, n, injective=True):
                    firsts.setdefault((i, j, frozenset(e)), Homomorphism(m, n, e, False))
        return tuple((i, j, f, self.pull(f)) for (i, j, _), f in firsts.items())

    def pull(self, f: Homomorphism) -> tuple[int, ...]:
        """S -> f*S as an index array, built on first request; raises
        ``UniverseMismatch`` unless f runs between members."""
        if f not in self._pulls:
            i, j = self._index.get(f.dom), self._index.get(f.cod)
            if i is None or j is None:
                raise UniverseMismatch("map between non-members of the universe")
            into = self.by_ids[i]
            self._pulls[f] = tuple(into[_canonical_ids([s.ids[y] for y in f.map])]
                                   for s in self.lattices[j])
        return self._pulls[f]

    def image(self, i: int, j: int, pull: tuple[int, ...]) -> tuple[int, ...]:
        """R -> f(R) as an index array for the quotient map f from member i onto
        member j with f* = ``pull``: f(R) = (f*)^-1 (R v ker f)."""
        back = {a: s for s, a in enumerate(pull)}
        kernel = self.up[i][pull[self.diagonal[j]]]
        return tuple(back[self.by_up[i][ua & kernel]] for ua in self.up[i])

    def embedding(self, k: int, j: int) -> Homomorphism | None:
        """The least embedding of member k into member j, or None; built on first request."""
        if (k, j) not in self._embeddings:
            self._embeddings[k, j] = find_embedding(self.algebras[k], self.algebras[j])
        return self._embeddings[k, j]


def universe(algebras: Iterable[FiniteAlgebra]) -> Universe:
    """Sort and drop literal duplicates; ``Universe`` checks the closure."""
    return Universe(tuple(sorted(set(algebras), key=_algebra_sort_key)))


def universe_from_generators(seeds: Iterable[FiniteAlgebra]) -> Universe:
    """Close the seeds under canonical quotients, up to isomorphism, in the
    pass that finds the quotient maps (``_quotient_maps``): the sorted seeds,
    then their quotients, keeping the first of each isomorphism class."""
    members, buckets = [], {}
    for a in sorted(set(seeds), key=_algebra_sort_key):
        if next(_isomorphs(buckets, a), None) is None:
            members.append(a)
            buckets.setdefault(_iso_invariant(a), []).append(a)
    maps = _quotient_maps(members, buckets, grow=True)
    return Universe.__new__(Universe)._own(tuple(sorted(members, key=_algebra_sort_key)), maps)


def find_member_iso(u: Universe, a: FiniteAlgebra) -> tuple[int, Homomorphism]:
    """The index of a member isomorphic to ``a`` and an isomorphism onto it:
    ``a`` itself by the identity, else the first of ``_isomorphs``."""
    i = u._index.get(a)
    if i is not None:
        return i, identity_hom(a)
    for iso in _isomorphs(u._buckets, a):
        return u._index[iso.cod], iso
    raise UniverseMismatch(f"no universe member is isomorphic to {a!r}",
                           witness={"size": a.size, "tag": a.tag})


Rule = Callable[[FiniteAlgebra, Congruence], Congruence]


def quotient_maps(u: Universe) -> Mapping[Congruence, tuple[Homomorphism, ...]]:
    """K in Con(X), X a member -> the maps X -> X/K -> M: the projection, then
    the least isomorphism onto M, for each member M isomorphic to X/K in
    member order; the universe found them when it was built (``_quotient_maps``)."""
    return u._quotient_maps


def _isomorphs(buckets: Mapping, a: FiniteAlgebra) -> Iterator[Homomorphism]:
    """The least isomorphism from ``a`` onto each algebra isomorphic to it in
    ``buckets`` (``_iso_invariant`` -> members in order), searching a's bucket."""
    isos = (find_isomorphism(a, m) for m in buckets.get(_iso_invariant(a), ()))
    return (iso for iso in isos if iso is not None)


def _quotient_maps(algebras: list, buckets, grow=False) -> dict:
    """``quotient_maps`` of ``algebras`` in ``buckets``, each distinct X/K matched
    once: the first X/K, in member and lattice order, isomorphic to no member
    raises ``UniverseNotQuotientClosed``, or joins both if ``grow``.  X/K is X
    for K the diagonal; onto a member with X/K's tables the map is the projection.
    A Con(X) of over ``MAX_FIBRE`` elements raises ``SizeTooLarge`` first; Con(X/K) is no larger."""
    out, isos = {}, {}
    if any(len(con_lattice(x)) > MAX_FIBRE for x in algebras):
        raise SizeTooLarge(f"a member has more than {MAX_FIBRE} congruences")
    for i, x in enumerate(algebras):  # reaches the members appended while growing
        diagonal = tuple(range(x.size))
        for r in con_lattice(x):
            q, proj = (x, identity_hom(x)) if r.ids == diagonal else quotient(x, r)
            isos[q] = isos.get(q) or tuple(_isomorphs(buckets, q))
            if grow and not isos[q]:
                algebras.append(q)
                buckets.setdefault(_iso_invariant(q), []).append(q)
                isos[q] = (identity_hom(q),)
            out[r] = tuple(Homomorphism(x, iso.cod, r.ids, True) if iso.cod == q
                           else compose(iso, proj) for iso in isos[q])
            if not out[r]:
                raise UniverseNotQuotientClosed(
                    "quotient of a member is not isomorphic to any member", witness=_witness(i, r))
    return out


def _pair_masks(lattice) -> tuple[int, ...]:
    """At a * n + b, for elements a and b of the carrier, the bitmask of the
    elements of ``lattice`` that relate a and b: bit k is set when a and b share
    a block of the k-th congruence, for every k when a = b."""
    labels = list(zip(*(s.ids for s in lattice)))  # labels[x][k]: x's block in lattice[k]
    bits = [1 << k for k in range(len(lattice))]
    n = len(labels)
    masks = [sum(bits)] * (n * n)
    for a, b in itertools.combinations(range(n), 2):
        held = sum(itertools.compress(bits, map(eq, labels[a], labels[b])))
        masks[a * n + b] = masks[b * n + a] = held
    return tuple(masks)


def _up_sets(lattice, masks) -> tuple[int, ...]:
    """Each R's up-set as a bitmask over ``lattice``: S >= R exactly when S
    holds each pair (least element of x's R-block, x), so up(R) is the AND of
    those pairs' ``masks`` (``_pair_masks``)."""
    n = len(lattice[0].ids)
    return tuple(reduce(and_, (masks[h * n + x] for h, x in _block_pairs(r))) for r in lattice)


def _covers(up, by_up, pair_masks) -> tuple[tuple[int, int], ...]:
    """Each (a, b), ascending, with b covering a: b is minimal among the joins
    a v Cg(x, y) > a, read off the up-sets and the distinct ``pair_masks``, as
    any c > a relates an (x, y) that a does not, so a < a v Cg(x, y) <= c."""
    masks, out = set(pair_masks), []
    for a, ua in enumerate(up):
        joins = {by_up[ua & m] for m in masks} - {a}
        strictly_above = reduce(or_, (up[c] ^ 1 << c for c in joins), 0)
        out.extend((a, b) for b in sorted(joins) if not strictly_above >> b & 1)
    return tuple(out)


class ClosureOperator(Frozen):
    """Validated extensive + natural fibre maps over a universe: ``rows[i][a]``
    indexes C of member i's a-th congruence in ``universe.lattices[i]``
    (``con_lattice`` order).  ``apply`` reads a ``Congruence`` off them."""

    __slots__ = ("universe", "name", "rows")

    def __init__(self, universe: Universe, name: str, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rows", rows)

    def _key(self):
        return self.universe, self.name, self.rows

    def apply(self, x: int | FiniteAlgebra, r: Congruence) -> Congruence:
        u = self.universe
        i = u.lookup(x)
        a = u.by_ids[i].get(r.ids) if r.algebra == u.algebras[i] else None
        if a is None:
            raise FibreMismatch("congruence is not in the member's lattice")
        return u.lattices[i][self.rows[i][a]]

    def __repr__(self):
        return f"ClosureOperator({self.name!r} on {self.universe!r})"


def _monotone(covers, up, row) -> bool:
    """C(a) <= C(b) for each b covering a: by transitivity, for all a <= b."""
    return all(up[row[a]] >> row[b] & 1 for a, b in covers)


def _non_monotone(up, row):
    """On a fibre that is not monotone, the first (a, b) with a <= b but C(a) not <= C(b)."""
    order = range(len(row))
    return next((a, b) for a in order for b in order
                if up[a] >> b & 1 and not up[row[a]] >> row[b] & 1)


def _discontinuity(pull, up, dom_row, cod_row):
    """First S of Con(cod) with C(f*S) not <= f*C(S); ``pull`` is f*."""
    for s in range(len(cod_row)):
        if not up[dom_row[pull[s]]] >> pull[cod_row[s]] & 1:
            return s
    return None


def _first_failure(u: Universe, broken_at, maps=None):
    """The first (i, j, f, k), f in ``maps`` from member i to member j, with f
    breaking a law at position k = ``broken_at(i, j, f*)``, or None.  Without
    ``maps`` the ``generators`` decide the verdict, and ``naturality_maps`` is
    scanned only to locate a failure."""
    if maps is None:
        if all(broken_at(i, j, pull) is None for i, j, pull in u.generators):
            return None
        maps = u.naturality_maps
    for f in maps:
        i, j = u.lookup(f.dom), u.lookup(f.cod)
        k = broken_at(i, j, u.pull(f))
        if k is not None:
            return i, j, f, k
    return None


def make_operator(u: Universe, rule: Rule, name: str) -> ClosureOperator:
    """Tabulate ``rule``, a callable (algebra, congruence) -> congruence, into
    index rows in ``con_lattice`` order, one member at a time (None for a value
    outside the member's lattice), and check them (``_natural_operator``)."""
    return _natural_operator(u, name, (
        tuple(by_ids.get(c.ids) if c.algebra is x or c.algebra == x else None
              for c in [rule(x, r) for r in lattice])
        for x, lattice, by_ids in zip(u.algebras, u.lattices, u.by_ids)))


def _natural_operator(u: Universe, name: str,
                      rows: Iterable[tuple[int | None, ...]]) -> ClosureOperator:
    """The operator with the index ``rows``, read member by member: each row is
    checked to hold congruences of its member (None: a value that is not) and
    to be extensive before the next row is read.  The rows are then checked
    monotone on each fibre (on its covering pairs) and continuous along
    ``generating_maps``, which composes to continuity along every map (see
    the module docstring), unless they passed before on ``u``.  A
    ``NotNatural`` witness {dom, cod, map, R, S} is a lift that C breaks: the
    identity with R <= S, or a map f with R = f*S; it is the first along the
    full ``naturality_maps``, congruences taken in ``con_lattice`` order."""
    if isinstance(rows, tuple) and rows in u.natural:  # rows that passed were extensive
        return ClosureOperator(u, name, rows)
    checked = []
    for i, (lattice, up, row) in enumerate(zip(u.lattices, u.up, rows)):
        for a, b in enumerate(row):
            if b is None:
                raise FibreMismatch(f"closure value is not a congruence of member {i}")
            if not up[a] >> b & 1:
                raise NotExtensive(f"operator {name!r} is not extensive on member {i}",
                                   witness=_witness(i, lattice[a],
                                                    closure=congruence_to_blocks(lattice[b])))
        checked.append(row)
    rows = tuple(checked)
    if rows in u.natural:
        return ClosureOperator(u, name, rows)

    def not_natural(i, j, f, ri, si):
        return NotNatural(f"operator {name!r} breaks the lifting law", witness={
            "dom": i, "cod": j, "map": list(f.map), "R": congruence_to_blocks(u.lattices[i][ri]),
            "S": congruence_to_blocks(u.lattices[j][si])})

    for i, (covers, up, row) in enumerate(zip(u.covers, u.up, rows)):
        if not _monotone(covers, up, row):
            raise not_natural(i, i, identity_hom(u.algebras[i]), *_non_monotone(up, row))
    found = _first_failure(u, lambda i, j, pull: _discontinuity(pull, u.up[i], rows[i], rows[j]))
    if found is not None:
        i, j, f, s = found
        raise not_natural(i, j, f, u.pull(f)[s], s)
    u.natural.add(rows)
    return ClosureOperator(u, name, rows)


# --- axiom checkers -----------------------------------------------------------

def _witness(i: int, r: Congruence, **extra) -> dict:
    out = {"algebra": i, "congruence": congruence_to_blocks(r)}
    out.update(extra)
    return out


def is_idempotent(c: ClosureOperator) -> CheckResult:
    """C(C(R)) = C(R) on every fibre."""
    lattices = c.universe.lattices
    for i, row in enumerate(c.rows):
        for a, ca in enumerate(row):
            if row[ca] != ca:
                return failed(**_witness(i, lattices[i][a]))
    return PASSED


def _along_quotient_maps(c: ClosureOperator, key: str, sides) -> CheckResult:
    """Whether the index columns ``sides(c.rows, a, i, j)`` agree along every
    quotient map f from member i to member j: for key "S" (its witness key)
    over Con(cod), ``a`` = f*; for key "R" over Con(dom), ``a`` = f(-).
    Decided along the non-automorphisms of ``generating_maps``; the witness,
    the first failing f and T along ``quotient_maps``, is found when read."""
    u, rows = c.universe, c.rows

    def broken_at(i, j, a):
        lhs, rhs = sides(rows, a, i, j)
        return None if lhs == rhs else list(map(ne, lhs, rhs)).index(True)

    if all(broken_at(i, j, t) is None for i, j, t in
           ([g for g in u.generators if g[0] != g[1]] if key == "S" else u.images)):
        return PASSED
    column = (lambda i, j, pull: pull) if key == "S" else u.image

    def witness():
        i, j, f, t = _first_failure(u, lambda i, j, pull: broken_at(i, j, column(i, j, pull)),
                                    itertools.chain.from_iterable(quotient_maps(u).values()))
        lhs, rhs = sides(rows, column(i, j, u.pull(f)), i, j)
        over, into = (u.lattices[k] for k in ((j, i) if key == "S" else (i, j)))
        return {"dom": i, "cod": j, "map": list(f.map), key: congruence_to_blocks(over[t]),
                "lhs": congruence_to_blocks(into[lhs[t]]), "rhs": congruence_to_blocks(into[rhs[t]])}

    return CheckResult._deferred(witness)


def is_cohereditary(c: ClosureOperator) -> CheckResult:
    """C(f*S) = f*C(S) along every surjection between members: the law
    composes and holds along automorphisms, so it is decided along atomic
    quotient maps and isomorphisms onto copies; the witness is the first
    along ``quotient_maps`` (see the module docstring).  Rows that pass are
    kept in ``c.universe.cohereditary``; a failure is decided again."""
    known = c.universe.cohereditary
    if c.rows not in known:
        result = _along_quotient_maps(c, "S", lambda rows, pull, i, j: (
            list(map(rows[i].__getitem__, pull)), list(map(pull.__getitem__, rows[j]))))
        if not result:
            return result
        known.add(c.rows)
    return PASSED


def is_minimal(c: ClosureOperator) -> CheckResult:
    """C(R v S) = C(R) v S on every fibre; joins are read off the up-sets.
    On a fibre with diagonal D that holds exactly when C(S) = S v C(D) for
    every S (take R = D; conversely C(R v S) = R v S v C(D) = C(R) v S), which
    decides the verdict; the witness, the first pair (R, S) on the first
    fibre that fails it, is located when read (``CheckResult``)."""
    u = c.universe
    for i, row in enumerate(c.rows):
        up, by_up, lattice = u.up[i], u.by_up[i], u.lattices[i]
        floor = up[row[u.diagonal[i]]]
        if any(row[s] != by_up[floor & us] for s, us in enumerate(up)):
            def witness():
                r, s = next((r, s) for r, s in itertools.product(range(len(row)), repeat=2)
                            if row[by_up[up[r] & up[s]]] != by_up[up[row[r]] & up[s]])
                return _witness(i, lattice[r], second=congruence_to_blocks(lattice[s]))
            return CheckResult._deferred(witness)
    return PASSED


def preserves_cocartesian(c: ClosureOperator) -> CheckResult:
    """image(f, C(R)) = C(image(f, R)) along every surjection: images compose
    and C commutes with automorphisms, so it is decided along atomic quotient
    maps and isomorphisms onto copies; the witness is the first along
    ``quotient_maps`` (see the module docstring)."""
    return _along_quotient_maps(c, "R", lambda rows, image, i, j: (
        list(map(image.__getitem__, rows[i])), list(map(rows[j].__getitem__, image))))


def is_natural_along_homs(c: ClosureOperator) -> CheckResult:
    """C(f*S) <= f*C(S) along every hom f between members, the paper's
    naturality.  f is a quotient map onto a member, checked at construction,
    then an embedding; continuity composes, an embedding of equal size is an
    isomorphism, and two with one image differ by an automorphism.  So the
    witness {dom, cod, map, R = e*S, S} is the first along ``Universe.embeddings``."""
    u = c.universe
    for i, j, e, pull in u.embeddings:
        s = _discontinuity(pull, u.up[i], c.rows[i], c.rows[j])
        if s is not None:
            return failed(dom=i, cod=j, map=list(e.map),
                          R=congruence_to_blocks(u.lattices[i][pull[s]]),
                          S=congruence_to_blocks(u.lattices[j][s]))
    return PASSED


def operator_leq(c1: ClosureOperator, c2: ClosureOperator) -> CheckResult:
    """C1 <= C2 pointwise on every fibre."""
    if c1.universe != c2.universe:
        raise UniverseMismatch("operator order needs a shared universe")
    u = c1.universe
    for i, (row1, row2) in enumerate(zip(c1.rows, c2.rows)):
        for a, (b1, b2) in enumerate(zip(row1, row2)):
            if not u.up[i][b1] >> b2 & 1:
                return failed(**_witness(i, u.lattices[i][a]))
    return PASSED


MAX_CANDIDATES = 500_000
# up-sets, quadratic in a fibre's size, take 29 MB at Bell(9) = 21,147, ~0.9 GB at Bell(10)
MAX_FIBRE = 25_000


def enumerate_operators(u: Universe) -> tuple[ClosureOperator, ...]:
    """Every closure operator on ``u``, by depth-first search over the members.

    A member's candidates are its monotone extensive fibre tables.  A
    partial family is extended one member at a time, in universe order,
    and cut off as soon as it breaks continuity along a map of
    ``generating_maps`` whose two ends are assigned.  The maps of
    ``naturality_maps`` at that depth compose from those (quotients sort
    earlier), so the cuts are the full list's.  A survivor is monotone and
    continuous along every generator, ``_natural_operator``'s verdict, so
    its rows, in ``con_lattice`` order, join ``Universe.natural`` unchecked.
    It is named ``op{k}``, k its index in the product of all extensive
    families (member-major, as ``itertools.product``).
    Raises ``SizeTooLarge`` up front when there are more than
    ``MAX_CANDIDATES`` extensive families.
    """
    radix = [math.prod(ua.bit_count() for ua in up) for up in u.up]
    if math.prod(radix) > MAX_CANDIDATES:
        raise SizeTooLarge(f"universe admits more than {MAX_CANDIDATES} extensive families")
    options = [[[b for b in range(len(up)) if ua >> b & 1] for ua in up] for up in u.up]
    candidates = [[(k, row) for k, row in enumerate(itertools.product(*per_a))
                   if _monotone(covers, up, row)]
                  for per_a, covers, up in zip(options, u.covers, u.up)]
    checks: list[list] = [[] for _ in u.algebras]
    for i, j, pull in u.generators:
        checks[max(i, j)].append((i, j, pull))

    rows: list = [None] * len(u.algebras)
    out = []

    def extend(m: int, k: int) -> None:
        if m == len(rows):
            found = tuple(rows)
            u.natural.add(found)
            out.append(ClosureOperator(u, f"op{k}", found))
            return
        for index, row in candidates[m]:
            rows[m] = row
            if all(_discontinuity(pull, u.up[i], rows[i], rows[j]) is None
                   for i, j, pull in checks[m]):
                extend(m + 1, k * radix[m] + index)

    extend(0, 0)
    del extend  # empties the cell by which extend calls itself, a cycle holding u
    return tuple(out)


def operator_report(c: ClosureOperator) -> dict:
    """JSON report of all operator axioms plus witnesses for failures."""
    checks = {
        "idempotent": is_idempotent(c),
        "cohereditary": is_cohereditary(c),
        "minimal": is_minimal(c),
        "preserves_pushouts": preserves_cocartesian(c),
    }
    return {
        "name": c.name,
        "extensive": True,   # enforced at construction
        "natural": True,     # enforced at construction
        **{k: v.ok for k, v in checks.items()},
        "witnesses": {k: v.witness for k, v in checks.items() if not v.ok},
    }
