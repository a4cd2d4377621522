"""Finite algebras as operation tables, and their congruence machinery.

Carriers are ``{0..n-1}``.  Tables are stored flat (row-major) so that
all values are hashable and structurally comparable; congruences are
stored as block-id arrays with ids assigned by least block element, so
two congruences are equal as values exactly when they are equal as
partitions.  That canonical encoding is what lets the rest of the
library treat fibre-isomorphism as plain equality.  Relabelings and
quotients read each table along one flat index array per arity, not
through ``op`` once per entry.

Congruence generation, joins, images and reachability share one
label-merge routine: a class is its label, and merging two classes
relabels one.  Generation also reads the tables, queueing for each merge
the values at the operation tuples that differ in one coordinate by the
merged pair; a partition is compatible when it equals the congruence its
blocks generate.  Joins read none: they are equivalence closures of
unions.  Lattices are enumerated by joining principal congruences onto
the ones found so far, on block-id arrays; in groups and rngs only the
pairs with the neutral element and in quandles one pair per orbit of the
inner automorphisms are generated.  The test suite checks both against
exhaustive partition scans.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from operator import le

from . import terms
from .errors import (
    AxiomViolation,
    FibreMismatch,
    Frozen,
    Hashed,
    NotACongruence,
    NotAHomomorphism,
    OutOfRange,
    SignatureMismatch,
    SignatureShape,
    SizeTooLarge,
    TableShape,
    UnknownOp,
    UnknownTag,
)

GROUP_TAG = "group"
RNG_TAG = "commutative-rng"
QUANDLE_TAG = "quandle"


class Signature(Frozen):
    """Operation names with arities; names unique, arities >= 0."""

    __slots__ = ("ops",)

    def __init__(self, ops: tuple[tuple[str, int], ...]):
        names = [name for name, _ in ops]
        if len(set(names)) != len(names):
            raise SignatureShape("duplicate operation names in signature")
        if any(arity < 0 for _, arity in ops):
            raise SignatureShape("negative arity")
        object.__setattr__(self, "ops", ops)

    def _key(self):
        return (self.ops,)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def __repr__(self):
        return "Signature(" + ", ".join(f"{n}/{a}" for n, a in self.ops) + ")"


GROUP_SIGNATURE = Signature((("mul", 2), ("inv", 1), ("e", 0)))
COMMUTATIVE_RNG_SIGNATURE = Signature((("add", 2), ("neg", 1), ("zero", 0), ("mul", 2)))
QUANDLE_SIGNATURE = Signature((("lhd", 2), ("lhd_inv", 2)))

# tag -> (signature op set, defining equations)
VARIETIES = {
    GROUP_TAG: (GROUP_SIGNATURE, terms.GROUP_AXIOMS),
    RNG_TAG: (COMMUTATIVE_RNG_SIGNATURE, terms.COMMUTATIVE_RNG_AXIOMS),
    QUANDLE_TAG: (QUANDLE_SIGNATURE, terms.QUANDLE_AXIOMS),
}


class FiniteAlgebra(Hashed):
    """Carrier {0..size-1} plus one flat table per signature operation."""

    __slots__ = ("size", "sig", "tables", "tag", "_op_index", "__weakref__")

    def __init__(self, size: int, sig: Signature, tables: tuple[tuple[int, ...], ...],
                 tag: str | None = None):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_hash", hash((size, sig.ops, tables, tag)))
        object.__setattr__(self, "_op_index", {name: i for i, (name, _) in enumerate(sig.ops)})

    def _key(self):
        return self.size, self.sig, self.tables, self.tag

    def op(self, name: str, *args: int) -> int:
        i = self._op_index.get(name)
        if i is None:
            raise UnknownOp(f"operation {name!r} not in signature")
        arity = self.sig.ops[i][1]
        if len(args) != arity:
            raise UnknownOp(f"operation {name!r} applied to {len(args)} arguments, "
                            f"arity is {arity}")
        idx = 0
        for a in args:
            if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.size:
                raise OutOfRange(f"argument {a!r} of {name!r} outside [0, {self.size})")
            idx = idx * self.size + a
        return self.tables[i][idx]

    def elements(self) -> range:
        return range(self.size)

    def table_nested(self, name: str):
        """Table of ``name`` as nested lists (an int for arity 0)."""
        i = self._op_index[name]
        arity = self.sig.ops[i][1]
        return _unflatten(self.tables[i], self.size, arity)

    def __repr__(self):
        tag = f", tag={self.tag!r}" if self.tag else ""
        return f"FiniteAlgebra(size={self.size}, {self.sig!r}{tag})"


def _flatten(nested, n: int, arity: int, opname: str) -> tuple[int, ...]:
    if arity == 0:
        if not isinstance(nested, int) or isinstance(nested, bool):
            raise TableShape(f"table for {opname!r} must be a single integer")
        return (nested,)
    level = [nested]
    for k in range(arity, 0, -1):
        for row in level:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise TableShape(f"table for {opname!r} must be a list of length {n} at arity {k}")
        level = [v for row in level for v in row]
    for v in level:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TableShape(f"table for {opname!r} has a non-integer entry")
    return tuple(level)


def _unflatten(flat: Sequence[int], n: int, arity: int):
    if arity == 0:
        return flat[0]
    level = list(flat)
    for _ in range(arity - 1):
        level = [level[i:i + n] for i in range(0, len(level), n)]
    return level


def _parse_signature(items) -> Signature:
    """Signature from (name, arity) pairs or {"name", "arity"} objects."""
    if not isinstance(items, (list, tuple)):
        raise SignatureShape("a signature is a list of operations")
    ops = []
    for item in items:
        pair = (item.get("name"), item.get("arity")) if isinstance(item, dict) else item
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and isinstance(pair[0], str)
                and isinstance(pair[1], int) and not isinstance(pair[1], bool)):
            raise SignatureShape(f"signature entry {item!r} needs a name and an integer arity")
        ops.append(tuple(pair))
    return Signature(tuple(ops))


def validate_algebra(size, signature, tables, tag=None) -> FiniteAlgebra:
    """Check shapes, entry ranges, and (for tagged algebras) variety axioms.

    ``signature`` may be a Signature or a list of (name, arity) pairs /
    {"name":..,"arity":..} objects; ``tables`` maps names to nested lists.
    """
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise TableShape(f"size must be a positive integer, got {size!r}")
    if not isinstance(signature, Signature):
        signature = _parse_signature(signature)
    if not isinstance(tables, dict):
        raise TableShape("tables map operation names to nested lists")
    known = set(signature.names())
    extra = set(tables) - known
    if extra:
        raise TableShape(f"tables given for unknown operations: {sorted(extra)}")
    flat = []
    for name, arity in signature.ops:
        if name not in tables:
            raise TableShape(f"missing table for operation {name!r}")
        flat.append(_flatten(tables[name], size, arity, name))
    for (name, _), table in zip(signature.ops, flat):
        for v in table:
            if not 0 <= v < size:
                raise OutOfRange(f"entry {v} in table {name!r} outside [0, {size})")
    if tag is not None:
        if not isinstance(tag, str) or tag not in VARIETIES:
            raise UnknownTag(f"unknown tag {tag!r}")
        want_sig, axioms = VARIETIES[tag]
        if set(signature.ops) != set(want_sig.ops):
            raise TableShape(
                f"tag {tag!r} requires signature {sorted(want_sig.ops)}, "
                f"got {sorted(signature.ops)}"
            )
        algebra = FiniteAlgebra(size, signature, tuple(flat), tag)
        check = terms.satisfies_equations(algebra, axioms)
        if not check:
            raise AxiomViolation(
                f"tagged variety {tag!r} fails axiom "
                f"'{check.witness['equation']}' at assignment "
                f"{tuple(check.witness['assignment'])}",
                witness=check.witness,
            )
        return algebra
    return FiniteAlgebra(size, signature, tuple(flat), None)


def algebra_from_json(doc: dict) -> FiniteAlgebra:
    if not isinstance(doc, dict):
        raise TableShape("an algebra is a JSON object")
    for key in ("size", "signature", "tables"):
        if key not in doc:
            raise TableShape(f"algebra object missing {key!r}")
    return validate_algebra(doc["size"], doc["signature"], doc["tables"], doc.get("tag"))


def algebra_to_json(a: FiniteAlgebra) -> dict:
    return {
        "size": a.size,
        "signature": [{"name": n, "arity": k} for n, k in a.sig.ops],
        "tables": {n: a.table_nested(n) for n, _ in a.sig.ops},
        "tag": a.tag,
    }


# --- congruences -------------------------------------------------------------

def _canonical_ids(labels: Sequence) -> tuple[int, ...]:
    """Relabel a partition-as-labels array so block ids go by least element:
    a label met for the first time gets the number of distinct labels met
    before it."""
    seen: dict = {}
    return tuple([seen.setdefault(lab, len(seen)) for lab in labels])


class Congruence(Hashed):
    """Compatible partition, encoded as a canonical block-id array."""

    __slots__ = ("algebra", "ids")

    def __init__(self, algebra: FiniteAlgebra, ids: tuple[int, ...]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_hash", hash((algebra._hash, ids)))

    def _key(self):
        return self.algebra, self.ids

    def together(self, a: int, b: int) -> bool:
        return self.ids[a] == self.ids[b]

    @property
    def n_blocks(self) -> int:
        return max(self.ids) + 1 if self.ids else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.ids):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def __repr__(self):
        return "Congruence" + repr([list(b) for b in self.blocks()])


def diagonal(a: FiniteAlgebra) -> Congruence:
    return Congruence(a, tuple(range(a.size)))


def full(a: FiniteAlgebra) -> Congruence:
    return Congruence(a, (0,) * a.size)


def is_compatible(a: FiniteAlgebra, ids: Sequence[int]) -> bool:
    """Does the partition respect every operation?  A partition is a
    congruence exactly when it equals the congruence its blocks generate."""
    r = Congruence(a, _canonical_ids(ids))
    return generated_congruence(a, _block_pairs(r)) == r


def congruence_from_blocks(a: FiniteAlgebra, blocks: Iterable[Iterable[int]]) -> Congruence:
    """Build a congruence from blocks; unlisted elements become singletons.

    Raises NotACongruence when a block is not a list, the blocks overlap,
    or the partition is not operation-compatible, and OutOfRange for an
    element that is not an integer in the carrier.
    """
    labels: list = [None] * a.size
    for i, block in enumerate(blocks):
        if not isinstance(block, (list, tuple)):
            raise NotACongruence(f"block {block!r} is not a list of elements")
        for x in block:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < a.size:
                raise OutOfRange(f"block element {x!r} outside [0, {a.size})")
            if labels[x] is not None:
                raise NotACongruence(f"element {x} appears in two blocks")
            labels[x] = i
    for x in range(a.size):
        if labels[x] is None:
            labels[x] = ("singleton", x)
    ids = _canonical_ids(labels)
    if not is_compatible(a, ids):
        raise NotACongruence(
            "partition is not compatible with the operations",
            witness={"blocks": [list(b) for b in Congruence(a, ids).blocks()]},
        )
    return Congruence(a, ids)


def congruence_to_blocks(r: Congruence) -> list[list[int]]:
    return [list(b) for b in r.blocks()]


# --- homomorphisms -----------------------------------------------------------

class Homomorphism(Hashed):
    """Operation-preserving total map; ``surjective`` is cached at creation."""

    __slots__ = ("dom", "cod", "map", "surjective")

    def __init__(self, dom: FiniteAlgebra, cod: FiniteAlgebra, map: tuple[int, ...],
                 surjective: bool):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "surjective", surjective)
        object.__setattr__(self, "_hash", hash((dom._hash, cod._hash, map)))

    def _key(self):
        return self.dom, self.cod, self.map, self.surjective

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self):
        return f"Homomorphism({self.dom.size}->{self.cod.size}, {list(self.map)})"


def _preserves_ops(dom: FiniteAlgebra, cod: FiniteAlgebra, mapping: Sequence[int]):
    """Return a violating (op, args) pair, or None."""
    for name, arity in dom.sig.ops:
        for t in itertools.product(range(dom.size), repeat=arity):
            if mapping[dom.op(name, *t)] != cod.op(name, *(mapping[x] for x in t)):
                return name, t
    return None


def homomorphism(dom: FiniteAlgebra, cod: FiniteAlgebra,
                 mapping: Sequence[int]) -> Homomorphism:
    if dom.sig != cod.sig:
        raise SignatureMismatch("domain and codomain have different signatures")
    mapping = tuple(mapping)
    if len(mapping) != dom.size:
        raise NotAHomomorphism(f"map must list {dom.size} values")
    if any(not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < cod.size
           for v in mapping):
        raise OutOfRange("map value is not an element of the codomain carrier")
    bad = _preserves_ops(dom, cod, mapping)
    if bad is not None:
        raise NotAHomomorphism(
            f"map does not preserve {bad[0]!r} at arguments {bad[1]}",
            witness={"op": bad[0], "args": list(bad[1])},
        )
    return Homomorphism(dom, cod, mapping, len(set(mapping)) == cod.size)


def identity_hom(a: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(a, a, tuple(range(a.size)), True)


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    """g after f."""
    if f.cod != g.dom:
        raise SignatureMismatch("middle objects of composition differ")
    m = tuple(g.map[f.map[x]] for x in range(f.dom.size))
    return Homomorphism(f.dom, g.cod, m, len(set(m)) == g.cod.size)


def _transport(a: FiniteAlgebra, points: Sequence[int],
               values: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Tables on ``range(len(points))`` read off ``a``'s: the entry at a tuple
    t is ``values`` of a's entry at the tuple of ``points[c]`` for c in t.

    Each table is read along one flat index array, built once per arity.
    """
    where: dict[int, list[int]] = {}
    tables = []
    for (_, arity), table in zip(a.sig.ops, a.tables):
        if arity not in where:
            where[arity] = _index_array(a.size, points, arity)
        tables.append(tuple([values[table[i]] for i in where[arity]]))
    return tuple(tables)


def _index_array(n: int, points: Sequence[int], arity: int) -> list[int]:
    """Flat indices, in an n-element table, of the tuples over ``points``."""
    idx = [0]
    for _ in range(arity):
        idx = [w * n + p for w in idx for p in points]
    return idx


def quotient(x: FiniteAlgebra, r: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Quotient algebra on canonical block ids plus the projection: each
    table is read at the least representative of every block."""
    if r.algebra != x:
        raise FibreMismatch("congruence lives on a different algebra")
    k = r.n_blocks
    reps = [0] * k
    for e in range(x.size - 1, -1, -1):
        reps[r.ids[e]] = e
    q = FiniteAlgebra(k, x.sig, _transport(x, reps, r.ids), x.tag)
    return q, Homomorphism(x, q, r.ids, True)


# --- hom enumeration ---------------------------------------------------------

@lru_cache(maxsize=None)
def _occurrences(n: int, sig: Signature) -> tuple[tuple[tuple, ...], ...]:
    """Per element x of {0..n-1}, the (argument tuple, flat index, operation
    position) of each table entry whose tuple holds x; entry n lists the
    constants.  One list serves every algebra of size n and signature sig."""
    occurs: list[list] = [[] for _ in range(n + 1)]
    for k, (_, arity) in enumerate(sig.ops):
        for i, t in enumerate(itertools.product(range(n), repeat=arity)):
            for x in set(t) or (n,):
                occurs[x].append((t, i, k))
    return tuple(map(tuple, occurs))


def _propagate(occurs, tables, into, m, injective, assign, used, queue: deque) -> bool:
    """Assign the images that the elements newly assigned in ``queue`` force,
    reading the domain's ``tables`` at each entry of ``occurs`` and the
    codomain's tables ``into`` at its images; False on a contradiction, or
    with ``injective`` a repeated image."""
    while queue:
        for t, i, k in occurs[queue.popleft()]:
            idx = 0
            for c in t:
                v = assign[c]
                if v is None:
                    break
                idx = idx * m + v
            else:
                val = tables[k][i]
                want, have = into[k][idx], assign[val]
                if have is None:
                    if injective:
                        if used[want]:
                            return False
                        used[want] = True
                    assign[val] = want
                    queue.append(val)
                elif have != want:
                    return False
    return True


def _hom_search(dom: FiniteAlgebra, cod: FiniteAlgebra, *, injective: bool,
                fixed: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """DFS over partial maps with forced-value propagation; each x below
    len(fixed) goes to fixed[x], and those images are distinct.

    Whenever all arguments of an operation tuple are assigned, the image
    of its value is forced; contradictions, and with ``injective`` a
    repeated image, prune the branch.  Each element is indexed by the
    tuples it occurs in (``_occurrences``, built once per size and
    signature), so assigning it re-reads only those (``_propagate``).
    Maps are yielded in lexicographic order, and the search stops where
    its reader does.
    """
    n, m = dom.size, cod.size
    if injective and n > m:
        return
    occurs, tables, into = _occurrences(n, dom.sig), dom.tables, cod.tables

    def dfs(assign: list[int | None], used: list[bool]) -> Iterator[tuple[int, ...]]:
        try:
            x = assign.index(None)
        except ValueError:
            yield tuple(assign)
            return
        for v in range(m):
            if injective and used[v]:
                continue
            branch, taken = assign.copy(), used.copy()
            branch[x], taken[v] = v, True
            if _propagate(occurs, tables, into, m, injective, branch, taken, deque([x])):
                yield from dfs(branch, taken)

    # the constants and ``fixed`` force their images before any choice is made
    seed, used = [None] * n, [False] * m
    for x, v in enumerate(fixed):
        seed[x], used[v] = v, True
    if _propagate(occurs, tables, into, m, injective, seed, used,
                  deque([n, *range(len(fixed))])):
        yield from dfs(seed, used)


def enumerate_homs(x: FiniteAlgebra, y: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """All homomorphisms x -> y in lexicographic map order."""
    if x.sig != y.sig:
        raise SignatureMismatch("hom enumeration needs a shared signature")
    return tuple(Homomorphism(x, y, m, len(set(m)) == y.size)
                 for m in _hom_search(x, y, injective=False))


def find_embedding(x: FiniteAlgebra, y: FiniteAlgebra) -> Homomorphism | None:
    """Lexicographically least injective homomorphism x -> y, or None.  No
    search runs when some element of x has no element of y whose
    ``_embedding_profile`` counts are all at least its own."""
    if x.sig != y.sig:
        raise SignatureMismatch("hom search needs a shared signature")
    targets = set(_embedding_profile(y))
    if not all(any(all(map(le, p, q)) for q in targets) for p in set(_embedding_profile(x))):
        return None
    e = next(_hom_search(x, y, injective=True), None)
    return None if e is None else Homomorphism(x, y, e, x.size == y.size)


def automorphisms(x: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """All automorphisms of x in lexicographic map order."""
    return tuple(Homomorphism(x, x, m, True) for m in _hom_search(x, x, injective=True))


@lru_cache(maxsize=None)
def automorphism_generators(x: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    """Generators of Aut(x) from a stabiliser chain, without listing the group
    (Sims, 1970; Butler, *Fundamental Algorithms for Permutation Groups*, 1991).
    G_l fixes 0..l-1.  For l from n-1 down to 0, one automorphism in G_l
    sending l to v is searched for each v outside the orbit of l under the
    generators kept so far, which lie in G_l, and with the ``_embedding_profile``
    counts of l, which automorphisms keep.  If the kept ones generate G_{l+1},
    they then reach every coset of it in G_l, so they generate G_l.  A level
    that the identity on 0..l-1 already forces is skipped: G_l fixes it."""
    n, gens, profile = x.size, [], _embedding_profile(x)
    occurs = _occurrences(n, x.sig)
    # forced[l]: propagating the identity on 0..l-1 assigns l; one pass up
    assign, queue, forced = [None] * n, deque([n]), []
    for level in range(n):
        _propagate(occurs, x.tables, x.tables, n, False, assign, [], queue)
        forced.append(assign[level] is not None)
        assign[level] = level
        queue.append(level)
    for level in range(n - 1, -1, -1):
        if forced[level]:
            continue
        fixed = tuple(range(level))
        for v in range(level + 1, n):
            orbit, grown = set(), {level}
            while grown:
                orbit |= grown
                grown = {g[y] for g in gens for y in grown} - orbit
            if v not in orbit and profile[v] == profile[level]:
                gens.extend(itertools.islice(_hom_search(x, x, injective=True, fixed=fixed + (v,)), 1))
    return tuple(Homomorphism(x, x, g, True) for g in gens)


def enumerate_surjections(x: FiniteAlgebra, y: FiniteAlgebra) -> tuple[Homomorphism, ...]:
    if x.size < y.size:
        if x.sig != y.sig:
            raise SignatureMismatch("hom enumeration needs a shared signature")
        return ()
    return tuple(f for f in enumerate_homs(x, y) if f.surjective)


@lru_cache(maxsize=None)
def find_isomorphism(x: FiniteAlgebra, y: FiniteAlgebra) -> Homomorphism | None:
    """Lexicographically least isomorphism x -> y, or None.  Equal tables
    give the identity, the least bijection, with no search, and unequal
    ``_iso_invariant`` keys give None unsearched."""
    if x.sig != y.sig or x.size != y.size or x.tag != y.tag:
        return None
    if x.tables == y.tables:
        return Homomorphism(x, y, tuple(range(x.size)), True)
    if _iso_invariant(x) != _iso_invariant(y):
        return None
    iso = next(_hom_search(x, y, injective=True), None)
    return None if iso is None else Homomorphism(x, y, iso, True)


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _iso_invariant(a: FiniteAlgebra):
    """Relabeling-invariant key that cuts isomorphism searches: the size, the
    tag and the sorted ``_embedding_profile``.  An isomorphism and its
    inverse are embeddings, so it keeps every element's counts."""
    return a.size, a.tag, tuple(sorted(_embedding_profile(a)))


@lru_cache(maxsize=None)
def _embedding_profile(a: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """Per element x, counts that an embedding e can only raise: for each
    binary operation o, how many y satisfy, and how many do not, each of
    x o y = x, y o x = x, x o y = y and y o x = y; for each unary t, whether
    t(x) = x and whether not.  An injective hom keeps and reflects each
    equality pair by pair, so each count of x is at most that of e(x)
    (Ullmann's candidate filter, *An algorithm for subgraph isomorphism*,
    J. ACM 23, 1976)."""
    n = a.size
    profile: list[list[int]] = [[] for _ in range(n)]
    for (_, arity), table in zip(a.sig.ops, a.tables):
        for x, counts in enumerate(profile):
            if arity == 1:
                held = (int(table[x] == x),)
            elif arity == 2:
                row, col = table[x * n:(x + 1) * n], table[x::n]
                held = (row.count(x), col.count(x),
                        sum(v == y for y, v in enumerate(row)),
                        sum(v == y for y, v in enumerate(col)))
            else:
                continue
            for k in held:
                counts += (k, (n if arity == 2 else 1) - k)
    return tuple(map(tuple, profile))


def _inverse(perm: Sequence[int]) -> list[int]:
    return sorted(range(len(perm)), key=perm.__getitem__)


def relabel_algebra(a: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Transport tables along the bijection old->new given by ``perm``.

    The new entry at a tuple t is perm of the old entry at perm^-1(t),
    read along one flat index array per arity (no ``op`` call per tuple).
    """
    return FiniteAlgebra(a.size, a.sig, _transport(a, _inverse(perm), perm), a.tag)


CANONICAL_MAX_SIZE = 7  # canonical_algebra scans all n! relabelings


def canonical_algebra(a: FiniteAlgebra) -> FiniteAlgebra:
    """Lexicographically least relabeling; brute force over permutations."""
    if a.size > CANONICAL_MAX_SIZE:
        raise SizeTooLarge(f"canonical form by permutation scan needs size <= {CANONICAL_MAX_SIZE}")
    return FiniteAlgebra(a.size, a.sig, min(_transport(a, _inverse(perm), perm)
                                            for perm in itertools.permutations(range(a.size))),
                         a.tag)


# --- congruence generation and lattices --------------------------------------

def _operations(x: FiniteAlgebra) -> list[tuple[int, tuple[int, ...]]]:
    """(arity, flat table) of each operation of x, as ``_merge`` reads them."""
    return [(k, t) for (_, k), t in zip(x.sig.ops, x.tables)]


def _merge(ids: tuple[int, ...], pairs: Iterable[tuple[int, int]],
           ops: Sequence[tuple[int, tuple[int, ...]]] = ()) -> tuple[int, ...]:
    """Canonical ids of the least equivalence above the canonical ids ``ids``
    and ``pairs`` that respects the (arity, table) list ``ops``: with none, the
    equivalence closure; with an algebra's ``_operations``, ``ids`` one of its
    congruences, the generated congruence.  A class is its label; a merge keeps
    the smaller label and shifts the larger ones down, so the labels stay
    canonical.  Each merge of the classes of a and b queues, for every
    operation and argument position, the values at two tuples that differ there
    only by a and b.  One pair per merge suffices: the merged pairs connect
    each class, so by transitivity any two of its members give related values
    (Freese, *Computing congruences efficiently*, Algebra Universalis 59,
    2008).  Unary and binary tables are read along flat rows and strided
    columns."""
    labels, pending, n = ids, list(pairs), len(ids)
    while pending:
        a, b = pending.pop()
        la, lb = labels[a], labels[b]
        if la == lb:
            continue
        if la > lb:
            la, lb = lb, la
        labels = [la if label == lb else label - (label > lb) for label in labels]
        for k, t in ops:
            if k == 1:
                pending.append((t[a], t[b]))
            elif k == 2:
                pending.extend(zip(t[a * n:(a + 1) * n], t[b * n:(b + 1) * n]))
                pending.extend(zip(t[a::n], t[b::n]))
            else:
                for pos in range(k):
                    hi = n ** (k - 1 - pos)
                    for lo in range(0, n ** k, hi * n):
                        pending.extend(zip(t[lo + a * hi:lo + (a + 1) * hi],
                                           t[lo + b * hi:lo + (b + 1) * hi]))
    return tuple(labels)


def generated_congruence(x: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the given pairs: ``_merge`` from the
    diagonal, reading x's tables (Mal'cev propagation)."""
    n = x.size
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise OutOfRange(f"pair ({a}, {b}) outside [0, {n})")
    return Congruence(x, _merge(diagonal(x).ids, pairs, _operations(x)))


def meet(r: Congruence, s: Congruence) -> Congruence:
    if r.algebra != s.algebra:
        raise FibreMismatch("meet needs congruences on the same algebra")
    return Congruence(r.algebra, _canonical_ids(list(zip(r.ids, s.ids))))


def _block_pairs(r: Congruence) -> list[tuple[int, int]]:
    """(least element of its block, x) for every x; generates R as an equivalence."""
    head: dict[int, int] = {}
    return [(head.setdefault(b, x), x) for x, b in enumerate(r.ids)]


def join(r: Congruence, s: Congruence) -> Congruence:
    """R v S as the equivalence ``_merge`` builds from R's ids and S's pairs,
    with no operation read: Con(A) is a sublattice of Eq(A) (Burris &
    Sankappanavar, *A Course in Universal Algebra*, I.5)."""
    if r.algebra != s.algebra:
        raise FibreMismatch("join needs congruences on the same algebra")
    return Congruence(r.algebra, _merge(r.ids, _block_pairs(s)))


# The neutral element of each 0-regular variety, where a congruence is fixed by
# its block: Cg(a, b) = Cg(e, a^-1 b) in a group and Cg(0, b - a) in a rng.
_NEUTRAL = {GROUP_TAG: "e", RNG_TAG: "zero"}


def _principal_ids(x: FiniteAlgebra) -> dict[tuple[int, int], tuple[int, ...]]:
    """Ids of Cg(a, b) for a < b, or for a = e in a variety of ``_NEUTRAL``;
    in a quandle, one per orbit of the right translations, from <| alone."""
    n, ops, sigmas = x.size, _operations(x), []
    if x.tag in _NEUTRAL:
        e = x.op(_NEUTRAL[x.tag])
        return {(e, b): generated_congruence(x, [(e, b)]).ids for b in range(n) if b != e}
    if x.tag == QUANDLE_TAG:
        lhd = x.tables[x._op_index["lhd"]]
        ops, sigmas = [(2, lhd)], [lhd[b::n] for b in range(n)]
    found = {}
    for pair in itertools.combinations(range(n), 2):
        if pair in found:
            continue
        found[pair] = ids = _merge(tuple(range(n)), [pair], ops)
        orbit = [pair]
        for a, b in orbit:
            for s in sigmas:
                image = (min(s[a], s[b]), max(s[a], s[b]))
                if image not in found:
                    found[image] = ids
                    orbit.append(image)
    return found


@lru_cache(maxsize=None)
def con_lattice(x: FiniteAlgebra) -> tuple[Congruence, ...]:
    """Con(x) as a tuple ordered by block ids: the diagonal and the principal
    congruences, closed under joining with a principal congruence, since
    every congruence is a join of principal ones.

    These are the Cg(e, x) in a variety of ``_NEUTRAL``, else the Cg(a, b).
    In a quandle each sigma_b: y -> y <| b is an automorphism (Joyce, 1982),
    so it maps Cg(a, b) onto Cg(sigma_b a, sigma_b b).  It also maps every
    congruence into, hence onto, itself, so the two are equal: one pair per
    orbit of the sigma_b is generated, and the orbit shares its ids, from <|
    alone: sigma_b^-1 is a power of sigma_b, so an equivalence respecting <|
    respects <|^-1.  Joins run on ids: R v P is ``_merge`` of R's ids along
    P's non-trivial pairs, the join in Eq(A), of which Con(A) is a
    sublattice.  They start at the principal congruences and skip each
    P = Cg(a, b) with a R b, as then R v P = R.
    """
    principal = {ids: pair for pair, ids in _principal_ids(x).items()}
    pairs = [(a, b, [p for p in _block_pairs(Congruence(x, ids)) if p[0] != p[1]])
             for ids, (a, b) in principal.items()]
    found = {tuple(range(x.size)), *principal}
    frontier = list(principal)
    while frontier:
        fresh = []
        for r in frontier:
            for a, b, p in pairs:
                if r[a] != r[b] and (j := _merge(r, p)) not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return tuple(Congruence(x, ids) for ids in sorted(found))
