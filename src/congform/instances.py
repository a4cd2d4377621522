"""Concrete algebras, corpora, and the built-in closure operators.

Three families of examples are bundled:

* commutative rngs Z_n with the nilradical operator, connected to
  congruences through the ideal/coset bridge;
* quandles with the reachability congruence ~ and the operator sending
  R to the relation composite R o ~, which is the join R v ~ because R
  and ~ permute (checked, not assumed);
* finite groups with the abelianization operator R -> R v [X,X] and its
  exponent-2 refinement.

Corpora are quotient-closed universes.  Rngs and groups are lists of
constructions with no search and no deduplication: the Z_n rngs, and the
cyclic groups, V4, S3 and the dihedral groups, which hold one group per
isomorphism class up to order 7.  Quandles are found by exhaustive table
search, pruned by stabiliser orbits (complete up to isomorphism only) and
deduplicated by lhd orbits; only each class's representative is validated.

Two registries describe the bundled examples.  ``CORPORA`` maps a corpus
kind to (tag, size limit, default size, member builder); ``corpus``,
``corpus_operators``, ``verify`` and the CLI read it.  ``_BUILTIN_RULES``
maps a built-in operator name to (tag, closure rule, oracle predicate);
``builtin_operator``, ``closure_rule``, ``corpus_operators`` and
``oracle_predicate`` read it, and so do ``verify`` and the CLI.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

from . import terms
from .algebras import (
    COMMUTATIVE_RNG_SIGNATURE,
    Congruence,
    FiniteAlgebra,
    GROUP_SIGNATURE,
    GROUP_TAG,
    QUANDLE_SIGNATURE,
    QUANDLE_TAG,
    RNG_TAG,
    _block_pairs,
    _canonical_ids,
    _cycle_type,
    _inverse,
    _merge,
    _relabeling_arrays,
    algebra_from_json,
    algebra_to_json,
    diagonal,
    full,
    generated_congruence,
    is_compatible,
    join,
    validate_algebra,
)
from .errors import (
    CompositeNotCongruence,
    InvalidIdeal,
    NotGroup,
    NotQuandle,
    NotRng,
    OutOfRange,
    SizeTooLarge,
)
from .operators import ClosureOperator, Universe, make_operator, universe
from .reflection import SubcategoryPredicate, predicate_from_equations, predicate_from_quasiequations

# --- named algebra builders ---------------------------------------------------

@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteAlgebra:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    return validate_algebra(n, GROUP_SIGNATURE, {"mul": mul, "inv": inv, "e": 0}, GROUP_TAG)


@lru_cache(maxsize=None)
def klein_four_group() -> FiniteAlgebra:
    mul = [[i ^ j for j in range(4)] for i in range(4)]
    return validate_algebra(4, GROUP_SIGNATURE,
                            {"mul": mul, "inv": list(range(4)), "e": 0}, GROUP_TAG)


@lru_cache(maxsize=None)
def dihedral_group(n: int) -> FiniteAlgebra:
    """Order 2n; 0..n-1 are rotations r^i, n..2n-1 are reflections s r^i."""
    if n < 1:
        raise OutOfRange("dihedral group needs n >= 1")

    def mul(x: int, y: int) -> int:
        e1 = 0 if x < n else 1
        a1 = x if x < n else x - n
        e2 = 0 if y < n else 1
        a2 = y if y < n else y - n
        a = (a1 * (-1 if e2 else 1) + a2) % n
        return ((e1 + e2) % 2) * n + a

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    inv = [((-x) % n) if x < n else x for x in range(2 * n)]
    return validate_algebra(2 * n, GROUP_SIGNATURE,
                            {"mul": table, "inv": inv, "e": 0}, GROUP_TAG)


@lru_cache(maxsize=None)
def symmetric_group(k: int) -> FiniteAlgebra:
    """Permutations of {0..k-1} in lexicographic order; (p*q)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]
    inv = []
    for p in perms:
        ip = [0] * k
        for x in range(k):
            ip[p[x]] = x
        inv.append(index[tuple(ip)])
    return validate_algebra(len(perms), GROUP_SIGNATURE,
                            {"mul": mul, "inv": inv, "e": index[tuple(range(k))]},
                            GROUP_TAG)


@lru_cache(maxsize=None)
def cyclic_rng(n: int) -> FiniteAlgebra:
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    neg = [(-i) % n for i in range(n)]
    return validate_algebra(n, COMMUTATIVE_RNG_SIGNATURE,
                            {"add": add, "neg": neg, "zero": 0, "mul": mul}, RNG_TAG)


@lru_cache(maxsize=None)
def trivial_quandle(n: int) -> FiniteAlgebra:
    t = [[x for _ in range(n)] for x in range(n)]
    return validate_algebra(n, QUANDLE_SIGNATURE, {"lhd": t, "lhd_inv": t}, QUANDLE_TAG)


@lru_cache(maxsize=None)
def dihedral_quandle(n: int) -> FiniteAlgebra:
    """x <| y = 2y - x mod n; an involution, so <| and its inverse agree."""
    t = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    return validate_algebra(n, QUANDLE_SIGNATURE, {"lhd": t, "lhd_inv": t}, QUANDLE_TAG)


# --- quandle table search -----------------------------------------------------

def enumerate_quandles(n: int) -> list[FiniteAlgebra]:
    """Quandle tables on {0..n-1}, at least one per isomorphism class, in
    search order, as flat tables with no axiom check.

    Columns are the right translations sigma_b: x -> x <| b, which must be
    permutations fixing b; self-distributivity says the column at
    sigma_c(b) is the conjugate sigma_c sigma_b sigma_c^-1, which the
    search uses to force columns early, so every completed table is a
    quandle.  Two rules break the relabeling symmetry (orderly generation;
    McKay, J. Algorithms 26, 1998).  Column 0 has the least cycle type of
    all columns: a candidate or forced column of smaller type is cut.  At a
    branching column b, the relabelings G that fix b and every assigned
    index c and commute with sigma_c keep the partial table and both rules,
    so sigma_b needs only the least permutation of each orbit of G under
    conjugation; at the root that is the least of each cycle type.
    """
    if n < 1:
        raise OutOfRange("quandle search needs n >= 1")
    perms = list(itertools.permutations(range(n)))
    kind = {p: _cycle_type(p) for p in perms}
    perms_fixing = [[p for p in perms if p[b] == b] for b in range(n)]
    cols: list[Optional[tuple[int, ...]]] = [None] * n

    def conj(pc: tuple[int, ...], pb: tuple[int, ...]) -> tuple[int, ...]:
        res = [0] * n
        for x in range(n):
            res[pc[x]] = pc[pb[x]]
        return tuple(res)

    def propagate(queue: list[int]) -> bool:
        while queue:
            b = queue.pop()
            for c in range(n):
                if c == b or cols[c] is None:
                    continue
                for (u, v) in ((b, c), (c, b)):
                    d = cols[v][u]
                    forced = conj(cols[v], cols[u])
                    if cols[d] is None:
                        if kind[forced] < kind[cols[0]]:
                            return False
                        cols[d] = forced
                        queue.append(d)
                    elif cols[d] != forced:
                        return False
        return True

    def dfs(group: list[tuple[int, ...]]):
        try:
            b = cols.index(None)
        except ValueError:
            yield _quandle(n, tuple(itertools.chain.from_iterable(zip(*cols))))
            return
        stab = [g for g in group if g[b] == b]
        least = kind[cols[0]] if b else ()
        seen: set = set()
        snapshot = cols.copy()
        for p in perms_fixing[b]:
            if p in seen or kind[p] < least:
                continue
            images = [conj(g, p) for g in stab]
            seen.update(images)
            cols[b] = p
            if propagate([b]):
                yield from dfs([g for g, q in zip(stab, images) if q == p])
            cols[:] = snapshot

    # The tables leave through the generator, not through a list in a closure
    # cell; emptying dfs's own cell breaks its cycle, so the search state is
    # freed here rather than at the next garbage collection.
    tables = list(dfs(perms))
    del dfs
    return tables


def _quandle(n: int, lhd: tuple[int, ...]) -> FiniteAlgebra:
    """The quandle with table lhd (x <| b at flat index x*n + b) and lhd_inv
    read off the inverse columns."""
    inverses = [_inverse(lhd[b::n]) for b in range(n)]
    return FiniteAlgebra(n, QUANDLE_SIGNATURE,
                         (lhd, tuple(itertools.chain.from_iterable(zip(*inverses)))), QUANDLE_TAG)


def _quandle_classes(quandles: Iterable[FiniteAlgebra]) -> list[FiniteAlgebra]:
    """The ``canonical_algebra`` of each class of quandles, in stream order: as
    lhd_inv is the column inverse of lhd, a class is the orbit of its first lhd
    under the n! relabelings (index arrays built once per size in this call),
    and its least pair of tables is the least lhd with its inverse columns."""
    seen, reps, arrays = set(), [], {}
    for a in quandles:
        n, lhd = a.size, a.tables[0]
        if lhd not in seen:
            if n not in arrays:
                arrays[n] = _relabeling_arrays(a)
            orbit = {tuple([perm[lhd[i]] for i in where[2]]) for perm, where in arrays[n]}
            seen |= orbit
            reps.append(_quandle(n, min(orbit)))
    return reps


# --- corpora -------------------------------------------------------------------

def _group_members(max_size: int) -> list[FiniteAlgebra]:
    """Z1..Zn, V4, S3 and the dihedral groups D4..D(n//2), pairwise
    non-isomorphic.  Up to order 7 this is one group per isomorphism class
    (OEIS A000001: 1, 1, 1, 2, 1, 2, 1).  D3 is S3, so the dihedral groups
    start at 4.  A quotient of D(k) is Z1, Z2 or D(d) for a divisor d of k,
    where D(1) = Z2, D(2) = V4 and D(3) = S3, so every quotient of a member
    is isomorphic to a member."""
    members = [cyclic_group(n) for n in range(1, max_size + 1)]
    if max_size >= 4:
        members.append(klein_four_group())
    if max_size >= 6:
        members.append(symmetric_group(3))
    members.extend(dihedral_group(k) for k in range(4, max_size // 2 + 1))
    return members


def _quandle_members(max_size: int) -> list[FiniteAlgebra]:
    # A relabeling of a quandle is a quandle, so validating one table per
    # class (on the JSON input path) checks every table the search emitted.
    return [algebra_from_json(algebra_to_json(a)) for n in range(1, max_size + 1)
            for a in _quandle_classes(enumerate_quandles(n))]


class CorpusKind(NamedTuple):
    tag: str
    limit: int  # largest max_size
    default_size: int  # max_size when none is given
    members: Callable[[int], list[FiniteAlgebra]]


# kind -> how its corpus is built.  Each builder gives one member per
# isomorphism class, and every quotient of a member is isomorphic to a member,
# which ``universe`` checks.
CORPORA = {
    "groups": CorpusKind(GROUP_TAG, 12, 8, _group_members),
    "rngs": CorpusKind(RNG_TAG, 24, 12, lambda n: [cyclic_rng(k) for k in range(1, n + 1)]),
    "quandles": CorpusKind(QUANDLE_TAG, 6, 3, _quandle_members),
}
CORPUS_KINDS = tuple(CORPORA)


def corpus_kind(kind: str) -> CorpusKind:
    if kind not in CORPORA:
        raise OutOfRange(f"corpus kind must be one of {CORPUS_KINDS}, got {kind!r}")
    return CORPORA[kind]


@lru_cache(maxsize=None)
def corpus(kind: str, max_size: int) -> Universe:
    """Quotient-closed universe of all corpus algebras up to ``max_size``."""
    spec = corpus_kind(kind)
    if max_size < 1:
        raise OutOfRange("corpus max_size must be >= 1")
    if max_size > spec.limit:
        raise SizeTooLarge(f"corpus kind {kind!r} supports max_size <= {spec.limit}")
    return universe(spec.members(max_size), quotient_closed=True)


def corpus_manifest(kind: str, max_size: int) -> dict:
    u = corpus(kind, max_size)
    return {
        "kind": kind,
        "max_size": max_size,
        "quotient_closed": u.quotient_closed,
        "algebras": [
            {"id": f"{kind}-{i:03d}", "algebra": algebra_to_json(a)}
            for i, a in enumerate(u.algebras)
        ],
    }


# --- variety tags ----------------------------------------------------------------

_TAG_ERRORS = {GROUP_TAG: NotGroup, RNG_TAG: NotRng, QUANDLE_TAG: NotQuandle}


def _require(tag: str, a: FiniteAlgebra) -> None:
    if a.tag != tag:
        raise _TAG_ERRORS[tag](f"expected a {tag!r}-tagged algebra, got tag {a.tag!r}")


# --- ideals of commutative rngs -------------------------------------------------

@dataclass(frozen=True)
class Ideal:
    """Subset containing 0, closed under +, -, and multiplication by the rng."""

    rng: FiniteAlgebra
    elements: tuple[int, ...]


def ideal(rng: FiniteAlgebra, elements: Iterable[int]) -> Ideal:
    _require(RNG_TAG, rng)
    elems = sorted(set(elements))
    if any(not 0 <= x < rng.size for x in elems):
        raise OutOfRange("ideal element outside the carrier")
    eset = set(elems)
    if rng.op("zero") not in eset:
        raise InvalidIdeal("an ideal must contain 0")
    for x in elems:
        if rng.op("neg", x) not in eset:
            raise InvalidIdeal(f"not closed under negation at {x}")
        for y in elems:
            if rng.op("add", x, y) not in eset:
                raise InvalidIdeal(f"not closed under addition at {x}+{y}")
        for r in rng.elements():
            if rng.op("mul", r, x) not in eset:
                raise InvalidIdeal(f"not closed under multiplication at {r}·{x}")
    return Ideal(rng, tuple(elems))


def ideal_of_congruence(r: Congruence) -> Ideal:
    """The block of 0; inverse to ``congruence_of_ideal``."""
    _require(RNG_TAG, r.algebra)
    zero = r.algebra.op("zero")
    block = tuple(sorted(x for x in r.algebra.elements() if r.together(x, zero)))
    return Ideal(r.algebra, block)


def congruence_of_ideal(i: Ideal) -> Congruence:
    """Blocks are the additive cosets of the ideal."""
    a = i.rng
    eset = set(i.elements)
    labels = []
    for x in a.elements():
        labels.append(tuple(sorted(a.op("add", x, t) for t in eset)))
    return Congruence(a, _canonical_ids(labels))


def nilradical(a: FiniteAlgebra, i: Ideal) -> Ideal:
    """sqrt(I) = elements with some power in I; exponent capped by |A|."""
    _require(RNG_TAG, a)
    eset = set(i.elements)
    out = []
    for x in a.elements():
        p = x
        for _ in range(a.size):
            if p in eset:
                out.append(x)
                break
            p = a.op("mul", p, x)
    return ideal(a, out)


# --- quandles --------------------------------------------------------------------

@lru_cache(maxsize=1024)
def quandle_reachability(a: FiniteAlgebra) -> Congruence:
    """x ~ y iff y is reachable from x by <| / <|^{-1} moves; a congruence."""
    _require(QUANDLE_TAG, a)
    sim = Congruence(a, _merge(diagonal(a).ids, [(x, a.op(op, x, b)) for op in ("lhd", "lhd_inv")
                                                 for x in a.elements() for b in a.elements()]))
    if not is_compatible(a, sim.ids):
        raise CompositeNotCongruence(
            "reachability relation failed the congruence check",
            witness={"blocks": [list(b) for b in sim.blocks()]},
        )
    return sim


def _composite_with_reachability(x: FiniteAlgebra, r: Congruence) -> Congruence:
    """R o ~ as a congruence: it is R v ~, as R and ~ permute.  If a ~ c R b,
    then a = c.w for a word w of <| and <|^{-1} moves, and d = b.w has
    a R d ~ b, R being a congruence; likewise the other way round.  This is
    checked: two equivalences permute iff in each block of their join every
    block of one meets every block of the other, that is iff the block holds
    (R-blocks) x (~-blocks) blocks of R ^ ~.  Raises if they do not."""
    sim = quandle_reachability(x)
    j = join(r, sim)
    r_in, sim_in = dict(zip(r.ids, j.ids)), dict(zip(sim.ids, j.ids))
    meets = Counter(r_in[a] for a, _ in set(zip(r.ids, sim.ids)))
    rs, sims = Counter(r_in.values()), Counter(sim_in.values())
    for b, block in enumerate(j.blocks()):
        if rs[b] * sims[b] != meets[b]:
            raise CompositeNotCongruence("R and ~ do not permute", witness={"block": list(block)})
    return j


# --- groups ------------------------------------------------------------------------

@lru_cache(maxsize=None)
def commutator_congruence(a: FiniteAlgebra) -> Congruence:
    """Kernel of the abelianization quotient: collapse all commutators to e."""
    _require(GROUP_TAG, a)
    e = a.op("e")
    pairs = []
    for x in a.elements():
        for y in a.elements():
            comm = a.op("mul", a.op("mul", x, y),
                        a.op("mul", a.op("inv", x), a.op("inv", y)))
            pairs.append((comm, e))
    return generated_congruence(a, pairs)


@lru_cache(maxsize=None)
def exponent_two_congruence(a: FiniteAlgebra) -> Congruence:
    """Collapse commutators and squares: quotient is elementary abelian 2."""
    _require(GROUP_TAG, a)
    e = a.op("e")
    pairs = [(a.op("mul", x, x), e) for x in a.elements()]
    return generated_congruence(a, pairs + _block_pairs(commutator_congruence(a)))


# --- registry ----------------------------------------------------------------------

# name -> (tag, closure rule on one algebra, oracle predicate).  The tag (None:
# every algebra) is checked on each algebra the rule closes on, and puts the
# operator into the corpus of that tag; corpora take operators in this order.
# The oracle is an independent equational description of the subcategory.
_BUILTIN_RULES = {
    "identity": (None, lambda x, r: r, predicate_from_equations("everything", ())),
    "top": (None, lambda x, r: full(x),
            predicate_from_equations("one-element", terms.ONE_ELEMENT)),
    # On the bundled Z_n corpora nilradical tests as minimal, because quotients
    # of reduced Z_n (squarefree n) are again reduced.  That is a finiteness
    # artifact: over commutative rngs at large, reduced rngs are not closed
    # under quotients (Z is reduced, Z/4 is not), so the operator is not
    # minimal there.
    "nilradical": (RNG_TAG,
                   lambda x, r: congruence_of_ideal(nilradical(x, ideal_of_congruence(r))),
                   predicate_from_quasiequations("reduced", terms.REDUCED_RNG)),
    "quandle": (QUANDLE_TAG, _composite_with_reachability,
                predicate_from_equations("trivial-quandle", terms.TRIVIAL_QUANDLE)),
    "abelianization": (GROUP_TAG, lambda x, r: join(r, commutator_congruence(x)),
                       predicate_from_equations("abelian", terms.COMMUTATIVITY)),
    "exp2-abelianization": (GROUP_TAG, lambda x, r: join(r, exponent_two_congruence(x)),
                            predicate_from_equations("elementary-abelian-2",
                                                     terms.ELEMENTARY_ABELIAN_2)),
}
BUILTIN_OPERATOR_NAMES = tuple(_BUILTIN_RULES)


def _builtin(name: str):
    if name not in _BUILTIN_RULES:
        raise OutOfRange(f"unknown operator {name!r}; built-ins: {BUILTIN_OPERATOR_NAMES}")
    return _BUILTIN_RULES[name]


def corpus_operators(kind: str) -> tuple[str, ...]:
    """Names of the built-in operators that apply to a corpus kind."""
    corpus_tag = corpus_kind(kind).tag
    return tuple(name for name, (tag, _, _) in _BUILTIN_RULES.items()
                 if tag in (None, corpus_tag))


def oracle_predicate(name: str) -> SubcategoryPredicate:
    """Independent membership predicate for the named built-in operator."""
    return _builtin(name)[2]


def closure_rule(name: str):
    """Single-algebra closure rule for the named built-in operator."""
    tag, rule, _ = _builtin(name)
    if tag is None:
        return rule

    def checked(x, r):
        _require(tag, x)
        return rule(x, r)

    return checked


def builtin_operator(name: str, u: Universe) -> ClosureOperator:
    """The named built-in operator tabulated and validated over ``u``."""
    tag, rule, _ = _builtin(name)
    for a in u.algebras if tag else ():
        _require(tag, a)
    return make_operator(u, rule, name)
