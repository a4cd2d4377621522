"""Fibre order, liftings, and the two canonical liftings on quotients.

For a map f: X -> Y, a congruence R on X and S on Y, "f lifts" means R
is sent into S.  Preimages along any map give the largest such R for a
fixed S (cartesian direction); images along surjections give the least
such S for a fixed R (cocartesian direction, a pushout of quotients).
"""

from __future__ import annotations

from .algebras import Congruence, Homomorphism, _block_pairs, _canonical_ids, _merge, diagonal
from .errors import FibreMismatch, NotInE


def leq(r: Congruence, s: Congruence) -> bool:
    """R <= S: every R-block is contained in an S-block."""
    if r.algebra != s.algebra:
        raise FibreMismatch("fibre order compares congruences on one algebra")
    seen: dict[int, int] = {}
    for rb, sb in zip(r.ids, s.ids):
        if seen.setdefault(rb, sb) != sb:
            return False
    return True


def lifts(f: Homomorphism, r: Congruence, s: Congruence) -> bool:
    """(a, b) in R implies (f a, f b) in S."""
    if r.algebra != f.dom:
        raise FibreMismatch("R must live on the domain of f")
    if s.algebra != f.cod:
        raise FibreMismatch("S must live on the codomain of f")
    seen: dict[int, int] = {}
    for x in range(f.dom.size):
        if seen.setdefault(r.ids[x], s.ids[f.map[x]]) != s.ids[f.map[x]]:
            return False
    return True


def preimage_congruence(f: Homomorphism, s: Congruence) -> Congruence:
    """Cartesian lifting: a ~ b iff f(a) S f(b); largest R lifting to S."""
    if s.algebra != f.cod:
        raise FibreMismatch("S must live on the codomain of f")
    return Congruence(f.dom, _canonical_ids([s.ids[f.map[x]] for x in range(f.dom.size)]))


def image_congruence(f: Homomorphism, r: Congruence) -> Congruence:
    """Cocartesian lifting along a surjection: least S lifting from R.

    S is the equivalence closure of the pairs (f a, f b) with a R b.  No
    propagation is needed: that closure is the push-forward of R v ker f,
    a congruence above the kernel, and such push-forwards along surjective
    homomorphisms are congruences (correspondence theorem).
    """
    if r.algebra != f.dom:
        raise FibreMismatch("R must live on the domain of f")
    if not f.surjective:
        raise NotInE("image congruence requires a surjective map")
    m = f.map
    return Congruence(f.cod, _merge(diagonal(f.cod).ids, [(m[a], m[b]) for a, b in _block_pairs(r)]))
