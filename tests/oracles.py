"""Independent brute-force oracles the library is checked against.

Everything here is deliberately written from the definitions, not via
the library's algorithms: congruences come from scanning all partitions
of the carrier, compatibility compares all componentwise-related
argument tuples, generated congruences are meets of all containing
congruences, and homomorphisms come from scanning all maps.  Keep these
dumb and quadratic; they only ever run on small carriers.

The last sections keep the code paths that the library replaced, as
differential oracles for their replacements: the general searches it
replaced with lattice facts (Mal'cev join, propagated image, the
(f, R, S) lifting-law scan, coheredity and cocartesian preservation
along every searched surjection, the continuity, coheredity and
cocartesian checks along every quotient map and automorphism (replaced
by a generating set of the surjections), operator enumeration by generating
every extensive family and rejecting the unnatural ones, the lattice
closed under joins of every pair, the universal property of a reflector
checked on every hom instead of by factorisation), the lattice closed
under ``join`` of every congruence found with every principal
congruence, each principal congruence generated from its own pair
(replaced by joins on block-id arrays, and in quandles by one generation
per orbit of the inner automorphisms), the hom search that scans every
operation tuple on each propagation step, the operator checks on
``Congruence`` objects that the universe's integer tables replaced, the
fibration's join tables, images and pull-backs built on ``Congruence``
objects by union-find (replaced by look-ups in the order and in block-id
arrays), the quandle composite R o ~ built from its relation matrix
(replaced by a join, since R and ~ permute), the equation checks that
walk the terms at every assignment (replaced by compiled programs),
relabeling and quotients that read every table entry through
``FiniteAlgebra.op`` (replaced by flat index arrays), table flattening
by one recursive call per row (replaced by one pass per level), and the
quandle corpus's deduplication by pairwise isomorphism search before a
canonical form per class (replaced by orbit membership), the orbit
deduplication that builds the index arrays of every relabeling again for
every class (replaced by arrays built once per call), the orbit
deduplication of every table of a stream (replaced, for the quandle search,
by orbits of the lhd table alone), the quandle searches that try every
permutation for every column, or one least permutation per cycle type for
column 0 and every permutation after it (replaced by one candidate per
orbit of a stabiliser, with column 0 of least cycle type), the scan of
every member of the quotient's size for ``quotient_maps`` (replaced by
one scan of the members with its invariant), the idempotence and operator
order checks through ``apply`` and ``leq`` (replaced by the integer
tables), and the reflection oracle and quotient-closure check that build
and test every quotient X/R (replaced, on quotient-closed universes, by one
verdict per member read through ``quotient_maps``), the fibre order from
``leq`` on every pair of congruences (replaced by up-sets read off the
block-id arrays), the compatibility scan over every operation tuple
(replaced by comparing a partition with the congruence its blocks
generate), the term evaluator ``eval_term`` that the compiled equation
programs replaced, and the group corpus's
Latin-square table search and deduplication by isomorphism search
(replaced by a list of constructions, one group per class up to order 7),
which stay as its completeness oracle.
Also kept: the pairwise minimality scan over every fibre (replaced by a
check of each fibre against C(diagonal), scanning pairs only on a fibre
that fails), the greedy selection of automorphism generators, each
group closed by brute force (replaced by a stabiliser chain), the three
closures that one label-merge routine replaced (congruence generation by
union-find with member re-propagation, the equivalence closure by
union-find, and the lattice's join step merging labels along blocks),
and the quotient closure of a universe by a queue that quotients every
member again (replaced by one layer of quotients of the seeds).  Also
kept: the quandle search that leaves every stabiliser orbit's least
candidate to propagation (replaced by a check of the candidate against
the assigned columns first), the quandle reachability closed from its
hand-listed moves (replaced by the trivial-quandle law instances), the
commutator and exponent-2 congruences built from hand-listed generators
(replaced by the verbal congruence of the laws ``terms.COMMUTATIVITY``
and ``terms.ELEMENTARY_ABELIAN_2``), and the law instances read by
``eval_term`` (replaced by the compiled programs in ``terms.law_pairs``).
Last come the trivial and dihedral quandles, test inputs that the
package does not export, and frozen-dataclass twins of the value
classes, whose generated ``__eq__`` the slotted ``Frozen`` classes
replaced.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import deque
from functools import lru_cache

from congform.errors import CheckFailure


def all_partitions(n: int):
    """Every partition of {0..n-1} as a restricted-growth id tuple."""
    if n == 0:
        yield ()
        return

    def grow(prefix: list[int], mx: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from grow(prefix + [v], max(mx, v))

    yield from grow([0], 0)


def partition_compatible(algebra, ids) -> bool:
    """Definition-level check: related argument tuples give related values."""
    n = algebra.size
    for name, arity in algebra.sig.ops:
        if arity == 0:
            continue
        for s in itertools.product(range(n), repeat=arity):
            for t in itertools.product(range(n), repeat=arity):
                if all(ids[a] == ids[b] for a, b in zip(s, t)):
                    if ids[algebra.op(name, *s)] != ids[algebra.op(name, *t)]:
                        return False
    return True


def brute_congruences(algebra) -> list[tuple[int, ...]]:
    """All congruences by the all-partitions filter, as id tuples."""
    return [ids for ids in all_partitions(algebra.size)
            if partition_compatible(algebra, ids)]


def meet_ids(all_ids: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Common refinement of several partitions, canonically relabeled."""
    seen: dict = {}
    out = []
    for x in range(n):
        lab = tuple(ids[x] for ids in all_ids)
        out.append(seen.setdefault(lab, len(seen)))
    return tuple(out)


def brute_generated(algebra, pairs) -> tuple[int, ...]:
    """Meet of all congruences containing the pairs."""
    containing = [
        ids for ids in brute_congruences(algebra)
        if all(ids[a] == ids[b] for a, b in pairs)
    ]
    return meet_ids(containing, algebra.size)


def brute_homs(dom, cod) -> list[tuple[int, ...]]:
    """All operation-preserving maps by full scan; keep carriers tiny."""
    out = []
    for mapping in itertools.product(range(cod.size), repeat=dom.size):
        good = True
        for name, arity in dom.sig.ops:
            for t in itertools.product(range(dom.size), repeat=arity):
                if mapping[dom.op(name, *t)] != cod.op(name, *(mapping[x] for x in t)):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(mapping)
    return out


def ids_leq(r_ids, s_ids) -> bool:
    """Partition refinement via the definition."""
    n = len(r_ids)
    return all(
        s_ids[a] == s_ids[b]
        for a in range(n) for b in range(n)
        if r_ids[a] == r_ids[b]
    )


# --- replaced library code paths ----------------------------------------------

def malcev_join(r, s):
    """R v S as the congruence generated by the block pairs of both."""
    from congform import generated_congruence

    pairs = []
    for c in (r, s):
        for block in c.blocks():
            pairs.extend((block[0], x) for x in block[1:])
    return generated_congruence(r.algebra, pairs)


def propagated_image(f, r):
    """Image along a surjection as the congruence generated by f(R)."""
    from congform import generated_congruence

    pairs = []
    for block in r.blocks():
        head = f.map[block[0]]
        pairs.extend((head, f.map[x]) for x in block[1:])
    return generated_congruence(f.cod, pairs)


def searched_maps(u, x, y):
    """The maps x -> y the lifting law quantifies over, found by hom search:
    surjections on a quotient-closed universe, all homomorphisms otherwise."""
    from congform import enumerate_homs, enumerate_surjections

    return (enumerate_surjections if u.quotient_closed else enumerate_homs)(x, y)


def surjections_in(u):
    """All surjections between ordered pairs of members, by hom search."""
    from congform import enumerate_surjections

    for x in u.algebras:
        for y in u.algebras:
            yield from enumerate_surjections(x, y)


def lifting_law_witness(u, tables):
    """First (f, R, S) with f lifting R into S but not C(R) into C(S), or None."""
    from congform import lifts

    for i, x in enumerate(u.algebras):
        for j, y in enumerate(u.algebras):
            for f in searched_maps(u, x, y):
                for r, cr in tables[i].items():
                    for s, cs in tables[j].items():
                        if lifts(f, r, s) and not lifts(f, cr, cs):
                            return {"dom": i, "cod": j, "map": list(f.map),
                                    "R": [list(b) for b in r.blocks()],
                                    "S": [list(b) for b in s.blocks()]}
    return None


def searched_is_cohereditary(c):
    """C commutes with preimages along every searched surjection between members."""
    from congform import con_lattice, preimage_congruence
    from congform.errors import PASSED, failed

    u = c.universe
    for f in surjections_in(u):
        i = u.member_index(f.dom)
        j = u.member_index(f.cod)
        for s in con_lattice(f.cod):
            lhs = c.apply(i, preimage_congruence(f, s))
            rhs = preimage_congruence(f, c.apply(j, s))
            if lhs != rhs:
                return failed(
                    dom=i, cod=j, map=list(f.map),
                    S=[list(b) for b in s.blocks()],
                    lhs=[list(b) for b in lhs.blocks()],
                    rhs=[list(b) for b in rhs.blocks()],
                )
    return PASSED


def searched_preserves_cocartesian(c):
    """image(f, C(R)) = C(image(f, R)) along every searched surjection."""
    from congform import con_lattice, image_congruence
    from congform.errors import PASSED, failed

    u = c.universe
    for f in surjections_in(u):
        i = u.member_index(f.dom)
        j = u.member_index(f.cod)
        for r in con_lattice(f.dom):
            lhs = image_congruence(f, c.apply(i, r))
            rhs = c.apply(j, image_congruence(f, r))
            if lhs != rhs:
                return failed(
                    dom=i, cod=j, map=list(f.map),
                    R=[list(b) for b in r.blocks()],
                    lhs=[list(b) for b in lhs.blocks()],
                    rhs=[list(b) for b in rhs.blocks()],
                )
    return PASSED


def all_pairs_con_lattice(x):
    """Principal congruences and the diagonal, closed under the join of
    every pair found so far."""
    from congform import diagonal, generated_congruence, join

    found = {diagonal(x)}
    for a in range(x.size):
        for b in range(a + 1, x.size):
            found.add(generated_congruence(x, [(a, b)]))
    frontier = list(found)
    while frontier:
        fresh = []
        for r in frontier:
            for s in list(found):
                j = join(r, s)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return tuple(sorted(found, key=lambda c: c.ids))


def principal_join_closure(x):
    """The diagonal and the principal congruences, each generated from its
    own pair (from the neutral element in groups and rngs), closed under
    ``join`` of every congruence found with every principal congruence."""
    from congform import diagonal, generated_congruence, join
    from congform.algebras import _NEUTRAL

    n = x.size
    if x.tag in _NEUTRAL:
        e = x.op(_NEUTRAL[x.tag])
        pairs = [(e, b) for b in range(n) if b != e]
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    principal = list(dict.fromkeys(generated_congruence(x, [p]) for p in pairs))
    found = {diagonal(x), *principal}
    frontier = list(found)
    while frontier:
        fresh = []
        for r in frontier:
            for p in principal:
                j = join(r, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return tuple(sorted(found, key=lambda c: c.ids))


def extensive_families(u, *, max_candidates: int = 500_000):
    """Iterator over every extensive family of fibre maps: one table per member.

    Raises ``SizeTooLarge`` up front when there are more than
    ``max_candidates`` families.
    """
    from congform import con_lattice, leq
    from congform.errors import SizeTooLarge

    total = 1
    member_tables: list[list[dict]] = []
    for x in u.algebras:
        lattice = list(con_lattice(x))
        options_per_r = [[(r, s) for s in lattice if leq(r, s)] for r in lattice]
        for options in options_per_r:
            total *= len(options)
        if total > max_candidates:
            raise SizeTooLarge(
                f"universe admits more than {max_candidates} extensive families"
            )
        member_tables.append([dict(combo) for combo in itertools.product(*options_per_r)])
    return itertools.product(*member_tables)


def table_rule(u, tables):
    """The rule that reads C(R) off ``tables``, one {R: C(R)} dict per member of ``u``."""
    by_member = dict(zip(u.algebras, tables))
    return lambda x, r: by_member[x][r]


def generate_and_test_operators(u, *, max_candidates: int = 500_000):
    """Every closure operator on ``u``: each extensive family is given to
    ``make_operator`` and kept unless it raises ``NotNatural``."""
    from congform import make_operator
    from congform.errors import NotNatural

    out = []
    for k, combo in enumerate(extensive_families(u, max_candidates=max_candidates)):
        try:
            out.append(make_operator(u, table_rule(u, combo), f"op{k}"))
        except NotNatural:
            continue
    return tuple(out)


def scan_hom_search(dom, cod, *, bijective: bool, first_only: bool):
    """DFS over partial maps with forced-value propagation, in lexicographic
    order; each propagation step scans every operation tuple."""
    n, m = dom.size, cod.size
    if bijective and n != m:
        return []
    ops = [(name, arity) for name, arity in dom.sig.ops]
    results = []

    def propagate(assign, queue) -> bool:
        while queue:
            x = queue.popleft()
            for name, arity in ops:
                if arity == 0:
                    continue
                for t in itertools.product(range(n), repeat=arity):
                    if x not in t:
                        continue
                    imgs = []
                    ok = True
                    for c in t:
                        v = assign[c]
                        if v is None:
                            ok = False
                            break
                        imgs.append(v)
                    if not ok:
                        continue
                    val = dom.op(name, *t)
                    want = cod.op(name, *imgs)
                    have = assign[val]
                    if have is None:
                        if bijective and want in _used(assign, val):
                            return False
                        assign[val] = want
                        queue.append(val)
                    elif have != want:
                        return False
        return True

    def _used(assign, skip):
        return {v for i, v in enumerate(assign) if v is not None and i != skip}

    # constants force their images before any choice is made
    seed = [None] * n
    seed_queue = deque()
    for name, arity in ops:
        if arity == 0:
            x, want = dom.op(name), cod.op(name)
            if seed[x] is None:
                seed[x] = want
                seed_queue.append(x)
            elif seed[x] != want:
                return []
    if bijective and len({v for v in seed if v is not None}) != sum(
            1 for v in seed if v is not None):
        return []
    if not propagate(seed, seed_queue):
        return []

    def dfs(assign):
        if first_only and results:
            return
        try:
            x = assign.index(None)
        except ValueError:
            results.append(tuple(assign))
            return
        used = {v for v in assign if v is not None} if bijective else ()
        for v in range(m):
            if bijective and v in used:
                continue
            branch = assign.copy()
            branch[x] = v
            if propagate(branch, deque([x])):
                dfs(branch)
                if first_only and results:
                    return

    dfs(seed)
    return results


def hom_universal_property_witness(u, rho):
    """First map, in member order and then in the scan's map order, from a
    member outside the subcategory (rho not the diagonal) into one inside it
    whose kernel does not contain rho, as a ``NotReflective`` witness
    {dom, cod, map, rho}; None when every hom factors through the unit."""
    from congform import diagonal, homomorphism, leq

    members_in = [i for i, r in enumerate(rho) if r == diagonal(u.algebras[i])]
    for i, x in enumerate(u.algebras):
        if i in members_in:
            continue
        for j in members_in:
            y = u.algebras[j]
            for f in scan_hom_search(x, y, bijective=False, first_only=False):
                if not leq(rho[i], kernel_congruence(homomorphism(x, y, f))):
                    return {"dom": i, "cod": j, "map": list(f),
                            "rho": [list(b) for b in rho[i].blocks()]}
    return None


# --- operator checks on Congruence objects ---------------------------------------

def non_monotone(table):
    """First (R, S) in one fibre with R <= S but C(R) not <= C(S), or None."""
    from congform import leq

    for r, cr in table.items():
        for s, cs in table.items():
            if leq(r, s) and not leq(cr, cs):
                return r, s
    return None


def discontinuity(pull, dom_table, cod_table):
    """First S with C(f*S) not <= f*C(S), or None; ``pull`` is T -> f*T."""
    from congform import leq

    for s, cs in cod_table.items():
        if not leq(dom_table[pull(s)], pull(cs)):
            return s
    return None


def naturality_witness(u, tables):
    """The ``NotNatural`` witness of ``make_operator`` for extensive tables,
    or None: monotone fibres, then continuity along ``naturality_maps``."""
    from functools import partial

    from congform import identity_hom, preimage_congruence
    from congform.operators import naturality_maps

    def witness(i, j, f, r, s):
        return {"dom": i, "cod": j, "map": list(f.map),
                "R": [list(b) for b in r.blocks()], "S": [list(b) for b in s.blocks()]}

    for i, table in enumerate(tables):
        pair = non_monotone(table)
        if pair is not None:
            return witness(i, i, identity_hom(u.algebras[i]), *pair)
    for f in naturality_maps(u):
        i, j = u.member_index(f.dom), u.member_index(f.cod)
        pull = partial(preimage_congruence, f)
        s = discontinuity(pull, tables[i], tables[j])
        if s is not None:
            return witness(i, j, f, pull(s), s)
    return None


def along_quotient_maps(c, key, sides):
    """First quotient map f and congruence T where the two congruences
    ``sides(f, i, j, T)`` differ; T runs over Con(cod) for key "S" and
    over Con(dom) for key "R", the key it has in the witness."""
    from congform import con_lattice, congruence_to_blocks, quotient_maps
    from congform.errors import PASSED, failed

    u = c.universe
    for f in itertools.chain.from_iterable(quotient_maps(u).values()):
        i, j = u.member_index(f.dom), u.member_index(f.cod)
        for t in con_lattice(f.cod if key == "S" else f.dom):
            lhs, rhs = sides(f, i, j, t)
            if lhs != rhs:
                return failed(dom=i, cod=j, map=list(f.map), **{key: congruence_to_blocks(t)},
                              lhs=congruence_to_blocks(lhs), rhs=congruence_to_blocks(rhs))
    return PASSED


def is_cohereditary(c):
    """C(f*S) = f*C(S) along every quotient map between members."""
    from congform import preimage_congruence

    return along_quotient_maps(c, "S", lambda f, i, j, s: (
        c.apply(i, preimage_congruence(f, s)), preimage_congruence(f, c.apply(j, s))))


def is_minimal(c):
    """C(R v S) = C(R) v S on every fibre, joining afresh each time."""
    from congform import con_lattice, join
    from congform.errors import PASSED, failed

    for i, x in enumerate(c.universe.algebras):
        for r in con_lattice(x):
            for s in con_lattice(x):
                if c.apply(i, join(r, s)) != join(c.apply(i, r), s):
                    return failed(algebra=i, congruence=[list(b) for b in r.blocks()],
                                  second=[list(b) for b in s.blocks()])
    return PASSED


def pairwise_is_minimal(c):
    """C(R v S) = C(R) v S for every pair on every fibre, joins read off the
    fibration's up-sets: the scan ``is_minimal`` ran before it checked each
    fibre against C(diagonal) first."""
    from congform.errors import PASSED, failed
    from congform.operators import fibration

    fib = fibration(c.universe)
    for i, row in enumerate(c.rows):
        up, by_up, lattice = fib.up[i], fib.by_up[i], fib.lattices[i]
        for r, s in itertools.product(range(len(row)), repeat=2):
            if row[by_up[up[r] & up[s]]] != by_up[up[row[r]] & up[s]]:
                return failed(algebra=i, congruence=[list(b) for b in lattice[r].blocks()],
                              second=[list(b) for b in lattice[s].blocks()])
    return PASSED


def preserves_cocartesian(c):
    """image(f, C(R)) = C(image(f, R)) along every quotient map between members."""
    from congform import image_congruence

    return along_quotient_maps(c, "R", lambda f, i, j, r: (
        image_congruence(f, c.apply(i, r)), c.apply(j, image_congruence(f, r))))


def is_idempotent(c):
    """C(C(R)) = C(R) on every fibre, through ``apply``."""
    from congform import con_lattice
    from congform.errors import PASSED, failed

    for i, x in enumerate(c.universe.algebras):
        for r in con_lattice(x):
            cr = c.apply(i, r)
            if c.apply(i, cr) != cr:
                return failed(algebra=i, congruence=[list(b) for b in r.blocks()])
    return PASSED


def operator_leq(c1, c2):
    """C1 <= C2 pointwise on every fibre, through ``apply`` and ``leq``."""
    from congform import con_lattice, leq
    from congform.errors import PASSED, UniverseMismatch, failed

    if c1.universe != c2.universe:
        raise UniverseMismatch("operator order needs a shared universe")
    for i, x in enumerate(c1.universe.algebras):
        for r in con_lattice(x):
            if not leq(c1.apply(i, r), c2.apply(i, r)):
                return failed(algebra=i, congruence=[list(b) for b in r.blocks()])
    return PASSED


def pullback_rule(u, rho):
    """R -> g*(rho[j]) for the first quotient map g of R, onto member j."""
    from congform import preimage_congruence, quotient_maps

    maps = quotient_maps(u)

    def rule(x, r):
        g = maps[r][0]
        return preimage_congruence(g, rho[u.member_index(g.cod)])

    return rule


# --- fibration tables by union-find and the composite scan ---------------------

def pairwise_order(lattice):
    """(le, up) of one Con(X) in ``lattice`` order: ``leq`` on every ordered
    pair, and each up-set as the bitmask of its ``le`` row."""
    from congform import leq

    le = tuple(tuple(leq(r, s) for s in lattice) for r in lattice)
    return le, tuple(sum(1 << b for b, above in enumerate(row) if above) for row in le)


def join_table(fib, i):
    """Member i's join table: comparable pairs read off the order, the rest
    by ``join`` on ``Congruence`` objects."""
    from congform import join

    lat, index, le = fib.lattices[i], fib.index[i], fib.le[i]
    return tuple(tuple(b if le[a][b] else a if le[b][a] else index[join(lat[a], lat[b])]
                       for b in range(len(lat))) for a in range(len(lat)))


def image_table(fib, f):
    """R -> f(R) along a quotient map f, by ``image_congruence``."""
    from congform import con_lattice, image_congruence

    into = fib.index[fib.universe.member_index(f.cod)]
    return tuple(into[image_congruence(f, r)] for r in con_lattice(f.dom))


def pull_table(fib, f):
    """S -> f*S along a map f between members, by ``preimage_congruence``."""
    from congform import con_lattice, preimage_congruence

    into = fib.index[fib.universe.member_index(f.dom)]
    return tuple(into[preimage_congruence(f, s)] for s in con_lattice(f.cod))


def scan_is_compatible(a, ids) -> bool:
    """Does the partition respect every operation?  Scans every operation
    tuple and changes one coordinate at a time within its block."""
    n = a.size
    for (name, arity), table in zip(a.sig.ops, a.tables):
        if arity == 0:
            continue
        for t in itertools.product(range(n), repeat=arity):
            idx = 0
            for c in t:
                idx = idx * n + c
            v = table[idx]
            for pos in range(arity):
                stride = n ** (arity - 1 - pos)
                base = idx - t[pos] * stride
                for u in range(n):
                    if ids[u] == ids[t[pos]] and ids[table[base + u * stride]] != ids[v]:
                        return False
    return True


def composite_with_reachability(x, r):
    """R o ~ from its n x n relation matrix, checked reflexive, symmetric,
    transitive and compatible; raises if the composite is not a congruence."""
    from congform import Congruence, quandle_reachability
    from congform.algebras import _canonical_ids
    from congform.errors import CompositeNotCongruence

    sim = quandle_reachability(x)
    n = x.size
    related = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            related[a][b] = any(
                sim.together(a, c) and r.together(c, b) for c in range(n)
            )
    for a in range(n):
        if not related[a][a]:
            raise CompositeNotCongruence("composite is not reflexive")
        for b in range(n):
            if related[a][b] != related[b][a]:
                raise CompositeNotCongruence(
                    "composite is not symmetric", witness={"pair": [a, b]}
                )
            if related[a][b]:
                for c in range(n):
                    if related[b][c] and not related[a][c]:
                        raise CompositeNotCongruence(
                            "composite is not transitive", witness={"triple": [a, b, c]}
                        )
    ids = _canonical_ids([tuple(row) for row in related])
    if not scan_is_compatible(x, ids):
        raise CompositeNotCongruence(
            "composite relation is not operation-compatible",
            witness={"blocks": [list(b) for b in Congruence(x, ids).blocks()]},
        )
    return Congruence(x, ids)


# --- tree-walking equation checks and per-entry table transport --------------

def eval_term(t, assignment, algebra) -> int:
    """Value of ``t`` in ``algebra`` with variable i bound to assignment[i]."""
    if t.var is not None:
        return assignment[t.var]
    return algebra.op(t.op, *(eval_term(a, assignment, algebra) for a in t.args))


def _scan_holds(eq, assignment, algebra) -> bool:
    return eval_term(eq.lhs, assignment, algebra) == eval_term(eq.rhs, assignment, algebra)


def scan_satisfies_equations(algebra, eqs):
    """``satisfies_equations`` by evaluating both sides with ``eval_term`` at
    every assignment, equations in order and assignments lexicographic."""
    from congform.errors import PASSED, failed
    from congform.terms import _check_ops_known

    eqs = tuple(eqs)
    _check_ops_known([e.lhs for e in eqs] + [e.rhs for e in eqs], algebra)
    for eq in eqs:
        for assignment in itertools.product(range(algebra.size), repeat=len(eq.variables())):
            if not _scan_holds(eq, assignment, algebra):
                return failed(equation=repr(eq), assignment=list(assignment))
    return PASSED


def scan_law_pairs(algebra, eqs):
    """``terms.law_pairs`` by evaluating both sides with ``eval_term`` at
    every assignment, equations in order and assignments lexicographic."""
    from congform.terms import _check_ops_known

    eqs = tuple(eqs)
    _check_ops_known([e.lhs for e in eqs] + [e.rhs for e in eqs], algebra)
    pairs = []
    for eq in eqs:
        for assignment in itertools.product(range(algebra.size), repeat=len(eq.variables())):
            s, t = eval_term(eq.lhs, assignment, algebra), eval_term(eq.rhs, assignment, algebra)
            if s != t:
                pairs.append((s, t))
    return pairs


def scan_satisfies_quasiequations(algebra, qeqs):
    """``satisfies_quasiequations`` by the same scan, implication per assignment."""
    from congform.errors import PASSED, failed
    from congform.terms import _check_ops_known

    qeqs = tuple(qeqs)
    _check_ops_known([t for q in qeqs for p in (*q.premises, q.conclusion)
                      for t in (p.lhs, p.rhs)], algebra)
    for q in qeqs:
        for assignment in itertools.product(range(algebra.size), repeat=len(q.variables())):
            if all(_scan_holds(p, assignment, algebra) for p in q.premises):
                if not _scan_holds(q.conclusion, assignment, algebra):
                    return failed(quasiequation=repr(q), assignment=list(assignment))
    return PASSED


def op_relabel_algebra(a, perm):
    """``relabel_algebra`` with one ``a.op`` call per table entry."""
    from congform.algebras import FiniteAlgebra

    n = a.size
    tables = []
    for name, arity in a.sig.ops:
        flat = [0] * (n ** arity)
        for t in itertools.product(range(n), repeat=arity):
            idx = 0
            for c in t:
                idx = idx * n + perm[c]
            flat[idx] = perm[a.op(name, *t)]
        tables.append(tuple(flat))
    return FiniteAlgebra(n, a.sig, tuple(tables), a.tag)


def op_quotient_tables(x, r):
    """The tables of ``quotient(x, r)``, one ``x.op`` call per tuple of
    blocks, each block read at its least element."""
    k = r.n_blocks
    reps = [0] * k
    for e in range(x.size - 1, -1, -1):
        reps[r.ids[e]] = e
    return tuple(
        tuple(r.ids[x.op(name, *(reps[b] for b in t))]
              for t in itertools.product(range(k), repeat=arity))
        for name, arity in x.sig.ops)


def recursive_flatten(nested, n, arity, opname):
    """``algebras._flatten`` by one recursive call per row of every level."""
    from congform.errors import TableShape

    if arity == 0:
        if not isinstance(nested, int) or isinstance(nested, bool):
            raise TableShape(f"table for {opname!r} must be a single integer")
        return (nested,)
    if not isinstance(nested, (list, tuple)) or len(nested) != n:
        raise TableShape(
            f"table for {opname!r} must be a list of length {n} at arity {arity}"
        )
    out = []
    for row in nested:
        if arity == 1:
            if not isinstance(row, int) or isinstance(row, bool):
                raise TableShape(f"table for {opname!r} has a non-integer entry")
            out.append(row)
        else:
            out.extend(recursive_flatten(row, n, arity - 1, opname))
    return tuple(out)


def enumerate_groups(n):
    """All group tables on {0..n-1} with identity 0, in search order.

    Latin-square backtracking with incremental associativity pruning;
    complete up to isomorphism since every group can be relabeled to put
    its identity at 0.
    """
    from congform.algebras import GROUP_SIGNATURE, GROUP_TAG, validate_algebra

    table = [[None] * n for _ in range(n)]
    for j in range(n):
        table[0][j] = j
        table[j][0] = j
    row_used = [set(v for v in row if v is not None) for row in table]
    col_used = [set(table[i][j] for i in range(n) if table[i][j] is not None)
                for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []

    def assoc_ok():
        for a in range(1, n):
            for b in range(1, n):
                ab = table[a][b]
                if ab is None:
                    continue
                for c in range(1, n):
                    bc = table[b][c]
                    abc1 = table[ab][c]
                    if bc is None or abc1 is None:
                        continue
                    abc2 = table[a][bc]
                    if abc2 is not None and abc1 != abc2:
                        return False
        return True

    def emit():
        inv = [next(b for b in range(n) if table[a][b] == 0) for a in range(n)]
        out.append(validate_algebra(
            n, GROUP_SIGNATURE,
            {"mul": [row[:] for row in table], "inv": inv, "e": 0}, GROUP_TAG))

    def dfs(k):
        if k == len(cells):
            emit()
            return
        i, j = cells[k]
        for v in range(n):
            if v in row_used[i] or v in col_used[j]:
                continue
            table[i][j] = v
            row_used[i].add(v)
            col_used[j].add(v)
            if assoc_ok():
                dfs(k + 1)
            table[i][j] = None
            row_used[i].remove(v)
            col_used[j].remove(v)

    dfs(0)
    return out


def _dedup_up_to_iso(algebras):
    """Keep the first representative of each isomorphism class; candidates are
    bucketed by ``_iso_invariant``, so isomorphism searches run inside a bucket."""
    from congform.algebras import _iso_invariant, find_isomorphism

    reps = []
    buckets = {}
    for a in algebras:
        bucket = buckets.setdefault(_iso_invariant(a), [])
        if all(find_isomorphism(a, b) is None for b in bucket):
            reps.append(a)
            bucket.append(a)
    return reps


def dedup_then_canonical(algebras):
    """The first algebra of each isomorphism class, kept by pairwise
    isomorphism search inside invariant buckets, then put in canonical form
    by its own scan of every relabeling."""
    from congform.algebras import canonical_algebra

    return [canonical_algebra(a) for a in _dedup_up_to_iso(algebras)]


def transport_dedup_by_orbit(algebras):
    """``dedup_by_orbit`` with each relabeling read by ``_transport``,
    which sorts the inverse permutation and builds its index arrays again."""
    from congform.algebras import FiniteAlgebra, _inverse, _transport

    seen, reps = set(), []
    for a in algebras:
        kind = (a.size, a.sig.ops, a.tag)
        if (kind, a.tables) not in seen:
            orbit = {_transport(a, _inverse(perm), perm)
                     for perm in itertools.permutations(range(a.size))}
            seen.update((kind, t) for t in orbit)
            reps.append(FiniteAlgebra(a.size, a.sig, min(orbit), a.tag))
    return reps


def dedup_by_orbit(algebras):
    """The ``canonical_algebra`` of each isomorphism class, in stream order, with
    no isomorphism search: a class's tables are the orbit of its first member
    under the n! relabelings of every table, whose index arrays are built once
    per size and arities in this call; the orbit is kept in a set, and its
    least element is the canonical form."""
    from congform.algebras import FiniteAlgebra, _relabeling_arrays, _relabelings

    seen, reps, arrays = set(), [], {}
    for a in algebras:
        kind = (a.size, a.sig.ops, a.tag)
        if (kind, a.tables) not in seen:
            shape = (a.size, tuple(k for _, k in a.sig.ops))
            if shape not in arrays:
                arrays[shape] = _relabeling_arrays(a)
            orbit = set(_relabelings(a, arrays[shape]))
            seen.update((kind, t) for t in orbit)
            reps.append(FiniteAlgebra(a.size, a.sig, min(orbit), a.tag))
    return reps


def all_quandle_tables(n, *, one_per_cycle_type=False):
    """Every quandle table on {0..n-1}, as flat tables with no axiom check, by
    trying every permutation fixing b for each column sigma_b and forcing the
    column at sigma_c(b) to be the conjugate sigma_c sigma_b sigma_c^-1.  With
    ``one_per_cycle_type``, column 0 tries only the least permutation of each
    cycle type, which keeps one table of each class at least."""
    from congform.algebras import (
        QUANDLE_SIGNATURE, QUANDLE_TAG, FiniteAlgebra, _cycle_type, _inverse,
    )

    perms_fixing = [
        [p for p in itertools.permutations(range(n)) if p[b] == b]
        for b in range(n)
    ]
    if one_per_cycle_type:
        least_of_type = {}
        for p in perms_fixing[0]:
            least_of_type.setdefault(_cycle_type(p), p)
        perms_fixing[0] = list(least_of_type.values())
    cols = [None] * n
    out = []

    def conj(pc, pb):
        res = [0] * n
        for x in range(n):
            res[pc[x]] = pc[pb[x]]
        return tuple(res)

    def propagate(queue):
        while queue:
            b = queue.pop()
            for c in range(n):
                if cols[c] is None:
                    continue
                for (u, v) in ((b, c), (c, b)):
                    d = cols[v][u]
                    forced = conj(cols[v], cols[u])
                    if cols[d] is None:
                        cols[d] = forced
                        queue.append(d)
                    elif cols[d] != forced:
                        return False
        return True

    def emit():
        lhd = tuple(cols[b][x] for x in range(n) for b in range(n))
        inverses = [_inverse(c) for c in cols]
        lhd_inv = tuple(inverses[b][x] for x in range(n) for b in range(n))
        out.append(FiniteAlgebra(n, QUANDLE_SIGNATURE, (lhd, lhd_inv), QUANDLE_TAG))

    def dfs():
        try:
            b = cols.index(None)
        except ValueError:
            emit()
            return
        snapshot = cols.copy()
        for p in perms_fixing[b]:
            cols[b] = p
            if propagate([b]):
                dfs()
            cols[:] = snapshot

    dfs()
    return out


def listed_reachability(a):
    """``quandle_reachability`` as the equivalence closure of the moves
    (x, x <| b) and (x, x <|^-1 b), listed for every x and b."""
    return equivalence_closure(a, [(x, a.op(op, x, b)) for op in ("lhd", "lhd_inv")
                                   for x in a.elements() for b in a.elements()])


def orbit_quandle_search(n):
    """``instances.enumerate_quandles`` before a candidate column was
    checked against the assigned columns: the least permutation of each
    stabiliser orbit is tried, and propagation alone rejects the ones that
    conflict with the partial table."""
    from congform.algebras import _cycle_type
    from congform.instances import _quandle

    perms = list(itertools.permutations(range(n)))
    kind = {p: _cycle_type(p) for p in perms}
    perms_fixing = [[p for p in perms if p[b] == b] for b in range(n)]
    cols = [None] * n

    def conj(pc, pb):
        res = [0] * n
        for x in range(n):
            res[pc[x]] = pc[pb[x]]
        return tuple(res)

    def propagate(queue):
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

    def dfs(group):
        try:
            b = cols.index(None)
        except ValueError:
            yield _quandle(n, tuple(itertools.chain.from_iterable(zip(*cols))))
            return
        stab = [g for g in group if g[b] == b]
        least = kind[cols[0]] if b else ()
        seen = set()
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

    return list(dfs(perms))


def scan_quotient_maps(u):
    """``operators.quotient_maps`` by an isomorphism search against every
    member of the quotient's size, in member order."""
    from congform.algebras import compose, con_lattice, find_isomorphism, quotient

    out = {}
    for x in u.algebras:
        for r in con_lattice(x):
            q, proj = quotient(x, r)
            isos = (find_isomorphism(q, m) for m in u.algebras if m.size == q.size)
            gs = tuple(compose(iso, proj) for iso in isos if iso is not None)
            if gs:
                out[r] = gs
    return out


# --- the reflection oracle and Birkhoff check on every built quotient ------------

def closed_under_quotients(pred, u):
    """Every quotient of a member satisfying ``pred`` satisfies it too,
    testing each X/R built by ``quotient``."""
    from congform import con_lattice, quotient
    from congform.errors import PASSED, failed

    for i, x in enumerate(u.algebras):
        if not pred(x):
            continue
        for r in con_lattice(x):
            q, _ = quotient(x, r)
            if not pred(q):
                return failed(predicate=pred.name, algebra=i,
                              congruence=[list(b) for b in r.blocks()])
    return PASSED


def oracle_reflector(u, pred, name=None):
    """The reflector of ``oracle_reflection`` on every member, which builds
    and tests each X/R."""
    from congform import oracle_reflection
    from congform.reflection import make_reflector

    rho = tuple(oracle_reflection(x, pred) for x in u.algebras)
    return make_reflector(u, rho, name or f"oracle({pred.name})")


# --- API with no library caller -------------------------------------------------

def kernel_congruence(f):
    """ker f: the partition of f's domain by value, as a congruence."""
    from congform.algebras import Congruence, _canonical_ids

    return Congruence(f.dom, _canonical_ids(f.map))


def ideal_to_json(i):
    """Ideals serialize as their sorted element list."""
    return list(i.elements)


def ideal_from_json(rng, doc):
    from congform import ideal
    from congform.errors import InvalidIdeal

    if not isinstance(doc, list):
        raise InvalidIdeal("an ideal serializes as a JSON list of elements")
    return ideal(rng, doc)


class PreconditionFailed(CheckFailure):
    """An operation's mathematical precondition does not hold."""


def strictify(d):
    """Rebuild an idempotent cohereditary operator through its quotients.

    The result closes R by pulling the closed diagonal of the member
    isomorphic to X/R back along R's quotient map (``pullback_rule``), so
    a fixed quotient gets R, the preimage of the diagonal, back.  Under
    the canonical congruence encoding this coincides with ``d``
    pointwise; the preconditions are exactly idempotence and coheredity
    and are re-verified here.
    """
    from congform import diagonal, is_cohereditary, is_idempotent, make_operator

    idem = is_idempotent(d)
    if not idem:
        raise PreconditionFailed(
            f"strictify({d.name}) needs an idempotent operator", witness=idem.witness
        )
    cohered = is_cohereditary(d)
    if not cohered:
        raise PreconditionFailed(
            f"strictify({d.name}) needs a cohereditary operator", witness=cohered.witness
        )
    u = d.universe
    closed_diagonals = [d.apply(i, diagonal(x)) for i, x in enumerate(u.algebras)]
    return make_operator(u, pullback_rule(u, closed_diagonals), f"strict({d.name})")


# --- automorphism generators by greedy selection ---------------------------------

def greedy_automorphism_generators(x):
    """The automorphisms of x, in lexicographic order, that lie outside the
    group generated by those kept before them, each group closed by brute
    force: the selection ``generating_maps`` made before
    ``automorphism_generators`` read generators off a stabiliser chain."""
    from congform import automorphisms

    group, kept = {tuple(range(x.size))}, []
    for a in automorphisms(x):
        if a.map not in group:
            kept.append(a)
            new = set(group)  # close the group: compose each new map with the kept ones
            while new := {tuple(g.map[k] for k in p) for p in new for g in kept} - group:
                group |= new
    return kept


def permutation_group(n, gens):
    """The group of permutations of range(n) that the maps ``gens`` generate."""
    identity = tuple(range(n))
    group, todo = {identity}, [identity]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[k] for k in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


# --- congruence closures by union-find, and the universe by breadth-first search --

def union_find_generated_congruence(x, pairs):
    """Least congruence containing the pairs: union-find with a worklist that
    re-propagates every moved member of a class against its root."""
    from congform.algebras import Congruence, _canonical_ids

    n = x.size
    parent = list(range(n))
    weight = [1] * n
    members = [[i] for i in range(n)]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pending = deque(pairs)
    unary = [t for (_, k), t in zip(x.sig.ops, x.tables) if k == 1]
    binary = [t for (_, k), t in zip(x.sig.ops, x.tables) if k == 2]
    wide = [(k, t) for (_, k), t in zip(x.sig.ops, x.tables) if k > 2]

    def force(u, v):
        if find(u) != find(v):
            pending.append((u, v))

    while pending:
        a, b = pending.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if weight[ra] < weight[rb]:
            ra, rb = rb, ra
        moved = members[rb]
        parent[rb] = ra
        weight[ra] += weight[rb]
        members[ra].extend(moved)
        members[rb] = []
        p = ra
        for q in moved:
            for t in unary:
                force(t[p], t[q])
            for t in binary:
                for u, v in zip(t[p * n:(p + 1) * n], t[q * n:(q + 1) * n]):
                    force(u, v)
                for u, v in zip(t[p::n], t[q::n]):
                    force(u, v)
            for k, t in wide:
                for pos in range(k):
                    hi = n ** (k - 1 - pos)
                    for lo in range(n ** pos):
                        base = lo * hi * n
                        for rest in range(hi):
                            force(t[base + p * hi + rest], t[base + q * hi + rest])
    return Congruence(x, _canonical_ids([find(i) for i in range(n)]))


def equivalence_closure(x, pairs):
    """Least equivalence on x containing the pairs, by union-find."""
    from congform.algebras import Congruence, _canonical_ids

    parent = list(range(x.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return Congruence(x, _canonical_ids([find(i) for i in range(x.size)]))


def join_blocks(ids, blocks):
    """Ids of R v P from R's ids and P's non-singleton blocks, merging the
    labels of R along each block; None when P <= R."""
    from congform.algebras import _canonical_ids

    labels = list(ids)
    for block in blocks:
        meets = {labels[y] for y in block}
        if len(meets) > 1:
            least = min(meets)
            labels = [least if label in meets else label for label in labels]
    return None if labels == list(ids) else _canonical_ids(labels)


def bfs_universe_from_generators(seeds):
    """Close the seeds under canonical quotients, up to isomorphism, by a
    queue that quotients every member it keeps again."""
    from congform import con_lattice, find_isomorphism, quotient, universe
    from congform.operators import _algebra_sort_key

    members = []
    queue = sorted(set(seeds), key=_algebra_sort_key)
    while queue:
        a = queue.pop(0)
        if any(find_isomorphism(a, m) is not None for m in members if m.size == a.size):
            continue
        members.append(a)
        queue.extend(quotient(a, r)[0] for r in con_lattice(a))
    return universe(members, quotient_closed=True)


# --- test-only constructors and the hand-built group congruences -----------------

@lru_cache(maxsize=None)
def trivial_quandle(n):
    from congform.algebras import QUANDLE_SIGNATURE, QUANDLE_TAG, validate_algebra

    t = [[x for _ in range(n)] for x in range(n)]
    return validate_algebra(n, QUANDLE_SIGNATURE, {"lhd": t, "lhd_inv": t}, QUANDLE_TAG)


@lru_cache(maxsize=None)
def dihedral_quandle(n):
    """x <| y = 2y - x mod n; an involution, so <| and its inverse agree."""
    from congform.algebras import QUANDLE_SIGNATURE, QUANDLE_TAG, validate_algebra

    t = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    return validate_algebra(n, QUANDLE_SIGNATURE, {"lhd": t, "lhd_inv": t}, QUANDLE_TAG)


@lru_cache(maxsize=None)
def commutator_congruence(a):
    """Kernel of the abelianization quotient: collapse all commutators to e."""
    from congform import generated_congruence
    from congform.algebras import GROUP_TAG
    from congform.instances import _require

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
def exponent_two_congruence(a):
    """Collapse commutators and squares: quotient is elementary abelian 2."""
    from congform import generated_congruence
    from congform.algebras import GROUP_TAG, _block_pairs
    from congform.instances import _require

    _require(GROUP_TAG, a)
    e = a.op("e")
    pairs = [(a.op("mul", x, x), e) for x in a.elements()]
    return generated_congruence(a, pairs + _block_pairs(commutator_congruence(a)))


@lru_cache(maxsize=None)
def value_fields():
    """Each value class with its fields in constructor order."""
    from congform.algebras import Congruence, FiniteAlgebra, Homomorphism, Signature
    from congform.errors import CheckResult
    from congform.instances import Ideal
    from congform.operators import ClosureOperator, Universe
    from congform.reflection import Reflector, SubcategoryPredicate
    from congform.terms import Equation, QuasiEquation, Term

    return {
        Signature: ("ops",),
        FiniteAlgebra: ("size", "sig", "tables", "tag"),
        Congruence: ("algebra", "ids"),
        Homomorphism: ("dom", "cod", "map", "surjective"),
        CheckResult: ("ok", "witness"),
        Term: ("var", "op", "args"),
        Equation: ("lhs", "rhs", "label"),
        QuasiEquation: ("premises", "conclusion", "label"),
        Universe: ("algebras", "quotient_closed"),
        ClosureOperator: ("universe", "name", "rows"),
        Reflector: ("universe", "name", "rho"),
        SubcategoryPredicate: ("name", "accepts"),
        Ideal: ("rng", "elements"),
    }


@lru_cache(maxsize=None)
def twin_class(cls):
    """The frozen dataclass with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(cls.__name__, value_fields()[cls], frozen=True)


def dataclass_twin(value, memo: dict):
    """``value`` rebuilt as frozen-dataclass twins, through its fields and
    nested tuples; a value met twice (``memo``, by id) gets the same twin."""
    if id(value) in memo:
        return memo[id(value)][1]
    if isinstance(value, tuple):
        twin = tuple(dataclass_twin(v, memo) for v in value)
    elif type(value) in value_fields():
        twin = twin_class(type(value))(*(dataclass_twin(getattr(value, f), memo)
                                         for f in value_fields()[type(value)]))
    else:
        return value
    memo[id(value)] = value, twin  # the value stays alive, so its id stays unique
    return twin
