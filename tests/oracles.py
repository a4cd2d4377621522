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
along every searched surjection, operator enumeration by generating
every extensive family and rejecting the unnatural ones, the lattice
closed under joins of every pair, the universal property of a reflector
checked on every hom instead of by factorisation), the hom search that
scans every operation tuple on each propagation step, the operator
checks on ``Congruence`` objects that the universe's integer tables
replaced, the fibration's join tables, images and pull-backs built on
``Congruence`` objects by union-find (replaced by look-ups in the order
and in block-id arrays), the quandle composite R o ~ built from its
relation matrix (replaced by a join, since R and ~ permute), the
equation checks that walk the terms at every assignment
(replaced by compiled programs), relabeling and quotients that read
every table entry through ``FiniteAlgebra.op`` (replaced by flat index
arrays), table flattening by one recursive call per row (replaced by one
pass per level), and the quandle corpus's deduplication by pairwise
isomorphism search before a canonical form per class (replaced by orbit
membership), and the quandle search that tries every permutation for
every column (replaced by one candidate per cycle type for column 0).
"""

from __future__ import annotations

import itertools
from collections import deque


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
    from congform.algebras import CongruenceLattice

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
    return CongruenceLattice(x, tuple(sorted(found, key=lambda c: c.ids)))


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


def generate_and_test_operators(u, *, max_candidates: int = 500_000):
    """Every closure operator on ``u``: each extensive family is given to
    ``make_operator`` and kept unless it raises ``NotNatural``."""
    from congform import make_operator
    from congform.errors import NotNatural

    out = []
    for k, combo in enumerate(extensive_families(u, max_candidates=max_candidates)):
        try:
            out.append(make_operator(u, list(combo), f"op{k}"))
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


def preserves_cocartesian(c):
    """image(f, C(R)) = C(image(f, R)) along every quotient map between members."""
    from congform import image_congruence

    return along_quotient_maps(c, "R", lambda f, i, j, r: (
        image_congruence(f, c.apply(i, r)), c.apply(j, image_congruence(f, r))))


def pullback_rule(u, rho):
    """R -> g*(rho[j]) for the first quotient map g of R, onto member j."""
    from congform import preimage_congruence, quotient_maps

    maps = quotient_maps(u)

    def rule(x, r):
        g = maps[r][0]
        return preimage_congruence(g, rho[u.member_index(g.cod)])

    return rule


# --- fibration tables by union-find and the composite scan ---------------------

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


def composite_with_reachability(x, r):
    """R o ~ from its n x n relation matrix, checked reflexive, symmetric,
    transitive and compatible; raises if the composite is not a congruence."""
    from congform import Congruence, quandle_reachability
    from congform.algebras import _canonical_ids, is_compatible
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
    if not is_compatible(x, ids):
        raise CompositeNotCongruence(
            "composite relation is not operation-compatible",
            witness={"blocks": [list(b) for b in Congruence(x, ids).blocks()]},
        )
    return Congruence(x, ids)


# --- tree-walking equation checks and per-entry table transport --------------

def _scan_holds(eq, assignment, algebra) -> bool:
    from congform.terms import eval_term

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


def dedup_then_canonical(algebras):
    """The first algebra of each isomorphism class, kept by pairwise
    isomorphism search inside invariant buckets, then put in canonical form
    by its own scan of every relabeling."""
    from congform.algebras import canonical_algebra
    from congform.instances import _dedup_up_to_iso

    return [canonical_algebra(a) for a in _dedup_up_to_iso(algebras)]


def all_quandle_tables(n):
    """Every quandle table on {0..n-1}, as flat tables with no axiom check, by
    trying every permutation fixing b for each column sigma_b and forcing the
    column at sigma_c(b) to be the conjugate sigma_c sigma_b sigma_c^-1."""
    from congform.algebras import QUANDLE_SIGNATURE, QUANDLE_TAG, FiniteAlgebra, _inverse

    perms_fixing = [
        [p for p in itertools.permutations(range(n)) if p[b] == b]
        for b in range(n)
    ]
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
