"""Terms, equations, and quasi-equations over an operation signature.

Satisfaction of laws, equations and quasi-equations alike, is decided
over all assignments of carrier elements to variables by compiled programs.
Each law is compiled once, cached on its terms, into a post-order
program over the k distinct variables of its terms: slots 0..k-1 hold them
in index order, so a law need not use every index below its largest, and
each distinct subterm is one step ``(op, argument slots)``.  The program
runs on the flat tables over blocks of at most ``_BLOCK`` assignments,
whose variable columns are built once per carrier size and variable count,
one table look-up per step and assignment.  A quasi-equation's conclusion
and premises run as one program.  ``satisfies_equations``, which takes any
list of laws, and ``law_pairs`` read one scan (``_failures``) of the
assignments at which the premises hold and the conclusion fails, modulo a
congruence for ``law_pairs``; an equation is a quasi-equation with no
premises.  Witnesses are the first failing law in the given order and its
first failing assignment in lexicographic order; ``law_pairs`` lists the
conclusion's values at every such assignment.  The tests check the
programs against a reference that walks the terms at every assignment.
The axiom lists for the three supported variety tags (groups, commutative
rngs, quandles) live here, together with the laws of the built-in
subcategories (commutativity, reduced-ness, triviality), read by the law
rules and their predicates.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import compress, product
from operator import ne

from .errors import CheckResult, Hashed, PASSED, UnknownOp, failed


class Term(Hashed):
    """Either a variable (``var`` set) or an operation applied to subterms."""

    __slots__ = ("var", "op", "args")

    def __init__(self, var: int | None = None, op: str | None = None,
                 args: tuple[Term, ...] = ()):
        if (var is None) == (op is None):
            raise ValueError("a term is either a variable or an application")
        if var is not None and var < 0:
            raise ValueError("variable indices are nonnegative")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((var, op, args)))

    def _key(self):
        return self.var, self.op, self.args

    def variables(self) -> frozenset[int]:
        if self.var is not None:
            return frozenset((self.var,))
        out: frozenset[int] = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def __repr__(self):
        if self.var is not None:
            return f"x{self.var}"
        return f"{self.op}({', '.join(map(repr, self.args))})"


def var(i: int) -> Term:
    return Term(var=i)


def app(op: str, *args: Term) -> Term:
    return Term(op=op, args=tuple(args))


def _check_ops_known(terms: Iterable[Term], algebra) -> None:
    known = {name for name, _ in algebra.sig.ops}
    arities = dict(algebra.sig.ops)
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t.op is not None:
            if t.op not in known:
                raise UnknownOp(f"operation {t.op!r} not in signature")
            if arities[t.op] != len(t.args):
                raise UnknownOp(
                    f"operation {t.op!r} applied to {len(t.args)} arguments, "
                    f"arity is {arities[t.op]}"
                )
            stack.extend(t.args)


class Equation(Hashed):
    """lhs = rhs, universally quantified over all variable assignments."""

    __slots__ = ("lhs", "rhs", "label")

    def __init__(self, lhs: Term, rhs: Term, label: str | None = None):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((lhs, rhs, label)))

    def _key(self):
        return self.lhs, self.rhs, self.label

    def variables(self) -> frozenset[int]:
        return self.lhs.variables() | self.rhs.variables()

    def __repr__(self):
        return self.label or f"{self.lhs!r} = {self.rhs!r}"


class QuasiEquation(Hashed):
    """premises => conclusion, per assignment."""

    __slots__ = ("premises", "conclusion", "label")

    def __init__(self, premises: tuple[Equation, ...], conclusion: Equation,
                 label: str | None = None):
        object.__setattr__(self, "premises", premises)
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((premises, conclusion, label)))

    def _key(self):
        return self.premises, self.conclusion, self.label

    def variables(self) -> frozenset[int]:
        out = self.conclusion.variables()
        for p in self.premises:
            out |= p.variables()
        return out

    def __repr__(self):
        if self.label:
            return self.label
        pre = " & ".join(map(repr, self.premises))
        return f"{pre} => {self.conclusion!r}" if pre else f"=> {self.conclusion!r}"


@lru_cache(maxsize=1024)
def _compile(terms: tuple[Term, ...]):
    """Post-order program for ``terms``: the count k of their distinct
    variables, which fill slots 0..k-1 in index order, one step ``(op,
    argument slots)`` per distinct subterm, filling slots k, k+1, ..., and
    the slot of each term."""
    variables = sorted(frozenset().union(*(t.variables() for t in terms)))
    k = len(variables)
    slots: dict[Term, int] = {var(v): i for i, v in enumerate(variables)}
    steps: list[tuple[str, tuple[int, ...]]] = []

    def visit(t: Term) -> int:
        s = slots.get(t)
        if s is None:
            args = tuple(visit(a) for a in t.args)
            s = slots[t] = k + len(steps)
            steps.append((t.op, args))
        return s

    outs = tuple(visit(t) for t in terms)
    return k, tuple(steps), outs


_BLOCK = 2048  # one block for every bundled law up to groups 12 (12^3 = 1728)


@lru_cache(maxsize=64)
def _columns(n: int, k: int):
    """Block size and blocks of the n^k assignments, lexicographic, one column per
    variable; a block fixes as few leading variables as keep it within ``_BLOCK``.
    The columns are shared: read them, never write them."""
    lead = next(m for m in range(k + 1) if n ** (k - m) <= _BLOCK)
    size = n ** (k - lead)
    rest = [[v for v in range(n) for _ in range(n ** (k - 1 - i))] * n ** (i - lead)
            for i in range(lead, k)]
    return size, tuple([[v] * size for v in prefix] + rest
                       for prefix in product(range(n), repeat=lead))


def _apply(table, n: int, cols: list[list[int]], size: int) -> list[int]:
    """One operation's values over a block, its arguments given as columns."""
    if not cols:
        return [table[0]] * size
    if len(cols) == 1:
        return list(map(table.__getitem__, cols[0]))
    if len(cols) == 2:
        return [table[a * n + b] for a, b in zip(*cols)]
    out = []
    for args in zip(*cols):
        idx = 0
        for c in args:
            idx = idx * n + c
        out.append(table[idx])
    return out


def _blocks(algebra, terms: tuple[Term, ...]):
    """Yield ``(variables, values)`` per block of ``_columns``: the columns of
    the variables of ``terms`` and of ``terms`` over the block's assignments
    (one empty assignment when there are no variables)."""
    k, steps, outs = _compile(terms)
    n = algebra.size
    table_of = dict(zip(algebra.sig.names(), algebra.tables))
    program = [(table_of[op], args) for op, args in steps]
    size, blocks = _columns(n, k)
    for variables in blocks:
        vals = list(variables)
        for table, args in program:
            vals.append(_apply(table, n, [vals[s] for s in args], size))
        yield variables, [vals[s] for s in outs]


def _sides(law: Equation | QuasiEquation) -> tuple[Term, ...]:
    """The conclusion's two sides, then each premise's; an equation is the
    conclusion of a quasi-equation with no premises."""
    if isinstance(law, Equation):
        return law.lhs, law.rhs
    return tuple(t for e in (law.conclusion, *law.premises) for t in (e.lhs, e.rhs))


def _failures(algebra, laws: Iterable[Equation | QuasiEquation], ids=None):
    """Yield ``(law, variables, values, fails)`` for each law in the given
    order and each block of its assignments, in order, where some assignment
    fails: the block's variable columns, the columns of the law's ``_sides``,
    and per assignment whether every premise holds and the conclusion does
    not.  Values are compared by their block ids ``ids`` (None: the values
    themselves)."""
    laws = tuple(laws)
    sides = [_sides(law) for law in laws]
    _check_ops_known([t for ts in sides for t in ts], algebra)
    for law, ts in zip(laws, sides):
        for variables, values in _blocks(algebra, ts):
            lhs, rhs, *premises = values if ids is None else [
                [ids[v] for v in column] for column in values]
            if lhs == rhs:
                continue
            fails = list(map(ne, lhs, rhs))
            for p, q in zip(premises[::2], premises[1::2]):
                fails = [f and a == b for f, a, b in zip(fails, p, q)]
            if True in fails:
                yield law, variables, values, fails


def satisfies_equations(algebra, laws: Iterable[Equation | QuasiEquation]) -> CheckResult:
    """True iff every assignment satisfies every law, a quasi-equation when
    its premises hold and its conclusion does.  The witness is the first
    failing law in the given order, keyed by its kind ("equation" or
    "quasiequation"), and its first failing assignment in lexicographic
    order, listed in variable-index order."""
    for law, variables, _, fails in _failures(algebra, laws):
        j = fails.index(True)
        kind = "equation" if isinstance(law, Equation) else "quasiequation"
        return failed(**{kind: repr(law), "assignment": [v[j] for v in variables]})
    return PASSED


def law_pairs(algebra, laws: Iterable[Equation | QuasiEquation],
              ids=None) -> list[tuple[int, int]]:
    """(s(a), t(a)) for each law in order, s = t being an equation or a
    quasi-equation's conclusion, and each assignment a, lexicographic, at
    which the premises hold and the sides differ, all modulo the congruence
    with block ids ``ids`` (None: the diagonal).  An equation's pairs
    generate its verbal congruence (Burris & Sankappanavar, ch. II)."""
    return [pair for _, _, values, fails in _failures(algebra, laws, ids)
            for pair in compress(zip(values[0], values[1]), fails)]


# --- variety axioms ----------------------------------------------------------

_x, _y, _z = var(0), var(1), var(2)

GROUP_AXIOMS = (
    Equation(app("mul", app("mul", _x, _y), _z),
             app("mul", _x, app("mul", _y, _z)), label="(x·y)·z = x·(y·z)"),
    Equation(app("mul", _x, app("e")), _x, label="x·e = x"),
    Equation(app("mul", app("e"), _x), _x, label="e·x = x"),
    Equation(app("mul", _x, app("inv", _x)), app("e"), label="x·x⁻¹ = e"),
    Equation(app("mul", app("inv", _x), _x), app("e"), label="x⁻¹·x = e"),
)

COMMUTATIVE_RNG_AXIOMS = (
    Equation(app("add", app("add", _x, _y), _z),
             app("add", _x, app("add", _y, _z)), label="(x+y)+z = x+(y+z)"),
    Equation(app("add", _x, _y), app("add", _y, _x), label="x+y = y+x"),
    Equation(app("add", _x, app("zero")), _x, label="x+0 = x"),
    Equation(app("add", _x, app("neg", _x)), app("zero"), label="x+(−x) = 0"),
    Equation(app("mul", app("mul", _x, _y), _z),
             app("mul", _x, app("mul", _y, _z)), label="(x·y)·z = x·(y·z)"),
    Equation(app("mul", _x, _y), app("mul", _y, _x), label="x·y = y·x"),
    Equation(app("mul", _x, app("add", _y, _z)),
             app("add", app("mul", _x, _y), app("mul", _x, _z)),
             label="x·(y+z) = x·y + x·z"),
)

QUANDLE_AXIOMS = (
    Equation(app("lhd", _x, _x), _x, label="a ◁ a = a"),
    Equation(app("lhd_inv", app("lhd", _x, _y), _y), _x, label="(a ◁ b) ◁⁻¹ b = a"),
    Equation(app("lhd", app("lhd_inv", _x, _y), _y), _x, label="(a ◁⁻¹ b) ◁ b = a"),
    Equation(app("lhd", app("lhd", _x, _y), _z),
             app("lhd", app("lhd", _x, _z), app("lhd", _y, _z)),
             label="(a ◁ b) ◁ c = (a ◁ c) ◁ (b ◁ c)"),
)

# membership predicates used by reflection oracles
COMMUTATIVITY = (Equation(app("mul", _x, _y), app("mul", _y, _x), label="x·y = y·x"),)

ELEMENTARY_ABELIAN_2 = COMMUTATIVITY + (
    Equation(app("mul", _x, _x), app("e"), label="x·x = e"),
)

TRIVIAL_QUANDLE = (
    Equation(app("lhd", _x, _y), _x, label="a ◁ b = a"),
    Equation(app("lhd_inv", _x, _y), _x, label="a ◁⁻¹ b = a"),
)

REDUCED_RNG = (
    QuasiEquation(
        premises=(Equation(app("mul", _x, _x), app("zero")), ),
        conclusion=Equation(_x, app("zero")),
        label="x·x = 0 ⇒ x = 0",
    ),
)

ONE_ELEMENT = (Equation(_x, _y, label="x = y"),)
