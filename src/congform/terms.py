"""Terms, equations, and quasi-equations over an operation signature.

Equational satisfaction is decided over all assignments of carrier
elements to variables by compiled programs.  Each equation is compiled
once, cached on its terms, into a post-order program: slots 0..k-1 hold
the variables and each distinct subterm is one step ``(op, argument
slots)``.  The program runs on the flat tables one block at a time, the
n^(k-1) assignments that share the first variable's value, one table
look-up per step and assignment.  Witnesses are the first failing
equation in the given order and its first failing assignment in
lexicographic order; ``law_pairs`` lists the sides' values where they
differ.  The tests check the programs against a reference that walks the
terms at every assignment.  The axiom lists for the three supported
variety tags (groups, commutative rngs, quandles) live here, together
with the laws of the built-in subcategories (commutativity,
reduced-ness, triviality), read by closure rules and reflection oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import CheckResult, PASSED, UnknownOp, failed


@dataclass(frozen=True)
class Term:
    """Either a variable (``var`` set) or an operation applied to subterms."""

    var: Optional[int] = None
    op: Optional[str] = None
    args: tuple["Term", ...] = ()

    def __post_init__(self):
        if (self.var is None) == (self.op is None):
            raise ValueError("a term is either a variable or an application")
        if self.var is not None and self.var < 0:
            raise ValueError("variable indices are nonnegative")

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


def _contiguous(vars_: frozenset[int]) -> bool:
    return vars_ == frozenset(range(len(vars_)))


@dataclass(frozen=True)
class Equation:
    """lhs = rhs, universally quantified over all variable assignments."""

    lhs: Term
    rhs: Term
    label: Optional[str] = None

    def __post_init__(self):
        if not _contiguous(self.variables()):
            raise ValueError("variable indices must be contiguous from 0")

    def variables(self) -> frozenset[int]:
        return self.lhs.variables() | self.rhs.variables()

    def __repr__(self):
        return self.label or f"{self.lhs!r} = {self.rhs!r}"


@dataclass(frozen=True)
class QuasiEquation:
    """premises => conclusion, per assignment."""

    premises: tuple[Equation, ...]
    conclusion: Equation
    label: Optional[str] = None

    def __post_init__(self):
        if not _contiguous(self.variables()):
            raise ValueError("variable indices must be contiguous from 0")

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
def _compile(terms: tuple[Term, ...], k: int):
    """Post-order program for ``terms`` in ``k`` variables: one step
    ``(op, argument slots)`` per distinct subterm, filling slots k, k+1, ...,
    and the slot of each term."""
    slots: dict[Term, int] = {var(i): i for i in range(k)}
    steps: list[tuple[str, tuple[int, ...]]] = []

    def visit(t: Term) -> int:
        s = slots.get(t)
        if s is None:
            args = tuple(visit(a) for a in t.args)
            s = slots[t] = k + len(steps)
            steps.append((t.op, args))
        return s

    outs = tuple(visit(t) for t in terms)
    return tuple(steps), outs


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


def _blocks(algebra, terms: tuple[Term, ...], k: int):
    """Yield ``(variables, values)`` per block, the first variable ascending:
    the columns of the k variables and of ``terms`` over the block's
    assignments in lexicographic order (one empty assignment when k = 0)."""
    steps, outs = _compile(terms, k)
    n = algebra.size
    table_of = dict(zip(algebra.sig.names(), algebra.tables))
    program = [(table_of[op], args) for op, args in steps]
    size = n ** (k - 1) if k else 1
    rest = [[v for v in range(n) for _ in range(n ** (k - 1 - i))] * n ** (i - 1)
            for i in range(1, k)]
    for first in (range(n) if k else (None,)):
        vals = ([[first] * size] if k else []) + rest
        for table, args in program:
            vals.append(_apply(table, n, [vals[s] for s in args], size))
        yield vals[:k], [vals[s] for s in outs]


def satisfies_equations(algebra, eqs: Iterable[Equation]) -> CheckResult:
    """True iff every assignment satisfies every equation.

    Each equation runs as its compiled program, block by block, and stops
    at the first block where the two sides differ.  On failure the witness
    carries the first failing equation in the given order and its first
    failing assignment in lexicographic order.
    """
    eqs = tuple(eqs)
    _check_ops_known([e.lhs for e in eqs] + [e.rhs for e in eqs], algebra)
    for eq in eqs:
        for variables, (lhs, rhs) in _blocks(algebra, (eq.lhs, eq.rhs), len(eq.variables())):
            if lhs != rhs:
                j = next(j for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                return failed(equation=repr(eq), assignment=[v[j] for v in variables])
    return PASSED


def law_pairs(algebra, eqs: Iterable[Equation]) -> list[tuple[int, int]]:
    """(s(a), t(a)) for each equation s = t in order and each assignment a,
    lexicographic, where the sides differ, read off the compiled programs; they
    generate the verbal congruence (Burris & Sankappanavar, ch. II)."""
    eqs = tuple(eqs)
    _check_ops_known([e.lhs for e in eqs] + [e.rhs for e in eqs], algebra)
    return [(a, b) for eq in eqs
            for _, (lhs, rhs) in _blocks(algebra, (eq.lhs, eq.rhs), len(eq.variables()))
            for a, b in zip(lhs, rhs) if a != b]


def satisfies_quasiequations(algebra, qeqs: Iterable[QuasiEquation]) -> CheckResult:
    """Implication semantics per assignment, compiled as in
    ``satisfies_equations`` with the premises and the conclusion of a
    quasi-equation in one program.  The witness is the first failing
    quasi-equation in the given order and its first assignment, in
    lexicographic order, where the premises hold and the conclusion fails.
    """
    qeqs = tuple(qeqs)
    sides = [tuple(t for p in (q.conclusion, *q.premises) for t in (p.lhs, p.rhs))
             for q in qeqs]
    _check_ops_known([t for ts in sides for t in ts], algebra)
    for q, ts in zip(qeqs, sides):
        for variables, (lhs, rhs, *premises) in _blocks(algebra, ts, len(q.variables())):
            if lhs == rhs:
                continue
            for j, (a, b) in enumerate(zip(lhs, rhs)):
                if a != b and all(premises[i][j] == premises[i + 1][j]
                                  for i in range(0, len(premises), 2)):
                    return failed(quasiequation=repr(q),
                                  assignment=[v[j] for v in variables])
    return PASSED


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
