"""Exception types, the base of the value classes and the check-outcome
value shared by all modules.

Two error families matter to callers (and to the CLI's exit codes):
``InputError`` for malformed or out-of-contract inputs, ``CheckFailure``
for mathematical checks that ran and failed.  Failures carry a small
JSON-able ``witness`` dict pinpointing the offending data.
"""

from __future__ import annotations


class CongformError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class InputError(CongformError):
    """Malformed input or violated precondition (CLI exit code 2)."""


class CheckFailure(CongformError):
    """A mathematical check ran and failed (CLI exit code 1)."""


# --- input / precondition errors -------------------------------------------

class TableShape(InputError):
    """Operation table has the wrong shape for its arity or carrier size."""


class OutOfRange(InputError):
    """Table entry or element index outside the carrier."""


class SignatureShape(InputError, ValueError):
    """Signature entry lacks a string name or integer arity >= 0, or repeats a name."""


class OperatorFileShape(InputError):
    """Operator file is not an object with 'entries' of congruence/closure block
    lists, or its 'name' is not a string."""


class OperatorFileIncomplete(InputError):
    """Operator file has no entry for some congruence of the algebra."""


class UnknownOp(InputError):
    """Operation name not present in the signature."""


class UnknownTag(InputError):
    """Variety tag is not one of the supported labels."""


class SignatureMismatch(InputError):
    """Two algebras were expected to share a signature."""


class FibreMismatch(InputError):
    """Congruences live on different algebras than required."""


class NotACongruence(InputError):
    """A block list is not an operation-compatible partition."""


class NotAHomomorphism(InputError):
    """A map fails to preserve some operation."""


class NotInE(InputError):
    """A surjection was required but the map is not surjective."""


class NotRng(InputError):
    """Operation requires a commutative-rng-tagged algebra."""


class NotQuandle(InputError):
    """Operation requires a quandle-tagged algebra."""


class NotGroup(InputError):
    """Operation requires a group-tagged algebra."""


class SizeTooLarge(InputError):
    """Requested corpus or canonicalization size above the supported bound."""


class UniverseMismatch(InputError):
    """Operators or algebras do not belong to the same universe."""


class UniverseNotQuotientClosed(InputError):
    """A family given as a universe is not closed under quotients: some
    quotient of a member is isomorphic to no member (raised by ``Universe``)."""


# --- mathematical check failures --------------------------------------------

class AxiomViolation(CheckFailure):
    """A tagged algebra fails one of its variety's defining equations."""


class NotExtensive(CheckFailure):
    """Candidate closure maps fail R <= C(R) somewhere."""


class NotNatural(CheckFailure):
    """Candidate closure maps fail the lifting law along some morphism."""


class NotIdempotent(CheckFailure):
    """Operator fails C(C(R)) = C(R) somewhere."""


class NotCohereditary(CheckFailure):
    """Operator fails to commute with preimages along some surjection."""


class NotReflective(CheckFailure):
    """A predicate or congruence family fails the reflection property."""


# --- value classes -----------------------------------------------------------

class Frozen:
    """Immutable slotted value, equal only to a value of its own class with
    equal fields, and hashed by them.  ``_key()`` lists the fields in
    constructor order, ``__init__`` sets them with ``object.__setattr__``,
    and the default repr names the ``__slots__``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Hashed(Frozen):
    """A ``Frozen`` value whose ``__init__`` stores its hash in ``_hash``;
    equality tries identity, then the hashes, then the fields."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._key() == other._key()

    def __hash__(self):
        return self._hash


class CheckResult(Frozen):
    """Boolean verdict plus a witness for the failing (or notable) case.

    Truthiness follows ``ok``, so results can be used directly in
    ``assert`` and ``if``; the witness is a JSON-able dict.  The failing
    result ``_deferred(find)`` finds its witness, ``find()``, when it is first
    read, and keeps it; eq, hash, copy and repr read it as any field.
    """

    __slots__ = ("ok", "_witness")

    def __init__(self, ok: bool, witness: dict | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "_witness", witness)

    @classmethod
    def _deferred(cls, find) -> CheckResult:
        return cls(False, find)

    @property
    def witness(self) -> dict | None:
        if callable(self._witness):
            object.__setattr__(self, "_witness", self._witness())
        return self._witness

    def _key(self):
        return self.ok, self.witness

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        return f"{type(self).__qualname__}(ok={self.ok!r}, witness={self.witness!r})"

    def as_json(self) -> dict:
        out: dict[str, object] = {"ok": self.ok}
        if self.witness:
            out["witness"] = self.witness
        return out


PASSED = CheckResult(True)


def failed(**witness: object) -> CheckResult:
    return CheckResult(False, witness)
