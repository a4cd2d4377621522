"""Exception types and the check-outcome value shared by all modules.

Two error families matter to callers (and to the CLI's exit codes):
``InputError`` for malformed or out-of-contract inputs, ``CheckFailure``
for mathematical checks that ran and failed.  Failures carry a small
JSON-able ``witness`` dict pinpointing the offending data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


class CongformError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, witness: Optional[dict] = None):
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
    """Operator file is not an object with 'entries' of congruence/closure block lists."""


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


class InvalidIdeal(InputError):
    """Element set is not an ideal of the rng."""


class SizeTooLarge(InputError):
    """Requested corpus or canonicalization size above the supported bound."""


class UniverseMismatch(InputError):
    """Operators or algebras do not belong to the same universe."""


class UniverseNotQuotientClosed(InputError):
    """Operation requires a quotient-closed universe."""


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


class CompositeNotCongruence(CheckFailure):
    """A relation composite expected to be a congruence is not one."""


class NotReflective(CheckFailure):
    """A predicate or congruence family fails the reflection property."""


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a witness for the failing (or notable) case.

    Truthiness follows ``ok``, so results can be used directly in
    ``assert`` and ``if``; the witness is a JSON-able dict.
    """

    ok: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok

    def as_json(self) -> dict:
        out: dict[str, Any] = {"ok": self.ok}
        if self.witness:
            out["witness"] = self.witness
        return out


PASSED = CheckResult(True)


def failed(**witness: Any) -> CheckResult:
    return CheckResult(False, witness)
