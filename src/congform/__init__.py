"""Congruence lattices of finite algebras, closure operators on their
quotients, and the correspondence with reflective subcategories.

The central objects: a FiniteAlgebra is a carrier {0..n-1} with
operation tables; a Congruence is a compatible partition in canonical
encoding; a Universe is a finite family of algebras closed under
quotients; a ClosureOperator is an extensive natural family of maps on
the congruence fibres over a universe; a Reflector assigns to every
member its reflection congruence into a subcategory.  ``reflection``
converts between the last two and verifies that the conversions are
mutually inverse; ``instances`` provides worked examples (nilradical,
trivial quandles, abelianization), each read off its laws, together with
corpora to test them on.
"""

from .algebras import (
    COMMUTATIVE_RNG_SIGNATURE,
    Congruence,
    FiniteAlgebra,
    GROUP_SIGNATURE,
    Homomorphism,
    QUANDLE_SIGNATURE,
    Signature,
    algebra_from_json,
    algebra_to_json,
    automorphisms,
    canonical_algebra,
    compose,
    con_lattice,
    congruence_from_blocks,
    congruence_to_blocks,
    diagonal,
    enumerate_homs,
    enumerate_surjections,
    find_embedding,
    find_isomorphism,
    full,
    generated_congruence,
    homomorphism,
    identity_hom,
    join,
    meet,
    quotient,
    validate_algebra,
)
from .errors import CheckResult, CongformError
from .forms import (
    image_congruence,
    leq,
    lifts,
    preimage_congruence,
)
from .instances import (
    BUILTIN_OPERATOR_NAMES,
    builtin_operator,
    corpus,
    corpus_manifest,
    cyclic_group,
    cyclic_rng,
    dihedral_group,
    klein_four_group,
    symmetric_group,
)
from .operators import (
    ClosureOperator,
    Universe,
    enumerate_operators,
    is_cohereditary,
    is_idempotent,
    is_minimal,
    is_natural_along_homs,
    make_operator,
    operator_leq,
    operator_report,
    preserves_cocartesian,
    quotient_maps,
    universe,
    universe_from_generators,
)
from .reflection import (
    Reflector,
    SubcategoryPredicate,
    antitone_check,
    closed_under_quotients,
    closure_from_reflector,
    oracle_reflection,
    oracle_reflector,
    predicate_from_laws,
    predicate_from_operator,
    reflector_from_closure,
    roundtrip_closure,
    roundtrip_reflector,
    subcategory_members,
)
from .terms import (
    Equation,
    QuasiEquation,
    Term,
    app,
    satisfies_equations,
    var,
)
from .verify import run_verification

__version__ = "0.1.0"
