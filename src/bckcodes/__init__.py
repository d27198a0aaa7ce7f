"""Finite BCK-algebras and binary block codes, in both directions.

The package converts BCK-algebras to block codes through cut functions,
rebuilds algebras from codes in the square unit-upper-triangular family
through their word order, lifts arbitrary codes into that family, and
exhaustively enumerates both sides at desk scale.
"""

from . import io  # text formats and reports, as `bckcodes.io`
from ._kernels import BACKEND_NAME
from .algebra import (
    AxiomCheck,
    AxiomReport,
    CayleyAlgebra,
    Poset,
    PropertyCheck,
    are_isomorphic,
    check_axioms,
    induced_order,
    is_commutative,
    is_implicative,
    pointwise_function_algebra,
)
from .census import (
    CensusReport,
    ClassEntry,
    census,
    enumerate_bck_algebras,
    label_canonical_code,
    quotient_classes,
)
from .codes import (
    BlockCode,
    Codeword,
    Comparison,
    MembershipCheck,
    compare_codes_lex,
    compare_codes_word,
    embed_matrix,
    ensure_all_ones,
    enumerate_triangular_codes,
    is_triangular_code,
    lex_sort_desc,
    staircase_code,
    word_leq,
)
from .construct import (
    ConstructionResult,
    RoundTripReport,
    RowMismatch,
    algebra_from_poset,
    construct_from_code,
    verify_roundtrip,
)
from .encode import (
    BckFunction,
    EquivalenceClasses,
    canonical_code,
    code_similar,
    cut_subset,
    equivalence_classes,
    generate_code,
)
from .errors import (
    BckError,
    InputError,
    InternalInvariantError,
    NotBckError,
    ParseError,
)
from .lift import (
    LiftResult,
    family_algebra,
    lift_code,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "AxiomCheck",
    "AxiomReport",
    "BckError",
    "BckFunction",
    "BlockCode",
    "CayleyAlgebra",
    "CensusReport",
    "ClassEntry",
    "Codeword",
    "Comparison",
    "ConstructionResult",
    "EquivalenceClasses",
    "InputError",
    "InternalInvariantError",
    "LiftResult",
    "MembershipCheck",
    "NotBckError",
    "ParseError",
    "Poset",
    "PropertyCheck",
    "RoundTripReport",
    "RowMismatch",
    "algebra_from_poset",
    "are_isomorphic",
    "canonical_code",
    "census",
    "check_axioms",
    "code_similar",
    "compare_codes_lex",
    "compare_codes_word",
    "construct_from_code",
    "cut_subset",
    "embed_matrix",
    "ensure_all_ones",
    "enumerate_bck_algebras",
    "enumerate_triangular_codes",
    "equivalence_classes",
    "family_algebra",
    "generate_code",
    "induced_order",
    "is_commutative",
    "is_implicative",
    "is_triangular_code",
    "label_canonical_code",
    "lex_sort_desc",
    "lift_code",
    "pointwise_function_algebra",
    "quotient_classes",
    "staircase_code",
    "verify_roundtrip",
    "word_leq",
]
