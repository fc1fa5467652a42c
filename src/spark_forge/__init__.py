"""Exact construction and certification of spark-tight dictionaries built
from mutually unbiased bases over GF(2^m)."""

from .designs import (
    INFINITY,
    CollisionTable,
    IncidenceNet,
    LatinSquare,
    build_net,
    collision_table,
    latin_square,
    verify_collision_table,
    verify_mols,
    verify_net,
)
from .dictionaries import (
    BruteForceResult,
    ScaledDictionary,
    SparkCertificate,
    SparseVector,
    apply,
    build_dictionary,
    build_dictionary_thm1,
    build_dictionary_thm2,
    build_null_vector,
    build_null_vector_thm1,
    build_null_vector_thm2,
    coherence,
    exact_rank,
    spark_bruteforce,
    spark_certify,
    uniqueness_threshold,
)
from .gf import FieldContext
from .hadamard import (
    SignMatrix,
    flip_upper_bits_table,
    permuted_hadamard,
    sylvester,
    verify_coset_antisymmetry,
    verify_row_antisymmetry,
)
from .mub import ScaledBasis, build_basis, verify_mub
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CheckReport",
    "CollisionTable",
    "FieldContext",
    "INFINITY",
    "IncidenceNet",
    "LatinSquare",
    "ScaledBasis",
    "ScaledDictionary",
    "SignMatrix",
    "SparkCertificate",
    "SparseVector",
    "apply",
    "build_basis",
    "build_dictionary",
    "build_dictionary_thm1",
    "build_dictionary_thm2",
    "build_net",
    "build_null_vector",
    "build_null_vector_thm1",
    "build_null_vector_thm2",
    "coherence",
    "collision_table",
    "exact_rank",
    "flip_upper_bits_table",
    "latin_square",
    "permuted_hadamard",
    "spark_bruteforce",
    "spark_certify",
    "sylvester",
    "uniqueness_threshold",
    "verify_coset_antisymmetry",
    "verify_collision_table",
    "verify_mols",
    "verify_mub",
    "verify_net",
    "verify_row_antisymmetry",
]
