"""Exact construction and certification of spark-tight dictionaries built
from mutually unbiased bases over GF(2^m)."""

from .designs import (
    INFINITY,
    block_labels,
    build_net,
    collision_table,
    latin_square,
    verify_collision_table,
    verify_mols,
    verify_net,
)
from .dictionaries import (
    BruteForceResult,
    Construction,
    GramCheck,
    ScaledDictionary,
    SparkCertificate,
    SparseVector,
    apply,
    build_dictionary,
    build_null_vector,
    construct,
    exact_rank,
    gram_check,
    spark_bruteforce,
    spark_certify,
    uniqueness_threshold,
)
from .gf import FieldContext
from .hadamard import (
    flip_upper_bits_table,
    permuted_hadamard,
    sylvester,
    verify_coset_antisymmetry,
    verify_row_antisymmetry,
)
from .mub import build_basis
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CheckReport",
    "Construction",
    "FieldContext",
    "GramCheck",
    "INFINITY",
    "ScaledDictionary",
    "SparkCertificate",
    "SparseVector",
    "apply",
    "block_labels",
    "build_basis",
    "build_dictionary",
    "build_net",
    "build_null_vector",
    "collision_table",
    "construct",
    "exact_rank",
    "flip_upper_bits_table",
    "gram_check",
    "latin_square",
    "permuted_hadamard",
    "spark_bruteforce",
    "spark_certify",
    "sylvester",
    "uniqueness_threshold",
    "verify_coset_antisymmetry",
    "verify_collision_table",
    "verify_mols",
    "verify_net",
    "verify_row_antisymmetry",
]
