"""Exact-arithmetic construction and verification of DNA cyclic codes
over F2[u]/(u^6) and DNA skew cyclic codes over F2+vF2."""

from . import codons, cyclic, gf2poly, lanes, metrics, reference_tables, ring64, skew
from .codons import canonical_table, dna_complement, dna_reverse_complement
from .cyclic import CyclicCodeR, single_generator_code
from .gf2poly import Gf2Poly, divisors_of_xn_minus_1, factor_xn_minus_1
from .metrics import EditCostTable, edit_distance, hamming_distance, min_pairwise
from .skew import SkewCode

__version__ = "0.1.0"

__all__ = [
    "codons",
    "cyclic",
    "gf2poly",
    "lanes",
    "metrics",
    "reference_tables",
    "ring64",
    "skew",
    "canonical_table",
    "dna_complement",
    "dna_reverse_complement",
    "CyclicCodeR",
    "single_generator_code",
    "Gf2Poly",
    "divisors_of_xn_minus_1",
    "factor_xn_minus_1",
    "EditCostTable",
    "edit_distance",
    "hamming_distance",
    "min_pairwise",
    "SkewCode",
    "__version__",
]
