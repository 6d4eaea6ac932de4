"""Exact arithmetic for divisor-count extremes of monic polynomials over F_q.

The package computes, with integer arithmetic only, the maximum T(n) of the
divisor-count function over monic polynomials of each degree n, the full set
of factorization patterns attaining it, and the distinguished family of
"superior" maximizers that certifies two-sided bounds on T.  Floating point
appears solely in display strings.
"""

from .bounds import (
    LogBound,
    TBoundCertificate,
    epsilon_bounds,
    locate_anchor,
    verify_T_bounds,
)
from .divisor_core import (
    DegreeMaximum,
    ExponentPattern,
    RawDegreeMaximum,
    brute_force_T,
    exponents_monotone,
    factor_pattern,
    format_factored,
    pattern,
    pattern_degree,
    pattern_tau,
    pattern_union,
    raw_polynomial_T,
    realization_count,
    realize_polynomials,
)
from .gf_poly import PolyFq, format_poly, order_key, poly_divrem, poly_mul
from .hc_engine import HCRecord, annotate_markers, hc_table
from .irreducibles import IrreducibleTable, count_irreducibles, enumerate_irreducibles, mobius
from .superior import (
    SPoint,
    ShcPolynomial,
    SshcEntry,
    enumerate_spoints,
    exponent_at,
    iter_spoints,
    shc_pattern,
    spoint_compare,
    sshc_family,
    verify_pair_uniqueness,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeMaximum",
    "ExponentPattern",
    "HCRecord",
    "IrreducibleTable",
    "LogBound",
    "PolyFq",
    "RawDegreeMaximum",
    "SPoint",
    "ShcPolynomial",
    "SshcEntry",
    "TBoundCertificate",
    "annotate_markers",
    "brute_force_T",
    "count_irreducibles",
    "enumerate_irreducibles",
    "enumerate_spoints",
    "epsilon_bounds",
    "exponent_at",
    "exponents_monotone",
    "factor_pattern",
    "format_factored",
    "format_poly",
    "hc_table",
    "iter_spoints",
    "locate_anchor",
    "mobius",
    "order_key",
    "pattern",
    "pattern_degree",
    "pattern_tau",
    "pattern_union",
    "poly_divrem",
    "poly_mul",
    "raw_polynomial_T",
    "realization_count",
    "realize_polynomials",
    "shc_pattern",
    "spoint_compare",
    "sshc_family",
    "verify_T_bounds",
    "verify_pair_uniqueness",
]
