"""Exact arithmetic for divisor-count extremes of monic polynomials over F_q.

The package computes, with integer arithmetic only, the maximum T(n) of the
divisor-count function over monic polynomials of each degree n, the full set
of factorization patterns attaining it, and the distinguished family of
"superior" maximizers that certifies two-sided bounds on T.  Floating point
appears solely in display strings.

Importing the package loads none of its modules: a public name loads its
home module the first time it is read (PEP 562), so a process pays only
for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    "DegreeMaximum": "divisor_core",
    "ExponentPattern": "divisor_core",
    "HCRecord": "hc_engine",
    "IrreducibleTable": "irreducibles",
    "LogBound": "bounds",
    "PolyFq": "gf_poly",
    "RawDegreeMaximum": "divisor_core",
    "SPoint": "superior",
    "ShcPolynomial": "superior",
    "SshcEntry": "superior",
    "TBoundCertificate": "bounds",
    "annotate_markers": "hc_engine",
    "brute_force_T": "divisor_core",
    "count_irreducibles": "irreducibles",
    "enumerate_irreducibles": "irreducibles",
    "enumerate_spoints": "superior",
    "epsilon_bounds": "bounds",
    "exponent_at": "superior",
    "exponents_monotone": "divisor_core",
    "factor_pattern": "divisor_core",
    "format_factored": "divisor_core",
    "format_poly": "gf_poly",
    "hc_table": "hc_engine",
    "iter_spoints": "superior",
    "locate_anchor": "bounds",
    "mobius": "irreducibles",
    "order_key": "gf_poly",
    "pattern": "divisor_core",
    "pattern_degree": "divisor_core",
    "pattern_tau": "divisor_core",
    "pattern_union": "divisor_core",
    "poly_divrem": "gf_poly",
    "poly_mul": "gf_poly",
    "raw_polynomial_T": "divisor_core",
    "realization_count": "divisor_core",
    "realize_polynomials": "divisor_core",
    "shc_pattern": "superior",
    "spoint_compare": "superior",
    "sshc_family": "superior",
    "verify_T_bounds": "bounds",
    "verify_pair_uniqueness": "superior",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    # reached only for a name not yet in the package's globals; an unknown
    # name raises AttributeError, so getattr(hcpoly, name, None) stays None
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
