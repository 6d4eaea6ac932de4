import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcpoly.divisor_core import (
    DegreeMaximum,
    ExponentPattern,
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
from hcpoly.gf_poly import PolyFq, order_key, poly_mul


def build_poly(form, tbl):
    out = PolyFq(tbl.q, (1,))
    for index, exponent in form:
        for _ in range(exponent):
            out = poly_mul(out, tbl.prime(index))
    return out


def test_pattern_normalization():
    p = pattern(2, {1: [0, 2, 1], 3: []})
    assert p.classes == ((1, (2, 1)),)
    assert pattern(2, {}).classes == ()


def test_pattern_validation():
    with pytest.raises(ValueError):
        pattern(2, {1: [1, 1, 1]})  # only two linear irreducibles over F_2
    with pytest.raises(ValueError):
        ExponentPattern(2, ((1, (1, 2)),))  # must be non-increasing
    with pytest.raises(ValueError):
        ExponentPattern(2, ((2, (1,)), (1, (1,))))  # classes out of order
    with pytest.raises(ValueError):
        ExponentPattern(2, ((1, ()),))
    with pytest.raises(ValueError):
        ExponentPattern(2, ((1, (0,)),))
    with pytest.raises(ValueError):
        pattern(6, {1: [1]})  # not a prime power


def test_tau_and_degree_frozen():
    p = pattern(2, {1: [5, 5], 2: [2], 3: [1, 1], 4: [1, 1, 1]})
    assert pattern_tau(p) == 3456
    assert pattern_degree(p) == 32
    assert pattern_tau(pattern(2, {})) == 1
    assert pattern_degree(pattern(2, {})) == 0
    assert pattern_tau(pattern(2, {1: [2, 1]})) == 6
    assert pattern_degree(pattern(2, {1: [2, 1]})) == 3


def test_realization_count_examples():
    assert realization_count(pattern(2, {1: [2, 1]})) == 2
    assert realization_count(pattern(2, {1: [6, 6], 2: [2], 3: [1, 1], 4: [1, 1, 1], 5: [1]})) == 6
    assert realization_count(pattern(2, {1: [1, 1]})) == 1
    assert realization_count(pattern(2, {1: [1]})) == 2
    assert realization_count(pattern(2, {})) == 1
    assert realization_count(pattern(3, {1: [2, 1]})) == 6  # 3 slots, entries 2,1,0


def test_realize_examples(tbl_q2):
    assert realize_polynomials(pattern(2, {1: [1]}), tbl_q2) == [((1, 1),), ((2, 1),)]
    assert realize_polynomials(pattern(2, {1: [2, 2], 2: [1]}), tbl_q2) == [
        ((1, 2), (2, 2), (3, 1))
    ]
    assert realize_polynomials(pattern(2, {}), tbl_q2) == [()]
    two = realize_polynomials(pattern(2, {1: [2, 1]}), tbl_q2)
    assert two == [((1, 2), (2, 1)), ((1, 1), (2, 2))]


def test_realize_row_order_highest_class_slowest(tbl_q2):
    # degree-12 block: degree-3 prime choice is the outer key
    forms = realize_polynomials(pattern(2, {1: [4, 3], 2: [1], 3: [1]}), tbl_q2)
    assert forms == [
        ((1, 4), (2, 3), (3, 1), (4, 1)),
        ((1, 3), (2, 4), (3, 1), (4, 1)),
        ((1, 4), (2, 3), (3, 1), (5, 1)),
        ((1, 3), (2, 4), (3, 1), (5, 1)),
    ]


def test_realize_counts_match(tbl_q2, records_q2):
    for record in records_q2:
        for p in record.patterns:
            forms = realize_polynomials(p, tbl_q2)
            assert len(forms) == realization_count(p)
            assert len(set(forms)) == len(forms)


def test_realize_depth_error(tbl_q2):
    from hcpoly.irreducibles import enumerate_irreducibles

    shallow = enumerate_irreducibles(2, 1)
    with pytest.raises(ValueError):
        realize_polynomials(pattern(2, {2: [1]}), shallow)


def test_format_factored():
    assert format_factored(((1, 2), (3, 1))) == "P_1^2 P_3^1"
    assert format_factored(()) == "1"


def test_factor_pattern_round_trip(tbl_q2):
    for p in [
        pattern(2, {1: [3, 2]}),
        pattern(2, {1: [2, 1], 2: [1]}),
        pattern(2, {1: [1]}),
        pattern(2, {}),
        pattern(2, {1: [4, 4], 2: [2], 3: [1, 1], 4: [1]}),
    ]:
        for form in realize_polynomials(p, tbl_q2):
            assert factor_pattern(build_poly(form, tbl_q2), tbl_q2) == p


def test_factor_pattern_depth_error(tbl_q2):
    from hcpoly.irreducibles import enumerate_irreducibles

    shallow = enumerate_irreducibles(2, 1)
    f = build_poly(((3, 1),), tbl_q2)  # the degree-2 irreducible
    with pytest.raises(ValueError):
        factor_pattern(f, shallow)


_T_Q2 = [
    1, 2, 4, 6, 9, 12, 18, 24, 32, 40, 50, 64, 80, 100, 128, 160, 200, 240, 300, 360,
    432, 504, 600, 720, 864, 1008, 1200, 1440, 1728, 2016, 2400, 2880, 3456, 4032,
    4704, 5376, 6272, 7168, 8192, 9408,
]


def test_brute_force_frozen_row(oracle_q2):
    assert [entry.tau for entry in oracle_q2] == _T_Q2
    assert all(entry.degree == n for n, entry in enumerate(oracle_q2))
    for entry in oracle_q2:
        for p in entry.patterns:
            assert pattern_degree(p) == entry.degree
            assert pattern_tau(p) == entry.tau


def test_brute_force_examples(oracle_q2):
    assert oracle_q2[2].tau == 4
    assert oracle_q2[2].patterns == (pattern(2, {1: [1, 1]}),)
    assert oracle_q2[5].tau == 12
    assert sum(realization_count(p) for p in oracle_q2[5].patterns) == 4
    assert oracle_q2[0] == DegreeMaximum(0, 1, (pattern(2, {}),))


def test_pruned_and_unpruned_agree():
    for q, depth in [(2, 12), (3, 10)]:
        pruned = brute_force_T(q, depth, prune=True)
        free = brute_force_T(q, depth, prune=False)
        for a, b in zip(pruned, free):
            assert a.tau == b.tau
            assert set(a.patterns) == set(b.patterns)


def test_brute_force_monotone_maximum(oracle_q2):
    taus = [entry.tau for entry in oracle_q2]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def _check_raw_against_patterns(q, max_degree, tbl):
    raw = raw_polynomial_T(q, max_degree)
    patterned = brute_force_T(q, max_degree)
    for n in range(max_degree + 1):
        assert raw[n].degree == n
        assert raw[n].tau == patterned[n].tau
        assert len(raw[n].maximizers) == sum(
            realization_count(p) for p in patterned[n].patterns
        )
        # multiplied out, the realized patterns are exactly the raw maximizers
        realized = {
            build_poly(form, tbl)
            for p in patterned[n].patterns
            for form in realize_polynomials(p, tbl)
        }
        assert realized == set(raw[n].maximizers)


def test_raw_oracle_agrees_with_patterns(tbl_q2):
    _check_raw_against_patterns(2, 10, tbl_q2)


def test_raw_oracle_generic_field(tbl_q3):
    _check_raw_against_patterns(3, 6, tbl_q3)
    assert raw_polynomial_T(3, 0)[0].maximizers == (PolyFq(3, (1,)),)


def test_raw_oracle_frozen_values():
    raw = raw_polynomial_T(2, 10)
    assert [r.tau for r in raw] == [1, 2, 4, 6, 9, 12, 18, 24, 32, 40, 50]
    for r in raw:
        keys = [order_key(f) for f in r.maximizers]
        assert keys == sorted(keys)
        assert all(f.degree == r.degree for f in r.maximizers)
    assert [order_key(f) for f in raw[5].maximizers] == [36, 40, 54, 60]
    with pytest.raises(ValueError):
        raw_polynomial_T(2, -1)
    with pytest.raises(ValueError):
        raw_polynomial_T(4, 2)  # a prime power, but PolyFq needs a prime field


def test_exponents_monotone():
    assert exponents_monotone(pattern(2, {}))
    assert exponents_monotone(pattern(2, {1: [3]}))
    assert exponents_monotone(pattern(2, {1: [3, 2], 2: [2], 3: [1, 1]}))
    assert not exponents_monotone(pattern(2, {2: [1]}))  # class gap
    assert not exponents_monotone(pattern(2, {1: [3], 2: [1]}))  # class 1 not full
    assert not exponents_monotone(pattern(2, {1: [1, 1], 2: [2]}))  # exponent rises


def _random_disjoint_union_case(rng, q):
    from hcpoly.irreducibles import count_irreducibles

    left = {}
    right = {}
    for k in range(1, rng.randint(1, 4) + 1):
        available = count_irreducibles(q, k)
        take = rng.randint(0, min(available, 4))
        split = rng.randint(0, take)
        exps = [rng.randint(1, 6) for _ in range(take)]
        if exps[:split]:
            left[k] = exps[:split]
        if exps[split:]:
            right[k] = exps[split:]
    return pattern(q, left), pattern(q, right)


def test_tau_multiplicative_over_disjoint_unions():
    rng = random.Random(20240817)
    for _ in range(300):
        q = rng.choice([2, 3, 5])
        a, b = _random_disjoint_union_case(rng, q)
        union = pattern_union(a, b)
        assert pattern_tau(union) == pattern_tau(a) * pattern_tau(b)
        assert pattern_degree(union) == pattern_degree(a) + pattern_degree(b)


def test_pattern_union_overflow_rejected():
    with pytest.raises(ValueError):
        pattern_union(pattern(2, {2: [1]}), pattern(2, {2: [2]}))  # only one slot at degree 2
    with pytest.raises(ValueError):
        pattern_union(pattern(2, {1: [1]}), pattern(3, {1: [1]}))


@given(st.integers(0, 11))
def test_brute_force_prefixes_consistent(n):
    # T at degree n is independent of the enumeration bound
    full = brute_force_T(2, 11)
    short = brute_force_T(2, n)
    assert short[n].tau == full[n].tau
    assert set(short[n].patterns) == set(full[n].patterns)
