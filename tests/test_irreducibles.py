import pytest

from hcpoly.gf_poly import order_key, poly_divrem, poly_from_key
from hcpoly.irreducibles import (
    count_irreducibles,
    enumerate_irreducibles,
    ensure_prime_power,
    mobius,
    prime_power_base,
)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert mobius(30) == -1
    assert mobius(36) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_prime_power_base():
    assert prime_power_base(2) == (2, 1)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(32) == (2, 5)
    assert prime_power_base(6) is None
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None
    ensure_prime_power(49)
    with pytest.raises(ValueError):
        ensure_prime_power(10)


def test_count_irreducibles_frozen_values():
    assert [count_irreducibles(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [count_irreducibles(3, n) for n in range(1, 5)] == [3, 3, 8, 18]
    assert [count_irreducibles(4, n) for n in range(1, 4)] == [4, 6, 20]
    assert [count_irreducibles(5, n) for n in range(1, 4)] == [5, 10, 40]


def test_count_irreducibles_validation():
    with pytest.raises(ValueError):
        count_irreducibles(6, 3)
    with pytest.raises(ValueError):
        count_irreducibles(2, 0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gauss_identity(q):
    # sum over d | n of d * pi(d) recovers q**n exactly
    for n in range(1, 9):
        total = sum(d * count_irreducibles(q, d) for d in range(1, n + 1) if n % d == 0)
        assert total == q**n


def test_enumerate_q2_depth5_matches_known_keys(tbl_q2):
    keys = [order_key(p) for p in enumerate_irreducibles(2, 5).primes]
    assert keys == [2, 3, 7, 11, 13, 19, 25, 31, 37, 41, 47, 55, 59, 61]


def test_table_layout(tbl_q2):
    assert len(tbl_q2) == sum(count_irreducibles(2, n) for n in range(1, 9))
    for k in range(1, 9):
        group = tbl_q2.primes[tbl_q2.degree_offsets[k] : tbl_q2.degree_offsets[k + 1]]
        assert len(group) == count_irreducibles(2, k)
        assert all(p.degree == k for p in group)
    keys = [order_key(p) for p in tbl_q2.primes]
    assert keys == sorted(keys)
    assert tbl_q2.prime(1) == poly_from_key(2, 2)
    assert tbl_q2.prime(3) == poly_from_key(2, 7)
    with pytest.raises(ValueError):
        tbl_q2.prime(0)
    with pytest.raises(ValueError):
        tbl_q2.prime(len(tbl_q2) + 1)
    assert tbl_q2.degree_offsets[-1] == len(tbl_q2)


@pytest.mark.parametrize("q,depth", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_enumeration_against_divisibility_oracle(q, depth):
    # irreducible <=> no monic divisor of degree 1..deg-1; checked by raw scan
    def divides(d, f):
        return poly_divrem(f, d)[1] == ()

    table = enumerate_irreducibles(q, depth)
    listed = {order_key(p) for p in table.primes}
    for degree in range(1, depth + 1):
        for key in range(q**degree, 2 * q**degree):
            f = poly_from_key(q, key)
            has_factor = any(
                divides(poly_from_key(q, dkey), f)
                for d in range(1, degree)
                for dkey in range(q**d, 2 * q**d)
            )
            assert (key in listed) == (not has_factor)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_irreducibles(4, 3)  # counting-only field size
    with pytest.raises(ValueError):
        enumerate_irreducibles(2, -1)
    assert len(enumerate_irreducibles(2, 0)) == 0
