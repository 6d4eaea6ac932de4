import pytest
from hypothesis import given
from hypothesis import strategies as st

from hcpoly.gf_poly import (
    PolyFq,
    _digit_table,
    _mul_raw,
    format_poly,
    format_poly_digits,
    is_prime,
    order_key,
    parse_poly,
    poly_divrem,
    poly_from_key,
    poly_mul,
    product_keys,
)


def all_monic(q, degree):
    return [poly_from_key(q, key) for key in range(q**degree, 2 * q**degree)]


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(-7)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        PolyFq(4, (1,))  # q must be prime
    with pytest.raises(ValueError):
        PolyFq(2, ())
    with pytest.raises(ValueError):
        PolyFq(2, (1, 0))  # trailing zero: not monic as written
    with pytest.raises(ValueError):
        PolyFq(3, (0, 2))  # leading coefficient 2
    with pytest.raises(ValueError):
        PolyFq(2, (2, 1))  # coefficient out of range


def test_degree_and_str():
    f = PolyFq(2, (1, 0, 1, 1, 1, 1))
    assert f.degree == 5
    assert str(f) == "t^5+t^4+t^3+t^2+1"
    assert str(PolyFq(2, (1,))) == "1"
    assert str(PolyFq(3, (2, 1))) == "t+2"


def test_poly_mul_examples():
    t = PolyFq(2, (0, 1))
    t1 = PolyFq(2, (1, 1))
    t2t1 = PolyFq(2, (1, 1, 1))
    assert poly_mul(t1, t2t1) == PolyFq(2, (1, 0, 0, 1))  # (t+1)(t^2+t+1) = t^3+1
    assert poly_mul(t, t) == PolyFq(2, (0, 0, 1))
    assert poly_mul(t1, PolyFq(2, (1,))) == t1
    with pytest.raises(ValueError):
        poly_mul(t, PolyFq(3, (0, 1)))


def test_poly_divrem_examples():
    q2 = lambda *coeffs: PolyFq(2, coeffs)
    # t^2+t = t*(t+1): quotient t, remainder 0
    assert poly_divrem(q2(0, 1, 1), q2(1, 1)) == ((0, 1), ())
    # t^2+t+1 = t*(t+1) + 1
    assert poly_divrem(q2(1, 1, 1), q2(0, 1)) == ((1, 1), (1,))
    f = q2(1, 0, 1, 1)
    assert poly_divrem(f, f) == ((1,), ())
    # degree of divisor exceeds dividend: zero quotient
    assert poly_divrem(q2(1, 1), q2(1, 1, 1)) == ((), (1, 1))


@given(st.integers(2, 30), st.integers(0, 6), st.integers(0, 5), st.data())
def test_divrem_recombines(seed, da, db, data):
    q = [2, 3, 5][seed % 3]
    a = poly_from_key(q, data.draw(st.integers(q**da, 2 * q**da - 1)))
    b = poly_from_key(q, data.draw(st.integers(q**db, 2 * q**db - 1)))
    quot, rem = poly_divrem(a, b)
    assert len(rem) < len(b.coeffs)
    recombined = list(_mul_raw(quot, b.coeffs, q)) + [0] * len(a.coeffs)
    for i, c in enumerate(rem):
        recombined[i] = (recombined[i] + c) % q
    assert tuple(recombined[: len(a.coeffs)]) == a.coeffs


def test_order_key_examples():
    assert order_key(PolyFq(2, (0, 1))) == 2
    assert order_key(PolyFq(2, (1, 1))) == 3
    assert order_key(PolyFq(2, (1, 0, 1, 1, 1, 1))) == 61
    assert order_key(PolyFq(3, (2, 1))) == 5


@pytest.mark.parametrize("q", [2, 3])
def test_order_key_injective_and_ranged(q):
    seen = set()
    for degree in range(0, 5):
        for f in all_monic(q, degree):
            key = order_key(f)
            assert q**degree <= key < 2 * q**degree
            assert key not in seen
            seen.add(key)
            assert poly_from_key(q, key) == f


@given(st.integers(0, 4), st.integers(1, 4), st.data())
def test_order_key_grows_under_multiplication(da, db, data):
    a = poly_from_key(2, data.draw(st.integers(2**da, 2 ** (da + 1) - 1)))
    b = poly_from_key(2, data.draw(st.integers(2**db, 2 ** (db + 1) - 1)))
    assert order_key(poly_mul(a, b)) > order_key(a)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_parse_format_round_trip(q):
    for degree in range(0, 4):
        for f in all_monic(q, degree):
            assert parse_poly(format_poly(f), q) == f
            if q <= 10:
                assert parse_poly(format_poly_digits(f), q) == f


def test_parse_accepts_spaces_and_digits():
    assert parse_poly("t^2 + t + 1", 2) == PolyFq(2, (1, 1, 1))
    assert parse_poly("111101", 2) == PolyFq(2, (1, 0, 1, 1, 1, 1))
    assert parse_poly("1", 2) == PolyFq(2, (1,))
    assert parse_poly("t^2+2t+1", 3) == PolyFq(3, (1, 2, 1))
    with pytest.raises(ValueError):
        parse_poly("t^2+2t+1", 2)  # coefficient 2 over F_2


def test_parse_rejects_junk():
    for text in ["", "t+t", "t^1", "0", "t+2", "t-1", "t^2+0", "3t", "t^"]:
        with pytest.raises(ValueError):
            parse_poly(text, 2)
    with pytest.raises(ValueError):
        parse_poly("211", 3)  # leading digit 2: not monic
    with pytest.raises(ValueError):
        parse_poly("t+1", 6)  # modulus not prime


def test_format_digits_needs_small_q():
    with pytest.raises(ValueError):
        format_poly_digits(PolyFq(11, (1, 1)))


def _reference_product_keys(q, n, d, low_keys):
    """product_keys by poly_mul and order_key, one product at a time."""
    lows = [poly_from_key(q, key) for key in low_keys]
    return [
        order_key(poly_mul(low, high))
        for high in all_monic(q, n - d)
        for low in lows
    ]


@pytest.mark.parametrize(
    "q, n, d",
    [
        (2, 0, 0),
        (2, 1, 0),
        (2, 9, 0),
        (2, 9, 3),
        (2, 10, 5),
        (2, 13, 6),
        (2, 14, 7),
        (3, 8, 0),
        (3, 8, 3),
        (3, 8, 4),
        (11, 4, 1),
        (11, 4, 2),
        (127, 2, 0),
        (127, 2, 1),
    ],
)
def test_product_keys_match_reference(q, n, d):
    width = ((n // 2 + 1) * (q - 1) ** 2).bit_length()
    # q=2 and q=3 read their fields through a digit table; q=11 and q=127
    # have fields too wide for two to share a table, and reduce each one
    assert (_digit_table(q, width) is not None) == (q <= 3)
    # the reference fixes the yield order too: h slowest, in key order, and
    # g in the order of low_keys
    every_low = range(q**d, 2 * q**d)
    assert list(product_keys(q, n, d, every_low)) == _reference_product_keys(q, n, d, every_low)
    # a subset of low keys, as the irreducible sieve passes, here in reverse
    some_low = [key for key in reversed(every_low) if key % 3 != 1]
    assert list(product_keys(q, n, d, some_low)) == _reference_product_keys(q, n, d, some_low)


def test_digit_tables_stay_small():
    for q in (2, 3, 5, 7, 11, 127):
        for width in range(1, 33):
            table = _digit_table(q, width)
            if table is not None:
                assert len(table) <= 2**12
                assert len(table) == 2 ** (12 // width * width)
    assert _digit_table(2, 4) is not None
    assert _digit_table(2, 7) is None
