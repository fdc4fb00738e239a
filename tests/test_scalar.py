from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossg2 import scalar
from crossg2.scalar import ONE, SQRT6, SQRT10, SQRT15, ZERO, Scalar

scalars = st.builds(Scalar,
                    st.integers(-60, 60), st.integers(-60, 60),
                    st.integers(-60, 60), st.integers(-60, 60),
                    st.integers(1, 24))


def test_radical_products():
    assert SQRT6 * SQRT6 == Scalar.of(6)
    assert SQRT6 * SQRT10 == Scalar.of(2) * SQRT15
    assert SQRT6 * SQRT15 == Scalar.of(3) * SQRT10
    assert SQRT10 * SQRT15 == Scalar.of(5) * SQRT6


def test_spec_examples():
    half_r6 = SQRT6 / Scalar.of(2)
    assert half_r6 * half_r6 == Scalar.rational(3, 2)
    assert ONE / SQRT6 == SQRT6 / Scalar.of(6)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_canonical_reduction():
    x = Scalar(2, 4, 6, 8, 10)
    assert (x.na, x.nb, x.nc, x.nd, x.q) == (1, 2, 3, 4, 5)
    y = Scalar(1, 0, 0, 0, -2)
    assert (y.na, y.q) == (-1, 2)


def test_coordinate_properties():
    x = Scalar(3, -2, 5, 1, 12)
    assert x.a == Fraction(3, 12)
    assert x.b == Fraction(-2, 12)
    assert x.c == Fraction(5, 12)
    assert x.d == Fraction(1, 12)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ZERO
    assert x * ONE == x


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_inverse(x):
    if x:
        assert x * x.inverse() == ONE


def test_sign_examples():
    assert ZERO.sign() == 0
    assert (SQRT6 - Scalar.of(2)).sign() == 1          # 6 > 4
    # squaring oracle: both terms positive and 5^2 = 25 > 24 = (2 r6)^2
    five, two_r6 = Scalar.of(5), Scalar.of(2) * SQRT6
    assert (five * five - two_r6 * two_r6) == Scalar.of(1)
    assert (five - two_r6).sign() == 1
    assert (two_r6 - five).sign() == -1
    # a nearly-cancelling combination, forced through refinement
    tight = Scalar.of(4) * SQRT6 - Scalar.of(3) * SQRT10 - Scalar(1, 0, 0, 0, 4)
    approx = (tight.na + tight.nb * 6 ** 0.5 + tight.nc * 10 ** 0.5
              + tight.nd * 15 ** 0.5) / tight.q   # float oracle
    assert tight.sign() == (1 if approx > 0 else -1)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()
    assert (x.sign() * x.sign() == 1) == bool(x)


def test_ordering():
    assert SQRT6 < SQRT10 < SQRT15
    assert Scalar.of(2) < SQRT6


@settings(max_examples=60, deadline=None)
@given(scalars)
def test_text_roundtrip(x):
    assert Scalar.parse(x.show()) == x


def test_parse_compact_forms():
    assert Scalar.parse("3/2") == Scalar.rational(3, 2)
    assert Scalar.parse("r6") == SQRT6
    assert Scalar.parse("1/2 + -1/3*r10") == Scalar.from_coeffs(
        Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(0))
    with pytest.raises(ValueError):
        Scalar.parse("2*r7")


@pytest.mark.parametrize("text", ["", "  ", "1/0", "1*r6*r10", "1e5", "r6*2"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError) as info:
        Scalar.parse(text)
    assert repr(text) in str(info.value)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("0123456789 /*+-.er16_r10r15x"))
       | st.text())
def test_parse_only_raises_value_error(text):
    try:
        x = Scalar.parse(text)
    except ValueError:
        return
    assert isinstance(x, Scalar)


def test_rational_values_equal_and_hash_like_fractions_and_ints():
    half = Scalar.rational(1, 2)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != Fraction(1, 3) and SQRT6 != Fraction(6)
    assert len({Scalar.of(1), 1}) == 1
    assert len({half, Fraction(1, 2)}) == 1


@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_rational_hash_matches_fraction(p, q):
    f = Fraction(p, q)
    assert Scalar.rational(p, q) == f
    assert hash(Scalar.rational(p, q)) == hash(f)


# components up to 2^70 in size, often zero, so that pure rationals, zero
# numerators over q > 1 and mixed values all occur
components = st.one_of(st.just(0), st.integers(-4, 4),
                       st.integers(-2 ** 70, 2 ** 70))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70),
                         st.integers(-2 ** 70, -1))


@st.composite
def wide_scalars(draw):
    na, nb, nc, nd = (draw(components) for _ in range(4))
    if draw(st.booleans()):
        nb = nc = nd = 0
    return Scalar(na, nb, nc, nd, draw(denominators))


def coords(x):
    return (Fraction(x.na, x.q), Fraction(x.nb, x.q),
            Fraction(x.nc, x.q), Fraction(x.nd, x.q))


def oracle_product(u, v):
    """The basis rules r6 r10 = 2 r15, r6 r15 = 3 r10, r10 r15 = 5 r6."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (a1 * a2 + 6 * b1 * b2 + 10 * c1 * c2 + 15 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 3 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + 2 * (b1 * c2 + c1 * b2))


def assert_canonical(x):
    assert all(type(n) is int for n in (x.na, x.nb, x.nc, x.nd, x.q))
    assert x.q > 0
    assert gcd(x.na, x.nb, x.nc, x.nd, x.q) == 1
    if not (x.na or x.nb or x.nc or x.nd):
        assert (x.na, x.nb, x.nc, x.nd, x.q) == (0, 0, 0, 0, 1)
    if not (x.nb or x.nc or x.nd):
        f = Fraction(x.na, x.q)
        assert x == f and hash(x) == hash(f)


@settings(max_examples=300, deadline=None)
@given(wide_scalars(), wide_scalars())
def test_arithmetic_matches_the_fraction_oracle(x, y):
    u, v = coords(x), coords(y)
    for x_op_y, expected in (
            (x + y, tuple(s + t for s, t in zip(u, v))),
            (x - y, tuple(s - t for s, t in zip(u, v))),
            (x * y, oracle_product(u, v)),
            (-x, tuple(-s for s in u))):
        assert_canonical(x_op_y)
        assert coords(x_op_y) == expected
    assert_canonical(x)
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert oracle_product(u, coords(inv)) == (1, 0, 0, 0)


@pytest.mark.parametrize("args", [
    (np.int64(2 ** 62), 0, 0, 0),       # would wrap when squared
    (0, 0, 0, 0, np.int64(3)),
    (Fraction(1, 2), 0, 0, 0),
    (1, 2, 3, 4, 1.0),
    (0.5, 0, 0, 0),
    (1, 0, 0, 0, Fraction(2)),
])
def test_components_must_be_python_ints(args):
    with pytest.raises(TypeError):
        Scalar(*args)


def test_of_takes_ints_bools_fractions_and_scalars():
    assert Scalar.of(True) == ONE and type(Scalar.of(True).na) is int
    assert Scalar.of(Fraction(-3, 6)) == Scalar.rational(-1, 2)
    assert Scalar.of(SQRT6) is SQRT6
    for bad in (np.int64(2), 0.5):
        with pytest.raises(TypeError):
            Scalar.of(bad)


def general_sum(x, y, sign=1):
    """x + sign * y over the common denominator, with no zero shortcut."""
    return Scalar(*(s * y.q + sign * t * x.q for s, t in zip(
        (x.na, x.nb, x.nc, x.nd), (y.na, y.nb, y.nc, y.nd))), x.q * y.q)


def sixteen_term_product(x, y):
    """All 16 products of the components, with no rational shortcut."""
    return Scalar(*oracle_product((x.na, x.nb, x.nc, x.nd),
                                  (y.na, y.nb, y.nc, y.nd)), x.q * y.q)


@settings(max_examples=300, deadline=None)
@given(wide_scalars(), wide_scalars())
def test_shortcuts_equal_the_general_sum_and_product(x, y):
    for u, v in ((x, y), (y, x), (x, ZERO), (ZERO, x), (x, Scalar(0, 0, 0, 0, 7))):
        assert u + v == general_sum(u, v)
        assert u - v == general_sum(u, v, -1)
        assert u * v == sixteen_term_product(u, v)
        for value in (u + v, u - v, u * v):
            assert_canonical(value)


def test_zero_operands_return_the_other_operand():
    x = Scalar(1, 2, 3, 4, 5)
    assert x + ZERO is x and ZERO + x is x and x - ZERO is x and x + 0 is x
    assert ZERO - x == -x
    assert x * ZERO is ZERO and ZERO * x is ZERO and x * 0 is ZERO
    assert Scalar.__radd__ is Scalar.__add__
    assert Scalar.__rmul__ is Scalar.__mul__


def test_reduction_constants():
    p = scalar.PRIME
    assert p < 2 ** 31 and p % 4 == 3
    assert all(p % d for d in range(2, isqrt(p) + 1))  # p is prime
    s, t, u = scalar.PRIME_R6, scalar.PRIME_R10, scalar.PRIME_R15
    assert (s * s % p, t * t % p, 2 * u % p) == (6, 10, s * t % p)
    assert [r.mod_p() for r in (SQRT6, SQRT10, SQRT15)] == [s, t, u]
    assert Scalar(2, 0, 0, 0, p).mod_p() is None
    assert Scalar(1, 1, 0, 0, 3 * p).mod_p() is None


@settings(max_examples=300, deadline=None)
@given(wide_scalars(), wide_scalars())
def test_reduction_is_a_ring_map(x, y):
    """On values whose denominator p does not divide; the oracle is the
    reduction of each numerator and the inverse of q mod p."""
    p = scalar.PRIME
    if x.q % p == 0 or y.q % p == 0:
        return
    fx, fy = x.mod_p(), y.mod_p()
    assert 0 <= fx < p
    assert fx == (x.na + x.nb * scalar.PRIME_R6 + x.nc * scalar.PRIME_R10
                  + x.nd * scalar.PRIME_R15) * pow(x.q, p - 2, p) % p
    assert (x + y).mod_p() == (fx + fy) % p
    assert (x - y).mod_p() == (fx - fy) % p
    assert (x * y).mod_p() == fx * fy % p
    if x:
        # a nonzero x may reduce to 0; its inverse then has p in its
        # denominator, else it reduces to the inverse of fx
        inv = x.inverse().mod_p()
        assert inv is None or inv * fx % p == 1
