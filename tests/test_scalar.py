from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    assert tight.sign() == (1 if float(tight) > 0 else -1)


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
