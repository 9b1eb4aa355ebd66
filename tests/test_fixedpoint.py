from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlof.fixedpoint import (
    FixedPoint,
    FixedPointOverflowError,
    FormatMismatchError,
    encode,
    q_add,
    q_div,
    q_max,
    q_mul_add,
    zero,
)


def test_encode_examples():
    assert encode(0.0, 8, 6).bits == 0
    assert encode(1.0, 8, 6).bits == 64
    x = encode(0.3, 8, 6)
    assert x.bits == 19
    assert x.value == 0.296875


def test_encode_round_trip_error():
    rng = np.random.default_rng(0)
    for v in rng.random(200) * 3.9:
        x = encode(float(v), 8, 6)
        assert abs(x.value - v) <= 2 ** (-7) + 1e-15


def test_encode_overflow():
    with pytest.raises(FixedPointOverflowError):
        encode(4.0, 8, 6)
    with pytest.raises(FixedPointOverflowError):
        encode(-0.1, 8, 6)
    # Rounding past the top of the register is also an overflow.
    with pytest.raises(FixedPointOverflowError):
        encode(3.9999999, 8, 6)


def test_bad_formats_rejected():
    with pytest.raises(Exception):
        FixedPoint(0, 8, 8)
    with pytest.raises(Exception):
        FixedPoint(256, 8, 6)
    with pytest.raises(FormatMismatchError):
        q_add(encode(0.5, 8, 6), encode(0.5, 8, 4))


def test_q_add_examples():
    x = encode(0.3, 8, 6)
    assert q_add(x, zero(8, 6)).bits == 19
    assert q_add(FixedPoint(200, 8, 6), FixedPoint(100, 8, 6)).bits == 44  # 300 mod 256


def test_q_add_exhaustive_w4():
    for a in range(16):
        for b in range(16):
            assert q_add(FixedPoint(a, 4, 2), FixedPoint(b, 4, 2)).bits == (a + b) % 16


def test_q_add_associative_commutative_exhaustive_w4():
    vals = [FixedPoint(b, 4, 2) for b in range(16)]
    for x in vals:
        for y in vals:
            assert q_add(x, y) == q_add(y, x)
            for z in vals:
                assert q_add(q_add(x, y), z) == q_add(x, q_add(y, z))


def test_q_mul_add_identity_widens():
    one = encode(1.0, 8, 6)
    rng = np.random.default_rng(1)
    for v in rng.random(50) * 3.9:
        y = encode(float(v), 8, 6)
        out = q_mul_add(one, y, zero(16, 12))
        assert out == FixedPoint(y.bits << y.frac, 16, 12)  # y embedded in (2w, 2f)
        assert out.value == y.value


def test_q_mul_add_exact_quarter():
    h = encode(0.5, 8, 6)
    assert q_mul_add(h, h, zero(16, 12)).value == 0.25


def test_q_mul_add_exhaustive_w3():
    for x in range(8):
        for y in range(8):
            for z in range(64):
                out = q_mul_add(
                    FixedPoint(x, 3, 1), FixedPoint(y, 3, 1), FixedPoint(z, 6, 2)
                )
                assert out.bits == (z + x * y) % 64


def test_q_mul_add_format_check():
    with pytest.raises(FormatMismatchError):
        q_mul_add(encode(0.5, 8, 6), encode(0.5, 8, 6), zero(16, 10))


def test_q_max():
    a = encode(0.3, 8, 6)
    assert q_max(a, a) is a
    assert q_max(encode(0.2, 8, 6), encode(0.7, 8, 6)) == encode(0.7, 8, 6)
    rng = np.random.default_rng(2)
    for _ in range(200):
        u, v = rng.random(2) * 3.9
        got = q_max(encode(float(u), 8, 6), encode(float(v), 8, 6))
        assert got.value == max(encode(float(u), 8, 6).value, encode(float(v), 8, 6).value)


def test_q_div_examples():
    x = encode(0.75, 8, 6)
    assert q_div(x, x).value == 1.0
    assert q_div(encode(0.5, 8, 6), encode(0.25, 8, 6)).value == 2.0
    with pytest.raises(ZeroDivisionError):
        q_div(x, zero(8, 6))


def test_q_div_within_one_ulp():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = float(rng.random() * 3.5) + 0.01
        b = float(rng.random() * 3.5) + 0.05
        na, nb = encode(a, 16, 12), encode(b, 16, 12)
        if na.value / nb.value >= 16:
            continue
        got = q_div(na, nb)
        assert abs(got.value - na.value / nb.value) <= 2 ** (-12)


def test_q_div_overflow():
    with pytest.raises(FixedPointOverflowError):
        q_div(encode(3.9, 8, 6), encode(0.1, 8, 6))


def test_q_div_output_format():
    # (2w, 2f) sums divided back down to (w, f), as the density step does.
    acc = zero(16, 12)
    one = encode(1.0, 8, 6)
    for v in (0.25, 0.5, 0.75):
        acc = q_mul_add(encode(v, 8, 6), one, acc)
    mean = q_div(acc, encode(3.0, 16, 12), width=8, frac=6)
    assert abs(mean.value - 0.5) <= 2 ** (-6)


# ---------------------------------------------------------------------------
# Properties against exact rational arithmetic on Python ints
# ---------------------------------------------------------------------------


@st.composite
def formats(draw, max_width=64):
    width = draw(st.integers(1, max_width))
    return width, draw(st.integers(0, width - 1))


def words(draw, width, frac):
    return FixedPoint(draw(st.integers(0, (1 << width) - 1)), width, frac)


def exact(x):
    return Fraction(x.bits, 1 << x.frac)


@st.composite
def same_format_pairs(draw):
    width, frac = draw(formats())
    return words(draw, width, frac), words(draw, width, frac)


@given(same_format_pairs())
def test_q_add_is_addition_modulo_the_register(pair):
    x, y = pair
    got = q_add(x, y)
    assert (got.width, got.frac) == (x.width, x.frac)
    assert exact(got) == (exact(x) + exact(y)) % (1 << (x.width - x.frac))


@given(same_format_pairs())
def test_q_max_is_the_larger_value_first_on_ties(pair):
    x, y = pair
    got = q_max(x, y)
    assert exact(got) == max(exact(x), exact(y))
    assert got is (x if exact(x) >= exact(y) else y)


@st.composite
def multiply_accumulate_operands(draw):
    width, frac = draw(formats(max_width=32))
    return words(draw, width, frac), words(draw, width, frac), words(draw, 2 * width, 2 * frac)


@given(multiply_accumulate_operands())
def test_q_mul_add_is_exact_modulo_the_wide_register(ops):
    x, y, z = ops
    got = q_mul_add(x, y, z)
    assert (got.width, got.frac) == (z.width, z.frac)
    assert exact(got) == (exact(z) + exact(x) * exact(y)) % (1 << (z.width - z.frac))


@st.composite
def division_operands(draw):
    num = words(draw, *draw(formats(max_width=40)))
    width, frac = draw(formats(max_width=40))
    den = FixedPoint(draw(st.integers(1, (1 << width) - 1)), width, frac)
    return num, den, draw(formats(max_width=40))


@given(division_operands())
def test_q_div_rounds_the_exact_quotient_half_to_even(ops):
    num, den, (width, frac) = ops
    want = round(exact(num) / exact(den) * (1 << frac))  # Fraction rounds half to even
    if want >= 1 << width:
        with pytest.raises(FixedPointOverflowError):
            q_div(num, den, width=width, frac=frac)
    else:
        got = q_div(num, den, width=width, frac=frac)
        assert (got.bits, got.width, got.frac) == (want, width, frac)
