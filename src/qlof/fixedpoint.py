"""Bit-exact fixed-point arithmetic mirroring reversible register semantics.

A :class:`FixedPoint` value is an unsigned w-bit word holding ``bits / 2**frac``.
The operations reproduce, on classical words, exactly what the corresponding
reversible circuits do on w-qubit registers:

* ``q_add``      -- modular addition, |x>|y>|0> -> |x>|y>|x+y mod 2^w>
* ``q_mul_add``  -- widening multiply-accumulate, |x>|y>|z> -> |x>|y>|z + x*y>,
                    exact in a 2w-bit / 2f-fraction target register
* ``q_max``      -- the controlled max gate used for reachability distances
* ``q_div``      -- exact integer long division with round-half-even, used to
                    form means and density ratios

All pipeline quantities stored in these registers (distances, densities,
ratios) are nonnegative, so everything here is unsigned.  Signed intermediate
differences never persist: they are consumed immediately by a rotation whose
probability depends only on the magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass


class FixedPointError(Exception):
    """Base class for fixed-point failures."""


class FormatMismatchError(FixedPointError):
    """Operands have different (width, frac) formats."""


class FixedPointOverflowError(FixedPointError):
    """Value does not fit the target format."""


@dataclass(frozen=True)
class FixedPoint:
    """Unsigned fixed-point word: value = bits / 2**frac, width-bit register."""

    bits: int
    width: int
    frac: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.frac < 0 or self.frac >= self.width:
            raise FixedPointError(
                f"invalid format (width={self.width}, frac={self.frac})"
            )
        if not 0 <= self.bits < (1 << self.width):
            raise FixedPointError(
                f"bits {self.bits} outside register range [0, 2^{self.width})"
            )

    @property
    def value(self) -> float:
        return self.bits / (1 << self.frac)

    def same_format(self, other: "FixedPoint") -> bool:
        return self.width == other.width and self.frac == other.frac

    def __repr__(self) -> str:
        return f"FixedPoint({self.value}, w={self.width}, f={self.frac})"


def encode(v: float, width: int, frac: int) -> FixedPoint:
    """Round a nonnegative real onto the (width, frac) grid, half-to-even.

    Raises FixedPointOverflowError when v (or its rounding) needs more than
    width - frac integer bits.
    """
    if v < 0:
        raise FixedPointOverflowError(f"cannot encode negative value {v}")
    if v >= (1 << (width - frac)):
        raise FixedPointOverflowError(
            f"value {v} >= 2^{width - frac} does not fit (w={width}, f={frac})"
        )
    bits = round(v * (1 << frac))  # Python round: half-to-even
    if bits >= (1 << width):
        raise FixedPointOverflowError(
            f"value {v} rounds past the top of the (w={width}, f={frac}) register"
        )
    return FixedPoint(bits, width, frac)


def zero(width: int, frac: int) -> FixedPoint:
    return FixedPoint(0, width, frac)


def _require_same(x: FixedPoint, y: FixedPoint) -> None:
    if not x.same_format(y):
        raise FormatMismatchError(
            f"(w={x.width}, f={x.frac}) does not interoperate with "
            f"(w={y.width}, f={y.frac})"
        )


def q_add(x: FixedPoint, y: FixedPoint) -> FixedPoint:
    """Modular register addition: (bits_x + bits_y) mod 2^w."""
    _require_same(x, y)
    return FixedPoint((x.bits + y.bits) & ((1 << x.width) - 1), x.width, x.frac)


def q_mul_add(x: FixedPoint, y: FixedPoint, z: FixedPoint) -> FixedPoint:
    """Widening multiply-accumulate: z + x*y, exact in (2w, 2f).

    x and y share (w, f); z must already be in (2w, 2f).  The product of two
    f-fraction words is exact at 2f fractional bits, so no rounding occurs.
    """
    _require_same(x, y)
    if z.width != 2 * x.width or z.frac != 2 * x.frac:
        raise FormatMismatchError(
            f"accumulator must be (w={2 * x.width}, f={2 * x.frac}), "
            f"got (w={z.width}, f={z.frac})"
        )
    bits = (z.bits + x.bits * y.bits) & ((1 << z.width) - 1)
    return FixedPoint(bits, z.width, z.frac)


def q_max(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    """Unsigned max; ties return the first operand."""
    _require_same(a, b)
    return a if a.bits >= b.bits else b


def _div_round_half_even(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return q


def q_div(
    num: FixedPoint,
    den: FixedPoint,
    width: int | None = None,
    frac: int | None = None,
) -> FixedPoint:
    """Exact rounded quotient num/den in the requested output format.

    Defaults to num's format.  The quotient is computed by integer long
    division on the bit patterns and rounded half-to-even, so the result is
    within half a unit in the last place of the true ratio.
    """
    if den.bits == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    width = num.width if width is None else width
    frac = num.frac if frac is None else frac
    # value = (num.bits / 2^num.frac) / (den.bits / 2^den.frac); scale to 2^frac.
    exp = frac + den.frac - num.frac
    if exp >= 0:
        bits = _div_round_half_even(num.bits << exp, den.bits)
    else:
        bits = _div_round_half_even(num.bits, den.bits << (-exp))
    if bits >= (1 << width):
        raise FixedPointOverflowError(
            f"quotient {num.value / den.value} does not fit (w={width}, f={frac})"
        )
    return FixedPoint(bits, width, frac)
