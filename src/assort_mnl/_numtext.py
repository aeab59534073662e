"""Numbers as JSON text, in array code: nonnegative integers as ``str`` and finite floats as ``repr`` write them.

Each number becomes a cell: a fixed column of candidate characters in
which those not kept are 0, so that the characters other than 0 spell the
number.  A writer lays cells out in a buffer of whole lines and drops the
0s of the buffer in one compaction (see ``generate.write_dataset``).

``float.__repr__`` writes the shortest decimal that reads back as the
float, the one closest to it if several are that short and the even one
on a tie (David Gay's dtoa, a bignum algorithm).  Schubfach (R. Giulietti,
"The Schubfach way to render doubles") finds the same digits with 64-bit
integer products and a table of 126-bit powers of ten, here for a whole
column of floats at once, with one product by the power of ten per
float: the ends of the float's rounding interval follow from the float's
own product exactly, by shifts and a carry, as in Ryu's ``mulShiftAll64``.
Java's ``DoubleToDecimal``, which it follows, keeps two digits where one
would do (it writes 4.9e-324 where ``repr`` writes 5e-324); this version
takes the shorter decimal.
"""

from __future__ import annotations

import functools

import numpy as np

_U1, _U2, _U10, _U32, _U63, _U64 = (np.uint64(b) for b in (1, 2, 10, 32, 63, 64))
_U10K = np.uint64(10_000)
_LOW32 = np.uint64((1 << 32) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
# The decimal exponents k of the powers of ten a finite double needs.
_K_MIN, _K_MAX = -324, 292


def mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b`` of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p01, p10 = a0 * b1, a1 * b0
    middle = ((a0 * b0) >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (middle >> _U32)


def _floor_log10_pow2(e):
    """floor(log10(2**e)) for integers |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _floor_log10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2**e)) for integers |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for integers |e| <= 1643."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """g for each k in [_K_MIN, _K_MAX], as its high and low 63 bits (two uint64 arrays).

    ``10**-k = beta * 2**r`` with beta in [2**125, 2**126), and ``g =
    floor(beta) + 1``: 10**-k to 126 bits, rounded up.  Built on first use.
    """
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _floor_log2_pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g = ((num << -r) // den if r < 0 else num // (den << r)) + 1
        high.append(g >> 63)
        low.append(g & (1 << 63) - 1)
    return np.array(high, np.uint64), np.array(low, np.uint64)


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999, zero-padded, as (4, 10000) uint8; and 10**i for i < 20 as uint64.

    Built on first use.
    """
    t = np.arange(10_000)
    digits = np.stack([t // 1000, t // 100 % 10, t // 10 % 10, t % 10]).astype(np.uint8) + ord("0")
    return digits, np.array([10**i for i in range(20)], np.uint64)


def _round_odd(high, low):
    """``high + low / 2**63`` rounded to odd, for uint64 arrays: the floor, with its lowest bit set when the fraction is not 0.

    ``low`` may reach past 2**63, and ``high`` wrap below 0 as long as the
    sum does not.
    """
    return (high + (low >> _U63)) | (((low & _MASK63) + _MASK63) >> _U63)


def _scaled(g1, g0, j):
    """``floor(g * 2**j / 2**64)`` as its high and low 63 bits, and ``g0 * 2**j mod 2**64``.

    For g = g1 * 2**63 + g0 and j in [1, 63], in uint64 arrays.
    """
    return g1 >> (_U64 - j), ((g1 << (j - _U1)) & _MASK63) | (g0 >> (_U64 - j)), g0 << j


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signs, digits and exponents of the finite float64 ``values``: ``abs(v) == f * 10**k``, with f 0 for a zero.

    f is the integer of the shortest decimal digits that round-trip, those
    ``repr`` writes, and may end in zeros.  A double is ``c * 2**q``;
    ``vb`` below is 4v in units of 10**k (rounded to odd), and ``vbl`` and
    ``vbr`` bound, in the same units, the decimals that round to v.  The
    decimals ``s * 10**k`` and ``(s + 1) * 10**k`` next to v are the
    candidates, and before them the multiples of ten next to s, one digit
    shorter.
    """
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    negative = (bits >> _U63).astype(bool)
    biased = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    c = bits & np.uint64((1 << 52) - 1)
    c[biased > 0] |= np.uint64(1 << 52)
    q = np.maximum(biased - 1075, -1074)
    # A power of two above the subnormals is closer to its lower neighbour.
    regular = (c != np.uint64(1 << 52)) | (q == -1074)
    k = np.where(regular, _floor_log10_pow2(q), _floor_log10_three_quarters_pow2(q))
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = (table[k - _K_MIN] for table in _pow10_table())
    # Schubfach's rop(g, cp), g * cp / 2**127 rounded to odd for g = g1 *
    # 2**63 + g0, rounds (floor(g1 * cp / 2) + floor(g0 * cp / 2**64)) /
    # 2**63 = high + low / 2**63: the low word x0 of g0 * cp is left aside.
    cp = c << (h + _U2)
    x0 = g0 * cp
    z = ((g1 * cp) >> _U1) + mul_hi(g0, cp)
    high, low = mul_hi(g1, cp) + (z >> _U63), z & _MASK63
    vb = _round_odd(high, low)
    # The ends are rop(g, cp +- 2**j), j = h + 1 or h: that sum moved by
    # floor(g * 2**j / 2**64) = dh * 2**63 + dl, exactly, and by the carry
    # out of x0 + (g0 << j) or the borrow out of x0 - (g0 << j).  The
    # interval's ends belong to it for an even c, which they round to.
    out = c & _U1
    dh, dl, d0 = _scaled(g1, g0, h + _U1)
    vbr = _round_odd(high + dh, low + dl + (x0 + d0 < d0)) - out
    dh, dl, d0 = _scaled(g1, g0, h + regular)
    # low - dl - borrow, plus 2**63 so that it stays nonnegative, taken back from high.
    vbl = _round_odd(high - dh - _U1, low + (dl ^ _MASK63) + (x0 >= d0)) + out
    s = vb >> _U2
    sp10 = s // _U10 * _U10
    upin = vbl <= sp10 << _U2
    wpin = (sp10 + _U10) << _U2 <= vbr
    shorter = (s >= _U10) & (upin != wpin)
    t = s + _U1
    uin = vbl <= s << _U2
    win = t << _U2 <= vbr
    # Both in the interval: the closer, the even one on a tie.
    mid = (s + t) << _U1
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _U1) == 0)))
    # One of sp10 and sp10 + 10 is in when shorter; s or t = s + 1.
    f = np.where(shorter, sp10 + wpin * _U10, t - lower)
    f[c == 0] = 0
    return negative, f, k


def _decimal_digits(v: np.ndarray) -> np.ndarray:
    """The 20 zero-padded ASCII decimal digits of each of the uint64 ``v``, as (20, N) uint8."""
    table = _digit_table()[0]
    out = np.empty((20, len(v)), np.uint8)
    for j in range(4, 0, -1):
        # A quotient and a product: np.divmod and % do not divide by a constant as // does.
        high = v // _U10K
        np.take(table, v - high * _U10K, axis=1, out=out[4 * j : 4 * j + 4])
        v = high
    np.take(table, v, axis=1, out=out[:4])
    return out


# A float's cell, rows:
#   0       "-", kept for a negative float;
#   1-5     "0.000", of which "0." and -decpt zeros are kept for a float
#           written 0.000ddd (decpt <= 0);
#   6-23    the 17 digits with "." inserted after the first decpt of them,
#           or after the first in exponent form, its first rows kept;
#   24-28   "e", the exponent's sign and three digits, kept in exponent
#           form, the hundreds only when they are not zero.
# decpt is the decimal point's place: v = 0.d1d2... * 10**decpt.  As repr
# does, exponent form is used for decpt <= -4 or decpt > 16.
FLOAT_CELL = 29
# A nonnegative integer's cell: 20 digits, kept from the first nonzero one.
INT_CELL = 20
_PREFIX = np.frombuffer(b"-0.000", np.uint8)[:, None]
_ROW5, _ROW18, _ROW20 = (np.arange(size, dtype=np.uint8)[:, None] for size in (5, 18, 20))


def cells(floats: np.ndarray, ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the finite float64 ``floats`` and of the uint64 ``ints``, as (cell width, N) uint8 characters, 0 where not kept.

    The kept characters of a float's cell are ``repr(float(v))``, those of
    an integer's ``str(int(v))``.  One digit extraction serves both.
    """
    negative, f, k = shortest_digits(floats)
    digits_of, pow10 = _digit_table()
    size = np.searchsorted(pow10, f, side="right")
    # f scaled to 17 digits, which hold the shortest digits of every double.
    every_digit = _decimal_digits(np.concatenate([f * pow10[17 - size], ints]))
    digits, int_chars = every_digit[3:, : len(f)], every_digit[:, len(f) :]
    decpt = np.where(f == 0, 1, k + size).astype(np.int16)
    # The place of the last digit that is not 0; a zero keeps one digit.
    significant = np.maximum(((digits != ord("0")) * (_ROW18[:17] + 1)).max(axis=0), 1)
    exponent_form = (decpt <= -4) | (decpt > 16)
    leading_zeros = ~exponent_form & (decpt <= 0)
    # point and body are in [1, 19]: as uint8, the cell-wide comparisons below are on bytes.
    point = np.where(exponent_form, 1, np.where(leading_zeros, 18, decpt)).astype(np.uint8)
    body = np.where(
        exponent_form,
        significant + (significant > 1),
        np.where(leading_zeros, significant, np.maximum(significant, decpt + 1) + 1),
    ).astype(np.uint8)
    exponent = decpt - 1
    chars = np.empty((FLOAT_CELL, len(f)), np.uint8)
    keep = np.empty(chars.shape, bool)
    chars[:6] = _PREFIX
    keep[0] = negative
    np.less(_ROW5, np.where(leading_zeros, 2 - decpt, 0).astype(np.uint8), out=keep[1:6])
    chars[6:23] = digits
    chars[23] = ord("0")
    # Masked copies as byte arithmetic, which wraps: a row moves by 0 or by the difference to its new characters.
    chars[7:24] += (_ROW18[1:] > point) * (digits - chars[7:24])
    chars[6:24] += (_ROW18 == point) * (np.uint8(ord(".")) - chars[6:24])
    np.less(_ROW18, body, out=keep[6:24])
    chars[24] = ord("e")
    np.take(digits_of, np.abs(exponent), axis=1, out=chars[25:29])
    chars[25] = np.where(exponent < 0, ord("-"), ord("+"))
    keep[24:29] = exponent_form
    keep[26] &= np.abs(exponent) >= 100
    # The place of an integer's first digit that is not 0, the last digit's for a zero.
    first = np.minimum(20 - ((int_chars != ord("0")) * (20 - _ROW20)).max(axis=0), 19)
    return np.multiply(chars, keep, out=chars), np.multiply(int_chars, _ROW20 >= first, out=int_chars)


def float_cells(values: np.ndarray) -> np.ndarray:
    """The cells of the finite float64 ``values`` alone (see :func:`cells`)."""
    return cells(values, np.empty(0, np.uint64))[0]
