"""Numbers as JSON text and back, in array code: nonnegative integers as ``str`` and finite floats as ``repr`` write them.

Writing, each number becomes a cell: a fixed column of candidate
characters in which those not kept are 0, so that the characters other
than 0 spell the number.  A writer lays cells out in a buffer of whole
lines and drops the 0s of the buffer in one compaction (see
``generate.write_dataset``).

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

Reading is the inverse for lines laid out as a writer lays them
(``parse_lines``, against a ``LineLayout``: the literal text around the
numbers of a line).  A chunk of lines is read whole or not at all: when
every line's separators and literal text are the layout's, character for
character, and every number field holds a JSON number, its numbers come
back as ``json.loads`` reads them; when any line differs, in spacing, key
order, line end or a value that is no number, the chunk is refused and its
caller reads it another way (``generate.read_dataset`` parses such a chunk
line by line with ``json``).  Which way a chunk is read is a property of
its bytes, not an option.  A float's digits become a double by
Eisel–Lemire (D. Lemire, "Number Parsing at a Gigabyte per Second",
Software: Practice and Experience 51(8), 2021) on a table of 128-bit
powers of five; the few tokens it cannot read exactly go through
``float``, as ``json`` reads them.
"""

from __future__ import annotations

import functools

import numpy as np

_U1, _U2, _U10, _U32, _U63, _U64 = (np.uint64(b) for b in (1, 2, 10, 32, 63, 64))
_U10K = np.uint64(10_000)
_LOW32 = np.uint64((1 << 32) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
_LOW9 = np.uint64((1 << 9) - 1)
# The decimal exponents k of the powers of ten a finite double needs.
_K_MIN, _K_MAX = -324, 292


def mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b`` of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    # Neither sum carries, as (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64; the
    # halves are dropped once their products are made, so that few arrays are live.
    cross = a1 * b0 + ((a0 * b0) >> _U32)
    middle = (cross & _LOW32) + a0 * b1
    del a0, b0
    return a1 * b1 + (cross >> _U32) + (middle >> _U32)


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


# The reverse direction: JSON number text to numbers.

# The decimal exponents q of the 128-bit powers of five Eisel–Lemire takes.
_Q_MIN, _Q_MAX = -342, 308
_MASK64 = (1 << 64) - 1


@functools.cache
def _pow5_table() -> tuple[np.ndarray, np.ndarray]:
    """5**q for each q in [_Q_MIN, _Q_MAX] to 128 bits, its top bit set, as high and low uint64 words.

    As fast_float's table: 5**q truncated for q >= 0, and for q < 0
    ``floor(2**b / 5**-q) + 1`` truncated, with ``b`` its reciprocal's bit
    length plus 127, or twice that length plus 128 below q = -27.  Built on
    first use, by ``bit_length`` rather than bit-by-bit loops.
    """
    high, low = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            c = 5**q
        else:
            p = 5**-q
            z = (p - 1).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
        c = c << (128 - c.bit_length()) if c.bit_length() < 128 else c >> (c.bit_length() - 128)
        high.append(c >> 64)
        low.append(c & _MASK64)
    return np.array(high, np.uint64), np.array(low, np.uint64)


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of the doubles nearest ``w * 10**q``, for uint64 ``w`` in [1, 2**64) and q in [_Q_MIN, _Q_MAX]; and where they are not normal.

    D. Lemire, "Number Parsing at a Gigabyte per Second" (2021), as
    fast_float's ``compute_float`` runs it: ``w``, its top bit shifted up,
    times the power of five to 128 bits gives the 54 leading bits of the
    product exactly (N. Mushtak and D. Lemire, "Fast Number Parsing Without
    Fallback", 2023), rounded to even on the exact ties, which occur only
    for q in [-4, 23].  A result below the normal doubles, or in their top
    binade or above, is flagged, not made: its bits are garbage.  ``w`` is
    overwritten.
    """
    # The bit length of w, from its float64's exponent: past 2**53 a float64 can round up to the next power of 2.
    length = np.frexp(w.astype(np.float64))[1].astype(np.uint8)
    length -= (w >> (length - np.uint8(1))) == 0
    w <<= 64 - length
    power2 = ((q * 217_706) >> 16) + length + 1022
    t = q - _Q_MIN
    table_high, table_low = _pow5_table()
    t_high = table_high[t]
    high, low = mul_hi(w, t_high), w * t_high
    # The 9 bits below the 55 kept are all ones: the product's lower word can carry into them.
    inexact = np.flatnonzero((high & _LOW9) == _LOW9)
    if inexact.size:
        second = mul_hi(w[inexact], table_low[t[inexact]])
        low[inexact] += second
        high[inexact] += low[inexact] < second
    upper = (high >> _U63).astype(np.uint8)
    mantissa = high >> (upper + np.uint8(9))
    # A tie between two doubles drops only zero bits, which only q in [-4, 23] can give: round it to even.
    tie = np.flatnonzero(low <= _U1)
    tie = tie[(q[tie] >= -4) & (q[tie] <= 23) & ((mantissa[tie] & np.uint64(3)) == _U1) & ((mantissa[tie] << (upper[tie] + np.uint8(9))) == high[tie])]
    mantissa[tie] &= ~_U1
    # In [2**52, 2**53] once rounded: 2**53 carries into the exponent as the sum below does.
    mantissa = (mantissa + (mantissa & _U1)) >> _U1
    power2 += upper
    # A power of 2045 and a carry make 2046, the largest finite; 2046 may carry to infinity.
    abnormal = (power2 < 1) | (power2 > 2045)
    return mantissa + ((power2 - 1).astype(np.uint64) << np.uint64(52)), abnormal


# A record line's separators: the characters around every field.
_SEPARATORS = "{}[]:,\n"
# The class of each byte in a line: digits, the other characters of a
# number, separators and the rest.
_DIGIT, _POINT, _EXP, _SIGN, _SEP, _OTHER = range(6)
_CLASSES = np.full(256, _OTHER, np.uint8)
_CLASSES[list(b"0123456789")], _CLASSES[list(b".")], _CLASSES[list(b"eE")], _CLASSES[list(b"+-")] = _DIGIT, _POINT, _EXP, _SIGN
_CLASSES[list(_SEPARATORS.encode())] = _SEP
# bytes.translate tables of each byte's class, and of 1, read as a bool, for the bytes a scan marks (separators
# and a number's other characters) or for the other bytes that are not digits (letters, quotes, spaces).
_CLASS_OF, _MARKED, _OTHERS = (table.tobytes() for table in (_CLASSES, (_CLASSES != _DIGIT) & (_CLASSES != _OTHER), _CLASSES == _OTHER))
# parse_lines reads a mantissa's digits in a row of this many bytes, which ends with it.
_ROW = 24
# What parse_lines puts before the lines, so that every number has a row's bytes before its end.
PAD = b"0" * _ROW
_VOID = {width: np.dtype(f"V{width}") for width in (4, 8, _ROW)}
_ASCII_ZERO = np.uint8(ord("0"))
# Lemire's eight-digit SWAR constants: pairs at bytes 0 and 4 times 100 and 10**6, at 2 and 6 times 1 and 10**4.
_PAIRS = np.uint64(0x000000FF000000FF)
_PAIR_MUL = np.uint64(100 + (10**6 << 32)), np.uint64(1 + (10**4 << 32))
_U8, _U16, _U255 = np.uint64(8), np.uint64(16), np.uint64(255)
_E8, _E16 = np.uint64(10**8), np.uint64(10**16)
_SIGN_BIT = np.uint64(1 << 63)
# The powers of ten that are doubles exactly, 10**0 to 10**22.
_EXACT_POW10 = np.array([float(10**k) for k in range(23)])


class LineLayout:
    """What ``parse_lines`` reads a line against: the literal runs around its numbers, cut into fields at the separators.

    A line cut at each of ``{}[]:,`` and its newline is a sequence of
    fields, one before each separator: literal text, often empty, or a
    number, which is a field by itself.
    """

    def __init__(self, runs: list[str], is_float: np.ndarray):
        separators, fields, field = [], [], ""
        for i, run in enumerate(runs):
            for char in run:
                if char in _SEPARATORS:
                    separators.append(ord(char))
                    fields.append(field)
                    field = ""
                elif field is None:
                    raise ValueError("a number must be followed by a separator")
                else:
                    field += char
            if i < len(runs) - 1:
                if field:
                    raise ValueError("a number must follow a separator")
                field = None
        if field != "" or separators[-1] != ord("\n"):
            raise ValueError("a line must end with its newline")
        number = np.array([field is None for field in fields])
        text = [(field or "").encode() for field in fields]
        self.separators = np.array(separators, np.uint8)
        self.is_float = np.asarray(is_float, bool)
        self.numbers = np.flatnonzero(number)
        # The slot of the number in each field, -1 for literal text.
        self.slot = np.full(len(fields), -1, np.int32)
        self.slot[self.numbers] = np.arange(len(self.numbers))
        self.literals = np.flatnonzero(~number)
        self.literal_sizes = np.array([len(text[f]) for f in self.literals], np.int32)
        # The literal text as little-endian words: the k-th of a field is the
        # 8 bytes that end 8k bytes before its separator, masked to the field.
        pieces = [(f, back + 8, text[f][max(len(text[f]) - back - 8, 0) : len(text[f]) - back])
                  for f in self.literals for back in range(0, len(text[f]), 8)]
        fields_of, backs, words = zip(*pieces) if pieces else ((), (), ())
        self.piece_fields, self.piece_backs = np.array(fields_of, np.int64), np.array(backs, np.int32)
        self.piece_text, self.piece_masks = (np.array([int.from_bytes(w.rjust(8, b"\0"), "little") for w in ws], np.uint64)
                                             for ws in (words, [b"\xff" * len(w) for w in words]))
        self.others = int(np.count_nonzero(_CLASSES[np.frombuffer(b"".join(text), np.uint8)] == _OTHER))


def _windows(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` consecutive bytes of ``buf`` as one element: element i is ``buf[i : i + width]``."""
    return np.ndarray((len(buf) - width + 1,), _VOID[width], buf, strides=(1,))


def _number_fields(text, buf: np.ndarray, rows: int, layout: LineLayout):
    """The start and size of each number of ``rows`` lines in ``buf``, and the place, class and number of each point, exponent mark and sign in them; None where a line's separators or literal text are not ``layout``'s.

    ``buf`` is ``text`` as bytes, which begins with ``PAD``.  One scan marks
    the separators and the other characters of a number; the separators cut
    the lines into fields, and the literal ones are checked 8 bytes at a
    time.  The other bytes that are not digits are counted, not marked: as
    many as the literal text holds leave none for a number field.  Places
    are int32 where they fit, as the temporaries bound a reader's memory.
    """
    fields, slots = len(layout.separators), len(layout.is_float)
    if np.count_nonzero(np.frombuffer(text.translate(_OTHERS), bool)) != rows * layout.others:
        return None
    marks = np.flatnonzero(np.frombuffer(text.translate(_MARKED), bool))
    chars = buf[marks]
    marks = marks.astype(np.int32 if len(buf) < 2**31 else np.int64)
    kinds = np.frombuffer(chars.tobytes().translate(_CLASS_OF), np.uint8)
    is_sep = kinds == _SEP
    separators = np.compress(is_sep, marks)
    if len(separators) != rows * fields or (np.compress(is_sep, chars).reshape(rows, fields) != layout.separators).any():
        return None
    # A field ends at its separator and begins after the one before it.
    ends = separators.reshape(rows, fields)
    # The differences of the separators after one at _ROW - 1, written out:
    # np.diff with prepend concatenates first and takes twice as long.
    sizes = np.empty_like(separators)
    sizes[:1] = separators[:1] - (_ROW - 1)
    np.subtract(separators[1:], separators[:-1], out=sizes[1:])
    sizes -= 1
    sizes = sizes.reshape(rows, fields)
    if (sizes[:, layout.literals] != layout.literal_sizes).any():
        return None
    words = _windows(buf, 8)[ends[:, layout.piece_fields] - layout.piece_backs].view(np.uint64)
    if ((words ^ layout.piece_text) & layout.piece_masks).any():
        return None
    size = sizes[:, layout.numbers].ravel()
    start = ends[:, layout.numbers].ravel() - size
    del words, ends, separators, sizes
    # The field of the k-th point, exponent mark or sign at j: the j - k separators before it.
    special = np.flatnonzero(~is_sep)
    at, kinds = marks[special], kinds[special]
    del marks, is_sep
    special -= np.arange(len(special))
    token = np.where(layout.slot < 0, -1, np.arange(0, rows * slots, slots, dtype=at.dtype)[:, None] + layout.slot).ravel()[special]
    inside = np.flatnonzero(token >= 0)
    return start, size, at[inside], kinds[inside], token[inside].astype(np.intp)


def _first_at(token: np.ndarray, offset: np.ndarray, which: np.ndarray, count: int) -> np.ndarray | None:
    """Each of ``count`` tokens' ``offset`` at the characters ``which`` marks, -1 where none is; None where one has two.

    ``token`` is nondecreasing, as the characters' places are.
    """
    token = token[which]
    if (token[1:] == token[:-1]).any():
        return None
    out = np.full(count, -1, offset.dtype)
    out[token] = offset[which]
    return out


def _grammar(buf, start, size, at, kinds, token, in_float_slot):
    """Where each number's mantissa ends and its point lies, and its signs, from the places of its characters that are not digits; None where one is no JSON number or does not fit its field.

    The grammar is ``-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?``.  An
    integer field takes digits alone, at most 20; a float field an integer
    of at most 18 digits.  Returns, per number: the mantissa's end, counted
    from its start; how far back from there its point lies (0 for none);
    whether it is negative, and its exponent; and the exponent's digits.
    """
    count = len(start)
    offset = at - start[token]
    point = _first_at(token, offset, kinds == _POINT, count)
    exp = _first_at(token, offset, kinds == _EXP, count)
    if point is None or exp is None:
        return None
    signs = kinds == _SIGN
    token, offset, char = token[signs], offset[signs], buf[at[signs]]
    leading = (offset == 0) & (char == ord("-"))
    of_exp = (offset == exp[token] + 1) & (exp[token] >= 0)
    if not (leading | of_exp).all():
        return None
    negative, exp_negative, signed = np.zeros(count, bool), np.zeros(count, bool), np.zeros(count, bool)
    negative[token[leading]] = True
    exp_negative[token[of_exp]] = char[of_exp] == ord("-")
    signed[token[of_exp]] = True
    has_point, has_exp = point >= 0, exp >= 0
    end = np.where(has_exp, exp, size)
    point_places = np.where(has_point, end - point, 0)
    exp_digits = np.where(has_exp, size - exp - 1 - signed, 0)
    integer_digits = end - negative - point_places
    ok = (integer_digits >= 1) & ((buf[start + negative] != _ASCII_ZERO) | (integer_digits == 1))
    # A point needs a digit after it, before any exponent; an exponent mark, a digit after its sign.
    ok &= (~has_point | (point_places >= 2)) & (~has_exp | (exp_digits >= 1))
    integer = ~(has_point | has_exp)
    digits = integer_digits + np.maximum(point_places - 1, 0)
    ok &= np.where(in_float_slot, ~integer | (digits <= 18), integer & ~negative & (digits <= 20))
    if not ok.all():
        return None
    return end, point_places, negative, exp_negative, exp_digits


def _parse_eight(words: np.ndarray) -> np.ndarray:
    """Each uint64 of eight decimal digit values (0-9, the first in the lowest byte) as its integer, in place."""
    pairs = words >> _U8
    words *= _U10
    words += pairs
    np.right_shift(words, _U16, out=pairs)
    pairs &= _PAIRS
    pairs *= _PAIR_MUL[1]
    words &= _PAIRS
    words *= _PAIR_MUL[0]
    words += pairs
    words >>= _U32
    return words


def parse_lines(text, rows: int, layout: LineLayout) -> tuple[np.ndarray, np.ndarray] | None:
    """The numbers of the ``rows`` lines of ``text`` after ``PAD`` laid out as ``layout`` lays them: floats (rows, floats) as ``json.loads`` reads them, and the nonnegative integers below 2**64 as uint64; None where any line differs.

    ``text`` is bytes or a bytearray, into which a reader can read the lines
    behind ``PAD`` without a copy.  A line matches when its separators and literal text are the layout's,
    character for character, and between them each number field is a JSON
    number (``_number_fields``, ``_grammar``).  An integer field holds
    digits alone.  A float field's integer reads as ``float(int(token))``
    does, and takes no more than 18 digits.  A mantissa's digits,
    right-aligned in a row of 24 bytes by one row gather, become integers 8
    at a time (``_mantissas``), and a double by Clinger's fast path where
    it and the power of ten are doubles exactly, else by Eisel–Lemire
    (``_eisel_lemire``).  Tokens neither reads exactly go through
    ``float``: a significand of 10**19 or more, a mantissa past 24
    characters, an exponent past 4 digits, or a result that is not a normal
    double below 2**1023.
    """
    slots = len(layout.is_float)
    buf = np.frombuffer(text, np.uint8)
    found = _number_fields(text, buf, rows, layout)
    if found is None:
        return None
    in_float_slot = np.tile(layout.is_float, rows)
    parsed = _grammar(buf, *found, in_float_slot)
    if parsed is None:
        return None
    start, size = found[:2]
    end, point_places, negative, exp_negative, exp_digits = parsed
    del found, parsed
    # The exponent, less the digits after the point.
    q = np.minimum(1 - point_places, 0)
    exps = np.flatnonzero(exp_digits)
    q[exps] += np.where(exp_negative[exps], -1, 1) * _exponents(buf, start[exps] + size[exps], exp_digits[exps])
    integer = point_places + exp_digits == 0
    to_float = exp_digits > 4
    del exps, exp_negative, exp_digits
    chars = end - negative
    long = chars > _ROW
    ends = start + np.where(long, size, end)
    point_places[long] = 0
    to_float |= long
    del end, long
    w, fits, big = _mantissas(buf, ends, point_places, chars)
    del ends, point_places, chars
    # An integer field's number is below 2**64: 20 digits past 18446744073709551615 wrap.
    if not (in_float_slot | fits).all():
        return None
    to_float |= big
    ints = w.reshape(rows, slots)[:, ~layout.is_float]
    zero = w == 0
    to_float |= ~zero & ((q < _Q_MIN) | (q > _Q_MAX))
    # Clinger's fast path where w and 10**|q| are doubles exactly: one rounding, of w times 10**q, then over 10**-q (one is 1).
    slow = np.flatnonzero(~(zero | ((w <= 2**53) & (np.abs(q) <= 22))))
    w_slow, floats = w[slow], w.astype(np.float64)
    del w
    floats *= np.take(_EXACT_POW10, np.clip(q, 0, 22))
    floats /= np.take(_EXACT_POW10, np.clip(-q, 0, 22))
    bits = floats.view(np.uint64)
    if slow.size:
        bits[slow], abnormal = _eisel_lemire(w_slow, np.clip(q[slow], _Q_MIN, _Q_MAX))
        to_float[slow[abnormal]] = True
    # -0 is the integer 0, but -0.0 is negative.
    bits[negative & ~(zero & integer)] |= _SIGN_BIT
    for t in np.flatnonzero(to_float & in_float_slot).tolist():
        floats[t] = float(text[start[t] : start[t] + size[t]])
    return floats.reshape(rows, slots)[:, layout.is_float], ints


_ASCII_ZEROS = np.uint64(0x3030303030303030)
# Entry c: for each little-endian uint64 word of a 24-byte row, 8 times the
# number of the row's c lowest bytes in it, as the first 3 bytes of a uint32.
_LOW_SHIFTS = np.array([[8 * min(max(c - 8 * k, 0), 8) for k in range(4)] for c in range(_ROW + 1)], np.uint8).view(np.uint32)


def _mantissas(buf: np.ndarray, ends: np.ndarray, point_places: np.ndarray, chars: np.ndarray):
    """The mantissas that end before ``ends`` in ``buf`` as uint64, wrapping past 2**64; whether each is below 2**64; and whether it reaches 10**19.

    ``point_places`` counts back from an end to the mantissa's point, 0 for
    none; ``chars`` counts its characters, the point's included.  The 24
    bytes before each end are gathered as one row of three little-endian
    words, first byte lowest.  In a row, the digits before the point move
    one byte on over it, a digit place at a time, and the bytes before the
    digits become 0, by a pair of shifts.
    """
    rows = _windows(buf, _ROW)[ends - _ROW]
    row_bytes = rows.view(np.uint8)
    # The place in row_bytes of each point, and the digits before it.
    at = np.flatnonzero(point_places)
    places = point_places[at]
    digits = chars[at] - places
    at *= _ROW
    at += _ROW - places
    del places
    while at.size:
        row_bytes[at] = row_bytes[at - 1]
        at -= 1
        more = np.flatnonzero(digits > 1)
        at, digits = at[more], digits[more] - 1
    rows = rows.view("<u8").reshape(-1, 3)
    rows ^= _ASCII_ZEROS
    zeroing = np.take(_LOW_SHIFTS, np.maximum(_ROW - chars + (point_places > 0), 0)).view(np.uint8).reshape(-1, 4)[:, :3]
    rows >>= zeroing
    rows <<= zeroing
    del zeroing
    high, middle, low = _parse_eight(rows).T
    w = middle * _E8
    w += low
    # Below 2**64 = 18446744073709551616.
    fits = (high < 1844) | ((high == 1844) & (w <= 6744073709551615))
    big = high >= 1000
    high *= _E16
    w += high
    return w, fits, big


def _exponents(buf: np.ndarray, ends: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The unsigned exponents of at most 4 ``digits`` that end before ``ends`` in ``buf``, as int64; more digits give a wrong one."""
    quads = _windows(buf, 4)[ends - 4].view("<u4").astype(np.uint64) ^ (_ASCII_ZEROS >> _U32)
    shifts = (32 - 8 * np.minimum(digits, 4)).astype(np.uint64)
    quads = (quads >> shifts) << shifts
    quads = quads * _U10 + (quads >> _U8)
    return ((quads & _U255) * np.uint64(100) + ((quads >> _U16) & _U255)).astype(np.int64)
