"""The text of ``'%.17g' % x`` for a whole float64 array at once.

CPython formats a double with 17 significant digits at about 0.45 µs a
value: 17 digits lie beyond the 14-digit quick path of Gay's conversion
(Gay, "Correctly rounded binary-decimal and decimal-binary conversions",
1990), so every value takes the big-integer path.  ``join_g17`` gives the
same text for an array in numpy passes:

1. the decimal exponent e from ``log10``, corrected by one where the
   scaled value below has 16 or 18 digits before its point;
2. D = round(|x| * 10**(16 - e)), the 17 significant digits, from Dekker's
   exact product (Numer. Math. 18, 224 (1971)) of |x| with the double-double
   (hi, lo) of 10**(16 - e);
3. D's digits from a table of all four-digit groups;
4. fixed or e-notation as ``%g`` lays them out: fixed for -4 <= e < 17,
   trailing zeros dropped, and the point with them when no digit follows.

The computed |x| * 10**(16 - e) lies within 4u^2 * 10**17 < 4.94e-15 of the
exact one (u = 2**-53): the pair (hi, lo) misses 10**(16 - e) by at most
u^2 * hi, the product |x| * lo is rounded once, within u^2 * |x| * hi, and
the sum of Dekker's error term and that product once more, within
u * (u + u) * |x| * hi.  A value whose fraction lies within ``TIE_BAND``
(2**-46 = 1.42e-14) of 1/2, where that error could decide the rounding,
takes CPython's own ``%`` instead, as do zeros, infinities, NaNs and
magnitudes outside [1e-280, 1e280], where the product would underflow or
overflow.  So every text is CPython's.
"""

from __future__ import annotations

import numpy as np

# 10**k for k in [K_MIN, K_MAX] as a double-double (hi, lo): hi = fl(10**k),
# lo = fl(10**k - hi), and hi split in two 26-bit halves for Dekker's product
K_MIN, K_MAX = -300, 300
# decimal exponents of the magnitudes the array pass takes: past them the
# product's low terms would be subnormal, or the split of 10**(16 - e) overflow
E_MIN, E_MAX = -280, 279
# half a unit of D within this of a value's fraction: the value takes `%`
TIE_BAND = 2.0 ** -46
SPLITTER = 2.0 ** 27 + 1
# bytes per value while the texts are laid out: the digits after the lead
# digit in columns 8-23 (four uint32 words), and before them, right-aligned
# in the first eight bytes, the sign, any "0.000" and the lead digit, or
# e-notation's lead digit and point
WIDTH = 32
LEAD = 7

# the four decimal digits of 0..9999, most significant first
_digits = np.indices((10, 10, 10, 10)).reshape(4, -1)
# DIGITS4[g]: the four ASCII digits of g, as one uint32 word
DIGITS4 = np.ascontiguousarray(48 + _digits.T, np.uint8).view(np.uint32).ravel()
# TRAILING4[g]: trailing zeros of the four digits of g (4 for 0)
TRAILING4 = np.cumprod(_digits[::-1] == 0, axis=0).sum(axis=0)


def _head(kind: int, lead: int, minus: bool) -> str:
    """The text up to the lead digit, or to the point after it, of layout
    ``kind``: 0 the lead digit alone, 1-4 a fixed value below 1 whose lead
    digit is the kind-th after the point, 5 e-notation's "d."."""
    digit = str(lead)
    head = digit + "." if kind == 5 else "0." + "0" * (kind - 1) + digit if kind else digit
    return "-" * minus + head


# HEAD[code] and HEAD_START[code] for code = 2 * (10 * kind + lead) + minus:
# the first word of a value's row, its text right-aligned to end in column 7
# (column 6 for e-notation, whose column 7 holds the point), and the
# column where the text starts
_heads = [_head(kind, lead, minus) for kind in range(6) for lead in range(10)
          for minus in (False, True)]
HEAD = np.array([list(h.rjust(LEAD + 1).encode()) for h in _heads], np.uint8).view(
    np.uint64).ravel()
HEAD_START = np.array([LEAD + 1 - len(h) for h in _heads])
# SPANS[i, j]: columns i to j - 1 of a row
_columns, _bounds = np.arange(WIDTH), np.arange(WIDTH + 1)
SPANS = (_columns >= _bounds[:, None, None]) & (_columns < _bounds[:, None])
del _digits, _heads, _columns, _bounds

_HI = np.zeros(K_MAX - K_MIN + 1)
_LO = np.zeros_like(_HI)
_HI_HEAD = np.zeros_like(_HI)
_HI_TAIL = np.zeros_like(_HI)
_built = np.zeros(len(_HI), bool)


def _powers(k_lo: int, k_hi: int):
    """Fill the (hi, lo) pairs of 10**k_lo to 10**k_hi that no earlier call
    built, from exact integer arithmetic: every value is a correctly rounded
    quotient of integers.  The table holds constants, so a pair built for
    one caller is the pair every caller would build."""
    for k in np.flatnonzero(~_built[k_lo - K_MIN:k_hi - K_MIN + 1]) + k_lo:
        k = int(k)
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)
        t = SPLITTER * hi
        head = t - (t - hi)
        i = k - K_MIN
        _HI[i], _LO[i], _HI_HEAD[i], _HI_TAIL[i] = hi, lo, head, hi - head
        _built[i] = True


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - e)) as int64 and the fraction above it, from
    Dekker's exact a * hi plus a * lo; within 4.94e-15 of the exact value
    where it lies in [10**16, 10**17)."""
    k = 16 - e - K_MIN
    p = a * _HI[k]
    t = SPLITTER * a
    head = t - (t - a)
    tail = a - head
    head_hi, tail_hi = _HI_HEAD[k], _HI_TAIL[k]
    rest = ((head * head_hi - p) + head * tail_hi + tail * head_hi) + tail * tail_hi
    rest += a * _LO[k]
    floor = np.floor(rest)
    # exact: p is an integer, and rest a multiple of 2**-48 below 32
    return p.astype(np.int64) + floor.astype(np.int64), rest - floor


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps 1 and 2 for every value of ``x``: D as int64, e, and the values
    that must take ``%`` (for which D and e mean nothing)."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(a))
    scalar = ~((guess >= E_MIN) & (guess <= E_MAX))     # zeros, inf, nan, far magnitudes
    e = np.where(scalar, 0, guess).astype(np.int64)
    if len(x):
        _powers(15 - int(e.max()), 17 - int(e.min()))
    a[scalar] = 1.0
    whole, fraction = _scaled(a, e)
    # log10 missed the decade by one where |x| lies next to a power of ten
    missed = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    if len(missed):
        e[missed] += np.where(whole[missed] < 10 ** 16, -1, 1)
        whole[missed], fraction[missed] = _scaled(a[missed], e[missed])
        scalar |= (whole < 10 ** 16) | (whole >= 10 ** 17)
    scalar |= np.abs(fraction - 0.5) <= TIE_BAND
    digits = whole + (fraction > 0.5)
    carry = digits == 10 ** 17          # rounds up into the next decade
    digits[carry] = 10 ** 16
    e += carry
    return digits, e, scalar


def join_g17(values: np.ndarray) -> tuple[str, np.ndarray, np.ndarray]:
    """``''.join('%.17g, ' % v for v in values)``, the offsets of each
    value's text in it and which values took CPython's ``%``.

    Value i's text is ``text[offsets[i]:offsets[i + 1] - 2]``; ``offsets``
    has one entry more than ``values``.  ``scalar`` marks the values that
    were formatted one at a time (see the module docstring).
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = len(x)
    digits, e, scalar = _significand(x)

    # D = lead * 10**16 + g1 * 10**12 + g2 * 10**8 + g3 * 10**4 + g4
    high, low = np.divmod(digits, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    groups = [*np.divmod(high, 10 ** 4), *np.divmod(low, 10 ** 4)]
    del digits, high, low
    trailing = TRAILING4[groups[3]]
    for i in np.flatnonzero(trailing == 4):     # four zeros: the next group's count too
        for group in groups[2::-1]:
            trailing[i] += TRAILING4[group[i]]
            if group[i]:
                break
    count = 17 - trailing               # significant digits shown

    out = np.empty((n, WIDTH), np.uint8)
    words = out.view(np.uint32)
    for j, group in enumerate(groups):
        words[:, 2 + j] = DIGITS4[group]
    notation = np.flatnonzero(((e < -4) | (e >= 17)) & ~scalar)
    kind = np.clip(-e, 0, 4)
    kind[notation] = np.where(count[notation] > 1, 5, 0)
    code = 2 * (10 * kind + lead) + np.signbit(x)
    out.view(np.uint64)[:, 0] = HEAD[code]
    start = HEAD_START[code]
    end = LEAD + count
    rows = np.flatnonzero((e >= 0) & (e < 17) & ~scalar)
    if len(rows):                       # 1 <= |x| < 1e17: a point after e + 1 digits
        for point in set(e[rows].tolist()):
            at = rows[e[rows] == point]
            out[at, LEAD + point + 2:LEAD + 18] = out[at, LEAD + point + 1:LEAD + 17]
            out[at, LEAD + point + 1] = ord(".")
            end[at] = LEAD + np.where(count[at] > point + 1, count[at] + 1, point + 1)
    if len(notation):                   # e, its sign and two or three digits
        power = e[notation]
        suffix = np.empty((len(notation), 5), np.uint8)
        suffix[:, 0] = ord("e")
        suffix[:, 1] = np.where(power < 0, ord("-"), ord("+"))
        power = np.abs(power)
        places = 48 + power[:, None] // np.array([100, 10, 1]) % 10
        three = power >= 100
        suffix[:, 2:] = np.where(three[:, None], places, np.roll(places, -1, axis=1))
        out.ravel()[(notation * WIDTH + end[notation])[:, None] + np.arange(5)] = suffix
        end[notation] += 4 + three
    for i in np.flatnonzero(scalar):    # CPython's own text, from column 0
        text = ("%.17g" % x[i]).encode()
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
        start[i], end[i] = 0, len(text)
    flat = out.ravel()
    flat[np.arange(0, n * WIDTH, WIDTH) + end] = ord(",")
    flat[np.arange(1, n * WIDTH + 1, WIDTH) + end] = ord(" ")
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(end + 2 - start, out=offsets[1:])
    keep = SPANS[start, end + 2]
    return str(out[keep].data, "ascii"), offsets, scalar
