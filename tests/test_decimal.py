"""The array pass of ``%.17g``: CPython's text for every double."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fanonet import _decimal
from fanonet._decimal import join_g17


def texts(values) -> tuple[list[str], np.ndarray]:
    """Each value's text from one ``join_g17`` call, and which values took
    the scalar ``%``; the joined text must be the texts each followed by
    ", " and nothing else."""
    text, offsets, scalar = join_g17(np.asarray(values, dtype=np.float64))
    pieces = [text[offsets[i]:offsets[i + 1] - 2] for i in range(len(offsets) - 1)]
    assert text == "".join(piece + ", " for piece in pieces)
    return pieces, scalar


def reference(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: np.array([b], np.uint64).view(np.float64)[0])
FINITE = st.one_of(BITS, st.floats(allow_nan=False, allow_infinity=False)).filter(np.isfinite)


@given(st.lists(FINITE, min_size=1, max_size=40))
@example([0.1, -0.3, 1e-9, 2.5e-5])
def test_every_finite_double_has_cpythons_text(values):
    # 64-bit patterns read as doubles: subnormals, every exponent, both signs
    assert texts(values)[0] == reference(values)


def test_nonfinite_values_take_the_scalar_format():
    values = [np.inf, -np.inf, np.nan, 0.5]
    pieces, scalar = texts(values)
    assert pieces == reference(values)
    assert scalar.tolist() == [True, True, True, False]


def test_fixed_cases():
    tiny = sys.float_info.min
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    values = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0), 2.5e-310,
         sys.float_info.max, -sys.float_info.max, 12345678901234567.0],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
        # the switch between fixed and e-notation: exponent -5 / -4 and 16 / 17
        [1e-5, 9.9999999999999991e-05, 1.0000000000000001e-05, 0.0001, 99999999999999984.0,
         1e16 - 2, 1e17, 1.2345e-5, 1.2345e-4, 1.5e16, 1.5e17],
    ])
    pieces, scalar = texts(values)
    assert pieces == reference(values)
    assert pieces[:4] == ["0", "-0", "1", "-1"] and scalar[:2].all()
    # 1e-14 lies below 10**-14 and rounds up into the next decade
    assert Fraction(1e-14) < Fraction(1, 10 ** 14) and "1e-14" in pieces


def test_exact_ties_take_the_scalar_format():
    # 1 + j * 2**-17 has 18 significant digits, the last a 5 for odd j: an
    # exact tie of the 17-digit rounding, which only CPython may decide
    j = np.arange(1, 2 ** 10)
    values = 1 + j * 2.0 ** -17
    pieces, scalar = texts(values)
    assert pieces == reference(values)
    assert scalar[j % 2 == 1].all()
    assert not scalar[j % 4 == 2].any()


@pytest.mark.parametrize("size", [0, 1, 5000])
def test_offsets_cover_the_whole_text(size):
    values = np.random.default_rng(size).standard_normal(size) * 1e-3
    text, offsets, scalar = join_g17(values)
    assert len(offsets) == size + 1 and offsets[0] == 0 and offsets[-1] == len(text)
    assert len(scalar) == size
    assert texts(values)[0] == reference(values)


def decade(value: float) -> int:
    """The e with 10**e <= |value| < 10**(e + 1), exactly."""
    exact = abs(Fraction(value))
    e = int(np.floor(np.log10(abs(value))))
    while Fraction(10) ** e > exact:
        e -= 1
    while Fraction(10) ** (e + 1) <= exact:
        e += 1
    return e


def bits(value: float) -> int:
    return int(np.array([value]).view(np.uint64)[0])


# positive doubles are ordered as their bit patterns: [1e-280, 1e279] uniformly
IN_TABLE = st.integers(bits(1e-280), bits(1e279)).map(
    lambda b: float(np.array([b], np.uint64).view(np.float64)[0]))


@given(st.lists(st.one_of(IN_TABLE, st.floats(1e-280, 1e279)), min_size=1, max_size=20))
def test_scaled_value_lies_within_its_error_bound(values):
    # |x| * 10**(16 - e) from the double-double product misses the exact
    # rational by at most 4u^2 * 10**17, which TIE_BAND exceeds
    a = np.abs(np.array(values))
    e = np.array([decade(v) for v in values])
    _decimal._powers(int(15 - e.max()), int(17 - e.min()))
    whole, fraction = _decimal._scaled(a, e)
    bound = 4 * Fraction(2) ** -106 * 10 ** 17
    assert bound < _decimal.TIE_BAND
    for v, k, w, f in zip(a.tolist(), e.tolist(), whole.tolist(), fraction.tolist()):
        exact = Fraction(v) * Fraction(10) ** (16 - k)
        assert abs(Fraction(w) + Fraction(f) - exact) <= bound
