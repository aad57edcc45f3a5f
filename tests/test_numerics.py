"""Array arithmetic that must round exactly as scalar arithmetic does."""

import numpy as np
import pytest

from fanonet._numerics import modulus, mul, power


def _values(seed, n=4000):
    """Complex values over many magnitudes, with zeros of both signs,
    infinities and nan mixed in."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n) \
        + 1j * rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    z.real[:49] = special.repeat(7)
    z.imag[:49] = np.tile(special, 7)
    return z


def _same(got, expected):
    """Equal values, nan where nan, and zeros of the same sign."""
    expected = np.array(expected)
    np.testing.assert_array_equal(got, expected)
    for part in (np.real, np.imag):
        zero = part(expected) == 0
        np.testing.assert_array_equal(np.signbit(part(got)[zero]), np.signbit(part(expected)[zero]))


def test_products_round_as_scalar_products():
    a, b = _values(1), _values(2)
    with np.errstate(all="ignore"):
        _same(mul(a, b), [x * y for x, y in zip(a, b)])
        _same(mul(a.real, b), [x * y for x, y in zip(a.real, b)])
        _same(mul(1j, b), [1j * y for y in b])
        _same(mul(a.real, b.real), [x * y for x, y in zip(a.real, b.real)])


@pytest.mark.parametrize("n", [2, 4])
def test_powers_round_as_scalar_powers(n):
    z = _values(3)
    z[-3:] = [1e200, -1e100 + 1e200j, 1e-200]               # overflow and underflow
    with np.errstate(all="ignore"):
        _same(power(z, n), [x**n for x in z])
        _same(power(z.real, n), [x**n for x in z.real])


def test_modulus_is_scalar_abs():
    z = _values(4)
    _same(modulus(z), [abs(x) for x in z])
    _same(modulus(z.real), [abs(x) for x in z.real])
