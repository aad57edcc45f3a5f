"""Array arithmetic that rounds exactly as the scalar evaluation does, and the
sign-change root finder shared by the reflection-zero and gamma scans.

The scattering formulas and both root scans run on whole arrays of
momenta, but every array element must equal, bit for bit, what evaluating
the same formula at one momentum gives (the CLI promises byte-identical
output, and a momentum that fails a check is re-evaluated alone to raise
its error).  Two of numpy's array loops round differently from scalar
arithmetic: the complex product fuses its multiply-adds, and the float
power takes a vectorised pow.  Numpy scalars and Python complex numbers
both use the schoolbook product and the C library's pow, so products and
powers go through ``mul`` and ``power`` here, and moduli through
``modulus`` (the hypot of scalar ``abs``).  Everything else (sums,
quotients, the transcendental ufuncs) already rounds alike.

Each function takes scalars or arrays and returns a numpy scalar for
scalar input.
"""

from __future__ import annotations

import numpy as np

# bisection steps before a bracket counts as not converged
MAX_BISECTIONS = 200
SCALARS = (int, float, complex, np.number)


def mul(a, b):
    """a * b; a real factor meets a complex one as x + 0j, as in numpy."""
    if isinstance(a, SCALARS) and isinstance(b, SCALARS):
        # Python's complex product is the same schoolbook formula, and fast
        if isinstance(a, complex) or isinstance(b, complex):
            return np.complex128(complex(a) * complex(b))
        return a * b
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind != "c" and b.dtype.kind != "c":
        return (a * b)[()]
    a, b = a.astype(complex, copy=False), b.astype(complex, copy=False)
    re = a.real * b.real - a.imag * b.imag
    z = np.empty(np.shape(re), dtype=complex)
    z.real = re
    z.imag = a.real * b.imag + a.imag * b.real
    return z[()]


def power(x, n: int):
    """x ** n: numpy's complex power (integer exponents by repeated
    products) for complex x, the C library's pow for real x."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        return np.power(x, n)[()]
    if x.ndim == 0:
        return x[()] ** n
    # element by element as float64 scalars (Python floats would raise
    # OverflowError where the scalar gives inf)
    return np.array([v**n for v in x.flat], dtype=float).reshape(x.shape)


def modulus(z):
    """|z| through hypot, as abs() of a complex scalar computes it."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)[()]


def sign_change_roots(f, grid: np.ndarray, vals: np.ndarray, tol: float):
    """Roots bracketed by the sign changes along the rows of ``vals``.

    Row s of ``vals`` holds function number s (a scan) evaluated on the
    whole ``grid`` at once.  Each pair of neighbouring grid points with
    finite values of opposite sign is a bracket.  The brackets of all
    scans are bisected together, ``f(x, scan)`` evaluating scan[i] at x[i],
    each bracket with the scalar rule: if flo * fmid <= 0 the upper end
    moves to the midpoint, otherwise the lower end and its value do; a
    bracket stops once hi - lo < tol, or after MAX_BISECTIONS steps.

    Returns arrays over the brackets, scan by scan and in grid order within
    a scan: the midpoint of the final bracket, its ends, whether it shrank
    below ``tol``, and its scan.
    """
    scan, index = np.nonzero(
        (vals[:, :-1] * vals[:, 1:] < 0) & np.isfinite(vals[:, :-1]) & np.isfinite(vals[:, 1:])
    )
    lo, hi, flo = grid[index], grid[index + 1], vals[scan, index]
    live = np.arange(len(index))
    for _ in range(MAX_BISECTIONS):
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fmid = f(mid, scan[live])
        lower = flo[live] * fmid <= 0
        hi[live[lower]] = mid[lower]
        upper = live[~lower]
        lo[upper] = mid[~lower]
        flo[upper] = fmid[~lower]
        live = live[~(hi[live] - lo[live] < tol)]
    converged = np.ones(len(index), dtype=bool)
    converged[live] = False
    return 0.5 * (lo + hi), lo, hi, converged, scan
