"""The sign-change root finder shared by the reflection-zero and gamma scans."""

from __future__ import annotations

import numpy as np

# bisection steps before a bracket counts as not converged
MAX_BISECTIONS = 200


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
