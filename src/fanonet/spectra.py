"""Eigenmodes of subgraph Hamiltonians and trapped-mode certification.

A subgraph eigenmode whose amplitude vanishes on every joint site never
feels the inter-subgraph couplings, so its zero-padded embedding is an
exact eigenvector of the full network: the particle stays in the subgraph
forever.  ``find_trapping_modes`` certifies all such modes by one rule
for every energy group: its trapped modes are the null space of the
couplings applied to its eigenvectors, which in a degenerate eigenspace
replaces the basis-dependent per-vector node test.  It builds no N x N
matrix: the subgraph block, its couplings and each certificate's
residual come from the graph's bond list.  ``verify_trapping`` rechecks
a residual on the dense Hamiltonian, and ``residual_rounding_bound`` says
how far rounding lets the two lie apart.

A chain whose bond strengths read the same from both ends splits its
Hamiltonian into an even and an odd tridiagonal block of half the size;
``fold_chain`` writes both from the hopping profile in O(length).
``unfold`` takes a state's sector coordinates back to sites, and
``mirror_mode`` says in which block, and where, a Jacobi matrix's mode n
lies.

A block made of a uniform hard-wall lead of m sites, given by m and its
hopping, joined by its last site to the rest, needs no dense eigensolve:
``lead_eigenpairs`` diagonalizes only the rest, merges the lead's standing
waves with the rest's eigenpairs through one secular equation, certifies
the result and returns the rest's eigenvectors with it.  Nor does one
eigenpair of a symmetric tridiagonal matrix, such as a chain's sector
block: ``tridiagonal_eigenpair`` finds it from Sturm counts and inverse
iteration in O(n), certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import LatticeGraph, Partition, assemble_hamiltonian, subgraph_hamiltonian

__all__ = [
    "EigenMode",
    "TrappingCertificate",
    "diagonalize",
    "fold_chain",
    "lead_eigenpairs",
    "mirror_mode",
    "unfold",
    "open_chain_mode",
    "open_chain_modes",
    "find_trapping_modes",
    "verify_trapping",
    "residual_rounding_bound",
    "tridiagonal_eigenpair",
]

DEFAULT_SIZE_CAP = 4096
# relative amplitude below which a site counts as a wave node; separates
# float noise from genuinely small amplitudes
NODE_TOL = 1e-9
# energies closer than this (times ||H||_inf) form one degeneracy group
DEGENERACY_TOL = 1e-8
RESIDUAL_TOL = 1e-10
# numbers per array in a block of certificate residuals
RESIDUAL_BLOCK = 1 << 16
# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53
# a spoke, or the distance between two poles, below this many units
# roundoff of ||H||_inf is deflated (CHANGES.md derives it)
DEFLATION_ULPS = 8
# a secular root stops where f is within this many roundings of the size
# of its terms, or where its step or its bracket is within this many units
# roundoff of its offset
STOP_ULPS = 4
# a root also stops after a step within this fraction of its offset, and
# steps on to the strict stop if it then fails its residual bound
EARLY_STEP = 2.0**-30
# steps after which a secular root that has not stopped is a failure
SECULAR_MAX_STEPS = 60
# distances at which f is probed in each outer gap before the first step
OUTER_PROBES = 24
# Sturm counts after which a tridiagonal eigenvalue whose bracket has not
# closed is a failure: each step keeps at most three quarters of the
# bracket, so at most 126 steps take the Gershgorin interval down to
# 4 u ||T||_inf (the pi chains' sector blocks take 44-52)
TRIDIAGONAL_MAX_STEPS = 256
# solves after which inverse iteration that has not converged is a failure
TRIDIAGONAL_MAX_SOLVES = 3
# the golden ratio's fractional part: inverse iteration starts from the
# Weyl sequence frac(j * WEYL) - 1/2, which has no mirror symmetry or
# period that could make it orthogonal to a mode of a symmetric chain
WEYL = 0.6180339887498949
# the smallest positive normal double
TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class EigenMode:
    """One eigenpair of a subgraph Hamiltonian.

    ``nodes`` holds the zero-amplitude sites, 1-based chain positions of
    an analytic open-chain mode computed by integer arithmetic.
    """

    energy: float
    amplitudes: np.ndarray
    nodes: frozenset[int]


def support_masks(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support and the wave nodes of each vector along the last axis of
    ``vectors``: masks of the sites whose |amplitude| lies above, and below,
    ``NODE_TOL`` times the vector's largest |amplitude|."""
    magnitude = np.abs(vectors)
    scale = NODE_TOL * np.max(magnitude, axis=-1, keepdims=True)
    return magnitude > scale, magnitude < scale


@dataclass(frozen=True)
class TrappingCertificate:
    """A certified trapped mode: a subgraph eigenvector that is an exact
    eigenvector of the full network.

    ``vector`` lives on the full graph and is zero outside subgraph
    ``subgraph``; ``residual`` is ||H psi - E psi||_inf on the full
    Hamiltonian, summed from its bond list.
    """

    subgraph: int
    energy: float
    vector: np.ndarray
    residual: float

    def to_json_dict(self) -> dict:
        sites = np.flatnonzero(support_masks(self.vector)[0])
        return {
            "energy": float(self.energy),
            "sites": sites.tolist(),
            "amplitudes": self.vector[sites].tolist(),
            "residual": float(self.residual),
        }


def diagonalize(h: np.ndarray):
    """Dense symmetric eigendecomposition with validated contract.

    Returns ``(energies, vectors)`` with energies ascending and vectors in
    columns, orthonormal, each pair satisfying
    ||H g - e g||_inf < 1e-10 * ||H||.

    Raises
    ------
    ValueError
        If the matrix is not exactly symmetric or has more than
        ``DEFAULT_SIZE_CAP`` rows.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] > DEFAULT_SIZE_CAP:
        raise ValueError(f"matrix size {h.shape[0]} exceeds cap {DEFAULT_SIZE_CAP}")
    if not np.array_equal(h, h.T):
        raise ValueError("matrix is not symmetric")
    energies, vectors = np.linalg.eigh(h)
    scale = np.linalg.norm(h, np.inf) or 1.0
    residual = np.max(np.abs(h @ vectors - vectors * energies))
    if residual >= RESIDUAL_TOL * scale:
        raise ArithmeticError(f"eigensolver residual {residual:.3e} out of tolerance")
    return energies, vectors


def tridiagonal_eigenpair(diagonal, off_diagonal, index: int):
    """Eigenpair ``index`` (0-based, energies ascending) of the symmetric
    tridiagonal matrix T with ``diagonal`` a (n entries) and
    ``off_diagonal`` b (n - 1), in O(n) time and memory: no n x n matrix
    is built.  Returns ``(energy, vector)``, the vector of unit 2-norm with
    its largest entry positive.

    The energy is bracketed by Sturm counts: count(x), the number of
    negative pivots of the LDL^T factorization of T - x, is the number of
    eigenvalues below x, with a pivot smaller than pivmin = tiny *
    max(1, max b^2) taken as -pivmin, as LAPACK's dstebz does (Barth,
    Martin and Wilkinson, Numer. Math. 9, 386 (1967)).  From the Gershgorin
    interval, each step keeps count(lo) <= index < count(hi), at the point
    where the eigenvalue would lie were the bracket's eigenvalues evenly
    spread (kept in the bracket's middle half).  Once the bracket holds one
    eigenvalue that point is its middle, so the bracket halves down to
    4 u ||T||_inf + 2 pivmin.

    The vector comes from inverse iteration at the bracket's middle, from
    a fixed start (the Weyl sequence frac(j phi) - 1/2), with the LU
    factorization of T - x with partial pivoting (as LAPACK's dgttrf): its
    multipliers are at most 1 in size, and a pivot below u (||T||_inf +
    |x|) in size, such as the last one at an eigenvalue, is raised to that
    size.  So an exact zero pivot of the LDL^T form, where the eigenvector
    has exact zeros, is no special case.  The iteration stops once the
    solution has grown as an eigenvector's must (``_inverse_iteration``),
    after one or two solves.

    Every call certifies itself, and raises ArithmeticError if a check
    fails: count(lo) <= index < count(hi) on the final bracket; the
    residual ||T z - E z||_inf within the rounding bound that the bracket,
    the counts' and the factorization's backward errors give; and
    |z^T z - 1| within gamma_{2n+4} (CHANGES.md derives both bounds).
    ValueError if the arrays are not finite or do not fit, or if ``index``
    is not an integer in [0, n).
    """
    a = np.asarray(diagonal, dtype=float)
    b = np.asarray(off_diagonal, dtype=float)
    n = len(a)
    if a.ndim != 1 or n == 0 or b.shape != (n - 1,):
        raise ValueError(f"expected n >= 1 diagonal and n - 1 off-diagonal entries, "
                         f"got shapes {a.shape} and {b.shape}")
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) \
            or not 0 <= index < n:
        raise ValueError(f"eigenpair index must be an integer in [0, {n}), got {index!r}")
    index = int(index)
    abs_a, abs_b = np.abs(a), np.abs(b)
    radius = np.zeros(n)                        # the rows' off-diagonal sums
    radius[1:] = abs_b
    radius[:-1] += abs_b
    norm = float((abs_a + radius).max())        # nan or inf if an entry is
    if not math.isfinite(norm):
        raise ValueError("tridiagonal entries must be finite, and so must the row sums")
    u = UNIT_ROUNDOFF
    a_max, b_max = float(abs_a.max()), float(abs_b.max()) if n > 1 else 0.0
    a_list, b_list, b2_list = a.tolist(), b.tolist(), [0.0] + (b * b).tolist()
    pivmin = TINY * max(1.0, b_max * b_max)

    def count_error(x):
        """How far the eigenvalues of T lie from those of the matrix whose
        exact count is the one computed at a point of size ``x``."""
        return u * (a_max + x) + 2.0 * _gamma(2) * b_max + 3.0 * pivmin

    # past the Gershgorin interval by that error, so the counts there are
    # exactly 0 and n
    margin = 2.0 * (count_error(2.0 * norm) + _gamma(2) * norm)
    lo, hi = float((a - radius).min()) - margin, float((a + radius).max()) + margin
    count_lo, count_hi = 0, n
    tol = 4.0 * u * norm + 2.0 * pivmin
    for _ in range(TRIDIAGONAL_MAX_STEPS):
        if hi - lo <= tol:
            break
        # where eigenvalue ``index`` would lie were the bracket's
        # eigenvalues evenly spread, kept in the bracket's middle half
        share = (index + 0.5 - count_lo) / (count_hi - count_lo)
        x = lo + (hi - lo) * min(max(share, 0.25), 0.75)
        if not lo < x < hi:                     # lo and hi are neighbouring floats
            break
        count = _sturm_count(a_list, b2_list, x, pivmin)
        if count <= index:
            lo, count_lo = x, count
        else:
            hi, count_hi = x, count
    else:
        raise ArithmeticError(f"eigenvalue {index} not bracketed within "
                              f"{TRIDIAGONAL_MAX_STEPS} steps")
    if not count_lo <= index < count_hi:
        raise ArithmeticError(f"eigenvalue bracket [{lo!r}, {hi!r}] holds eigenvalues "
                              f"{count_lo}..{count_hi - 1}, not {index}")
    energy = 0.5 * (lo + hi)
    # inverse iteration has converged once the start s and the solution y of
    # (T - E) y = s satisfy ||s|| / ||y|| <= 2 (distance + phi): twice the
    # distance to the eigenvalue (the bracket and the counts' backward
    # error) and the backward error phi of the factorization and the solve
    distance = (hi - lo) + count_error(max(abs(lo), abs(hi)))
    floor = u * (norm + abs(energy)) or 1.0     # T = 0: any vector will do
    vector, ratio, phi = _inverse_iteration(a_list, b_list, energy, floor,
                                            a_max, b_max, distance)
    # ||(T - E) z||_2 <= ratio + phi, up to the norms' rounding; then the
    # normalization, and the rounding of the residual's own terms, four per row
    bound = (1.0 + _gamma(2 * n + 4)) * (ratio + phi) + u * (norm + abs(energy)) \
        + _gamma(4) * (a_max + 2.0 * b_max + abs(energy))
    residual = (a - energy) * vector
    residual[:-1] += b * vector[1:]
    residual[1:] += b * vector[:-1]
    worst = float(np.abs(residual).max())
    if not worst <= bound:
        raise ArithmeticError(f"eigenpair {index} misses T z = E z by {worst:.3e} "
                              f"(bound {bound:.3e})")
    defect = abs(float(vector @ vector) - 1.0)
    if not defect <= _gamma(2 * n + 4):
        raise ArithmeticError(f"eigenvector {index} has |z^T z - 1| = {defect:.3e}")
    return energy, vector


def _sturm_count(a, b2, x, pivmin):
    """Negative pivots of LDL^T(T - x), a pivot below pivmin in size
    taken as -pivmin; ``b2`` holds 0 and then the squared off-diagonal."""
    count, d = 0, 1.0
    for ai, bi2 in zip(a, b2):
        d = (ai - x) - bi2 / d
        if d < pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
    return count


def _inverse_iteration(a, b, shift, floor, a_max, b_max, distance):
    """Inverse iteration with T - ``shift`` from the Weyl sequence
    frac(j phi) - 1/2, until a start s and the solution y of (T - shift +
    F) y = s satisfy ||s||_2 / ||y||_2 <= 2 (``distance`` + phi), phi >=
    ||F||_2, at most TRIDIAGONAL_MAX_SOLVES times.  T - shift is factored
    as P L U with partial pivoting (as LAPACK's dgttrf), every pivot
    raised to at least ``floor`` in size.  Returns y of unit 2-norm with
    its largest entry positive, ||s|| / ||y|| and phi.

    F gathers the rounding of T - shift (u (max|a| + |shift|)), the raised
    pivots (at most one per column, so 2 floor) and the factorization's
    and the solves' backward error, gamma_8 |L| |U| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 8.1 and 9.3),
    whose 2-norm is at most 6 max|U|: a row or a column of |L| |U| adds at
    most two of |U|'s, each with three entries, and |L|'s entries are at
    most 1.  An entry of U is an entry of T - shift, or one such entry less
    a multiplier times another, so max|U| <= max|a| + |shift| + max|b|."""
    n = len(a)
    # U's rows (pivot, first and second superdiagonal), the multipliers and
    # the interchanges; (d, e) is the row still to be reduced
    rows, multipliers, swaps = [], [], []
    raised = 0.0
    d, e = a[0] - shift, (b[0] if n > 1 else 0.0)
    for below, diagonal, beyond in zip(b, a[1:], b[1:] + [0.0]):
        diagonal -= shift
        if abs(d) >= abs(below):
            if abs(d) < floor:
                d, raised = math.copysign(floor, d), floor
            m = below / d
            rows.append((d, e, 0.0))
            d, e = diagonal - m * e, beyond
            swaps.append(False)
        else:                                   # the next row is the pivot row
            if abs(below) < floor:
                below, raised = math.copysign(floor, below), floor
            m = d / below
            rows.append((below, diagonal, beyond))
            d, e = e - m * diagonal, -m * beyond
            swaps.append(True)
        multipliers.append(m)
    if abs(d) < floor:
        d, raised = math.copysign(floor, d), floor
    rows.append((d, 0.0, 0.0))
    phi = 6.0 * _gamma(8) * (a_max + b_max + abs(shift)) + 2.0 * raised \
        + UNIT_ROUNDOFF * (a_max + abs(shift))
    y = [(j * WEYL) % 1.0 - 0.5 for j in range(1, n + 1)]
    start = math.sqrt(sum(v * v for v in y))
    for _ in range(TRIDIAGONAL_MAX_SOLVES):
        # L^{-1} P^T y, then U^{-1} from the last row up
        solved, carry = [], y[0]
        for swap, m, value in zip(swaps, multipliers, y[1:]):
            if swap:
                solved.append(value)
                carry -= m * value
            else:
                solved.append(carry)
                carry = value - m * carry
        solved.append(carry)
        y, x1, x2 = [], 0.0, 0.0
        for (p, q, r), value in zip(reversed(rows), reversed(solved)):
            x1, x2 = (value - q * x1 - r * x2) / p, x1
            y.append(x1)
        y.reverse()
        # divided by its largest entry in size first, which becomes 1, so
        # that the sum of squares cannot overflow; the next start
        scale = max(y, key=abs)
        y = [v / scale for v in y]
        size = math.sqrt(sum(v * v for v in y))
        ratio = start / (abs(scale) * size)
        if ratio <= 2.0 * (distance + phi):
            break
        start = size
    else:
        raise ArithmeticError(f"inverse iteration did not converge in "
                              f"{TRIDIAGONAL_MAX_SOLVES} solves")
    return np.array(y) / size, ratio, phi


def lead_eigenpairs(rest, spokes, leads: int, kappa: float):
    """Energies of a block h made of a uniform hard-wall lead and a rest, and
    the rows of its eigenvectors on the rest, without a dense eigensolve of
    the block.

    The block's first m = ``leads`` sites are the lead, with hopping -kappa
    (``kappa``) between neighbours and no potential.  Its last site, the
    hub, is bonded to site i of the rest by ``spokes[i]`` and to nothing
    else, and ``rest`` is the real symmetric S x S block of the other
    sites, whose eigenpairs (mu, W) come from ``diagonalize``.  Returns
    ``(energies, rows, modes)``: the N = m + S energies ascending, the
    (S, N) rows V[m:, :] of the block's eigenvectors, and W, the rest's
    eigenvectors in columns (at m = 0, no lead and no hub: ``(mu, W, W)``).
    O(S^3) for the rest, O(N * S) per secular step and O(S^2 * N) for the
    rows, against O(N^3) for a dense eigensolve of the block, and O(N * S)
    memory.

    The hub sees two parts: the m - 1 outer lead sites, whose standing
    waves have energies nu_j = -2 kappa cos(theta_j), theta_j = j pi / m,
    and the rest, whose modes have energies mu_i and couple to the hub
    through the spokes z = W^T spokes.  An energy lam = -2 kappa cos(theta)
    is an eigenvalue exactly when the secular function

        f(lam) = lam + kappa sin((m-1) theta) / sin(m theta) - sum_i z_i^2 / (lam - mu_i)

    vanishes; the lead term, kappa (cos theta - sin theta cot(m theta)), is
    the sum over the lead poles nu_j in closed form.  f increases between
    neighbouring poles, so each gap between them holds one root, one lies
    below the lowest pole and one above the highest (Cuppen, Numer. Math.
    36, 177 (1981)).  A root is carried as its offset from the nearer end
    of its gap, so its distance to every pole keeps its relative accuracy
    (Gu and Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)), and is
    found by the middle way (R.-C. Li, LAPACK Working Note 89 (1994)): the
    parts of f from the poles at or below the gap and at or above it are
    each modelled by one pole at the gap's end that matches their slope,
    and the model's root is the next iterate.  The lead term comes in
    closed form inside the lead's range, from the angle of the nearer lead
    pole so without cancellation, and as its O(m) sum outside it.  The two
    outer gaps are first bracketed by probing f at distances that halve
    from 2 ||h||_inf.  A step that leaves its root's bracket halves the
    bracket instead.  The rows are W (z / (lam - mu)) / sqrt(f'(lam)).

    Spokes and pole distances below DEFLATION_ULPS units roundoff of
    ||h||_inf are deflated: a rest mode with such a spoke is an eigenvector
    as it stands, and rest poles that coincide with a lead pole or with each
    other keep one combined pole and give up the rest of their span as
    eigenvectors at that energy.

    Every call certifies itself, and raises ArithmeticError when a
    certificate fails: each root is finite and strictly inside its own gap
    (so there are N of them), |f| at each root is within its rounding bound
    and the rows are orthonormal, ||rows rows^T - I||_max within the bound
    that the roots' conditioning gives (CHANGES.md derives both bounds).
    ValueError if ``leads`` is negative, ``kappa`` is not finite and
    positive, or ``rest`` and ``spokes`` do not fit S >= 1 sites, or if the
    rest has more than ``DEFAULT_SIZE_CAP`` sites.
    """
    rest, spokes = np.asarray(rest, dtype=float), np.asarray(spokes, dtype=float)
    m, size = leads, spokes.size
    if m < 0 or not 0 < kappa < math.inf or size == 0 or spokes.shape != (size,) \
            or rest.shape != (size, size):
        raise ValueError(f"expected leads >= 0, kappa > 0 and a rest of S >= 1 sites with S "
                         f"spokes, got {m}, {kappa}, shapes {rest.shape} and {spokes.shape}")
    scale = max(2.0 * kappa * (m > 1), kappa * (m > 1) + np.sum(np.abs(spokes)),
                np.max(np.sum(np.abs(rest), axis=1) + np.abs(spokes)))
    mu, w = diagonalize(rest)
    if m == 0:
        return mu, w, w
    return (*_Secular(m, kappa, mu, w, w.T @ spokes, scale).solve(), w)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), Higham's bound on k roundings."""
    k = k * UNIT_ROUNDOFF
    return k / (1.0 - k)


def _split_sum(terms: np.ndarray, count: np.ndarray):
    """Row sums of ``terms`` over its first ``count`` columns, and over all."""
    if not terms.shape[1]:
        return np.zeros(len(terms)), np.zeros(len(terms))
    partial = np.cumsum(terms, axis=1)
    head = partial[np.arange(len(terms)), np.maximum(count - 1, 0)]
    return np.where(count > 0, head, 0.0), partial[:, -1]


class _Secular:
    """The secular problem of ``lead_eigenpairs``: the m - 1 lead poles and
    the S rest poles with their spokes, deflated, and its roots."""

    def __init__(self, m, kappa, mu, w, z, scale):
        self.m, self.kappa, self.mu, self.w, self.scale = m, kappa, mu, w, scale
        j = np.arange(m + 1)
        # theta_j's sine and cosine as sines of exact multiples of pi/(2m),
        # from the nearer band edge and from the band's middle, so that each
        # keeps its relative accuracy everywhere
        self.sin = np.sin(np.minimum(j, m - j) * (np.pi / m))
        self.cos = np.sin((m - 2 * j) * (np.pi / (2 * m)))
        self.nu = -2.0 * kappa * self.cos
        self.a2 = 2.0 * kappa**2 / m * self.sin**2          # lead spoke squared
        self._deflate(z)

    # ------------------------------------------------------------ deflation
    def _deflate(self, z):
        m, mu, tol = self.m, self.mu, DEFLATION_ULPS * UNIT_ROUNDOFF * self.scale
        small = np.abs(z) <= tol
        kept = np.flatnonzero(~small)
        # a rest mode with a spoke below tolerance is an eigenvector as it is
        self.energies, self.columns = [mu[small]], [self.w[:, small]]
        # kept poles within tolerance of the previous one join its group; a
        # group within tolerance of a lead pole joins that pole
        group = np.cumsum(np.diff(mu[kept], prepend=-np.inf) > tol) - 1
        count = group[-1] + 1 if len(kept) else 0
        at_lead = np.zeros(len(kept), dtype=int)
        if m > 1:
            j = np.clip(np.rint(np.arccos(np.clip(-mu[kept] / (2.0 * self.kappa), -1.0, 1.0))
                                * m / np.pi).astype(int), 1, m - 1)
            at_lead = np.where(np.abs(mu[kept] - self.nu[j]) <= tol, j, 0)
        lead_of = np.zeros(count, dtype=int)
        np.maximum.at(lead_of, group, at_lead)
        # each group's pole: its lead pole, else its last member
        pole = mu[kept][np.searchsorted(group, np.arange(count), side="right") - 1]
        pole = np.where(lead_of > 0, self.nu[lead_of], pole)
        size = np.bincount(group, minlength=count) + (lead_of > 0)
        for g in np.flatnonzero(size > 1).tolist():
            self._rotate(kept[group == g], lead_of[g], z)
        self.kept, self.entry, self.z = kept, group, z[kept]     # rest mode -> its group
        self.weight = np.bincount(group, self.z**2, minlength=count)
        self.group_pole, self.group_lead = pole, lead_of

    def _rotate(self, members, lead, z):
        """Deflate a group of coinciding poles: the Householder reflection
        that takes its spokes (and the lead spoke, if it sits at a lead pole)
        to the last axis leaves the other axes, orthogonal to every spoke,
        as eigenvectors at the group's energies."""
        spokes, diagonal = z[members], self.mu[members]
        if lead:
            spokes = np.append(spokes, np.sqrt(self.a2[lead]))
            diagonal = np.append(diagonal, self.nu[lead])
        v = spokes.copy()
        v[-1] += np.copysign(np.linalg.norm(spokes), spokes[-1])
        q = np.eye(len(v))[:, :-1] - np.outer(v, 2.0 * v[:-1] / (v @ v))
        self.energies.append(diagonal @ q**2)
        self.columns.append(self.w[:, members] @ q[:len(members)])

    # ---------------------------------------------------------------- solve
    def solve(self):
        """Every root of f, one per gap between neighbouring poles, and the
        rows of their eigenvectors, certified."""
        m = self.m
        # the distinct poles, ascending: the lead poles (with any rest weight
        # at them) and the rest poles at none
        values = np.sort(np.concatenate([self.nu[1:m], self.group_pole[self.group_lead == 0]]))
        lo, hi = np.append(-np.inf, values), np.append(values, np.inf)
        if not len(values):                     # no pole: the hub alone, at 0
            zero = np.zeros(1)
            return self._certify(self._record(zero, zero, zero, zero, np.zeros((1, 0)),
                                              np.zeros((1, 0)), zero, np.ones(1, dtype=bool)))
        # per gap: the rest groups and lead poles at or below it, and the
        # lead pole L at or below a gap inside the lead's range, whose lead
        # term comes in closed form; the others sum it
        self.rest_below = np.searchsorted(self.group_pole, lo, side="right")
        self.lead_below = np.searchsorted(self.nu[1:m], lo, side="right")
        if m > 2:
            low = np.minimum(np.maximum(self.lead_below, 1), m - 2)
            self.lead_table = np.column_stack(
                [self.nu[low], self.nu[low + 1], self.a2[low], self.a2[low + 1],
                 self.cos[low], self.cos[low + 1], self.sin[low], self.sin[low + 1]])
        closed = np.isfinite(lo) & np.isfinite(hi)
        closed &= (lo >= self.nu[1]) & (hi <= self.nu[m - 1]) if m > 2 else False
        self.summed_mask = ~closed
        return self._certify(self._roots(lo, hi))

    def _roots(self, lo, hi):
        """The root of each gap (lo, hi), as its offset from the nearer end,
        by the middle way (``_middle_way``), with the certificates' data."""
        n = len(lo)
        bounded = np.isfinite(lo) & np.isfinite(hi)
        width = hi - lo
        # one evaluation starts every root: at the middle of each bounded
        # gap, and at OUTER_PROBES distances u_k from the finite end of each
        # outer gap, halving from the distance to -+2 ||h||_inf, beyond which
        # no eigenvalue lies
        at_low = np.isfinite(lo)
        origin = np.where(at_low, lo, hi)
        outer = np.flatnonzero(~bounded)
        side = np.where(at_low[outer], 1.0, -1.0)
        u = (2.0 * self.scale - side * origin[outer])[:, None] * 0.5 ** np.arange(OUTER_PROBES)
        probe = np.concatenate([np.flatnonzero(bounded), np.repeat(outer, OUTER_PROBES)])
        x = np.concatenate([width[bounded] / 2, (side[:, None] * u).ravel()])
        values = self._state(probe, origin[probe], x)
        # side * f rises with the distance in an outer gap: its root lies
        # between the first probe from the far end where that is at most 0
        # and the probe before, where the root starts, or nearer than the
        # nearest probe, which it starts from
        middles, row = np.count_nonzero(bounded), np.arange(len(outer))
        below = side[:, None] * values[0][middles:].reshape(u.shape) <= 0
        found = below.any(axis=1)
        k = np.where(found, np.argmax(below, axis=1), OUTER_PROBES - 1)
        pick = np.empty(n, dtype=int)
        pick[bounded] = np.arange(middles)
        pick[outer] = middles + row * OUTER_PROBES + k
        f, left, right, size = (v[pick] for v in values)
        x = x[pick]
        near = np.where(found, u[row, k], 0.0)
        far = u[row, np.where(found, np.maximum(k - 1, 0), k)]
        t_lo = np.zeros(n)
        t_hi = np.where(bounded, width / 2, 0.0)
        t_lo[outer] = np.where(side > 0, near, -far)
        t_hi[outer] = np.where(side > 0, far, -near)
        gamma = _gamma(len(self.weight) + 10)
        # the middle's sign says on which side a bounded gap's root lies:
        # the origin is that end
        flip = bounded & (f < 0)
        at_low &= ~flip
        origin = np.where(flip, hi, origin)
        x = np.where(flip, -x, x)
        t_lo, t_hi = np.where(flip, -t_hi, t_lo), np.where(flip, 0.0, t_hi)

        def iterate(active, f, left, right, size, early):
            """Step the roots ``active`` from their states until each stops:
            where f is within STOP_ULPS roundings of its terms' size, where
            its step or its bracket is within STOP_ULPS units roundoff of
            it, or, when ``early``, after a step within EARLY_STEP of its
            offset."""
            for _ in range(SECULAR_MAX_STEPS):
                at = x[active]
                a = t_lo[active] = np.where(f < 0, at, t_lo[active])
                b = t_hi[active] = np.where(f > 0, at, t_hi[active])
                step = self._middle_way(f, left, right, at, width[active], at_low[active],
                                        bounded[active])
                tol = STOP_ULPS * UNIT_ROUNDOFF * np.abs(at)
                small = np.abs(f) <= STOP_ULPS * UNIT_ROUNDOFF * size
                converged = np.abs(step - at) <= (EARLY_STEP * np.abs(at) if early else tol)
                stop = small | converged | (b - a <= tol)
                inside = (step > a) & (step < b)
                x[active] = np.where(stop, np.where(converged & ~small, step, at),
                                     np.where(inside, step, 0.5 * (a + b)))
                active = active[~stop]
                if not len(active):
                    return
                f, left, right, size = self._state(active, origin[active], x[active])
            raise ArithmeticError(f"{len(active)} secular roots did not converge "
                                  f"in {SECULAR_MAX_STEPS} steps")

        # the middle way converges quadratically, so a step within
        # EARLY_STEP leaves nearly every root at rounding level; the final
        # evaluation finds the others, which step on to the strict stop
        iterate(np.arange(n), f, left, right, size, early=True)
        f, left, right, size, d, inv, slope_size = self._state(np.arange(n), origin, x, True)
        # |f| at a root is within the rounding of its terms, gamma_{G+10}
        # times the sum of their sizes (G rest poles, each term rounded in
        # its distance, the offset's own rounding, reciprocal and product, and
        # the lead term, whose products and angles ``size`` holds), plus the
        # change of f across the stopping step
        bound = gamma * size + 2 * STOP_ULPS * UNIT_ROUNDOFF * np.abs(x) * (1.0 + left + right)
        again = np.flatnonzero(np.abs(f) > bound)
        if len(again):
            iterate(again, f[again], left[again], right[again], size[again], early=False)
            f, left, right, size, d, inv, slope_size = self._state(np.arange(n), origin, x,
                                                                   True)
            bound = gamma * size + 2 * STOP_ULPS * UNIT_ROUNDOFF * np.abs(x) \
                * (1.0 + left + right)
        inside = np.where(at_low, x > 0, x < 0) & (np.abs(x) < width)
        return self._record(origin + x, f, left + right, bound, d, inv, slope_size, inside)

    def _record(self, lam, f, slope, bound, d, inv, slope_size, inside):
        """The roots with what their rows and certificates need.  eta bounds
        the relative error of each row entry: the rounding of f' relative to
        f', and the root's own error, f's bound over f', relative to the
        nearest rest pole, plus the stopping step."""
        derivative = 1.0 + slope
        nearest = np.min(np.abs(d), axis=1, initial=np.inf)
        eta = _gamma(len(self.weight) + 10) * (1.0 + slope_size) / derivative \
            + bound / (derivative * nearest) + 2 * STOP_ULPS * UNIT_ROUNDOFF
        return lam, d, derivative, np.abs(f) <= bound, eta, inside

    def _state(self, index, origin, x, full=False):
        """f at lam = origin + x in the gaps ``index``, its slopes from the
        poles at or below each gap and from those above, and the sizes that
        bound the rounding of f; ``full`` adds the rest poles' distances
        (relatively accurate when the origin is the nearest pole), their
        reciprocals and the sizes that bound the rounding of f'."""
        d = (origin[:, None] - self.group_pole) + x[:, None]
        inv = 1.0 / d
        left, slope = _split_sum(inv * inv * self.weight, self.rest_below[index])
        rest = [-(inv @ self.weight), left, slope - left, np.abs(inv) @ self.weight, slope]
        # the lead term: in closed form for every gap (when the lead has a
        # range), then summed where the gap lies outside it
        lead = self._closed_lead(index, origin, x, full) if self.m > 2 else \
            [np.zeros(len(index)) for _ in range(5)]
        summed = np.flatnonzero(self.summed_mask[index])
        if len(summed):
            for part, value in zip(lead, self._summed_lead(index[summed], origin[summed],
                                                           x[summed])):
                part[summed] = value
        f, left, right, size, slope_size = (r + q for r, q in zip(rest, lead))
        return (f, left, right, size, d, inv, slope_size) if full else (f, left, right, size)

    def _summed_lead(self, index, origin, x):
        """lam plus the lead term, summed over the m - 1 lead poles, and its
        slopes from the lead poles at or below each gap and above it."""
        lead_d = (origin[:, None] - self.nu[1:self.m]) + x[:, None]
        terms = self.a2[1:self.m] / lead_d
        low, slope = _split_sum(terms / lead_d, self.lead_below[index])
        value = (origin + x) - np.sum(terms, axis=1)
        size = np.abs(origin) + np.abs(x) + np.sum(np.abs(terms), axis=1)
        return value, low, slope - low, size, slope

    def _closed_lead(self, index, origin, x, full):
        """lam plus the lead term in closed form, in gaps inside the lead's
        range, (nu_L, nu_L+1), from the nearer of the two; its slope's parts
        from those two poles are exact, and the remainder is split evenly
        between the sides."""
        m, kappa = self.m, self.kappa
        nu_low, nu_high, a2_low, a2_high, cos_low, cos_high, sin_low, sin_high = \
            self.lead_table[index].T
        d_low = (origin - nu_low) + x
        d_high = (origin - nu_high) + x
        use_low = np.abs(d_low) <= np.abs(d_high)
        # cos(theta) = cos(theta_J) - sigma for the nearer lead pole J;
        # sin(theta) and sin(delta), delta = theta - theta_J, follow without
        # cancellation
        sigma = np.where(use_low, d_low, d_high) * (0.5 / kappa)
        xj = np.where(use_low, cos_low, cos_high)
        yj = np.where(use_low, sin_low, sin_high)
        cos_t = xj - sigma
        spread = sigma * (2.0 * xj - sigma)
        with np.errstate(invalid="ignore", divide="ignore"):   # out of range: summed
            sin_t = np.sqrt(yj * yj + spread)
            delta = np.arcsin(sigma * yj + xj * spread / (sin_t + yj))
            c = 1.0 / np.tan(m * delta)
            one_c2 = 1.0 + c * c
            c_cot = c * cos_t / sin_t
            slope = 0.5 * (m * one_c2 - 1.0 - c_cot)            # G'
            near_low = a2_low / (d_low * d_low)
            near_high = a2_high / (d_high * d_high)
            half = 0.5 * np.maximum(slope - near_low - near_high, 0.0)
            value = -kappa * (cos_t + sin_t * c)
            if not full:
                # the sizes of f's two lead terms, below its rounding bound's
                # (G' stands in for the size of f', which only ``full`` needs)
                return value, near_low + half, near_high + half, \
                    kappa * (np.abs(cos_t) + np.abs(sin_t * c)), slope
            # cos(theta) and sin(theta) round with their terms, and
            # cot(m delta) carries m |delta| (1 + c^2) times delta's
            # relative error
            size = kappa * (np.abs(xj) + np.abs(sigma)
                            + np.abs(c) * (yj * yj + np.abs(spread) + 2.0 * sigma * sigma) / sin_t
                            + sin_t * one_c2 * m * np.abs(delta))
        return value, near_low + half, near_high + half, size, \
            0.5 * (1.0 + np.abs(c_cot) + m * one_c2)

    @staticmethod
    def _middle_way(f, left, right, x, width, at_low, bounded):
        """The next offset: the root of lam + s - A/(lam - a) + B/(b - lam)
        (a, b the gap's ends; A, B match the slopes ``left`` and ``right`` of
        the parts of f from the poles at or below a and at or above b; s
        matches f), solved from the nearer end without cancellation."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # a bounded gap: lam's own slope joins the side away from the
            # origin, and the model C - A/(lam - a) + B/(b - lam), C constant,
            # is a quadratic in the distance u from the origin end:
            # C' u^2 - X u + A' width = 0, (C', A') = (C, A) at a, (-C, B) at b,
            # X = C' width + near u^2 + far (width - u)^2, whose first and
            # last terms each carry about far width^2 and cancel near the
            # origin end; it is summed as (+-f + near u) width
            # - far (width - u) u + near u^2, every term at the near pole's
            # scale
            near = np.where(at_low, left, right)
            far = np.where(at_low, right, left) + 1.0
            u = np.abs(x)
            big_a, c_near = near * u * u, np.where(at_low, f, -f) + near * u
            c_o = c_near - far * (width - u)
            big_x = c_near * width - far * (width - u) * u + big_a
            root = np.sqrt(np.maximum(big_x * big_x - 4.0 * c_o * big_a * width, 0.0))
            step = np.where(big_x >= 0, 2.0 * big_a * width / (big_x + root),
                            (big_x - root) / (2.0 * c_o))
            # an outer gap: lam + s - A/(lam - a), or lam + s + B/(b - lam), is
            # u^2 + y u - A = 0 in u
            y = np.where(at_low, 1.0, -1.0) * f - u + near * u
            outer = np.sqrt(y * y + 4.0 * near * u * u)
            outer = np.where(y >= 0, 2.0 * near * u * u / (y + outer), (outer - y) / 2.0)
        step = np.where(bounded, step, outer)
        return np.where(at_low, step, -step)

    def _certify(self, roots):
        """Rows of the secular roots and the deflated modes, sorted by
        energy, once the roots' certificates and the rows' Gram error hold.

        R = W U, with U the rest part of the eigenvectors in the rest's own
        modes, so R R^T - I = W (U U^T - I) W^T + (W W^T - I).  An entry of
        U U^T - I sums N products, each entry of U within eta of its exact
        value, so it is at most 2 eta + gamma_N; the rows of W have 1-norm
        at most sqrt(S) (1 + eps_W), which gives
        ||R R^T - I||_max <= eps_W + (1 + eps_W) S (2 max(eta) + gamma_N)
        with eps_W = ||W W^T - I||_max."""
        lam, d, derivative, small, eta, inside = roots
        if not np.all(inside):
            raise ArithmeticError(f"{np.count_nonzero(~inside)} of {len(lam)} secular roots "
                                  "left their gap: the roots do not interlace the poles")
        if not np.all(small):
            raise ArithmeticError(f"{np.count_nonzero(~small)} secular roots exceed "
                                  "their residual bound")
        spokes = self.z / d[:, self.entry]
        rows = self.w[:, self.kept] @ (spokes / np.sqrt(derivative)[:, None]).T
        energies = np.concatenate([lam, *self.energies])
        rows = np.concatenate([rows, *self.columns], axis=1)
        size, total = self.w.shape[0], len(energies)
        eps_w = np.max(np.abs(self.w @ self.w.T - np.eye(size)))
        bound = eps_w + (1.0 + eps_w) * size * (2.0 * np.max(eta, initial=0.0) + _gamma(total))
        gram = np.max(np.abs(rows @ rows.T - np.eye(size)))
        if not gram <= bound:
            raise ArithmeticError(f"sector rows are not orthonormal: Gram error {gram:.3e} "
                                  f"exceeds its bound {bound:.3e}")
        order = np.argsort(energies, kind="stable")
        return energies[order], rows[:, order]


def mirror_mode(n: int) -> tuple[int, int]:
    """Sector and block column (0-based) of eigenvector ``n`` (1-based,
    energies ascending) of a mirror-symmetric Jacobi matrix whose hoppings
    are all negative, such as the pi lattice's central chain.

    Eigenvector n has exactly n-1 sign changes (Sturm), and a vector of
    sector s has an even number of them for s = +1 and an odd number for
    s = -1, so mode n lies in sector (-1)^(n-1).  The two sectors' energies
    interlace, even first: mode n is eigenvector ceil(n/2) of the even
    block or n/2 of the odd block.  The rule holds in exact arithmetic, so
    it also orders pairs that floating point cannot split.
    """
    return (1, (n - 1) // 2) if n % 2 else (-1, n // 2 - 1)


def fold_chain(hoppings):
    """Even and odd blocks of the open chain with bond strengths
    ``hoppings`` (t, lambda - 1 of them, no potentials), whose profile
    reads the same from both ends, as ``(diagonal, off_diagonal)`` for the
    even, then the odd sector, in O(lambda).

    Sector s (+1 even, -1 odd) has the basis (|i> + s|lambda-1-i>)/sqrt(2)
    for i < half = lambda // 2, and in the even sector of odd lambda also the
    middle site |half>, last (``unfold``).  The bonds of the top half keep
    their -t.  At even lambda the middle bond joins site half-1 to its own
    image, so it becomes -+t on the last diagonal entry; at odd lambda it
    bonds the middle site to the even sector by sqrt(2) (-t), and the odd
    sector drops the middle site.  ValueError unless the profile equals
    its reverse.
    """
    t = np.asarray(hoppings, dtype=float)
    if t.ndim != 1 or not len(t) or not np.array_equal(t, t[::-1]):
        raise ValueError("expected the hoppings of a mirror-symmetric chain of two or more sites")
    half = (len(t) + 1) // 2
    off, middle = -t[:half - 1], -t[half - 1]
    if len(t) % 2:                              # even lambda
        even, odd = np.zeros(half), np.zeros(half)
        even[-1], odd[-1] = middle, -middle
        return (even, off), (odd, off.copy())
    return (np.zeros(half + 1), np.append(off, np.sqrt(2.0) * middle)), (np.zeros(half), off)


def unfold(w: np.ndarray, sector: int, size: int) -> np.ndarray:
    """Site amplitudes on ``size`` sites of the sector-``sector`` state
    with coordinates ``w`` (states in columns) in the basis of
    ``fold_chain``.  Odd states vanish at the middle site of odd
    ``size``."""
    w = np.asarray(w)
    half = size // 2
    if len(w) != half + (sector > 0 and size % 2):
        raise ValueError(f"{len(w)} coordinates do not fit sector {sector} of {size} sites")
    top = w[:half] / np.sqrt(2.0)
    # the middle site of odd ``size``: the last coordinate if even, else 0
    middle = w[half:] if sector > 0 else np.zeros((size % 2, *w.shape[1:]), w.dtype)
    return np.concatenate([top, middle, sector * top[::-1]])


def open_chain_mode(size: int, n: int, kappa: float = 1.0) -> EigenMode:
    """Analytic eigenmode n (1-based) of the uniform open chain of ``size``
    sites.

    Its momentum is n*pi/(size+1), its energy -2*kappa*cos(momentum) and
    its amplitude proportional to sin(momentum * j) at chain position j.
    Its wave nodes sit at positions j with n*j divisible by size+1, i.e. at
    the multiples of (size+1)/gcd(n, size+1), in exact integer arithmetic;
    the stored amplitude at a node is exactly zero.  O(size).
    """
    if not 1 <= n <= size:
        raise ValueError(f"mode must be in [1, {size}], got {n}")
    momentum = n * np.pi / (size + 1)
    g = np.sqrt(2.0 / (size + 1)) * np.sin(momentum * np.arange(1, size + 1))
    step = (size + 1) // math.gcd(n, size + 1)
    nodes = frozenset(range(step, size + 1, step))
    for j in nodes:
        g[j - 1] = 0.0
    return EigenMode(energy=-2.0 * kappa * np.cos(momentum), amplitudes=g / np.linalg.norm(g),
                     nodes=nodes)


def open_chain_modes(size: int, kappa: float = 1.0) -> list[EigenMode]:
    """All analytic eigenmodes of the uniform open chain of ``size`` sites,
    mode 1 first (``open_chain_mode``)."""
    if size < 1:
        raise ValueError(f"chain size must be >= 1, got {size}")
    return [open_chain_mode(size, n, kappa) for n in range(1, size + 1)]


def _energy_groups(energies: np.ndarray, scale: float) -> np.ndarray:
    """Edges of the groups of ascending ``energies`` whose neighbours lie
    within tolerance: group g is ``energies[edges[g]:edges[g + 1]]``."""
    breaks = np.flatnonzero(np.diff(energies) > DEGENERACY_TOL * scale) + 1
    return np.concatenate(([0], breaks, [len(energies)]))


def _residuals(graph: LatticeGraph, local: np.ndarray, energies: list[float],
               units: list[np.ndarray]) -> np.ndarray:
    """||H psi - E psi||_inf of each certificate (E, psi), from the graph's
    stored elements: psi is ``units[k]`` on the sites with ``local >= 0``
    (at those positions) and 0 elsewhere.

    Only the rows that psi reaches are formed: each one of a site of the
    subgraph or of an outside neighbour.  Every other row of H psi - E psi
    is exactly 0.  The certificates go in column blocks, so that no array
    holds more than RESIDUAL_BLOCK numbers (or one column, if one alone
    needs more), whatever their count.
    """
    rows, cols, values = graph.elements
    reach = local[cols] >= 0
    rows, cols, values = rows[reach], local[cols[reach]], values[reach]
    # the elements are row-major: each reached row is one run of them
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    at = local[rows[starts]]                   # -1 for an outside neighbour
    inner = at >= 0
    width = max(1, RESIDUAL_BLOCK // max(len(values), len(units[0])))
    residuals = []
    for first in range(0, len(units), width):
        psi = np.column_stack(units[first:first + width])
        h_psi = np.add.reduceat(values[:, None] * psi[cols], starts, axis=0)
        # -E psi on every site of the subgraph, plus H psi where H has
        # elements in a column of the subgraph
        diff = -np.asarray(energies[first:first + width]) * psi
        diff[at[inner]] += h_psi[inner]
        residuals.append(np.maximum(np.max(np.abs(diff), axis=0),
                                    np.max(np.abs(h_psi[~inner]), axis=0, initial=0.0)))
    return np.concatenate(residuals)


def find_trapping_modes(
    graph: LatticeGraph, partition: Partition, l: int
) -> list[TrappingCertificate]:
    """All independent trapped modes of subgraph ``l``.

    A subgraph eigenvector is trapped exactly when the inter-subgraph
    coupling annihilates it: at every outside site adjacent to ``l`` the
    coupling-weighted sum of joint amplitudes must vanish.  When each such
    outside site touches a single joint (every chain-like geometry) this is
    the plain wave-node test - zero amplitude on all joint sites; weighted
    cancellations over several joints are the degenerate "dark state" case.
    So one rule decides every energy group: its trapped modes are the null
    space of its leak, the couplings times its eigenvectors, found by an
    SVD.  A one-column leak's only singular value is its 2-norm, so the
    one-column groups are decided by their norms; the wider groups by one
    stacked SVD per width.  With no coupling of nonzero strength nothing
    leaks, and every eigenmode is trapped.

    The subgraph block, the coupling rows and each certificate's residual
    come from masks over the graph's stored elements: no N x N matrix is
    built.
    """
    h_l, sites = subgraph_hamiltonian(graph, partition, l)
    if not sites:
        raise ValueError(f"subgraph {l} is empty")
    local = np.full(graph.site_count, -1)
    local[sites] = np.arange(len(sites))
    # one row per outside neighbor site, ascending: the coupling weights
    # (-H) from it into l
    rows, cols, values = graph.elements
    edge = (local[cols] >= 0) & (local[rows] < 0)
    outer, row = np.unique(rows[edge], return_inverse=True)
    coupling = np.zeros((len(outer), len(sites)))
    coupling[row, local[cols[edge]]] = -values[edge]
    coupling_peak = np.max(np.abs(coupling), initial=0.0)

    energies, vectors = diagonalize(h_l)
    edges = _energy_groups(energies, np.linalg.norm(h_l, np.inf))
    widths = np.diff(edges)
    # the groups of each width d at once; each kept combination is filed
    # under its column, so that sorting the columns restores group order
    columns, found_energies, trapped = [], [], []
    for d in np.unique(widths).tolist():
        starts = edges[:-1][widths == d]
        index = starts[:, None] + np.arange(d)          # the columns of each group
        keep = np.ones(index.shape, dtype=bool)         # all of them, if nothing leaks
        if coupling_peak > 0:
            if d == 1:                  # a column's right-singular vector is [1.0]
                leaks = (coupling @ vectors[:, starts]).T[:, :, None]
                svals, vh = np.linalg.norm(leaks, axis=1), np.ones((len(starts), 1, 1))
            else:
                # each group's own product: a stacked one rounds differently
                leaks = np.stack([coupling @ vectors[:, a:a + d] for a in starts.tolist()])
                _, svals, vh = np.linalg.svd(leaks)
            tol = NODE_TOL * np.maximum(np.max(np.abs(leaks), axis=(1, 2)), coupling_peak)
            # combinations u with leak @ u = 0: the right-singular vectors
            # whose singular value is below node tolerance, or that have none
            keep[:, :svals.shape[1]] = svals < tol[:, None]
        g, r = np.nonzero(keep)
        columns.append(index[g, r])
        found_energies.append(np.mean(energies[index], axis=1)[g])
        trapped += (list(vectors[:, index[g, r]].T) if coupling_peak == 0 else
                    [vectors[:, a:a + d] @ u for a, u in zip(starts[g].tolist(), vh[g, r])])
    if not trapped:
        return []

    order = np.argsort(np.concatenate(columns))
    found_energies = np.concatenate(found_energies)[order].tolist()
    units = [trapped[k] / np.linalg.norm(trapped[k]) for k in order.tolist()]
    certificates = []
    residuals = _residuals(graph, local, found_energies, units)
    for energy, unit, residual in zip(found_energies, units, residuals.tolist()):
        full = np.zeros(graph.site_count)
        full[sites] = unit
        certificates.append(TrappingCertificate(l, energy, full, residual))
    return certificates


def verify_trapping(graph: LatticeGraph, certificate: TrappingCertificate) -> float:
    """Residual ||H psi - E psi||_inf recomputed on the full Hamiltonian,
    independent of the subgraph code path."""
    if certificate.vector.shape != (graph.site_count,):
        raise ValueError(
            f"certificate vector has {certificate.vector.shape[0]} sites, "
            f"graph has {graph.site_count}"
        )
    h = assemble_hamiltonian(graph)
    return float(np.max(np.abs(h @ certificate.vector - certificate.energy * certificate.vector)))


def residual_rounding_bound(graph: LatticeGraph, certificate: TrappingCertificate) -> float:
    """How far rounding lets a certificate's residual and the dense one of
    ``verify_trapping`` lie apart, for they sum the same terms of each row
    of H psi - E psi in different orders.

    Row i sums at most d + 2 products: H_ij psi_j over the row's diagonal
    and its off-diagonal elements, at most d (the largest degree), and
    -E psi_i.  Each evaluation lies within gamma_{d+2} S_i of the exact row,
    with S_i = sum_j |H_ij| |psi_j| + |E| |psi_i|, gamma_k = k u / (1 - k u)
    and u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1).  So the two lie within 2 gamma_{d+2} S_i of
    each other on each row, and their largest |row| no further apart than
    on the worst row.  Dense, like ``verify_trapping``: O(N^2).
    """
    h = assemble_hamiltonian(graph)
    degree = int(np.max(np.count_nonzero(h - np.diag(np.diag(h)), axis=1)))
    k = (degree + 2) * 2.0**-53
    psi = np.abs(certificate.vector)
    return 2.0 * k / (1.0 - k) * float(np.max(np.abs(h) @ psi + abs(certificate.energy) * psi))
