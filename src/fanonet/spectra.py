"""Eigenmodes of subgraph Hamiltonians and trapped-mode certification.

A subgraph eigenmode whose amplitude vanishes on every joint site never
feels the inter-subgraph couplings, so its zero-padded embedding is an
exact eigenvector of the full network: the particle stays in the subgraph
forever.  So every trapped mode lies in the kernel of the coupling C,
and ``find_trapping_modes`` diagonalizes only the subgraph Hamiltonian
restricted to ker C, one connected piece of it at a time.  It certifies
all trapped modes by one rule for every energy group: its trapped modes
are the null space of the group's leak out of ker C, which in a
degenerate eigenspace replaces the basis-dependent per-vector node test.
It builds no N x N matrix, nor the subgraph's block: ker C, the
restriction, the leak and each certificate's residual come from the
graph's bond list.  ``verify_trapping`` rechecks
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
waves with the rest's eigenpairs through one secular equation, whose lead
term comes in closed form on every gap (``secular``), certifies the
result and returns the rest's eigenvectors with it.  Blocks that share
the lead, such as a pi lattice's two mirror sectors, go through one call
and one iteration, each with the roots and rows it would get alone.  Nor
does one
eigenpair of a symmetric tridiagonal matrix, such as a chain's sector
block: ``tridiagonal_eigenpair`` finds it from Sturm counts and inverse
iteration in O(n), certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import secular
from .graphs import LatticeGraph, Partition, assemble_hamiltonian
from .secular import UNIT_ROUNDOFF, gamma as _gamma

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
# float noise from genuinely small amplitudes.  The trap search reads it as
# the eigenvector error that a leak may come from (``find_trapping_modes``)
NODE_TOL = 1e-9
# energies closer than this (times ||H||_inf) form one degeneracy group
DEGENERACY_TOL = 1e-8
RESIDUAL_TOL = 1e-10
# numbers per array in a block of eigenpair or certificate residuals
RESIDUAL_BLOCK = 1 << 16
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
    ||H g - e g||_inf < 1e-10 * ||H||, checked over blocks of columns.

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
    # over blocks of columns, so that no temporary holds more than
    # RESIDUAL_BLOCK numbers (or one column, if one alone needs more)
    width = max(1, RESIDUAL_BLOCK // max(len(h), 1))
    residual = max((np.abs(h @ vectors[:, a:a + width] - vectors[:, a:a + width]
                           * energies[a:a + width]).max() for a in range(0, len(h), width)),
                   default=0.0)
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


def lead_eigenpairs(blocks, leads: int, kappa: float):
    """Energies of blocks h made each of one uniform hard-wall lead and a
    rest, and the rows of their eigenvectors on the rest, without a dense
    eigensolve of a block.

    Every block's first m = ``leads`` sites are the lead, with hopping
    -kappa (``kappa``) between neighbours and no potential.  Its last site,
    the hub, is bonded to site i of the block's rest by ``spokes[i]`` and
    to nothing else, and ``rest`` is the real symmetric S x S block of the
    other sites, whose eigenpairs (mu, W) come from ``diagonalize``.
    ``blocks`` holds one ``(rest, spokes)`` pair per block, and the blocks
    share the lead, as the pi lattice's two mirror sectors do.  Returns one
    ``(energies, rows, modes)`` per block: the N = m + S energies
    ascending, the (S, N) rows V[m:, :] of the block's eigenvectors, and W,
    the rest's eigenvectors in columns (at m = 0, no lead and no hub:
    ``(mu, W, W)``).  O(S^3) for the rest, O(N * S) per secular step and
    O(S^2 * N) for the rows, against O(N^3) for a dense eigensolve of the
    block, and O(N * S) memory.

    The rest's modes, and the lead's standing waves, meet at the hub in one
    secular equation per block (``secular``), whose lead term comes in
    closed form, and all the blocks' roots are found in one iteration;
    each block's roots and rows are bitwise those of a call with that
    block alone.

    Every call certifies itself, and raises ArithmeticError when a
    certificate fails: each root is finite and strictly inside its own gap
    (so there are N of them), |f| at each root is within its rounding bound
    and the rows are orthonormal, ||rows rows^T - I||_max within the bound
    that the roots' conditioning gives (CHANGES.md derives both bounds).
    ValueError if there is no block, if ``leads`` is negative, ``kappa`` is
    not finite and positive, or a block's ``rest`` and ``spokes`` do not fit
    S >= 1 sites, or if a rest has more than ``DEFAULT_SIZE_CAP`` sites.
    """
    m, problems = leads, []
    for rest, spokes in blocks:
        rest, spokes = np.asarray(rest, dtype=float), np.asarray(spokes, dtype=float)
        size = spokes.size
        if m < 0 or not 0 < kappa < math.inf or size == 0 or spokes.shape != (size,) \
                or rest.shape != (size, size):
            raise ValueError(f"expected leads >= 0, kappa > 0 and a rest of S >= 1 sites with "
                             f"S spokes, got {m}, {kappa}, shapes {rest.shape} and "
                             f"{spokes.shape}")
        scale = max(2.0 * kappa * (m > 1), kappa * (m > 1) + np.sum(np.abs(spokes)),
                    np.max(np.sum(np.abs(rest), axis=1) + np.abs(spokes)))
        problems.append((rest, spokes, scale))
    if not problems:
        raise ValueError("expected at least one (rest, spokes) block")
    solved = [(*diagonalize(rest), spokes, scale) for rest, spokes, scale in problems]
    if m == 0:
        return [(mu, w, w) for mu, w, _, _ in solved]
    return secular.solve(m, kappa, solved)


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
               units: np.ndarray) -> np.ndarray:
    """||H psi - E psi||_inf of each certificate (E, psi), from the graph's
    stored elements: psi is column k of ``units`` on the sites with
    ``local >= 0`` (at those positions) and 0 elsewhere.

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
    width = max(1, RESIDUAL_BLOCK // max(len(values), units.shape[0]))
    residuals = []
    for first in range(0, units.shape[1], width):
        psi = units[:, first:first + width]
        h_psi = np.add.reduceat(values[:, None] * psi[cols], starts, axis=0)
        # -E psi on every site of the subgraph, plus H psi where H has
        # elements in a column of the subgraph
        diff = -np.asarray(energies[first:first + width]) * psi
        diff[at[inner]] += h_psi[inner]
        residuals.append(np.maximum(np.max(np.abs(diff), axis=0),
                                    np.max(np.abs(h_psi[~inner]), axis=0, initial=0.0)))
    return np.concatenate(residuals)


def _pieces(size: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The connected piece of each node of the graph on ``size`` nodes with
    edges (heads[k], tails[k]), named by its smallest node.

    Each round hooks every root to the smallest root it shares an edge
    with, then follows the pointers up to the roots: a pointer only ever
    decreases, so the rounds end, each a few array operations over the
    edges that still join two roots.  A path, star, grid or tree of 3,000
    nodes, numbered at random, takes under a millisecond.
    """
    root = np.arange(size)
    while True:
        a, b = root[heads], root[tails]
        apart = a != b
        if not apart.any():
            return root
        heads, tails, a, b = heads[apart], tails[apart], a[apart], b[apart]
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


class _Kernel(NamedTuple):
    """ker C of a subgraph and K = Q^T H_l Q on it (``find_trapping_modes``).

    Sites are the subgraph's positions 0 .. n-1, joints their places in J,
    and K's nodes are R's sites in order followed by N's columns.  C_J and
    (H_l Q)_J are kept as their nonzero elements.
    """

    rest: np.ndarray            # R, the sites that are no joint
    joints: np.ndarray          # J
    null: np.ndarray            # N, |J| x null columns
    outer: int                  # C_J's rows, one per outside neighbour
    coupling: tuple             # C_J's elements: rows, joints, values
    gain: tuple                 # (H_l Q)_J's elements: joints, nodes, values
    rows: np.ndarray            # K's nonzero elements
    cols: np.ndarray
    values: np.ndarray
    scale: float                # ||H_l||_inf
    leak_scale: float           # |C_J| times the largest joint row sum of |H_l|

    @property
    def size(self) -> int:
        """K's order: |R| plus N's columns."""
        return len(self.rest) + self.null.shape[1]


def _kernel(elements, local: np.ndarray, n: int) -> _Kernel:
    """ker C and K of the subgraph at the sites with ``local >= 0``, read
    from the graph's stored ``elements``.  K is formed from its blocks,
    symmetric by construction: each of its elements and its mirror are
    one float.

    C_J is block diagonal: a joint that shares no outside site with another
    has a column whose rows no other column touches, and its only singular
    value is its 2-norm.  So only the joints that share an outside site
    (S) go through an SVD, of their own columns; N is the null directions
    of that block and the unit vectors of the other joints whose norm is
    within NODE_TOL of C_J's largest |element|, exactly the null space of
    C_J under that rule.
    """
    rows, cols, values = elements
    at_row, at_col = local[rows], local[cols]
    edge = (at_col >= 0) & (at_row < 0) & (values != 0)
    outside, inside, weight = rows[edge], at_col[edge], -values[edge]
    joint = np.zeros(n, dtype=bool)
    joint[inside] = True
    rest, joints = np.flatnonzero(~joint), np.flatnonzero(joint)
    slot = np.empty(n, dtype=np.int64)          # a site's place in R or in J
    slot[rest], slot[joints] = np.arange(len(rest)), np.arange(len(joints))
    # C_J: a row per outside neighbour, a column per joint, the coupling
    # weights (-H) from the neighbour into the subgraph
    outer, row = np.unique(outside, return_inverse=True)
    column = slot[inside]
    coupling_peak = float(np.abs(weight).max(initial=0.0))
    crowded = (np.bincount(row) > 1)[row]       # an edge whose neighbour has others
    shared = np.zeros(len(joints), dtype=bool)
    shared[column[crowded]] = True
    in_block = shared[column]
    block_cols = np.flatnonzero(shared)
    # the shared joints' columns of C_J, on all of its rows: zero rows leave
    # the nonzero singular values and the null space as they are
    block = np.zeros((len(outer), len(block_cols)))
    block[row[in_block], np.searchsorted(block_cols, column[in_block])] = weight[in_block]
    _, svals, vh = np.linalg.svd(block)
    norms = np.sqrt(np.bincount(column, weights=weight * weight, minlength=len(joints)))
    lone = np.flatnonzero(~shared & (norms <= NODE_TOL * coupling_peak))
    block_null = vh[np.count_nonzero(svals > NODE_TOL * coupling_peak):].T
    null = np.zeros((len(joints), len(lone) + block_null.shape[1]))
    null[lone, np.arange(len(lone))] = 1.0
    null[block_cols, len(lone):] = block_null

    inner = (at_row >= 0) & (at_col >= 0)
    i, j, h = at_row[inner], at_col[inner], values[inner]
    row_sums = np.bincount(i, weights=np.abs(h), minlength=n)
    from_rest, to_joint = ~joint[i], joint[j]
    # H between the joints and the rest sites bonded to one (the border),
    # and among the joints, times N
    link, among = from_rest & to_joint, ~from_rest & to_joint
    nulls = null.shape[1]
    k_border = np.zeros((len(rest), nulls))     # a row per rest site
    np.add.at(k_border, slot[i[link]], h[link, None] * null[slot[j[link]]])
    h_null = np.zeros((len(joints), nulls))
    np.add.at(h_null, slot[i[among]], h[among, None] * null[slot[j[among]]])

    # H_RR, H_{border,J} N and its mirror, and N^T H_JJ N made symmetric as
    # the mean of it and its transpose (a + b is b + a in floating point);
    # N's columns are the nodes after R's
    within = from_rest & ~to_joint & (h != 0)
    k_null = null.T @ h_null
    k_null = 0.5 * (k_null + k_null.T)
    a, b = k_border.nonzero()
    c, d = k_null.nonzero()
    e, f = h_null.nonzero()
    extra = len(rest) + np.arange(nulls)
    return _Kernel(rest, joints, null, len(outer), (row, column, weight),
                   (np.concatenate([slot[j[link]], e]), np.concatenate([slot[i[link]], extra[f]]),
                    np.concatenate([h[link], h_null[e, f]])),
                   np.concatenate([slot[i[within]], a, extra[b], extra[c]]),
                   np.concatenate([slot[j[within]], extra[b], a, extra[d]]),
                   np.concatenate([h[within], k_border[a, b], k_border[a, b], k_null[c, d]]),
                   float(row_sums.max()), coupling_peak * float(row_sums[joints].max(initial=0.0)))


def _piece_eigenpairs(kernel: _Kernel):
    """``diagonalize`` each connected piece of K, one at a time.

    Returns the energies and eigenvectors of each piece in turn, in their
    pieces' order, the nodes piece by piece (``order``, piece p holding
    ``order[bounds[p]:bounds[p + 1]]``, columns bounds[p] .. bounds[p + 1]
    - 1 of the eigenvectors) and the leak C_J (H_l Q y)_J of every
    eigenvector y, a column each, summed piece by piece from the rows of y
    that (H_l Q)_J reads.
    """
    rows, cols, values, size = kernel.rows, kernel.cols, kernel.values, kernel.size
    bond = rows < cols
    root = _pieces(size, rows[bond], cols[bond])
    piece = (np.cumsum(root == np.arange(size)) - 1)[root]     # numbered by their roots
    order = piece.argsort(kind="stable")
    sizes = np.bincount(piece)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    position = np.empty(size, dtype=np.int64)   # a node's place in its piece
    position[order] = np.arange(size) - np.repeat(bounds[:-1], sizes)
    entries = piece[rows].argsort(kind="stable")
    entry_bounds = np.searchsorted(piece[rows][entries], np.arange(len(bounds)))
    gain_joint, gain_node, gain_value = kernel.gain
    gains = piece[gain_node].argsort(kind="stable")
    gain_bounds = np.searchsorted(piece[gain_node][gains], np.arange(len(bounds)))
    h_q = np.zeros((len(kernel.joints), size))              # (H_l Q y)_J
    energies, bases = [], []
    for p, (first, last) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        e = entries[entry_bounds[p]:entry_bounds[p + 1]]
        block = np.zeros((last - first, last - first))
        block[position[rows[e]], position[cols[e]]] = values[e]
        w, v = diagonalize(block)
        del block
        g = gains[gain_bounds[p]:gain_bounds[p + 1]]
        np.add.at(h_q[:, first:last], gain_joint[g], gain_value[g, None] * v[position[gain_node[g]]])
        energies.append(w)
        bases.append(v)
    coupling_row, coupling_joint, coupling_value = kernel.coupling
    leak = np.zeros((kernel.outer, size))
    np.add.at(leak, coupling_row, coupling_value[:, None] * h_q[coupling_joint])
    return np.concatenate(energies), bases, order, bounds, leak


def _trapped_combinations(energies: np.ndarray, leak: np.ndarray, scale: float,
                          leak_scale: float):
    """The combinations of K's eigenvectors, one energy group at a time,
    whose ``leak`` (a column per eigenvector) vanishes: for each width d of
    the groups, the k combinations' places in the energy order, their
    group energies, columns (k x d) and coefficients (k x d)."""
    ascending = energies.argsort(kind="stable")
    edges = _energy_groups(energies[ascending], scale)
    widths = np.diff(edges)
    found = []
    for d in sorted(set(widths.tolist())):
        index = edges[:-1][widths == d][:, None] + np.arange(d)
        leaks = leak[:, ascending[index]].transpose(1, 0, 2)
        if d == 1:                      # a column's right-singular vector is [1.0]
            svals, vh = np.linalg.norm(leaks, axis=1), np.ones((len(index), 1, 1))
        else:
            _, svals, vh = np.linalg.svd(leaks)
        tol = NODE_TOL * np.maximum(np.abs(leaks).max(axis=(1, 2), initial=0.0), leak_scale)
        # combinations u with leak @ u = 0: the right-singular vectors whose
        # singular value is within tolerance, or that have none
        keep = np.ones(index.shape, dtype=bool)
        keep[:, :svals.shape[1]] = svals <= tol[:, None]
        g, r = keep.nonzero()
        found.append((index[g, r], np.mean(energies[ascending[index]], axis=1)[g],
                      ascending[index[g]], vh[g, r]))
    return found


def find_trapping_modes(
    graph: LatticeGraph, partition: Partition, l: int
) -> list[TrappingCertificate]:
    """All independent trapped modes of subgraph ``l``.

    A mode of the subgraph is trapped exactly when the inter-subgraph
    coupling C annihilates it, so every trapped mode lies in ker C.  C
    reaches the subgraph only through its joint sites J, the endpoints of
    its outgoing bonds of nonzero strength.  So ker C has the orthonormal
    basis Q: the unit vectors of the other sites R, plus N, an orthonormal
    null basis of C's joint columns C_J (a direction whose singular value
    is within NODE_TOL of C_J's largest |element| counts as null).  N is
    empty unless C_J lacks full column rank, as when two joints bond to
    one outside site (a dark state).  v = Q y satisfies H_l v = E v if
    and only if K y = E y, with K = Q^T H_l Q, and C H_l Q y = 0: the
    first says that H_l v - E v has no part in ker C, the second that it
    has none outside it.

    So the search diagonalizes K, never H_l.  K is H_RR, bordered by
    H_RJ N and N^T H_JJ N.  Deleting the joints cuts chains into pieces,
    and each connected piece of K is ``diagonalize``d on its own.  The
    pieces' energies merge into groups whose neighbours lie within
    DEGENERACY_TOL * ||H_l||_inf (a group may span identical pieces),
    reported by their mean.  Each group's trapped modes are the null
    space of its leak C (H_l Q y), read on the joint rows only: a
    one-column leak by its 2-norm, the wider groups by one stacked SVD per
    width.  A combination is kept when its leak lies within NODE_TOL of
    the group's largest leak, or of the leak map's own scale, |C_J| times
    the largest row sum of |H_l| on a joint: what an eigenvector error of
    NODE_TOL can leak.  With no coupling of nonzero strength ker C is the
    whole subgraph, and every eigenmode is trapped.

    Everything is read from masks over the graph's stored elements.  The
    only square arrays are the pieces of K: the leak has a row per outside
    neighbour and a column per eigenvector, and no N x N matrix or n x n
    subgraph block is built.  Those arrays and the certificates still grow
    as n times the eigenvectors, so a subgraph of more than
    ``DEFAULT_SIZE_CAP`` sites raises ValueError, however small its pieces.
    """
    sites = np.flatnonzero(partition.labels == l)
    n = len(sites)
    if not n:
        raise ValueError(f"subgraph {l} is empty")
    if n > DEFAULT_SIZE_CAP:
        raise ValueError(f"subgraph size {n} exceeds cap {DEFAULT_SIZE_CAP}")
    local = np.full(graph.site_count, -1)
    local[sites] = np.arange(n)
    kernel = _kernel(graph.elements, local, n)
    if not kernel.size:                 # every site a joint, and C_J of full rank
        return []
    energies, bases, order, bounds, leak = _piece_eigenpairs(kernel)
    places, group_energies, columns, coefficients = zip(
        *_trapped_combinations(energies, leak, kernel.scale, kernel.leak_scale))
    places = np.concatenate(places)
    if not len(places):
        return []

    # certificate k, in energy order, is y_k: its columns of the pieces'
    # eigenvectors times its coefficients, written piece by piece, each
    # piece freed once written.  A certificate that takes one column of a
    # piece is that column times its coefficient there; those that take
    # several (a degenerate group inside one piece) are the piece's columns
    # times their block of coefficients, one product for all of them
    rank = np.empty(len(places), dtype=np.int64)
    rank[places.argsort()] = np.arange(len(places))
    owner = np.repeat(rank, np.concatenate([np.full(len(c), c.shape[1]) for c in columns]))
    column = np.concatenate([c.ravel() for c in columns])
    coefficient = np.concatenate([u.ravel() for u in coefficients])
    in_piece = np.searchsorted(bounds, column, side="right") - 1
    by = in_piece.argsort(kind="stable")
    y = np.zeros((kernel.size, len(places)))
    for t in np.split(by, np.flatnonzero(np.diff(in_piece[by])) + 1):
        p = int(in_piece[t[0]])
        basis, bases[p] = bases[p], None
        nodes = order[bounds[p]:bounds[p + 1]]
        _, inverse, counts = np.unique(owner[t], return_inverse=True, return_counts=True)
        one, several = t[counts[inverse] == 1], t[counts[inverse] > 1]
        y[np.ix_(nodes, owner[one])] = basis[:, column[one] - bounds[p]] * coefficient[one]
        if len(several):
            taken, at = np.unique(column[several], return_inverse=True)
            owners, of = np.unique(owner[several], return_inverse=True)
            block = np.zeros((len(taken), len(owners)))
            block[at, of] = coefficient[several]
            y[np.ix_(nodes, owners)] = basis[:, taken - bounds[p]] @ block
    del bases, basis
    # v = Q y on the subgraph's sites, normalized
    units = np.empty((n, len(places)))
    units[kernel.rest] = y[:len(kernel.rest)]
    units[kernel.joints] = kernel.null @ y[len(kernel.rest):]
    del y
    units /= np.linalg.norm(units, axis=0)
    found_energies = np.concatenate(group_energies)[places.argsort()].tolist()
    certificates = []
    residuals = _residuals(graph, local, found_energies, units)
    for k, (energy, residual) in enumerate(zip(found_energies, residuals.tolist())):
        full = np.zeros(graph.site_count)
        full[sites] = units[:, k]
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
