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

A graph equal to its mirror image splits its Hamiltonian into an even
and an odd block of half the size; ``mirror_blocks`` folds them straight
from the bond list, checking the mirror symmetry there in O(bonds), so
no N x N matrix is built.  ``unfold`` takes a state's sector coordinates
back to sites, and ``mirror_mode`` says in which block, and where, a
Jacobi matrix's mode n lies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .graphs import LatticeGraph, Partition, assemble_hamiltonian, subgraph_hamiltonian

__all__ = [
    "EigenMode",
    "TrappingCertificate",
    "diagonalize",
    "mirror_blocks",
    "mirror_mode",
    "unfold",
    "open_chain_mode",
    "open_chain_modes",
    "find_trapping_modes",
    "verify_trapping",
    "residual_rounding_bound",
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


@dataclass(frozen=True)
class EigenMode:
    """One eigenpair of a subgraph Hamiltonian.

    ``nodes`` holds the zero-amplitude sites.  For analytic open-chain
    modes these are 1-based chain positions computed by integer
    arithmetic; numerically detected nodes use |g_j| < NODE_TOL * max|g|.
    """

    energy: float
    amplitudes: np.ndarray
    nodes: frozenset[int]


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

    def _support(self, tol: float) -> np.ndarray:
        magnitude = np.abs(self.vector)
        return np.flatnonzero(magnitude > tol * np.max(magnitude))

    def support_sites(self, tol: float = NODE_TOL) -> list[int]:
        return self._support(tol).tolist()

    def node_sites(self, sites, tol: float = NODE_TOL) -> list[int]:
        """Sites among ``sites`` where the certified mode has a wave node."""
        sites = np.asarray(sites, dtype=int)
        magnitude = np.abs(self.vector)
        return sites[magnitude[sites] < tol * np.max(magnitude)].tolist()

    def to_json_dict(self) -> dict:
        sites = self._support(NODE_TOL)
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


def mirror_blocks(graph: LatticeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of the Hamiltonian of a graph that equals its
    mirror image under i -> N-1-i, folded straight from its bonds and
    potentials: no N x N matrix is built.

    Sector s (+1 even, -1 odd) has the basis (|i> + s|N-1-i>)/sqrt(2) for
    i < half = N // 2, and in the even sector of odd N also the middle site
    |half>, last.  There H is top + s*cross, with top = H[:half, :half]
    and cross[i, j] = H[i, N-1-j]; the middle site's row and column in the
    even block carry sqrt(2) times its matrix elements.  Each bond or
    potential lands in top, cross or the middle column (only the rows
    i < half are needed: the mirror gives the rest), and the blocks come
    from one add or subtract, so they are bitwise the slices of
    ``assemble_hamiltonian(graph)`` added and subtracted, and exactly
    symmetric.  O(bonds) besides the blocks themselves.

    Raises ValueError unless every matrix element equals its mirror image,
    checked on the bond list.
    """
    n, half = graph.site_count, graph.site_count // 2
    rows, cols, values = graph.elements
    keys = rows * n + cols
    # H equals its mirror image when each element equals the element at
    # (N-1-i, N-1-j), an absent one reading 0
    mirrored = (n - 1 - rows) * n + (n - 1 - cols)
    at = np.minimum(np.searchsorted(keys, mirrored), len(keys) - 1)
    image = np.where(keys[at] == mirrored, values[at], 0.0)
    if not np.all(values == image):
        raise ValueError("graph is not mirror-symmetric")
    # fold the rows i < half (the mirror gives the rest): top[i, j] =
    # H[i, j] for j < half, cross[i, j] = H[i, N-1-j]; each block element
    # is top + s*cross, written where either is not an absent 0
    upper = rows < half
    left, right = upper & (cols < half), upper & (cols >= n - half)
    top_at = rows[left] * half + cols[left]
    cross_at = rows[right] * half + (n - 1 - cols[right])
    at = np.union1d(top_at, cross_at)
    top, cross = np.zeros(len(at)), np.zeros(len(at))
    top[np.searchsorted(at, top_at)] = values[left]
    cross[np.searchsorted(at, cross_at)] = values[right]
    i, j = np.divmod(at, half)
    even, odd = np.zeros((half + n % 2,) * 2), np.zeros((half, half))
    even[i, j], odd[i, j] = top + cross, top - cross
    if n % 2:                                   # the middle site: H[:half + 1, half]
        middle = (cols == half) & (rows <= half)
        column = np.zeros(half + 1)
        column[rows[middle]] = values[middle]
        even[:half, half] = even[half, :half] = np.sqrt(2.0) * column[:half]
        even[half, half] = column[half]
    return even, odd


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


def unfold(w: np.ndarray, sector: int, size: int) -> np.ndarray:
    """Site amplitudes on ``size`` sites of the sector-``sector`` state
    with coordinates ``w`` (states in columns) in the basis of
    ``mirror_blocks``.  Odd states vanish at the middle site of odd
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
    step = (size + 1) // gcd(n, size + 1)
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
