"""Eigenmodes of subgraph Hamiltonians and trapped-mode certification.

A subgraph eigenmode whose amplitude vanishes on every joint site never
feels the inter-subgraph couplings, so its zero-padded embedding is an
exact eigenvector of the full network: the particle stays in the subgraph
forever.  ``find_trapping_modes`` certifies all such modes, handling
degenerate eigenspaces through a null-space criterion instead of the
basis-dependent per-vector node test.

A Hamiltonian equal to its mirror image splits into an even and an odd
block of half the size (``mirror_blocks``); ``unfold`` takes a state's
sector coordinates back to sites, and ``mirror_mode`` says in which
block, and where, a Jacobi matrix's mode n lies.
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
]

DEFAULT_SIZE_CAP = 4096
# relative amplitude below which a site counts as a wave node; separates
# float noise from genuinely small amplitudes
NODE_TOL = 1e-9
# energies closer than this (times ||H||_inf) form one degeneracy group
DEGENERACY_TOL = 1e-8
RESIDUAL_TOL = 1e-10


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
    Hamiltonian.
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


def diagonalize(h: np.ndarray, size_cap: int = DEFAULT_SIZE_CAP):
    """Dense symmetric eigendecomposition with validated contract.

    Returns ``(energies, vectors)`` with energies ascending and vectors in
    columns, orthonormal, each pair satisfying
    ||H g - e g||_inf < 1e-10 * ||H||.

    Raises
    ------
    ValueError
        If the matrix is not exactly symmetric or exceeds ``size_cap``.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] > size_cap:
        raise ValueError(f"matrix size {h.shape[0]} exceeds cap {size_cap}")
    if not np.array_equal(h, h.T):
        raise ValueError("matrix is not symmetric")
    energies, vectors = np.linalg.eigh(h)
    scale = np.linalg.norm(h, np.inf) or 1.0
    residual = np.max(np.abs(h @ vectors - vectors * energies))
    if residual >= RESIDUAL_TOL * scale:
        raise ArithmeticError(f"eigensolver residual {residual:.3e} out of tolerance")
    return energies, vectors


def mirror_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a matrix that commutes with the mirror
    i -> N-1-i, that is ``h == h[::-1, ::-1]``.

    Sector s (+1 even, -1 odd) has the basis (|i> + s|N-1-i>)/sqrt(2) for
    i < half = N // 2, and in the even sector of odd N also the middle site
    |half>, last.  There H is top + s*cross, with top = h[:half, :half]
    and cross[i, j] = h[i, N-1-j]; the middle site's
    row and column in the even block carry sqrt(2) times its matrix
    elements.  The blocks come from slices and one add or subtract, with
    no basis product, so each is exactly symmetric when ``h`` is.

    Raises ValueError unless ``h`` is square and mirror-symmetric.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.array_equal(h, h[::-1, ::-1]):
        raise ValueError("matrix is not mirror-symmetric")
    half = len(h) // 2
    top = h[:half, :half]
    cross = h[:half, ::-1][:, :half]
    even, odd = top + cross, top - cross
    if len(h) % 2:
        middle = np.sqrt(2.0) * h[:half, half]
        even = np.block([[even, middle[:, None]], [middle[None, :], h[half, half]]])
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


def _energy_groups(energies: np.ndarray, scale: float) -> list[slice]:
    """Slices of ascending ``energies`` whose members lie within tolerance."""
    tol = DEGENERACY_TOL * scale
    groups = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    return groups


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
    Within a degenerate eigenspace the criterion becomes a null-space
    problem over the eigenbasis combinations, solved per energy group.
    With no couplings at all, every eigenmode is vacuously trapped.
    """
    sites = partition.sites_of(l)
    if not sites:
        raise ValueError(f"subgraph {l} is empty")
    h_l, sites = subgraph_hamiltonian(graph, partition, l)
    local = {s: i for i, s in enumerate(sites)}

    # one row per outside neighbor site: the coupling weights into l
    rows: dict[int, np.ndarray] = {}
    for i, j, s in partition.couplings():
        inner, outer = (i, j) if partition.assignment[i] == l else (j, i)
        if partition.assignment[inner] != l:
            continue
        rows.setdefault(outer, np.zeros(len(sites)))[local[inner]] = s
    coupling = np.array([rows[m] for m in sorted(rows)]) if rows else None
    coupling_peak = np.max(np.abs(coupling)) if rows else None

    energies, vectors = diagonalize(h_l)
    scale = np.linalg.norm(h_l, np.inf)
    h_full = None                       # the whole network, once a mode is trapped

    certificates = []
    for group in _energy_groups(energies, scale):
        basis = vectors[:, group]              # (n_l, d)
        if coupling is not None:
            leak = coupling @ basis            # (n_outside, d)
            peak = np.max(np.abs(leak))
            tol = NODE_TOL * max(peak, coupling_peak)
            # one column: its only singular value is its 2-norm >= peak, so
            # with peak > 2*tol (the 2 leaves room for the SVD's rounding)
            # the SVD below would keep nothing
            if basis.shape[1] == 1 and peak > 2.0 * tol:
                continue
            # combinations u with leak @ u = 0: trailing right-singular
            # vectors whose singular value is below node tolerance
            _, svals, vh = np.linalg.svd(leak)
            keep = [
                vh[r]
                for r in range(basis.shape[1])
                if r >= len(svals) or svals[r] < tol
            ]
            trapped = [basis @ u for u in keep]
        else:
            trapped = [basis[:, i] for i in range(basis.shape[1])]
        energy = float(np.mean(energies[group]))
        if trapped and h_full is None:
            h_full = assemble_hamiltonian(graph)
        for vec in trapped:
            full = np.zeros(graph.site_count)
            full[sites] = vec / np.linalg.norm(vec)
            residual = float(np.max(np.abs(h_full @ full - energy * full)))
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
