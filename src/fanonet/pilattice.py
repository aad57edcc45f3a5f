"""Builder for the side-coupled ("pi"-shaped) lattice family.

Two finite chains of n0 sites hang off an open host chain at two anchor
sites a distance ``length`` apart; ``leads`` extra host sites are kept on
each side beyond the anchors (hard-wall truncation of the infinite chain).

Site ordering is flat.  The N = 2*n0 + length + 2*leads sites are the left
lead c_{1-leads}..c_0, the central chain in path order a_{n0}..a_1,
c_1..c_length, b_1..b_{n0}, and the right lead c_{length+1}..c_{length+leads}.
So host site c_j is flat site leads + j - 1 + n0*((j >= 1) + (j > length)),
the central chain is flat sites leads..leads + 2*n0 + length - 1, and with
leads >= 1 the outermost lead sites c_{1-leads} and c_{length+leads} are
flat sites 0 and N - 1.  The central block is a tridiagonal matrix whose
bond strengths, ``PiLatticeSpec.central_hoppings``, read the same from both
ends: the mirror symmetry that splits the chain into an even and an odd
sector (``spectra.fold_chain``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import GraphSpecError, LatticeGraph, Partition

__all__ = ["PiLatticeSpec", "PiLattice", "build_pi_lattice"]

LEFT_LEAD, CENTRAL, RIGHT_LEAD = 0, 1, 2


@dataclass(frozen=True)
class PiLatticeSpec:
    """Parameters of the side-coupled lattice.

    n0      -- sites per side chain (an integer >= 1)
    length  -- host-chain separation of the anchors, inclusive (an integer >= 2)
    kappa   -- host-chain hopping (finite, > 0)
    kappa0  -- side-chain and anchor hopping (finite, > 0)
    leads   -- host sites kept on each side beyond the anchors (an integer >= 0)

    A count that is not an integer (a bool included) raises GraphSpecError,
    as does one out of range.
    """

    n0: int
    length: int
    kappa: float = 1.0
    kappa0: float = 1.0
    leads: int = 0

    def __post_init__(self):
        for name in ("n0", "length", "leads"):
            value = getattr(self, name)
            # bool is an Integral, but True is no site count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise GraphSpecError(f"{name} must be an integer, got {value!r}")
        if self.n0 < 1:
            raise GraphSpecError(f"n0 must be >= 1, got {self.n0}")
        if self.length < 2:
            raise GraphSpecError(f"length must be >= 2, got {self.length}")
        for name in ("kappa", "kappa0"):
            value = getattr(self, name)
            if not 0 < value < math.inf:            # nan fails both comparisons
                raise GraphSpecError(f"{name} must be finite and > 0, got {value}")
        if self.leads < 0:
            raise GraphSpecError(f"leads must be >= 0, got {self.leads}")

    @property
    def central_size(self) -> int:
        """Sites on the a_*-c_*-b_* central chain."""
        return 2 * self.n0 + self.length

    @property
    def site_count(self) -> int:
        return self.central_size + 2 * self.leads

    @property
    def central_hoppings(self) -> np.ndarray:
        """Strengths of the central chain's 2*n0+length-1 bonds in path
        order: kappa0 along the side chains and on the two anchor bonds,
        kappa along the host chain between the anchors."""
        hoppings = np.full(self.central_size - 1, self.kappa0, dtype=float)
        hoppings[self.n0:self.n0 + self.length - 1] = self.kappa
        return hoppings


class PiLattice(NamedTuple):
    """Built lattice: the graph and its left-lead/central/right-lead
    partition, in the flat site order of the module docstring."""

    graph: LatticeGraph
    partition: Partition


def build_pi_lattice(spec: PiLatticeSpec) -> PiLattice:
    """Construct the lattice graph and its lead/central/lead partition
    (subgraphs LEFT_LEAD, CENTRAL and RIGHT_LEAD), sites in the module's
    flat order.  With leads >= 1 the outermost lead sites are flat sites 0
    and N - 1, and the central subgraph's joint sites are the anchors c_1
    and c_length, flat sites leads + n0 and leads + n0 + length - 1."""
    n0, length, m = spec.n0, spec.length, spec.leads
    lam = spec.central_size

    # bonds along the central chain
    hoppings = [(m + p, m + p + 1, strength)
                for p, strength in enumerate(spec.central_hoppings.tolist())]
    # leads and their attachment to the anchors
    for s in range(m - 1):
        hoppings.append((s, s + 1, spec.kappa))
        hoppings.append((m + lam + s, m + lam + s + 1, spec.kappa))
    if m > 0:
        hoppings.append((m - 1, m + n0, spec.kappa))                 # c0 - c1
        hoppings.append((m + n0 + length - 1, m + lam, spec.kappa))  # c_length - c_{length+1}

    graph = LatticeGraph(spec.site_count, tuple(hoppings))
    partition = Partition(graph, tuple([LEFT_LEAD] * m + [CENTRAL] * lam + [RIGHT_LEAD] * m))
    return PiLattice(graph, partition)
