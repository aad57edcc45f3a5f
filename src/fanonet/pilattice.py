"""Builder for the side-coupled ("pi"-shaped) lattice family.

Two finite chains of n0 sites hang off an open host chain at two anchor
sites a distance ``length`` apart; ``leads`` extra host sites are kept on
each side beyond the anchors (hard-wall truncation of the infinite chain).

Site ordering is flat: left lead (outermost first), then the central chain
in path order a_{n0}..a_1, c_1..c_length, b_1..b_{n0}, then the right lead.
With equal hoppings the central block is therefore a uniform tridiagonal
matrix, and general-graph code never has to special-case this family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .graphs import GraphSpecError, LatticeGraph, Partition

__all__ = ["PiLatticeSpec", "PiLattice", "build_pi_lattice"]

LEFT_LEAD, CENTRAL, RIGHT_LEAD = 0, 1, 2


@dataclass(frozen=True)
class PiLatticeSpec:
    """Parameters of the side-coupled lattice.

    n0      -- sites per side chain (>= 1)
    length  -- host-chain separation of the anchors, inclusive (>= 2)
    kappa   -- host-chain hopping (finite, > 0)
    kappa0  -- side-chain and anchor hopping (finite, > 0)
    leads   -- host sites kept on each side beyond the anchors (>= 0)
    """

    n0: int
    length: int
    kappa: float = 1.0
    kappa0: float = 1.0
    leads: int = 0

    def __post_init__(self):
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


class PiLattice(NamedTuple):
    """Built lattice: graph, three-way partition, the site-name map and the
    spec it was built from.

    ``site_index`` maps names "a1".."a{n0}", "b1".."b{n0}" and
    "c{1-leads}".."c{length+leads}" to flat site indices.
    """

    graph: LatticeGraph
    partition: Partition
    site_index: dict[str, int]
    spec: PiLatticeSpec

    @property
    def central_sites(self) -> list[int]:
        """Central-chain sites in path order (positions 1..2*n0+length)."""
        start = self.spec.leads
        return list(range(start, start + self.spec.central_size))

    @property
    def joint_sites(self) -> tuple[int, int]:
        """Flat indices of the two anchors c_1 and c_length."""
        return self.site_index["c1"], self.site_index[f"c{self.spec.length}"]

    @property
    def joint_positions(self) -> tuple[int, int]:
        """1-based central-chain positions of the anchors: n0+1 and n0+length."""
        return self.spec.n0 + 1, self.spec.n0 + self.spec.length


def build_pi_lattice(spec: PiLatticeSpec) -> PiLattice:
    """Construct the lattice graph, its lead/central/lead partition and the
    name map.  The central subgraph's joint sites are c_1 and c_length."""
    n0, length, m = spec.n0, spec.length, spec.leads
    lam = spec.central_size

    site_index: dict[str, int] = {}
    # left lead: c_{1-m} .. c_0
    for s in range(m):
        site_index[f"c{1 - m + s}"] = s
    # central chain: a_{n0}..a_1, c_1..c_length, b_1..b_{n0}
    for i in range(n0):
        site_index[f"a{n0 - i}"] = m + i
    for j in range(1, length + 1):
        site_index[f"c{j}"] = m + n0 + j - 1
    for i in range(n0):
        site_index[f"b{i + 1}"] = m + n0 + length + i
    # right lead: c_{length+1} .. c_{length+m}
    for s in range(m):
        site_index[f"c{length + 1 + s}"] = m + lam + s

    hoppings: list[tuple[int, int, float]] = []
    # bonds along the central chain; host-chain bonds carry kappa, the side
    # chains and the two anchor bonds carry kappa0
    for p in range(1, lam):
        strength = spec.kappa if n0 + 1 <= p <= n0 + length - 1 else spec.kappa0
        hoppings.append((m + p - 1, m + p, strength))
    # leads and their attachment to the anchors
    for s in range(m - 1):
        hoppings.append((s, s + 1, spec.kappa))
        hoppings.append((m + lam + s, m + lam + s + 1, spec.kappa))
    if m > 0:
        hoppings.append((m - 1, site_index["c1"], spec.kappa))
        hoppings.append((site_index[f"c{length}"], m + lam, spec.kappa))

    graph = LatticeGraph(spec.site_count, tuple(hoppings))
    partition = Partition(graph, tuple([LEFT_LEAD] * m + [CENTRAL] * lam + [RIGHT_LEAD] * m))
    return PiLattice(graph, partition, site_index, spec)
