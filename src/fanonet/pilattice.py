"""Builder for the side-coupled ("pi"-shaped) lattice family.

Two finite chains of n0 sites hang off an open host chain at two anchor
sites a distance ``length`` apart; ``leads`` extra host sites are kept on
each side beyond the anchors (hard-wall truncation of the infinite chain).

Site ordering is flat: left lead (outermost first), then the central chain
in path order a_{n0}..a_1, c_1..c_length, b_1..b_{n0}, then the right lead.
The central block is therefore a tridiagonal matrix whose bond strengths,
``PiLatticeSpec.central_hoppings``, read the same from both ends: the
mirror symmetry that splits the chain into an even and an odd sector
(``spectra.fold_chain``).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import GraphSpecError, LatticeGraph, Partition

__all__ = ["PiLatticeSpec", "PiLattice", "SiteNames", "build_pi_lattice"]

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


class SiteNames(Mapping):
    """Read-only map from site names to flat site indices, each index
    computed from its name on lookup, so no name is formatted until it is
    asked for.

    The names are "c{1-leads}".."c{0}" (left lead, outermost first),
    "a{n0}".."a1", "c1".."c{length}", "b1".."b{n0}" and
    "c{length+1}".."c{length+leads}" (right lead), iterated in that order,
    which is flat site order.
    """

    def __init__(self, spec: PiLatticeSpec):
        self._spec = spec

    def __getitem__(self, name) -> int:
        n0, length, m = self._spec.n0, self._spec.length, self._spec.leads
        if not isinstance(name, str) or name[:1] not in ("a", "b", "c"):
            raise KeyError(name)
        try:
            k = int(name[1:])
        except ValueError:
            raise KeyError(name) from None
        if f"{name[0]}{k}" == name:             # "c-2" and "a1", not "c+1" or "a01"
            if name[0] == "a" and 1 <= k <= n0:
                return m + n0 - k
            if name[0] == "b" and 1 <= k <= n0:
                return m + n0 + length + k - 1
            if name[0] == "c" and 1 - m <= k <= length + m:
                # the side chain a sits before c_1, and b after c_length
                return m + k - 1 + n0 * ((k >= 1) + (k > length))
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        n0, length, m = self._spec.n0, self._spec.length, self._spec.leads
        yield from (f"c{k}" for k in range(1 - m, 1))
        yield from (f"a{k}" for k in range(n0, 0, -1))
        yield from (f"c{k}" for k in range(1, length + 1))
        yield from (f"b{k}" for k in range(1, n0 + 1))
        yield from (f"c{k}" for k in range(length + 1, length + m + 1))

    def __len__(self) -> int:
        return self._spec.site_count


class PiLattice(NamedTuple):
    """Built lattice: graph, three-way partition, the site-name map and the
    spec it was built from.

    ``site_index`` maps names "a1".."a{n0}", "b1".."b{n0}" and
    "c{1-leads}".."c{length+leads}" to flat site indices (``SiteNames``).
    """

    graph: LatticeGraph
    partition: Partition
    site_index: SiteNames
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


def build_pi_lattice(spec: PiLatticeSpec) -> PiLattice:
    """Construct the lattice graph, its lead/central/lead partition and the
    name map.  The central subgraph's joint sites are c_1 and c_length.
    Site c_j of the host chain is flat site leads + n0 + j - 1 for
    1 <= j <= length."""
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
    return PiLattice(graph, partition, SiteNames(spec), spec)
