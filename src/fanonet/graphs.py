"""Data model and Hamiltonian assembly for tight-binding networks.

A network is a set of sites carrying on-site energies, connected by real
hopping amplitudes.  All single-particle physics is carried by the N x N
real symmetric matrix H with H[i, j] = -kappa_ij and H[i, i] = mu_i; no
many-body machinery is needed for one particle.

Graphs and partitions are immutable after construction and every operation
here is a pure function, so they are safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "GraphSpecError",
    "LatticeGraph",
    "Partition",
    "build_graph",
    "parse_graph_file",
    "assemble_hamiltonian",
    "subgraph_hamiltonian",
]


class GraphSpecError(ValueError):
    """Raised for malformed graph descriptions (parse, self-loop, duplicate,
    out-of-range index).  The message states which rule was violated."""


# the keys a graph spec may hold
SPEC_KEYS = ("sites", "hoppings", "potentials", "partition")


@dataclass(frozen=True)
class LatticeGraph:
    """A tight-binding network: weighted hoppings plus on-site potentials.

    Attributes
    ----------
    site_count : int
        Number of sites, indexed 0 .. site_count-1.
    hoppings : tuple of (int, int, float)
        Undirected bonds (i, j, strength); at most one per site pair, i != j.
    potentials : tuple of (int, float)
        On-site energies; sites not listed have mu = 0.
    """

    site_count: int
    hoppings: tuple[tuple[int, int, float], ...]
    potentials: tuple[tuple[int, float], ...] = ()


def _is_integer(value) -> bool:
    """An integer, but not a bool (JSON's true and false)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer or a float, but not a bool."""
    return _is_integer(value) or isinstance(value, (float, np.floating))


def build_graph(spec: Mapping) -> LatticeGraph:
    """Validate a structured graph description and return a LatticeGraph.

    ``spec`` follows the JSON schema
    ``{"sites": N, "hoppings": [[i, j, strength], ...],
    "potentials": {"i": mu, ...}, "partition": [l, ...]}``
    with 0-based indices and energies in units of a reference hopping.
    ``sites`` and the site indices of a hopping are integers, strengths
    and potentials are numbers (a bool is neither), and no other key is
    allowed; the partition is read by ``parse_graph_file``.

    Raises
    ------
    GraphSpecError
        On a missing, unknown or ill-typed field, a self-loop, a duplicate
        hopping or an out-of-range site index; the message names the
        offending entry.
    """
    if not isinstance(spec, Mapping):
        raise GraphSpecError("parse failure: graph spec must be a JSON object")
    unknown = [key for key in spec if key not in SPEC_KEYS]
    if unknown:
        raise GraphSpecError(f"parse failure: unknown key {unknown[0]!r}")
    n = spec.get("sites")
    if not _is_integer(n):
        raise GraphSpecError("parse failure: missing or non-integer 'sites'")
    n = int(n)
    if n < 1:
        raise GraphSpecError(f"parse failure: 'sites' must be positive, got {n}")

    entries = spec.get("hoppings", [])
    if not isinstance(entries, (list, tuple)):
        raise GraphSpecError("parse failure: 'hoppings' must be a list")
    hoppings: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3 and _is_integer(entry[0])
                and _is_integer(entry[1]) and _is_number(entry[2])):
            raise GraphSpecError(f"parse failure: bad hopping entry {entry!r}")
        i, j, strength = int(entry[0]), int(entry[1]), float(entry[2])
        if i == j:
            raise GraphSpecError(f"self-loop: hopping ({i}, {j}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphSpecError(f"site index out of range: hopping ({i}, {j}) with {n} sites")
        if not math.isfinite(strength):
            raise GraphSpecError(f"parse failure: non-finite hopping strength on ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphSpecError(f"duplicate hopping: pair ({key[0]}, {key[1]}) appears twice")
        seen.add(key)
        hoppings.append((i, j, strength))

    entries = spec.get("potentials", {})
    if not isinstance(entries, Mapping):
        raise GraphSpecError("parse failure: 'potentials' must be an object of site: energy")
    potentials: list[tuple[int, float]] = []
    for raw_site, mu in entries.items():
        try:                                    # JSON object keys are strings
            site = int(raw_site) if isinstance(raw_site, str) else raw_site
        except ValueError:
            site = None
        if not (_is_integer(site) and _is_number(mu)):
            raise GraphSpecError(f"parse failure: bad potential entry {raw_site!r}: {mu!r}")
        site, value = int(site), float(mu)
        if not 0 <= site < n:
            raise GraphSpecError(f"site index out of range: potential on site {site}")
        if not math.isfinite(value):
            raise GraphSpecError(f"parse failure: non-finite potential on site {site}")
        potentials.append((site, value))
    return LatticeGraph(n, tuple(hoppings), tuple(sorted(potentials)))


def parse_graph_file(path) -> tuple[LatticeGraph, "Partition | None"]:
    """Load a graph spec file; returns the graph and its partition, if any.

    A file that cannot be read, is not UTF-8 or not JSON, or holds a
    partition that is not a list of integer labels raises GraphSpecError;
    JSON syntax errors carry the decoder's position diagnostic.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphSpecError(f"cannot read graph file: {exc}") from exc
    except ValueError as exc:                   # not UTF-8
        raise GraphSpecError(f"parse failure: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError(f"parse failure: {exc}") from exc
    graph = build_graph(spec)
    partition = None
    if "partition" in spec:
        assignment = spec["partition"]
        if not (isinstance(assignment, list) and all(map(_is_integer, assignment))):
            raise GraphSpecError("parse failure: 'partition' must be a list of integer labels")
        partition = Partition(graph, tuple(assignment))
    return graph, partition


@dataclass(frozen=True)
class Partition:
    """A labeling of sites into subgraphs, with derived joint/coupling data.

    ``assignment[i]`` is the subgraph index of site i.  Joint sites of a
    subgraph are its endpoints of inter-subgraph hoppings; both the joint
    sets and the coupling list are recomputed from the graph on demand, so
    they can never drift out of sync with the assignment.
    """

    graph: LatticeGraph
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.graph.site_count:
            raise GraphSpecError(
                f"partition assigns {len(self.assignment)} sites, "
                f"graph has {self.graph.site_count}"
            )

    def subgraph_indices(self) -> list[int]:
        return sorted(set(self.assignment))

    def sites_of(self, l: int) -> list[int]:
        return [i for i, lab in enumerate(self.assignment) if lab == l]

    def couplings(self) -> list[tuple[int, int, float]]:
        """Hoppings whose endpoints lie in different subgraphs."""
        return [
            (i, j, s)
            for i, j, s in self.graph.hoppings
            if self.assignment[i] != self.assignment[j]
        ]

    def joint_sites(self, l: int) -> set[int]:
        """Sites of subgraph ``l`` that couple to another subgraph."""
        joints = set()
        for i, j, _ in self.couplings():
            if self.assignment[i] == l:
                joints.add(i)
            if self.assignment[j] == l:
                joints.add(j)
        return joints


def assemble_hamiltonian(graph: LatticeGraph) -> np.ndarray:
    """Site-basis matrix: H[i, j] = -strength for bonds, H[i, i] = mu_i.

    Both (i, j) and (j, i) entries are written from the same float, so the
    result is bitwise symmetric.
    """
    n = graph.site_count
    h = np.zeros((n, n))
    for i, j, s in graph.hoppings:
        h[i, j] = -s
        h[j, i] = -s
    for i, mu in graph.potentials:
        h[i, i] = mu
    return h


def subgraph_hamiltonian(
    graph: LatticeGraph, partition: Partition, l: int
) -> tuple[np.ndarray, list[int]]:
    """Hamiltonian block of subgraph ``l`` and its (sorted) global sites."""
    sites = partition.sites_of(l)
    pos = {s: idx for idx, s in enumerate(sites)}
    h = np.zeros((len(sites), len(sites)))
    for i, j, s in graph.hoppings:
        if i in pos and j in pos:
            h[pos[i], pos[j]] = -s
            h[pos[j], pos[i]] = -s
    for i, mu in graph.potentials:
        if i in pos:
            h[pos[i], pos[i]] = mu
    return h, sites
