"""Data model and Hamiltonian assembly for tight-binding networks.

A network is a set of sites carrying on-site energies, connected by real
hopping amplitudes.  All single-particle physics is carried by the N x N
real symmetric matrix H with H[i, j] = -kappa_ij and H[i, i] = mu_i; no
many-body machinery is needed for one particle.

Graphs and partitions are immutable after construction and every operation
here is a pure function, so they are safe to share across workers.  A
graph caches the stored elements of H, read once from the columns that
``build_graph`` checked or from its bond list, and a partition its labels
as an array: the subgraph block, the couplings and the
joint sites are numpy masks over them, with no N x N matrix and no Python
loop over the bonds.
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def _columns(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(i, j, strength) of the bonds and (site, energy) of the
        potentials, as arrays; ``build_graph`` sets them to the columns it
        checked."""
        bonds = np.array(self.hoppings, dtype=float).reshape(-1, 3)
        diagonal = np.array(self.potentials, dtype=float).reshape(-1, 2)
        return ((bonds[:, 0].astype(int), bonds[:, 1].astype(int), bonds[:, 2]),
                (diagonal[:, 0].astype(int), diagonal[:, 1]))

    @functools.cached_property
    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored elements of H, read-only
        and in row-major order: H[i, j] = H[j, i] = -strength of each bond
        and H[i, i] = mu_i of each potential, where a later write to an
        element wins, the bonds written in order and then the potentials.
        An element written as 0 is stored.  Computed once per graph,
        O(b log b) for b bonds and potentials."""
        n = self.site_count
        (i, j, strength), (site, energy) = self._columns
        rows = np.concatenate([np.column_stack([i, j]).ravel(), site])
        cols = np.concatenate([np.column_stack([j, i]).ravel(), site])
        values = np.concatenate([np.repeat(-strength, 2), energy])
        keys, last = np.unique((rows * n + cols)[::-1], return_index=True)
        rows, cols = np.divmod(keys, n)
        elements = rows, cols, values[::-1][last]
        for array in elements:
            array.flags.writeable = False
        return elements


# the types a JSON integer and a JSON number may have (bool aside)
_INTEGERS = (int, np.integer)
_NUMBERS = (int, np.integer, float, np.floating)


def _is_integer(value) -> bool:
    """An integer, but not a bool (JSON's true and false)."""
    return isinstance(value, _INTEGERS) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An integer or a float, but not a bool."""
    return isinstance(value, _NUMBERS) and not isinstance(value, bool)


def _all_of(kinds, values) -> bool:
    """Whether every one of ``values`` is an instance of ``kinds`` but not a
    bool, decided from the set of their types."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, values)))


def _indices(column) -> np.ndarray:
    """A column of integers as int64, or as Python ints where one exceeds it."""
    fits = not column or (-2**63 <= min(column) and max(column) < 2**63)
    return np.array(column, dtype=np.int64 if fits else object)


def _float(value) -> float:
    """``float(value)``, but infinite for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(column) -> np.ndarray:
    """A column of numbers as float64; an integer beyond the float range
    reads as infinite, and so fails as non-finite."""
    try:
        return np.array(column, dtype=float)
    except OverflowError:
        return np.array(list(map(_float, column)))


def _first(flags: np.ndarray) -> int:
    """Index of the first true flag, or the number of flags if none is."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if len(hits) else len(flags)


def _check_hoppings(entries, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns i, j and strength of a spec's ``hoppings`` list, checked
    column-wise.

    Each entry is checked, in this order, for its form ([integer, integer,
    number]), a self-loop, a site index out of range, a non-finite
    strength and a pair already given; the first entry that fails names
    the error, with the first rule it fails.
    """
    if not isinstance(entries, (list, tuple)):
        raise GraphSpecError("parse failure: 'hoppings' must be a list")
    # the form: the columns' types show whether an entry is malformed, and
    # only then is each entry looked at, to find the first such
    formed = _all_of((list, tuple), entries) and set(map(len, entries)) <= {3}
    columns = list(zip(*entries)) if formed and entries else [(), (), ()]
    malformed = len(entries)
    if not (formed and _all_of(_INTEGERS, columns[0]) and _all_of(_INTEGERS, columns[1])
            and _all_of(_NUMBERS, columns[2])):
        malformed = next((k for k, entry in enumerate(entries) if not (
            isinstance(entry, (list, tuple)) and len(entry) == 3 and _is_integer(entry[0])
            and _is_integer(entry[1]) and _is_number(entry[2]))), len(entries))
        columns = list(zip(*entries[:malformed])) or [(), (), ()]
    i, j = _indices(columns[0]), _indices(columns[1])
    strength = _floats(columns[2])
    rules = (
        (i == j, "self-loop: hopping ({i}, {j}) is not allowed"),
        ((i < 0) | (i >= n) | (j < 0) | (j >= n),
         "site index out of range: hopping ({i}, {j}) with {n} sites"),
        (~np.isfinite(strength), "parse failure: non-finite hopping strength on ({i}, {j})"),
    )
    bad = _first(np.logical_or.reduce([flags for flags, _ in rules]))
    # every entry before ``bad`` is in range: its pair repeats an earlier
    # one where a stable sort puts it right after an equal pair
    lo, hi = np.minimum(i[:bad], j[:bad]), np.maximum(i[:bad], j[:bad])
    order = np.lexsort((hi, lo))
    lo_sorted, hi_sorted = lo[order], hi[order]
    repeated = order[1:][(lo_sorted[1:] == lo_sorted[:-1]) & (hi_sorted[1:] == hi_sorted[:-1])]
    if len(repeated):
        k = int(np.min(repeated))
        raise GraphSpecError(f"duplicate hopping: pair ({lo[k]}, {hi[k]}) appears twice")
    if bad < len(i):
        message = next(text for flags, text in rules if flags[bad])
        raise GraphSpecError(message.format(i=i[bad], j=j[bad], n=n))
    if malformed < len(entries):
        raise GraphSpecError(f"parse failure: bad hopping entry {entries[malformed]!r}")
    return i, j, strength


def _site_key(raw):
    """The site of a potential's key (a JSON object key is a string), or
    None if the key names no integer."""
    try:
        site = int(raw) if isinstance(raw, str) else raw
    except ValueError:
        return None
    return site if _is_integer(site) else None


def _check_potentials(entries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns site and energy of a spec's ``potentials`` object,
    checked column-wise and sorted as their (site, energy) tuples sort.

    Each entry is checked, in this order, for its form (an integer key and
    a number), a site out of range and a non-finite energy; the first entry
    that fails names the error, with the first rule it fails.
    """
    if not isinstance(entries, Mapping):
        raise GraphSpecError("parse failure: 'potentials' must be an object of site: energy")
    keys, values = list(entries), list(entries.values())
    try:                                        # JSON object keys are strings
        sites = list(map(int, keys)) if set(map(type, keys)) <= {str} else None
    except ValueError:
        sites = None
    malformed = len(keys)
    if sites is None or not _all_of(_NUMBERS, values):
        sites = list(map(_site_key, keys))
        malformed = next((k for k, (site, mu) in enumerate(zip(sites, values))
                          if site is None or not _is_number(mu)), len(keys))
        sites, values = sites[:malformed], values[:malformed]
    site, energy = _indices(sites), _floats(values)
    rules = (
        ((site < 0) | (site >= n), "site index out of range: potential on site {site}"),
        (~np.isfinite(energy), "parse failure: non-finite potential on site {site}"),
    )
    bad = _first(np.logical_or.reduce([flags for flags, _ in rules]))
    if bad < len(site):
        message = next(text for flags, text in rules if flags[bad])
        raise GraphSpecError(message.format(site=site[bad]))
    if malformed < len(keys):
        key = keys[malformed]
        raise GraphSpecError(f"parse failure: bad potential entry {key!r}: {entries[key]!r}")
    order = np.lexsort((energy, site))
    return site[order], energy[order]


def build_graph(spec: Mapping) -> LatticeGraph:
    """Validate a structured graph description and return a LatticeGraph.

    ``spec`` follows the JSON schema
    ``{"sites": N, "hoppings": [[i, j, strength], ...],
    "potentials": {"i": mu, ...}, "partition": [l, ...]}``
    with 0-based indices and energies in units of a reference hopping.
    ``sites`` and the site indices of a hopping are integers, strengths
    and potentials are numbers (a bool is neither), and no other key is
    allowed; the partition is read by ``parse_graph_file``.  The entries
    are checked column by column, with numpy, and the graph keeps the
    checked columns; only a failure looks at single entries.

    Raises
    ------
    GraphSpecError
        On a missing, unknown or ill-typed field, a self-loop, a duplicate
        hopping or an out-of-range site index; the message names the
        first offending entry.
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
    bonds = _check_hoppings(spec.get("hoppings", []), n)
    diagonal = _check_potentials(spec.get("potentials", {}), n)
    graph = LatticeGraph(n, tuple(zip(*(column.tolist() for column in bonds))),
                         tuple(zip(*(column.tolist() for column in diagonal))))
    vars(graph)["_columns"] = bonds, diagonal   # what ``elements`` reads
    return graph


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
        if not (isinstance(assignment, list) and _all_of(_INTEGERS, assignment)):
            raise GraphSpecError("parse failure: 'partition' must be a list of integer labels")
        partition = Partition(graph, tuple(assignment))
    return graph, partition


@dataclass(frozen=True)
class Partition:
    """A labeling of sites into subgraphs, with derived joint/coupling data.

    ``assignment[i]`` is the subgraph index of site i.  Joint sites of a
    subgraph are its endpoints of inter-subgraph hoppings of nonzero
    strength, the ones through which a particle can leave; both the joint
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

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """``assignment`` as a read-only array."""
        labels = np.array(self.assignment, dtype=np.int64)
        labels.flags.writeable = False
        return labels

    def subgraph_indices(self) -> list[int]:
        return sorted(set(self.assignment))

    def couplings(self) -> list[tuple[int, int, float]]:
        """Hoppings whose endpoints lie in different subgraphs."""
        ends = np.array(self.graph.hoppings, dtype=float).reshape(-1, 3)[:, :2].astype(int)
        cut = self.labels[ends[:, 0]] != self.labels[ends[:, 1]]
        return [self.graph.hoppings[k] for k in np.flatnonzero(cut).tolist()]

    def joint_sites(self, l: int) -> set[int]:
        """Sites of subgraph ``l`` that couple to another subgraph through
        a bond of nonzero strength."""
        rows, cols, values = self.graph.elements
        joint = (self.labels[rows] == l) & (self.labels[cols] != l) & (values != 0)
        return set(rows[joint].tolist())


def assemble_hamiltonian(graph: LatticeGraph) -> np.ndarray:
    """Site-basis matrix: H[i, j] = -strength for bonds, H[i, i] = mu_i.

    Written from the graph's stored elements (``LatticeGraph.elements``),
    whose (i, j) and (j, i) entries come from the same float, so the
    result is bitwise symmetric.
    """
    h = np.zeros((graph.site_count, graph.site_count))
    rows, cols, values = graph.elements
    h[rows, cols] = values
    return h


def subgraph_hamiltonian(
    graph: LatticeGraph, partition: Partition, l: int
) -> tuple[np.ndarray, list[int]]:
    """Hamiltonian block of subgraph ``l`` and its (sorted) global sites,
    bitwise the rows and columns of ``assemble_hamiltonian(graph)`` at
    those sites, taken from the graph's stored elements."""
    sites = np.flatnonzero(partition.labels == l)
    local = np.full(graph.site_count, -1)
    local[sites] = np.arange(len(sites))
    rows, cols, values = graph.elements
    inside = (local[rows] >= 0) & (local[cols] >= 0)
    h = np.zeros((len(sites), len(sites)))
    h[local[rows[inside]], local[cols[inside]]] = values[inside]
    return h, sites.tolist()
