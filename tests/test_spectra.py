"""Eigen-decomposition, wave nodes and trapped-mode certification."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import (
    LatticeGraph,
    Partition,
    PiLatticeSpec,
    assemble_hamiltonian,
    build_pi_lattice,
    diagonalize,
    find_trapping_modes,
    open_chain_modes,
    residual_rounding_bound,
    subgraph_hamiltonian,
    verify_trapping,
)
from fanonet import spectra
from fanonet.cli import main
from fanonet.spectra import open_chain_mode

from _support import (
    brute_force_trapped,
    central_sites,
    host_site,
    random_graph,
    reference_json_dict,
    reference_blocks,
    reference_node_sites,
    reference_support_sites,
    reference_trapping_modes,
    resonant_existence,
    same_trapped_content,
)


@given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                   max_size=60))
def test_pieces_are_the_connected_components(size, edges):
    edges = [(a % size, b % size) for a, b in edges]
    heads = np.array([a for a, _ in edges], dtype=np.int64)
    tails = np.array([b for _, b in edges], dtype=np.int64)
    # each node's piece by a search from each node in turn, named by its
    # smallest node
    neighbours = {k: set() for k in range(size)}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    expected = [None] * size
    for start in range(size):
        if expected[start] is None:
            seen, frontier = {start}, [start]
            while frontier:
                frontier = [m for k in frontier for m in neighbours[k] if m not in seen]
                seen.update(frontier)
            for k in seen:
                expected[k] = min(seen)
    assert spectra._pieces(size, heads, tails).tolist() == expected


def test_dimer_diagonalization():
    energies, vectors = diagonalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(energies, [-1.0, 1.0], atol=1e-14)
    for col, expected in zip(vectors.T, ([1, 1], [1, -1])):
        expected = np.asarray(expected) / np.sqrt(2)
        assert min(np.linalg.norm(col - expected), np.linalg.norm(col + expected)) < 1e-12


def test_uniform_chain_matches_dispersion():
    size = 11
    h = np.zeros((size, size))
    for i in range(size - 1):
        h[i, i + 1] = h[i + 1, i] = -1.0
    energies, _ = diagonalize(h)
    expected = sorted(-2.0 * np.cos(n * np.pi / (size + 1)) for n in range(1, size + 1))
    np.testing.assert_allclose(energies, expected, atol=1e-12)


def test_pure_potential_graph_is_flat():
    energies, _ = diagonalize(np.diag([0.7, 0.7, 0.7]))
    np.testing.assert_allclose(energies, 0.7)


def test_diagonalize_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError, match="not symmetric"):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    monkeypatch.setattr(spectra, "DEFAULT_SIZE_CAP", 8)
    with pytest.raises(ValueError, match="cap"):
        diagonalize(np.zeros((12, 12)))
    with pytest.raises(ValueError, match="square"):
        diagonalize(np.zeros((3, 2)))


def test_diagonalize_checks_its_residual_without_a_square_temporary():
    # eigh holds the eigenvectors and a copy of the matrix, two n x n
    # arrays; the residual check, over column blocks, adds about
    # RESIDUAL_BLOCK numbers to that, not two more n x n arrays
    n = 600
    h = np.diag(np.full(n - 1, -1.0), 1)
    h += h.T
    tracemalloc.start()
    try:
        diagonalize(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (2 * n * n + 4 * spectra.RESIDUAL_BLOCK)


@given(st.integers(0, 10_000))
def test_diagonalize_contract_on_random_graphs(seed):
    graph, _ = random_graph(np.random.default_rng(seed))
    h = assemble_hamiltonian(graph)
    energies, vectors = diagonalize(h)
    assert np.all(np.diff(energies) >= 0)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(len(energies)), atol=1e-12)
    scale = np.linalg.norm(h, np.inf) or 1.0
    assert np.max(np.abs(h @ vectors - vectors * energies)) < 1e-10 * scale


@pytest.mark.parametrize(
    "n, nodes",
    [(3, {4, 8}), (4, {3, 6, 9}), (6, {2, 4, 6, 8, 10})],
)
def test_open_chain_node_positions(n, nodes):
    mode = open_chain_modes(11)[n - 1]
    assert mode.nodes == nodes
    for j in nodes:
        assert mode.amplitudes[j - 1] == 0.0


@pytest.mark.parametrize("size", range(1, 61))
def test_open_chain_nodes_match_brute_force_scan(size):
    for n, mode in enumerate(open_chain_modes(size), start=1):
        scan = frozenset(j for j in range(1, size + 1) if (n * j) % (size + 1) == 0)
        assert mode.nodes == scan
        assert all(mode.amplitudes[j - 1] == 0.0 for j in scan)


def test_open_chain_mode_builds_one_mode_alone():
    # open_chain_mode(size, n) is mode n of open_chain_modes, bit for bit,
    # without building the other size - 1 modes
    modes = open_chain_modes(12, 1.3)
    for n, mode in enumerate(modes, start=1):
        alone = open_chain_mode(12, n, 1.3)
        assert alone.energy == mode.energy and alone.nodes == mode.nodes
        assert alone.amplitudes.tobytes() == mode.amplitudes.tobytes()
    for n in (0, 13):
        with pytest.raises(ValueError, match="mode must be in"):
            open_chain_mode(12, n)


def test_open_chain_modes_match_numeric_spectrum():
    size, kappa = 9, 1.3
    h = np.zeros((size, size))
    for i in range(size - 1):
        h[i, i + 1] = h[i + 1, i] = -kappa
    energies, _ = diagonalize(h)
    modes = open_chain_modes(size, kappa)
    np.testing.assert_allclose(sorted(m.energy for m in modes), energies, atol=1e-12)
    for mode in modes:
        residual = np.max(np.abs(h @ mode.amplitudes - mode.energy * mode.amplitudes))
        assert residual < 1e-12


def test_pi_lattice_certificates():
    lattice = build_pi_lattice(PiLatticeSpec(3, 5, leads=8))
    certs = find_trapping_modes(lattice.graph, lattice.partition, 1)
    assert len(certs) == 3
    np.testing.assert_allclose(
        sorted(c.energy for c in certs), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-10
    )
    for cert in certs:
        assert cert.residual < 1e-10
        assert verify_trapping(lattice.graph, cert) < 1e-10
        # support stays within the central subgraph
        outside = [s for s in range(lattice.graph.site_count)
                   if lattice.partition.assignment[s] != 1]
        assert np.max(np.abs(cert.vector[outside])) == 0.0
    # the pi/3 mode is absent: its nodes {3, 6, 9} miss the joints {4, 8}
    assert all(abs(c.energy - (-1.0)) > 1e-6 for c in certs)


def test_embedded_untrapped_mode_has_large_residual():
    spec = PiLatticeSpec(3, 5, leads=8)
    lattice = build_pi_lattice(spec)
    mode = open_chain_modes(11)[3]          # n=4, momentum pi/3
    psi = np.zeros(lattice.graph.site_count)
    psi[central_sites(spec)] = mode.amplitudes
    h = assemble_hamiltonian(lattice.graph)
    residual = np.max(np.abs(h @ psi - mode.energy * psi))
    assert residual > 0.1       # kappa * |amplitude at a joint|


def test_node_protects_against_joint_coupling_change():
    # doubling a joint coupling cannot disturb a certified mode: the wave
    # node at the joint kills the coupling term identically
    spec = PiLatticeSpec(3, 5, leads=8)
    lattice = build_pi_lattice(spec)
    cert = find_trapping_modes(lattice.graph, lattice.partition, 1)[0]
    c0, c1 = host_site(spec, 0), host_site(spec, 1)
    modified = tuple(
        (i, j, 2.0 * s) if {i, j} == {c0, c1} else (i, j, s)
        for i, j, s in lattice.graph.hoppings
    )
    perturbed = LatticeGraph(lattice.graph.site_count, modified)
    assert verify_trapping(perturbed, cert) < 1e-10


def test_uncoupled_subgraph_vacuously_trapped():
    graph = LatticeGraph(4, ((0, 1, 1.0), (2, 3, 0.7)))
    partition = Partition(graph, (0, 0, 1, 1))
    certs = find_trapping_modes(graph, partition, 0)
    assert len(certs) == 2


def test_degenerate_group_uses_null_space_not_per_vector_nodes():
    # two uncoupled subgraph sites are exactly degenerate; any eigenbasis of
    # the pair may mix them, but only the combination avoiding the joint is
    # trapped
    graph = LatticeGraph(3, ((0, 2, 0.9),))
    partition = Partition(graph, (0, 0, 1))
    certs = find_trapping_modes(graph, partition, 0)
    assert len(certs) == 1
    np.testing.assert_allclose(np.abs(certs[0].vector), [0.0, 1.0, 0.0], atol=1e-12)


def test_verify_trapping_rejects_wrong_size():
    lattice = build_pi_lattice(PiLatticeSpec(2, 4, leads=2))
    cert = find_trapping_modes(lattice.graph, lattice.partition, 1)[0]
    other = build_pi_lattice(PiLatticeSpec(2, 4, leads=3))
    with pytest.raises(ValueError, match="sites"):
        verify_trapping(other.graph, cert)


def kernel_case_network(shape, seed):
    """A random network whose subgraph 0 (the given subgraph, for
    ``random``) has one shape that the search of ker C must handle:

    random      -- ``random_graph``: couplings of both signs, any joints
    pieces      -- a uniform chain whose joints, every (p+1)-th site, cut
                   it into identical pieces of p sites
    shared      -- a random subgraph, three or four of whose sites bond to
                   one outside site, and in half the draws to a second one
                   with couplings 2 or -1/2 times theirs: C_J has a null
                   space, and in a C_J of two rows a singular value of
                   rounding size
    mixed-sign  -- a random subgraph, two of whose sites bond to one
                   outside site with couplings +s and -s
    all-joints  -- every site bonds to an outside site of its own: C_J has
                   full rank, ker C is empty and nothing is trapped
    dark-joints -- every site bonds to one outside site: the rest R is
                   empty and ker C is C_J's null space alone
    uncoupled   -- every bond that leaves the subgraph has strength 0:
                   every mode is trapped
    faint       -- a random subgraph, each of two or three of whose sites
                   bonds to an outside site of its own, one of them 1e-12
                   times as strongly: within NODE_TOL that one is no joint

    Returns the graph, its partition and the subgraph to search.
    """
    rng = np.random.default_rng(seed)
    if shape == "random":
        graph, partition = random_graph(rng)
        return graph, partition, partition.subgraph_indices()[0]
    if shape == "pieces":
        p, count = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        size = count * p + count - 1
        hop = float(rng.choice([1.0, 0.6]))
        bonds = [(a, a + 1, hop) for a in range(size - 1)]
        mu = [float(rng.choice([0.0, 0.3]))] * size
        joints = [(k + 1) * (p + 1) - 1 for k in range(count - 1)]
        couplings = [(site, k, coupling(rng)) for k, site in enumerate(joints)]
    else:
        size = int(rng.integers(2, 7)) if shape in ("all-joints", "dark-joints") else \
            int(rng.integers(4, 9))
        bonds = [(a, b, coupling(rng)) for a in range(size) for b in range(a + 1, size)
                 if rng.random() < 0.5]
        mu = [float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else 0.0 for _ in range(size)]
        sites = rng.permutation(size).tolist()
        if shape == "shared":
            couplings = [(site, 0, coupling(rng)) for site in sites[:int(rng.integers(3, 5))]]
            if rng.random() < 0.5:
                factor = float(rng.choice([2.0, -0.5]))
                couplings += [(site, 1, factor * s) for site, _, s in couplings]
        elif shape == "mixed-sign":
            s = coupling(rng)
            couplings = [(sites[0], 0, s), (sites[1], 0, -s)]
        elif shape == "all-joints":
            couplings = [(site, k, coupling(rng)) for k, site in enumerate(sites)]
        elif shape == "dark-joints":
            couplings = [(site, 0, coupling(rng)) for site in sites]
        elif shape == "faint":
            couplings = [(site, k, coupling(rng) * (1e-12 if k == 0 else 1.0))
                         for k, site in enumerate(sites[:int(rng.integers(2, 4))])]
        else:
            couplings = [(site, k, 0.0) for k, site in enumerate(sites[:int(rng.integers(0, 4))])]
    host = max([k for _, k, _ in couplings], default=0) + 1 + int(rng.integers(0, 3))
    bonds += [(size + k, size + k + 1, 1.0) for k in range(host - 1)]
    bonds += [(site, size + k, s) for site, k, s in couplings]
    mu += [float(rng.uniform(-0.5, 0.5)) for _ in range(host)]
    order = rng.permutation(size + host).tolist()
    graph = LatticeGraph(size + host, tuple((order[a], order[b], s) for a, b, s in bonds),
                         tuple(sorted((order[a], v) for a, v in enumerate(mu) if v)))
    labels = [1] * (size + host)
    for a in range(size):
        labels[order[a]] = 0
    return graph, Partition(graph, tuple(labels)), 0


def coupling(rng):
    """A random bond strength of either sign."""
    return float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))


KERNEL_CASES = ["random", "pieces", "shared", "mixed-sign", "all-joints", "dark-joints",
                "uncoupled", "faint"]


@given(st.sampled_from(KERNEL_CASES), st.integers(0, 2_000))
@example("random", 1617)
# N^T H_JJ N, formed as a product, is symmetric only to rounding here
@example("shared", 0)
# C_J's second row is -1/2 times its first, and its second singular value
# is rounding, not 0
@example("shared", 9)
# the empty rest: every site is a joint, and ker C is N alone
@example("dark-joints", 0)
# a joint whose only coupling is 1e-12 of the largest lies along N
@example("faint", 4)
@settings(max_examples=120, deadline=None)
def test_trapping_agrees_with_full_basis_search(shape, seed):
    graph, partition, l = kernel_case_network(shape, seed)
    found = matches_reference_and_brute_force(graph, partition, l)
    size = int(np.sum(partition.labels == l))
    if shape == "all-joints":
        assert found == []
    elif shape == "uncoupled":
        assert len(found) == size


@pytest.mark.parametrize("factor", [0.5, -2.0, 3.7])
def test_certified_set_invariant_under_coupling_scale(factor):
    rng = np.random.default_rng(7)
    graph, partition = random_graph(rng)
    l = partition.subgraph_indices()[0]
    inter = {
        (min(i, j), max(i, j)) for i, j, _ in partition.couplings()
    }
    scaled_graph = LatticeGraph(
        graph.site_count,
        tuple(
            (i, j, factor * s) if (min(i, j), max(i, j)) in inter else (i, j, s)
            for i, j, s in graph.hoppings
        ),
        graph.potentials,
    )
    base = find_trapping_modes(graph, partition, l)
    scaled = find_trapping_modes(scaled_graph, Partition(scaled_graph, partition.assignment), l)
    assert len(base) == len(scaled)
    for a, b in zip(base, scaled):
        assert abs(a.energy - b.energy) < 1e-10
        assert min(
            np.linalg.norm(a.vector - b.vector), np.linalg.norm(a.vector + b.vector)
        ) < 1e-8


@pytest.mark.parametrize("n0, length", [(3, 5), (2, 4), (1, 3), (1, 4), (2, 6), (4, 6)])
def test_certificate_count_matches_integer_law(n0, length):
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, leads=6))
    certs = find_trapping_modes(lattice.graph, lattice.partition, 1)
    size = 2 * n0 + length
    pos_a, pos_b = n0 + 1, n0 + length
    by_nodes = sum(
        1
        for n in range(1, size + 1)
        if (n * pos_a) % (size + 1) == 0 and (n * pos_b) % (size + 1) == 0
    )
    assert len(certs) == by_nodes == len(resonant_existence(n0, length))


def test_certificate_json_roundtrip():
    lattice = build_pi_lattice(PiLatticeSpec(2, 4, leads=4))
    cert = find_trapping_modes(lattice.graph, lattice.partition, 1)[0]
    payload = cert.to_json_dict()
    assert set(payload) == {"energy", "sites", "amplitudes", "residual"}
    assert len(payload["sites"]) == len(payload["amplitudes"])
    assert payload["residual"] < 1e-10


def chain_or_ring_network(kind, size, joints, mu, hop, host, seed):
    """A chain or ring of ``size`` sites (hopping ``hop``, potential ``mu``
    on every site; subgraph 1) whose ``joints`` couple to random sites of
    a host chain of ``host`` sites (subgraph 0), all sites renumbered at
    random.  Rings keep their degenerate pairs, chains their wave nodes."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(size + host)
    bonds = [(p, p + 1, hop) for p in range(size - 1)]
    if kind == "ring":
        bonds.append((size - 1, 0, hop))
    bonds += [(size + p, size + p + 1, 1.0) for p in range(host - 1)]
    bonds += [(j % size, size + int(rng.integers(host)), float(rng.uniform(0.3, 1.5)))
              for j in sorted({j % size for j in joints})]
    potentials = [(p, mu) for p in range(size)]
    potentials += [(size + p, float(rng.uniform(-0.5, 0.5))) for p in range(host)]
    graph = LatticeGraph(
        size + host,
        tuple((int(order[i]), int(order[j]), s) for i, j, s in bonds),
        tuple(sorted((int(order[p]), v) for p, v in potentials)),
    )
    assignment = [0] * (size + host)
    for p in range(size):
        assignment[order[p]] = 1
    return graph, Partition(graph, tuple(assignment))


@given(
    kind=st.sampled_from(["chain", "ring"]),
    size=st.integers(3, 40),
    joints=st.lists(st.integers(0, 39), min_size=1, max_size=3),
    mu=st.sampled_from([0.0, 0.25, -0.7]) | st.floats(-1.0, 1.0),
    hop=st.sampled_from([1.0, 0.6, 1.7]),
    host=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(kind="ring", size=16, joints=[0], mu=0.25, hop=1.0, host=5, seed=0)
@example(kind="chain", size=59, joints=[19, 39], mu=-0.1, hop=1.0, host=4, seed=1)
@settings(max_examples=80, deadline=None)
def test_certificates_span_the_reference_trapped_space(kind, size, joints, mu, hop, host, seed):
    graph, partition = chain_or_ring_network(kind, size, joints, mu, hop, host, seed)
    for l in partition.subgraph_indices():
        matches_reference_and_brute_force(graph, partition, l)


def assert_trap_prints_the_nodes(graph, partition, l, certificates):
    """``fanonet trap`` exits 0 or 3 as it finds certificates of subgraph
    ``l`` or none, and prints each one's node list as ``certificates``
    give it, found one site at a time."""
    spec = {"sites": graph.site_count, "hoppings": [list(b) for b in graph.hoppings],
            "potentials": {str(site): mu for site, mu in graph.potentials},
            "partition": list(partition.assignment)}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(spec))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["trap", str(path), "--subgraph", str(l)])
    assert code == (0 if certificates else 3)
    sites = np.flatnonzero(partition.labels == l).tolist()
    assert [line.split(" nodes=")[1].split(" residual=")[0]
            for line in out.getvalue().splitlines()[1:]] == [
        repr(reference_node_sites(cert, sites)) for cert in certificates]


def assert_lone_modes_are_the_reference_ones(found, reference, partition, l, energy_tol=1e-8):
    """Where the full-block reference traps one mode alone at an energy,
    which fixes the mode but for its sign, exactly one certificate lies
    at that energy, with the reference's support and node list."""
    sites = np.flatnonzero(partition.labels == l).tolist()
    for ref in reference:
        if sum(abs(other.energy - ref.energy) < energy_tol for other in reference) > 1:
            continue
        matched = [cert for cert in found if abs(cert.energy - ref.energy) < energy_tol]
        assert len(matched) == 1
        assert reference_support_sites(matched[0]) == reference_support_sites(ref)
        assert reference_node_sites(matched[0], sites) == reference_node_sites(ref, sites)


def assert_consistent_certificate(graph, cert):
    """``cert``'s residual, summed from the bond list, lies within rounding
    of the dense one of ``verify_trapping``, and its JSON dict is the one
    built one site at a time."""
    assert type(cert.residual) is float
    assert abs(cert.residual - verify_trapping(graph, cert)) <= residual_rounding_bound(graph, cert)
    # repr tells float from np.float64, int from np.int64 and -0.0 from 0.0
    assert repr(cert.to_json_dict()) == repr(reference_json_dict(cert))


def test_trap_search_never_assembles_the_network(monkeypatch):
    # a 12-site chain joined at position 5, coprime to 13, traps nothing;
    # an 11-site chain joined at its middle (position 6) traps its 5 even
    # modes: neither search fills an N x N matrix
    import fanonet.graphs
    import fanonet.spectra

    calls = []

    def spy(graph):
        calls.append(graph)
        return assemble_hamiltonian(graph)

    monkeypatch.setattr(fanonet.spectra, "assemble_hamiltonian", spy)
    monkeypatch.setattr(fanonet.graphs, "assemble_hamiltonian", spy)
    for size, joint, trapped in ((12, 4, 0), (11, 5, 5)):
        graph, partition = chain_or_ring_network("chain", size, [joint], 0.0, 1.0, 3, 0)
        certificates = find_trapping_modes(graph, partition, 1)
        assert len(certificates) == trapped
    assert calls == []


def test_trap_search_memory_is_far_below_the_network_matrix():
    # an 11-site chain, trapping 5 modes, on a 3000-site host: the search
    # allocates O(N + bonds) memory besides the certificates, not the
    # 72 MB of one N x N matrix
    graph, partition = chain_or_ring_network("chain", 11, [5], 0.0, 1.0, 2989, 0)
    find_trapping_modes(graph, partition, 1)           # caches the graph's elements
    tracemalloc.start()
    try:
        certificates = find_trapping_modes(graph, partition, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(certificates) == 5
    assert peak < 8 * graph.site_count ** 2 // 100


def edge_case_network(case, seed):
    """A random network (``random_graph``) cut to one edge case of the
    trap search, in subgraph 0:

    no-potentials -- no site carries a potential
    no-internal   -- no bond joins two sites of the subgraph
    one-site      -- the subgraph is a single site
    no-couplings  -- no bond leaves the subgraph
    """
    rng = np.random.default_rng(seed)
    graph, partition = random_graph(rng)
    labels = list(partition.assignment)
    if 0 not in labels:
        labels[int(rng.integers(len(labels)))] = 0
    if case == "one-site":
        keep = labels.index(0)
        labels = [1 if (label == 0 and site != keep) else label
                  for site, label in enumerate(labels)]
    inside = [label == 0 for label in labels]
    hoppings, potentials = graph.hoppings, graph.potentials
    if case == "no-potentials":
        potentials = ()
    elif case == "no-internal":
        hoppings = tuple(b for b in hoppings if not (inside[b[0]] and inside[b[1]]))
    elif case == "no-couplings":
        hoppings = tuple(b for b in hoppings if inside[b[0]] == inside[b[1]])
    graph = LatticeGraph(graph.site_count, hoppings, potentials)
    return graph, Partition(graph, tuple(labels))


@given(case=st.sampled_from(["no-potentials", "no-internal", "one-site", "no-couplings"]),
       seed=st.integers(0, 10_000))
@example(case="one-site", seed=1617)
@example(case="no-internal", seed=1617)
@settings(max_examples=120, deadline=None)
def test_trap_search_edge_cases_match_reference_and_brute_force(case, seed):
    graph, partition = edge_case_network(case, seed)
    matches_reference_and_brute_force(graph, partition, 0)


def matches_reference_and_brute_force(graph, partition, l):
    """The certificates of subgraph ``l``, after asserting that each is
    consistent, that ``trap`` prints them, that a mode the full-block
    reference search traps alone at its energy keeps its support and node
    list, and that they span, energy by energy, the trapped space of that
    search and that found from the full eigenbasis."""
    found = find_trapping_modes(graph, partition, l)
    for cert in found:
        assert_consistent_certificate(graph, cert)
    assert_trap_prints_the_nodes(graph, partition, l, found)
    reference = reference_trapping_modes(graph, partition, l)
    assert_lone_modes_are_the_reference_ones(found, reference, partition, l)
    assert same_trapped_content(found, reference_blocks(reference))
    assert same_trapped_content(found, brute_force_trapped(graph, partition, l))
    return found


@pytest.mark.parametrize("sites, hoppings, assignment, expected", [
    (2, ((0, 1, 0.0),), (0, 1), 1),
    (3, ((0, 2, 0.0),), (0, 0, 1), 2),
    (3, ((0, 1, 1.0), (1, 2, 0.0)), (0, 0, 1), 2),
])
def test_couplings_of_zero_strength_trap_every_mode(sites, hoppings, assignment, expected):
    # a bond of strength 0 lets nothing leak: every subgraph mode is trapped
    graph = LatticeGraph(sites, hoppings)
    partition = Partition(graph, assignment)
    assert len(matches_reference_and_brute_force(graph, partition, 0)) == expected


def cluster_network(clusters, host=4, seed=0):
    """Subgraph 1: disjoint clusters, each given as (bonds among its
    ``size`` sites, size, potential, joints); subgraph 0: a host chain of
    ``host`` sites with random potentials.  Each joint of a cluster couples
    to its own host site, with a random strength."""
    rng = np.random.default_rng(seed)
    offset, hoppings, potentials, joints = 0, [], [], []
    for bonds, size, mu, cluster_joints in clusters:
        hoppings += [(offset + i, offset + j, s) for i, j, s in bonds]
        potentials += [(offset + p, mu) for p in range(size)]
        joints += [offset + j for j in cluster_joints]
        offset += size
    hoppings += [(offset + p, offset + p + 1, 1.0) for p in range(host - 1)]
    potentials += [(offset + p, float(rng.uniform(-0.5, 0.5))) for p in range(host)]
    hoppings += [(j, offset + k, float(rng.uniform(0.3, 1.5))) for k, j in enumerate(joints)]
    graph = LatticeGraph(offset + host, tuple(hoppings), tuple(potentials))
    return graph, Partition(graph, (1,) * offset + (0,) * host)


def complete(size, hop=1.0):
    """Bonds of the complete graph on ``size`` sites: energies -(size-1)*hop
    and hop, the latter (size-1)-fold."""
    return [(i, j, hop) for i in range(size) for j in range(i + 1, size)]


def star(leaves):
    """Bonds of a star, centre 0: energies +-sqrt(leaves) and 0, (leaves-1)-fold."""
    return [(0, leaf, 1.0) for leaf in range(1, leaves + 1)]


@pytest.mark.parametrize("size, joints", [(4, [0]), (4, [0, 2]), (5, [1]), (5, [0, 3]),
                                          (6, [2]), (6, [0, 5])])
def test_complete_subgraphs_trap_the_null_space_of_their_wide_group(size, joints):
    # the (size-1)-fold group sums to 0 over the sites; a trapped mode also
    # vanishes on every joint, which leaves size-1-joints dimensions
    graph, partition = cluster_network([(complete(size), size, 0.0, joints)])
    assert len(matches_reference_and_brute_force(graph, partition, 1)) == size - 1 - len(joints)


def test_star_with_two_coupled_leaves_keeps_two_dark_states():
    # the 4-fold zero-energy group: leaf amplitudes summing to 0, centre 0;
    # two coupled leaves leave two of them trapped
    graph, partition = cluster_network([(star(5), 6, 0.0, [2, 4])])
    assert len(matches_reference_and_brute_force(graph, partition, 1)) == 2


def test_one_search_mixes_group_widths():
    # K5 (-4 once, 1 four-fold), a 6-ring shifted by 0.3 (-1.7, 2.3 once,
    # -0.7 and 1.3 two-fold) and a 3-chain (-sqrt 2, 0, sqrt 2) joined at its
    # middle, whose node traps the zero mode: groups of widths 1, 2 and 4
    ring = [(p, (p + 1) % 6, 1.0) for p in range(6)]
    graph, partition = cluster_network([(complete(5), 5, 0.0, [0]), (ring, 6, 0.3, [0]),
                                        ([(0, 1, 1.0), (1, 2, 1.0)], 3, 0.0, [1])], seed=3)
    h_l, _ = subgraph_hamiltonian(graph, partition, 1)
    widths = np.diff(spectra._energy_groups(diagonalize(h_l)[0], np.linalg.norm(h_l, np.inf)))
    assert sorted(set(widths.tolist())) == [1, 2, 4]
    # K5: 3 of its 4-fold group; the ring: one of each pair; the chain: 1
    assert len(matches_reference_and_brute_force(graph, partition, 1)) == 3 + 2 + 1
