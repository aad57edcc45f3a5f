"""Graph model, Hamiltonian assembly and the side-coupled lattice builder."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fanonet import (
    GraphSpecError,
    LatticeGraph,
    Partition,
    PiLatticeSpec,
    assemble_hamiltonian,
    build_graph,
    build_pi_lattice,
    parse_graph_file,
)
from fanonet.cli import main
from fanonet.pilattice import CENTRAL, LEFT_LEAD, RIGHT_LEAD

from _support import central_sites, decomposed_hamiltonian, host_site, random_graph


def test_dimer_is_smallest_valid_graph():
    graph = build_graph({"sites": 2, "hoppings": [[0, 1, 1.0]]})
    assert graph.site_count == 2
    np.testing.assert_array_equal(
        assemble_hamiltonian(graph), [[0.0, -1.0], [-1.0, 0.0]]
    )


def test_self_loop_rejected():
    with pytest.raises(GraphSpecError, match="self-loop"):
        build_graph({"sites": 4, "hoppings": [[3, 3, 1.0]]})


def test_duplicate_hopping_rejected():
    with pytest.raises(GraphSpecError, match="duplicate"):
        build_graph({"sites": 3, "hoppings": [[0, 1, 1.0], [1, 0, 0.5]]})


def test_out_of_range_index_rejected():
    with pytest.raises(GraphSpecError, match="out of range"):
        build_graph({"sites": 2, "hoppings": [[0, 5, 1.0]]})


def test_parse_failure_rejected():
    with pytest.raises(GraphSpecError, match="parse failure"):
        build_graph({"hoppings": []})
    with pytest.raises(GraphSpecError, match="parse failure"):
        build_graph({"sites": 2, "hoppings": [[0, 1, float("nan")]]})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("hoppings, potentials, message", [
    ([[0, 1, 1.0], [2, 2, 1.0], [0, 9, 1.0], [1, 0, 1.0]], {},
     "self-loop: hopping (2, 2) is not allowed"),
    ([[0, 1, 1.0], [1, 0, 1.0], [2, 2, 1.0], [0, 9, 1.0]], {},
     "duplicate hopping: pair (0, 1) appears twice"),
    ([[0, 1, 1.0], [0, 1, 2.0], [0, 7, 1.0]], {},
     "duplicate hopping: pair (0, 1) appears twice"),
    ([[0, 1, 1.0], [1, 2, INF], [2, 1, 1.0]], {},
     "parse failure: non-finite hopping strength on (1, 2)"),
    ([[0, 1, NAN], [0, "x", 1.0]], {},
     "parse failure: non-finite hopping strength on (0, 1)"),
    ([[0, 9, 1.0], [3, 3, 1.0], [0, 1]], {},
     "site index out of range: hopping (0, 9) with 4 sites"),
    ([[5, 5, 1.0], [0, 9, 1.0]], {}, "self-loop: hopping (5, 5) is not allowed"),
    ([[0, 1, 1.0], [1, "2", 1.0], [3, 3, 1.0]], {},
     "parse failure: bad hopping entry [1, '2', 1.0]"),
    ([[0, 1, 1.0], [1, 2, 1.0, 0.0], [1, 0, 1.0]], {},
     "parse failure: bad hopping entry [1, 2, 1.0, 0.0]"),
    ([[2**70, 1, 1.0], [3, 3, 1.0]], {},
     "site index out of range: hopping (1180591620717411303424, 1) with 4 sites"),
    ([[0, 1, 1.0], [1, 2, -10**400]], {},
     "parse failure: non-finite hopping strength on (1, 2)"),
    ([[0, 1, 1.0]], {"0": 0.1, "9": NAN, "x": 1.0},
     "site index out of range: potential on site 9"),
    ([[0, 1, 1.0]], {"0": NAN, "9": 1.0}, "parse failure: non-finite potential on site 0"),
    ([[0, 1, 1.0]], {"2": 0.5, "1": True, "9": 0.1},
     "parse failure: bad potential entry '1': True"),
    ([[0, 1, 1.0]], {"2": 0.5, "01": 0.1, "1.5": 0.2, "-1": 0.1},
     "parse failure: bad potential entry '1.5': 0.2"),
    ([[0, 1, 1.0], [1, 1, 1.0]], {"7": 0.5}, "self-loop: hopping (1, 1) is not allowed"),
])
def test_first_offending_entry_is_named(hoppings, potentials, message):
    # among several bad entries the first one names the error, with the
    # first rule it breaks: form, self-loop, range, finiteness, repetition
    with pytest.raises(GraphSpecError) as failure:
        build_graph({"sites": 4, "hoppings": hoppings, "potentials": potentials})
    assert str(failure.value) == message


def test_checked_entries_keep_their_python_types():
    # a JSON integer strength becomes a float, an index stays an int, and
    # the potentials are sorted by site
    graph = build_graph({"sites": 3, "hoppings": [[2, 0, 1], [0, 1, 0.5]],
                         "potentials": {"2": -1, "0": 0.25}})
    assert graph.hoppings == ((2, 0, 1.0), (0, 1, 0.5))
    assert graph.potentials == ((0, 0.25), (2, -1.0))
    assert {type(v) for bond in graph.hoppings for v in bond[:2]} == {int}
    assert {type(bond[2]) for bond in graph.hoppings} == {float}
    assert [tuple(map(type, p)) for p in graph.potentials] == [(int, float)] * 2


def random_spec(rng):
    """A random valid graph spec with its partition: bonds in either
    orientation, strengths of each JSON kind (floats, integers, 0 and
    -0.0), potentials keyed by site texts some of which, such as "01" and
    "1", name one site twice, and labels that may skip values."""
    n = int(rng.integers(1, 30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    kinds = [lambda: float(rng.normal()), lambda: int(rng.integers(-3, 4)),
             lambda: 0.0, lambda: -0.0]
    hoppings = [[j, i, kinds[rng.integers(4)]()] if rng.random() < 0.5 else
                [i, j, kinds[rng.integers(4)]()] for i, j in (pairs[k] for k in rng.permutation(len(pairs)))]
    potentials = {("0" * int(rng.integers(0, 2))) + str(int(site)): kinds[rng.integers(4)]()
                  for site in rng.integers(0, n, size=int(rng.integers(0, 2 * n)))}
    labels = rng.choice([0, 2, 5], size=n).tolist()
    return {"sites": n, "hoppings": hoppings, "potentials": potentials, "partition": labels}


@given(st.integers(0, 10_000))
def test_a_parsed_graph_is_bitwise_the_one_built_from_tuples(seed):
    # build_graph hands its graph the checked columns; what the graph and
    # the partition hold is what tuples of the same values give
    spec = random_spec(np.random.default_rng(seed))
    hoppings = tuple((int(i), int(j), float(s)) for i, j, s in spec["hoppings"])
    potentials = tuple(sorted((int(site), float(mu)) for site, mu in spec["potentials"].items()))
    built = LatticeGraph(spec["sites"], hoppings, potentials)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(spec))
        parsed, partition = parse_graph_file(path)
    # repr tells int from np.int64, float from np.float64 and -0.0 from 0.0
    assert repr(parsed.hoppings) == repr(hoppings)
    assert repr(parsed.potentials) == repr(potentials)
    assert parsed == built
    for ours, theirs in zip(parsed.elements, built.elements):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert not ours.flags.writeable
    reference = Partition(built, tuple(spec["partition"]))
    assert partition.assignment == reference.assignment
    assert partition.labels.dtype == reference.labels.dtype
    assert partition.labels.tobytes() == reference.labels.tobytes()
    assert not partition.labels.flags.writeable
    with pytest.raises(AttributeError):
        parsed.site_count = 1


def test_two_subgraph_joints_recovered():
    # two triangle-ish blocks joined through three couplings; the joint set
    # of block 0 must be exactly the coupled endpoints {0, 1, 2}
    spec = {
        "sites": 8,
        "hoppings": [
            [0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0],
            [4, 5, 1.0], [5, 6, 1.0], [6, 7, 1.0],
            [0, 4, 0.5], [1, 5, 0.5], [2, 6, 0.5],
        ],
    }
    graph = build_graph(spec)
    partition = Partition(graph, (0, 0, 0, 0, 1, 1, 1, 1))
    assert partition.joint_sites(0) == {0, 1, 2}
    assert partition.joint_sites(1) == {4, 5, 6}
    assert len(partition.couplings()) == 3


def test_joint_sites_skip_bonds_of_zero_strength():
    # a bond of strength 0 is stored, but no particle crosses it
    graph = LatticeGraph(4, ((0, 1, 1.0), (1, 2, 0.0), (0, 3, 0.5)))
    partition = Partition(graph, (0, 0, 1, 1))
    assert partition.joint_sites(0) == {0}
    assert partition.joint_sites(1) == {3}
    assert len(partition.couplings()) == 2


def test_three_site_chain_spectrum():
    graph = build_graph({"sites": 3, "hoppings": [[0, 1, 1.0], [1, 2, 1.0]]})
    h = assemble_hamiltonian(graph)
    assert np.count_nonzero(np.diag(h, 1) + 1.0) == 0
    # oracle: open-chain dispersion -2 cos(n*pi/4), n = 1..3
    expected = sorted(-2.0 * np.cos(n * np.pi / 4) for n in (1, 2, 3))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_pi_lattice_small_matrix_matches_hand_enumeration():
    # n0=1, length=3, equal hoppings, no leads: a1, c1, c2, c3, b1 with bonds
    # a1-c1, c1-c2, c2-c3, c3-b1 in the flat path order
    lattice = build_pi_lattice(PiLatticeSpec(1, 3, 1.0, 1.0, 0))
    expected = np.zeros((5, 5))
    for i in range(4):
        expected[i, i + 1] = expected[i + 1, i] = -1.0
    np.testing.assert_array_equal(assemble_hamiltonian(lattice.graph), expected)


@given(st.integers(0, 10_000))
def test_assembled_matrix_bitwise_symmetric(seed):
    graph, _ = random_graph(np.random.default_rng(seed))
    h = assemble_hamiltonian(graph)
    assert np.array_equal(h, h.T)


def repeated_writes_graph(rng):
    """A random graph that holds bonds more than once, in both orientations,
    and potentials more than once, a third of the values zeros."""
    n = int(rng.integers(2, 10))
    ends = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    sites = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))

    def values(count):
        return np.where(rng.random(count) < 0.33, 0.0, rng.normal(size=count)).tolist()

    hoppings = tuple((i, j, s) for (i, j), s in zip(ends.tolist(), values(len(ends))))
    return LatticeGraph(n, hoppings, tuple(zip(sites.tolist(), values(len(sites)))))


def test_assembled_matrix_is_the_bonds_written_in_order():
    # the reference writes each bond's two elements and then each potential,
    # a later write to an element winning
    rng = np.random.default_rng(0)
    graphs = [build_pi_lattice(PiLatticeSpec(3, 41, 1.0, kappa0, 60)).graph
              for kappa0 in (1.0, 1.7)]
    for graph in graphs + [repeated_writes_graph(rng) for _ in range(300)]:
        h = np.zeros((graph.site_count, graph.site_count))
        for i, j, s in graph.hoppings:
            h[i, j] = -s
            h[j, i] = -s
        for i, mu in graph.potentials:
            h[i, i] = mu
        assert assemble_hamiltonian(graph).tobytes() == h.tobytes()


@given(st.integers(0, 10_000))
def test_partition_reassembly_is_exact(seed):
    graph, partition = random_graph(np.random.default_rng(seed))
    assert np.array_equal(
        assemble_hamiltonian(graph), decomposed_hamiltonian(graph, partition)
    )


@given(st.integers(0, 10_000))
def test_joint_sites_match_recomputation(seed):
    graph, partition = random_graph(np.random.default_rng(seed))
    for l in partition.subgraph_indices():
        expected = set()
        for i, j, _ in graph.hoppings:
            li, lj = partition.assignment[i], partition.assignment[j]
            if li != lj:
                if li == l:
                    expected.add(i)
                if lj == l:
                    expected.add(j)
        assert partition.joint_sites(l) == expected


@pytest.mark.parametrize(
    "n0, length, leads, sites, joints",
    [
        (3, 5, 0, 11, (4, 8)),
        (2, 4, 0, 8, (3, 6)),
        (1, 2, 1, 6, (2, 3)),
        (3, 5, 50, 111, (4, 8)),
    ],
)
def test_pi_lattice_counting(n0, length, leads, sites, joints):
    spec = PiLatticeSpec(n0, length, 1.0, 0.5, leads)
    graph, partition = build_pi_lattice(spec)
    assert graph.site_count == spec.site_count == sites
    central = central_sites(spec)
    assert len(central) == 2 * n0 + length
    assert partition.assignment == \
        (LEFT_LEAD,) * leads + (CENTRAL,) * len(central) + (RIGHT_LEAD,) * leads
    # the bonds of the documented layout and no others: the host chain
    # c_{1-leads}..c_{length+leads} at kappa, and each side chain with its
    # anchor bond at kappa0, a_1 and b_1 next to c_1 and c_length
    host = [host_site(spec, j) for j in range(1 - leads, length + leads + 1)]
    side = [(central[p], central[p + 1]) for p in range(n0)] \
        + [(central[-p - 2], central[-p - 1]) for p in range(n0)]
    expected = {(i, j, 1.0) for i, j in zip(host, host[1:])} | {(i, j, 0.5) for i, j in side}
    assert {(min(i, j), max(i, j), s) for i, j, s in graph.hoppings} == expected
    assert len(graph.hoppings) == len(expected) == sites - 1
    anchors = host_site(spec, 1), host_site(spec, length)
    assert joints == tuple(central.index(a) + 1 for a in anchors)
    # the anchors join the central chain to the leads; the outermost lead
    # sites are flat sites 0 and N - 1
    assert partition.joint_sites(CENTRAL) == (set(anchors) if leads else set())
    if leads:
        assert (host[0], host[-1]) == (0, sites - 1)


def test_pi_lattice_central_block_uniform_tridiagonal():
    for n0, length in [(3, 5), (2, 4), (1, 2)]:
        lattice = build_pi_lattice(PiLatticeSpec(n0, length, 1.0, 1.0, 0))
        h = assemble_hamiltonian(lattice.graph)
        size = 2 * n0 + length
        expected = np.zeros((size, size))
        for i in range(size - 1):
            expected[i, i + 1] = expected[i + 1, i] = -1.0
        np.testing.assert_array_equal(h, expected)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n0": 0, "length": 5},
        {"n0": 2, "length": 1},
        {"n0": 2, "length": 4, "kappa": 0.0},
        {"n0": 2, "length": 4, "kappa0": -1.0},
        {"n0": 2, "length": 4, "leads": -1},
        {"n0": 2, "length": 4, "kappa": np.inf},
        {"n0": 2, "length": 4, "kappa0": np.inf},
        {"n0": 2, "length": 4, "kappa": np.nan},
        {"n0": 2, "length": 4, "kappa0": np.nan},
    ],
)
def test_pi_lattice_invariants_enforced(kwargs):
    with pytest.raises(GraphSpecError):
        PiLatticeSpec(**kwargs)


def test_partition_requires_full_assignment():
    graph = build_graph({"sites": 3, "hoppings": [[0, 1, 1.0]]})
    with pytest.raises(GraphSpecError):
        Partition(graph, (0, 1))


DIMER = {"sites": 2, "hoppings": [[0, 1, 1.0]]}


@pytest.mark.parametrize("entries", [
    {"hoppings": 5},
    {"potentials": 5},
    {"potentials": [1, 2]},
    {"labels": 5},
    {"labels": {"x": "a"}},
    {"partition": [[0], 1]},
    {"partition": ["x", 1]},
    {"partition": [0.5, 1]},
    {"partition": [True, 1]},
    {"partition": 1},
    {"sites": 2.0},
    {"sites": True},
    {"sites": "2"},
    {"hoppings": [[0.0, 1, 1.0]]},
    {"hoppings": [[0, True, 1.0]]},
    {"hoppings": [[0, 1, "1.0"]]},
    {"hoppings": [[0, 1, 1.0, 2.0]]},
    {"hoppings": [5]},
    {"potentials": {"0.5": 1.0}},
    {"potentials": {"0": True}},
], ids=lambda entries: json.dumps(entries))
def test_malformed_graph_file_is_a_parse_failure(tmp_path, capsys, entries):
    # sites, hopping indices and partition labels are JSON integers, other
    # values JSON numbers, and a spec holds no other key: a file that breaks
    # this is one parse failure, exit 2, never a traceback or a truncation
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({**DIMER, **entries}))
    with pytest.raises(GraphSpecError, match="^parse failure"):
        parse_graph_file(path)
    assert main(["trap", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: parse failure")


def test_unreadable_graph_file_exits_two(tmp_path, capsys):
    # a directory, a missing file and bytes that are not UTF-8: one line, exit 2
    (tmp_path / "latin1.json").write_bytes(b'{"sites": 2, "hoppings": [], "x\xe9": 1}')
    for name, message in (("", "error: cannot read graph file"),
                          ("nope.json", "error: cannot read graph file"),
                          ("latin1.json", "error: parse failure")):
        assert main(["trap", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
