"""Command-line interface: subcommands, exit codes, file formats."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanonet import (
    CENTRAL,
    PiLatticeSpec,
    SurvivalSeries,
    assemble_hamiltonian,
    build_pi_lattice,
    classify_decay,
    find_trapping_modes,
    parse_graph_file,
    safe_horizon,
    subgraph_hamiltonian,
)
import fanonet
from fanonet import bound_states, cli, pilattice, scattering, spectra
from fanonet.cli import _json_text, main
from fanonet.dynamics import PHASE_BLOCK

from _support import central_sites, reference_json_dict, reference_node_sites


def pi_graph_file(tmp_path, n0, length, leads, name="graph.json"):
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, leads=leads))
    spec = {
        "sites": lattice.graph.site_count,
        "hoppings": [[i, j, s] for i, j, s in lattice.graph.hoppings],
        "partition": list(lattice.partition.assignment),
    }
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def test_trap_reports_certificates(tmp_path, capsys):
    path = pi_graph_file(tmp_path, 3, 5, leads=8)
    out = tmp_path / "certs.json"
    code = main(["trap", str(path), "--subgraph", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "3 found" in stdout
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert all(entry["residual"] < 1e-10 for entry in payload)


def test_trap_exit_three_when_nothing_trapped(tmp_path):
    # no side chains: a plain cut chain traps nothing
    spec = {
        "sites": 6,
        "hoppings": [[i, i + 1, 1.0] for i in range(5)],
        "partition": [0, 0, 0, 1, 1, 1],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    assert main(["trap", str(path), "--subgraph", "0"]) == 3


def test_trap_disconnected_partition_warns(tmp_path, capsys):
    spec = {
        "sites": 4,
        "hoppings": [[0, 1, 1.0], [2, 3, 1.0]],
        "partition": [0, 0, 1, 1],
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(spec))
    assert main(["trap", str(path), "--subgraph", "0"]) == 0
    assert "vacuously" in capsys.readouterr().err


@pytest.mark.parametrize("hoppings, found", [
    ([[0, 1, 1.0], [1, 2, 0.0]], 2),      # a coupling of strength 0: both modes
    ([[0, 1, 1.0], [1, 2, 0.5]], 0),      # a coupling of strength 0.5: neither
    ([[0, 1, 1.0], [0, 2, 0.5]], 0),
])
def test_trap_warns_exactly_when_every_mode_is_trapped(tmp_path, capsys, hoppings, found):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"sites": 3, "hoppings": hoppings, "partition": [0, 0, 1]}))
    assert main(["trap", str(path), "--subgraph", "0"]) == (0 if found else 3)
    out, err = capsys.readouterr()
    assert f"({found} found)" in out
    assert ("vacuously" in err) == (found == 2)


# a one-site subgraph (site 2) whose only coupling has strength 0: its
# one mode is trapped, with an amplitude of exactly 1
ONE_SITE = {"sites": 3, "hoppings": [[0, 1, 1.0], [1, 2, 0.0]], "partition": [0, 0, 1]}


@pytest.mark.parametrize("graph, subgraph, found", [
    ((1, 3, 2), 0, 0),      # a lead traps nothing: exit 3, an empty list
    ((1, 3, 2), 1, 1),
    ((3, 5, 8), 1, 3),
    ((11, 13, 4), 1, 11),
    (ONE_SITE, 1, 1),
], ids=["pi-lead", "pi-1-3", "pi-3-5", "pi-11-13", "one-site"])
def test_trap_out_holds_each_certificate_exactly_one_chunk_at_a_time(tmp_path, monkeypatch,
                                                                      capsys, graph, subgraph,
                                                                      found):
    # trap --out writes its list one certificate at a time; the file parses
    # to each certificate's reference dict with every float bit for bit,
    # each array on one line, and stdout lists each certificate's nodes
    if isinstance(graph, dict):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
    else:
        path = pi_graph_file(tmp_path, *graph)
    network, partition = parse_graph_file(path)
    certificates = find_trapping_modes(network, partition, subgraph)
    chunks = []
    write = cli._write_text
    monkeypatch.setattr(cli, "_write_text", lambda out, text: write(
        out, (chunks.append(chunk) or chunk for chunk in text)))
    out = tmp_path / "certs.json"
    code = main(["trap", str(path), "--subgraph", str(subgraph), "--out", str(out)])
    assert code == (cli.EXIT_OK if found else cli.EXIT_EMPTY)
    assert len(certificates) == found

    sites = np.flatnonzero(partition.labels == subgraph)
    assert capsys.readouterr().out.splitlines() == [
        f"# trapped modes of subgraph {subgraph} ({found} found)"] + [
        f"energy={c.energy:.12g} nodes={reference_node_sites(c, sites)} residual={c.residual:.3e}"
        for c in certificates]

    def exact(value):                   # float.hex tells every double apart, -0.0 from 0.0
        if isinstance(value, dict):
            return {key: exact(v) for key, v in value.items()}
        if isinstance(value, list):
            return [exact(v) for v in value]
        return (type(value).__name__, value.hex() if isinstance(value, float) else value)

    text = out.read_text()
    assert exact(json.loads(text)) == exact([reference_json_dict(c) for c in certificates])
    # "[", six lines per certificate ("{", four keys, "}") and "]"; or "[]"
    lines = text.splitlines()
    assert len(lines) == (6 * found + 2 if found else 1)
    for line in lines:
        if line.lstrip().startswith(('"amplitudes"', '"sites"')):
            assert isinstance(json.loads(line.split(": ", 1)[1].rstrip(",")), list)
    assert "".join(chunks) == text
    assert all(chunk.count('"energy"') <= 1 for chunk in chunks)
    if isinstance(graph, dict):
        assert '"amplitudes": [1.0]' in lines[2]


def test_trap_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"sites": 4, "hoppings": [[0, 1')
    assert main(["trap", str(path)]) == 2
    err = capsys.readouterr().err
    assert "parse failure" in err and "line" in err


def test_trap_missing_file_exits_two(tmp_path):
    assert main(["trap", str(tmp_path / "nope.json")]) == 2


def test_evolve_series_and_classification(tmp_path):
    out = tmp_path / "survival.csv"
    code = main(
        ["evolve", "--n0", "2", "--len", "4", "--m", "40", "--steps", "60",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "N0,L,n,t,P,classification"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8 * 60
    by_mode = {int(r[2]): r[5] for r in rows}
    assert by_mode[3] == "unitary"
    assert by_mode[6] == "unitary"
    assert by_mode[1] == "drop_to_plateau"


def test_evolve_with_side_chains_coupled_far_more_strongly_than_the_host(tmp_path):
    # kappa/kappa0 = 0.01 puts secular roots a hair from a lead pole
    out = tmp_path / "strong.csv"
    assert main(["evolve", "--n0", "2", "--len", "5", "--m", "20", "--kappa0", "100",
                 "--steps", "60", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 9 * 60
    assert all(float(r[4]) == pytest.approx(1.0, abs=1e-12) for r in rows if r[3] == "0")


def test_evolve_single_time_point(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(
        ["evolve", "--n0", "2", "--len", "4", "--m", "10", "--steps", "2",
         "--t-max", "0", "--modes", "1,2", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 4
    assert all(float(r[4]) == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_evolve_all_modes_in_blocks_matches_full_projection(tmp_path):
    # 167 sites, 47 central: blocks of 3 modes, the last one short
    n0, length, leads, kappa0, steps = 3, 41, 60, 1.7, 200
    args = ["evolve", "--n0", str(n0), "--len", str(length), "--m", str(leads),
            "--kappa0", str(kappa0), "--steps", str(steps), "--modes", "all"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    spec = PiLatticeSpec(n0, length, 1.0, kappa0, leads)
    lattice = build_pi_lattice(spec)
    central = central_sites(spec)
    energies, vectors = np.linalg.eigh(assemble_hamiltonian(lattice.graph))
    block, _ = subgraph_hamiltonian(lattice.graph, lattice.partition, CENTRAL)
    horizon = safe_horizon(leads, 1.0)
    times = np.linspace(0.0, horizon, steps)
    phases = np.exp(-1j * np.outer(times, energies))
    rows = [line.split(",") for line in a.read_text().splitlines()[2:]]
    assert len(rows) == len(central) * steps
    chain_energies, chain_modes = np.linalg.eigh(block)
    # eigh cannot split the side-chain edge pairs (modes 1, 2 and 46, 47,
    # split by ~4e-16) and returns arbitrary mixtures of their two mirror
    # states; rotate each such pair into its even and odd state, mode n
    # taking parity (-1)^(n-1)
    unresolved = np.flatnonzero(np.diff(chain_energies) < 1e-8 * np.linalg.norm(block, np.inf))
    assert unresolved.tolist() == [0, 45]
    for i in unresolved:
        pair = chain_modes[:, i:i + 2]
        # <g|J|g'> with J the mirror; eigh orders its parities -1, +1
        _, rotation = np.linalg.eigh(pair.T @ pair[::-1])
        chain_modes[:, i:i + 2] = pair @ rotation[:, [1, 0] if i % 2 == 0 else [0, 1]]
    for n, chain_mode in enumerate(chain_modes.T, start=1):
        psi0 = np.zeros(len(energies))
        psi0[central] = chain_mode
        amps = (phases * (vectors.T @ psi0)) @ vectors.T
        expected = np.sum(np.abs(amps[:, central]) ** 2, axis=1)
        label = classify_decay(SurvivalSeries(n, times, expected, horizon))
        mode_rows = rows[(n - 1) * steps:n * steps]
        assert {int(r[2]) for r in mode_rows} == {n}
        got = np.array([float(r[4]) for r in mode_rows])
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert {r[5] for r in mode_rows} == {label}


def test_a_long_evolve_holds_one_block_of_phase_rows_at_a_time(tmp_path):
    # 40,000 times on the 307 energies of mode 5's sector: one whole
    # 40,000 x 307 phase table would take 98 MB
    steps = 40_000
    args = ["evolve", "--n0", "2", "--len", "9", "--m", "300", "--t-max", "120",
            "--steps", str(steps), "--modes", "5", "--out", str(tmp_path / "long.csv")]
    assert main(args[:7] + ["--steps", "60", "--out", str(tmp_path / "warm.csv")]) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the cos and sin rows of one block (one anchor, 200 rows: within
    # 2 * PHASE_BLOCK numbers), three arrays of the 199 offset rows that all
    # blocks share (within 3 * PHASE_BLOCK), and b, a block's products and
    # its amplitudes (within PHASE_BLOCK together); the rest is per time
    # sample: t, P and their CSV text
    assert peak < 8 * 8 * PHASE_BLOCK + 256 * steps
    assert len((tmp_path / "long.csv").read_text().splitlines()) == 2 + steps


def test_evolve_horizon_guard(tmp_path, capsys):
    args = ["evolve", "--n0", "2", "--len", "4", "--m", "10", "--steps", "60",
            "--t-max", "100", "--modes", "1", "--out", str(tmp_path / "x.csv")]
    assert main(args) == 4
    assert capsys.readouterr().err == (
        "error: t_max=100.0 exceeds the safe horizon 4.5 "
        "(rerun with --allow-reflections to override)\n")
    assert not (tmp_path / "x.csv").exists()
    assert main(args + ["--allow-reflections"]) == 0


def test_bound_report(tmp_path, capsys):
    out = tmp_path / "states.json"
    code = main(["bound", "--n0", "3", "--len", "5", "--out", str(out)])
    assert code == 0
    assert "3 resonant, 4 evanescent" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert len(payload["states"]) == 7
    kinds = {s["kind"] for s in payload["states"]}
    assert kinds == {"resonant", "evanescent"}


def test_bound_long_time(tmp_path, capsys):
    code = main(["bound", "--n0", "2", "--len", "4", "--long-time", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    value = float(stdout.rsplit(":", 1)[1])
    assert value == pytest.approx(0.5032, abs=0.01)


def test_bound_no_resonant_states(capsys):
    assert main(["bound", "--n0", "2", "--len", "5"]) == 0
    assert "0 resonant" in capsys.readouterr().out


def test_transmit_sweep_and_sidecar(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["transmit", "--n0", "2", "--len", "5", "--compare", "6",
         "--steps", "40", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,E,T,R,re_t,im_t"
    assert len(lines) == 2 + 40
    paired = (tmp_path / "sweep_L6.csv").read_text().splitlines()
    assert paired[1] == "k,E,T,R,re_t,im_t"
    assert len(paired) == 2 + 40
    sidecar = json.loads((tmp_path / "sweep.csv.zeros.json").read_text())
    assert {z["provenance"] for z in sidecar["k_min"]} == {"common-alpha"}
    assert {z["provenance"] for z in sidecar["k_max"]} == {"common-beta"}
    assert sidecar["k0"]["5"] and sidecar["k0"]["6"]
    dips = [e for e in sidecar["peak_dip"] if e["dip_energy"] < 0]
    assert dips[0]["straddle"] is True


def test_transmit_steps_rows_exact(tmp_path):
    out = tmp_path / "two.csv"
    assert main(["transmit", "--n0", "3", "--len", "5", "--steps", "2",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_transmit_band_guard(tmp_path, capsys):
    code = main(["transmit", "--n0", "2", "--len", "5", "--e-min", "-3",
                 "--e-max", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: energy range [-3.0, 0.0] must lie strictly inside the band (-2.0, 2.0)\n")
    assert list(tmp_path.iterdir()) == []


def test_transmit_deterministic_output(tmp_path):
    args = ["transmit", "--n0", "2", "--len", "5", "--steps", "25"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.zeros.json").read_bytes() == (
        tmp_path / "b.csv.zeros.json"
    ).read_bytes()


def test_config_file_equivalent_to_flags(tmp_path):
    config = {
        "subcommand": "transmit",
        "n0": 2,
        "length": 5,
        "steps": 20,
        "out": str(tmp_path / "from_config.csv"),
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg)]) == 0
    assert main(["transmit", "--n0", "2", "--len", "5", "--steps", "20",
                 "--out", str(tmp_path / "from_flags.csv")]) == 0
    assert (tmp_path / "from_config.csv").read_bytes() == (
        tmp_path / "from_flags.csv"
    ).read_bytes()


def test_config_before_subcommand(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n0": 2, "length": 5, "steps": 10}))
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg), "transmit", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 10


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n0": 2, "length": 5, "steps": 20}))
    out = tmp_path / "o.csv"
    assert main(["transmit", "--config", str(cfg), "--steps", "4",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 4


def test_invalid_parameters_exit_two(tmp_path):
    assert main(["bound", "--n0", "0", "--len", "5"]) == 2
    assert main(["evolve", "--n0", "2", "--len", "4"]) == 2  # missing --m
    assert main([]) == 2


@pytest.mark.parametrize(
    "placement",
    [["--config", "{cfg}", "transmit"], ["transmit", "--config", "{cfg}"], ["--config", "{cfg}"]],
    ids=["before-subcommand", "after-subcommand", "subcommand-from-file"],
)
@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config"), ("[1, 2]", "must hold a JSON object"),
     ('{"subcommand": "transmit", "len": 5}', "unknown config key 'len'"),
     ('{"subcommand": "transmit", "n0": "two", "length": 5}',
      "config key 'n0' expects int | None, got \"two\"")],
    ids=["missing", "not-object", "unknown-key", "bad-type"],
)
def test_config_error_is_one_line_exit_two(tmp_path, capsys, placement, content, message):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    assert main([arg.replace("{cfg}", str(cfg)) for arg in placement]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def test_unwritable_output_is_one_line_exit_two(tmp_path, capsys):
    target = tmp_path / "existing_dir"
    target.mkdir()
    args = ["transmit", "--n0", "2", "--len", "5", "--steps", "10", "--out", str(target)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot write output:")
    assert "Is a directory" in captured.err


@pytest.mark.parametrize("key, value, code", [
    ("n0", 3, 0), ("n0", True, 2), ("n0", 3.0, 2), ("kappa0", 2, 0), ("kappa0", "2", 2),
    ("out", None, 0), ("kappa", None, 2),
])
def test_config_values_are_checked_against_the_field_types(tmp_path, key, value, code):
    # JSON has one number type, so an integer fits a float field; a bool
    # fits no number field, and null only an optional one
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"subcommand": "bound", "n0": 2, "length": 4, key: value}))
    assert main(["--config", str(cfg)]) == code


def test_format_is_no_config_key(tmp_path, capsys):
    # no output format is selectable: a "format" key is an unknown key
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"subcommand": "bound", "n0": 2, "length": 4, "format": "json"}))
    assert main(["--config", str(cfg)]) == 2
    _one_error_line(capsys, "unknown config key 'format'")


@pytest.mark.parametrize("name, argv", [
    ("transmission_sweep", ["transmit", "--n0", "2", "--len", "5", "--steps", "10"]),
    ("evanescent_bound_states", ["bound", "--n0", "2", "--len", "4"]),
    ("long_time_survival", ["bound", "--n0", "2", "--len", "4", "--long-time", "2"]),
    ("diagonalize", ["evolve", "--n0", "2", "--len", "4", "--m", "40", "--modes", "1"]),
    ("lead_eigenpairs", ["evolve", "--n0", "2", "--len", "4", "--m", "40", "--modes", "1"]),
    ("find_trapping_modes", ["trap", "{graph}"]),
])
def test_internal_failure_is_one_line_exit_five(tmp_path, capsys, monkeypatch, name, argv):
    # a result that fails its own consistency check raises ArithmeticError
    def fail(*args, **kwargs):
        raise ArithmeticError("dual-path identity violated at k=1.0")

    # evolve reaches diagonalize through lead_eigenpairs, in spectra
    monkeypatch.setattr(cli if hasattr(cli, name) else spectra, name, fail)
    graph = pi_graph_file(tmp_path, 2, 4, 3)
    assert main([a.replace("{graph}", str(graph)) for a in argv]) == cli.EXIT_INTERNAL == 5
    _one_error_line(capsys, "error: dual-path identity violated at k=1.0")


@pytest.mark.parametrize("argv", [
    ["evolve", "--n0", "2", "--len", "5", "--m", "40", "--kappa0", "1.3", "--steps", "30",
     "--modes", "all"],
    ["evolve", "--n0", "3", "--len", "8", "--m", "1", "--kappa", "1.3", "--kappa0", "0.7",
     "--t-max", "5", "--allow-reflections", "--steps", "30", "--modes", "2,7"],
    ["bound", "--n0", "2", "--len", "5", "--kappa0", "1.3", "--long-time", "4"],
    ["bound", "--n0", "2", "--len", "4", "--long-time", "3"],
])
def test_survival_and_long_time_paths_build_no_lattice_graph(argv, capsys, monkeypatch):
    # the sector blocks come from the spec's hopping profile alone
    calls = []
    build = pilattice.build_pi_lattice

    def spy(spec):
        calls.append(spec)
        return build(spec)

    for module in (fanonet, pilattice, cli, bound_states, scattering):
        if hasattr(module, "build_pi_lattice"):
            monkeypatch.setattr(module, "build_pi_lattice", spy)
    assert main(argv) == 0
    assert calls == []


def test_a_root_bracket_that_does_not_shrink_is_one_line_exit_five(capsys, monkeypatch):
    # with a zero tolerance no bracket of the gamma scan ever counts as shrunk
    monkeypatch.setattr(bound_states, "GAMMA_REFINE", 0.0)
    assert main(["bound", "--n0", "3", "--len", "5"]) == cli.EXIT_INTERNAL == 5
    _one_error_line(capsys, "error: root bisection left the bracket [")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_long_time_survival_that_is_no_probability_exits_five(capsys):
    # a state's lead tail overflows, its subgraph weight is nan, and so was
    # P_inf, printed with exit 0
    argv = ["bound", "--n0", "62", "--len", "320", "--kappa", "0.000336234988881394",
            "--kappa0", "1.935040338049818e-06", "--long-time", "184"]
    assert main(argv) == cli.EXIT_INTERNAL == 5
    _one_error_line(capsys, "error: long-time survival of mode 184 is nan, not a probability")


def _one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["bound", "--n0", "1", "--len", "3", "--kappa0", "inf"], "kappa0 must be finite and > 0"),
    (["bound", "--n0", "1", "--len", "3", "--kappa0", "nan"], "kappa0 must be finite and > 0"),
    (["transmit", "--n0", "2", "--len", "5", "--kappa", "inf"], "kappa must be finite and > 0"),
    (["evolve", "--n0", "2", "--len", "4", "--m", "40", "--kappa", "inf"],
     "kappa must be finite and > 0"),
])
def test_non_finite_hopping_is_one_line_exit_two(capsys, argv, message):
    assert main(argv) == 2
    _one_error_line(capsys, message)


@pytest.mark.parametrize("extra, message", [
    (["--modes", ","], "empty mode list"),
    (["--modes", ""], "empty mode list"),
    (["--t-max", "-2"], "t_max must be finite and >= 0, got -2.0"),
    (["--t-max", "inf", "--allow-reflections"], "t_max must be finite and >= 0, got inf"),
    (["--t-max", "nan"], "t_max must be finite and >= 0, got nan"),
])
def test_evolve_rejects_empty_modes_and_bad_t_max(tmp_path, capsys, extra, message):
    out = tmp_path / "s.csv"
    argv = ["evolve", "--n0", "2", "--len", "4", "--m", "40", "--out", str(out)]
    assert main(argv + extra) == 2
    _one_error_line(capsys, message)
    assert not out.exists()


def test_evolve_rejects_an_empty_mode_list_in_a_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"subcommand": "evolve", "n0": 2, "length": 4, "leads": 40,
                               "modes": []}))
    assert main(["--config", str(cfg)]) == 2
    _one_error_line(capsys, "empty mode list")


@pytest.mark.parametrize("mode", ["0", "9", "-3"])
def test_bound_long_time_mode_is_checked_before_any_output(tmp_path, capsys, mode):
    out = tmp_path / "b.json"
    assert main(["bound", "--n0", "2", "--len", "4", "--long-time", mode,
                 "--out", str(out)]) == 4
    _one_error_line(capsys, f"mode must be in [1, 8], got {mode}")
    assert not out.exists()


@pytest.mark.parametrize("compare, message", [
    pytest.param(compare, f"length must be >= 2, got {compare}", id=compare)
    for compare in ("-3", "0", "1")
] + [pytest.param("5", "--compare must differ from --len, got 5 for both", id="5")])
def test_transmit_compare_length_is_validated_before_any_output(tmp_path, capsys, compare,
                                                                message):
    out = tmp_path / "c.csv"
    assert main(["transmit", "--n0", "2", "--len", "5", "--compare", compare, "--steps", "3",
                 "--out", str(out)]) == 2
    _one_error_line(capsys, message)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ JSON writer ----

_FLOATS = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                       math.nan, math.inf, -math.inf])
    | st.floats().map(np.float64)
)
_LEAVES = (st.none() | st.booleans() | st.integers(-2**200, 2**200) | _FLOATS
           | st.text(st.characters(), max_size=6))
# keys with non-ASCII characters, quotes, backslashes, control characters
# and % (the writer's template conversion character)
_KEYS = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\u00e9\u2028%'), max_size=6)
# a column of one kind, as the CLI's records hold, or of mixed kinds
_COLUMNS = st.sampled_from([
    _FLOATS, st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-2**70, 2**70), st.text(st.characters(), max_size=6), st.booleans(),
    st.none(), _LEAVES, st.dictionaries(_KEYS, _LEAVES, max_size=3),
    st.none() | st.dictionaries(_KEYS, _LEAVES | st.lists(_FLOATS, max_size=3), max_size=3),
])
# lists of dicts that all hold the same keys, like the zero catalog, the
# peak-dip entries and the bound states, and lists whose key sets differ
_RECORDS = (
    st.lists(st.tuples(_KEYS, _COLUMNS), min_size=1, max_size=4, unique_by=lambda kc: kc[0])
    .flatmap(lambda columns: st.lists(
        st.fixed_dictionaries({key: column for key, column in columns}), min_size=1, max_size=5))
    | st.lists(st.dictionaries(_KEYS, _LEAVES, max_size=3), min_size=2, max_size=4)
)
_PAYLOADS = st.recursive(
    _LEAVES | st.lists(_FLOATS, max_size=6) | st.lists(st.integers(), max_size=6)
    | st.lists(st.text(max_size=4), max_size=4) | _RECORDS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24,
)


@given(_PAYLOADS)
@settings(max_examples=200)
def test_json_writer_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    np.int64(3), [1, np.int64(2)], {1, 2}, {"a": {1: 2}}, {"a": [{2.5: "b"}]}, {"a": b"x"},
    [{"a": 1}, {"a": np.int64(2)}], [{1: 2}, {1: 3}], [{"a": 1}, {2: 1}],
], ids=["np.int64", "np.int64-item", "set", "int-key", "float-key", "bytes",
        "np.int64-column", "int-key-records", "int-key-second-record"])
def test_json_writer_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        _json_text(value)


def _run_sequence(tmp_path, fresh, capsys):
    """Exit code, stdout, stderr and written files of each call of a fixed
    sequence of ``main`` calls in ``tmp_path``, with the directory's path
    written as {dir}; ``fresh`` builds a new parser before every call."""
    tmp_path.mkdir()
    graph = pi_graph_file(tmp_path, 3, 5, leads=8)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"subcommand": "bound", "n0": 2, "length": 4,
                                  "out": str(tmp_path / "config.json")}))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"subcommand": "transmit", "len": 5}))
    inputs = {graph.name, config.name, unknown.name}
    d = str(tmp_path)
    sequence = [
        ["evolve", "--n0", "2", "--len", "4", "--m", "20", "--steps", "60",
         "--modes", "1,2", "--out", f"{d}/p.csv"],
        ["trap", str(graph), "--subgraph", "1", "--out", f"{d}/certs.json"],
        ["transmit", "--n0", "2", "--len", "5", "--compare", "6", "--steps", "40",
         "--out", f"{d}/t.csv"],
        ["bound", "--n0", "2", "--len", "4", "--kappa0", "1.7", "--long-time", "3",
         "--out", f"{d}/b.json"],
        ["--config", str(config), "bound"],
        ["transmit", "--n0", "2", "--len", "5", "--colour", "red"],     # argparse: exit 2
        ["--config", str(unknown)],                                     # config key: exit 2
    ]
    outcomes = []
    for argv in sequence:
        if fresh:
            cli._parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                 if p.name not in inputs}
        for p in tmp_path.iterdir():
            if p.name not in inputs:
                p.unlink()
        outcomes.append((code, captured.out.replace(d, "{dir}"),
                         captured.err.replace(d, "{dir}"), files))
    return outcomes


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # the parser is built once per process; a sequence of calls through it
    # must behave as the same calls, each with a parser of its own
    main(["bound", "--n0", "2", "--len", "4"])                  # builds it, if nothing has
    capsys.readouterr()
    shared = _run_sequence(tmp_path / "shared", False, capsys)
    fresh = _run_sequence(tmp_path / "fresh", True, capsys)
    assert [o[0] for o in shared] == [0, 0, 0, 0, 0, 2, 2]
    assert all(files for _, _, _, files in shared[:5])
    assert shared == fresh


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["transmit", "--help"], 0),
    (["transmit", "--n0", "2", "--len", "5", "--colour", "red"], 2),     # unknown flag
    (["transmit", "--n0", "two", "--len", "5"], 2),                      # bad int
    (["colour", "--n0", "2"], 2),                                        # bad choice
], ids=["help", "subcommand-help", "unknown-flag", "bad-int", "bad-choice"])
def test_main_returns_argparse_exit_codes(capsys, argv, code):
    # main returns every exit code, argparse's too, and raises no SystemExit;
    # argparse has written the help text or its one error line
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.startswith("usage: fanonet") and err == ""
    else:
        assert err.startswith("usage: fanonet") and ": error: " in err
