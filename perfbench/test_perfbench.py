"""Self-tests of the benchmark: seeded inputs, deterministic outputs, and
checkers that catch corrupted outputs.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
from tracer import Tracer  # noqa: E402

import fanonet  # noqa: E402


@pytest.fixture
def runner():
    work = worker.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = worker.Runner(work)
    yield run
    run.close()
    shutil.rmtree(work, ignore_errors=True)


def _first_rounds(workload, seed, count=2):
    stream = jobs.rounds(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    a = _first_rounds(workload, 7)
    b = _first_rounds(workload, 7)
    c = _first_rounds(workload, 8)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert [j for j, _ in a] != [j for j, _ in c]


def test_sweep_keeps_the_known_defect_configurations():
    for round_jobs, _ in _first_rounds("sweep", 3, count=3):
        configs = {(j["argv"][0], j["params"]["n0"], j["params"]["length"]) for j in round_jobs}
        assert {("bound", 1, 123), ("bound", 3, 123), ("transmit", 1, 1000)} <= configs


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_a_run_does_the_same_work_with_every_seed(workload):
    """The run length is a job count, and the parameters that decide a
    sweep job's fate (kind, n0, length, hopping ratio) do not depend on the
    seed, so every run attempts, and fails, the same number of jobs."""
    wanted = worker.run_length(workload, 20)
    def run(seed):
        done = []
        for round_jobs, _ in jobs.rounds(workload, seed):
            done += round_jobs
            if len(done) >= wanted:
                return done
    def fate(job):
        p = job["params"]
        return job["argv"][0], "compare" in p, "long_time" in p, p["n0"], p["length"], p["kappa0"]
    a, b = run(1), run(2)
    assert len(a) == len(b) >= worker.MIN_JOBS
    if workload == "sweep":
        assert sorted(map(fate, a)) == sorted(map(fate, b))


def _cheap(workload):
    """Round-0 jobs of seed 5 that run in well under a second."""
    round_jobs, graphs = next(jobs.rounds(workload, 5))
    def cost(job):
        p = job["params"]
        if workload == "sweep":
            return p["length"] * p.get("steps", 100)
        if workload == "survival":
            return p["leads"]
        return 0 if job["kind"] == "cli" else 1
    picked = sorted(round_jobs, key=cost)[:2]
    return picked, graphs


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_outputs_are_byte_identical_across_runs(runner, workload):
    picked, graphs = _cheap(workload)
    runner.add_graphs(0, graphs)
    for job in picked:
        if job["kind"] != "cli":
            continue
        first, second = runner.run(job, "a"), runner.run(job, "b")
        assert first["error"] is None and second["error"] is None
        a = [p.read_bytes() for p in checks.output_files(runner, job, "a")]
        b = [p.read_bytes() for p in checks.output_files(runner, job, "b")]
        assert a and a == b


def _run(runner, argv, job_id=0, params=None, round_index=0):
    job = {"id": job_id, "kind": "cli", "argv": argv, "expect": [0, 3],
           "params": params or {}, "round": round_index}
    record = runner.run(job, "c")
    assert record["error"] is None, record["error"]
    return job, record


def test_transmit_check_flags_broken_flux(runner):
    params = {"n0": 2, "length": 5, "kappa": 1.0, "kappa0": 1.0, "steps": 60}
    job, _ = _run(runner, ["transmit", "--n0", "2", "--len", "5", "--steps", "60",
                           "--out", "{out}.csv"], params=params)
    rng = np.random.default_rng(0)
    assert checks.check_transmit(runner, job, "c", rng) == "ok"
    path = Path(runner.out_prefix(job, "c") + ".csv")
    lines = path.read_text().splitlines()
    k, e, t, r, re_t, im_t = lines[10].split(",")
    lines[10] = ",".join([k, e, repr(float(t) + 1e-6), r, re_t, im_t])
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_transmit(runner, job, "c", rng).startswith("L=5: T+R off")


def test_bound_check_flags_a_missing_evanescent_state(runner):
    params = {"n0": 2, "length": 4, "kappa": 1.0, "kappa0": 1.0}
    job, _ = _run(runner, ["bound", "--n0", "2", "--len", "4", "--out", "{out}.json"],
                  params=params)
    assert checks.check_bound(runner, job, "c") == "ok"
    path = Path(runner.out_prefix(job, "c") + ".json")
    payload = json.loads(path.read_text())
    drop = next(i for i, s in enumerate(payload["states"]) if s["kind"] == "evanescent")
    del payload["states"][drop]
    path.write_text(json.dumps(payload))
    assert "evanescent states" in checks.check_bound(runner, job, "c")


def test_trap_check_flags_a_dropped_certificate(runner):
    graph = jobs.make_graph(np.random.default_rng(4), 120, 3)
    runner.add_graphs(0, [graph])
    basis = checks.FullBasis(graph)
    rich = max(set(graph["partition"]), key=lambda label: len(basis.trapped(label)))
    job, record = _run(runner, ["trap", "{graph0}", "--subgraph", str(rich),
                                "--out", "{out}.json"], params={"graph": 0, "subgraph": rich})
    assert record["rc"] == 0
    assert checks.check_trap(runner, job, "c", record["rc"], basis) == "ok"
    path = Path(runner.out_prefix(job, "c") + ".json")
    certs = json.loads(path.read_text())
    path.write_text(json.dumps(certs[:-1]))
    assert "certificates" in checks.check_trap(runner, job, "c", record["rc"], basis)


def test_evolve_check_flags_a_leaking_trapped_mode(runner):
    # n0 = 1, length = 3: central size 5, mode 3 (k = pi/2) has nodes on both anchors
    params = {"n0": 1, "length": 3, "kappa": 1.0, "kappa0": 1.0, "steps": 60, "modes": "2,3"}
    job, _ = _run(runner, ["evolve", "--n0", "1", "--len", "3", "--m", "60", "--steps", "60",
                           "--modes", "2,3", "--out", "{out}.csv"], params=params)
    assert checks.check_evolve(runner, job, "c") == "ok"
    path = Path(runner.out_prefix(job, "c") + ".csv")
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("1,3,3,") and i > 70)
    fields = lines[row].split(",")
    fields[4] = "0.99"
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_evolve(runner, job, "c").startswith("trapped mode 3 leaks")


def test_oracle_check_flags_a_wrong_amplitude():
    params = {"n0": 2, "length": 5, "kappa": 1.0, "kappa0": 1.3, "k": 1.1, "leads": 40}
    t, r = fanonet.numeric_scatter_oracle(**params)
    assert checks.check_oracle([t.real, t.imag, r.real, r.imag], params) == "ok"
    bad = t * np.exp(1e-6j)
    assert checks.check_oracle([bad.real, bad.imag, r.real, r.imag], params) != "ok"


@pytest.mark.parametrize("n0,length,kappa0,leads", [(1, 2, 1.0, 0), (2, 5, 3.0, 17),
                                                     (4, 9, 0.4, 30), (3, 123, 1.0, 40)])
def test_inertia_count_matches_dense_spectrum(n0, length, kappa0, leads):
    spec = fanonet.PiLatticeSpec(n0, length, 1.0, kappa0, leads)
    energies = np.linalg.eigvalsh(fanonet.assemble_hamiltonian(fanonet.build_pi_lattice(spec).graph))
    for x in (-2.0, -0.7, 0.31, 1.3, 2.0):          # 0 is an exact eigenvalue of odd bipartite lattices
        assert checks.eigenvalues_below(x, n0, length, 1.0, kappa0, leads) == np.sum(energies < x)


def test_tracer_wraps_every_binding_and_restores_them():
    original = fanonet.scattering.scattering_point
    tracer = Tracer()
    tracer.install()
    try:
        assert fanonet.cli.scattering_point is fanonet.scattering.scattering_point
        assert fanonet.scattering_point is fanonet.scattering.scattering_point
        assert fanonet.scattering.scattering_point.__wrapped__ is original
        assert fanonet.dynamics.diagonalize is fanonet.spectra.diagonalize
        assert fanonet.bound_states.diagonalize is fanonet.spectra.diagonalize
        fanonet.scattering_point(1.0, 2, 5)
    finally:
        tracer.uninstall()
    assert fanonet.scattering.scattering_point is original
    assert fanonet.cli.scattering_point is original
    summary = tracer.summary()
    assert summary["calls"]["scattering.scattering_point"] == 1
    assert summary["calls"]["scattering.side_chain_response"] == 4
    assert 0 <= summary["self_s"]["scattering.scattering_point"] <= \
        summary["total_s"]["scattering.scattering_point"]


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)


def test_refuses_to_run_without_the_program():
    bare = worker.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_shares_split_self_time_by_module():
    import run

    own = {"cli.main": 0.2, "scattering.numeric_scatter_oracle": 0.5,
           "scattering.scattering_point": 0.3}
    record = {"trace": {"calls": dict.fromkeys(own, 1), "total_s": own, "self_s": own,
                        "counts": {}, "overhead_s": 0.2, "job_s": 2.0},
              "jobs": [{"bytes": 10}]}
    out = run.per_layer(record)
    assert out["share.cli"] == 0.1 and out["share.oracle"] == 0.25
    assert out["share.scattering"] == 0.15 and out["share.dynamics"] == 0.0
    assert out["cli.bytes_written"] == 10
    assert out["trace_overhead_s"] == 0.2


def test_known_defects_are_only_the_documented_ones():
    bound = {"argv": ["bound"], "params": {"length": 123}}
    assert checks.known_defect(bound, "0 evanescent states, truncated lattice has 4 out of band")
    assert not checks.known_defect(bound, "6 evanescent states, truncated lattice has 4 out of band")
    assert not checks.known_defect(bound, "P_inf=1.2 outside [0, 1]")
    transmit = {"argv": ["transmit"], "params": {"length": 1000}}
    assert checks.known_defect(transmit, "ArithmeticError: dual-path identity violated at k=1.4")
    assert not checks.known_defect(transmit, "ArithmeticError: flux not conserved at k=1.4")
    assert not checks.known_defect(transmit, "L=1000: T+R off by 1.00e-06")
    evolve = {"argv": ["evolve"], "params": {"length": 123}}
    assert not checks.known_defect(evolve, "mode 3: P leaves [0, 1]")
    assert not checks.known_defect({"argv": None, "params": {}}, "oracle t=0j, closed form 1")


def test_a_run_is_incorrect_on_an_unknown_failure_or_without_a_passing_job(runner):
    job, record = _run(runner, ["bound", "--n0", "2", "--len", "4", "--out", "{out}.json"],
                       params={"n0": 2, "length": 4, "kappa": 1.0, "kappa0": 1.0})
    lost = "0 evanescent states, truncated lattice has 4 out of band"
    other = {**job, "argv": ["transmit"], "params": {"length": 5}}
    assert worker.run_correct(runner, [(job, record)], ["ok"], "c")
    assert worker.run_correct(runner, [(job, record), (job, record)], ["ok", lost], "c")
    assert not worker.run_correct(runner, [(job, record), (other, record)],
                                  ["ok", "ArithmeticError: flux not conserved"], "c")
    assert not worker.run_correct(runner, [(job, record)], [lost], "c")


def test_every_per_layer_function_is_wrapped():
    import run

    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    try:
        wrapped = tracer.install()
    finally:
        tracer.uninstall()
    assert run.unprobed(spec, wrapped) == []
    renamed = {"per_layer": spec["per_layer"] + [{"name": "dynamics.evolve_all.calls"}]}
    assert run.unprobed(renamed, wrapped) == ["dynamics.evolve_all"]
