"""Seeded job streams for the three workloads.

A stream is an endless sequence of rounds, each drawn from two generators
of its own, so the same seed gives the same jobs whatever the run length:

* ``shape``, seeded by (workload, round) alone, draws what sets a job's
  cost: sizes, lengths, lead lengths, step and mode counts, subgraph roles
  and shares, and in the sweep the hopping ratios, which decide whether a
  job runs into a known defect and stops early.  Round i of every seed
  holds jobs of the same cost, so the throughput of a run does not depend
  on the seed.
* ``rng``, seeded by (seed, workload, round), draws the rest: the job
  order, the long-time mode, the oracle's n0, momenta and hopping ratios,
  which evolve job has unequal hoppings and their ratio, subgraph joints,
  potentials and site numbering.

Inside a round most continuous parameters are Latin-hypercube stratified: a
round of R jobs takes one draw from each of R equal-probability strata.

A job is a dict: ``kind`` is ``"cli"`` (``argv`` for ``fanonet.cli.main``,
with ``{out}`` standing for a per-job output path and ``{graphN}`` for the
round's N-th graph file, and ``expect`` listing the exit codes that count as
success) or ``"oracle"`` (``kwargs`` for ``numeric_scatter_oracle``);
``params`` carries what the checkers need.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "survival", "certify")


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _round_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _shape_rng(workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), index])


# ----------------------------------------------------------------- sweep ----

def _sweep_round(rng: np.random.Generator, shape: np.random.Generator) -> list[dict]:
    """20 jobs: transmit with/without --compare and bound with/without
    --long-time, one job per n0 = 1..5 of each kind.  Length (2-1000, up to
    300 with --compare), hopping ratio and steps are stratified within each
    kind, so every round carries the same mix of short and long, cheap and
    costly jobs."""
    jobs = []
    for kind in ("transmit", "compare", "bound", "long-time"):
        u_len, u_steps, u_ratio = (_strata(shape, 5) for _ in range(3))
        equal = int(shape.integers(5))                  # one job at equal hoppings
        # the zero scan costs time in proportion to the length, and --compare
        # runs it four times: up to length 1000 one such job would weigh as
        # much as a dozen others, and whether it finishes or dies early on a
        # defect would swing a run's throughput
        longest = 300 if kind == "compare" else 1000
        for i, n0 in enumerate(range(1, 6)):
            length = int(round(_log_uniform(u_len[i], 2, longest)))
            kappa0 = 1.0 if i == equal else round(_log_uniform(u_ratio[i], 0.3, 6.0), 4)
            # known defects stay in every round: n0 = 1 and 3 at length 123
            # lose their evanescent states, and n0 = 1 at length 1000 with
            # kappa0 = 1.5 ends in an ArithmeticError
            if kind == "bound" and n0 in (1, 3):
                length, kappa0 = 123, 1.0
            if kind == "transmit" and n0 == 1:
                length, kappa0 = 1000, 1.5
            # the 1010-site central chain that long-time survival diagonalizes
            # at unequal hoppings sets the memory high-water mark of every run
            if kind == "long-time" and n0 == 5:
                length = 1000
                kappa0 = round(_log_uniform(u_ratio[i], 0.3, 6.0), 4)
            params = {"n0": n0, "length": length, "kappa": 1.0, "kappa0": kappa0}
            argv = ["--n0", str(n0), "--len", str(length), "--kappa0", repr(kappa0)]
            if kind in ("transmit", "compare"):
                steps = int(200 + 1000 * u_steps[i])
                argv = ["transmit", *argv, "--steps", str(steps), "--out", "{out}.csv"]
                params["steps"] = steps
                if kind == "compare":
                    argv += ["--compare", str(length + 1)]
                    params["compare"] = length + 1
            else:
                argv = ["bound", *argv, "--out", "{out}.json"]
                if kind == "long-time":
                    mode = int(rng.integers(1, 2 * n0 + length + 1))
                    argv += ["--long-time", str(mode)]
                    params["long_time"] = mode
            jobs.append({"kind": "cli", "argv": argv, "expect": [0], "params": params})
    return jobs


# -------------------------------------------------------------- survival ----

def _survival_round(rng: np.random.Generator, shape: np.random.Generator) -> list[dict]:
    """10 evolve jobs: for n0 = 1..5 one short central chain evolved in
    every mode and one long chain evolved in 1-5 modes around pi/2 (each
    count once per round); leads, length and steps stratified within each
    of the two kinds."""
    jobs = []
    for short in (True, False):
        u_leads, u_len, u_steps = (_strata(shape, 5) for _ in range(3))
        mode_counts = shape.permutation(5) + 1          # one long job with each count
        unequal = int(rng.integers(5))                  # one job at unequal hoppings
        for i, n0 in enumerate(range(1, 6)):
            # all-mode jobs take the lower 70% of the lead range (log scale), so
            # the costliest pairing, every mode on the longest leads, stays out
            leads = int(round(_log_uniform(0.7 * u_leads[i] if short else u_leads[i], 100, 600)))
            steps = int(200 + 520 * u_steps[i])
            kappa0 = round(_log_uniform(rng.random(), 0.5, 2.0), 4) if i == unequal else 1.0
            if short:
                length = 2 + int(5 * u_len[i])              # 2..6
                modes = "all"
            else:
                # odd length makes the central size odd, so an exact pi/2 mode
                # (n = (size+1)/2) exists; its neighbours are quasi-resonant
                length = int(round(_log_uniform(u_len[i], 9, 130))) | 1
                size = 2 * n0 + length
                mid = (size + 1) // 2
                offsets = [0, -1, 1, -2, 2][:int(mode_counts[i])]
                modes = ",".join(str(mid + d) for d in sorted(offsets))
            argv = ["evolve", "--n0", str(n0), "--len", str(length), "--m", str(leads),
                    "--kappa0", repr(kappa0), "--steps", str(steps), "--modes", modes,
                    "--out", "{out}.csv"]
            params = {"n0": n0, "length": length, "kappa": 1.0, "kappa0": kappa0,
                      "leads": leads, "steps": steps, "modes": modes}
            jobs.append({"kind": "cli", "argv": argv, "expect": [0], "params": params})
    return jobs


# --------------------------------------------------------------- certify ----

def _chain(n: int, joints: list[int]):
    """Open chain of n sites; ``joints`` are 1-based chain positions."""
    return [(p, p + 1) for p in range(n - 1)], [j - 1 for j in joints]


def _ring(n: int, joints: list[int]):
    return [(p, (p + 1) % n) for p in range(n)], [j - 1 for j in joints]


def _subgraph(rng: np.random.Generator, shape: np.random.Generator, role: str, n: int):
    """Bonds and joint sites (0-based, local) of one subgraph.

    rich  -- chain joined only at multiples of (n+1)/d: every mode m with
             d | m has a node on each joint, so about n/d modes are trapped
    bare  -- chain joined at a position coprime to n+1: no mode is trapped
    ring  -- ring joined at one site: each degenerate pair has one
             combination with a node there
    """
    if role == "rich":
        d = int(shape.choice([2, 3, 4]))
        n = d * (n // d) - 1                              # n + 1 divisible by d
        step = (n + 1) // d
        joints = sorted(set(int(x) for x in rng.choice(np.arange(1, d) * step,
                                                      size=min(2, d - 1), replace=False)))
        return n, *_chain(n, joints)
    if role == "bare":
        candidates = [j for j in range(1, n + 1) if math.gcd(j, n + 1) == 1]
        joints = sorted(set(int(x) for x in rng.choice(candidates, size=2, replace=False)))
        return n, *_chain(n, joints)
    return n, *_ring(n, [1])


def make_graph(rng: np.random.Generator, sites: int, parts: int,
               shape: np.random.Generator | None = None) -> dict:
    """Graph spec (JSON-ready) of ``parts`` subgraphs with about ``sites``
    sites in total, joined into a tree through their joint sites.  Roles
    and sizes of the subgraphs come from ``shape`` (default ``rng``)."""
    shape = rng if shape is None else shape
    roles = ["rich", "bare", "ring"] + [str(r) for r in shape.choice(["rich", "bare", "ring"],
                                                                   size=max(parts - 3, 0))]
    roles = [roles[i] for i in shape.permutation(parts)] if parts >= 3 else roles[:parts]
    shares = shape.dirichlet(np.full(parts, 2.0))
    blocks, offset = [], 0
    for role, share in zip(roles, shares):
        n, bonds, joints = _subgraph(rng, shape, role, max(int(share * sites), 12))
        blocks.append((offset, n, bonds, joints))
        offset += n
    total = offset
    order = rng.permutation(total)                      # arbitrary site numbering
    hoppings, assignment = [], [0] * total
    potentials = {}
    for label, (start, n, bonds, joints) in enumerate(blocks):
        mu = round(float(rng.uniform(-0.5, 0.5)), 6)
        for p in range(n):
            assignment[int(order[start + p])] = label
            potentials[str(int(order[start + p]))] = mu
        hoppings += [[int(order[start + a]), int(order[start + b]), 1.0] for a, b in bonds]
    # every subgraph after the first hangs off an earlier one, joint to joint
    joint_sites = [[int(order[start + j]) for j in joints] for start, _, _, joints in blocks]
    pairs = set()
    for label in range(1, len(blocks)):
        for site in joint_sites[label]:
            other = int(rng.integers(0, label))
            partner = joint_sites[other][int(rng.integers(0, len(joint_sites[other])))]
            key = (min(site, partner), max(site, partner))
            if key not in pairs:
                pairs.add(key)
                hoppings.append([site, partner, round(float(rng.uniform(0.3, 1.5)), 6)])
    return {"sites": total, "hoppings": hoppings, "potentials": potentials,
            "partition": assignment}


def _certify_round(rng: np.random.Generator,
                   shape: np.random.Generator) -> tuple[list[dict], list[dict]]:
    """Two graph files, one smaller and one larger, with eight subgraphs
    between them and a trap job per subgraph; and eight oracle calls."""
    u_sites = _strata(shape, 2)
    parts = int(shape.integers(2, 7))
    graphs = [make_graph(rng, int(_log_uniform(u, 100, 1500)), p, shape)
              for u, p in zip(u_sites, (parts, 8 - parts))]
    jobs = []
    for g, graph in enumerate(graphs):
        for label in sorted(set(graph["partition"])):
            argv = ["trap", f"{{graph{g}}}", "--subgraph", str(label), "--out", "{out}.json"]
            jobs.append({"kind": "cli", "argv": argv, "expect": [0, 3],
                         "params": {"graph": g, "subgraph": label}})
    u_leads, u_len, u_k = _strata(shape, 8), _strata(shape, 8), _strata(rng, 8)
    for i in range(8):
        leads = int(round(_log_uniform(u_leads[i], 100, 800)))
        length = min(int(round(_log_uniform(u_len[i], 2, 200))), leads - 20)
        kwargs = {"n0": int(rng.integers(1, 6)), "length": length, "kappa": 1.0,
                  "kappa0": round(_log_uniform(rng.random(), 0.3, 6.0), 4),
                  "k": 0.05 + (np.pi - 0.1) * float(u_k[i]), "leads": leads}
        jobs.append({"kind": "oracle", "kwargs": kwargs, "params": kwargs})
    return jobs, graphs


def rounds(workload: str, seed: int):
    """Endless stream of (jobs, graphs) rounds; jobs come in shuffled order
    and carry a stream-wide ``id``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    next_id = 0
    index = 0
    while True:
        rng, shape = _round_rng(seed, workload, index), _shape_rng(workload, index)
        if workload == "sweep":
            jobs, graphs = _sweep_round(rng, shape), []
        elif workload == "survival":
            jobs, graphs = _survival_round(rng, shape), []
        else:
            jobs, graphs = _certify_round(rng, shape)
        jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        for job in jobs:
            job["id"] = next_id
            job["round"] = index
            next_id += 1
        yield jobs, graphs
        index += 1


def warmup_jobs(workload: str) -> tuple[list[dict], list[dict]]:
    """Small fixed jobs that touch every code path of a workload once.  The
    survival warm-up adds the largest evolve job the stream can draw (it
    sets the memory high-water mark), so that peak_rss_mb does not depend
    on how many rounds a run gets through."""
    if workload == "sweep":
        return [
            {"kind": "cli", "argv": ["transmit", "--n0", "2", "--len", "5", "--steps", "50",
                                     "--compare", "6", "--out", "{out}.csv"]},
            {"kind": "cli", "argv": ["bound", "--n0", "2", "--len", "4", "--long-time", "1",
                                     "--out", "{out}.json"]},
        ], []
    if workload == "survival":
        return [
            {"kind": "cli", "argv": ["evolve", "--n0", "2", "--len", "4", "--m", "60",
                                     "--steps", "60", "--out", "{out}.csv"]},
            {"kind": "cli", "argv": ["evolve", "--n0", "2", "--len", "5", "--m", "60",
                                     "--kappa0", "1.3", "--steps", "60", "--modes", "5",
                                     "--out", "{out}.csv"]},
            {"kind": "cli", "argv": ["evolve", "--n0", "5", "--len", "131", "--m", "600",
                                     "--steps", "720", "--modes", "69,70,71,72,73",
                                     "--out", "{out}.csv"]},
        ], []
    graph = make_graph(np.random.default_rng(0), 60, 3)
    return [
        {"kind": "cli", "argv": ["trap", "{graph0}", "--subgraph", "0", "--out", "{out}.json"]},
        {"kind": "oracle", "kwargs": {"n0": 2, "length": 4, "kappa": 1.0, "kappa0": 1.0,
                                     "k": 1.0, "leads": 30}},
    ], [graph]
