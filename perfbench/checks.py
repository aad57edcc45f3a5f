"""Output checks against references that do not share the program's code
path, and the environment record that goes with every result.

Every check returns ``"ok"`` or a one-line reason.  A job fails when it
raised, returned an exit code its job does not expect, or failed its check.

Tolerances:
* CSV values carry 12 significant digits, so a printed T + R is off by at
  most ~1e-12 on top of the program's own flux gate of 1e-10.
* The numeric oracle and the closed form agree to 1e-8 in t, the bound the
  program's acceptance gate uses.
* Trapped-mode vectors are written without amplitudes below 1e-9 of the
  largest, so a rebuilt vector is off by at most 1e-9 * sqrt(N) in norm.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np

FLUX_TOL = 1e-10 + 4e-12
PROB_TOL = 1e-9
ORACLE_T_TOL = 1e-8
# dense oracle systems above this many sites cost seconds per row; longer
# systems are oracle-checked by the certify workload's library calls
ORACLE_MAX_SITES = 1000
# lead length of the truncated lattice whose out-of-band eigenvalues are
# counted: a state decaying as exp(-gamma * j) is resolved for gamma >> 1/REF_LEADS
REF_LEADS = 20000
NULL_TOL = 1e-8
ENERGY_TOL = 1e-7
CERT_TOL = 1e-6


def output_files(runner, job: dict, tag: str) -> list[Path]:
    name = f"{tag}{job['id']}"
    return sorted(p for p in runner.work.glob(f"{name}[._]*"))


def bytes_written(runner, job: dict, tag: str) -> int:
    return sum(p.stat().st_size for p in output_files(runner, job, tag))


def rerun_identical(runner, job: dict, tag: str) -> bool:
    """The CLI promises byte-identical files for identical configurations."""
    runner.run(job, "d")
    first = [p.read_bytes() for p in output_files(runner, job, tag)]
    second = [p.read_bytes() for p in output_files(runner, job, "d")]
    return bool(first) and first == second


# ------------------------------------------------------------- transmit ----

def _sweep_momenta(steps: int, kappa: float) -> np.ndarray:
    """The CLI's default energy grid mapped to momenta, computed the same
    way so the oracle sees the exact k behind each row."""
    band = 2.0 * kappa
    energies = np.linspace(-band + 1e-3 * kappa, band - 1e-3 * kappa, steps)
    return np.array([float(np.arccos(-e / band)) for e in energies])


def check_transmit_rows(rows: np.ndarray, params: dict, length: int, pick: int) -> str:
    """T + R = 1 on every row; row ``pick`` against the numeric oracle."""
    from fanonet.scattering import numeric_scatter_oracle

    if len(rows) != params["steps"]:
        return f"L={length}: {len(rows)} rows, expected {params['steps']}"
    flux = np.abs(rows[:, 2] + rows[:, 3] - 1.0)
    if flux.max() > FLUX_TOL:
        return f"L={length}: T+R off by {flux.max():.2e}"
    ks = _sweep_momenta(params["steps"], params["kappa"])
    if np.max(np.abs(rows[:, 0] - ks)) > 1e-11:
        return f"L={length}: momentum grid differs"
    leads = length + 20
    if 2 * leads + 2 * params["n0"] + length > ORACLE_MAX_SITES:
        return "ok"
    t_o, _ = numeric_scatter_oracle(params["n0"], length, params["kappa"],
                                    params["kappa0"], ks[pick], leads)
    t_row = complex(rows[pick, 4], rows[pick, 5])
    if abs(t_o - t_row) > ORACLE_T_TOL:
        return f"L={length}: t={t_row} but oracle {t_o} at k={ks[pick]}"
    return "ok"


def check_transmit(runner, job, tag, rng) -> str:
    params = job["params"]
    out = Path(runner.out_prefix(job, tag) + ".csv")
    lengths = [params["length"]] + ([params["compare"]] if "compare" in params else [])
    for length in lengths:
        path = out if length == params["length"] else out.with_name(
            f"{out.stem}_L{length}{out.suffix}")
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) < 2 or not lines[0].startswith("#") or lines[1] != "k,E,T,R,re_t,im_t":
            return f"{path.name}: bad preamble"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        verdict = check_transmit_rows(rows, params, length, int(rng.integers(len(rows))))
        if verdict != "ok":
            return verdict
    sidecar = json.loads(Path(f"{out}.zeros.json").read_text(encoding="utf-8"))
    if sorted(sidecar["k0"]) != sorted(str(n) for n in lengths):
        return "zero catalog lacks a length"
    return "ok"


# ----------------------------------------------------------------- bound ----

def _path_pivot(diag: float, hop: float, sites: int, x: float, count: list) -> float:
    """Eliminate a uniform path of ``sites`` sites from its free end inward;
    returns the last pivot and adds the negative pivots to ``count``."""
    d = None
    for _ in range(sites):
        d = diag - x if d is None else diag - x - hop * hop / d
        if d == 0.0:
            d = 1e-300
        if d < 0:
            count[0] += 1
    return d


def eigenvalues_below(x: float, n0: int, length: int, kappa: float, kappa0: float,
                      leads: int) -> int:
    """Eigenvalues below ``x`` of the pi lattice with ``leads`` lead sites
    per side, by Sylvester's law of inertia: LDL^T elimination of the tree
    H - x from its leaves (lead ends, side-chain tips) counts negative pivots."""
    count = [0]
    ends = []
    for _ in range(2):                                # c_1 and c_length sides
        lead = _path_pivot(0.0, kappa, leads, x, count) if leads else None
        side = _path_pivot(0.0, kappa0, n0, x, count)
        feed = kappa0 * kappa0 / side + (kappa * kappa / lead if lead else 0.0)
        ends.append(feed)
    d = None
    for j in range(1, length + 1):                    # host chain c_1 .. c_length
        diag = -x - (ends[0] if j == 1 else 0.0) - (ends[1] if j == length else 0.0)
        d = diag if d is None else diag - kappa * kappa / d
        if d == 0.0:
            d = 1e-300
        if d < 0:
            count[0] += 1
    return count[0]


def out_of_band_count(n0, length, kappa, kappa0, leads=REF_LEADS) -> int:
    sites = 2 * leads + 2 * n0 + length
    band = 2.0 * kappa
    below = eigenvalues_below(-band, n0, length, kappa, kappa0, leads)
    above = sites - eigenvalues_below(band, n0, length, kappa, kappa0, leads)
    return below + above


def check_bound_payload(payload: dict, params: dict) -> str:
    found = sum(1 for s in payload["states"] if s["kind"] == "evanescent")
    expected = out_of_band_count(params["n0"], params["length"], params["kappa"],
                                 params["kappa0"])
    if found != expected:
        return f"{found} evanescent states, truncated lattice has {expected} out of band"
    if "long_time" in params:
        p_inf = payload["long_time"]["p_infinity"]
        if not -PROB_TOL <= p_inf <= 1.0 + PROB_TOL:
            return f"P_inf={p_inf} outside [0, 1]"
    return "ok"


def check_bound(runner, job, tag) -> str:
    path = Path(runner.out_prefix(job, tag) + ".json")
    return check_bound_payload(json.loads(path.read_text(encoding="utf-8")), job["params"])


# --------------------------------------------------------------- evolve ----

def central_modes(n0, length, kappa, kappa0) -> np.ndarray:
    """Eigenvectors (columns, ascending energy) of the central chain
    a_n0..a_1 c_1..c_length b_1..b_n0 in path order."""
    size = 2 * n0 + length
    h = np.zeros((size, size))
    for p in range(size - 1):
        host = n0 <= p < n0 + length - 1
        h[p, p + 1] = h[p + 1, p] = -(kappa if host else kappa0)
    return np.linalg.eigh(h)[1]


def check_evolve_rows(rows: list[list[str]], params: dict) -> str:
    n0, length = params["n0"], params["length"]
    size = 2 * n0 + length
    wanted = list(range(1, size + 1)) if params["modes"] == "all" else \
        [int(m) for m in params["modes"].split(",")]
    vectors = central_modes(n0, length, params["kappa"], params["kappa0"])
    by_mode: dict[int, list] = {}
    for row in rows:
        by_mode.setdefault(int(row[2]), []).append(row)
    if sorted(by_mode) != sorted(wanted):
        return f"modes {sorted(by_mode)} != requested {sorted(wanted)}"
    for mode, mode_rows in by_mode.items():
        if len(mode_rows) != params["steps"]:
            return f"mode {mode}: {len(mode_rows)} samples"
        p = np.array([float(r[4]) for r in mode_rows])
        if float(mode_rows[0][3]) != 0.0 or abs(p[0] - 1.0) > PROB_TOL:
            return f"mode {mode}: P(0)={p[0]}"
        if p.min() < -PROB_TOL or p.max() > 1.0 + PROB_TOL:
            return f"mode {mode}: P leaves [0, 1]"
        g = vectors[:, mode - 1]
        anchors = np.abs(g[[n0, n0 + length - 1]])
        if anchors.max() < 1e-9 * np.abs(g).max():   # trapped: an exact eigenstate
            if np.abs(p - 1.0).max() > PROB_TOL:
                return f"trapped mode {mode} leaks: min P={p.min()}"
            if mode_rows[0][5] != "unitary":
                return f"trapped mode {mode} labelled {mode_rows[0][5]}"
    return "ok"


def check_evolve(runner, job, tag) -> str:
    path = Path(runner.out_prefix(job, tag) + ".csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("#") or lines[1] != "N0,L,n,t,P,classification":
        return "bad preamble"
    return check_evolve_rows([line.split(",") for line in lines[2:]], job["params"])


# ----------------------------------------------------------------- trap ----

class FullBasis:
    """Eigenbasis of a whole graph, built from the spec without fanonet."""

    def __init__(self, spec: dict):
        n = spec["sites"]
        h = np.zeros((n, n))
        for i, j, s in spec["hoppings"]:
            h[i, j] = h[j, i] = -s
        for site, mu in spec.get("potentials", {}).items():
            h[int(site), int(site)] = mu
        self.spec = spec
        self.energies, self.vectors = np.linalg.eigh(h)
        tol = 1e-8 * np.abs(h).sum(axis=1).max()
        breaks = np.nonzero(np.diff(self.energies) > tol)[0] + 1
        self.groups = np.split(np.arange(n), breaks)

    def trapped(self, label: int) -> list[tuple[float, np.ndarray]]:
        """Trapped space of subgraph ``label``: inside each degenerate
        eigenspace, the combinations that vanish outside the subgraph;
        (energy, orthonormal columns) per energy."""
        partition = self.spec["partition"]
        outside = np.array([s for s in range(len(partition)) if partition[s] != label],
                           dtype=int)
        leak = np.linalg.norm(self.vectors[outside], axis=0)
        found = []
        for group in self.groups:
            if len(group) == 1:
                if leak[group[0]] < NULL_TOL:
                    found.append((float(self.energies[group[0]]), self.vectors[:, group]))
                continue
            basis = self.vectors[:, group]
            _, svals, vh = np.linalg.svd(basis[outside], full_matrices=True)
            null = [vh[r] for r in range(len(group)) if r >= len(svals) or svals[r] < NULL_TOL]
            if null:
                block, _ = np.linalg.qr(basis @ np.array(null).T)
                found.append((float(np.mean(self.energies[group])), block))
        return found


def match_certificates(certs: list[dict], brute, sites: int) -> str:
    expected = sum(block.shape[1] for _, block in brute)
    if len(certs) != expected:
        return f"{len(certs)} certificates, brute force finds {expected}"
    per_group: dict[int, list] = {}
    for cert in certs:
        groups = [g for g, (e, _) in enumerate(brute) if abs(e - cert["energy"]) < ENERGY_TOL]
        if not groups:
            return f"certificate at E={cert['energy']} matches no trapped energy"
        vec = np.zeros(sites)
        vec[cert["sites"]] = cert["amplitudes"]
        vec /= np.linalg.norm(vec)
        block = brute[groups[0]][1]
        if np.linalg.norm(block @ (block.T @ vec) - vec) > CERT_TOL:
            return f"certificate at E={cert['energy']} leaves the trapped space"
        per_group.setdefault(groups[0], []).append(vec)
    for g, vecs in per_group.items():
        svals = np.linalg.svd(np.array(vecs), compute_uv=False)
        if len(vecs) != brute[g][1].shape[1] or svals.min() < CERT_TOL:
            return f"certificates at E={brute[g][0]} do not span the trapped space"
    return "ok"


def check_trap(runner, job, tag, rc, basis: FullBasis) -> str:
    brute = basis.trapped(job["params"]["subgraph"])
    if rc != (0 if brute else 3):
        return f"exit code {rc} with {len(brute)} trapped energies"
    certs = json.loads(Path(runner.out_prefix(job, tag) + ".json").read_text(encoding="utf-8"))
    return match_certificates(certs, brute, basis.spec["sites"])


def check_oracle(value, params) -> str:
    from fanonet.scattering import scattering_point

    t_o = complex(value[0], value[1])
    r_o = complex(value[2], value[3])
    if abs(abs(t_o) ** 2 + abs(r_o) ** 2 - 1.0) > FLUX_TOL:
        return f"oracle |t|^2+|r|^2 = {abs(t_o) ** 2 + abs(r_o) ** 2}"
    point = scattering_point(params["k"], params["n0"], params["length"],
                             params["kappa"], params["kappa0"])
    if abs(point.t - t_o) > ORACLE_T_TOL:
        return f"oracle t={t_o}, closed form {point.t}"
    return "ok"


# ------------------------------------------------------------------ all ----

def check_all(seed: int, done: list, runner, tag: str) -> list[str]:
    """Verdict for every (job, record) pair, in order.  Trap jobs are
    checked graph by graph, so each graph is decomposed once."""
    verdicts = [""] * len(done)
    basis_key, basis = None, None
    order = sorted(range(len(done)), key=lambda i: (done[i][0]["round"],
                                                    done[i][0]["params"].get("graph", -1)))
    for i in order:
        job, record = done[i]
        if record["error"] is not None:
            verdicts[i] = record["error"].splitlines()[0][:200]
            continue
        if job["kind"] == "oracle":
            try:
                verdicts[i] = check_oracle(record["value"], job["params"])
            except ArithmeticError as exc:
                verdicts[i] = f"closed form raised {type(exc).__name__}: {exc}"[:200]
            continue
        if record["rc"] not in job["expect"]:
            verdicts[i] = f"exit code {record['rc']}"
            continue
        command = job["argv"][0]
        try:
            if command == "transmit":
                rng = np.random.default_rng([seed, job["id"]])      # picks the oracle row
                verdicts[i] = check_transmit(runner, job, tag, rng)
            elif command == "bound":
                verdicts[i] = check_bound(runner, job, tag)
            elif command == "evolve":
                verdicts[i] = check_evolve(runner, job, tag)
            else:
                key = (job["round"], job["params"]["graph"])
                if key != basis_key:
                    path = Path(runner.graph_paths[key])
                    basis_key, basis = key, FullBasis(json.loads(path.read_text(encoding="utf-8")))
                verdicts[i] = check_trap(runner, job, tag, record["rc"], basis)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdicts[i] = f"unreadable output: {type(exc).__name__}: {exc}"[:200]
    return verdicts


# --------------------------------------------------------- known defects ----

# the sweep keeps drawing the configurations where the program is known to be
# wrong (ROADMAP open item 2): those failures count in ``failed`` but do not
# make a run incorrect; any other failure does
_LOST_STATES = re.compile(r"(\d+) evanescent states, truncated lattice has (\d+) out of band")
# transmit's dual-path check |T - |t|^2| <= 1e-12 has a fixed bound that
# rounding exceeds at long lengths, large hopping ratios and near the band
# edge (seen from length 88 at kappa0 3.2 up to length 1000)
_DUAL_PATH = "ArithmeticError: dual-path identity violated"


def known_defect(job: dict, verdict: str) -> bool:
    """Whether a failed job shows one of the known defects: ``bound``
    returning fewer evanescent states than the truncated lattice has out of
    band, or ``transmit`` raising ArithmeticError from its dual-path check."""
    command = (job.get("argv") or ["oracle"])[0]
    if command == "bound":
        lost = _LOST_STATES.fullmatch(verdict)
        return lost is not None and int(lost[1]) < int(lost[2])
    return command == "transmit" and verdict.startswith(_DUAL_PATH)


# ------------------------------------------------------------ environment ----

def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path, seed: int) -> dict:
    """What a result must be compared like for like on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fanonet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }
