"""fanonet benchmark: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (it imports ``src/fanonet``).
``--workload`` is ``sweep``, ``survival``, ``certify`` or ``all``.  Each
workload runs in its own fresh process as a closed loop: one client, one
job at a time, CLI jobs calling ``fanonet.cli.main(argv)`` in-process with
``--out`` under ``.perfbench/`` in the checkout.  A run does a fixed number
of jobs, at least 100, sized so that it takes about ``--seconds`` of job
time on the reference host (``worker.run_length``): the same seed gives the
same jobs, and every seed the same number of jobs and of failing jobs,
whatever the host's speed.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run; both check
every output (``perfbench/checks.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit, names and units as in BENCHMARK.json).
``failed`` counts jobs that raised, exited with a code their job does not
expect, or failed their output check (every job is checked, outside the
timed region); ``correct`` says that every failed job shows one of the
program's known defects (``checks.known_defect``; only the sweep draws them)
and that a passing CLI job, run again, wrote byte-identical files, as the
CLI promises.
With ``--workload all`` every workload runs both ways and the last line
holds all of their results together.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "survival", "certify")
# fresh interpreters timed for set-up besides the workload's own process
SETUP_PROBES = 9
# the whole run must end within 180 s
DEADLINE_S = 170.0
# layers whose self-time share the traced run reports; the oracle apart
# from the rest of scattering
LAYERS = ("cli", "graphs", "pilattice", "spectra", "dynamics", "bound_states", "scattering",
          "oracle")
ORACLE = "scattering.numeric_scatter_oracle"


def _launch(cmd: list[str], deadline: float):
    """Run a worker to the end; returns the seconds from launch to its
    ``ready`` line, which it prints once fanonet is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Set-up probes, then the workload process; returns its record."""
    work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
              "--work", str(work)]
    try:
        setup = [_launch(worker + ["--probe"], deadline) for _ in range(SETUP_PROBES)]
        setup.append(_launch(worker, deadline))
        record = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup_samples"] = setup
    return record


def end_to_end(record: dict) -> dict:
    seconds = np.array([job["seconds"] for job in record["jobs"]])
    return {
        "jobs_per_s": len(seconds) / record["busy_s"],
        "job_s.p50": float(np.median(seconds)),
        "job_s.p90": float(np.quantile(seconds, 0.9)),
        "setup_s": statistics.median(record["setup_samples"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict:
    trace = record["trace"]
    calls, total, own, counts = (trace["calls"], trace["total_s"], trace["self_s"],
                                 trace["counts"])
    out = {
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.bytes_written": float(sum(job["bytes"] for job in record["jobs"])),
        "trace_overhead_s": trace["overhead_s"],
    }
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = own[name]
    for key, value in counts.items():
        out[key] = value
    out["spectra.find_trapping_modes.trapped_ratio"] = _ratio(
        counts, "spectra.find_trapping_modes.certificates", "spectra.find_trapping_modes.examined")
    out["dynamics.SpectralPropagator.evolve.useful_ratio"] = _ratio(
        counts, "dynamics.SpectralPropagator.evolve.useful",
        "dynamics.SpectralPropagator.evolve.amplitudes")
    busy = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in own.items():
        busy["oracle" if name == ORACLE else name.split(".")[0]] += seconds
    for layer, seconds in busy.items():
        out[f"share.{layer}"] = seconds / trace["job_s"]
    return out


def unprobed(spec: dict, wrapped: list[str]) -> list[str]:
    """Functions behind ``<fn>.calls`` per-layer metrics that the tracer did
    not wrap: renamed or removed, so their metrics would read 0."""
    return [m["name"][:-len(".calls")] for m in spec["per_layer"]
            if m["name"].endswith(".calls") and m["name"][:-len(".calls")] not in wrapped]


def _ratio(counts, num, den):
    return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0


def summarize(workload: str, record: dict, trace: int, spec: dict) -> dict:
    """Print the human-readable report and return the result object."""
    metrics = per_layer(record) if trace else end_to_end(record)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        unwrapped = unprobed(spec, record["trace"]["wrapped"])
        if unwrapped:
            raise RuntimeError(f"per-layer metrics name functions the tracer did not wrap: "
                               f"{', '.join(unwrapped)}")
    jobs = record["jobs"]
    failed = [job for job in jobs if job["verdict"] != "ok"]
    result = {
        "correct": record["correct"],
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    for name, entry in result["metrics"].items():
        print(f"{workload:9s} {name:55s} {entry['value']:.6g} {entry['unit']}")
    print(f"{workload:9s} failed_frac {len(failed) / len(jobs):.4f} 1 "
          f"({len(failed)} failed of {len(jobs)} attempted)")
    if not trace:
        above = sum(job["seconds"] > metrics["job_s.p90"] for job in jobs)
        print(f"{workload:9s} job_s.p90 rests on {len(jobs)} samples, {above} above it")
    for reason, n in Counter(_reason(job) for job in failed).most_common(8):
        print(f"{workload:9s} failure x{n}: {reason}")
    print(f"{workload:9s} env {json.dumps(record['env'], sort_keys=True)}")
    return result


def _reason(job: dict) -> str:
    command = (job["argv"] or ["oracle"])[0]
    return f"{command}: {job['verdict'].split(':')[0].split(' at ')[0][:80]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its worker (see _launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fanonet" / "cli.py").is_file():
        print(f"error: no fanonet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              time.perf_counter() + DEADLINE_S)
        print(json.dumps(summarize(args.workload, record, args.trace, spec)))
        return 0
    combined = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(workload, args.seed, args.seconds, trace,
                                  time.perf_counter() + DEADLINE_S)
            combined[f"{workload}/trace{trace}"] = {
                **summarize(workload, record, trace, spec), "env": record["env"]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
