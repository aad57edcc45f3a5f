"""One workload in one fresh process; started by ``perfbench/run.py``.

The first thing it does is import fanonet and fanonet.cli and print
``ready``: the parent times the process from launch to that line, which is
the set-up time.  Then it warms up, runs the timed closed loop (one client,
each job starts when the previous one has ended) over a fixed number of
jobs sized from ``--seconds`` (``run_length``), reads its peak resident
memory, checks every output and writes a JSON record for the parent.

With ``--trace 1`` it instead runs one fixed job list, each job plain and
under the tracer back to back, so the two times give the tracing overhead
and the per-layer numbers refer to the same jobs on every run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fanonet  # noqa: E402  (timed as set-up, so imported first)
import fanonet.cli  # noqa: E402

if __name__ == "__main__":
    print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import jobs as joblib  # noqa: E402
from tracer import Tracer  # noqa: E402

# the traced pass runs the first rounds of the stream up to this many jobs
TRACE_JOBS = 20
# the timed loop runs at least this many jobs, so that job_s.p90 always has
# ten samples above it
MIN_JOBS = 100
# jobs per second of each workload at the seed commit on a shared host with
# two 2.0 GHz Xeon vCPUs; a run of ``--seconds`` does whole rounds up to
# seconds * rate jobs, so it takes about that long there, and does the same
# work on every host and with every seed
NOMINAL_JOBS_PER_S = {"sweep": 3.7, "survival": 3.66, "certify": 14.6}


class Runner:
    """Runs jobs of one workload, writing outputs below ``work``."""

    def __init__(self, work: Path):
        self.work = work
        self.graph_paths: dict[tuple[int, int], str] = {}
        self.devnull = open(os.devnull, "w")

    def close(self):
        self.devnull.close()

    def add_graphs(self, round_index: int, graphs: list[dict]):
        for g, graph in enumerate(graphs):
            path = self.work / f"graph-r{round_index}-{g}.json"
            path.write_text(json.dumps(graph), encoding="utf-8")
            self.graph_paths[(round_index, g)] = str(path)

    def out_prefix(self, job: dict, tag: str) -> str:
        return str(self.work / f"{tag}{job['id']}")

    def argv(self, job: dict, tag: str) -> list[str]:
        out = self.out_prefix(job, tag)
        argv = []
        for a in job["argv"]:
            if a.startswith("{graph"):
                a = self.graph_paths[(job["round"], int(a[6:-1]))]
            argv.append(a.replace("{out}", out))
        return argv

    def run(self, job: dict, tag: str) -> dict:
        """Run one job; returns its timing and raw outcome."""
        record = {"id": job["id"], "rc": None, "error": None, "value": None}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.devnull), \
                    contextlib.redirect_stderr(self.devnull):
                if job["kind"] == "cli":
                    record["rc"] = fanonet.cli.main(self.argv(job, tag))
                else:
                    t, r = fanonet.scattering.numeric_scatter_oracle(**job["kwargs"])
                    record["value"] = [t.real, t.imag, r.real, r.imag]
        except (Exception, SystemExit) as exc:     # a failed job is data, not a crash
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - start
        return record


def run_length(workload: str, seconds: float) -> int:
    """Jobs a run of ``seconds`` asks for; the run ends with the round that
    reaches this count.  A fixed count, not a deadline: how many jobs run,
    and how many of them fail, does not depend on the speed of the host."""
    return max(MIN_JOBS, round(seconds * NOMINAL_JOBS_PER_S[workload]))


def timed_loop(runner: Runner, workload: str, seed: int, seconds: float):
    """Closed loop over whole rounds until ``run_length`` jobs have run.
    Input files of a round are written before its jobs, off the clock."""
    done, busy, wanted = [], 0.0, run_length(workload, seconds)
    for index, (round_jobs, graphs) in enumerate(joblib.rounds(workload, seed)):
        runner.add_graphs(index, graphs)
        for job in round_jobs:
            record = runner.run(job, "j")
            busy += record["seconds"]
            done.append((job, record))
        if len(done) >= wanted:
            return done, busy
    raise AssertionError("job stream is endless")


def trace_jobs(runner: Runner, workload: str, seed: int) -> list[dict]:
    selected = []
    for index, (round_jobs, graphs) in enumerate(joblib.rounds(workload, seed)):
        runner.add_graphs(index, graphs)
        selected += round_jobs
        if len(selected) >= TRACE_JOBS:
            return selected
    raise AssertionError("job stream is endless")


def traced_passes(runner: Runner, selected: list[dict], seconds: float, spans_path: Path):
    """Pairs of passes over ``selected`` while one more pair fits in
    ``seconds`` (at least one pair).  In a pass each job runs twice in a
    row, plain and under the tracer; the second pass of a pair swaps the
    order for every job, so neither side gains from running second, and
    host drift cancels from the difference.  Returns the summary of the last
    pass's tracer, with the median over pairs of traced minus plain time per
    pass, and that pass's traced records."""
    overheads, deadline, pair_s = [], time.perf_counter() + seconds, 0.0
    while not overheads or time.perf_counter() + pair_s < deadline:
        pair_start, overhead = time.perf_counter(), 0.0
        for flip in (0, 1):
            tracer, records = Tracer(), []
            for n, job in enumerate(selected):
                for traced in (False, True) if (n + flip) % 2 == 0 else (True, False):
                    if not traced:
                        overhead -= runner.run(job, "p")["seconds"]
                        continue
                    wrapped = tracer.install()
                    tracer.job = job
                    try:
                        record = runner.run(job, "t")
                    finally:
                        tracer.uninstall()
                    overhead += record["seconds"]
                    records.append((job, record))
        overheads.append(overhead / 2)
        pair_s = time.perf_counter() - pair_start
    tracer.save(spans_path)
    summary = tracer.summary()
    summary["wrapped"] = sorted(wrapped)
    summary["overhead_s"] = statistics.median(overheads)
    summary["pairs"] = len(overheads)
    summary["job_s"] = sum(r["seconds"] for _, r in records)
    return summary, records


def run_correct(runner: Runner, done: list, verdicts: list[str], tag: str) -> bool:
    """No failure beyond the program's known defects, and a passing CLI
    job, run again, writes byte-identical files."""
    if not all(v == "ok" or checks.known_defect(job, v) for (job, _), v in zip(done, verdicts)):
        return False
    first = next((job for (job, _), verdict in zip(done, verdicts)
                  if job["kind"] == "cli" and verdict == "ok"), None)
    return first is not None and checks.rerun_identical(runner, first, tag)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=joblib.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--probe", action="store_true", help="import, report, exit")
    args = parser.parse_args()
    if args.probe:
        return
    work = Path(args.work)
    runner = Runner(work)
    try:
        warm, warm_graphs = joblib.warmup_jobs(args.workload)
        runner.add_graphs(-1, warm_graphs)
        for i, job in enumerate(warm):
            runner.run({**job, "id": i, "round": -1}, "w")

        result = {"env": checks.environment(ROOT, args.seed)}
        if args.trace:
            selected = trace_jobs(runner, args.workload, args.seed)
            summary, done = traced_passes(
                runner, selected, args.seconds, work.parent / f"spans-{work.name}.npz")
            result["trace"] = summary
            tag = "t"
        else:
            done, busy = timed_loop(runner, args.workload, args.seed, args.seconds)
            result["busy_s"] = busy
            tag = "j"
        # ru_maxrss is in KiB on Linux; read it before the checks allocate
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = checks.check_all(args.seed, done, runner, tag)
        result["jobs"] = [
            {"id": job["id"], "argv": job.get("argv"), "seconds": record["seconds"],
             "rc": record["rc"], "error": record["error"], "verdict": verdict,
             "bytes": checks.bytes_written(runner, job, tag)}
            for (job, record), verdict in zip(done, verdicts)
        ]
        result["correct"] = run_correct(runner, done, verdicts, tag)
    finally:
        runner.close()
    for child in work.iterdir():
        child.unlink()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
