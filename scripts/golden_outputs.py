#!/usr/bin/env python3
"""Fingerprints of the CLI's output on a fixed list of configurations.

The byte-identity check for refactors: run it before and after a change
that must not alter what the CLI writes, and compare the two listings.

    python scripts/golden_outputs.py > before.txt     # on the parent commit
    python scripts/golden_outputs.py > after.txt      # on the change
    diff before.txt after.txt

With ``--keep DIR`` it also keeps what each configuration wrote, in
``DIR/<label>/``: ``stdout``, ``stderr`` and every output file, so two
runs can be compared value by value with ``scripts/compare_outputs.py``.

Each configuration runs in-process through ``fanonet.cli.main`` in a
scratch directory.  For each one the script prints the exit code, the
sha256 of standard output, of standard error and of every file written,
and the first line of any error: an exception the CLI let through, or
the first ``error:`` line it printed.  The scratch directory's path is
written as ``{dir}`` before anything is hashed, so a message that names an
input file hashes the same in every run.  Python warnings are silenced,
because their text names source lines.  The list covers the README
examples, trap runs on a larger network (many certificates, degenerate
dark states, nothing trapped), on a complete five-site subgraph (a
four-fold degenerate group), on a subgraph whose only coupling has
strength 0 (every mode trapped), on the one site across that coupling
(an amplitude of exactly 1) and on a 599-site chain joined at its middle
site (299 certificates, formatted in arrays), the three places a
``--config`` file can be named, unequal hoppings, length 1000, evolve
runs in both mirror sectors (every mode of an odd central chain, no
leads, a one-site lead, a host hopping other than 1, side chains coupled
100 times more strongly
than the host, the side-chain edge pairs that eigh cannot split, a long unequal chain mid-spectrum, a run far past the safe
horizon, where |tE| reaches about 1.6e4, and 5000 time samples, which the
propagator takes in many blocks of phase rows),
config files that are missing, hold no JSON object, name an unknown key
or give a value of the wrong type, graph files that are a directory or
hold a partition label that is no integer, an output path that is a
directory, an infinite hopping, an empty
evolve mode list, a negative evolve end time, --compare lengths that are
no lattice length or equal --len, bound states of the paper's long
lattice, of strong side coupling and of a pair bound with gamma below
the gamma grid's first step (kappa0 just above 2/3), the long-time survival of a
20,002-site central chain (past the dense eigensolve's size cap), a
reflection zero next to the side-chain band edge (x = kappa*cos k/kappa0
near 1), and length 1000 at
kappa0 1.5, on its own and as the second length of a comparison, where a
guessed dual-path tolerance once raised ArithmeticError, length 3000,
past the length where the reflection-zero scan's grid starts to grow with
it, and a config file with a "format" key, which selects nothing.

CI runs the script twice and diffs the two listings: identical
configurations must give identical bytes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fanonet.cli import main as cli  # noqa: E402

# the README's example graph file
GRAPH = {
    "sites": 5,
    "hoppings": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [1, 4, 0.5]],
    "potentials": {"4": -0.3},
    "partition": [0, 0, 1, 1, 0],
}
# three subgraphs joined into a tree: a 59-site chain (0) joined at chain
# positions 20 and 40, so every third of its modes has a node on both
# joints (19 certificates); a 16-site ring (1) with a potential, joined at
# one site, so each degenerate pair leaves one dark state; and a 12-site
# chain (2) joined at position 5, coprime to 13, which traps nothing
NETWORK = {
    "sites": 87,
    "hoppings": ([[p, p + 1, 1.0] for p in range(58)]
                 + [[59 + p, 59 + (p + 1) % 16, 1.0] for p in range(16)]
                 + [[75 + p, 76 + p, 1.0] for p in range(11)]
                 + [[19, 59, 0.7], [39, 79, 1.3]]),
    "potentials": {**{str(p): -0.1 for p in range(59)},
                   **{str(59 + p): 0.25 for p in range(16)},
                   **{str(75 + p): 0.3 for p in range(12)}},
    "partition": [0] * 59 + [1] * 16 + [2] * 12,
}
# a complete five-site subgraph (0), whose energy 1 is four-fold, coupled
# at two sites to a three-site chain (1): two combinations of the group
# vanish on both joints
COMPLETE = {
    "sites": 8,
    "hoppings": ([[i, j, 1.0] for i in range(5) for j in range(i + 1, 5)]
                 + [[5, 6, 1.0], [6, 7, 1.0], [0, 5, 0.7], [1, 7, 1.2]]),
    "partition": [0] * 5 + [1] * 3,
}
# a dimer (0) whose only bond to the third site has strength 0: nothing
# leaks, so both of its modes are trapped
ZERO_COUPLING = {"sites": 3, "hoppings": [[0, 1, 1.0], [1, 2, 0.0]], "partition": [0, 0, 1]}
# a 599-site chain (0) joined at its middle site to one site (1): its 299 even
# modes vanish on the joint and are trapped, about 179,000 amplitudes, which
# trap formats in arrays, not one template per certificate
MIDDLE_JOINED = {"sites": 600,
                 "hoppings": [[p, p + 1, 1.0] for p in range(598)] + [[299, 599, 1.0]],
                 "partition": [0] * 599 + [1]}
# a --config run; "out" is set below the scratch directory
CONFIG = {"subcommand": "transmit", "n0": 3, "length": 6, "kappa0": 0.8, "steps": 150}
# files and the directory put in the scratch directory before the runs
INPUTS = {"graph.json", "network.json", "complete.json", "zero_coupling.json",
          "middle_joined.json", "run.json",
          "list.json", "unknown_key.json", "bad_type.json", "format_key.json",
          "float_label.json", "outdir"}

# (label, argv); {dir} is the scratch directory
RUNS = [
    ("readme-trap", ["trap", "{dir}/graph.json", "--subgraph", "1", "--out", "{dir}/certs.json"]),
    ("trap-chain-59", ["trap", "{dir}/network.json", "--subgraph", "0",
                       "--out", "{dir}/chain.json"]),
    ("trap-ring-dark-states", ["trap", "{dir}/network.json", "--subgraph", "1",
                               "--out", "{dir}/ring.json"]),
    ("trap-chain-coprime-joint", ["trap", "{dir}/network.json", "--subgraph", "2",
                                  "--out", "{dir}/bare.json"]),
    ("trap-complete-graph", ["trap", "{dir}/complete.json", "--subgraph", "0",
                             "--out", "{dir}/complete_out.json"]),
    ("trap-zero-strength-coupling", ["trap", "{dir}/zero_coupling.json", "--subgraph", "0",
                                     "--out", "{dir}/zero_out.json"]),
    ("trap-one-site-subgraph", ["trap", "{dir}/zero_coupling.json", "--subgraph", "1",
                                "--out", "{dir}/one_site.json"]),
    ("trap-chain-599-middle", ["trap", "{dir}/middle_joined.json", "--subgraph", "0",
                               "--out", "{dir}/middle.json"]),
    ("readme-evolve", ["evolve", "--n0", "2", "--len", "4", "--m", "400",
                       "--out", "{dir}/survival.csv"]),
    ("readme-bound", ["bound", "--n0", "3", "--len", "5"]),
    ("readme-bound-long-time", ["bound", "--n0", "2", "--len", "4", "--long-time", "1"]),
    ("readme-transmit-compare", ["transmit", "--n0", "2", "--len", "5", "--compare", "6",
                                 "--out", "{dir}/sweep.csv"]),
    ("readme-config", ["--config", "{dir}/run.json"]),
    ("config-flag-override", ["transmit", "--config", "{dir}/run.json", "--len", "7"]),
    ("config-before-subcommand", ["--config", "{dir}/run.json", "transmit"]),
    ("transmit-stdout", ["transmit", "--n0", "2", "--len", "5", "--steps", "120"]),
    ("transmit-window", ["transmit", "--n0", "3", "--len", "7", "--kappa", "1.3",
                         "--kappa0", "0.9", "--e-min", "-1.5", "--e-max", "0.5",
                         "--steps", "333", "--out", "{dir}/window.csv"]),
    ("transmit-unequal-compare", ["transmit", "--n0", "2", "--len", "5", "--kappa0", "0.6",
                                  "--compare", "6", "--out", "{dir}/unequal.csv"]),
    ("transmit-strong-side", ["transmit", "--n0", "4", "--len", "17", "--kappa0", "5.2",
                              "--steps", "900", "--out", "{dir}/strong.csv"]),
    ("transmit-length-1000", ["transmit", "--n0", "2", "--len", "1000", "--steps", "500",
                              "--out", "{dir}/long.csv"]),
    ("transmit-compare-300", ["transmit", "--n0", "3", "--len", "300", "--kappa0", "2.2",
                              "--compare", "301", "--steps", "400", "--out", "{dir}/c300.csv"]),
    ("transmit-dual-path-length-1000", ["transmit", "--n0", "1", "--len", "1000",
                                        "--kappa0", "1.5", "--out", "{dir}/defect.csv"]),
    ("transmit-dual-path-second-length", ["transmit", "--n0", "1", "--len", "5", "--kappa0", "1.5",
                                          "--compare", "1000", "--out", "{dir}/second.csv"]),
    ("transmit-length-3000", ["transmit", "--n0", "2", "--len", "3000",
                              "--out", "{dir}/len3000.csv"]),
    ("transmit-zero-near-side-band-edge", ["transmit", "--n0", "1", "--len", "48",
                                           "--kappa0", "0.9112", "--out", "{dir}/edge.csv"]),
    ("bound-unequal-long-time", ["bound", "--n0", "2", "--len", "4", "--kappa0", "1.7",
                                 "--long-time", "3", "--out", "{dir}/unequal.json"]),
    ("bound-weak-side", ["bound", "--n0", "3", "--len", "9", "--kappa0", "0.4",
                         "--out", "{dir}/weak.json"]),
    ("bound-weakly-bound-pair", ["bound", "--n0", "1", "--len", "10", "--kappa0", "0.6668",
                                 "--out", "{dir}/weak.json"]),
    ("bound-equal-long-time-700", ["bound", "--n0", "4", "--len", "700", "--long-time", "351"]),
    ("bound-length-1000-long-time", ["bound", "--n0", "5", "--len", "1000", "--kappa0", "3.3248",
                                     "--long-time", "418", "--out", "{dir}/b1000.json"]),
    ("bound-length-20000-long-time", ["bound", "--n0", "1", "--len", "20000", "--kappa0", "1.5",
                                      "--long-time", "5", "--out", "{dir}/b20000.json"]),
    ("bound-length-123", ["bound", "--n0", "3", "--len", "123", "--out", "{dir}/b123.json"]),
    ("bound-length-123-long-time", ["bound", "--n0", "1", "--len", "123",
                                    "--long-time", "62", "--out", "{dir}/b123_mode62.json"]),
    ("bound-strong-side", ["bound", "--n0", "4", "--len", "7", "--kappa0", "10",
                           "--out", "{dir}/strong.json"]),
    ("evolve-unequal", ["evolve", "--n0", "2", "--len", "5", "--m", "60", "--kappa0", "1.3",
                        "--steps", "60", "--modes", "5", "--out", "{dir}/unequal.csv"]),
    ("evolve-equal-odd-all-modes", ["evolve", "--n0", "2", "--len", "7", "--m", "80",
                                    "--steps", "100", "--modes", "all",
                                    "--out", "{dir}/odd_all.csv"]),
    ("evolve-no-leads", ["evolve", "--n0", "2", "--len", "5", "--m", "0", "--kappa0", "0.8",
                         "--t-max", "10", "--allow-reflections", "--steps", "60",
                         "--modes", "all", "--out", "{dir}/no_leads.csv"]),
    ("evolve-edge-pairs", ["evolve", "--n0", "3", "--len", "41", "--kappa0", "1.7", "--m", "60",
                           "--steps", "200", "--modes", "1,2,46,47", "--out", "{dir}/edge.csv"]),
    ("evolve-unequal-long-mid-spectrum", ["evolve", "--n0", "4", "--len", "101", "--m", "300",
                                          "--kappa0", "1.37", "--steps", "400",
                                          "--modes", "53,54,55,56,57",
                                          "--out", "{dir}/mid.csv"]),
    ("evolve-far-past-horizon", ["evolve", "--n0", "2", "--len", "5", "--m", "20",
                                 "--kappa0", "1.6", "--t-max", "5000", "--allow-reflections",
                                 "--steps", "1000", "--modes", "1,2,9", "--out", "{dir}/far.csv"]),
    ("evolve-one-site-lead", ["evolve", "--n0", "3", "--len", "8", "--m", "1", "--kappa", "1.3",
                              "--kappa0", "0.7", "--t-max", "5", "--allow-reflections",
                              "--steps", "60", "--modes", "all", "--out", "{dir}/one_site.csv"]),
    ("evolve-host-hopping", ["evolve", "--n0", "2", "--len", "9", "--m", "50", "--kappa", "2",
                             "--kappa0", "0.9", "--steps", "60", "--modes", "1,4,13",
                             "--out", "{dir}/host.csv"]),
    ("evolve-many-phase-blocks", ["evolve", "--n0", "2", "--len", "9", "--m", "300",
                                  "--steps", "5000", "--t-max", "120", "--modes", "4,5",
                                  "--out", "{dir}/blocks.csv"]),
    ("evolve-strong-side-coupling", ["evolve", "--n0", "2", "--len", "5", "--m", "20",
                                     "--kappa0", "100", "--steps", "60"]),
    ("error-transmit-band", ["transmit", "--n0", "2", "--len", "5", "--e-min", "-3"]),
    ("error-evolve-horizon", ["evolve", "--n0", "2", "--len", "4", "--m", "40",
                              "--t-max", "500"]),
    ("error-bound-mode", ["bound", "--n0", "2", "--len", "4", "--long-time", "9"]),
    ("error-bound-kappa0-inf", ["bound", "--n0", "1", "--len", "3", "--kappa0", "inf"]),
    ("error-evolve-empty-modes", ["evolve", "--n0", "2", "--len", "4", "--m", "40",
                                  "--modes", ","]),
    ("error-evolve-negative-t-max", ["evolve", "--n0", "2", "--len", "4", "--m", "40",
                                     "--t-max", "-2"]),
    ("error-transmit-compare-negative", ["transmit", "--n0", "2", "--len", "5", "--compare", "-3",
                                         "--steps", "3", "--out", "{dir}/c.csv"]),
    ("error-transmit-compare-zero", ["transmit", "--n0", "2", "--len", "5", "--compare", "0",
                                     "--steps", "3", "--out", "{dir}/c.csv"]),
    ("error-transmit-compare-one", ["transmit", "--n0", "2", "--len", "5", "--compare", "1",
                                    "--steps", "3", "--out", "{dir}/c.csv"]),
    ("error-transmit-compare-equal", ["transmit", "--n0", "2", "--len", "5", "--compare", "5",
                                      "--steps", "3", "--out", "{dir}/c.csv"]),
    ("error-unknown-flag", ["transmit", "--n0", "2", "--len", "5", "--colour", "red"]),
    ("error-config-missing", ["--config", "{dir}/missing.json"]),
    ("error-config-not-object", ["--config", "{dir}/list.json"]),
    ("error-config-unknown-key", ["--config", "{dir}/unknown_key.json"]),
    ("error-config-bad-type", ["--config", "{dir}/bad_type.json"]),
    ("error-config-format-key", ["--config", "{dir}/format_key.json"]),
    ("error-out-is-directory", ["transmit", "--n0", "2", "--len", "5", "--steps", "10",
                                "--out", "{dir}/outdir"]),
    ("error-graph-is-directory", ["trap", "{dir}/outdir"]),
    ("error-graph-float-partition-label", ["trap", "{dir}/float_label.json", "--subgraph", "1"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(argv: list[str], scratch: Path, keep: Path | None = None) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli([a.replace("{dir}", str(scratch)) for a in argv])
        except Exception as exc:                # reported, not fatal: it is data
            code = None
            error = f"{type(exc).__name__}: {exc}".splitlines()[0]
    stdout, stderr = (s.getvalue().replace(str(scratch), "{dir}") for s in (out, err))
    if error is None:
        error = next((line for line in stderr.splitlines() if "error:" in line), None)
    lines = [f"  exit {code}",
             f"  stdout {sha256(stdout.encode())}",
             f"  stderr {sha256(stderr.encode())}"]
    if keep is not None:
        keep.mkdir(parents=True)
        (keep / "stdout").write_text(stdout, encoding="utf-8", newline="")
        (keep / "stderr").write_text(stderr, encoding="utf-8", newline="")
    for path in sorted(p for p in scratch.iterdir() if p.name not in INPUTS):
        lines.append(f"  file {path.name} {sha256(path.read_bytes())}")
        if keep is None:
            path.unlink()
        else:
            path.replace(keep / path.name)
    if error is not None:
        lines.append(f"  error {error.replace(str(scratch), '{dir}')}")
    return lines


def main():
    parser = argparse.ArgumentParser(description="Fingerprints of the CLI's output.")
    parser.add_argument("--keep", type=Path, help="keep each configuration's output here")
    keep = parser.parse_args().keep
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "graph.json").write_text(json.dumps(GRAPH), encoding="utf-8")
        (scratch / "network.json").write_text(json.dumps(NETWORK), encoding="utf-8")
        (scratch / "complete.json").write_text(json.dumps(COMPLETE), encoding="utf-8")
        (scratch / "zero_coupling.json").write_text(json.dumps(ZERO_COUPLING), encoding="utf-8")
        (scratch / "middle_joined.json").write_text(json.dumps(MIDDLE_JOINED), encoding="utf-8")
        config = {**CONFIG, "out": str(scratch / "config.csv")}
        (scratch / "run.json").write_text(json.dumps(config), encoding="utf-8")
        (scratch / "list.json").write_text("[1, 2]", encoding="utf-8")
        (scratch / "unknown_key.json").write_text(
            json.dumps({"subcommand": "transmit", "len": 5}), encoding="utf-8")
        (scratch / "bad_type.json").write_text(
            json.dumps({"subcommand": "transmit", "n0": "two", "length": 5}), encoding="utf-8")
        (scratch / "format_key.json").write_text(
            json.dumps({"subcommand": "bound", "n0": 2, "length": 4, "format": "json"}),
            encoding="utf-8")
        (scratch / "float_label.json").write_text(
            json.dumps({**GRAPH, "partition": [0, 0, 1.5, 1, 0]}), encoding="utf-8")
        (scratch / "outdir").mkdir()
        for label, argv in RUNS:
            print(label)
            kept = None if keep is None else keep / label
            print("\n".join(fingerprint(argv, scratch, kept)), flush=True)


if __name__ == "__main__":
    main()
