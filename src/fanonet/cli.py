"""Command-line front end.

Subcommands: ``trap`` (certify trapped modes of a user graph), ``evolve``
(survival-probability sweeps), ``bound`` (exact bound states), ``transmit``
(transmission spectra with zero catalogs).  Exit codes: 0 success, 2 input
error, 3 empty trap search, 4 domain violation, 5 internal failure (a
result failed its own consistency check).  ``main`` returns every one of
them, argparse's 2 for a bad command line (and 0 for --help) included.

Identical run configurations produce byte-identical output files: no
timestamps, fixed float formatting, deterministic ordering.  The bound
states and the transmit zero catalog come from one JSON writer,
``_json_text``, whose text matches ``json.dumps(payload, indent=2,
sort_keys=True)`` byte for byte.  Trap's certificate file does not: it is
written from the certificates' vectors one certificate at a time
(``_certificate_chunks``), each array on one line and each amplitude in
17 significant digits, which parse back to the same double.  A job's
amplitudes are formatted in arrays of whole certificates by
``_decimal.join_g17``, whose text is CPython's ``'%.17g' % x`` exactly: a
value whose rounding its error bound cannot decide takes ``%`` itself.  A
job of fewer than ARRAY_TEXT_MIN amplitudes takes one ``%`` template per
certificate; the bytes are the same either way.  Energies
are in units of the host hopping (kappa = 1) unless --kappa is given.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import types
import typing
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .bound_states import evanescent_bound_states, long_time_survival, resonant_bound_states
from .dynamics import (
    DEFAULT_TIME_SAMPLES,
    PHASE_BLOCK,
    SpectralPropagator,
    SurvivalSeries,
    classify_decay,
    joint_survival,
    safe_horizon,
)
from .graphs import GraphSpecError, parse_graph_file
from .pilattice import PiLatticeSpec
from .scattering import (
    common_zeros,
    l_dependent_reflection_zeros,
    peak_dip_report,
    scattering_point,  # noqa: F401  (perfbench's tracer test looks it up here)
    transmission_sweep,
)
from .spectra import find_trapping_modes, fold_chain, lead_eigenpairs, mirror_mode, support_masks

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_DOMAIN = 4
EXIT_INTERNAL = 5


@dataclass
class RunConfig:
    """Resolved parameters of one invocation (flags merged over --config)."""

    subcommand: str
    n0: int | None = None
    length: int | None = None
    kappa: float = 1.0
    kappa0: float = 1.0
    leads: int | None = None
    e_min: float | None = None
    e_max: float | None = None
    steps: int | None = None
    t_max: float | None = None
    modes: list[int] | None = None
    compare: int | None = None
    long_time: int | None = None
    allow_reflections: bool = False
    graph: str | None = None
    subgraph: int = 0
    out: str | None = None

    def validate(self):
        if self.steps is not None and self.steps < 2:
            raise GraphSpecError(f"steps must be >= 2, got {self.steps}")
        if self.e_min is not None and self.e_max is not None and not self.e_min < self.e_max:
            raise GraphSpecError("empty energy range: e_min must be < e_max")
        if self.t_max is not None and not 0 <= self.t_max < math.inf:
            raise GraphSpecError(f"t_max must be finite and >= 0, got {self.t_max}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_lines(fields: str, *columns: list) -> str:
    """One CSV line per row of ``columns``: ``fields`` % the row's values,
    then a newline, all formatted by one C-level % on the whole text.

    ``fields`` holds one conversion per column: ``%s`` for text already
    formatted, ``%.12g`` for a float, which prints as ``_fmt`` does."""
    return ((fields + "\n") * len(columns[0])) % tuple(itertools.chain(*zip(*columns)))


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, float, bool and None.

    json's own encoder runs in pure Python whenever ``indent`` is set; here
    a list of finite floats, of ints or of strs is written with one join,
    and a list of dicts that all hold the same str keys (a zero catalog,
    peak-dip entries, bound states, their overlaps) with one % on a
    template (``_json_records``).  Any other value, a non-str key among
    them, raises TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:                   # bools before int: bool subclasses int
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):        # np.float64 included, by float's repr
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {dict} and value[0] and all(isinstance(key, str) for key in value[0]):
            keys = sorted(value[0])
            if all(len(v) == len(keys) and all(map(v.__contains__, keys)) for v in value):
                return _json_records(value, keys, indent)
        items = _json_column(value, kinds, inner)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = (
            encode_basestring_ascii(key) + ": " + _json_text(v, inner)
            for key, v in sorted(value.items())
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_column(values, kinds: set, indent: str):
    """The JSON texts of ``values`` (whose types are ``kinds``) at
    ``indent``: a column of finite floats, np.float64 included, of ints or
    of strs converted in bulk, any other column value by value."""
    if kinds <= {float, np.float64} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return [_json_text(v, indent) for v in values]


def _json_records(records: list, keys: list, indent: str) -> str:
    """The JSON list of dicts ``records``, which all hold the sorted str
    ``keys`` and no others, by one % on a template of the whole list: each
    key's column is converted in bulk (``_json_column``)."""
    inner, field = indent + "  ", indent + "    "
    record = "{" + field + ("," + field).join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
    ) + inner + "}"
    columns = [_json_column(column, set(map(type, column)), field)
               for column in ([r[key] for r in records] for key in keys)]
    template = "[" + inner + ("," + inner).join([record] * len(records)) + indent + "]"
    return template % tuple(itertools.chain(*zip(*columns)))


# a trap job with at least this many amplitudes formats them in arrays by
# ``_decimal.join_g17``, at about 0.1 ms a call and 0.2 us an amplitude
# against about 0.7 us by template (even near 250 amplitudes); a smaller job
# keeps one template per certificate, whose %.17g needs no call
ARRAY_TEXT_MIN = 400
# amplitudes formatted by one call: whole certificates, within this many (or
# one certificate that alone holds more)
ARRAY_TEXT_CHUNK = 4096
CERTIFICATE = ('{\n    "amplitudes": [%s],\n    "energy": %s,\n    "residual": %s,'
               '\n    "sites": [%s]\n  }')


def _certificate_chunks(certificates: list, vectors: np.ndarray, support: np.ndarray,
                        sites: np.ndarray) -> Iterator[str]:
    """The JSON list of ``certificates``, one certificate's text at a time,
    so that neither the list nor the file's text is held.

    Row i of ``vectors`` holds certificate i's amplitudes on ``sites``, and
    row i of the mask ``support`` its support among them.  Each text has its
    keys sorted, each array on one line, sites as integers, energy and
    residual in their shortest repr, and amplitudes as %.17g, which reads
    back as the same double (17 significant digits round-trip every
    binary64).  An amplitude of exactly +-1, which %.17g would print as an
    integer, takes its repr, 1.0.  A job of ARRAY_TEXT_MIN amplitudes or
    more formats them by arrays (``_array_texts``), a smaller one by one
    template per certificate (``_template_text``): the bytes are the same.
    """
    counts = support.sum(axis=1).tolist()
    texts = (_array_texts(certificates, vectors, support, sites, counts)
             if sum(counts) >= ARRAY_TEXT_MIN else
             map(_template_text, certificates, vectors, support, itertools.repeat(sites)))
    separator = "[\n  "
    for text in texts:
        yield separator + text
        separator = ",\n  "
    yield "[]\n" if separator == "[\n  " else "\n]\n"


def _template_text(cert, row: np.ndarray, mask: np.ndarray, sites: np.ndarray) -> str:
    """One certificate's text by one % on a template of its own."""
    amplitudes = row[mask]
    values = amplitudes.tolist()
    fields = (["%r" if abs(a) == 1.0 else "%.17g" for a in values]
              if np.max(np.abs(amplitudes)) == 1.0 else ["%.17g"] * len(values))
    template = ('{\n    "amplitudes": [' + ", ".join(fields)
                + '],\n    "energy": %s,\n    "residual": %s,\n    "sites": ['
                + ", ".join(["%d"] * len(values)) + "]\n  }")
    return template % (*values, _json_text(cert.energy), _json_text(cert.residual),
                       *sites[mask].tolist())


def _array_texts(certificates: list, vectors: np.ndarray, support: np.ndarray,
                 sites: np.ndarray, counts: list) -> Iterator[str]:
    """Each certificate's text, its amplitudes' %.17g from one
    ``_decimal.join_g17`` call per chunk of whole certificates and its sites
    from one table of site texts; a certificate that holds an amplitude of
    exactly +-1 takes ``_template_text``."""
    from ._decimal import join_g17

    site_texts = np.array(list(map(str, sites.tolist())), dtype=object)
    first = 0
    while first < len(certificates):
        last, size = first + 1, counts[first]
        while last < len(certificates) and size + counts[last] <= ARRAY_TEXT_CHUNK:
            size += counts[last]
            last += 1
        amplitudes = vectors[first:last][support[first:last]]
        text, offsets, _ = join_g17(amplitudes)
        ends = np.cumsum(counts[first:last])
        units = set((np.searchsorted(ends, np.flatnonzero(np.abs(amplitudes) == 1.0),
                                     side="right") + first).tolist())
        begin = 0
        for i, end in zip(range(first, last), offsets[ends].tolist()):
            if i in units:
                yield _template_text(certificates[i], vectors[i], support[i], sites)
            else:
                yield CERTIFICATE % (text[begin:end - 2], _json_text(certificates[i].energy),
                                     _json_text(certificates[i].residual),
                                     ", ".join(site_texts[support[i]].tolist()))
            begin = end
        first = last


def _write_text(path: str | None, text: str | Iterable[str]):
    """Write ``text``, or each chunk of it in turn, to ``path`` or stdout."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:              # a directory, a missing parent, no permission
        raise GraphSpecError(f"cannot write output: {exc}") from exc


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig field annotation."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    for option in options:
        kind = typing.get_origin(option) or option
        if isinstance(value, bool) and kind is not bool:
            continue
        if kind is float and isinstance(value, int):       # JSON has one number type
            return True
        if isinstance(value, kind):
            return kind is not list or all(_fits(v, typing.get_args(option)[0]) for v in value)
    return False


def _check_config(values: dict):
    """Every key of a config file names a RunConfig field, and its value
    fits that field's type; GraphSpecError naming the key otherwise."""
    hints = typing.get_type_hints(RunConfig)
    for key, value in values.items():
        if key not in hints:
            raise GraphSpecError(f"unknown config key {key!r}")
        if key == "modes" and isinstance(value, str):      # the --modes text
            continue
        if not _fits(value, hints[key]):
            expected = getattr(hints[key], "__name__", None) or str(hints[key])
            raise GraphSpecError(
                f"config key {key!r} expects {expected}, got {json.dumps(value)}"
            )


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge explicit flags over --config values over defaults.

    The subcommand comes from the command line, or else from the config
    file's "subcommand" key.
    """
    merged: dict = {}
    if args.config:
        try:
            merged = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise GraphSpecError(f"cannot read config: {exc}") from exc
        except ValueError as exc:           # not JSON, or not UTF-8
            raise GraphSpecError(f"parse failure in config: {exc}") from exc
        if not isinstance(merged, dict):
            raise GraphSpecError(
                f"config must hold a JSON object, got {type(merged).__name__}"
            )
        _check_config(merged)
    from_file = merged.pop("subcommand", None)
    command = args.command or from_file
    if command not in COMMANDS:
        raise GraphSpecError(f"config names no valid subcommand: {command!r}")
    merged.update(
        (key, value) for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    )
    if isinstance(merged.get("modes"), str):
        merged["modes"] = _parse_modes(merged["modes"])
    cfg = RunConfig(subcommand=command, **merged)
    cfg.validate()
    return cfg


def _parse_modes(text: str) -> list[int] | None:
    if text.strip().lower() == "all":
        return None
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise GraphSpecError(f"parse failure: bad mode list {text!r}") from exc


# ----------------------------------------------------------------- trap ----

def cmd_trap(cfg: RunConfig) -> int:
    if cfg.graph is None:
        raise GraphSpecError("trap needs a graph file")
    graph, partition = parse_graph_file(cfg.graph)
    if partition is None:
        raise GraphSpecError("graph file carries no 'partition' entry")
    if cfg.subgraph not in partition.subgraph_indices():
        raise GraphSpecError(
            f"subgraph {cfg.subgraph} not in partition {partition.subgraph_indices()}"
        )
    if not partition.joint_sites(cfg.subgraph):
        print(
            f"warning: subgraph {cfg.subgraph} has no coupling of nonzero strength "
            "to the rest of the graph; every eigenmode is vacuously trapped",
            file=sys.stderr,
        )
    certificates = find_trapping_modes(graph, partition, cfg.subgraph)
    # every certificate vanishes off the subgraph, so its support and its
    # nodes lie among the subgraph's sites: one row of them per certificate
    subgraph_sites = np.flatnonzero(partition.labels == cfg.subgraph)
    vectors = np.array([c.vector[subgraph_sites] for c in certificates]).reshape(
        -1, len(subgraph_sites))
    support, nodes = support_masks(vectors)
    lines = [f"# trapped modes of subgraph {cfg.subgraph} ({len(certificates)} found)"]
    for cert, node_mask in zip(certificates, nodes):
        lines.append(
            f"energy={_fmt(cert.energy)} nodes={subgraph_sites[node_mask].tolist()} "
            f"residual={cert.residual:.3e}"
        )
    print("\n".join(lines))
    if cfg.out:                         # one certificate's text at a time
        _write_text(cfg.out, _certificate_chunks(certificates, vectors, support, subgraph_sites))
    return EXIT_OK if certificates else EXIT_EMPTY


# --------------------------------------------------------------- evolve ----

def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.n0 is None or cfg.length is None or cfg.leads is None:
        raise GraphSpecError("evolve needs --n0, --len and --m")
    spec = PiLatticeSpec(cfg.n0, cfg.length, cfg.kappa, cfg.kappa0, cfg.leads)
    horizon = safe_horizon(cfg.leads, cfg.kappa)
    t_max = horizon if cfg.t_max is None else cfg.t_max
    if t_max > horizon and not cfg.allow_reflections:
        raise ValueError(
            f"t_max={t_max} exceeds the safe horizon {horizon} "
            "(rerun with --allow-reflections to override)"
        )
    steps = cfg.steps if cfg.steps is not None else DEFAULT_TIME_SAMPLES
    times = np.linspace(0.0, t_max, steps)

    lam = spec.central_size
    modes = list(range(1, lam + 1)) if cfg.modes is None else cfg.modes
    if not modes:
        raise GraphSpecError("empty mode list (give mode numbers or 'all')")
    bad = [n for n in modes if not 1 <= n <= lam]
    if bad:
        raise GraphSpecError(f"modes {bad} outside [1, {lam}]")

    # mode n lies in mirror sector (-1)^(n-1): evolve each sector that holds
    # a requested mode under its own half-size block of the lattice.  The
    # block's first ``leads`` sites are the left lead, a uniform hard-wall
    # chain whose last site, c_0, is bonded by -kappa to c_1 (sector site
    # n0); the rest is the chain's own sector block, folded from its hopping
    # profile, whose eigenvectors are the chain's modes of that sector, the
    # initial states.  ``lead_eigenpairs`` diagonalizes each rest, the only
    # dense eigensolves, and meets its modes with the lead's standing waves
    # in one secular equation per sector, both sectors' roots in one
    # iteration: it gives each block's energies, its eigenvectors' rows on
    # the chain's sector coordinates, where P = sum |w|^2, and the chain's
    # modes, and certifies them, an ArithmeticError (exit 5) if a
    # certificate fails
    sectors = []
    for sector, (diagonal, off_diagonal) in zip((1, -1), fold_chain(spec.central_hoppings)):
        wanted = sorted({n for n in modes if mirror_mode(n)[0] == sector})
        if wanted:
            rest = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
            spokes = np.zeros(len(rest))
            spokes[spec.n0] = -spec.kappa
            sectors.append((wanted, (rest, spokes)))
    solved = lead_eigenpairs([block for _, block in sectors], cfg.leads, spec.kappa)
    # a batch of M modes holds b, their N * S * M spectral weights, within
    # PHASE_BLOCK numbers (or one mode, if one alone needs more);
    # ``joint_survival`` forms their amplitudes one block of times at a
    # time, for as many batches at once as its budget allows, and keeps
    # only P, (T, M)
    batches, pairs = [], []
    for (wanted, _), (energies, rows, chain_modes) in zip(sectors, solved):
        propagator = SpectralPropagator(energies, rows)
        per_block = max(1, PHASE_BLOCK // (len(energies) * len(chain_modes)))
        for start in range(0, len(wanted), per_block):
            batches.append(wanted[start:start + per_block])
            pairs.append((propagator, chain_modes[:, [mirror_mode(n)[1] for n in batches[-1]]]))
    curves = {}
    for batch, values in zip(batches, joint_survival(pairs, times)):
        curves.update(zip(batch, values.T))
    header = (
        f"# fanonet evolve n0={cfg.n0} len={cfg.length} m={cfg.leads} "
        f"kappa={_fmt(cfg.kappa)} kappa0={_fmt(cfg.kappa0)} steps={steps} "
        f"t_max={_fmt(t_max)}; energies and times in units kappa={_fmt(cfg.kappa)}\n"
        "N0,L,n,t,P,classification\n"
    )
    time_texts = list(map(_fmt, times.tolist()))

    def mode_rows(n: int) -> str:
        values = curves[n]
        try:
            label = classify_decay(SurvivalSeries(n, times, values, horizon))
        except ValueError:              # too few samples to call the shape
            label = "unclassified"
        return _csv_lines(f"{cfg.n0},{cfg.length},{n},%s,%.12g,{label}",
                          time_texts, values.tolist())

    # one mode's text at a time
    _write_text(cfg.out, itertools.chain((header,), map(mode_rows, modes)))
    return EXIT_OK


# ---------------------------------------------------------------- bound ----

def cmd_bound(cfg: RunConfig) -> int:
    if cfg.n0 is None or cfg.length is None:
        raise GraphSpecError("bound needs --n0 and --len")
    resonant = resonant_bound_states(cfg.n0, cfg.length, cfg.kappa, cfg.kappa0)
    evanescent = evanescent_bound_states(cfg.n0, cfg.length, cfg.kappa, cfg.kappa0)
    states = resonant + evanescent
    report = None
    if cfg.long_time is not None:               # before any output: it checks the mode
        report = long_time_survival(
            cfg.n0, cfg.length, cfg.kappa, cfg.kappa0, cfg.long_time, states
        )
    print(f"# bound states: {len(resonant)} resonant, {len(evanescent)} evanescent")
    for state in states:
        momentum = f"k={_fmt(state.k.real)}+{_fmt(state.k.imag)}i"
        parity = f" parity={state.parity}" if state.parity else ""
        print(f"{state.kind}: {momentum} E={_fmt(state.energy)}"
              f" gamma={_fmt(state.gamma)}{parity}")
    payload: dict = {
        "states": [s.to_json_dict() for s in states],
    }
    if report is not None:
        print(f"long-time survival of mode {report.mode}: {report.p_infinity:.6f}")
        payload["long_time"] = {
            "mode": report.mode,
            "p_infinity": report.p_infinity,
            "overlaps": report.contributions,
        }
    if cfg.out:
        _write_text(cfg.out, _json_text(payload) + "\n")
    return EXIT_OK


# ------------------------------------------------------------- transmit ----

def cmd_transmit(cfg: RunConfig) -> int:
    if cfg.n0 is None or cfg.length is None:
        raise GraphSpecError("transmit needs --n0 and --len")
    lengths = [cfg.length] + ([] if cfg.compare is None else [cfg.compare])
    for length in lengths:                              # parameter validation
        PiLatticeSpec(cfg.n0, length, cfg.kappa, cfg.kappa0)
    if cfg.compare == cfg.length:
        raise GraphSpecError(f"--compare must differ from --len, got {cfg.compare} for both")
    band = 2.0 * cfg.kappa
    e_min = cfg.e_min if cfg.e_min is not None else -band + 1e-3 * cfg.kappa
    e_max = cfg.e_max if cfg.e_max is not None else band - 1e-3 * cfg.kappa
    if not (-band < e_min < e_max < band):
        raise ValueError(
            f"energy range [{e_min}, {e_max}] must lie strictly inside "
            f"the band (-{band}, {band})"
        )
    steps = cfg.steps if cfg.steps is not None else 800
    momenta = np.arccos(-np.linspace(e_min, e_max, steps) / band)
    # the energy column is recomputed from k, as the scattering record holds it
    energies = -2.0 * cfg.kappa * np.cos(momenta)

    # the k and E columns are the same in every file
    shared = [c.tolist() for c in (momenta, energies)]
    for length in lengths:
        t, _, big_t, big_r = transmission_sweep(momenta, cfg.n0, length, cfg.kappa, cfg.kappa0)
        rows = _csv_lines("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g", *shared,
                          *(c.tolist() for c in (big_t, big_r, t.real, t.imag)))
        header = (
            f"# fanonet transmit n0={cfg.n0} len={length} "
            f"kappa={_fmt(cfg.kappa)} kappa0={_fmt(cfg.kappa0)} steps={steps}; "
            f"energies in units kappa={_fmt(cfg.kappa)}\n"
            "k,E,T,R,re_t,im_t\n"
        )
        out = cfg.out
        if out is not None and length != cfg.length:
            path = Path(out)
            out = str(path.with_name(f"{path.stem}_L{length}{path.suffix}"))
        _write_text(out, (header, rows))

    catalog = common_zeros(cfg.n0, cfg.kappa, cfg.kappa0)
    zeros = {
        length: l_dependent_reflection_zeros(cfg.n0, length, cfg.kappa, cfg.kappa0)
        for length in lengths
    }
    sidecar = catalog.to_json_dict()
    sidecar["k0"] = {
        str(length): [
            {"k": k0, "E": -2.0 * cfg.kappa * np.cos(k0), "provenance": "L-dependent"}
            for k0 in ks
        ]
        for length, ks in zeros.items()
    }
    if cfg.compare is not None:
        report = peak_dip_report(cfg.n0, cfg.length, cfg.compare, cfg.kappa, cfg.kappa0,
                                 (zeros[cfg.length], zeros[cfg.compare]))
        sidecar["peak_dip"] = report.entries
    if cfg.out:
        _write_text(f"{cfg.out}.zeros.json", _json_text(sidecar) + "\n")
    else:
        print(_json_text(sidecar), file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------- main ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanonet",
        description="Tight-binding network trapping, bound states and scattering.",
    )
    parser.add_argument("--config", help="JSON run configuration (flags override it)")
    sub = parser.add_subparsers(dest="command")

    def common_lattice(p, leads=False):
        p.add_argument("--n0", type=int, help="side-chain length")
        p.add_argument("--len", dest="length", type=int, help="anchor separation")
        p.add_argument("--kappa", type=float, help="host-chain hopping")
        p.add_argument("--kappa0", type=float, help="side-chain hopping")
        if leads:
            p.add_argument("--m", dest="leads", type=int, help="lead sites per side")
        p.add_argument("--out", help="output file (default: stdout)")
        # SUPPRESS: a --config given before the subcommand must survive
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON run configuration")

    p_trap = sub.add_parser("trap", help="certify trapped modes of a graph file")
    p_trap.add_argument("graph", nargs="?", help="graph spec JSON with a partition")
    p_trap.add_argument("--subgraph", type=int, help="subgraph index (default 0)")
    p_trap.add_argument("--out", help="certificate JSON output")
    p_trap.add_argument("--config", default=argparse.SUPPRESS, help="JSON run configuration")

    p_evolve = sub.add_parser("evolve", help="survival-probability time sweep")
    common_lattice(p_evolve, leads=True)
    p_evolve.add_argument("--modes", help="comma-separated mode list or 'all'")
    p_evolve.add_argument("--t-max", dest="t_max", type=float, help="sweep end time")
    p_evolve.add_argument(
        "--steps", type=int, help=f"time samples (default {DEFAULT_TIME_SAMPLES})"
    )
    p_evolve.add_argument(
        "--allow-reflections",
        action="store_const",
        const=True,
        help="permit times beyond the safe horizon",
    )

    p_bound = sub.add_parser("bound", help="resonant and evanescent bound states")
    common_lattice(p_bound)
    p_bound.add_argument(
        "--long-time", dest="long_time", type=int,
        help="also report the stationary survival of this initial mode",
    )

    p_transmit = sub.add_parser("transmit", help="transmission spectrum sweep")
    common_lattice(p_transmit)
    p_transmit.add_argument("--e-min", dest="e_min", type=float, help="sweep start energy")
    p_transmit.add_argument("--e-max", dest="e_max", type=float, help="sweep end energy")
    p_transmit.add_argument("--steps", type=int, help="energy samples (default 800)")
    p_transmit.add_argument("--compare", type=int, help="second anchor separation")
    return parser


COMMANDS = {
    "trap": cmd_trap,
    "evolve": cmd_evolve,
    "bound": cmd_bound,
    "transmit": cmd_transmit,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process and reused by every
    ``main`` call: building it takes about 1 ms, and parsing leaves no
    state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns its exit code, argparse's included
    (0 after --help, 2 for a command line it rejects), and raises nothing
    for bad input."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:           # argparse has written its message
        return exc.code
    if args.command is None and not args.config:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    try:
        cfg = _resolve(args)
        return COMMANDS[cfg.subcommand](cfg)
    except GraphSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
