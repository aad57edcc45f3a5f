"""Spans around the public functions of every fanonet module.

The program itself carries no instrumentation: ``Tracer.install`` replaces
each public function (and each public method of a public class) with a
wrapper, at every module binding of that function object, so
``fanonet.cli.scattering_point``, ``fanonet.scattering.scattering_point``
and ``fanonet.scattering_point`` all record into the same span name.
``uninstall`` puts the originals back.

A span is (name, start, end, parent, job).  Spans stay in memory and are
written by ``save`` when the run ends.  A few functions also add counts
(matrix sizes, states found, warnings) measured from their arguments and
results; the formulas are listed in ``perfbench/layers.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from collections import defaultdict

import numpy as np

MODULES = ("graphs", "pilattice", "spectra", "dynamics", "bound_states", "scattering", "cli")


def _diagonalize(counts, args, result, job):
    n = int(np.shape(args["h"])[0])
    counts["spectra.diagonalize.dim_max"] = max(counts["spectra.diagonalize.dim_max"], n)
    # eigh with eigenvectors ~9 N^3 (symmetric QR with accumulation,
    # Golub & Van Loan) plus the residual product H @ V, 2 N^3
    counts["spectra.diagonalize.flops"] += 11.0 * n**3


def _assemble(counts, args, result, job):
    counts["graphs.assemble_hamiltonian.bytes"] += 8.0 * args["graph"].site_count ** 2


def _find_trapping(counts, args, result, job):
    label = args["l"]
    counts["spectra.find_trapping_modes.certificates"] += len(result)
    counts["spectra.find_trapping_modes.examined"] += sum(
        1 for a in args["partition"].assignment if a == label
    )


def _evolve(counts, args, result, job):
    steps = len(args["times"])
    n = len(args["psi0"])
    params = job["params"]
    counts["dynamics.SpectralPropagator.evolve.amplitudes"] += steps * n
    # the survival sum reads only the central-chain sites
    counts["dynamics.SpectralPropagator.evolve.useful"] += steps * (
        2 * params["n0"] + params["length"]
    )


def _states(name):
    def measure(counts, args, result, job):
        counts[f"{name}.states"] += len(result)
    return measure


def _roots(counts, args, result, job):
    counts["scattering.l_dependent_reflection_zeros.roots"] += len(result)


def _oracle(counts, args, result, job):
    # unknowns: every site of the truncated lattice plus r and t
    dim = 2 * args["leads"] + 2 * args["n0"] + args["length"] + 2
    name = "scattering.numeric_scatter_oracle"
    counts[f"{name}.dim_max"] = max(counts[f"{name}.dim_max"], dim)
    # dense complex LU: (2/3) n^3 complex multiply-adds, 4 real flops each
    counts[f"{name}.flops"] += 8.0 / 3.0 * dim**3


MEASURES = {
    "spectra.diagonalize": _diagonalize,
    "graphs.assemble_hamiltonian": _assemble,
    "spectra.find_trapping_modes": _find_trapping,
    "dynamics.SpectralPropagator.evolve": _evolve,
    "bound_states.resonant_bound_states": _states("bound_states.resonant_bound_states"),
    "bound_states.evanescent_bound_states": _states("bound_states.evanescent_bound_states"),
    "scattering.l_dependent_reflection_zeros": _roots,
    "scattering.numeric_scatter_oracle": _oracle,
}
# the oracle retries a singular solve once and says so with a RuntimeWarning
RETRY_COUNTED = {"scattering.numeric_scatter_oracle"}


def _targets(module):
    """(span name, owning class or None, attribute, function) for each
    public function of the module and public method of its public classes."""
    short = module.__name__.rsplit(".", 1)[1]
    for name in getattr(module, "__all__", ["main"]):
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield f"{short}.{name}", None, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{short}.{name}.{attr}", obj, attr, member


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.job: dict = {"id": -1, "params": {}}
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn)
        measure = MEASURES.get(name)
        count_retries = name in RETRY_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                if count_retries:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job["id"])
            if count_retries:
                for w in caught:
                    if issubclass(w.category, RuntimeWarning) and "singular" in str(w.message):
                        tracer.counts[f"{name}.retries"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                measure(tracer.counts, bound.arguments, result, tracer.job)
            return result

        return traced

    def install(self) -> set[str]:
        """Wrap every target; returns the span names wrapped."""
        package = importlib.import_module("fanonet")
        modules = [importlib.import_module(f"fanonet.{m}") for m in MODULES]
        wrapped = set()
        for module in modules:
            for name, owner, attr, fn in _targets(module):
                if hasattr(fn, "__wrapped__"):
                    continue                    # re-exported, already wrapped
                wrapper = self._wrap(name, fn)
                bindings = [(owner, attr)] if owner else [
                    (holder, key) for holder in (package, *modules)
                    for key, value in vars(holder).items() if value is fn]
                for holder, key in bindings:
                    self._restore.append((holder, key, fn))
                    setattr(holder, key, wrapper)
                wrapped.add(name)
        return wrapped

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            job=np.array([s[4] for s in self.spans], dtype=np.int64),
        )

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: defaultdict = defaultdict(int)
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(own),
                "counts": dict(self.counts)}
