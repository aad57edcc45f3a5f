"""Unitary time evolution and subgraph survival probability.

Evolution goes through SpectralPropagator alone: one spectral
decomposition, reused for every requested time and every initial state,
so the propagation is exactly unitary at arbitrary t.
``SpectralPropagator(energies, rows)`` takes all N energies and the
eigenvectors' rows on the S sites that states start on and are observed
at, which is all that their evolution there needs (all N rows of a dense
eigensolve make S = N).  For M initial states it forms the phase tables
cos(tE), sin(tE) of T times by N energies one block of B time rows at a
time, and per block two real GEMMs with b, the (N, S * M) table of the
states' spectral weights on the observed sites, O(T * N * S * M) in all.
A block holds whole anchors (below), as many as keep B * (N + S * M),
its phase rows and the amplitudes formed from them, within PHASE_BLOCK
numbers, and at least one.  ``survival`` reduces each block to
P = sum_s |amplitude|^2 before the next is formed, so it holds the (T, M)
values of P and no (T, N) table or (T, M, S) amplitudes: memory is
O((r + B) * N + N * S * M + T * M).  The rows come from angle addition
(``_PhaseTable``): on a grid where every t_{a*r+q} is t_{a*r} + (t_q - t_0)
to within rounding, as on any uniform grid, it takes sin and cos of
T/r anchor rows and r offset rows, r = isqrt(T), so (T/r + r) * N of each
instead of T * N; any other grid takes r = 1, the plain table.
``joint_survival`` takes several (propagator, states) pairs, such as the
two mirror sectors' mode batches of one run, and forms as many of them
per pass as PHASE_BLOCK allows from one table over all their energies,
each pair's GEMMs on its own columns and every pair's amplitudes in the
same buffers.

The pi lattice is mirror-symmetric and its central chain's mode n lies in
mirror sector (-1)^(n-1) (``spectra.mirror_mode``), so ``fanonet evolve``
splits the lattice into one half-size block per sector and solves the
sectors that hold a requested mode.  Each block's lead is a uniform
hard-wall chain, given by its length and hopping, joined by one bond to
the chain's own sector block, which ``spectra.fold_chain`` writes from the
chain's hopping profile; ``spectra.lead_eigenpairs`` diagonalizes each
S-site rest, whose eigenvectors are the chain's modes of the sector, and
gives each block's energies and its eigenvectors' rows on the rest from
its secular equation, both sectors' roots in one iteration, with no dense
eigensolve of a block, and certifies them: an ArithmeticError, exit 5 in
the CLI, if a certificate fails.  Hard-wall truncated leads stay faithful to the
infinite lattice only until leaked probability can bounce off the wall
and return; ``safe_horizon`` bounds that window using the maximal group
velocity 2*kappa of the host chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SurvivalSeries",
    "SpectralPropagator",
    "joint_survival",
    "safe_horizon",
    "classify_decay",
    "UNITARY",
    "SLOW_DAMPING",
    "DROP_TO_PLATEAU",
]

UNITARY = "unitary"
SLOW_DAMPING = "slow_damping"
DROP_TO_PLATEAU = "drop_to_plateau"

NORM_TOL = 1e-10
# fraction of the reflection-free window actually trusted
SAFETY_FACTOR = 0.9
# time samples of a survival sweep when the caller names none
DEFAULT_TIME_SAMPLES = 720
# numbers in one block of rows of a phase table and of the amplitudes
# formed from it (at least one anchor's rows, whatever their count)
PHASE_BLOCK = 1 << 16
# a time grid is anchored when every t_{a*r+q} - t_{a*r} - (t_q - t_0) lies
# within this many ulps of max|t|; linspace and the check itself round it
# by at most about 10 (CHANGES.md derives the phase table's error from it)
ANCHOR_ULPS = 16


@dataclass(frozen=True)
class SurvivalSeries:
    """P(t): probability of remaining inside a chosen site set."""

    mode: object
    times: np.ndarray
    values: np.ndarray
    safe_horizon: float = math.inf


class SpectralPropagator:
    """Spectral decomposition of H, reusable across times and initial states:
    all N energies and the (S, N) rows of their eigenvectors on S sites,
    such as ``spectra.lead_eigenpairs`` returns.  It evolves states that
    live on those S sites, exactly, since their projections onto every
    eigenvector need only those rows."""

    def __init__(self, energies: np.ndarray, rows: np.ndarray):
        self.energies, self.vectors = np.asarray(energies), np.asarray(rows)

    def evolve(self, psi0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """Amplitudes of exp(-iHt) psi0 on the propagator's S rows.

        ``psi0`` is one state or states in columns, on those rows; the
        result is (len(times), S) or (len(times), M, S).  With
        b[k, m, s] = <g_k|psi0_m> g_k[s] the amplitudes
        are cos(tE) @ b - i sin(tE) @ b: two real GEMMs (complex states go
        through the same GEMMs on interleaved parts) per block of B rows of
        the tables of ``_PhaseTable``.  Memory is O(T * S * M) for the
        result, plus O((r + B) * N) for one block and its anchors and
        O(N * S * M) for b.
        """
        psi0 = np.asarray(psi0)
        amps = np.empty((len(times), math.prod(psi0.shape[1:]) * len(self.vectors)), complex)
        for start, _, block in _blocks([(self, psi0)], times, _Buffers()):
            amps[start:start + len(block)] = block
        return amps.reshape(len(times), *psi0.shape[1:], len(self.vectors))

    def survival(self, psi0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """P(t) = sum_s |amplitude_s|^2 over the propagator's S rows,
        (len(times),) or (len(times), M): the sum over ``evolve``'s
        amplitudes, bit for bit, taken one block at a time
        (``joint_survival`` of this one pair).

        Memory is O(T * M) for P, plus O((r + B) * N) for one block and
        its anchors and O(N * S * M) for b.
        """
        return joint_survival([(self, psi0)], times)[0]


def joint_survival(pairs, times: Sequence[float]) -> list[np.ndarray]:
    """``SpectralPropagator.survival`` of each ``(propagator, psi0)`` pair,
    with fewer passes over the phase tables.

    Consecutive pairs share a pass while their spectral weights b, and one
    anchor's rows of their phase table, stay within PHASE_BLOCK numbers (a
    pass holds at least one pair).  A pass forms one ``_PhaseTable`` over
    the energies of all its propagators, and each pair's GEMMs run on its
    propagator's columns of that table: each row of the table is the one
    a pass of its own forms, bit for bit, and P comes from the amplitudes
    as there.  A shared pass's blocks hold fewer rows, though, and BLAS
    may round a product of fewer rows differently (OpenBLAS takes another
    kernel below 10^6 multiply-adds), so P can move in its last bits.
    A pass takes its phase rows,
    products, amplitudes and spectral weights from buffers that it fills
    again for every block of times and every pair.
    """
    values = []
    for group in _passes(pairs, _anchor_stride(np.asarray(times, dtype=float))):
        values += _survival_pass(group, times)
    return values


def _survival_pass(group, times: Sequence[float]) -> list[np.ndarray]:
    """P(t) of each pair of one pass, from the amplitudes of ``_blocks``."""
    buffers = _Buffers()
    results = [np.empty((len(times), *psi0.shape[1:])) for _, psi0 in group]
    for start, i, block in _blocks(group, times, buffers):
        shape = (len(block), *group[i][1].shape[1:], len(group[i][0].vectors))
        amps = np.abs(block.reshape(shape), out=buffers.take("magnitudes", shape))
        np.sum(np.square(amps, out=amps), axis=-1, out=results[i][start:start + len(block)])
    return results


def _passes(pairs, stride: int):
    """The pairs in groups of consecutive ones whose spectral weights, N * S
    * M numbers each (twice that for complex ones), and one anchor's phase
    rows, ``stride`` * sum(N + S * M), stay within PHASE_BLOCK, or one."""
    group, numbers, weights = [], 0, 0
    for propagator, psi0 in pairs:
        psi0 = np.asarray(psi0)
        width = math.prod(psi0.shape[1:]) * len(propagator.vectors)
        if np.iscomplexobj(psi0) or np.iscomplexobj(propagator.vectors):
            width *= 2
        size = len(propagator.energies)
        if group and (weights + size * width > PHASE_BLOCK
                      or stride * (numbers + size + width) > PHASE_BLOCK):
            yield group
            group, numbers, weights = [], 0, 0
        group.append((propagator, psi0))
        numbers, weights = numbers + size + width, weights + size * width
    if group:
        yield group


class _Buffers:
    """Arrays that a pass reuses from one block and pair to the next:
    ``take`` returns the first elements of the array kept under a key,
    shaped as asked, and replaces that array only with a larger one."""

    def __init__(self):
        self.kept = {}

    def take(self, key, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        kept = self.kept.get(key)
        if kept is None or kept.size < size or kept.dtype != dtype:
            del kept                            # the old array goes first
            self.kept.pop(key, None)
            kept = self.kept[key] = np.empty(size, dtype)
        return kept[:size].reshape(shape)


def _blocks(pairs, times: Sequence[float], buffers: _Buffers):
    """(start, i, amplitudes) for each block of ``_PhaseTable`` rows and
    each pair i = (propagator, psi0) in turn: pair i's amplitudes at times
    start, start + 1, ..., (rows, M * S), in a buffer that the next one
    overwrites.  One table over the energies of every pair, in pair order;
    pair i's GEMMs take its own columns of it."""
    flats, end = [], 0
    for i, (propagator, psi0) in enumerate(pairs):
        psi0 = np.asarray(psi0)
        states = psi0.reshape(len(psi0), -1)
        norms = np.linalg.norm(states, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"initial state {bad} norm {norms[bad]:.6f} != 1")
        vectors = propagator.vectors
        coeff = vectors.T @ states
        b = np.multiply(coeff[:, :, None], vectors.T[:, None, :],
                        out=buffers.take(("weights", i), (*coeff.shape, len(vectors)),
                                         np.result_type(coeff, vectors)))
        flat = b.reshape(len(b), -1)
        if np.iscomplexobj(flat):
            flat = flat.view(np.float64)
        flats.append((flat, slice(end, end + len(b)), b.dtype, b[0].size))
        end += len(b)
    phases = _PhaseTable(times, np.concatenate([p.energies for p, _ in pairs]),
                         sum(flat.shape[1] for flat, *_ in flats), buffers)
    for start, tables in phases.tables():
        rows = tables.shape[1]
        for i, (flat, columns, dtype, width) in enumerate(flats):
            re, im = np.matmul(tables[:, :, columns], flat,
                               out=buffers.take("products", (2, rows, flat.shape[1])))
            block = buffers.take("amplitudes", (rows, width), complex)
            # re - 1j * im, in place
            np.subtract(re.view(dtype), np.multiply(im.view(dtype), 1j, out=block), out=block)
            yield start, i, block


def _anchor_stride(times: np.ndarray) -> int:
    """r = isqrt(T) when every t_{a*r+q} equals t_{a*r} + (t_q - t_0) to
    within ANCHOR_ULPS ulps of max|t|, as on any uniform grid; else 1."""
    r = math.isqrt(len(times))
    if r < 2:
        return 1
    index = np.arange(len(times))
    anchored = times[index - index % r] + (times[index % r] - times[0])
    deviation = np.max(np.abs(times - anchored))
    return r if deviation <= ANCHOR_ULPS * np.spacing(np.max(np.abs(times))) else 1


class _PhaseTable:
    """cos(t_j E_k) and sin(t_j E_k) on a time grid, by angle addition, one
    block of rows at a time.

    Row j = a*r + q (``_anchor_stride``) is the anchor phase t_{a*r} E plus
    the offset phase (t_q - t_0) E: cos = cA cD - sA sD and
    sin = sA cD + cA sD, one rounding per product and one per sum.  Only
    the anchor rows of a block and the r - 1 offset rows, which every
    block shares, go through sin and cos; row q = 0 of each anchor is that
    anchor's own value, so at r = 1 the rows are
    ``np.cos(np.outer(times, E))`` and ``np.sin(...)`` bit for bit.

    A block is ``block`` rows, whole anchors, as many as keep
    rows * (N + ``width``) within PHASE_BLOCK numbers, and at least one;
    ``width`` is the number of columns that the rows are multiplied by.
    Blocks start on an anchor, so each row is the same in every split of
    the table into blocks.  Every block is filled into the same buffers,
    taken from ``buffers`` when given, so memory does not churn from one
    block, or one table, to the next.
    """

    def __init__(self, times: Sequence[float], energies: np.ndarray, width: int,
                 buffers: _Buffers | None = None):
        self.times = np.asarray(times, dtype=float)
        self.energies = energies
        self.buffers = buffers = buffers or _Buffers()
        self.stride = r = _anchor_stride(self.times)
        rows = r * max(1, PHASE_BLOCK // (r * (len(energies) + width)))
        self.block = max(1, min(rows, len(self.times)))
        shape = (r - 1, len(energies))
        offsets = np.outer(self.times[1:r] - self.times[:1], energies,
                           out=buffers.take("sin_d", shape))
        self.cos_d = np.cos(offsets, out=buffers.take("cos_d", shape))
        self.sin_d = np.sin(offsets, out=offsets)
        self.scratch = buffers.take("scratch", shape)

    def tables(self):
        """(start, tables) for each block in turn: tables[0] and tables[1]
        are the cos and sin rows start, start + 1, ..., in a buffer that
        the next block overwrites."""
        tables = self.buffers.take("tables", (2, self.block, len(self.energies)))
        for start in range(0, len(self.times), self.block):
            rows = min(self.block, len(self.times) - start)
            self.rows(start, *tables[:, :rows])
            yield start, tables[:, :rows]

    def rows(self, start: int, cos: np.ndarray, sin: np.ndarray):
        """Fill ``cos`` and ``sin`` with rows start, start + 1, ... of the
        tables, ``start`` a multiple of the stride."""
        anchors = self.times[start:start + len(cos):self.stride]
        if self.stride == 1:
            np.outer(anchors, self.energies, out=sin)
            np.cos(sin, out=cos)
            np.sin(sin, out=sin)
            return
        shape = (len(anchors), len(self.energies))
        phases = np.outer(anchors, self.energies, out=self.buffers.take("sin_a", shape))
        cos_a = np.cos(phases, out=self.buffers.take("cos_a", shape))
        sin_a = np.sin(phases, out=phases)
        self._fill(cos, cos_a, sin_a, np.subtract)
        self._fill(sin, sin_a, cos_a, np.add)

    def _fill(self, table, first, second, combine):
        """Rows first_a * cD_q (combine) second_a * sD_q of ``table``."""
        r = self.stride
        for a, start in enumerate(range(0, len(table), r)):
            table[start] = first[a]
            rows = table[start + 1:start + r]   # a view: filled in place
            n = len(rows)
            np.multiply(self.cos_d[:n], first[a], out=rows)
            combine(rows, np.multiply(self.sin_d[:n], second[a], out=self.scratch[:n]), out=rows)


def safe_horizon(leads: int, kappa: float) -> float:
    """Largest trusted evolution time for a ``leads``-site hard-wall lead.

    Leaked probability travels at most 2*kappa sites per unit time, so it
    cannot make the round trip off the wall before leads/(2*kappa); the
    factor SAFETY_FACTOR keeps slower wave-packet fronts out too.
    """
    if leads < 0:
        raise ValueError(f"leads must be >= 0, got {leads}")
    return leads / (2.0 * kappa) * SAFETY_FACTOR


def classify_decay(series: SurvivalSeries) -> str:
    """Sort a survival curve into unitary / slow_damping / drop_to_plateau.

    Uses only samples inside the safe horizon.  Unitary means P never
    leaves 1 beyond 1e-4; a drastic drop is P < 0.9 within the first
    quarter of the window followed by a flat (variance < 1e-3), positive
    tail over the last quarter; everything else damps slowly.
    """
    inside = series.times <= series.safe_horizon
    times = series.times[inside]
    values = series.values[inside]
    if len(times) < 50:
        raise ValueError(f"need >= 50 samples within the safe horizon, got {len(times)}")
    if values.min() > 1.0 - 1e-4:
        return UNITARY
    window = times[-1] - times[0]
    first_quarter = values[times <= times[0] + 0.25 * window]
    last_quarter = values[times >= times[-1] - 0.25 * window]
    dropped = first_quarter.min() < 0.9
    flat_tail = last_quarter.var() < 1e-3 and last_quarter.mean() > 0.0
    if dropped and flat_tail:
        return DROP_TO_PLATEAU
    return SLOW_DAMPING
