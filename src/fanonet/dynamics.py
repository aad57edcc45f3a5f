"""Unitary time evolution and subgraph survival probability.

Evolution goes through SpectralPropagator alone: one spectral
decomposition, reused for every requested time and every initial state,
so the propagation is exactly unitary at arbitrary t.
``SpectralPropagator(energies, rows)`` takes all N energies and the
eigenvectors' rows on the S sites that states start on and are observed
at, which is all that their evolution there needs (all N rows of a dense
eigensolve make S = N).  Per block of initial
states it forms a phase table cos(tE), sin(tE) of T times by N energies
and two real GEMMs of O(T * N * S * M) for M states: amplitudes are formed
only on the observed sites.  The phase table comes from angle addition
(``_PhaseTable``): on a grid where every t_{a*r+q} is t_{a*r} + (t_q - t_0)
to within rounding, as on any uniform grid, it takes sin and cos of
T/r anchor rows and r offset rows, r = isqrt(T), so (T/r + r) * N of each
instead of T * N; any other grid takes r = 1, the plain table.

The pi lattice is mirror-symmetric and its central chain's mode n lies in
mirror sector (-1)^(n-1) (``spectra.mirror_mode``), so ``fanonet evolve``
solves one half-size block per sector that holds a requested mode.  Its
lead is a uniform hard-wall chain, given by its length and hopping, joined
by one bond to the chain's own sector block, which ``spectra.fold_chain``
writes from the chain's hopping profile; ``spectra.lead_eigenpairs``
diagonalizes that S-site rest, whose eigenvectors are the chain's modes
of the sector, and gives the block's energies and its eigenvectors' rows
on the rest from one secular equation, with no dense eigensolve of the
block, and certifies them: an ArithmeticError, exit 5 in the CLI, if a
certificate fails.  Hard-wall truncated leads stay faithful to the
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
        through the same GEMMs on interleaved parts) on the (T, N) tables
        of ``_PhaseTable``, built one at a time.
        Memory is O(T * N + T * S * M + N * S * M); callers batching modes
        keep S * M <= min(N, T) to stay within one phase table.
        """
        psi0 = np.asarray(psi0)
        columns = psi0.reshape(len(psi0), -1)
        norms = np.linalg.norm(columns, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"initial state {bad} norm {norms[bad]:.6f} != 1")
        coeff = self.vectors.T @ columns
        b = np.multiply(coeff[:, :, None], self.vectors.T[:, None, :], order="C")
        flat = b.reshape(len(b), -1)
        if np.iscomplexobj(flat):
            flat = flat.view(np.float64)
        # each (T, N) table is freed after its GEMM, before the next is filled
        phases = _PhaseTable(times, self.energies)
        re = (phases.cos() @ flat).view(b.dtype)
        im = (phases.sin() @ flat).view(b.dtype)
        del phases, b, flat     # free the phase factors and the (N, S*M) table
        amps = re - 1j * im
        return amps.reshape(len(times), *psi0.shape[1:], len(self.vectors))


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
    """cos(t_j E_k) and sin(t_j E_k) on a time grid, one (T, N) table at a
    time, by angle addition.

    Row j = a*r + q (``_anchor_stride``) is the anchor phase t_{a*r} E plus
    the offset phase (t_q - t_0) E: cos = cA cD - sA sD and
    sin = sA cD + cA sD, one rounding per product and one per sum.  Only
    the T/r anchor rows and r - 1 offset rows go through sin and cos; row
    q = 0 of each anchor is that anchor's own value, so at r = 1 the tables
    are ``np.cos(np.outer(times, E))`` and ``np.sin(...)`` bit for bit.
    """

    def __init__(self, times: Sequence[float], energies: np.ndarray):
        times = np.asarray(times, dtype=float)
        self.rows = len(times)
        self.stride = r = _anchor_stride(times)
        anchors = np.outer(times[::r], energies)
        offsets = np.outer(times[1:r] - times[:1], energies)
        self.cos_a, self.sin_a = np.cos(anchors), np.sin(anchors, out=anchors)
        self.cos_d, self.sin_d = np.cos(offsets), np.sin(offsets, out=offsets)

    def cos(self) -> np.ndarray:
        return self._fill(self.cos_a, self.sin_a, np.subtract)

    def sin(self) -> np.ndarray:
        return self._fill(self.sin_a, self.cos_a, np.add)

    def _fill(self, first, second, combine):
        """Rows first_a * cD_q (combine) second_a * sD_q; read-only, since at
        r = 1 it is ``first`` itself, every row an anchor."""
        r = self.stride
        if r == 1:
            return first
        table = np.empty((self.rows, first.shape[1]))
        for a, start in enumerate(range(0, self.rows, r)):
            table[start] = first[a]
            rows = table[start + 1:start + r]   # a view: filled in place
            n = len(rows)
            np.multiply(self.cos_d[:n], first[a], out=rows)
            combine(rows, self.sin_d[:n] * second[a], out=rows)
        return table


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
