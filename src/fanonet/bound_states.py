"""Exact bound states of the side-coupled lattice, in closed form.

The lattice with its leads is mirror-symmetric (a_i <-> b_i,
c_j <-> c_{length+1-j}), so every bound state is even (s = +1) or odd
(s = -1) under the mirror.  Write z = e^{ik}, E = -kappa*(z + 1/z),
x = -E/(2*kappa0) and U_n for the Chebyshev polynomials of the second
kind: a side chain ending in a hard wall carries U_{n0-i}(x) on its site
i.  Two families solve the Schrodinger equation:

* resonant -- real host momentum k = a*pi/(length-1) that a side chain
  shares: the host chain carries sin(k(j-1)), which vanishes at both
  anchors, so no amplitude reaches the leads; energy inside the band
  |E| <= 2*kappa;
* evanescent -- real z with 0 < |z| < 1 (k = i*gamma below the band,
  k = pi + i*gamma above it) and lead tails psi(anchor)*z^j.  Mirror
  sector s holds one exactly where

      kappa*(1 - z^2)*U_{n0}(x) = kappa0*z*(1 + s*z^{length-1})*U_{n0-1}(x),

  and the state is U_{n0}(x)*(z^{j-1} + s*z^{length-j}) on c_j,
  (1 + s*z^{length-1})*U_{n0-i}(x) on a_i and s times that on b_i.
  The difference of the two sides, f_s (``_sector_function``), gives on
  |z| = 1 the sector's scattering amplitude (``scattering``): bound
  states and scattering rest on one function.

No power of z has a negative exponent, so nothing overflows at any length,
and the parity is known by construction.  The roots gamma are bracketed
on a grid from gamma = 0 to just past the Gershgorin bound on |E|, in
four scans (the sign of z and s) evaluated at once, and all brackets are
refined together by ``sign_change_roots``, which the reflection-zero
scan of ``scattering`` shares: Illinois (modified regula falsi) steps,
each one evaluation of f per bracket, with a bisection after any three
steps that did not halve a bracket, until every bracket is narrower than
its tolerance.  Every state is checked site by site
against the Schrodinger equation of the infinite lattice; one that
fails, or a bracket that does not shrink, raises ArithmeticError.  Each public function first checks its lattice
parameters through ``PiLatticeSpec``, whose GraphSpecError names the one
that no lattice can have.

The isolated central chain is mirror-symmetric too: its mode n (energies
ascending) lies in sector (-1)^(n-1), so ``long_time_survival`` builds its
initial mode in closed form at equal hoppings and otherwise takes the one
eigenpair it needs of the half-size block of the chain that holds it, a
tridiagonal matrix folded from the chain's hopping profile
(``spectra.fold_chain``), in O(length) time and memory
(``spectra.tridiagonal_eigenpair``): no lattice graph or dense block is
built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .pilattice import PiLatticeSpec
from .spectra import fold_chain, mirror_mode, open_chain_mode, tridiagonal_eigenpair, unfold

__all__ = [
    "BoundState",
    "LongTimeSurvival",
    "resonant_bound_states",
    "evanescent_bound_states",
    "long_time_survival",
]

RESONANT = "resonant"
EVANESCENT = "evanescent"
SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

# resonant solutions need exact energy coincidence; float noise sits far below
ENERGY_MATCH_TOL = 1e-10
GAMMA_GRID_STEP = 1e-3
# the gamma grid's second point, after gamma = 0
GAMMA_MIN = 1e-4
GAMMA_REFINE = 1e-13
# refinement steps after which a bracket that has not shrunk is a failure
MAX_REFINE_STEPS = 200
# rounding allowance of the site-by-site check, in units of ||H||_inf
# times the largest term of the closed form (derived in CHANGES.md)
RESIDUAL_ROUNDING = 64 * np.finfo(float).eps

# the four gamma scans, (sign of z, mirror sector s), in the order their
# roots are built
SCANS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


@dataclass(frozen=True)
class BoundState:
    """One exact bound state of the side-coupled lattice.

    ``central_amplitudes`` are the (real) values on the central chain in
    path order, normalized so the state has unit norm on the *infinite*
    lattice, and ``subgraph_weight`` is the probability carried there.
    ``z`` is the ratio of successive lead amplitudes, e^{ik} for an
    evanescent state and 0 for a resonant one, whose leads are empty.
    ``gamma`` is Im(k) (zero for resonant states).
    """

    kind: str
    n0: int
    length: int
    kappa: float
    kappa0: float
    k: complex
    q: complex
    energy: float
    gamma: float
    parity: str | None
    z: float
    central_amplitudes: np.ndarray
    subgraph_weight: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k_re": float(self.k.real),
            "k_im": float(self.k.imag),
            "q_re": float(self.q.real),
            "q_im": float(self.q.imag),
            "E": float(self.energy),
            "parity": self.parity,
            "gamma": float(self.gamma),
        }


@dataclass(frozen=True)
class LongTimeSurvival:
    """Stationary survival probability and its per-bound-state breakdown."""

    mode: int
    p_infinity: float
    contributions: list[dict]


def _gershgorin(kappa: float, kappa0: float) -> float:
    """Largest absolute row sum of the infinite lattice's H: a bound on |E|."""
    return max(2 * kappa + kappa0, 2 * kappa0)


def _chebyshev(x, n: int) -> np.ndarray:
    """U_0(x) .. U_n(x) stacked along a new first axis (n >= 1)."""
    u = [np.ones_like(x), 2 * x]
    for _ in range(n - 1):
        u.append(2 * x * u[-1] - u[-2])
    return np.stack(u)


def _chebyshev_pair(x, n: int):
    """U_n(x) and U_{n-1}(x) (n >= 1), bit for bit those of ``_chebyshev``:
    the same recurrence, keeping only its last two terms."""
    two_x = 2 * x
    before, top = np.ones_like(x), two_x
    for _ in range(n - 1):
        before, top = top, two_x * top - before
    return top, before


def _sector_function(z, one_minus_z2, host, u_top, u_next, kappa, kappa0):
    """f_s = kappa*(1 - z^2)*U_{n0}(x) - kappa0*z*(1 + s*z^{length-1})*U_{n0-1}(x),
    the function of mirror sector s whose zeros inside |z| < 1 are its
    evanescent states and whose values on |z| = 1 give its reflection
    amplitude (``scattering``).  Each caller forms the wings
    ``one_minus_z2`` = 1 - z^2 and ``host`` = 1 + s*z^{length-1} its own
    way, and passes u_top = U_{n0}(x), u_next = U_{n0-1}(x)."""
    return kappa * one_minus_z2 * u_top - kappa0 * z * host * u_next


def side_chain_momentum(k, kappa: float, kappa0: float):
    """Side-chain momentum q of matching energy: cos q = (kappa/kappa0) cos k.

    ``k`` is one momentum (q is then a Python complex) or an array of
    them, real or complex (bound states have k = i*gamma or pi + i*gamma).
    """
    q = np.arccos(np.asarray(kappa / kappa0 * np.cos(k), dtype=complex))
    return complex(q) if q.ndim == 0 else q


def _state(kind, k, gamma, parity, z, values, tail, tolerance, n0, length, kappa, kappa0):
    """BoundState from unnormalized central-chain amplitudes ``values`` in
    path order, whose two leads together carry ``tail``.

    The amplitudes must solve the Schrodinger equation of the infinite
    lattice on every central site, each lead entering its anchor as
    -kappa*z*psi(anchor), to within ``tolerance``; ArithmeticError
    otherwise.
    """
    energy = float((-2.0 * kappa * np.cos(k)).real)
    hop = PiLatticeSpec(n0, length, kappa, kappa0).central_hoppings
    h_psi = np.zeros_like(values)
    h_psi[:-1] -= hop * values[1:]
    h_psi[1:] -= hop * values[:-1]
    anchors = [n0, n0 + length - 1]
    h_psi[anchors] -= kappa * z * values[anchors]
    residual = np.max(np.abs(h_psi - energy * values))
    if not residual <= tolerance:
        raise ArithmeticError(
            f"{kind} state at E={energy!r} misses the Schrodinger equation "
            f"by {residual:.3e} (bound {tolerance:.3e})"
        )
    central = float(values @ values)
    norm_sq = central + tail
    return BoundState(
        kind=kind, n0=n0, length=length, kappa=kappa, kappa0=kappa0,
        k=complex(k), q=side_chain_momentum(k, kappa, kappa0), energy=energy, gamma=gamma,
        parity=parity, z=z, central_amplitudes=values / np.sqrt(norm_sq),
        subgraph_weight=central / norm_sq,
    )


def resonant_bound_states(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> list[BoundState]:
    """Bound states with real momenta on the integer grids.

    Host momenta a*pi/(length-1) and side momenta b*pi/(n0+1) are paired
    whenever their band energies coincide to within 1e-10.  The host chain
    carries sin(k(j-1)), zero at both anchors, so the leads stay empty and
    |E| <= 2*kappa; each side chain carries sin(q*i), scaled by its anchor
    equation kappa0*psi(a_1) = -kappa*psi(c_2).
    """
    PiLatticeSpec(n0, length, kappa, kappa0)
    # every coinciding (a, b) from one comparison of the two cosine grids,
    # in a-then-b order
    host_cos = np.cos(np.arange(1, length - 1) * np.pi / (length - 1))
    side_cos = np.cos(np.arange(1, n0 + 1) * np.pi / (n0 + 1))
    pairs = np.nonzero(np.abs(kappa * host_cos[:, None] - kappa0 * side_cos) < ENERGY_MATCH_TOL)
    states = []
    for a, b in zip(*((index + 1).tolist() for index in pairs)):
        k = a * np.pi / (length - 1)
        q = b * np.pi / (n0 + 1)
        mismatch = abs(kappa * np.cos(k) - kappa0 * np.cos(q))
        host = np.sin(k * np.arange(length))
        host[[0, -1]] = 0.0                         # k*(length-1) = a*pi
        side = -kappa / kappa0 * np.sin(q * np.arange(1, n0 + 1)) / np.sin(q)
        values = np.concatenate([host[1] * side[::-1], host, host[-2] * side])
        # rounding, that of the sine arguments (3*eps*pi per site of
        # the chains, see CHANGES.md) and the energy mismatch
        scale = np.max(np.abs(values))
        rounding = RESIDUAL_ROUNDING + 32 * np.finfo(float).eps * (length + n0)
        tolerance = (rounding * _gershgorin(kappa, kappa0) + 2 * mismatch) * scale
        states.append(_state(RESONANT, complex(k), 0.0, None, 0.0, values, 0.0,
                             tolerance, n0, length, kappa, kappa0))
    return states


def _sector_condition(gamma, n0, length, kappa, kappa0, sign_z, s):
    """kappa*(1 - z^2)*U_{n0}(x) - kappa0*z*(1 + s*z^{length-1})*U_{n0-1}(x)
    at z = sign_z * e^{-gamma}: zero exactly where mirror sector ``s``
    holds an evanescent state.  ``gamma`` is one value or an array;
    ``sign_z`` and ``s`` broadcast against it."""
    z = sign_z * np.exp(-gamma)
    u_top, u_next = _chebyshev_pair(kappa * (z + 1 / z) / (2 * kappa0), n0)
    return _sector_function(z, 1 - z * z, 1 + s * z ** (length - 1), u_top, u_next,
                            kappa, kappa0)


def _evanescent_state(gamma, sign_z, s, spread, n0, length, kappa, kappa0):
    """The closed-form state of sector ``s`` at a root ``gamma``, whose
    sector condition is at most ``spread`` in size there."""
    z = sign_z * np.exp(-gamma)
    u = _chebyshev(kappa * (z + 1 / z) / (2 * kappa0), n0)
    side = (1 + s * z ** (length - 1)) * u[:n0]      # a_{n0} .. a_1
    powers = z ** np.arange(length)
    host = u[n0] * (powers + s * powers[::-1])       # c_1 .. c_length
    values = np.concatenate([side, host, s * side[::-1]])
    tail = 2 * host[0] ** 2 * z * z / (1 - z * z)
    k = 1j * gamma if sign_z > 0 else np.pi + 1j * gamma
    parity = SYMMETRIC if s > 0 else ANTISYMMETRIC
    # rounding in terms no larger than 2*max|U_m|, plus the anchor
    # residual, which is the sector condition over z
    tolerance = RESIDUAL_ROUNDING * _gershgorin(kappa, kappa0) * 2 * np.max(np.abs(u)) \
        + spread / abs(z)
    return _state(EVANESCENT, k, gamma, parity, z, values, tail, tolerance,
                  n0, length, kappa, kappa0)


def sign_change_roots(f, grid: np.ndarray, vals: np.ndarray, tol: float):
    """Roots bracketed by the sign changes along the rows of ``vals``.

    Row s of ``vals`` holds function number s (a scan) evaluated on the
    whole ``grid`` at once.  Each pair of neighbouring grid points with
    finite values of opposite sign is a bracket.  The brackets of all
    scans are refined together by the Illinois rule (Dowell and Jarratt,
    BIT 11, 168 (1971)), ``f(x, scan)`` evaluating scan[i] at x[i].  Each
    step evaluates f once per bracket, at the secant point of its ends and
    their stored values (the midpoint where that point is not finite), kept
    at least 0.45*tol inside both ends; the point replaces the end whose
    value has its sign, and an end kept on two steps in a row has its
    stored value halved.  After three steps that did not halve a bracket
    the next step bisects it, so it halves at least once in every four
    steps.  A bracket stops once hi - lo < tol, or closes at a point where
    f is exactly 0.  Once a root lies within 0.45*tol of an end, the next
    point lands beyond it, and the bracket is then below tol.

    Returns arrays over the brackets, scan by scan and in grid order within
    a scan: the midpoint of the final bracket, its ends, and its scan.
    ArithmeticError, naming the first such bracket in that order, if a
    bracket has not shrunk below ``tol`` after MAX_REFINE_STEPS steps.
    """
    scan, index = np.nonzero(
        (vals[:, :-1] * vals[:, 1:] < 0) & np.isfinite(vals[:, :-1]) & np.isfinite(vals[:, 1:])
    )
    lo, hi = grid[index], grid[index + 1]
    margin = 0.45 * tol
    # per live bracket: its index, its ends and their stored values,
    # whether f < 0 at lo, the end the last step moved (0 none yet, 1 lo,
    # 2 hi), whether the next step bisects, its widths 1, 2, 3 steps back
    live = np.arange(len(index))
    a, b, fa, fb = lo.copy(), hi.copy(), vals[scan, index], vals[scan, index + 1]
    negative = fa < 0
    moved = np.zeros(len(index), dtype=np.int8)
    bisect = np.zeros(len(index), dtype=bool)
    back = [b - a] + [np.full(len(index), np.inf)] * 2
    for _ in range(MAX_REFINE_STEPS):
        if live.size == 0:
            break
        # the caller may run under over="raise" (the gamma scan does): a
        # secant point that overflows takes the midpoint instead
        with np.errstate(all="ignore"):
            x = a - fa * (b - a) / (fb - fa)
        midpoint = bisect | ~np.isfinite(x)
        if midpoint.any():
            x = np.where(midpoint, 0.5 * (a + b), x)
        x = np.minimum(np.maximum(x, a + margin), b - margin)
        fx = f(x, scan[live])
        lower = (fx < 0) == negative                    # x replaces lo
        step = 2 - lower
        halve = np.where(step == moved, 0.5, 1.0)       # the other end, kept twice
        fa, fb = np.where(lower, fx, halve * fa), np.where(lower, halve * fb, fx)
        a, b = np.where(lower, x, a), np.where(lower, b, x)
        closed = fx == 0
        if closed.any():
            a, b = np.where(closed, x, a), np.where(closed, x, b)
        width = b - a
        bisect = width > 0.5 * back[2]
        back, moved = [width, *back[:2]], step
        done = (width < tol) | closed
        if done.any():
            lo[live[done]], hi[live[done]] = a[done], b[done]
            keep = ~done
            live, a, b, fa, fb, negative, moved, bisect = (
                v[keep] for v in (live, a, b, fa, fb, negative, moved, bisect))
            back = [w[keep] for w in back]
    if live.size:
        lo[live], hi[live] = a, b
        bracket = [float(lo[live[0]]), float(hi[live[0]])]
        raise ArithmeticError(f"root bisection left the bracket {bracket} wider than {tol!r} "
                              f"after {MAX_REFINE_STEPS} steps")
    return 0.5 * (lo + hi), lo, hi, scan


def evanescent_bound_states(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> list[BoundState]:
    """Bound states with complex momentum and energy outside the band.

    Each of the four SCANS evaluates its sector condition on a gamma grid,
    0 and then GAMMA_MIN to just past acosh(G/(2*kappa)) in steps of
    GAMMA_GRID_STEP, G the Gershgorin bound on |E|; a condition exactly 0
    at gamma = 0 (the trivial roots, no states) takes the sign of its slope
    there.  Bracketed sign changes are refined by Illinois steps until each
    bracket is narrower than GAMMA_REFINE = 1e-13 (``sign_change_roots``)
    and every root gives one state, so a gamma below about 1e-11 may be off
    by over 1%: one ulp above kappa0 = 2/3 at (n0, length) = (1, 10) a pair
    reads gamma ~ 4.7e-14.  A bracket that does not shrink raises
    ArithmeticError.
    """
    PiLatticeSpec(n0, length, kappa, kappa0)
    sign_z, sector = np.array(SCANS).T

    def f(gamma, scan):
        return _sector_condition(gamma, n0, length, kappa, kappa0, sign_z[scan], sector[scan])

    # two grid steps past the bound put a grid point beyond every root
    top = np.arccosh(_gershgorin(kappa, kappa0) / (2 * kappa)) + 2 * GAMMA_GRID_STEP
    grid = np.concatenate([[0.0], np.arange(GAMMA_MIN, top, GAMMA_GRID_STEP)])
    # a value that overflows raises instead of silently losing its bracket
    with np.errstate(over="raise", invalid="raise"):
        vals = f(grid, np.arange(len(SCANS))[:, None])
        # a condition exactly 0 at gamma = 0 (z = 1 in the odd sector, z = -1
        # when s = (-1)^length) takes the sign of its slope there, 2*kappa*U_{n0}
        # + kappa0*z*(1 + length*w)*U_{n0-1} at x = kappa*z/kappa0, w = s*z^(length-1)
        w = sector * sign_z ** (length - 1)
        u = _chebyshev(kappa * sign_z / kappa0, n0)
        slope = 2 * kappa * u[n0] + kappa0 * sign_z * (1 + length * w) * u[n0 - 1]
        vals[:, 0] = np.where(vals[:, 0] == 0, slope, vals[:, 0])
        roots, lo, hi, scan = sign_change_roots(f, grid, vals, GAMMA_REFINE)
        # the condition at the root lies between its values at the bracket
        # ends, which have opposite signs: both ends in one evaluation
        ends = f(np.concatenate([hi, lo]), np.concatenate([scan, scan]))
        spread = np.abs(ends[:len(scan)] - ends[len(scan):])
    states = [_evanescent_state(gamma, sign_z[index], sector[index], width,
                                n0, length, kappa, kappa0)
              for gamma, index, width in zip(roots, scan, spread)]
    return sorted(states, key=lambda s: s.energy)


def long_time_survival(
    n0: int,
    length: int,
    kappa: float = 1.0,
    kappa0: float = 1.0,
    mode: int = 1,
    states: list[BoundState] | None = None,
) -> LongTimeSurvival:
    """Stationary survival probability of central-chain eigenmode ``mode``,
    which lies in mirror sector (-1)^(mode-1) (``mirror_mode``).

    After the leaked part disperses, only bound states keep probability in
    the subgraph: P_inf = sum_b |<b|psi0>|^2 * w_b with w_b each bound
    state's weight inside the central chain.  Resonant initial modes give
    exactly 1.  ``states`` passes bound states already solved for this
    lattice (resonant, then evanescent, as the solvers return them);
    otherwise they are solved here.

    The mode psi0 is the analytic open-chain mode at equal hoppings, else
    the eigenpair of its sector's tridiagonal block that ``mirror_mode``
    names, the block folded from the chain's hoppings (``fold_chain``), from
    ``tridiagonal_eigenpair`` (O(lambda), certified: ArithmeticError if a
    certificate fails).  ValueError for a mode that is not an integer (a
    bool included), checked first, or one outside [1, lambda];
    ArithmeticError for a P_inf that is not finite or lies outside [0, 1]
    by more than its rounding allowance.
    """
    # bool is an Integral, but True is no mode number
    if isinstance(mode, bool) or not isinstance(mode, numbers.Integral):
        raise ValueError(f"mode must be an integer, got {mode!r}")
    spec = PiLatticeSpec(n0, length, kappa, kappa0)
    lam = spec.central_size
    if not 1 <= mode <= lam:
        raise ValueError(f"mode must be in [1, {lam}], got {mode}")
    mode = int(mode)
    if kappa == kappa0:                 # the analytic mode, O(lam)
        psi0 = open_chain_mode(lam, mode, kappa).amplitudes
    else:                               # one eigenpair of the mode's sector, O(lam)
        sector, column = mirror_mode(mode)
        diagonal, off_diagonal = fold_chain(spec.central_hoppings)[0 if sector > 0 else 1]
        psi0 = unfold(tridiagonal_eigenpair(diagonal, off_diagonal, column)[1], sector, lam)
    if states is None:
        states = resonant_bound_states(n0, length, kappa, kappa0) + \
            evanescent_bound_states(n0, length, kappa, kappa0)

    contributions = []
    total = 0.0
    for state in states:
        overlap = float(state.central_amplitudes @ psi0)
        share = overlap**2 * state.subgraph_weight
        total += share
        entry = state.to_json_dict()
        entry["overlap_sq"] = overlap**2
        entry["weight"] = state.subgraph_weight
        entry["contribution"] = share
        contributions.append(entry)
    # the states are orthonormal on the infinite lattice, so by Bessel's
    # inequality P_inf <= sum_b |<b|psi0>|^2 <= 1; rounding allowance of
    # the overlaps, norms and sum derived in CHANGES.md
    slack = 4 * (lam + len(states)) * np.finfo(float).eps
    if not -slack <= total <= 1 + slack:
        raise ArithmeticError(f"long-time survival of mode {mode} is {float(total)!r}, "
                              f"not a probability (rounding allowance {slack:.3e})")
    return LongTimeSurvival(mode=mode, p_infinity=total, contributions=contributions)
