"""Exact bound states of the side-coupled lattice.

The bound-state wavefunction is a piecewise trial form: plane waves (or
decaying exponentials) on the host chain, standing waves on the side
chains, glued together by site-wise Schrodinger matching at the anchors.
Two families solve the matching problem:

* resonant  -- real momenta on an integer grid, zero amplitude on the
  leads, energy inside the band |E| <= 2*kappa;
* evanescent -- complex momentum k = i*gamma or pi + i*gamma, energy
  outside the band, exponentially decaying lead tails.

Coefficients are recovered as the null space of the 8x8 matching system,
so one code path serves both families and the construction is verified
site by site against the Schrodinger equation.

Evanescent momenta are roots gamma of a transcendental matching
condition, scanned on a fixed gamma grid for two band branches and two
parity signs.  All four scans are evaluated on the whole grid in one call
and all of their sign-change brackets are bisected together; every root
found is then confirmed (or rejected) by the matching system, one root at
a time in scan order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import sign_change_roots
from .graphs import assemble_hamiltonian
from .pilattice import PiLatticeSpec, build_pi_lattice
from .scattering import side_chain_momentum
from .spectra import diagonalize, open_chain_modes

__all__ = [
    "BoundState",
    "LongTimeSurvival",
    "RootRefinementError",
    "resonant_existence",
    "resonant_momenta",
    "resonant_bound_states",
    "evanescent_bound_states",
    "bound_state_wavefunction",
    "central_chain_modes",
    "long_time_survival",
]

RESONANT = "resonant"
EVANESCENT = "evanescent"
SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

# resonant solutions need exact energy coincidence; float noise sits far below
ENERGY_MATCH_TOL = 1e-10
# gamma search window: states localized harder than gamma=5 cannot arise for
# desk-scale hopping ratios
GAMMA_GRID_STEP = 1e-3
GAMMA_MIN = 1e-4
GAMMA_MAX = 5.0
GAMMA_REFINE = 1e-13


class RootRefinementError(RuntimeError):
    """Bisection failed to shrink a sign-change bracket; carries the bracket."""

    def __init__(self, bracket: tuple[float, float]):
        super().__init__(f"root refinement failed in bracket {bracket}")
        self.bracket = bracket


@dataclass(frozen=True)
class BoundState:
    """One exact bound state of the side-coupled lattice.

    ``coefficients`` are (c1, c2, c3, c4, a1, a2, b1, b2) of the piecewise
    form, normalized so the state has unit norm on the *infinite* lattice;
    ``central_amplitudes`` are the (real) values on the central chain in
    path order and ``subgraph_weight`` is the probability carried there.
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
    coefficients: tuple[complex, ...]
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


def resonant_existence(n0: int, length: int) -> list[tuple[int, int]]:
    """Integer pairs (m, n) admitting a resonant state at equal hoppings.

    The host-chain grid momentum n*pi/(length-1) must coincide with the
    side-chain grid momentum m*pi/(n0+1), i.e. (length-1)*m = (n0+1)*n
    with m in [1, n0] and n in [1, length-2].
    """
    return [
        (m, n)
        for m in range(1, n0 + 1)
        for n in range(1, length - 1)
        if (length - 1) * m == (n0 + 1) * n
    ]


def resonant_momenta(n0: int, length: int) -> list[float]:
    """Momenta m*pi/(n0+1) of the resonant pairs from resonant_existence."""
    return [m * np.pi / (n0 + 1) for m, _ in resonant_existence(n0, length)]


def _matching_matrix(k, q, energy, n0, length, kappa, kappa0):
    """Homogeneous matching system for the piecewise bound-state ansatz.

    Unknowns (c1, c2, c3, c4, a1, a2, b1, b2): lead amplitudes c1/c4,
    host-chain interior plane waves c2/c3, side-chain waves a*/b*.  Rows:
    value continuity at the two anchors, side-chain hard walls and joints,
    and the Schrodinger equation at the anchor sites themselves (it holds
    automatically everywhere else by construction of the plane-wave forms).
    """
    ek = np.exp(1j * k)
    ekL = np.exp(1j * k * length)
    eq1 = np.exp(1j * q)
    eqw = np.exp(1j * q * (n0 + 1))
    rows = [
        [-1, ek, 1 / ek, 0, 0, 0, 0, 0],
        [0, ekL, 1 / ekL, -1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, eqw, 1 / eqw, 0, 0],
        [0, 0, 0, -1, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, eqw, 1 / eqw],
        [-kappa * ek - energy, -kappa * ek**2, -kappa / ek**2, 0,
         -kappa0 * eq1, -kappa0 / eq1, 0, 0],
        [0, -kappa * ekL / ek, -kappa * ek / ekL, -kappa * ek - energy,
         0, 0, -kappa0 * eq1, -kappa0 / eq1],
    ]
    return np.array(rows, dtype=complex)


def _central_values(coeff, k, q, n0, length):
    """Amplitudes on the central chain (path order, positions 1..2*n0+length)."""
    c1, c2, c3, c4, a1, a2, b1, b2 = coeff
    vals = []
    for i in range(n0, 0, -1):                        # a_{n0} .. a_1
        vals.append(a1 * np.exp(1j * q * i) + a2 * np.exp(-1j * q * i))
    for j in range(1, length + 1):                    # c_1 .. c_length
        if j == 1:
            vals.append(c1)
        elif j == length:
            vals.append(c4)
        else:
            vals.append(c2 * np.exp(1j * k * j) + c3 * np.exp(-1j * k * j))
    for i in range(1, n0 + 1):                        # b_1 .. b_{n0}
        vals.append(b1 * np.exp(1j * q * i) + b2 * np.exp(-1j * q * i))
    return np.array(vals)


def _build_state(kind, k, gamma, n0, length, kappa, kappa0):
    """Solve the matching system at momentum k; None if it has no null space."""
    q = side_chain_momentum(k, kappa, kappa0)
    energy = float((-2.0 * kappa * np.cos(k)).real)
    system = _matching_matrix(k, q, energy, n0, length, kappa, kappa0)
    _, svals, vh = np.linalg.svd(system)
    if svals[-1] > 1e-8 * svals[0]:
        return None
    coeff = vh[-1].conj()

    values = _central_values(coeff, k, q, n0, length)
    # fix the global phase on the dominant amplitude; bound states of a real
    # symmetric H can always be made real
    pivot = values[int(np.argmax(np.abs(values)))]
    coeff = coeff / (pivot / abs(pivot))
    values = _central_values(coeff, k, q, n0, length)
    if np.max(np.abs(values.imag)) > 1e-9 * np.max(np.abs(values)):
        return None

    c1, c4 = coeff[0], coeff[3]
    if kind == RESONANT:
        if max(abs(c1), abs(c4)) > 1e-10:
            return None
        tail = 0.0
        coeff = (0.0 + 0j, *coeff[1:3], 0.0 + 0j, *coeff[4:])
        values = _central_values(coeff, k, q, n0, length)
    else:
        tail = (abs(c1) ** 2 + abs(c4) ** 2) / (np.exp(2 * gamma) - 1.0)
    central_weight = float(np.sum(np.abs(values) ** 2))
    norm = np.sqrt(central_weight + tail)
    coeff = tuple(c / norm for c in coeff)
    values = values.real / norm
    weight = central_weight / norm**2

    parity = None
    if kind == EVANESCENT:
        c1n, c4n = coeff[0], coeff[3]
        tail_cross = 2.0 * (c1n * c4n).real / (np.exp(2 * gamma) - 1.0)
        mirror = float(values @ values[::-1] + tail_cross)
        if abs(abs(mirror) - 1.0) > 1e-8:
            return None
        parity = SYMMETRIC if mirror > 0 else ANTISYMMETRIC

    return BoundState(
        kind=kind, n0=n0, length=length, kappa=kappa, kappa0=kappa0,
        k=complex(k), q=q, energy=energy, gamma=gamma, parity=parity,
        coefficients=coeff, central_amplitudes=values, subgraph_weight=weight,
    )


def resonant_bound_states(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> list[BoundState]:
    """Bound states with real momenta on the integer grids.

    Host momenta a*pi/(length-1) and side momenta b*pi/(n0+1) are paired
    whenever their band energies coincide to within 1e-10; the resulting
    states carry no lead amplitude (c1 = c4 = 0) and |E| <= 2*kappa.
    """
    states = []
    for a in range(1, length - 1):
        k = a * np.pi / (length - 1)
        for b in range(1, n0 + 1):
            q = b * np.pi / (n0 + 1)
            if abs(kappa * np.cos(k) - kappa0 * np.cos(q)) < ENERGY_MATCH_TOL:
                state = _build_state(RESONANT, k + 0j, 0.0, n0, length, kappa, kappa0)
                if state is not None:
                    states.append(state)
    return states


def _transcendental(gamma, n0, length, kappa, kappa0, branch, sign):
    """Denominator-cleared matching condition for decaying-lead states.

    With zeta(x) = (e^{ix} - e^{-ix})/2, the condition
    kappa*zeta(k)/zeta(k(length-1)) * [e^{-ik(length-1)} +- 1]
        = kappa0*zeta(q*n0)/zeta(q*(n0+1))
    is multiplied through by both denominators.  Along k = i*gamma and
    k = pi + i*gamma the result is purely real when q is off the side
    band and purely imaginary when q is real, so Re + Im extracts the
    live component either way; spurious sign changes at the crossover are
    rejected later by the matching-system null-space gate.  ``gamma`` is
    one value (a float is returned) or an array; ``branch`` (0 or 1) and
    ``sign`` (+1 or -1) are numbers or arrays that broadcast against it.
    """
    k = 1j * np.atleast_1d(gamma)              # one gamma runs as a one-element array
    k = np.where(branch == 1, np.pi + k, k)
    q = side_chain_momentum(k, kappa, kappa0)
    zeta = lambda th: 1j * np.sin(th)
    lead = np.exp(-1j * k * (length - 1)) + sign
    value = kappa * zeta(k) * lead * zeta(q * (n0 + 1)) \
        - kappa0 * zeta(q * n0) * zeta(k * (length - 1))
    value = value.real + value.imag
    return float(value[0]) if np.ndim(gamma) == 0 else value


# the four (branch, sign) scans of the gamma grid, in the order their roots
# are confirmed
SCANS = ((0, +1), (0, -1), (1, +1), (1, -1))


def evanescent_bound_states(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> list[BoundState]:
    """Bound states with complex momentum and energy outside the band.

    Both band branches (k = i*gamma below, k = pi + i*gamma above) and
    both parity signs of the matching condition are scanned on a gamma
    grid, bracketed sign changes are bisected to ~1e-13, and every root is
    confirmed by constructing the full coefficient set, scan by scan in
    the order of SCANS.  A bracket that does not shrink raises
    RootRefinementError, the first in that order.
    """
    branches, signs = np.array(SCANS).T

    def f(gamma, scan):
        return _transcendental(gamma, n0, length, kappa, kappa0, branches[scan], signs[scan])

    grid = np.arange(GAMMA_MIN, GAMMA_MAX, GAMMA_GRID_STEP)
    with np.errstate(over="ignore", invalid="ignore"):
        # rows in SCANS order; the two signs of a branch share all but the last products
        vals = np.concatenate([
            _transcendental(grid, n0, length, kappa, kappa0, branch, np.array([[+1], [-1]]))
            for branch in (0, 1)
        ])
        roots, lo, hi, converged, scan = sign_change_roots(f, grid, vals, GAMMA_REFINE)
    states: list[BoundState] = []
    seen: list[tuple[int, float]] = []
    for gamma, bracket, ok, branch in zip(roots, zip(lo, hi), converged, branches[scan]):
        if not ok:
            raise RootRefinementError(bracket)
        if any(b == branch and abs(g - gamma) < 1e-9 for b, g in seen):
            continue
        k = 1j * gamma if branch == 0 else np.pi + 1j * gamma
        state = _build_state(EVANESCENT, k, gamma, n0, length, kappa, kappa0)
        if state is not None:
            states.append(state)
            seen.append((branch, gamma))
    return sorted(states, key=lambda s: s.energy)


def bound_state_wavefunction(state: BoundState, leads: int) -> np.ndarray:
    """Evaluate a bound state on the ``leads``-site hard-wall truncation.

    Site order matches build_pi_lattice.  The truncation must swallow the
    evanescent tail: the amplitude at the outermost lead site has to fall
    below 1e-12, otherwise the hard wall would distort the state.
    """
    c1, c2, c3, c4, a1, a2, b1, b2 = state.coefficients
    k = state.k
    if state.kind == EVANESCENT:
        wall = max(abs(c1), abs(c4)) * np.exp(-state.gamma * leads)
        if wall >= 1e-12:
            raise ValueError(
                f"evanescent tail {wall:.2e} at the wall; increase leads "
                f"(gamma={state.gamma:.4f} needs roughly {int(28 / state.gamma) + 1})"
            )
    left = [c1 * np.exp(-1j * k * (j - 1)) for j in range(1 - leads, 1)]
    right = [c4 * np.exp(1j * k * (j - state.length)) for j in
             range(state.length + 1, state.length + leads + 1)]
    psi = np.concatenate([left, state.central_amplitudes.astype(complex), right])
    psi = psi / np.linalg.norm(psi)
    if np.max(np.abs(psi.imag)) > 1e-9:
        raise ArithmeticError("bound state failed to realize as a real vector")
    return psi.real


def central_chain_modes(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> np.ndarray:
    """Eigenmodes of the isolated central chain in columns, energies ascending.

    Analytic open-chain modes at equal hoppings; otherwise the eigenvectors
    of the lattice without leads, whose Hamiltonian is bitwise the central
    block of the same lattice with any number of lead sites.
    """
    if kappa == kappa0:
        return np.array([m.amplitudes for m in open_chain_modes(2 * n0 + length, kappa)]).T
    spec = PiLatticeSpec(n0, length, kappa, kappa0, leads=0)
    return diagonalize(assemble_hamiltonian(build_pi_lattice(spec).graph))[1]


def long_time_survival(
    n0: int,
    length: int,
    kappa: float = 1.0,
    kappa0: float = 1.0,
    mode: int = 1,
    states: list[BoundState] | None = None,
) -> LongTimeSurvival:
    """Stationary survival probability of central-chain eigenmode ``mode``.

    After the leaked part disperses, only bound states keep probability in
    the subgraph: P_inf = sum_b |<b|psi0>|^2 * w_b with w_b each bound
    state's weight inside the central chain.  Resonant initial modes give
    exactly 1.  ``states`` passes bound states already solved for this
    lattice (resonant, then evanescent, as the solvers return them);
    otherwise they are solved here.
    """
    lam = 2 * n0 + length
    if not 1 <= mode <= lam:
        raise ValueError(f"mode must be in [1, {lam}], got {mode}")
    psi0 = central_chain_modes(n0, length, kappa, kappa0)[:, mode - 1]
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
    return LongTimeSurvival(mode=mode, p_infinity=total, contributions=contributions)
