"""Transmission through the side-coupled lattice, analytic and numeric.

The analytic route evaluates the closed-form transmission amplitude and
probability obtained from the piecewise scattering ansatz; the reflection
amplitude, which has no closed form, is recovered by solving the four
matching conditions directly.  ``numeric_scatter_oracle`` is a fully
independent check: it solves the Schrodinger system of the truncated
lattice with plane-wave boundary rows and never touches the formulas.  It
reads only the lattice graph, eliminates each side branch from its leaves
inward into a self-energy on its anchor and runs one recurrence along the
host chain, so it costs O(N) time and memory for N sites (the recursive
Green's-function / decimation idea: MacKinnon, Z. Phys. B 59, 385 (1985);
Sancho et al., J. Phys. F 15, 851 (1985)).

One private evaluation serves every entry point: it runs the closed forms
and the 4x4 matching systems (one stacked solve) on an array of momenta,
takes the degenerate limit element by element, and applies each check
(band, singular system, formula against matching t, phase, realness,
dual path, flux) once to the whole array.  ``scattering_point``,
``transmission_amplitude`` and ``transmission_probability`` run it on a
one-element array (numpy's scalar arithmetic rounds complex products and
powers differently from its array loops), so ``transmission_sweep``
equals a loop of ``scattering_point`` calls bit for bit and raises the
error that loop would raise first.  The reflection-zero scan brackets its
roots from one evaluation on the grid and bisects all brackets together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._numerics import sign_change_roots
from .graphs import LatticeGraph
from .pilattice import PiLatticeSpec, build_pi_lattice

__all__ = [
    "ScatteringPoint",
    "ZeroCatalog",
    "ZeroEntry",
    "PeakDipReport",
    "side_chain_response",
    "transmission_amplitude",
    "transmission_probability",
    "scattering_point",
    "transmission_sweep",
    "single_side_chain_transmission",
    "common_zeros",
    "l_dependent_reflection_zeros",
    "numeric_scatter_oracle",
    "peak_dip_report",
]

FLUX_TOL = 1e-10
# |alpha| or |beta| below this (times kappa scale) counts as an exact zero:
# the grid momenta are floats, so analytically-zero factors appear as noise
SNAP_TOL = 1e-12
# reflection-zero scan: grid resolution and exclusion margin at band edges
K_GRID_POINTS = 2000
K_EDGE_MARGIN = 1e-3
K_REFINE = 1e-13
# the checks of one momentum, in the order they apply: name -> error, message
_CHECKS = {
    "band": (ValueError, "incident momentum must lie in (0, pi), got {k}"),
    "singular": (np.linalg.LinAlgError, "matching system singular at k={k}"),
    "formula": (ArithmeticError,
                "formula and matching transmission disagree at k={k}: {t} vs {t_match}"),
    "phase": (ArithmeticError, "alpha and beta are neither both real nor both imaginary"),
    "real": (ArithmeticError, "transmission lost realness at k={k}"),
    "dual": (ArithmeticError, "dual-path identity violated at k={k}: T={T}, |t|^2={abs_t2}"),
    "flux": (ArithmeticError, "flux not conserved at k={k}: T+R={flux}"),
}


@dataclass(frozen=True)
class ScatteringPoint:
    """Scattering data at one incident momentum k in (0, pi)."""

    k: float
    energy: float
    q: complex
    t: complex
    r: complex
    transmission: float
    reflection: float
    flag: str | None = None


@dataclass(frozen=True)
class ZeroEntry:
    k: float
    energy: float
    order: int              # grid integer n behind the zero (0 for L-dependent)
    provenance: str         # common-alpha | common-beta | L-dependent


@dataclass(frozen=True)
class ZeroCatalog:
    """Length-independent zeros: k_min kills T, k_max kills R."""

    k_min: list[ZeroEntry]
    k_max: list[ZeroEntry]
    dropped: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        entry = lambda z: {
            "k": z.k, "E": z.energy, "n": z.order, "provenance": z.provenance,
        }
        return {
            "k_min": [entry(z) for z in self.k_min],
            "k_max": [entry(z) for z in self.k_max],
            "dropped": self.dropped,
        }


def side_chain_momentum(k, kappa: float, kappa0: float):
    """Side-chain momentum q of matching energy: cos q = (kappa/kappa0) cos k.

    ``k`` is one momentum (q is then a Python complex) or an array of
    them, real or complex (the bound-state solver takes k = i*gamma).
    """
    q = np.arccos(np.asarray(kappa / kappa0 * np.cos(k), dtype=complex))
    return complex(q) if q.ndim == 0 else q


def side_chain_response(k, n0: int, kappa: float, kappa0: float):
    """Side-chain momentum q and the pair (alpha, beta) controlling the
    scattering: alpha = kappa*sin(q*(n0+1)) vanishes at total reflection,
    beta = kappa0*sin(q*n0) at resonant transmission.

    q solves the energy match cos q = (kappa/kappa0) cos k and turns
    complex when the argument leaves [-1, 1]; alpha and beta are then pure
    imaginary and every downstream formula remains valid.  ``k`` is one
    momentum or an array of them.
    """
    q = side_chain_momentum(k, kappa, kappa0)
    return q, kappa * np.sin(q * (n0 + 1)), kappa0 * np.sin(q * n0)


def _check_band(k: float):
    if not 0.0 < k < np.pi:
        raise ValueError(_CHECKS["band"][1].format(k=k))


def _snapped_response(k, n0, kappa, kappa0):
    """(q, alpha, beta, degenerate) at the momenta of the array ``k``, with
    the degenerate momenta, where alpha and beta vanish together (q -> 0 or
    pi), given the directional limit along real k.

    Both factors go through zero linearly in q, so their ratio survives:
    each is replaced by its derivative at the degenerate q.
    """
    q, alpha, beta = side_chain_response(k, n0, kappa, kappa0)
    scale = kappa + kappa0
    degenerate = (np.abs(alpha) < SNAP_TOL * scale) & (np.abs(beta) < SNAP_TOL * scale)
    q_star = np.where(np.abs(q) < np.pi / 2, 0.0, np.pi)
    alpha = np.where(degenerate, kappa * (n0 + 1) * np.cos(q_star * (n0 + 1)), alpha)
    beta = np.where(degenerate, kappa0 * n0 * np.cos(q_star * n0), beta)
    return q, alpha, beta, degenerate


def _amplitude_from(alpha, beta, k, length):
    s = np.sin(k)
    a2s2 = alpha**2 * s**2
    den = a2s2 - 1j * alpha * beta * s \
        + (beta / 2.0) ** 2 * (np.exp(2j * k * (length - 1)) - 1.0)
    return a2s2 / den


def _reflection_from(alpha, beta, k, length):
    """Transmission and reflection amplitudes from the four matching
    conditions at the anchors, one stacked 4x4 solve over the momenta, and
    the mask of momenta whose system is singular (t and r are nan there).

    Unknowns (A, B, r, t): interior plane waves, reflection, transmission.
    The equations are homogeneous of degree one in (alpha, beta), so they
    also serve the degenerate limit.
    """
    ek = np.exp(1j * k)
    eth = np.exp(1j * (k * (length - 1)))
    system = np.zeros(k.shape + (4, 4), dtype=complex)
    system[:, 0, :3] = [1, 1, -1]
    system[:, 1, 0] = -alpha * ek
    system[:, 1, 1] = -alpha / ek
    system[:, 1, 2] = alpha / ek - beta
    system[:, 2, 0] = eth
    system[:, 2, 1] = 1 / eth
    system[:, 2, 3] = -eth
    system[:, 3, 0] = -alpha * eth / ek
    system[:, 3, 1] = -alpha * ek / eth
    system[:, 3, 3] = alpha * eth / ek - beta * eth
    rhs = np.zeros(k.shape + (4, 1), dtype=complex)
    rhs[:, 0, 0] = 1
    rhs[:, 1, 0] = beta - alpha * ek
    singular = np.zeros(k.shape, dtype=bool)
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:               # one singular system fails the stack
        solution = np.full_like(rhs, np.nan)
        for i in range(len(k)):
            try:
                solution[i] = np.linalg.solve(system[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    return solution[:, 3, 0], solution[:, 2, 0], singular


def _probability_from(alpha, beta, k, length, delta):
    """T from the closed real form, and whether both of its factors came out
    real (within 1e-9)."""
    s = np.sin(k)
    quartic = alpha**4 * s**4
    prefactor = (beta / 2.0) ** 2 * (beta**2 + 4.0 * alpha**2 * s**2)
    lost = (np.abs(quartic.imag) > 1e-9 * np.maximum(np.abs(quartic), 1e-300)) | \
        (np.abs(prefactor.imag) > 1e-9 * np.maximum(np.abs(prefactor), 1e-300))
    a4, b2 = quartic.real, prefactor.real
    return a4 / (a4 + b2 * np.sin(k * (length - 1) - delta) ** 2), ~lost


def _phase_angle(alpha, beta, s):
    """(delta, ok): the quadrant-correct angle of (beta, 2*alpha*s) where
    both components are real or both pure imaginary (one atan2 covers
    both), nan where they are neither; arrays in, arrays out."""
    u = 2.0 * alpha * s
    v = beta + 0j
    u_tol = 1e-9 * np.abs(u) + 1e-300
    v_tol = 1e-9 * np.abs(v) + 1e-300
    real = (np.abs(u.imag) <= u_tol) & (np.abs(v.imag) <= v_tol)
    imag = (np.abs(u.real) <= u_tol) & (np.abs(v.real) <= v_tol)
    delta = np.where(real, np.arctan2(u.real, v.real),
                     np.where(imag, np.arctan2(u.imag, v.imag), np.nan))
    return delta, real | imag


def _phase_shift(alpha, beta, s):
    """The phase delta of ``_phase_angle``: a float for one momentum, an
    array for an array; ArithmeticError where it does not exist."""
    delta, ok = _phase_angle(*np.atleast_1d(alpha, beta, s))
    if not np.all(ok):
        raise ArithmeticError(_CHECKS["phase"][1])
    return float(delta[0]) if np.ndim(s) == 0 else delta


class _Evaluation(NamedTuple):
    """Everything ``_evaluate`` finds at an array of momenta."""

    k: np.ndarray
    q: np.ndarray
    t: np.ndarray
    r: np.ndarray
    big_t: np.ndarray
    big_r: np.ndarray
    degenerate: np.ndarray
    t_match: np.ndarray
    abs_t2: np.ndarray
    failed: dict              # check name -> mask of the momenta failing it

    def raise_first(self, checks=tuple(_CHECKS)):
        """Raise the error of the first momentum, in array order, that fails
        one of ``checks``: of the first of them, in ``_CHECKS`` order, that
        it fails."""
        names = [name for name in _CHECKS if name in checks]
        failed = np.array([self.failed[name] for name in names])
        hits = np.flatnonzero(failed.any(axis=0))
        if hits.size:
            i = hits[0]
            kind, message = _CHECKS[names[int(np.argmax(failed[:, i]))]]
            raise kind(message.format(
                k=self.k[i], t=self.t[i], t_match=self.t_match[i], T=self.big_t[i],
                abs_t2=self.abs_t2[i], flux=self.big_t[i] + self.big_r[i],
            ))


def _evaluate(k, n0, length, kappa, kappa0) -> _Evaluation:
    """t, r, T and R at the momenta of the 1-D array ``k``, and which of
    the ``_CHECKS`` each momentum fails; values at a failing momentum are
    whatever the arithmetic gave."""
    with np.errstate(all="ignore"):             # a failing momentum is caught by its checks
        q, alpha, beta, degenerate = _snapped_response(k, n0, kappa, kappa0)
        t = _amplitude_from(alpha, beta, k, length)
        t_match, r, singular = _reflection_from(alpha, beta, k, length)
        delta, phase_ok = _phase_angle(alpha, beta, np.sin(k))
        big_t, real = _probability_from(alpha, beta, k, length, delta)
        big_r = np.abs(r) ** 2
        abs_t2 = np.abs(t) ** 2
        failed = {
            "band": ~((0.0 < k) & (k < np.pi)),
            "singular": singular,
            "formula": np.abs(t - t_match) > 1e-9,
            "phase": ~phase_ok,
            "real": ~real,
            "dual": np.abs(big_t - abs_t2) > 1e-12,
            "flux": np.abs(big_t + big_r - 1.0) > FLUX_TOL,
        }
    return _Evaluation(k, q, t, r, big_t, big_r, degenerate, t_match, abs_t2, failed)


def _evaluate_one(k, n0, length, kappa, kappa0) -> _Evaluation:
    """``_evaluate`` at the single momentum k, as a one-element array: numpy
    rounds products and powers of scalars differently from its array loops."""
    return _evaluate(np.array([k], dtype=float), n0, length, kappa, kappa0)


def transmission_amplitude(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> tuple[complex, complex]:
    """Closed-form transmission amplitude t and matching-condition r.

    At the degenerate points where alpha and beta vanish together the
    directional limit along real k is taken (resonant transmission).
    """
    ev = _evaluate_one(k, n0, length, kappa, kappa0)
    ev.raise_first(("band", "singular", "formula"))
    return ev.t[0], ev.r[0]


def transmission_probability(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> float:
    """Transmission probability from the closed real form.

    Independent of the amplitude route: uses the phase delta with
    tan(delta) = 2*alpha*sin(k)/beta, quadrant-corrected from the pair
    (beta, 2*alpha*sin k).  Agrees with |t|^2 to 1e-12 (dual-path check
    enforced in scattering_point).
    """
    ev = _evaluate_one(k, n0, length, kappa, kappa0)
    ev.raise_first(("band", "phase", "real"))
    return ev.big_t[0]


def scattering_point(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> ScatteringPoint:
    """Full scattering record at one momentum, with every check applied
    (the dual-path identity |t|^2 == T and flux conservation among them)
    and degeneracies flagged."""
    ev = _evaluate_one(k, n0, length, kappa, kappa0)
    ev.raise_first()
    return ScatteringPoint(
        k=float(k), energy=float(-2.0 * kappa * np.cos(k)), q=complex(ev.q[0]),
        t=complex(ev.t[0]), r=complex(ev.r[0]), transmission=float(ev.big_t[0]),
        reflection=float(ev.big_r[0]),
        flag="degenerate-resonant" if ev.degenerate[0] else None,
    )


def transmission_sweep(
    k: np.ndarray, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """t, r, T and R at every momentum of the array ``k``, in its shape.

    Element i equals, bit for bit, what scattering_point gives at k[i]: both
    run the same array evaluation.  The sweep raises the error that a loop
    of scattering_point calls would raise first.
    """
    k = np.asarray(k, dtype=float)
    ev = _evaluate(k.ravel(), n0, length, kappa, kappa0)
    ev.raise_first()
    return tuple(a.reshape(k.shape)[()] for a in (ev.t, ev.r, ev.big_t, ev.big_r))


def single_side_chain_transmission(
    k: float, n0: int, kappa: float = 1.0, kappa0: float = 1.0
) -> float:
    """Transmission past a single dangling chain: t = 2i*alpha*sin k /
    (2i*alpha*sin k + beta), independent of any anchor separation.

    Analytically-zero alpha or beta (e.g. at k = pi/2 for equal hoppings)
    is snapped to the exact value, so the parity rule
    T = [1 + (-1)^n0]/2 comes out exactly.
    """
    _check_band(k)
    _, alpha, beta = side_chain_response(k, n0, kappa, kappa0)
    scale = kappa + kappa0
    a_s = alpha * np.sin(k)
    if abs(a_s) < SNAP_TOL * scale:
        return 1.0 if abs(beta) < SNAP_TOL * scale else 0.0
    if abs(beta) < SNAP_TOL * scale:
        return 1.0
    t = 2j * a_s / (2j * a_s + beta)
    return float(abs(t) ** 2)


def common_zeros(n0: int, kappa: float = 1.0, kappa0: float = 1.0) -> ZeroCatalog:
    """Length-independent zeros of T and R.

    Total reflection (T = 0) happens whenever the side-chain momentum hits
    n*pi/(n0+1); resonant transmission (R = 0) at n*pi/n0.  Each candidate
    maps back to an incident momentum through cos k = (kappa0/kappa) cos q;
    candidates leaving the propagating band are reported in ``dropped``.
    """
    k_min, k_max, dropped = [], [], []
    targets = [("common-alpha", n0 + 1, k_min), ("common-beta", n0, k_max)]
    for provenance, divisor, bucket in targets:
        for n in range(1, divisor):
            x = (kappa0 / kappa) * np.cos(n * np.pi / divisor)
            if abs(x) < 1.0 - 1e-12:
                k = float(np.arccos(x))
                bucket.append(ZeroEntry(k, -2.0 * kappa * np.cos(k), n, provenance))
            else:
                dropped.append(
                    {"provenance": provenance, "n": n, "cos_k": float(x),
                     "reason": "outside the propagating band"}
                )
    return ZeroCatalog(k_min=k_min, k_max=k_max, dropped=dropped)


def l_dependent_reflection_zeros(
    n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> list[float]:
    """Roots k0 of k*(length-1) - delta(k) = n*pi inside the band.

    Sign changes of sin(k*(length-1) - delta) are bracketed on a uniform
    grid and bisected.  Brackets sitting on a total-reflection point
    (alpha = 0, where the equation degenerates) or within a small margin
    of the band edges are discarded; each root is validated by its
    residual.
    """
    def objective(k, scan=None):
        _, alpha, beta = side_chain_response(k, n0, kappa, kappa0)
        return np.sin(k * (length - 1) - _phase_shift(alpha, beta, np.sin(k)))

    grid = np.linspace(K_EDGE_MARGIN, np.pi - K_EDGE_MARGIN, K_GRID_POINTS)
    k0 = sign_change_roots(objective, grid, objective(grid)[None], K_REFINE)[0]
    _, alpha, _ = side_chain_response(k0, n0, kappa, kappa0)
    keep = (np.abs(objective(k0)) < 1e-8) & (np.abs(alpha) > 1e-9 * (kappa + kappa0))
    return k0[keep].tolist()


def _branch_self_energies(graph: LatticeGraph, source: int, drain: int, energy: float):
    """Host path of a tree-shaped graph and the self-energies of its branches.

    The host path runs from ``source`` to ``drain``; every other site sits
    on a branch that hangs off one path site, its anchor.  Each branch is
    eliminated from its leaves inward: once the part of the branch beyond a
    site v has been folded into v's self-energy S_v, the Schrodinger
    equation at v is solved for psi_v and leaves v's parent the self-energy
    s^2 / (E - mu_v - S_v), s being the hopping between them (a Schur
    complement of H - E).  A self-energy is kept as a pair (a, b) with
    S = a / b, scaled so that max(|a|, |b|) = 1; a pivot E - mu_v - S_v that
    is exactly zero then gives b = 0, which pins the parent to zero
    amplitude, instead of a division by zero.

    Returns the path sites in order, the hopping from each path site to the
    next, every site's potential and a dict {anchor: (a, b)}.
    """
    n = graph.site_count
    neighbours: list[list] = [[] for _ in range(n)]
    for i, j, s in graph.hoppings:
        neighbours[i].append((j, s))
        neighbours[j].append((i, s))
    mu = [0.0] * n
    for i, value in graph.potentials:
        mu[i] = value
    # breadth-first from the drain: every site's parent lies towards it
    parent, bond = [-1] * n, [0.0] * n
    parent[drain] = drain
    order = [drain]
    for u in order:
        for v, s in neighbours[u]:
            if parent[v] < 0:
                parent[v], bond[v] = u, s
                order.append(v)
    if len(order) != n or len(graph.hoppings) != n - 1:
        raise ValueError("the scatterer's graph must be a tree")
    path = [source]
    while path[-1] != drain:
        path.append(parent[path[-1]])
    on_path = set(path)

    sigma: dict[int, tuple[complex, complex]] = {}
    for v in reversed(order):                   # leaves before the sites they hang from
        if v in on_path:
            continue
        a, b = sigma.pop(v, (0.0, 1.0))
        s = bond[v]
        a, b = s * s * b, (energy - mu[v]) * b - a
        u = parent[v]
        if u in sigma:                          # add to what u's other branches left
            a_u, b_u = sigma[u]
            a, b = a_u * b + a * b_u, b_u * b
        scale = max(abs(a), abs(b))
        if scale == 0.0:
            raise np.linalg.LinAlgError(f"branch at site {u} is singular at E={energy}")
        sigma[u] = (a / scale, b / scale)
    return path, [bond[v] for v in path[:-1]], mu, sigma


def numeric_scatter_oracle(
    n0: int,
    length: int,
    kappa: float,
    kappa0: float,
    k: float,
    leads: int,
    incident: str = "left",
) -> tuple[complex, complex]:
    """Scattering amplitudes (t, r) from the truncated lattice, formula-free.

    The equations are those of the ``leads``-site truncation: the
    Schrodinger equation on every site but the outermost site of each lead,
    and the two outermost sites of each lead pinned to the plane-wave form
    (incoming + r-reflected on the incident side, t-transmitted on the
    other).  They are solved in O(N) from the lattice graph alone, with no
    formula of this module and no dense matrix:

    1. every side branch is eliminated from its leaves inward into a
       self-energy on its anchor (``_branch_self_energies``);
    2. the host-path recurrence runs from the outgoing side, starting from
       the pinned transmitted wave with t = 1, and carries the scale of t
       along, so an anchor pinned to zero amplitude (total reflection)
       gives t = 0 exactly;
    3. one 2x2 solve splits the two incoming-side pinned values into the
       incoming and reflected waves, which scales t and gives r.

    Uniform leads make this construction exact for any leads >= length+20.
    """
    _check_band(k)
    if leads < length + 20:
        raise ValueError(f"leads must be >= length+20 = {length + 20}, got {leads}")
    if incident not in ("left", "right"):
        raise ValueError(f"incident must be 'left' or 'right', got {incident!r}")

    lattice = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0, leads))
    energy = -2.0 * kappa * float(np.cos(k))
    # host coordinates j of the incoming and outgoing lead ends, and the
    # direction of j along the path; plane waves are e^{+-ik(j-1)}
    step = 1 if incident == "left" else -1
    ends = [1 - leads, length + leads][::step]
    wave = lambda j, sign: complex(np.exp(sign * 1j * k * (j - 1)))
    source, drain = (lattice.site_index[f"c{j}"] for j in ends)
    path, hop, mu, sigma = _branch_self_energies(lattice.graph, source, drain, energy)

    # (u, w) = (psi at path[m], psi at path[m+1]) up to the common scale tau of t
    u, w, tau = wave(ends[1] - step, step), wave(ends[1], step), 1.0
    for m in range(len(path) - 2, 0, -1):
        site = path[m]
        diag = mu[site] - energy
        if site in sigma:                       # the equation times b: no division by b
            a, b = sigma[site]
            u, w, tau = ((diag * b + a) * u - b * hop[m] * w) / hop[m - 1], b * u, b * tau
            scale = max(abs(u), abs(w))
            if scale == 0.0:
                raise np.linalg.LinAlgError(f"scattering system singular at k={k}")
            u, w, tau = u / scale, w / scale, tau / scale
        else:
            u, w = (diag * u - hop[m] * w) / hop[m - 1], u
    # u = lam * (in_0 + r ref_0) and w = lam * (in_1 + r ref_1) -> (1/lam, r/lam)
    in_0, in_1 = wave(ends[0], step), wave(ends[0] + step, step)
    ref_0, ref_1 = wave(ends[0], -step), wave(ends[0] + step, -step)
    det = in_0 * ref_1 - in_1 * ref_0
    inv_lam = (u * ref_1 - w * ref_0) / det
    r_over = (in_0 * w - in_1 * u) / det
    if inv_lam == 0:
        raise np.linalg.LinAlgError(f"scattering system singular at k={k}")
    return tau / inv_lam, r_over / inv_lam


@dataclass(frozen=True)
class PeakDipReport:
    """Nearest reflection-zero peaks of two systems around each common dip."""

    n0: int
    length_a: int
    length_b: int
    entries: list[dict]

    @property
    def any_straddle(self) -> bool:
        return any(e["straddle"] for e in self.entries)


def peak_dip_report(
    n0: int,
    length_a: int,
    length_b: int,
    kappa: float = 1.0,
    kappa0: float = 1.0,
    zeros: tuple[list[float], list[float]] | None = None,
) -> PeakDipReport:
    """Locate, for each common transmission dip, the nearest reflection
    zero of each system and report whether they straddle the dip.

    Successive lengths never share a reflection zero away from the common
    ones, so around a dip the two systems' nearest peaks generically fall
    on opposite sides: the swapped peak-dip profile.  ``zeros`` passes the
    two lengths' l_dependent_reflection_zeros when the caller has them
    already; otherwise they are computed here.
    """
    dips = common_zeros(n0, kappa, kappa0).k_min
    if zeros is None:
        zeros = (l_dependent_reflection_zeros(n0, length_a, kappa, kappa0),
                 l_dependent_reflection_zeros(n0, length_b, kappa, kappa0))
    zeros_a, zeros_b = zeros
    entries = []
    for dip in dips:
        entry = {"dip_k": dip.k, "dip_energy": dip.energy}
        sides = []
        for tag, zeros in (("a", zeros_a), ("b", zeros_b)):
            if not zeros:
                entry[tag] = None
                continue
            nearest = min(zeros, key=lambda z: abs(z - dip.k))
            side = "left" if nearest < dip.k else "right"
            entry[tag] = {
                "k0": nearest,
                "energy": float(-2.0 * kappa * np.cos(nearest)),
                "side": side,
                "distance": abs(nearest - dip.k),
            }
            sides.append(side)
        entry["straddle"] = len(sides) == 2 and sides[0] != sides[1]
        entries.append(entry)
    return PeakDipReport(n0, length_a, length_b, entries)
