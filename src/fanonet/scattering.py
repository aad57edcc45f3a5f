"""Transmission through the side-coupled lattice, analytic and numeric.

The lattice is mirror-symmetric, so its 2x2 scattering matrix has one
eigenvalue S_s per mirror sector (s = +1 even, s = -1 odd), and each
sector is a one-channel reflection.  With z = e^{ik}, x = kappa*cos(k)/kappa0
(real on the band) and U_n the Chebyshev polynomials of the second kind,
the sector's Jost form is

    S_s = -s * e^{ik(L+1)} * conj(f_s) / f_s,
    f_s = kappa*(1 - z^2)*U_{n0}(x) - kappa0*z*(1 + s*e^{ik(L-1)})*U_{n0-1}(x),

where f_s is the function whose zeros inside |z| < 1 are the evanescent
bound states (``bound_states._sector_function``), and r = (S_+ + S_-)/2,
t = (S_+ - S_-)/2 * e^{-ik(L-1)}; T = |t|^2 and R = |r|^2.  On the band
the two wings of f_s are formed without cancellation: 1 - z^2 as
-2i*z*sin k, and 1 + s*e^{ik(L-1)} from the half angle.  |S_s| = 1 up to
rounding, and a bound state in the continuum (f_s = 0 on the band) leaves
S_s -> -1 continuous.

The paper's closed forms are the second path.  They are written with
a = kappa*U_{n0}(x) and b = kappa0*U_{n0-1}(x) in place of alpha =
kappa*sin((n0+1)q) and beta = kappa0*sin(n0*q): the common factor sin q of
the side-chain momentum q divides out, so they are real on the band, with
no branch and no special case where alpha and beta vanish together.  With
s = sin k and delta the angle of the point (b, 2as),

    t = a^2 s^2 / (a^2 s^2 - iabs + (b/2)^2 (e^{2ik(L-1)} - 1)),
    T = a^4 s^4 / (a^4 s^4 + (b/2)^2 (b^2 + 4a^2 s^2) sin^2(k(L-1) - delta)),

and the L-dependent reflection zeros are the roots of sin(k(L-1) - delta).
Both paths read the same U_{n0}(x), U_{n0-1}(x) and k(L-1), and each
carries a bound on its own rounding (derived in CHANGES.md).  The bounds
are first order, except the real form's: it is the range that T takes
while its phase k(L-1) - delta moves by that phase's rounding, which next
to a band edge can be all of [0, 1].  The checks compare the two paths against the sum of
their bounds: the closed-form t against the sector t ("formula"), the
real form of T against |t|^2 ("dual"), and |S_s| against 1 ("flux").

The closed forms are checks only: every public result is the kernel's,
and it is returned only after all four checks (band, formula, dual, flux)
have passed.  One private evaluation serves every entry point on an array
of momenta.  ``scattering_point`` runs it on a one-element array, and
``transmission_amplitude`` and ``transmission_probability`` return its
(t, r) and T, so ``transmission_sweep`` equals a loop of any of them bit
for bit and raises the error that loop would raise first.  The
reflection-zero scan brackets its roots from one evaluation on the grid
and refines all brackets together by Illinois steps
(``bound_states.sign_change_roots``).  Each public function on the lattice
parameters first checks them through ``PiLatticeSpec``, whose
GraphSpecError names the one that no lattice can have; only
``side_chain_response``, which runs once per refinement step, does not.

``numeric_scatter_oracle`` is a fully independent check: it solves the
Schrodinger system of the truncated lattice with plane-wave boundary rows
and never touches the formulas.  It reads only the lattice graph,
eliminates each side branch from its leaves inward into a self-energy on
its anchor and runs one recurrence along the host chain, so it costs O(N)
time and memory for N sites (the recursive Green's-function / decimation
idea: MacKinnon, Z. Phys. B 59, 385 (1985); Sancho et al., J. Phys. F 15,
851 (1985)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bound_states import _chebyshev_pair, _sector_function, sign_change_roots
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
    "common_zeros",
    "l_dependent_reflection_zeros",
    "numeric_scatter_oracle",
    "peak_dip_report",
]

EPS = np.finfo(float).eps
# the mirror sectors s = +1, -1 along the first axis of the kernel's arrays
SECTORS = np.array([[1.0], [-1.0]])
# reflection-zero scan: the fewest grid points, exclusion margin at the band
# edges and bracket width at which refinement stops
K_GRID_POINTS = 2000
K_EDGE_MARGIN = 1e-3
K_REFINE = 1e-13
# the checks of one momentum, in the order they apply: name -> error, message
_CHECKS = {
    "band": (ValueError, "incident momentum must lie in (0, pi), got {k}"),
    "formula": (ArithmeticError,
                "closed-form and sector transmission disagree at k={k}: {t_closed} vs {t}"),
    "dual": (ArithmeticError, "dual-path identity violated at k={k}: T={T}, |t|^2={abs_t2}"),
    "flux": (ArithmeticError, "flux not conserved at k={k}: max |S_s| - 1 = {flux}"),
}


@dataclass(frozen=True)
class ScatteringPoint:
    """Scattering data at one incident momentum k in (0, pi)."""

    k: float
    energy: float
    t: complex
    r: complex
    transmission: float
    reflection: float


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


def side_chain_response(k, n0: int, kappa: float, kappa0: float):
    """U_{n0}(x) and U_{n0-1}(x) at x = kappa*cos(k)/kappa0, for one momentum
    or an array of them.

    A side chain of n0 sites answers an incident wave through alpha =
    kappa*sin((n0+1)q) and beta = kappa0*sin(n0*q), q its momentum; with
    U_n(cos q) = sin((n+1)q)/sin q these are kappa*sin(q)*U_{n0}(x) and
    kappa0*sin(q)*U_{n0-1}(x).  The pair returned is that response with the
    common factor sin q divided out: real for every real k, with no q.
    """
    return _chebyshev_pair(kappa * np.cos(k) / kappa0, n0)


def _check_band(k: float):
    if not 0.0 < k < np.pi:
        raise ValueError(_CHECKS["band"][1].format(k=k))


def _phase_shift(k, n0: int, kappa: float, kappa0: float):
    """The phase delta(k) of the closed forms, the angle of the point
    (b, 2*a*sin k): continuous in k, since a and b never vanish together."""
    u_top, u_next = side_chain_response(k, n0, kappa, kappa0)
    return np.arctan2(2 * (kappa * u_top * np.sin(k)), kappa0 * u_next)


class _Evaluation(NamedTuple):
    """Everything ``_evaluate`` finds at an array of momenta."""

    k: np.ndarray
    t: np.ndarray
    r: np.ndarray
    big_t: np.ndarray         # |t|^2
    big_r: np.ndarray         # |r|^2
    t_closed: np.ndarray
    big_t_closed: np.ndarray  # the real form of T
    unitarity: np.ndarray     # max over the sectors of ||S_s| - 1|
    bound: dict               # check name -> rounding bound of what it compares
    failed: dict              # check name -> mask of the momenta failing it

    def raise_first(self):
        """Raise the error of the first momentum, in array order, that fails
        one of the ``_CHECKS``: of the first of them, in ``_CHECKS`` order,
        that it fails."""
        names = list(_CHECKS)
        failed = np.array([self.failed[name] for name in names])
        hits = np.flatnonzero(failed.any(axis=0))
        if hits.size:
            i = hits[0]
            kind, message = _CHECKS[names[int(np.argmax(failed[:, i]))]]
            raise kind(message.format(
                k=self.k[i], t=self.t[i], t_closed=self.t_closed[i], T=self.big_t_closed[i],
                abs_t2=self.big_t[i], flux=self.unitarity[i],
            ))


def _evaluate(k, n0, length, kappa, kappa0) -> _Evaluation:
    """t, r, T and R at the momenta of the 1-D array ``k``, and which of
    the ``_CHECKS`` each momentum fails; values at a failing momentum are
    whatever the arithmetic gave."""
    with np.errstate(all="ignore"):             # a failing momentum is caught by its checks
        u_top, u_next = side_chain_response(k, n0, kappa, kappa0)
        sin_k, z = np.sin(k), np.exp(1j * k)
        theta = k * (length - 1)
        cos_half, sin_half = np.cos(theta / 2), np.sin(theta / 2)
        half = cos_half + 1j * sin_half                         # e^{i theta/2}
        w = half * half                                         # e^{ik(L-1)}
        # the sector kernel: 1 - z^2 = -2i*z*sin k, and 1 + s*e^{i theta} is
        # 2*cos(theta/2)*e^{i theta/2} for s = +1, -2i*sin(theta/2)*e^{i theta/2} for s = -1
        host = np.array([2 * cos_half, -2j * sin_half]) * half
        f = _sector_function(z, -2j * z * sin_k, host, u_top, u_next, kappa, kappa0)
        sector = -SECTORS * (z * z * w) * (np.conj(f) / f)     # S_+, S_-
        r = (sector[0] + sector[1]) / 2
        t = (sector[0] - sector[1]) / 2 * np.conj(w)
        # the closed forms, (b/2)^2 (e^{2i theta} - 1) written as
        # i b^2 sin(theta/2) cos(theta/2) e^{i theta}
        a_s, b = kappa * u_top * sin_k, kappa0 * u_next
        a2s2, b2, sin_cos = a_s * a_s, b * b, sin_half * cos_half
        den_t = a2s2 - 1j * a_s * b + 1j * b2 * sin_cos * w
        t_closed = a2s2 / den_t
        phi = theta - np.arctan2(2 * a_s, b)
        sin_phi = np.abs(np.sin(phi))
        quartic, prefactor = a2s2 * a2s2, (b / 2) ** 2 * (b2 + 4 * a2s2)
        den_big_t = quartic + prefactor * sin_phi ** 2
        big_t_closed = quartic / den_big_t
        abs_t = np.abs(t)
        big_t, big_r = abs_t ** 2, np.abs(r) ** 2
        unitarity = np.max(np.abs(np.abs(sector) - 1.0), axis=0)
        # rounding bounds, each path its own (see CHANGES.md): |dS_s| of the
        # kernel, to first order, and for the real form how far T moves
        # while phi moves by its rounding, |sin phi| staying in [lo, hi]
        err_sector = EPS * ((40 * np.abs(a_s) + 28 * np.abs(b * host)) / np.abs(f) + 22)
        err_pair = err_sector[0] + err_sector[1]
        step = EPS * (2 * theta + 17)
        lo, hi = np.maximum(sin_phi - step, 0.0), np.minimum(sin_phi + step, 1.0)
        t_top = np.where(lo > 0, quartic / (quartic + prefactor * lo * lo), 1.0)  # T at lo
        rise = t_top * prefactor * (sin_phi - lo) * (sin_phi + lo) / den_big_t    # T(lo) - T
        den_hi = quartic + prefactor * hi * hi
        fall = big_t_closed * prefactor * (hi - sin_phi) * (hi + sin_phi) / den_hi  # T - T(hi)
        span = a2s2 + np.abs(a_s * b) + b2 * np.abs(sin_cos)
        bound = {
            "formula": EPS * (np.abs(t_closed) * (22 * span / np.abs(den_t) + 18) + 10 * abs_t)
            + err_pair / 2,
            "dual": np.maximum(rise, fall) + EPS * (20 + 26 * big_t) + abs_t * err_pair,
            "flux": 18 * EPS,
        }
        failed = {
            "band": ~((0.0 < k) & (k < np.pi)),
            "formula": ~(np.abs(t_closed - t) <= bound["formula"]),
            "dual": ~(np.abs(big_t_closed - big_t) <= bound["dual"]),
            "flux": ~(unitarity <= bound["flux"]),
        }
    return _Evaluation(k, t, r, big_t, big_r, t_closed, big_t_closed, unitarity, bound, failed)


def scattering_point(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> ScatteringPoint:
    """Full scattering record at one momentum from the sector kernel: t, r,
    T = |t|^2 and R = |r|^2, returned once every check against the closed
    forms has passed.  It runs the array evaluation on a one-element array:
    numpy rounds products and powers of scalars differently from its array
    loops."""
    PiLatticeSpec(n0, length, kappa, kappa0)
    ev = _evaluate(np.array([k], dtype=float), n0, length, kappa, kappa0)
    ev.raise_first()
    return ScatteringPoint(
        k=float(k), energy=float(-2.0 * kappa * np.cos(k)), t=complex(ev.t[0]),
        r=complex(ev.r[0]), transmission=float(ev.big_t[0]), reflection=float(ev.big_r[0]),
    )


def transmission_amplitude(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> tuple[complex, complex]:
    """(t, r) of ``scattering_point``: the sector kernel's amplitudes."""
    point = scattering_point(k, n0, length, kappa, kappa0)
    return point.t, point.r


def transmission_probability(
    k: float, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> float:
    """T = |t|^2 of ``scattering_point``, the sector kernel's, not the
    paper's real form: that form is ill-conditioned where T varies fast
    with the phase k(L-1) - delta, as next to the band edges, and serves
    only as the dual check."""
    return scattering_point(k, n0, length, kappa, kappa0).transmission


def transmission_sweep(
    k: np.ndarray, n0: int, length: int, kappa: float = 1.0, kappa0: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """t, r, T and R at every momentum of the array ``k``, in its shape.

    Element i equals, bit for bit, what scattering_point gives at k[i]: both
    run the same array evaluation.  The sweep raises the error that a loop
    of scattering_point calls would raise first.
    """
    PiLatticeSpec(n0, length, kappa, kappa0)
    k = np.asarray(k, dtype=float)
    ev = _evaluate(k.ravel(), n0, length, kappa, kappa0)
    ev.raise_first()
    return tuple(a.reshape(k.shape)[()] for a in (ev.t, ev.r, ev.big_t, ev.big_r))


def common_zeros(n0: int, kappa: float = 1.0, kappa0: float = 1.0) -> ZeroCatalog:
    """Length-independent zeros of T and R.

    Total reflection (T = 0) happens whenever the side-chain momentum hits
    n*pi/(n0+1); resonant transmission (R = 0) at n*pi/n0.  Each candidate
    maps back to an incident momentum through cos k = (kappa0/kappa) cos q;
    candidates whose cos k cannot be told from the band edges, or lies
    beyond them, are reported in ``dropped``: cos k carries a rounding
    error of at most (6*kappa0/kappa + 1)*eps (see CHANGES.md).
    """
    edge = 1.0 - (6 * kappa0 / kappa + 1) * EPS
    k_min, k_max, dropped = [], [], []
    targets = [("common-alpha", n0 + 1, k_min), ("common-beta", n0, k_max)]
    for provenance, divisor, bucket in targets:
        for n in range(1, divisor):
            x = (kappa0 / kappa) * np.cos(n * np.pi / divisor)
            if abs(x) < edge:
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

    Sign changes of sin(k*(length-1) - delta), which is continuous in k,
    are bracketed on a uniform grid that keeps a small margin from the band
    edges, and refined by Illinois steps until each bracket is narrower
    than K_REFINE (``bound_states.sign_change_roots``).  The roots lie
    about pi/(length-1) apart, so the grid has max(K_GRID_POINTS,
    2*(length-1)) points: at least two per root spacing.  At such a root
    R = 0 (T = 1), unless a = 0 there too: a bound state in the continuum,
    where T -> 0 instead; T > 1/2 tells the two apart.  A bracket that does
    not shrink below K_REFINE raises ArithmeticError.
    """
    PiLatticeSpec(n0, length, kappa, kappa0)

    def objective(k, scan=None):
        return np.sin(k * (length - 1) - _phase_shift(k, n0, kappa, kappa0))

    points = max(K_GRID_POINTS, 2 * (length - 1))
    grid = np.linspace(K_EDGE_MARGIN, np.pi - K_EDGE_MARGIN, points)
    k0 = sign_change_roots(objective, grid, objective(grid)[None], K_REFINE)[0]
    keep = _evaluate(k0, n0, length, kappa, kappa0).big_t > 0.5
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
    other).  The outermost lead sites are flat sites 0 (left) and N - 1
    (right) of ``build_pi_lattice``'s layout.  The equations are solved in O(N) from the lattice graph alone, with no
    formula of this module and no dense matrix:

    1. every side branch is eliminated from its leaves inward into a
       self-energy on its anchor (``_branch_self_energies``);
    2. the host-path recurrence runs from the outgoing side, starting from
       the pinned transmitted wave with t = 1, and carries the scale of t
       along, so an anchor pinned to zero amplitude (total reflection)
       gives t = 0 exactly;
    3. one 2x2 solve splits the two incoming-side pinned values into the
       incoming and reflected waves, which scales t and gives r.

    Outside the anchors the leads are free chains, on which the plane-wave
    form solves the Schrodinger equation exactly, so the amplitudes are
    exact (up to rounding) for any leads >= 1.
    """
    _check_band(k)
    if leads < 1:
        raise ValueError(f"leads must be >= 1, got {leads}")
    if incident not in ("left", "right"):
        raise ValueError(f"incident must be 'left' or 'right', got {incident!r}")

    lattice = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0, leads))
    energy = -2.0 * kappa * float(np.cos(k))
    # host coordinates j of the incoming and outgoing lead ends, and the
    # direction of j along the path; plane waves are e^{+-ik(j-1)}
    step = 1 if incident == "left" else -1
    ends = [1 - leads, length + leads][::step]
    wave = lambda j, sign: complex(np.exp(sign * 1j * k * (j - 1)))
    source, drain = (0, lattice.graph.site_count - 1)[::step]
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
    for length in (length_a, length_b):
        PiLatticeSpec(n0, length, kappa, kappa0)
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
