"""The secular equation behind ``spectra.lead_eigenpairs``.

A block made of a uniform hard-wall lead of m sites, hopping -kappa, and a
rest of S sites, joined only through the lead's last site, the hub, has
two kinds of poles at the hub: the m - 1 outer lead sites' standing waves,
at nu_j = -2 kappa cos(theta_j), theta_j = j pi / m, with squared spokes
a2_j = (2 kappa^2 / m) sin^2(theta_j), and the rest's modes, at their
energies mu_i, with spokes z_i.  An energy lam = -2 kappa cos(theta) is an
eigenvalue of the block exactly when the secular function

    f(lam) = lam + kappa sin((m-1) theta) / sin(m theta) - sum_i z_i^2 / (lam - mu_i)

vanishes; the lead term, kappa (cos theta - sin theta cot(m theta)), is
the sum over the lead poles in closed form.  f increases between
neighbouring poles, so each gap between them holds one root, one lies
below the lowest pole and one above the highest (Cuppen, Numer. Math. 36,
177 (1981)).  A root is carried as its offset from the nearer end of its
gap, so its distance to every pole keeps its relative accuracy (Gu and
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)), and is found by
the middle way (R.-C. Li, LAPACK Working Note 89 (1994)): the parts of f
from the poles at or below the gap and at or above it are each modelled
by one pole at the gap's end that matches their slope, and the model's
root is the next iterate.  The two outer gaps are first bracketed by
probing f at distances that halve from 2 ||h||_inf.  A step that leaves
its root's bracket halves the bracket instead.  The rows of the block's
eigenvectors on the rest are W (z / (lam - mu)) / sqrt(f'(lam)).

The lead term comes in closed form on every gap from m = 3 on
(``Lead.term``): from the angle of the nearest lead pole or band edge, so
without cancellation, inside the band, and beyond its edges, at
lam = -+2 kappa cosh(psi), from its continuation, +-kappa
sinh((m - 1) psi) / sinh(m psi).  At m = 1 there is no lead pole and at
m = 2 one, whose term is taken as it is.

Blocks that share the lead, as a pi lattice's two mirror sectors do, are
solved together (``solve``): their gaps are stacked and every root is
found in one iteration, which shares the lead's closed form, the middle
way, the stop rules and the probes, while each block's rest poles are
summed over that block's roots alone, so each block gets bitwise the
roots and rows of a call with that block alone.

Spokes and pole distances below DEFLATION_ULPS units roundoff of
||h||_inf are deflated: a rest mode with such a spoke is an eigenvector
as it stands, and rest poles that coincide with a lead pole or with each
other keep one combined pole and give up the rest of their span as
eigenvectors at that energy.  Every root and every block's rows are
certified (``Rest.certify``; CHANGES.md derives the bounds).
"""

from __future__ import annotations

import math

import numpy as np

# unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53
# a spoke, or the distance between two poles, below this many units
# roundoff of ||H||_inf is deflated (CHANGES.md derives it)
DEFLATION_ULPS = 8
# a secular root stops where f is within this many roundings of the size
# of its terms, or where its step or its bracket is within this many units
# roundoff of its offset
STOP_ULPS = 4
# a root also stops after a step within this fraction of its offset, and
# steps on to the strict stop if it then fails its residual bound
EARLY_STEP = 2.0**-30
# steps after which a secular root that has not stopped is a failure
SECULAR_MAX_STEPS = 60
# distances at which f is probed in each outer gap before the first step
OUTER_PROBES = 24
# terms of the series of the lead term's slope near a band edge: the first
# one left out is below u times the first at K psi <= 1 (``Lead._edge_term``)
EDGE_TERMS = 8


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), Higham's bound on k roundings."""
    k = k * UNIT_ROUNDOFF
    return k / (1.0 - k)


def solve(m: int, kappa: float, blocks):
    """``(energies, rows, W)`` of each block ``(mu, W, spokes, scale)``: the
    rest's eigenpairs, its spokes to the hub and ||h||_inf, for a lead of
    m >= 1 sites and hopping -kappa shared by all the blocks."""
    lead = Lead(m, kappa)
    rests = [Rest(lead, mu, w, w.T @ spokes, scale) for mu, w, spokes, scale in blocks]
    return [(*pair, rest.w) for rest, pair in zip(rests, Secular(lead, rests).solve())]


def _split_sum(terms: np.ndarray, count: np.ndarray):
    """Row sums of ``terms`` over its first ``count`` columns, and over all;
    ``terms`` is overwritten with its partial sums."""
    if not terms.shape[1]:
        return np.zeros(len(terms)), np.zeros(len(terms))
    partial = np.cumsum(terms, axis=1, out=terms)
    head = partial[np.arange(len(terms)), np.maximum(count - 1, 0)]
    return np.where(count > 0, head, 0.0), partial[:, -1]


class Lead:
    """The lead of ``lead_eigenpairs``: m sites of hopping -kappa, whose
    m - 1 outer sites' standing waves are the poles nu_j, j = 1 .. m - 1,
    with squared spokes a2_j at the hub (j = 0 and m are the band edges,
    with no spoke), and lam plus its lead term (``term``)."""

    def __init__(self, m, kappa):
        self.m, self.kappa = m, kappa
        j = np.arange(m + 1)
        # theta_j's sine and cosine as sines of exact multiples of pi/(2m),
        # from the nearer band edge and from the band's middle, so that each
        # keeps its relative accuracy everywhere
        self.sin = np.sin(np.minimum(j, m - j) * (np.pi / m))
        self.cos = np.sin((m - 2 * j) * (np.pi / (2 * m)))
        self.nu = -2.0 * kappa * self.cos
        self.a2 = 2.0 * kappa**2 / m * self.sin**2          # lead spoke squared
        if m > 2:
            # the series of (K sin psi - sin K psi) / (K psi)^3, K = 2m - 1, in
            # z = -+(K psi)^2, to within u for K psi <= 1 (``_edge_term``)
            k = np.arange(1, EDGE_TERMS + 1)
            self.series = (1.0 - (2.0 * m - 1.0) ** (-2.0 * k)) \
                / np.array([math.factorial(2 * i + 1) for i in k.tolist()], dtype=float)
            # sin^2 psi at K psi = 1: the edge form takes over below it
            self.edge_spread = math.sin(1.0 / (2.0 * m - 1.0)) ** 2

    def term(self, below, origin, x, full):
        """lam plus the lead term at lam = origin + x, in gaps above
        ``below`` lead poles each, its slope's parts from the lead poles at
        or below the gap and above it, and the sizes that bound the
        rounding of the value and (``full``) of the slope; without
        ``full``, the last is the slope G' itself.

        At m = 1 there is no lead pole, and at m = 2 one, nu_1 = 0, whose
        term is taken as it is.  From m = 3 the term comes in closed form
        on every gap (``_closed_term``)."""
        if self.m > 2:
            return self._closed_term(below, origin, x, full)
        lam_size = np.abs(origin) + np.abs(x)
        if self.m == 1:
            zero = np.zeros(len(origin))
            return origin + x, zero, zero, lam_size, zero
        d = (origin - self.nu[1]) + x
        term = self.a2[1] / d
        slope = term / d
        low = np.where(below > 0, slope, 0.0)
        return (origin + x) - term, low, slope - low, lam_size + np.abs(term), slope

    def _closed_term(self, below, origin, x, full):
        """The closed form of lam plus the lead term, -kappa (cos theta +
        sin theta cot(m delta)), delta = theta - theta_J, from the nearer end
        J of the stretch (nu_L, nu_L+1) that holds the gap, L = ``below``.
        Between two lead poles the slope's parts from those two poles are
        exact, and the remainder is split evenly between the sides; below
        nu_1 and above nu_m-1 all of it lies on the side of the lead poles.
        At a band edge (J = 0 or m) the form is taken from the edge's angle
        psi, delta = +-psi, and beyond the edge, at lam = -+2 kappa cosh psi,
        from its continuation (``_edge_term``), as it is where K psi < 1,
        K = 2m - 1, where G' = 0.5 (m (1 + c^2) - 1 - c cot(theta)) would
        cancel."""
        m, kappa, nu, a2 = self.m, self.kappa, self.nu, self.a2
        d_low = (origin - nu[below]) + x
        d_high = (origin - nu[below + 1]) + x
        with np.errstate(invalid="ignore"):     # no spoke at a band edge: 0 / 0 on it
            near_low = a2[below] / (d_low * d_low)
            near_high = a2[below + 1] / (d_high * d_high)
        use_low = np.abs(d_low) <= np.abs(d_high)
        # cos(theta) = cos(theta_J) - sigma for the nearer end J; sin(theta)
        # and sin(delta), delta = theta - theta_J, follow without cancellation
        sigma = np.where(use_low, d_low, d_high) * (0.5 / kappa)
        end = below + ~use_low
        del d_low, d_high, use_low
        xj, yj = self.cos[end], self.sin[end]
        cos_t = xj - sigma
        spread = sigma * (2.0 * xj - sigma)
        with np.errstate(invalid="ignore", divide="ignore"):   # out of the band: edge form
            sin_t = np.sqrt(yj * yj + spread)
            delta = np.arcsin(sigma * yj + xj * spread / (sin_t + yj))
            c = 1.0 / np.tan(m * delta)
            one_c2 = 1.0 + c * c
            c_cot = c * cos_t / sin_t
            slope = 0.5 * (m * one_c2 - 1.0 - c_cot)            # G'
            value = -kappa * (cos_t + sin_t * c)
            if full:
                # cos(theta) and sin(theta) round with their terms, and
                # cot(m delta) carries m |delta| (1 + c^2) times delta's
                # relative error
                size = kappa * (np.abs(xj) + np.abs(sigma)
                                + np.abs(c) * (yj * yj + np.abs(spread) + 2.0 * sigma * sigma)
                                / sin_t + sin_t * one_c2 * m * np.abs(delta))
                slope_size = 0.5 * (1.0 + np.abs(c_cot)) + m * one_c2
            else:
                # the sizes of f's two lead terms, below its rounding bound's
                # (G' stands in for the size of f', which only ``full`` needs)
                size, slope_size = kappa * (np.abs(cos_t) + np.abs(sin_t * c)), slope
        # from a band edge (J = 0 or m, where sin(theta_J) = 0), beyond it or
        # within K psi < 1 of it
        edge = np.flatnonzero((yj == 0.0) & (spread < self.edge_spread))
        if len(edge):
            self._edge_term(edge, sigma[edge], xj[edge], spread[edge], full,
                            value, slope, size, slope_size)
        with np.errstate(invalid="ignore"):     # no spoke at a band edge: 0 / 0 on it
            half = 0.5 * np.maximum(slope - near_low - near_high, 0.0)
        left = np.where(below == 0, 0.0, np.where(below == m - 1, slope, near_low + half))
        right = np.where(below == m - 1, 0.0, np.where(below == 0, slope, near_high + half))
        return value, left, right, size, slope_size

    def _edge_term(self, rows, sigma, xj, spread, full, value, slope, size, slope_size):
        """Overwrite ``rows`` of the four arrays with the closed form from
        the band edge xj = cos(theta_J) = +-1, which lie beyond the edge or
        within K psi < 1 of it.

        sigma = (lam - nu_J) / (2 kappa) and s = xj sigma is 1 - cos psi
        inside the band, psi the angle from the edge, and 1 - cosh psi
        beyond it; s (2 - s) = sigma (2 xj - sigma) is sin^2 psi, or
        -sinh^2 psi, without cancellation.  With w = |sin psi| or sinh psi
        and g = w cot(m psi), or w coth(m psi), lam plus the lead term is
        -kappa xj (1 - s + g): beyond the edge that is -+kappa (cosh psi +
        sinh psi coth(m psi)) at lam = -+2 kappa cosh psi, the continuation
        of the form inside, and the lead term alone is +-kappa
        sinh((m - 1) psi) / sinh(m psi).  G' is (K sin psi - sin K psi) /
        (4 sin^2(m psi) sin psi) inside, (sinh K psi - K sinh psi) /
        (4 sinh^2(m psi) sinh psi) beyond: for K psi <= 1 from the series
        of its numerator (``series``), and beyond that, with A = 1 /
        expm1(2 m psi) and B = 1 / expm1(2 psi), as B (1 + 2A) + A - 2 m A
        (1 + A), which cancels by at most a factor 7 there and never
        overflows.  CHANGES.md derives the sizes.  ``spread`` is
        sigma (2 xj - sigma)."""
        m, kappa, k = self.m, self.kappa, 2.0 * self.m - 1.0
        # psi = 0 (lam on the edge) takes the limits; past arcsin's domain,
        # and where sinh and expm1 overflow far beyond the edge, the other
        # branch of each np.where, or 0, is the one kept
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = spread < 0
            w = np.sqrt(np.abs(spread))
            psi = np.where(out, np.arcsinh(w), np.arcsin(w))
            near = ~out | (k * psi <= 1.0)
            m_psi = m * psi
            sn = np.where(out, np.sinh(m_psi), np.sin(m_psi))
            g = np.where(psi > 0, w / np.where(out, np.tanh(m_psi), np.tan(m_psi)), 1.0 / m)
            # cot(m psi), or coth, carries m psi / sin^2(m psi) times psi's
            # relative error
            spin = np.where(psi > 0, w * m_psi / (sn * sn), 1.0 / m)
            a, b = 1.0 / np.expm1(2.0 * m_psi), 1.0 / np.expm1(2.0 * psi)
            far = b * (1.0 + 2.0 * a) + a
            g_slope = far - 2.0 * m * a * (1.0 + a)
            g_size = 2.0 * (far + 2.0 * m * a * (1.0 + a))
            if np.any(near):
                at = np.flatnonzero(near)
                z = np.where(out[at], 1.0, -1.0) * (k * psi[at]) ** 2
                q = np.full(len(at), self.series[-1])
                for coefficient in self.series[-2::-1].tolist():
                    q = q * z + coefficient
                # (sin(m psi) / (m psi))^2 sin(psi) / psi, and sinh's
                ratio = np.where(psi[at] > 0, sn[at] / m_psi[at], 1.0)
                ratio *= ratio * np.where(psi[at] > 0, w[at] / psi[at], 1.0)
                g_slope[at] = k**3 * q / (4.0 * m * m * ratio)
                g_size[at] = 4.0 * g_slope[at]
        cos_t = xj - sigma
        value[rows] = -kappa * (cos_t + xj * g)
        slope[rows] = g_slope
        if full:
            size[rows] = kappa * (1.0 + 2.0 * np.abs(sigma) + 2.0 * g + spin)
            slope_size[rows] = g_size
        else:
            size[rows] = kappa * (np.abs(cos_t) + g)
            slope_size[rows] = g_slope


class Rest:
    """One block of ``lead_eigenpairs``: the S rest poles with their
    spokes, deflated against each other and the lead's poles, and the
    certificates of its roots."""

    def __init__(self, lead, mu, w, z, scale):
        self.lead, self.mu, self.w, self.scale = lead, mu, w, scale
        self._deflate(z)

    def _deflate(self, z):
        lead, mu, tol = self.lead, self.mu, DEFLATION_ULPS * UNIT_ROUNDOFF * self.scale
        m = lead.m
        small = np.abs(z) <= tol
        kept = np.flatnonzero(~small)
        # a rest mode with a spoke below tolerance is an eigenvector as it is
        self.energies, self.columns = [mu[small]], [self.w[:, small]]
        # kept poles within tolerance of the previous one join its group; a
        # group within tolerance of a lead pole joins that pole
        group = np.cumsum(np.diff(mu[kept], prepend=-np.inf) > tol) - 1
        count = group[-1] + 1 if len(kept) else 0
        at_lead = np.zeros(len(kept), dtype=int)
        if m > 1:
            j = np.clip(np.rint(np.arccos(np.clip(-mu[kept] / (2.0 * lead.kappa), -1.0, 1.0))
                                * m / np.pi).astype(int), 1, m - 1)
            at_lead = np.where(np.abs(mu[kept] - lead.nu[j]) <= tol, j, 0)
        lead_of = np.zeros(count, dtype=int)
        np.maximum.at(lead_of, group, at_lead)
        # each group's pole: its lead pole, else its last member
        pole = mu[kept][np.searchsorted(group, np.arange(count), side="right") - 1]
        pole = np.where(lead_of > 0, lead.nu[lead_of], pole)
        size = np.bincount(group, minlength=count) + (lead_of > 0)
        for g in np.flatnonzero(size > 1).tolist():
            self._rotate(kept[group == g], lead_of[g], z)
        self.kept, self.entry, self.z = kept, group, z[kept]     # rest mode -> its group
        self.weight = np.bincount(group, self.z**2, minlength=count)
        self.group_pole, self.group_lead = pole, lead_of

    def _rotate(self, members, lead, z):
        """Deflate a group of coinciding poles: the Householder reflection
        that takes its spokes (and the lead spoke, if it sits at a lead pole)
        to the last axis leaves the other axes, orthogonal to every spoke,
        as eigenvectors at the group's energies."""
        spokes, diagonal = z[members], self.mu[members]
        if lead:
            spokes = np.append(spokes, np.sqrt(self.lead.a2[lead]))
            diagonal = np.append(diagonal, self.lead.nu[lead])
        v = spokes.copy()
        v[-1] += np.copysign(np.linalg.norm(spokes), spokes[-1])
        q = np.eye(len(v))[:, :-1] - np.outer(v, 2.0 * v[:-1] / (v @ v))
        self.energies.append(diagonal @ q**2)
        self.columns.append(self.w[:, members] @ q[:len(members)])

    def poles(self):
        """The block's distinct poles, ascending: the lead poles (with any
        rest weight at them) and the rest poles at none."""
        m = self.lead.m
        return np.sort(np.concatenate([self.lead.nu[1:m], self.group_pole[self.group_lead == 0]]))

    def record(self, lam, f, slope, bound, d, slope_size, inside):
        """The roots with what their rows and certificates need.  eta bounds
        the relative error of each row entry: the rounding of f' relative to
        f', and the root's own error, f's bound over f', relative to the
        nearest rest pole, plus the stopping step."""
        derivative = 1.0 + slope
        nearest = np.min(np.abs(d), axis=1, initial=np.inf)
        eta = gamma(len(self.weight) + 10) * (1.0 + slope_size) / derivative \
            + bound / (derivative * nearest) + 2 * STOP_ULPS * UNIT_ROUNDOFF
        return lam, d, derivative, np.abs(f) <= bound, eta, inside

    def certify(self, roots):
        """Rows of the secular roots and the deflated modes, sorted by
        energy, once the roots' certificates and the rows' Gram error hold.

        R = W U, with U the rest part of the eigenvectors in the rest's own
        modes, so R R^T - I = W (U U^T - I) W^T + (W W^T - I).  An entry of
        U U^T - I sums N products, each entry of U within eta of its exact
        value, so it is at most 2 eta + gamma_N; the rows of W have 1-norm
        at most sqrt(S) (1 + eps_W), which gives
        ||R R^T - I||_max <= eps_W + (1 + eps_W) S (2 max(eta) + gamma_N)
        with eps_W = ||W W^T - I||_max."""
        lam, d, derivative, small, eta, inside = roots
        if not np.all(inside):
            raise ArithmeticError(f"{np.count_nonzero(~inside)} of {len(lam)} secular roots "
                                  "left their gap: the roots do not interlace the poles")
        if not np.all(small):
            raise ArithmeticError(f"{np.count_nonzero(~small)} secular roots exceed "
                                  "their residual bound")
        spokes = self.z / d[:, self.entry]
        rows = self.w[:, self.kept] @ (spokes / np.sqrt(derivative)[:, None]).T
        energies = np.concatenate([lam, *self.energies])
        rows = np.concatenate([rows, *self.columns], axis=1)
        size, total = self.w.shape[0], len(energies)
        eps_w = np.max(np.abs(self.w @ self.w.T - np.eye(size)))
        bound = eps_w + (1.0 + eps_w) * size * (2.0 * np.max(eta, initial=0.0) + gamma(total))
        gram = np.max(np.abs(rows @ rows.T - np.eye(size)))
        if not gram <= bound:
            raise ArithmeticError(f"sector rows are not orthonormal: Gram error {gram:.3e} "
                                  f"exceeds its bound {bound:.3e}")
        order = np.argsort(energies, kind="stable")
        return energies[order], rows[:, order]


class Secular:
    """The secular problems of ``lead_eigenpairs``' blocks, which share one
    lead: the gaps between each block's poles, stacked block after block,
    and their roots from one iteration."""

    def __init__(self, lead, rests):
        self.lead, self.rests = lead, rests

    def solve(self):
        """Every root of each block's f, one per gap between neighbouring
        poles, and the rows of their eigenvectors, certified: one
        ``(energies, rows)`` per block."""
        m, nu = self.lead.m, self.lead.nu
        results, gaps = [None] * len(self.rests), []
        for b, rest in enumerate(self.rests):
            values = rest.poles()
            if not len(values):                 # no pole: the hub alone, at 0
                zero = np.zeros(1)
                results[b] = rest.certify(rest.record(zero, zero, zero, zero, np.zeros((1, 0)),
                                                      zero, np.ones(1, dtype=bool)))
                continue
            lo, hi = np.append(-np.inf, values), np.append(values, np.inf)
            # per gap: the rest groups at or below it
            rest.rest_below = np.searchsorted(rest.group_pole, lo, side="right")
            gaps.append((b, lo, hi))
        if not gaps:
            return results
        solving = [self.rests[b] for b, _, _ in gaps]
        counts = [len(lo) for _, lo, _ in gaps]
        # block k's gaps are cuts[k]:cuts[k + 1] of the stacked arrays
        self.solving, self.cuts = solving, np.cumsum([0] + counts)
        lo, hi = np.concatenate([g[1] for g in gaps]), np.concatenate([g[2] for g in gaps])
        self.owner = np.repeat(np.arange(len(gaps)), counts)
        self.scale = np.repeat([rest.scale for rest in solving], counts)
        self.gamma = np.repeat([gamma(len(rest.weight) + 10) for rest in solving], counts)
        # per gap: the lead poles at or below it
        self.lead_below = np.searchsorted(nu[1:m], lo, side="right")
        lam, f, slope, bound, ds, slope_size, inside = self._roots(lo, hi)
        ds.reverse()                            # each block's distances go once used
        for (b, _, _), rest, a, z in zip(gaps, solving, self.cuts, self.cuts[1:]):
            results[b] = rest.certify(rest.record(lam[a:z], f[a:z], slope[a:z], bound[a:z],
                                                  ds.pop(), slope_size[a:z], inside[a:z]))
        return results

    def _roots(self, lo, hi):
        """The root of each gap (lo, hi), as its offset from the nearer end,
        by the middle way (``_middle_way``), with the certificates' data."""
        n = len(lo)
        bounded = np.isfinite(lo) & np.isfinite(hi)
        width = hi - lo
        # one evaluation starts every root: at the middle of each bounded
        # gap, and at OUTER_PROBES distances u_k from the finite end of each
        # outer gap, halving from the distance to -+2 ||h||_inf, beyond which
        # no eigenvalue lies; its rows come block by block, each block's
        # bounded gaps before its outer gaps' probes
        at_low = np.isfinite(lo)
        origin = np.where(at_low, lo, hi)
        outer = np.flatnonzero(~bounded)
        side = np.where(at_low[outer], 1.0, -1.0)
        u = (2.0 * self.scale[outer] - side * origin[outer])[:, None] \
            * 0.5 ** np.arange(OUTER_PROBES)
        count = np.where(bounded, 1, OUTER_PROBES)
        order = np.lexsort((~bounded, self.owner))
        probe = np.repeat(order, count[order])
        first = np.empty(n, dtype=int)          # each gap's first row
        first[order] = np.cumsum(count[order]) - count[order]
        x = np.empty(len(probe))
        x[first[bounded]] = width[bounded] / 2
        probes = first[outer][:, None] + np.arange(OUTER_PROBES)
        x[probes] = side[:, None] * u
        values = self._state(probe, origin[probe], x)
        # side * f rises with the distance in an outer gap: its root lies
        # between the first probe from the far end where that is at most 0
        # and the probe before, where the root starts, or nearer than the
        # nearest probe, which it starts from
        row = np.arange(len(outer))
        below = side[:, None] * values[0][probes] <= 0
        found = below.any(axis=1)
        k = np.where(found, np.argmax(below, axis=1), OUTER_PROBES - 1)
        pick = first
        pick[outer] += k
        f, left, right, size = (v[pick] for v in values)
        x = x[pick]
        del values, probe, count, order, first, pick
        near = np.where(found, u[row, k], 0.0)
        far = u[row, np.where(found, np.maximum(k - 1, 0), k)]
        t_lo = np.zeros(n)
        t_hi = np.where(bounded, width / 2, 0.0)
        t_lo[outer] = np.where(side > 0, near, -far)
        t_hi[outer] = np.where(side > 0, far, -near)
        gamma = self.gamma
        # the middle's sign says on which side a bounded gap's root lies:
        # the origin is that end
        flip = bounded & (f < 0)
        at_low &= ~flip
        origin = np.where(flip, hi, origin)
        x = np.where(flip, -x, x)
        t_lo, t_hi = np.where(flip, -t_hi, t_lo), np.where(flip, 0.0, t_hi)

        def iterate(active, f, left, right, size, early):
            """Step the roots ``active`` from their states until each stops:
            where f is within STOP_ULPS roundings of its terms' size, where
            its step or its bracket is within STOP_ULPS units roundoff of
            it, or, when ``early``, after a step within EARLY_STEP of its
            offset."""
            for _ in range(SECULAR_MAX_STEPS):
                at = x[active]
                a = t_lo[active] = np.where(f < 0, at, t_lo[active])
                b = t_hi[active] = np.where(f > 0, at, t_hi[active])
                step = self._middle_way(f, left, right, at, width[active], at_low[active],
                                        bounded[active])
                tol = STOP_ULPS * UNIT_ROUNDOFF * np.abs(at)
                small = np.abs(f) <= STOP_ULPS * UNIT_ROUNDOFF * size
                converged = np.abs(step - at) <= (EARLY_STEP * np.abs(at) if early else tol)
                stop = small | converged | (b - a <= tol)
                inside = (step > a) & (step < b)
                x[active] = np.where(stop, np.where(converged & ~small, step, at),
                                     np.where(inside, step, 0.5 * (a + b)))
                active = active[~stop]
                if not len(active):
                    return
                f, left, right, size = self._state(active, origin[active], x[active])
            raise ArithmeticError(f"{len(active)} secular roots did not converge "
                                  f"in {SECULAR_MAX_STEPS} steps")

        # the middle way converges quadratically, so a step within
        # EARLY_STEP leaves nearly every root at rounding level; the final
        # evaluation finds the others, which step on to the strict stop
        iterate(np.arange(n), f, left, right, size, early=True)
        f, left, right, size, ds, slope_size = self._state(np.arange(n), origin, x, True)
        # |f| at a root is within the rounding of its terms, gamma_{G+10}
        # times the sum of their sizes (G rest poles, each term rounded in
        # its distance, the offset's own rounding, reciprocal and product, and
        # the lead term, whose products and angles ``size`` holds), plus the
        # change of f across the stopping step
        bound = gamma * size + 2 * STOP_ULPS * UNIT_ROUNDOFF * np.abs(x) * (1.0 + left + right)
        again = np.flatnonzero(np.abs(f) > bound)
        if len(again):
            iterate(again, f[again], left[again], right[again], size[again], early=False)
            f, left, right, size, ds, slope_size = self._state(np.arange(n), origin, x, True)
            bound = gamma * size + 2 * STOP_ULPS * UNIT_ROUNDOFF * np.abs(x) \
                * (1.0 + left + right)
        inside = np.where(at_low, x > 0, x < 0) & (np.abs(x) < width)
        return origin + x, f, left + right, bound, ds, slope_size, inside

    def _state(self, index, origin, x, full=False):
        """f at lam = origin + x in the gaps ``index``, which come grouped by
        block, its slopes from the poles at or below each gap and from those
        above, and the sizes that bound the rounding of f; ``full`` adds
        each block's rest pole distances (relatively accurate when the
        origin is the nearest pole) and the sizes that bound the rounding
        of f'.  Each block's rest terms are its own products over its own
        rows, so they do not depend on the other blocks."""
        parts, ds = [], []
        # binary search finds where each block's rows begin, for they are
        # grouped, though not sorted within a block
        cuts = [0, *np.searchsorted(index, self.cuts[1:-1]).tolist(), len(index)]
        for rest, first, a, z in zip(self.solving, self.cuts, cuts, cuts[1:]):
            if a == z:
                continue
            d = origin[a:z, None] - rest.group_pole
            d += x[a:z, None]
            inv = 1.0 / d if full else np.divide(1.0, d, out=d)
            terms = inv * inv
            terms *= rest.weight
            left, slope = _split_sum(terms, rest.rest_below[index[a:z] - first])
            value = -(inv @ rest.weight)
            parts.append([value, left, slope - left, np.abs(inv, out=inv) @ rest.weight, slope])
            if full:
                ds.append(d)
            del d, inv, terms                   # before the next block's
        poles = parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
        lead = self.lead.term(self.lead_below[index], origin, x, full)
        f, left, right, size, slope_size = (r + q for r, q in zip(poles, lead))
        return (f, left, right, size, ds, slope_size) if full else (f, left, right, size)

    @staticmethod
    def _middle_way(f, left, right, x, width, at_low, bounded):
        """The next offset: the root of lam + s - A/(lam - a) + B/(b - lam)
        (a, b the gap's ends; A, B match the slopes ``left`` and ``right`` of
        the parts of f from the poles at or below a and at or above b; s
        matches f), solved from the nearer end without cancellation."""
        with np.errstate(divide="ignore", invalid="ignore"):
            # a bounded gap: lam's own slope joins the side away from the
            # origin, and the model C - A/(lam - a) + B/(b - lam), C constant,
            # is a quadratic in the distance u from the origin end:
            # C' u^2 - X u + A' width = 0, (C', A') = (C, A) at a, (-C, B) at b,
            # X = C' width + near u^2 + far (width - u)^2, whose first and
            # last terms each carry about far width^2 and cancel near the
            # origin end; it is summed as (+-f + near u) width
            # - far (width - u) u + near u^2, every term at the near pole's
            # scale
            near = np.where(at_low, left, right)
            far = np.where(at_low, right, left) + 1.0
            u = np.abs(x)
            big_a, c_near = near * u * u, np.where(at_low, f, -f) + near * u
            c_o = c_near - far * (width - u)
            big_x = c_near * width - far * (width - u) * u + big_a
            root = np.sqrt(np.maximum(big_x * big_x - 4.0 * c_o * big_a * width, 0.0))
            step = np.where(big_x >= 0, 2.0 * big_a * width / (big_x + root),
                            (big_x - root) / (2.0 * c_o))
            # an outer gap: lam + s - A/(lam - a), or lam + s + B/(b - lam), is
            # u^2 + y u - A = 0 in u
            y = np.where(at_low, 1.0, -1.0) * f - u + near * u
            outer = np.sqrt(y * y + 4.0 * near * u * u)
            outer = np.where(y >= 0, 2.0 * near * u * u / (y + outer), (outer - y) / 2.0)
        step = np.where(bounded, step, outer)
        return np.where(at_low, step, -step)
