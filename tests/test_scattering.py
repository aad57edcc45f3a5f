"""Analytic transmission, zero structure and the numeric scattering oracle."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import scattering

from fanonet import (
    GraphSpecError,
    LatticeGraph,
    Partition,
    PiLatticeSpec,
    assemble_hamiltonian,
    common_zeros,
    evanescent_bound_states,
    find_trapping_modes,
    l_dependent_reflection_zeros,
    long_time_survival,
    numeric_scatter_oracle,
    peak_dip_report,
    resonant_bound_states,
    scattering_point,
    transmission_amplitude,
    transmission_probability,
    transmission_sweep,
)
from fanonet.bound_states import sign_change_roots
from fanonet.scattering import EPS, side_chain_response, _phase_shift

from _support import closed_forms, dense_scatter_reference, resonant_existence


def test_resonant_transmission_point():
    # vanishing side-chain response: N0=2, equal hoppings, k=pi/2 makes
    # beta = sin(pi) = 0, so the waveguide decouples and t = 1
    t, r, _, _ = closed_forms(np.pi / 2, 2, 5)
    assert abs(t - 1.0) < 1e-12
    assert abs(r) < 1e-12


@pytest.mark.parametrize(
    "n0, k, energy",
    [(2, np.pi / 3, -1.0), (3, np.pi / 4, -np.sqrt(2))],
)
def test_total_reflection_points(n0, k, energy):
    for length in (4, 5, 6):
        t, r, _, _ = closed_forms(k, n0, length)
        assert abs(t) ** 2 < 1e-12
        assert abs(abs(r) - 1.0) < 1e-10
        point = scattering_point(k, n0, length)
        assert point.energy == pytest.approx(energy, abs=1e-12)


@settings(max_examples=300)
@given(
    st.floats(0.05, np.pi - 0.05),
    st.integers(1, 5),
    st.integers(2, 1000),
    st.floats(0.3, 10.0),
)
@example(2.257, 2, 40, 1.3)
@example(0.764, 2, 1000, 1.3)
def test_dual_path_and_flux(k, n0, length, kappa0):
    # the real form of T against |t|^2 of the sector kernel within the
    # rounding bound derived for the two paths, and T + R = 1 within the
    # kernel's 64 eps (CHANGES.md)
    point = scattering_point(k, n0, length, 1.0, kappa0)
    _, _, real_form, bound = closed_forms(k, n0, length, 1.0, kappa0)
    assert abs(real_form - abs(point.t) ** 2) <= bound
    assert abs(point.transmission + point.reflection - 1.0) <= 64 * EPS
    assert 0.0 <= point.transmission <= 1.0 + 64 * EPS


@pytest.mark.parametrize("n0, length, kappa0", [
    (2, 23, 0.4311), (3, 93, 2.0009), (1, 5, 1.0), (4, 300, 5.0), (2, 1000, 0.5),
])
def test_band_edges_pass_every_check(n0, length, kappa0):
    # within 1e-8 of k = 0 and pi (energies a CLI --e-min or --e-max can
    # ask for) both wings of the sector function are small; formed without
    # cancellation they keep the kernel within its bound there
    edge = np.geomspace(1e-8, 1e-2, 200)
    ks = np.concatenate([edge, np.pi - edge[::-1]])
    t, r, big_t, big_r = transmission_sweep(ks, n0, length, 1.0, kappa0)
    assert np.all(np.abs(big_t + big_r - 1.0) <= 64 * EPS)


def _edge_oracle_tolerance(n0, length, kappa0, k, psi):
    """Bound on |t - oracle t| next to a band edge, for the oracle with one
    lead site per side and the pi lattice at kappa = 1 (CHANGES.md).

    To first order the oracle's t is the exact t of the truncated lattice
    with each row of its equations perturbed: a Schrodinger row by at most
    8 eps h G (four rounded operations, h = |E| + max(2 + kappa0, 2*kappa0)
    the row's largest absolute sum of H - E, G = max(1, max|psi|)), and
    each of the four pinned rows through its phase k*(j - 1), by at most
    (pi*N + 1) eps G.  t answers a source on site j with psi'_j / (2i sin k),
    psi' the state incident from the other side (psi's mirror image, so
    |psi'| <= G): 2 sin k is the lead's group velocity and |det| of the
    2x2 split of the pinned values.  Over the N sites that is
    eps G^2 N (8h + 4*pi + 4) / (2 sin k).
    """
    sites = 2 * n0 + length + 2
    energy = -2.0 * np.cos(k)
    h = abs(energy) + max(2.0 + kappa0, 2.0 * kappa0)
    amplitude = max(1.0, float(np.max(np.abs(psi))))
    return EPS * amplitude**2 * sites * (8 * h + 4 * np.pi + 4) / (2 * np.sin(k))


@given(
    st.integers(1, 5),
    st.integers(2, 1000),
    st.floats(0.3, 10.0),
    st.floats(-12.0, -6.0),
    st.booleans(),
)
@example(1, 5, 1.0, -8.0, True)     # the real form of T read 0.7273 here, |t|^2 1.0000
@example(1, 5, 1.0, -12.0, True)    # T -> 1 at these two edges, where a first-order dual
@example(2, 4, 1.0, -10.0, True)    # bound failed the kernel within about 3e-9 of pi
def test_band_edges_one_momentum_functions_return_the_kernel(n0, length, kappa0, exponent, top):
    # within 1e-6 of k = 0 or pi every one-momentum function returns the
    # checked sector kernel's values, and T agrees with the oracle's |t|^2
    # within the kernel's bound plus the oracle's (_edge_oracle_tolerance)
    k = np.pi - 10.0**exponent if top else 10.0**exponent
    point = scattering_point(k, n0, length, 1.0, kappa0)
    big_t = transmission_probability(k, n0, length, 1.0, kappa0)
    t, r = transmission_amplitude(k, n0, length, 1.0, kappa0)
    bits = lambda values: [np.complex128(v).tobytes() for v in values]
    assert bits([big_t, t, r]) == bits([point.transmission, point.t, point.r])
    t_oracle, _ = numeric_scatter_oracle(n0, length, 1.0, kappa0, k, leads=1)
    _, _, psi = dense_scatter_reference(n0, length, 1.0, kappa0, k, leads=1)
    # the formula bound is the closed form's bound on t plus the kernel's
    kernel = scattering._evaluate(np.array([k]), n0, length, 1.0, kappa0).bound["formula"][0]
    delta = kernel + _edge_oracle_tolerance(n0, length, kappa0, k, psi)
    assert abs(big_t - abs(t_oracle) ** 2) <= delta * (2 * abs(t) + delta)


def test_band_edge_rejected():
    for k in (0.0, np.pi, -0.3, 4.0):
        with pytest.raises(ValueError, match="pi"):
            transmission_probability(k, 2, 5)


@pytest.mark.parametrize("n0, expected", [(1, 0.0), (2, 1.0), (3, 0.0), (4, 1.0), (5, 0.0), (6, 1.0)])
def test_single_side_chain_parity_rule(n0, expected):
    # at k = pi/2 a side chain of odd n0 reflects totally and one of even
    # n0 is transparent, T = [1 + (-1)^n0]/2, whatever the chains' distance:
    # pi/2 is a common zero, of T (k_min) for odd n0 and of R (k_max) for even
    for length in (2, 3, 4, 5, 40, 41):
        point = scattering_point(np.pi / 2, n0, length)
        _, _, real_form, bound = closed_forms(np.pi / 2, n0, length)
        assert abs(point.transmission - expected) <= bound
        assert abs(real_form - expected) <= bound
    catalog = common_zeros(n0)
    zeros = catalog.k_max if n0 % 2 == 0 else catalog.k_min
    others = catalog.k_min if n0 % 2 == 0 else catalog.k_max
    assert any(z.k == pytest.approx(np.pi / 2, abs=1e-15) for z in zeros)
    assert not any(z.k == pytest.approx(np.pi / 2, abs=1e-6) for z in others)


def test_single_side_chain_general_momentum():
    # off the special point one side chain is a partial mirror with
    # transmission tau = 4 a^2 / (4 a^2 + b^2), a = alpha sin k, b = beta; the
    # lattice is two of them in series, so the sector kernel's |t|^2 follows
    # the two-mirror (Airy) form tau^2 / (tau^2 + 4 (1 - tau) sin^2 phi)
    k = 1.1
    u_top, u_next = side_chain_response(k, 3, 1.0, 1.0)
    a, b = u_top * np.sin(k), u_next
    tau = 4 * a * a / (4 * a * a + b * b)
    for length in (2, 5, 6, 17, 300):
        phi = k * (length - 1) - _phase_shift(k, 3, 1.0, 1.0)
        expected = tau**2 / (tau**2 + 4 * (1 - tau) * np.sin(phi) ** 2)
        assert abs(scattering_point(k, 3, length).t) ** 2 == pytest.approx(expected, abs=1e-12)


def test_common_zero_catalog_equal_hoppings():
    catalog = common_zeros(2)
    assert [round(z.energy, 12) for z in catalog.k_min] == [-1.0, 1.0]
    assert [round(z.energy, 12) for z in catalog.k_max] == [0.0]
    catalog3 = common_zeros(3)
    assert -np.sqrt(2) == pytest.approx(catalog3.k_min[0].energy, abs=1e-12)
    assert -1.0 == pytest.approx(catalog3.k_max[0].energy, abs=1e-12)
    assert all(z.provenance == "common-alpha" for z in catalog.k_min)
    assert all(z.provenance == "common-beta" for z in catalog.k_max)


def test_common_zeros_drop_out_of_band_entries():
    catalog = common_zeros(1, kappa=1.0, kappa0=2.0)
    # side momentum pi/2 maps to cos k = 0: still in band; momenta pi/3 etc.
    # for the beta family do not exist for n0=1, and the alpha family at
    # n=1 gives cos k = 2 cos(pi/2) = 0 -> kept; detuned further entries drop
    assert catalog.dropped == []
    catalog = common_zeros(3, kappa=1.0, kappa0=2.0)
    assert catalog.dropped, "expected out-of-band candidates to be reported"
    for entry in catalog.dropped:
        assert abs(entry["cos_k"]) >= 1.0 - 1e-12


def test_zero_catalog_values_hit_extremes():
    for n0 in (2, 3):
        catalog = common_zeros(n0)
        for zero in catalog.k_min:
            assert transmission_probability(zero.k, n0, 6) < 1e-12
        for zero in catalog.k_max:
            assert transmission_probability(zero.k, n0, 6) > 1.0 - 1e-12


def test_reflection_zero_positions_for_successive_lengths():
    roots5 = l_dependent_reflection_zeros(2, 5)
    roots6 = l_dependent_reflection_zeros(2, 6)
    nearest5 = min(roots5, key=lambda k: abs(k - np.pi / 3))
    nearest6 = min(roots6, key=lambda k: abs(k - np.pi / 3))
    assert nearest5 == pytest.approx(0.29 * np.pi, abs=0.005 * np.pi)
    assert nearest6 == pytest.approx(0.36 * np.pi, abs=0.005 * np.pi)
    assert -2 * np.cos(nearest5) == pytest.approx(-1.21, abs=0.01)
    assert -2 * np.cos(nearest6) == pytest.approx(-0.84, abs=0.01)
    for roots, length in ((roots5, 5), (roots6, 6)):
        for k0 in roots:
            assert transmission_probability(k0, 2, length) > 1.0 - 1e-12


def test_no_shared_roots_for_successive_lengths():
    # away from the common (beta = 0) reflection zeros, L and L+1 never
    # share an L-dependent zero
    for length in range(4, 9):
        now = l_dependent_reflection_zeros(2, length)
        then = l_dependent_reflection_zeros(2, length + 1)
        for k0 in now:
            _, u_next = side_chain_response(k0, 2, 1.0, 1.0)
            if abs(u_next) < 1e-9:
                continue
            assert all(abs(k0 - other) > 1e-6 for other in then)


def test_shift_identity_at_reflection_zeros():
    length0 = 5
    for k0 in l_dependent_reflection_zeros(2, length0):
        delta = _phase_shift(k0, 2, 1.0, 1.0)
        for m in (1, 2, 3):
            lhs = np.sin(k0 * (length0 + m - 1) - delta) ** 2
            assert lhs == pytest.approx(np.sin(m * k0) ** 2, abs=1e-10)


def test_transmission_symmetric_around_reflection_zero():
    length0 = 5
    for k0 in l_dependent_reflection_zeros(2, length0):
        for m in (1, 2, 3):
            up = transmission_probability(k0, 2, length0 + m)
            down = transmission_probability(k0, 2, length0 - m)
            assert up == pytest.approx(down, abs=1e-10)


def test_oracle_matches_formula():
    ks = np.linspace(0.08, np.pi - 0.08, 25)
    for k in ks:
        t, r, _, _ = closed_forms(k, 3, 5)
        t_o, r_o = numeric_scatter_oracle(3, 5, 1.0, 1.0, k, leads=30)
        assert abs(t - t_o) < 1e-8
        assert abs(r - r_o) < 1e-8
        assert abs(abs(t_o) ** 2 + abs(r_o) ** 2 - 1.0) < 1e-10


def test_oracle_matches_formula_detuned():
    for k in np.linspace(0.2, np.pi - 0.2, 9):
        t = closed_forms(k, 2, 5, 1.0, 0.6).t
        t_o, _ = numeric_scatter_oracle(2, 5, 1.0, 0.6, k, leads=40)
        assert abs(t - t_o) < 1e-8


def test_incidence_side_isotropy():
    for k in (0.4, 1.2, 2.3):
        t_left, _ = numeric_scatter_oracle(2, 4, 1.0, 1.0, k, leads=30, incident="left")
        t_right, _ = numeric_scatter_oracle(2, 4, 1.0, 1.0, k, leads=30, incident="right")
        assert abs(abs(t_left) - abs(t_right)) < 1e-10


def test_oracle_validates_input():
    for leads in (0, -3):
        with pytest.raises(ValueError, match="leads must be >= 1"):
            numeric_scatter_oracle(2, 4, 1.0, 1.0, 1.0, leads=leads)
    with pytest.raises(ValueError, match="incident"):
        numeric_scatter_oracle(2, 4, 1.0, 1.0, 1.0, leads=30, incident="top")


def _oracle_tolerance(n0, length, k, leads, psi):
    """Bound on |oracle - dense reference| in t and in r.

    Each of the N host steps of the oracle's recurrence rounds at most four
    operations on amplitudes no larger than G = max|psi| (incoming wave of
    amplitude 1): a local error of at most 8 eps G.  The lead's transfer
    matrices carry it to the incoming pins with norm at most 1/sin k, and
    the 2x2 split of the pins into incoming and reflected waves has an
    inverse of norm at most 1/sin k.  The dense LU solve obeys a bound of
    the same form, so their difference is within twice the oracle's bound.
    """
    sites = 2 * leads + 2 * n0 + length
    amplitude = max(1.0, float(np.max(np.abs(psi))))
    return 2 * 8 * sites * np.finfo(float).eps * amplitude / np.sin(k) ** 2


@given(
    st.integers(1, 5),
    st.integers(2, 60),
    st.floats(0.3, 6.0),
    st.floats(0.05, np.pi - 0.05),
    st.integers(20, 60),
)
def test_oracle_matches_dense_reference(n0, length, kappa0, k, extra_leads):
    leads = length + extra_leads
    t_sides, tols = [], []
    for incident in ("left", "right"):
        t, r = numeric_scatter_oracle(n0, length, 1.0, kappa0, k, leads, incident)
        t_ref, r_ref, psi = dense_scatter_reference(n0, length, 1.0, kappa0, k, leads, incident)
        tol = _oracle_tolerance(n0, length, k, leads, psi)
        assert abs(t - t_ref) <= tol
        assert abs(r - r_ref) <= tol
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-10
        t_sides.append(t)
        tols.append(tol)
    assert abs(t_sides[0] - t_sides[1]) <= max(tols)         # reciprocity


@given(
    st.integers(1, 5),
    st.integers(2, 60),
    st.floats(0.3, 6.0),
    st.floats(0.05, np.pi - 0.05),
    st.integers(1, 3),
)
@example(1, 2, 1.0, 1.0, 1)
def test_oracle_with_the_shortest_leads(n0, length, kappa0, k, leads):
    # the leads beyond the anchors are free chains that carry the plane
    # waves exactly, so one lead site per side gives the amplitudes of any
    # longer truncation
    long_leads = length + 20
    t_long, r_long = numeric_scatter_oracle(n0, length, 1.0, kappa0, k, long_leads)
    _, _, psi_long = dense_scatter_reference(n0, length, 1.0, kappa0, k, long_leads)
    tol_long = _oracle_tolerance(n0, length, k, long_leads, psi_long)
    for incident in ("left", "right"):
        t, r = numeric_scatter_oracle(n0, length, 1.0, kappa0, k, leads, incident)
        t_ref, r_ref, psi = dense_scatter_reference(n0, length, 1.0, kappa0, k, leads, incident)
        tol = _oracle_tolerance(n0, length, k, leads, psi)
        assert abs(t - t_ref) <= tol
        assert abs(r - r_ref) <= tol
        if incident == "left":
            assert abs(t - t_long) <= tol + tol_long
            assert abs(r - r_long) <= tol + tol_long


@pytest.mark.parametrize("n0, length, kappa0", [(2, 5, 1.0), (3, 40, 1.0), (1, 7, 0.6), (4, 9, 1.7)])
def test_oracle_at_total_reflection(n0, length, kappa0):
    # at (4, 9, 1.7) and its first momentum a side-chain pivot is exactly
    # zero: the anchor is pinned to zero amplitude and t must come out 0
    leads = length + 20
    momenta = [z.k for z in common_zeros(n0, 1.0, kappa0).k_min]
    assert momenta
    for k in momenta:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t, r = numeric_scatter_oracle(n0, length, 1.0, kappa0, k, leads)
        assert np.isfinite(t) and np.isfinite(r)
        assert abs(t) <= 1e-12
        t_ref, r_ref, psi = dense_scatter_reference(n0, length, 1.0, kappa0, k, leads)
        tol = _oracle_tolerance(n0, length, k, leads, psi)
        assert abs(t - t_ref) <= tol
        assert abs(r - r_ref) <= tol


def test_branch_elimination_is_the_schur_complement():
    # a host path 0..9 with a forked, uneven branch on site 3 and a single
    # site on site 7, potentials on both: each anchor's self-energy must be
    # h_ab (E - H_bb)^-1 h_ba over its branch's sites b
    hoppings = [(i, i + 1, 1.0) for i in range(9)]
    hoppings += [(3, 10, 0.7), (10, 11, 1.3), (10, 12, -0.4), (12, 13, 0.9), (7, 14, 2.0)]
    potentials = ((11, 0.3), (13, -0.8), (14, 0.5))
    graph = LatticeGraph(15, tuple(hoppings), potentials)
    h = assemble_hamiltonian(graph)
    energy = 0.37
    path, hop, mu, sigma = scattering._branch_self_energies(graph, 0, 9, energy)
    assert path == list(range(10)) and hop == [1.0] * 9 and mu[11] == 0.3
    assert sorted(sigma) == [3, 7]
    for anchor, branch in ((3, [10, 11, 12, 13]), (7, [14])):
        block = energy * np.eye(len(branch)) - h[np.ix_(branch, branch)]
        coupling = h[anchor, branch]
        expected = coupling @ np.linalg.solve(block, coupling)
        a, b = sigma[anchor]
        assert a / b == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="tree"):
        scattering._branch_self_energies(LatticeGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))),
                                         0, 2, energy)


def test_oracle_with_long_leads():
    # 200k sites: a dense system of this size could not even be allocated
    t, r = numeric_scatter_oracle(3, 123, 1.0, 1.0, 1.0, leads=100_000)
    point = scattering_point(1.0, 3, 123)
    assert abs(t - point.t) < 1e-8
    assert abs(r - point.r) < 1e-8


def test_peak_dip_swapping_for_successive_lengths():
    report = peak_dip_report(2, 5, 6)
    first_dip = next(e for e in report.entries if e["dip_energy"] < 0)
    assert first_dip["a"]["side"] == "left"
    assert first_dip["b"]["side"] == "right"
    assert first_dip["straddle"]
    assert first_dip["a"]["k0"] == pytest.approx(0.29 * np.pi, abs=0.005 * np.pi)
    assert first_dip["b"]["k0"] == pytest.approx(0.36 * np.pi, abs=0.005 * np.pi)


def test_peak_dip_larger_side_chain():
    report = peak_dip_report(5, 5, 6)
    assert any(e["straddle"] for e in report.entries)


def test_identical_lengths_do_not_swap():
    report = peak_dip_report(2, 5, 5)
    assert not any(e["straddle"] for e in report.entries)
    for entry in report.entries:
        if entry["a"] and entry["b"]:
            assert entry["a"]["k0"] == pytest.approx(entry["b"]["k0"], abs=1e-12)


def test_total_reflection_matches_trapped_surrogate():
    # the input-side subgraph (side chain + anchor + left lead) is a uniform
    # chain; its trapped modes pin the total-reflection energies.  Build the
    # single-side-chain lattice, certify, compare with the alpha = 0 zeros.
    n0, lead_sites, tail_sites = 2, 50, 12
    chain = list(range(lead_sites + 1 + n0 + tail_sites))
    # order: lead c_{1-50}..c_0 | c_1 | a_1..a_2 hang off separately
    host = lead_sites + 1 + tail_sites
    hoppings = []
    for i in range(host - 1):
        hoppings.append((i, i + 1, 1.0))
    anchor = lead_sites
    side_first = host
    hoppings.append((anchor, side_first, 1.0))
    for i in range(n0 - 1):
        hoppings.append((side_first + i, side_first + i + 1, 1.0))
    graph = LatticeGraph(host + n0, tuple(hoppings))
    labels = [0] * (lead_sites + 1) + [1] * tail_sites + [0] * n0
    partition = Partition(graph, tuple(labels))
    certs = find_trapping_modes(graph, partition, 0)
    certified = sorted(c.energy for c in certs)
    expected = sorted(z.energy for z in common_zeros(n0).k_min)
    np.testing.assert_allclose(certified, expected, atol=1e-9)


def test_degenerate_point_continues_its_neighbours():
    # kappa0 = cos(k) puts the side momentum exactly at 0, where alpha and
    # beta vanish together; U_n(x) = sin((n+1)q)/sin q has divided out their
    # common zero, so the point needs no special case and continues the
    # neighbouring momenta smoothly
    k = float(np.arccos(0.5))
    kappa0 = float(np.cos(k))
    point = scattering_point(k, 2, 5, 1.0, kappa0)
    assert point.t == scattering_point(k, 2, 5, 1.0, kappa0).t
    assert abs(point.transmission + point.reflection - 1.0) < 1e-10
    for step in (-1e-6, 1e-6):
        t_near = closed_forms(k + step, 2, 5, 1.0, kappa0).t
        assert abs(point.t - t_near) < 1e-4


def _scalar_sweep(ks, n0, length, kappa0):
    """The loop transmission_sweep replaces: its four arrays, or the type
    and message of the first error a scattering_point call raises."""
    points = []
    try:
        for k in ks:
            points.append(scattering_point(float(k), n0, length, 1.0, kappa0))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return (np.array([p.t for p in points]), np.array([p.r for p in points]),
            np.array([p.transmission for p in points]),
            np.array([p.reflection for p in points]))


def _assert_sweep_matches_loop(ks, n0, length, kappa0):
    expected = _scalar_sweep(ks, n0, length, kappa0)
    if isinstance(expected[0], type):
        with pytest.raises(expected[0]) as info:
            transmission_sweep(np.array(ks), n0, length, 1.0, kappa0)
        assert str(info.value) == expected[1]
        return
    got = transmission_sweep(np.array(ks), n0, length, 1.0, kappa0)
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype
        assert array.tobytes() == reference.tobytes()    # bit for bit, zeros' signs too


@settings(max_examples=100)
@given(
    st.integers(1, 5),
    st.integers(2, 1000),
    st.floats(0.3, 6.0),
    st.lists(st.floats(1e-6, np.pi - 1e-6), min_size=1, max_size=40),
)
def test_transmission_sweep_equals_scalar_loop(n0, length, kappa0, ks):
    _assert_sweep_matches_loop(ks, n0, length, kappa0)


def _fail_at(monkeypatch, momenta):
    """Turn the sector function's phase by 0.1 at ``momenta``: there the
    kernel leaves the closed forms, elsewhere nothing changes.  A momentum
    is recognised by z = e^{ik}, which arrays and single momenta form alike."""
    marked = np.exp(1j * np.asarray(momenta))
    sector_function = scattering._sector_function

    def patched(z, *args):
        return sector_function(z, *args) * np.where(np.isin(z, marked), np.exp(0.1j), 1.0)

    monkeypatch.setattr(scattering, "_sector_function", patched)


@pytest.mark.parametrize("ks", [
    # the CLI's default grid, failing at one momentum
    np.arccos(-np.linspace(-2.0 + 1e-3, 2.0 - 1e-3, 800) / 2.0),
    # a finer grid, failing at 14 momenta, each with its own message
    np.linspace(0.01, np.pi - 0.01, 6000),
])
def test_transmission_sweep_raises_the_loops_first_error(ks, monkeypatch):
    failing = ks[[700]] if len(ks) == 800 else ks[np.linspace(4000, 100, 14).astype(int)]
    _fail_at(monkeypatch, failing)
    expected = _scalar_sweep(ks, 1, 1000, 1.5)
    assert expected[0] is ArithmeticError
    first = f"closed-form and sector transmission disagree at k={min(failing)}"
    assert expected[1].startswith(first)
    _assert_sweep_matches_loop(ks, 1, 1000, 1.5)


def test_transmission_sweep_takes_the_degenerate_limit():
    k = float(np.arccos(0.5))
    kappa0 = float(np.cos(k))
    ks = [k - 1e-3, k, k + 1e-3]
    _assert_sweep_matches_loop(ks, 2, 5, kappa0)


def test_every_one_momentum_function_applies_every_check(monkeypatch):
    # a kernel off the closed forms fails the formula check, and each
    # one-momentum function returns the kernel's values only after all checks
    k = 1.1
    _fail_at(monkeypatch, [k])
    for function in (transmission_amplitude, transmission_probability, scattering_point):
        with pytest.raises(ArithmeticError, match="closed-form and sector transmission disagree"):
            function(k, 2, 5, 1.0, 1.3)


def _scalar_objective(k, n0, length, kappa, kappa0):
    """sin(k(L-1) - delta) at one momentum, delta the angle of
    (kappa0*U_{n0-1}(x), 2*kappa*U_{n0}(x)*sin k)."""
    k = np.array([k])
    x = kappa * np.cos(k) / kappa0
    u = [np.ones_like(x), 2 * x]                  # U_0(x) .. U_n0(x)
    for _ in range(n0 - 1):
        u.append(2 * x * u[-1] - u[-2])
    delta = np.arctan2(2 * (kappa * u[n0] * np.sin(k)), kappa0 * u[n0 - 1])
    return float(np.sin(k * (length - 1) - delta)[0])


def _scalar_reflection_zeros(n0, length, kappa=1.0, kappa0=1.0):
    """Reference for l_dependent_reflection_zeros: the objective evaluated
    one momentum at a time and each bracket bisected on its own; a root
    counts where T > 1/2 (R = 0 there, not a bound state in the
    continuum)."""
    objective = lambda k: _scalar_objective(k, n0, length, kappa, kappa0)
    grid = np.linspace(scattering.K_EDGE_MARGIN, np.pi - scattering.K_EDGE_MARGIN,
                       max(scattering.K_GRID_POINTS, 2 * (length - 1)))
    vals = np.array([objective(k) for k in grid])
    roots = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        lo, hi, flo = grid[i], grid[i + 1], vals[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = objective(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < scattering.K_REFINE:
                break
        assert hi - lo < scattering.K_REFINE      # the scan raises otherwise
        k0 = 0.5 * (lo + hi)
        if scattering_point(k0, n0, length, kappa, kappa0).transmission > 0.5:
            roots.append(float(k0))
    return roots


@pytest.mark.parametrize("n0, length, kappa0", [
    (2, 5, 1.0), (3, 9, 0.6), (5, 40, 2.7), (1, 1000, 1.5),
])
def test_reflection_zeros_equal_scalar_bisection(monkeypatch, n0, length, kappa0):
    # the roots of scalar bisection, in order, each to within K_REFINE:
    # every final bracket is narrower than that and holds a sign change of
    # the objective
    expected = _scalar_reflection_zeros(n0, length, 1.0, kappa0)
    assert expected
    refined = []

    def refine(*args):
        refined.append(sign_change_roots(*args))
        return refined[-1]

    monkeypatch.setattr(scattering, "sign_change_roots", refine)
    roots = l_dependent_reflection_zeros(n0, length, 1.0, kappa0)
    assert len(roots) == len(expected)
    assert np.max(np.abs(np.array(roots) - expected)) < scattering.K_REFINE
    [(middles, lo, hi, _)] = refined
    assert np.all(np.diff(roots) > 0) and set(roots) <= set(middles.tolist())
    assert np.all(hi - lo < scattering.K_REFINE)
    # on arrays, as the scan evaluates it (the array path of _phase_shift)
    objective = lambda k: np.sin(k * (length - 1) - _phase_shift(k, n0, 1.0, kappa0))
    assert np.all(np.sign(objective(lo)) * np.sign(objective(hi)) <= 0)


@pytest.mark.parametrize("n0, length", [(3, 5), (2, 4), (3, 9), (1, 3), (1, 101)])
def test_reflection_zeros_skip_bound_states_in_the_continuum(n0, length):
    # at a resonant bound state the objective sin(k(L-1) - delta) vanishes
    # too (a = 0 and k(L-1) = m*pi), but T -> 0 there: no reflection zero
    resonant = [m * np.pi / (n0 + 1) for m, _ in resonant_existence(n0, length)]
    assert resonant
    roots = l_dependent_reflection_zeros(n0, length)
    for k in resonant:
        assert abs(np.sin(k * (length - 1) - _phase_shift(k, n0, 1.0, 1.0))) < 1e-12
        assert all(abs(root - k) > 1e-6 for root in roots)
    assert all(transmission_probability(root, n0, length) > 1.0 - 1e-12 for root in roots)


@pytest.mark.parametrize("n0, length, kappa0, k0", [
    (1, 48, 0.9112, 0.42371427369),
    (1, 143, 0.3787, 1.18290960249),
])
def test_reflection_zeros_near_the_side_chain_band_edge_are_listed(n0, length, kappa0, k0):
    # near x = kappa*cos(k)/kappa0 = +-1 the side-chain momentum used to turn
    # complex and the phase delta to jump by pi, cancelling a true sign
    # change in the same grid cell; delta is now continuous
    roots = l_dependent_reflection_zeros(n0, length, 1.0, kappa0)
    found = [root for root in roots if abs(root - k0) < 1e-10]
    assert len(found) == 1
    _, r = numeric_scatter_oracle(n0, length, 1.0, kappa0, found[0], length + 20)
    assert abs(r) ** 2 < 1e-20
    # every listed root is a zero of r to within the bisection's final
    # bracket: |r(k0)| <= |dr/dk| * K_REFINE / 2, allowed twice that here
    h = 1e-8
    for root in roots:
        r_at = [numeric_scatter_oracle(n0, length, 1.0, kappa0, root + d, length + 20)[1]
                for d in (-h, 0.0, h)]
        slope = abs(r_at[2] - r_at[0]) / (2 * h)
        assert abs(r_at[1]) <= slope * scattering.K_REFINE + 1e-12


@pytest.mark.parametrize("n0, length, kappa0", [(2, 3000, 1.0), (1, 5000, 1.0), (4, 2000, 0.3)])
def test_reflection_zeros_at_long_lengths_are_all_found(n0, length, kappa0):
    # the roots lie about pi/(length-1) apart; a grid of 2000 points found
    # a third of them at length 3000 and a fifth at 5000.  Here every sign
    # change of the objective on a grid 100 times finer than the scan's is
    # bisected to rounding, and those with T > 1/2 at the root (no bound
    # state in the continuum) must be the listed roots
    def objective(k):
        return np.sin(k * (length - 1) - _phase_shift(k, n0, 1.0, kappa0))

    fine = np.linspace(scattering.K_EDGE_MARGIN, np.pi - scattering.K_EDGE_MARGIN,
                       200 * (length - 1))
    values = objective(fine)
    cells = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    lo, hi, f_lo = fine[cells], fine[cells + 1], values[cells]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        right = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)
        hi = np.where(right, hi, mid)
    assert np.max(hi - lo) < scattering.K_REFINE
    middles = 0.5 * (lo + hi)
    _, _, big_t, _ = transmission_sweep(middles, n0, length, 1.0, kappa0)
    expected = middles[big_t > 0.5]
    roots = np.array(l_dependent_reflection_zeros(n0, length, 1.0, kappa0))
    assert len(expected) > length - 10
    assert len(roots) == len(expected)
    # both brackets hold the same sign change and are narrower than K_REFINE
    assert np.max(np.abs(roots - expected)) < scattering.K_REFINE


PI_LATTICE_FUNCTIONS = {
    "resonant_bound_states": lambda n0, length, kappa, kappa0:
        resonant_bound_states(n0, length, kappa, kappa0),
    "evanescent_bound_states": lambda n0, length, kappa, kappa0:
        evanescent_bound_states(n0, length, kappa, kappa0),
    "long_time_survival": lambda n0, length, kappa, kappa0:
        long_time_survival(n0, length, kappa, kappa0, mode=1),
    "scattering_point": lambda n0, length, kappa, kappa0:
        scattering_point(1.0, n0, length, kappa, kappa0),
    "transmission_amplitude": lambda n0, length, kappa, kappa0:
        transmission_amplitude(1.0, n0, length, kappa, kappa0),
    "transmission_probability": lambda n0, length, kappa, kappa0:
        transmission_probability(1.0, n0, length, kappa, kappa0),
    "transmission_sweep": lambda n0, length, kappa, kappa0:
        transmission_sweep(np.array([1.0]), n0, length, kappa, kappa0),
    "l_dependent_reflection_zeros": lambda n0, length, kappa, kappa0:
        l_dependent_reflection_zeros(n0, length, kappa, kappa0),
    "peak_dip_report-first-length": lambda n0, length, kappa, kappa0:
        peak_dip_report(n0, length, 6, kappa, kappa0),
    "peak_dip_report-second-length": lambda n0, length, kappa, kappa0:
        peak_dip_report(n0, 5, length, kappa, kappa0),
}


@pytest.mark.parametrize("name", sorted(PI_LATTICE_FUNCTIONS))
@pytest.mark.parametrize("n0, length, kappa, kappa0", [
    (0, 5, 1.0, 1.0),
    (2, 1, 1.0, 1.0),
    (2, 0, 1.0, 1.0),
    (2, 4, -1.0, -1.0),
    (2, 4, 1.0, -1.0),
    (2, 4, 0.0, 1.0),
    (2, 4, 1.0, float("nan")),
    (2, 4, float("inf"), 1.0),
])
def test_pi_lattice_functions_reject_what_no_lattice_has(name, n0, length, kappa, kappa0):
    # each raises the error, and the message, of the lattice's own check,
    # not a number or an error of its arithmetic
    with pytest.raises(GraphSpecError) as expected:
        PiLatticeSpec(n0, length, kappa, kappa0)
    with pytest.raises(GraphSpecError, match=re.escape(str(expected.value))):
        PI_LATTICE_FUNCTIONS[name](n0, length, kappa, kappa0)


@pytest.mark.parametrize("name", sorted(PI_LATTICE_FUNCTIONS))
@pytest.mark.parametrize("n0, length", [
    (2.5, 5),
    (2, 5.5),
    (2.0, 5),
    (np.float64(3.0), 5),
    (True, 4),
    (2, True),
    ("2", 5),
])
def test_pi_lattice_functions_reject_counts_that_are_not_integers(name, n0, length):
    # a float, even a whole one, or a bool is no site count: the lattice's
    # own check says so, before any arithmetic runs into it
    with pytest.raises(GraphSpecError) as expected:
        PiLatticeSpec(n0, length)
    assert "must be an integer" in str(expected.value)
    with pytest.raises(GraphSpecError, match=re.escape(str(expected.value))):
        PI_LATTICE_FUNCTIONS[name](n0, length, 1.0, 1.0)


@pytest.mark.parametrize("leads", [1.5, 2.0, False, None])
def test_pi_lattice_leads_must_be_an_integer(leads):
    with pytest.raises(GraphSpecError, match="leads must be an integer"):
        PiLatticeSpec(2, 4, leads=leads)


def test_pi_lattice_counts_may_be_numpy_integers():
    spec = PiLatticeSpec(np.int64(2), np.int32(4), leads=np.int16(3))
    assert spec.site_count == 14
