"""Resonant enumeration, evanescent root finding and long-time survival."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import (
    CENTRAL,
    PiLatticeSpec,
    assemble_hamiltonian,
    build_pi_lattice,
    evanescent_bound_states,
    l_dependent_reflection_zeros,
    long_time_survival,
    open_chain_modes,
    resonant_bound_states,
    subgraph_hamiltonian,
)
from fanonet import bound_states, scattering
from fanonet.bound_states import (
    ANTISYMMETRIC,
    SCANS,
    SYMMETRIC,
    _evanescent_state,
    _sector_condition,
    sign_change_roots,
)

from _support import (
    bound_state_wavefunction,
    central_sites,
    chain_modes,
    eigenvalues_below,
    host_site,
    out_of_band_count,
    resonant_existence,
)


def test_existence_pairs_and_momenta():
    momenta = lambda n0, length: [m * np.pi / (n0 + 1) for m, _ in resonant_existence(n0, length)]
    assert resonant_existence(3, 5) == [(1, 1), (2, 2), (3, 3)]
    np.testing.assert_allclose(momenta(3, 5), [np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    assert resonant_existence(2, 4) == [(1, 1), (2, 2)]
    np.testing.assert_allclose(momenta(2, 4), [np.pi / 3, 2 * np.pi / 3])
    assert resonant_existence(1, 4) == []        # even separation, no pairs
    assert resonant_existence(1, 3) == [(1, 1)]  # odd separation: one pi/2 mode


def test_resonant_states_canonical_case():
    states = resonant_bound_states(3, 5)
    assert len(states) == 3
    np.testing.assert_allclose(
        sorted(s.energy for s in states), [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12
    )
    for state in states:
        assert state.kind == "resonant"
        assert state.k.imag == 0.0
        assert state.central_amplitudes[3] == 0.0       # c1
        assert state.central_amplitudes[7] == 0.0       # c5
        assert abs(state.energy) <= 2.0 + 1e-12
        assert state.subgraph_weight == pytest.approx(1.0, abs=1e-12)


def test_resonant_states_absent_when_grids_incommensurate():
    assert resonant_bound_states(2, 5) == []


def test_resonant_embedding_is_exact_eigenstate():
    for state in resonant_bound_states(3, 5):
        psi = bound_state_wavefunction(state, leads=50)
        spec = PiLatticeSpec(3, 5, leads=50)
        h = assemble_hamiltonian(build_pi_lattice(spec).graph)
        assert np.max(np.abs(h @ psi - state.energy * psi)) < 1e-10
        # no amplitude ever reaches the leads
        leads = [s for s in range(spec.site_count) if s not in central_sites(spec)]
        assert np.max(np.abs(psi[leads])) == 0.0


def test_evanescent_decay_rates():
    states = evanescent_bound_states(3, 5)
    assert len(states) == 4
    below = sorted(round(s.gamma, 3) for s in states if s.energy < 0)
    above = sorted(round(s.gamma, 3) for s in states if s.energy > 0)
    assert below == [0.191, 0.382]
    assert above == [0.191, 0.382]
    parities = {round(s.gamma, 3): s.parity for s in states}
    assert parities[0.382] == SYMMETRIC
    assert parities[0.191] == ANTISYMMETRIC


def test_evanescent_single_root_for_short_lattice():
    states = evanescent_bound_states(2, 4)
    assert sorted(round(s.gamma, 3) for s in states) == [0.382, 0.382]
    assert sorted(s.energy for s in states) == pytest.approx(
        [-2 * np.cosh(0.38224508584), 2 * np.cosh(0.38224508584)], abs=1e-9
    )


@pytest.mark.parametrize("n0, length", [(3, 5), (2, 4)])
def test_energy_band_dichotomy(n0, length):
    for state in resonant_bound_states(n0, length):
        assert abs(state.energy) <= 2.0 + 1e-12
    for state in evanescent_bound_states(n0, length):
        assert abs(state.energy) > 2.0


@pytest.mark.parametrize("n0, length", [(3, 5), (2, 4)])
def test_energies_appear_in_truncated_spectrum(n0, length):
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, leads=200))
    spectrum = np.linalg.eigvalsh(assemble_hamiltonian(lattice.graph))
    for state in resonant_bound_states(n0, length):
        assert np.min(np.abs(spectrum - state.energy)) < 1e-10
    for state in evanescent_bound_states(n0, length):
        assert np.min(np.abs(spectrum - state.energy)) < 1e-6


def test_truncated_energy_error_shrinks_with_leads():
    # the hard wall perturbs an evanescent state by its tail weight, so the
    # truncated eigenvalue converges monotonically toward the exact energy
    state = min(evanescent_bound_states(2, 4), key=lambda s: s.energy)
    errors = []
    for leads in (10, 20, 30):
        lattice = build_pi_lattice(PiLatticeSpec(2, 4, leads=leads))
        spectrum = np.linalg.eigvalsh(assemble_hamiltonian(lattice.graph))
        errors.append(float(np.min(np.abs(spectrum - state.energy))))
    assert errors[0] > errors[1] > errors[2]


def test_evanescent_embedding_satisfies_schrodinger_everywhere():
    for state in evanescent_bound_states(3, 5):
        leads = 160 if state.gamma < 0.3 else 80
        psi = bound_state_wavefunction(state, leads=leads)
        lattice = build_pi_lattice(PiLatticeSpec(3, 5, leads=leads))
        h = assemble_hamiltonian(lattice.graph)
        assert np.max(np.abs(h @ psi - state.energy * psi)) < 1e-10


def test_evanescent_tail_is_exponential():
    state = next(
        s for s in evanescent_bound_states(3, 5) if s.energy < 0 and s.gamma > 0.3
    )
    spec = PiLatticeSpec(3, 5, leads=80)
    psi = bound_state_wavefunction(state, leads=80)
    c1 = host_site(spec, 1)
    # host-chain sites j <= 1 fall off as e^{-gamma (1-j)}
    for j in range(0, -12, -1):
        site = host_site(spec, j)
        ratio = abs(psi[site]) / abs(psi[c1])
        assert ratio == pytest.approx(np.exp(-state.gamma * (1 - j)), rel=1e-9)


def test_wall_rejects_fat_tail():
    state = evanescent_bound_states(2, 4)[0]
    with pytest.raises(ValueError, match="tail"):
        bound_state_wavefunction(state, leads=20)


def test_mirror_symmetry_of_bound_set():
    for n0, length in [(3, 5), (2, 4)]:
        lattice = build_pi_lattice(PiLatticeSpec(n0, length, leads=160))
        mirror = np.arange(lattice.graph.site_count)[::-1]
        for state in evanescent_bound_states(n0, length):
            psi = bound_state_wavefunction(state, leads=160)
            expected = 1.0 if state.parity == SYMMETRIC else -1.0
            np.testing.assert_allclose(psi[mirror], expected * psi, atol=1e-10)


def test_symmetric_state_even_under_mirror():
    state = next(s for s in evanescent_bound_states(3, 5) if s.parity == SYMMETRIC)
    amps = state.central_amplitudes
    np.testing.assert_allclose(amps, amps[::-1], atol=1e-10)


def test_long_time_survival_of_resonant_mode_is_unity():
    report = long_time_survival(2, 4, mode=3)
    assert report.p_infinity == pytest.approx(1.0, abs=1e-10)


def test_long_time_survival_of_leaky_modes():
    # stationary survival after the leaked part disperses, pinned to four
    # decimals
    for mode, expected in [(1, 0.5032), (2, 0.0027), (4, 0.0058)]:
        report = long_time_survival(2, 4, mode=mode)
        assert report.p_infinity == pytest.approx(expected, abs=5e-4)
        assert all(c["contribution"] >= 0 for c in report.contributions)


@pytest.mark.parametrize("weight", [float("nan"), 1.5])
def test_long_time_survival_that_is_no_probability_raises(weight):
    # mode 3 of (2, 4) is the resonant state: P_inf = 1 * its weight
    states = resonant_bound_states(2, 4) + evanescent_bound_states(2, 4)
    states = [dataclasses.replace(state, subgraph_weight=weight) for state in states]
    with pytest.raises(ArithmeticError, match="long-time survival of mode 3 is .*, not a "
                       "probability"):
        long_time_survival(2, 4, mode=3, states=states)


def test_long_time_survival_mirror_counterparts_agree():
    # modes n and Lambda+1-n are mirror partners and must decay identically
    for n in (1, 2, 4):
        a = long_time_survival(2, 4, mode=n).p_infinity
        b = long_time_survival(2, 4, mode=9 - n).p_infinity
        assert a == pytest.approx(b, abs=1e-12)


def test_detuned_hoppings_keep_oracle_equivalence():
    # kappa0 != kappa: resonant coincidences disappear, evanescent roots
    # persist and must still be exact eigenvalues of the truncated lattice
    n0, length, kappa, kappa0 = 2, 4, 1.0, 1.3
    assert resonant_bound_states(n0, length, kappa, kappa0) == []
    states = evanescent_bound_states(n0, length, kappa, kappa0)
    assert states, "detuned lattice lost its evanescent states"
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0, leads=200))
    spectrum = np.linalg.eigvalsh(assemble_hamiltonian(lattice.graph))
    for state in states:
        assert abs(state.energy) > 2.0 * kappa
        assert np.min(np.abs(spectrum - state.energy)) < 1e-6
        psi = bound_state_wavefunction(state, leads=200)
        h = assemble_hamiltonian(lattice.graph)
        assert np.max(np.abs(h @ psi - state.energy * psi)) < 1e-10


def test_mode_index_validated():
    with pytest.raises(ValueError, match="mode"):
        long_time_survival(2, 4, mode=9)


def _scalar_brackets(n0, length, kappa, kappa0, sign_z, s):
    """One gamma scan evaluated one grid point at a time: the sector
    condition and its sign-change brackets (lo, hi, f(lo)) in grid order.
    The grid is gamma = 0, then GAMMA_MIN onwards to two steps past
    acosh(G / (2*kappa)), with G the largest absolute row sum of the
    lattice Hamiltonian.  A condition exactly 0 at gamma = 0 counts with
    the sign of its derivative there."""
    top = np.arccosh(max(2 * kappa + kappa0, 2 * kappa0) / (2 * kappa))
    grid = np.concatenate([[0.0], np.arange(bound_states.GAMMA_MIN,
                                            top + 2 * bound_states.GAMMA_GRID_STEP,
                                            bound_states.GAMMA_GRID_STEP)])
    f = lambda g: _sector_condition(g, n0, length, kappa, kappa0, sign_z, s)
    vals = np.array([f(g) for g in grid])
    if vals[0] == 0:
        # f = kappa*(1 - z^2)*U_{n0}(x) - kappa0*(z + s*z^length)*U_{n0-1}(x)
        # with z = sign_z*e^{-gamma}: dz/dgamma = -z, and dx/dgamma = 0 at z^2 = 1
        x = kappa * sign_z / kappa0
        u = [1.0, 2 * x]
        for _ in range(n0 - 1):
            u.append(2 * x * u[-1] - u[-2])
        vals[0] = kappa * 2 * u[n0] + kappa0 * (sign_z + length * s * sign_z**length) * u[n0 - 1]
    crossings = (vals[:-1] * vals[1:] < 0) & np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    return f, [(grid[i], grid[i + 1], vals[i]) for i in np.nonzero(crossings)[0]]


def _scalar_bisect(f, lo, hi, flo):
    """(root, (lo, hi)) once the bracket is below GAMMA_REFINE, else
    (None, (lo, hi))."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < bound_states.GAMMA_REFINE:
            return 0.5 * (lo + hi), (lo, hi)
    return None, (lo, hi)


def _scalar_evanescent(n0, length, kappa, kappa0):
    """Reference for evanescent_bound_states: every scan point by point and
    every bracket bisected on its own, in scan order.  Returns the states
    and the (gamma, sign of z, s) of every root."""
    states, roots = [], []
    for sign_z, s in SCANS:
        f, brackets = _scalar_brackets(n0, length, kappa, kappa0, sign_z, s)
        for lo, hi, flo in brackets:
            gamma, (lo, hi) = _scalar_bisect(f, lo, hi, flo)
            assert gamma is not None
            roots.append((gamma, sign_z, s))
            states.append(_evanescent_state(gamma, sign_z, s, abs(f(hi) - f(lo)),
                                            n0, length, kappa, kappa0))
    return sorted(states, key=lambda s: s.energy), roots


# (1, 10, 0.6668) has a pair bracketed between gamma = 0 and GAMMA_MIN
@pytest.mark.parametrize("n0, length, kappa0", [(3, 5, 1.0), (2, 4, 0.6), (2, 1000, 1.5),
                                                (1, 10, 0.6668)])
def test_evanescent_roots_equal_scalar_bisection(monkeypatch, n0, length, kappa0):
    # the roots of scalar bisection, bracket by bracket in scan order, each
    # to within GAMMA_REFINE: every final bracket is narrower than that and
    # holds a sign change of its sector condition
    expected, expected_roots = _scalar_evanescent(n0, length, 1.0, kappa0)
    assert expected_roots
    roots, refined = [], []

    def build(gamma, sign_z, s, *args):
        roots.append((gamma, sign_z, s))
        return _evanescent_state(gamma, sign_z, s, *args)

    def refine(*args):
        refined.append(sign_change_roots(*args))
        return refined[-1]

    monkeypatch.setattr(bound_states, "_evanescent_state", build)
    monkeypatch.setattr(bound_states, "sign_change_roots", refine)
    states = evanescent_bound_states(n0, length, 1.0, kappa0)
    [(middles, lo, hi, _)] = refined
    assert [root[1:] for root in roots] == [root[1:] for root in expected_roots]
    assert [root[0] for root in roots] == middles.tolist()
    for (gamma, sign_z, s), (reference, _, _), a, b in zip(roots, expected_roots, lo, hi):
        assert abs(gamma - reference) < bound_states.GAMMA_REFINE
        assert a <= gamma <= b and b - a < bound_states.GAMMA_REFINE
        # on arrays, as the scan evaluates it: numpy rounds powers of a
        # scalar differently, and a bracket may close where f is exactly 0
        ends = _sector_condition(np.array([a, b]), n0, length, 1.0, kappa0, sign_z, s)
        assert np.sign(ends[0]) * np.sign(ends[1]) <= 0
    # an even and an odd state whose energies agree to rounding may swap
    energies = [s.energy for s in states]
    assert energies == sorted(energies) and len(states) == len(expected)


def test_root_refinement_error_carries_its_bracket(monkeypatch):
    # with a zero tolerance no bracket ever counts as shrunk: the first
    # bracket in scan order must surface with its final ends, as an
    # ArithmeticError
    monkeypatch.setattr(bound_states, "GAMMA_REFINE", 0.0)
    for sign_z, s in SCANS:
        f, brackets = _scalar_brackets(3, 5, 1.0, 1.0, sign_z, s)
        if brackets:
            break
    _, (lo, hi) = _scalar_bisect(f, *brackets[0])
    assert brackets[0][0] <= lo <= hi <= brackets[0][1]
    with pytest.raises(ArithmeticError) as info:
        evanescent_bound_states(3, 5)
    assert str(info.value) == (f"root bisection left the bracket [{float(lo)!r}, {float(hi)!r}] "
                               f"wider than 0.0 after {bound_states.MAX_REFINE_STEPS} steps")


@settings(max_examples=60)
@given(st.integers(1, 12), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
def test_chebyshev_pair_is_the_last_two_rows_bit_for_bit(n, xs):
    x = np.array(xs)
    top, before = bound_states._chebyshev_pair(x, n)
    u = bound_states._chebyshev(x, n)
    np.testing.assert_array_equal(top, u[n])
    np.testing.assert_array_equal(before, u[n - 1])


def _refinements(n0, length, kappa0):
    """Every ``sign_change_roots`` call of the gamma scan and then of the
    reflection-zero scan at these parameters: (f, grid, vals, tol, what it
    returned, how many times it evaluated f)."""
    calls = []

    def refine(f, grid, vals, tol):
        evaluations = []

        def counted(x, scan=None):
            evaluations.append(len(x))
            return f(x, scan)

        result = sign_change_roots(counted, grid, vals, tol)
        calls.append((f, grid, vals, tol, result, len(evaluations)))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bound_states, "sign_change_roots", refine)
        patch.setattr(scattering, "sign_change_roots", refine)
        evanescent_bound_states(n0, length, 1.0, kappa0)
        l_dependent_reflection_zeros(n0, length, 1.0, kappa0)
    return calls


def _bisection_roots(f, grid, vals, tol):
    """Midpoints of the brackets of ``vals``' sign changes, each bisected
    until narrower than ``tol`` (upper end to the midpoint where
    f(lo)*f(mid) <= 0), scan by scan in grid order."""
    scan, index = np.nonzero((vals[:, :-1] * vals[:, 1:] < 0) & np.isfinite(vals[:, :-1])
                             & np.isfinite(vals[:, 1:]))
    lo, hi, flo = grid[index], grid[index + 1], vals[scan, index]
    for _ in range(200):
        live = hi - lo >= tol
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid, scan)
        lower = flo * fmid <= 0
        hi = np.where(live & lower, mid, hi)
        lo, flo = np.where(live & ~lower, mid, lo), np.where(live & ~lower, fmid, flo)
    return 0.5 * (lo + hi)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 1000),
       st.floats(np.log(0.3), np.log(6.0)).map(np.exp))
@example(1, 10, 0.6668)
def test_root_refinement_keeps_the_bisection_contract(n0, length, kappa0):
    # both scans: one bracket per sign change of the grid, in scan and grid
    # order, each final bracket inside its grid cell, narrower than tol and
    # holding a sign change of f, around its bisection root to within tol
    calls = _refinements(n0, length, kappa0)
    assert len(calls) == 2
    for f, grid, vals, tol, (middles, lo, hi, scan), _ in calls:
        scan_of, cell = np.nonzero((vals[:, :-1] * vals[:, 1:] < 0) & np.isfinite(vals[:, :-1])
                                   & np.isfinite(vals[:, 1:]))
        np.testing.assert_array_equal(scan, scan_of)
        assert np.all((grid[cell] <= lo) & (lo <= hi) & (hi <= grid[cell + 1]))
        assert np.all(hi - lo < tol)
        np.testing.assert_array_equal(middles, 0.5 * (lo + hi))
        assert np.all(np.sign(f(lo, scan)) * np.sign(f(hi, scan)) <= 0)
        assert np.all(np.abs(middles - _bisection_roots(f, grid, vals, tol)) < tol)


@pytest.mark.parametrize("n0, length", [(1, 10), (3, 100), (5, 300), (2, 1000)])
@pytest.mark.parametrize("kappa0", [0.6, 1.0, 3.0])
def test_root_refinement_takes_few_evaluations(n0, length, kappa0):
    # bisection from a grid step of about 1e-3 down to 1e-13 took 34
    # evaluations of f per scan, the Illinois steps take 4 to 6 here: more
    # than 12 would be a slide back to linear convergence
    for *_, evaluations in _refinements(n0, length, kappa0):
        assert evaluations <= 12


def _counted(f):
    """f, and the list of points at which it has been evaluated."""
    points = []

    def counted(x, scan):
        points.append(x.copy())
        return f(x)

    return counted, points


def test_root_refinement_bisects_where_secant_steps_stall():
    # f jumps from -1e-300 to 1: every secant point lands next to the lower
    # end, and the Illinois halving of f at the upper end alone would take
    # about 1000 steps to move it; a bisection after every three steps that
    # did not halve the bracket halves it at least once in four steps
    root, tol = 3.3e-4, 1e-13
    f, points = _counted(lambda x: np.where(x < root, -1e-300, 1.0))
    grid = np.array([0.0, 1e-3])
    _, lo, hi, _ = sign_change_roots(f, grid, f(grid, None)[None], tol)
    assert lo[0] < root <= hi[0] and hi[0] - lo[0] < tol
    assert len(points) - 1 <= 4 * np.ceil(np.log2(1e-3 / tol))


def test_root_refinement_halves_the_value_of_an_end_kept_twice():
    # on a convex f every secant point falls short of the root, so plain
    # regula falsi keeps the upper end and converges linearly (21
    # evaluations here, with the bisections); halving the value of the end
    # kept twice moves the next point past the root
    f, points = _counted(lambda x: x ** 10 - 0.5)
    grid = np.array([0.0, 1.0])
    middles, lo, hi, _ = sign_change_roots(f, grid, (grid ** 10 - 0.5)[None], 1e-13)
    assert lo[0] <= 0.5 ** 0.1 <= hi[0] and hi[0] - lo[0] < 1e-13
    assert len(points) <= 14


def test_root_refinement_closes_a_bracket_where_f_is_exactly_zero():
    f, points = _counted(lambda x: x - 0.5)
    grid = np.array([0.0, 1.0])
    middles, lo, hi, _ = sign_change_roots(f, grid, (grid - 0.5)[None], 1e-13)
    assert middles[0] == lo[0] == hi[0] == 0.5 and len(points) == 1


def test_root_refinement_takes_the_midpoint_where_the_secant_is_not_finite():
    # the gamma scan refines under over="raise" and invalid="raise": here f
    # is -inf below the root and +inf above it, so once both ends hold an
    # infinite value the secant point is inf/inf, nan, and the midpoint
    # serves instead
    root = 1.3
    f, points = _counted(lambda x: np.where(x < root, -np.inf, np.inf))
    with np.errstate(over="raise", invalid="raise"):
        _, lo, hi, _ = sign_change_roots(f, np.array([0.0, 4.0]), np.array([[-1.0, 1.0]]), 1e-13)
    assert lo[0] <= root <= hi[0] and hi[0] - lo[0] < 1e-13


@settings(max_examples=60)
@given(
    st.integers(1, 5),
    st.integers(2, 1000),
    st.floats(0.3, 6.0),
    st.sampled_from(SCANS),
    st.lists(st.floats(1e-4, 5.0), min_size=1, max_size=30),
)
def test_gamma_objective_on_arrays_equals_scalar_calls(n0, length, kappa0, scan, gammas):
    sign_z, s = scan
    gammas = np.array(gammas)
    got = _sector_condition(gammas, n0, length, 1.0, kappa0, sign_z, s)
    expected = [_sector_condition(g, n0, length, 1.0, kappa0, sign_z, s) for g in gammas]
    np.testing.assert_array_equal(got, np.array(expected))


@settings(max_examples=50)
@given(st.integers(1, 5), st.integers(2, 1000), st.floats(0.3, 10.0))
@example(3, 123, 1.0)
@example(1, 1000, 1.5)
@example(4, 7, 10.0)
def test_evanescent_count_equals_out_of_band_count(n0, length, kappa0):
    # the truncated lattice with 20,000-site leads has one eigenvalue out of
    # the band for every evanescent state of decay rate well above 1/20,000,
    # and only for those: a state nearer the band edge, which the gamma scan
    # finds, adds no eigenvalue there, so the property holds only on
    # lattices without one (every derandomized draw and example here)
    states = evanescent_bound_states(n0, length, 1.0, kappa0)
    assert len(states) == out_of_band_count(n0, length, 1.0, kappa0)


@pytest.mark.parametrize("kappa0, count", [
    # just above kappa0 = 2/3 an even/odd pair leaves the band edge with
    # gamma ~ 8.9e-5 (E ~ -+2.000000008), inside the grid's first step;
    # just below it there is no pair, and gamma = 0 makes none
    (0.6668, 4), (0.7, 4), (0.6666, 2),
])
def test_a_weakly_bound_pair_is_found(kappa0, count):
    states = evanescent_bound_states(1, 10, 1.0, kappa0)
    assert len(states) == out_of_band_count(1, 10, 1.0, kappa0) == count


@pytest.mark.parametrize(
    "n0, length, kappa0",
    [(3, 123, 1.0), (1, 1000, 1.5), (2, 40, 6.0), (4, 7, 10.0), (5, 1000, 3.3248)],
)
def test_long_and_strongly_coupled_lattices_keep_every_state(n0, length, kappa0):
    leads = 450                                   # swallows tails down to gamma = 0.063
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        states = evanescent_bound_states(n0, length, 1.0, kappa0)
        psis = [bound_state_wavefunction(state, leads) for state in states]
    assert len(states) == out_of_band_count(n0, length, 1.0, kappa0)
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, 1.0, kappa0, leads))
    h = assemble_hamiltonian(lattice.graph)
    for state, psi in zip(states, psis):
        # the truncated lattice holds as many eigenvalues within 1e-9 of E as
        # there are states there (mirror partners of a long lattice coincide)
        window = [eigenvalues_below(state.energy + d, n0, length, 1.0, kappa0, leads)
                  for d in (-1e-9, 1e-9)]
        assert window[1] - window[0] == sum(abs(s.energy - state.energy) < 1e-9 for s in states)
        scale = max(2 + kappa0, 2 * kappa0)
        assert np.max(np.abs(h @ psi - state.energy * psi)) < 1e-12 * scale
        sign = 1.0 if state.parity == SYMMETRIC else -1.0
        np.testing.assert_allclose(psi[::-1], sign * psi, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "n0, length, kappa, kappa0",
    [(1, 2, 1.0, 1.0), (3, 5, 1.3, 1.3), (2, 4, 1.0, 1.7), (3, 41, 1.0, 0.6),
     (5, 131, 1.4, 3.3)],
)
def test_central_chain_modes_are_the_central_block_eigenmodes(n0, length, kappa, kappa0):
    # the initial modes of the whole-lattice survival reference
    modes = chain_modes(n0, length, kappa, kappa0, range(1, 2 * n0 + length + 1))
    bare = assemble_hamiltonian(build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0)).graph)
    if kappa == kappa0:
        analytic = open_chain_modes(2 * n0 + length, kappa)
        assert modes.shape == (len(analytic), len(analytic))
        for column, mode in zip(modes.T, analytic):
            np.testing.assert_array_equal(column, mode.amplitudes)
    else:
        # mode n has mirror parity (-1)^(n-1), bitwise; together the modes
        # are an orthonormal eigenbasis in eigh's order, each within the
        # eigensolver's residual gate and, where eigh resolves the mode (gap
        # to both neighbours above 1e-6*||H||), eigh's own vector up to sign
        size = len(bare)
        for n, column in enumerate(modes.T, start=1):
            np.testing.assert_array_equal(column[::-1], (-1) ** (n - 1) * column)
        energies, vectors = np.linalg.eigh(bare)
        scale = np.linalg.norm(bare, np.inf)
        assert np.max(np.abs(modes.T @ modes - np.eye(size))) < 1e-13
        assert np.max(np.abs(bare @ modes - modes * energies)) < 1e-10 * scale
        gaps = np.minimum(np.diff(energies, prepend=-np.inf), np.diff(energies, append=np.inf))
        resolved = gaps > 1e-6 * scale
        overlaps = np.abs(np.sum(modes * vectors, axis=0))
        assert np.max(np.abs(overlaps[resolved] - 1.0)) < 1e-12
    # the lattice without leads is bitwise the central block of the
    # lattice with leads
    for leads in (1, 7, 60):
        lattice = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0, leads))
        block, _ = subgraph_hamiltonian(lattice.graph, lattice.partition, CENTRAL)
        assert block.tobytes() == bare.tobytes()
