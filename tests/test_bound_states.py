"""Resonant enumeration, evanescent root finding and long-time survival."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanonet import (
    CENTRAL,
    PiLatticeSpec,
    assemble_hamiltonian,
    bound_state_wavefunction,
    build_pi_lattice,
    diagonalize,
    evanescent_bound_states,
    long_time_survival,
    open_chain_modes,
    resonant_bound_states,
    resonant_existence,
    resonant_momenta,
    subgraph_hamiltonian,
)
from fanonet import bound_states
from fanonet.bound_states import (
    ANTISYMMETRIC,
    EVANESCENT,
    SCANS,
    SYMMETRIC,
    RootRefinementError,
    _build_state,
    _transcendental,
    central_chain_modes,
)


def test_existence_pairs_and_momenta():
    assert resonant_existence(3, 5) == [(1, 1), (2, 2), (3, 3)]
    np.testing.assert_allclose(
        resonant_momenta(3, 5), [np.pi / 4, np.pi / 2, 3 * np.pi / 4]
    )
    assert resonant_existence(2, 4) == [(1, 1), (2, 2)]
    np.testing.assert_allclose(resonant_momenta(2, 4), [np.pi / 3, 2 * np.pi / 3])
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
        assert abs(state.coefficients[0]) == 0.0       # c1
        assert abs(state.coefficients[3]) == 0.0       # c4
        assert abs(state.energy) <= 2.0 + 1e-12
        assert state.subgraph_weight == pytest.approx(1.0, abs=1e-12)


def test_resonant_states_absent_when_grids_incommensurate():
    assert resonant_bound_states(2, 5) == []


def test_resonant_embedding_is_exact_eigenstate():
    for state in resonant_bound_states(3, 5):
        psi = bound_state_wavefunction(state, leads=50)
        lattice = build_pi_lattice(PiLatticeSpec(3, 5, leads=50))
        h = assemble_hamiltonian(lattice.graph)
        assert np.max(np.abs(h @ psi - state.energy * psi)) < 1e-10
        # no amplitude ever reaches the leads
        leads = [s for s in range(lattice.graph.site_count)
                 if s not in lattice.central_sites]
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
    lattice = build_pi_lattice(PiLatticeSpec(3, 5, leads=80))
    psi = bound_state_wavefunction(state, leads=80)
    c1 = lattice.site_index["c1"]
    # host-chain sites j <= 1 fall off as e^{-gamma (1-j)}
    for j in range(0, -12, -1):
        site = lattice.site_index[f"c{j}"]
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


def _scalar_brackets(n0, length, kappa, kappa0, branch, sign):
    """One gamma scan evaluated one grid point at a time: the objective and
    its sign-change brackets (lo, hi, f(lo)) in grid order."""
    grid = np.arange(bound_states.GAMMA_MIN, bound_states.GAMMA_MAX,
                     bound_states.GAMMA_GRID_STEP)
    f = lambda g: _transcendental(g, n0, length, kappa, kappa0, branch, sign)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.array([f(g) for g in grid])
        crossings = (vals[:-1] * vals[1:] < 0) & np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    return f, [(grid[i], grid[i + 1], vals[i]) for i in np.nonzero(crossings)[0]]


def _scalar_bisect(f, lo, hi, flo):
    """(root, None) once the bracket is below GAMMA_REFINE, else (None, (lo, hi))."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < bound_states.GAMMA_REFINE:
                return 0.5 * (lo + hi), None
    return None, (lo, hi)


def _scalar_evanescent(n0, length, kappa, kappa0):
    """Reference for evanescent_bound_states: every scan point by point and
    every bracket bisected on its own, then confirmed in scan order.
    Returns the states and the (k, gamma) of every root put to the
    matching system."""
    states, seen, tried = [], [], []
    for branch, sign in SCANS:
        f, brackets = _scalar_brackets(n0, length, kappa, kappa0, branch, sign)
        for lo, hi, flo in brackets:
            gamma, stuck = _scalar_bisect(f, lo, hi, flo)
            assert stuck is None
            if any(b == branch and abs(g - gamma) < 1e-9 for b, g in seen):
                continue
            k = 1j * gamma if branch == 0 else np.pi + 1j * gamma
            tried.append((k, gamma))
            state = _build_state(EVANESCENT, k, gamma, n0, length, kappa, kappa0)
            if state is not None:
                states.append(state)
                seen.append((branch, gamma))
    return sorted(states, key=lambda s: s.energy), tried


@pytest.mark.parametrize("n0, length, kappa0", [(3, 5, 1.0), (2, 4, 0.6), (2, 1000, 1.5)])
def test_evanescent_roots_equal_scalar_bisection(monkeypatch, n0, length, kappa0):
    expected, expected_tried = _scalar_evanescent(n0, length, 1.0, kappa0)
    assert expected_tried
    tried = []

    def build(kind, k, gamma, *args):
        tried.append((k, gamma))
        return _build_state(kind, k, gamma, *args)

    # at length 1000 the matching system rejects every root (ROADMAP item
    # 2), so the roots are compared where they enter it
    monkeypatch.setattr(bound_states, "_build_state", build)
    states = evanescent_bound_states(n0, length, 1.0, kappa0)
    assert tried == expected_tried
    assert [(s.k, s.gamma, s.energy) for s in states] == \
        [(s.k, s.gamma, s.energy) for s in expected]
    assert [s.to_json_dict() for s in states] == [s.to_json_dict() for s in expected]


def test_root_refinement_error_carries_its_bracket(monkeypatch):
    # with a zero tolerance no bracket ever counts as shrunk: the first
    # bracket in scan order must surface with its final ends
    monkeypatch.setattr(bound_states, "GAMMA_REFINE", 0.0)
    for branch, sign in SCANS:
        f, brackets = _scalar_brackets(3, 5, 1.0, 1.0, branch, sign)
        if brackets:
            break
    _, expected = _scalar_bisect(f, *brackets[0])
    with pytest.raises(RootRefinementError) as info:
        evanescent_bound_states(3, 5)
    assert info.value.bracket == expected
    lo, hi = info.value.bracket
    assert brackets[0][0] <= lo <= hi <= brackets[0][1]
    assert str(info.value) == f"root refinement failed in bracket {expected}"


@settings(max_examples=60)
@given(
    st.integers(1, 5),
    st.integers(2, 1000),
    st.floats(0.3, 6.0),
    st.sampled_from(SCANS),
    st.lists(st.floats(1e-4, 5.0), min_size=1, max_size=30),
)
def test_gamma_objective_on_arrays_equals_scalar_calls(n0, length, kappa0, scan, gammas):
    branch, sign = scan
    gammas = np.array(gammas)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _transcendental(gammas, n0, length, 1.0, kappa0, branch, sign)
        expected = [_transcendental(g, n0, length, 1.0, kappa0, branch, sign) for g in gammas]
    np.testing.assert_array_equal(got, np.array(expected))


@pytest.mark.parametrize(
    "n0, length, kappa, kappa0",
    [(1, 2, 1.0, 1.0), (3, 5, 1.3, 1.3), (2, 4, 1.0, 1.7), (3, 41, 1.0, 0.6),
     (5, 131, 1.4, 3.3)],
)
def test_central_chain_modes_are_the_central_block_eigenmodes(n0, length, kappa, kappa0):
    modes = central_chain_modes(n0, length, kappa, kappa0)
    bare = assemble_hamiltonian(build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0)).graph)
    if kappa == kappa0:
        analytic = open_chain_modes(2 * n0 + length, kappa)
        assert modes.shape == (len(analytic), len(analytic))
        for column, mode in zip(modes.T, analytic):
            np.testing.assert_array_equal(column, mode.amplitudes)
    else:
        np.testing.assert_array_equal(modes, diagonalize(bare)[1])
    # the evolution takes its initial modes from the lattice without leads:
    # that block is bitwise the central block of the lattice with leads
    for leads in (1, 7, 60):
        lattice = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0, leads))
        block, _ = subgraph_hamiltonian(lattice.graph, lattice.partition, CENTRAL)
        assert block.tobytes() == bare.tobytes()
