"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (run with -s to
see them live).  The long survival sweep is computed once and shared by the
criteria that consume it.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fanonet import (
    PiLatticeSpec,
    assemble_hamiltonian,
    build_pi_lattice,
    evanescent_bound_states,
    find_trapping_modes,
    l_dependent_reflection_zeros,
    long_time_survival,
    numeric_scatter_oracle,
    open_chain_modes,
    common_zeros,
    peak_dip_report,
    scattering_point,
    transmission_probability,
    verify_trapping,
)
from fanonet.scattering import _phase_shift

from _support import brute_force_trapped, central_sites, closed_forms, dense_propagator, \
    random_graph, same_trapped_content


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


@pytest.fixture(scope="module")
def survival_sweep():
    """N0=2, L=4, leads=400 survival sweep for every central mode, t <= 150."""
    spec = PiLatticeSpec(2, 4, leads=400)
    lattice = build_pi_lattice(spec)
    start = time.perf_counter()
    propagator = dense_propagator(assemble_hamiltonian(lattice.graph))
    times = np.linspace(0.0, 150.0, 600)
    modes = open_chain_modes(spec.central_size)
    survival = {}
    norms = {}
    for n, mode in enumerate(modes, start=1):
        psi0 = np.zeros(lattice.graph.site_count, dtype=complex)
        psi0[central_sites(spec)] = mode.amplitudes
        amps = propagator.evolve(psi0, times)
        survival[n] = np.sum(np.abs(amps[:, central_sites(spec)]) ** 2, axis=1)
        norms[n] = np.linalg.norm(amps, axis=1)
    runtime = time.perf_counter() - start
    return {"times": times, "survival": survival, "norms": norms, "runtime": runtime}


def test_criterion_1_trapping_theorem():
    with criterion(1, "3 trapped modes of the 11-site chain, residual < 1e-10, < 1 s"):
        start = time.perf_counter()
        lattice = build_pi_lattice(PiLatticeSpec(3, 5, leads=50))
        certs = find_trapping_modes(lattice.graph, lattice.partition, 1)
        elapsed = time.perf_counter() - start
        assert len(certs) == 3
        momenta = sorted(np.arccos(-c.energy / 2.0) for c in certs)
        np.testing.assert_allclose(
            momenta, [np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-10
        )
        np.testing.assert_allclose(
            sorted(c.energy for c in certs),
            [-np.sqrt(2), 0.0, np.sqrt(2)],
            atol=1e-10,
        )
        for cert in certs:
            assert verify_trapping(lattice.graph, cert) < 1e-10
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_survival_plateaus(survival_sweep):
    with criterion(2, "survival sweep: unitary modes and stationary plateaus, < 60 s"):
        survival = survival_sweep["survival"]
        for n in (3, 6):                      # momenta pi/3, 2*pi/3
            assert np.max(np.abs(survival[n] - 1.0)) < 1e-6
        plateaus = {n: long_time_survival(2, 4, mode=n) for n in (1, 2, 4)}
        assert plateaus[1].p_infinity == pytest.approx(0.5032, abs=0.01)
        assert plateaus[2].p_infinity == pytest.approx(0.0027, abs=0.002)
        assert plateaus[4].p_infinity == pytest.approx(0.0058, abs=0.002)
        # the simulated tail average corroborates every projection value
        times = survival_sweep["times"]
        tail = times >= times[-1] - 0.25 * (times[-1] - times[0])
        for n in range(1, 9):
            simulated = float(survival[n][tail].mean())
            projected = long_time_survival(2, 4, mode=n).p_infinity
            assert abs(simulated - projected) < 0.01
        assert survival_sweep["runtime"] < 60.0, f"took {survival_sweep['runtime']:.1f} s"


def test_criterion_3_evanescent_roots():
    with criterion(3, "evanescent decay rates 0.382/0.191 and truncated-lattice match"):
        states_35 = evanescent_bound_states(3, 5)
        below = sorted(s.gamma for s in states_35 if s.energy < 0)
        above = sorted(s.gamma for s in states_35 if s.energy > 0)
        for gammas in (below, above):
            assert len(gammas) == 2
            assert gammas[0] == pytest.approx(0.191, abs=0.002)
            assert gammas[1] == pytest.approx(0.382, abs=0.002)
        states_24 = evanescent_bound_states(2, 4)
        assert sorted(s.gamma for s in states_24) == pytest.approx(
            [0.382, 0.382], abs=0.002
        )
        for n0, length, states in ((3, 5, states_35), (2, 4, states_24)):
            lattice = build_pi_lattice(PiLatticeSpec(n0, length, leads=200))
            spectrum = np.linalg.eigvalsh(assemble_hamiltonian(lattice.graph))
            outside = spectrum[np.abs(spectrum) > 2.0]
            assert len(outside) == len(states)
            for state in states:
                assert np.min(np.abs(outside - state.energy)) < 1e-6


def test_criterion_4_analytic_vs_oracle():
    with criterion(4, "analytic t vs numeric oracle < 1e-8 on 50 momenta x 3 systems"):
        ks = np.linspace(0.05, np.pi - 0.05, 50)
        for n0, length in ((2, 4), (3, 5), (5, 6)):
            for k in ks:
                t, r, _, _ = closed_forms(k, n0, length)
                t_o, r_o = numeric_scatter_oracle(n0, length, 1.0, 1.0, k, leads=length + 25)
                assert abs(t - t_o) < 1e-8
                assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-10
                assert abs(abs(t_o) ** 2 + abs(r_o) ** 2 - 1.0) < 1e-10


def test_criterion_5_zero_structure():
    with criterion(5, "common zeros at the expected energies; exact parity mirror"):
        for length in range(4, 9):
            k = float(np.arccos(0.5))         # E = -1
            assert transmission_probability(k, 2, length) < 1e-12
            k = float(np.arccos(np.sqrt(2) / 2))  # E = -sqrt(2)
            assert transmission_probability(k, 3, length) < 1e-12
            k = float(np.arccos(0.0))         # E = 0
            assert transmission_probability(k, 2, length) > 1.0 - 1e-12
            k = float(np.arccos(0.5))         # E = -1
            assert transmission_probability(k, 3, length) > 1.0 - 1e-12
        # parity rule at k = pi/2: T = [1 + (-1)^n0]/2 for every length, and
        # pi/2 is a common zero of T (odd n0) or of R (even n0)
        for n0 in range(1, 7):
            expected = (1 + (-1) ** n0) / 2
            for length in range(4, 9):
                point = scattering_point(np.pi / 2, n0, length)
                bound = closed_forms(np.pi / 2, n0, length).dual_bound
                assert abs(point.transmission - expected) <= bound
            catalog = common_zeros(n0)
            zeros = catalog.k_min if n0 % 2 else catalog.k_max
            assert any(abs(z.k - np.pi / 2) < 1e-15 for z in zeros)


def test_criterion_6_peak_dip_swapping():
    with criterion(6, "reflection zeros 0.29pi/0.36pi straddle pi/3; shift identity"):
        report = peak_dip_report(2, 5, 6)
        entry = next(e for e in report.entries if e["dip_energy"] < 0)
        assert entry["dip_k"] == pytest.approx(np.pi / 3, abs=1e-12)
        assert entry["a"]["k0"] == pytest.approx(0.29 * np.pi, abs=0.005 * np.pi)
        assert entry["b"]["k0"] == pytest.approx(0.36 * np.pi, abs=0.005 * np.pi)
        assert entry["a"]["side"] == "left" and entry["b"]["side"] == "right"
        assert entry["straddle"]
        for length0 in (5, 6):
            for k0 in l_dependent_reflection_zeros(2, length0):
                delta = _phase_shift(k0, 2, 1.0, 1.0)
                for m in (1, 2, 3):
                    lhs = np.sin(k0 * (length0 + m - 1) - delta) ** 2
                    rhs = np.sin(m * k0) ** 2
                    assert abs(lhs - rhs) < 1e-10


def test_criterion_7_property_suites(survival_sweep):
    with criterion(7, "brute-force equivalence, conservation, dual path, truncation"):
        # trapping detector vs full-eigenbasis search on 200 random graphs
        rng = np.random.default_rng(20260808)
        for _ in range(200):
            graph, partition = random_graph(rng)
            l = partition.subgraph_indices()[0]
            certs = find_trapping_modes(graph, partition, l)
            brute = brute_force_trapped(graph, partition, l)
            assert same_trapped_content(certs, brute)

        # norm conservation across the full survival sweep
        for norms in survival_sweep["norms"].values():
            assert np.max(np.abs(norms - 1.0)) < 1e-10

        # dual-path transmission identity on dense momentum grids
        ks = np.linspace(0.01, np.pi - 0.01, 400)
        for n0, length, kappa0 in ((2, 4, 1.0), (3, 5, 1.0), (2, 6, 1.6), (4, 7, 0.7)):
            for k in ks:
                point = scattering_point(k, n0, length, 1.0, kappa0)
                real_form = closed_forms(k, n0, length, 1.0, kappa0).big_t
                assert abs(real_form - abs(point.t) ** 2) < 1e-12

        # truncation convergence of the survival probability
        spec = {"n0": 2, "length": 4}
        horizon_times = np.linspace(0.0, 27.0, 30)
        reference = {}
        for leads in (60, 120):
            lattice_spec = PiLatticeSpec(leads=leads, **spec)
            central = central_sites(lattice_spec)
            lattice = build_pi_lattice(lattice_spec)
            propagator = dense_propagator(assemble_hamiltonian(lattice.graph))
            for n in (1, 2, 4):
                psi0 = np.zeros(lattice.graph.site_count, dtype=complex)
                psi0[central] = open_chain_modes(8)[n - 1].amplitudes
                amps = propagator.evolve(psi0, horizon_times)
                values = np.sum(np.abs(amps[:, central]) ** 2, axis=1)
                if n in reference:
                    assert np.max(np.abs(values - reference[n])) < 1e-6
                reference[n] = values
