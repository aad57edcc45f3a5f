"""Spectral time evolution, its phase table, survival probability and
decay classification."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import (
    CENTRAL,
    PiLatticeSpec,
    SpectralPropagator,
    SurvivalSeries,
    assemble_hamiltonian,
    build_pi_lattice,
    classify_decay,
    open_chain_modes,
    safe_horizon,
    subgraph_hamiltonian,
)
from fanonet import dynamics
from fanonet.dynamics import DROP_TO_PLATEAU, SLOW_DAMPING, UNITARY, _PhaseTable

from _support import central_sites, dense_propagator, plateau_value, random_graph

DIMER = np.array([[0.0, -1.0], [-1.0, 0.0]])


def test_dimer_half_period_transfer():
    # closed form: amplitudes (cos t, i sin t); at t = pi/2 the particle
    # sits fully on the second site
    amps = dense_propagator(DIMER).evolve(np.array([1.0, 0.0]), [np.pi / 2])
    np.testing.assert_allclose(np.abs(amps[0]), [0.0, 1.0], atol=1e-12)


def test_time_zero_is_identity():
    psi0 = np.array([0.6, 0.8j], dtype=complex)
    amps = dense_propagator(DIMER).evolve(psi0, [0.0])
    np.testing.assert_allclose(amps[0], psi0, atol=1e-14)


def test_eigenvector_is_stationary():
    g = np.array([1.0, 1.0]) / np.sqrt(2)
    amps = dense_propagator(DIMER).evolve(g, [0.3, 1.7, 12.9])
    for psi in amps:
        assert abs(abs(np.vdot(g, psi)) - 1.0) < 1e-12


def test_rejects_unnormalized_state():
    with pytest.raises(ValueError, match="norm"):
        dense_propagator(DIMER).evolve(np.array([1.0, 1.0]), [0.0])


def test_closed_form_dimer_amplitudes():
    times = np.linspace(0.0, 4.0, 9)
    amps = dense_propagator(DIMER).evolve(np.array([1.0, 0.0]), times)
    for psi, t in zip(amps, times):
        np.testing.assert_allclose(psi, [np.cos(t), 1j * np.sin(t)], atol=1e-12)


def test_safe_horizon_values():
    assert safe_horizon(400, 1.0) == pytest.approx(180.0)
    assert safe_horizon(0, 1.0) == 0.0
    assert safe_horizon(120, 1.0) == pytest.approx(2 * safe_horizon(60, 1.0))
    assert safe_horizon(100, 2.0) == pytest.approx(22.5)


def test_survival_initial_values():
    spec = PiLatticeSpec(2, 4, leads=5)
    lattice = build_pi_lattice(spec)
    propagator = dense_propagator(assemble_hamiltonian(lattice.graph))
    central = central_sites(spec)
    psi0 = np.zeros(lattice.graph.site_count, dtype=complex)
    psi0[central] = open_chain_modes(8)[0].amplitudes
    values = np.sum(np.abs(propagator.evolve(psi0, [0.0, 1.0])[:, central]) ** 2, axis=-1)
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    # support disjoint from the subgraph: P(0) = 0
    psi_out = np.zeros(lattice.graph.site_count, dtype=complex)
    psi_out[0] = 1.0
    outside = np.sum(np.abs(propagator.evolve(psi_out, [0.0])[:, central]) ** 2, axis=-1)
    assert outside[0] == pytest.approx(0.0, abs=1e-30)


def _pi_survival(n0, length, leads, mode, samples=240, t_max=None):
    spec = PiLatticeSpec(n0, length, leads=leads)
    lattice = build_pi_lattice(spec)
    horizon = safe_horizon(leads, spec.kappa)
    times = np.linspace(0.0, t_max if t_max is not None else horizon, samples)
    propagator = dense_propagator(assemble_hamiltonian(lattice.graph))
    psi0 = np.zeros(lattice.graph.site_count, dtype=complex)
    psi0[central_sites(spec)] = open_chain_modes(spec.central_size)[mode - 1].amplitudes
    amps = propagator.evolve(psi0, times)
    values = np.sum(np.abs(amps[:, central_sites(spec)]) ** 2, axis=1)
    return SurvivalSeries(mode, times, values, horizon), amps


def _reference_amplitudes(h, psi0, times, sites):
    """exp(-iHt) psi0 from plain eigh, one column at a time projected onto
    every site, then sliced to ``sites``; (T, M, S)."""
    energies, vectors = np.linalg.eigh(h)
    columns = psi0.reshape(len(psi0), -1)
    phases = np.exp(-1j * np.outer(times, energies))
    full = [(phases * (vectors.T @ columns[:, m])) @ vectors.T for m in range(columns.shape[1])]
    return np.stack([amps[:, sites] for amps in full], axis=1)


@given(
    n0=st.integers(1, 5),
    length=st.integers(2, 40),
    leads=st.integers(20, 80),
    kappa0=st.floats(0.5, 2.0),
    data=st.data(),
)
@settings(max_examples=25)
def test_batched_central_evolution_matches_full_projection(n0, length, leads, kappa0, data):
    spec = PiLatticeSpec(n0, length, 1.0, kappa0, leads)
    lattice = build_pi_lattice(spec)
    h = assemble_hamiltonian(lattice.graph)
    central = central_sites(spec)
    size = len(central)
    modes = data.draw(
        st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True)
    )
    block, _ = subgraph_hamiltonian(lattice.graph, lattice.partition, CENTRAL)
    psi0 = np.zeros((lattice.graph.site_count, len(modes)))
    psi0[central] = np.linalg.eigh(block)[1][:, modes]
    times = np.linspace(0.0, safe_horizon(leads, 1.0), 40)
    propagator = dense_propagator(h)

    amps = propagator.evolve(psi0, times)[..., central]
    assert amps.shape == (len(times), len(modes), size)
    reference = _reference_amplitudes(h, psi0, times, central)
    assert np.max(np.abs(amps - reference)) < 1e-12
    # states on the central sites need only the eigenvectors' rows there
    rows = SpectralPropagator(propagator.energies, propagator.vectors[central])
    assert np.max(np.abs(rows.evolve(psi0[central], times) - reference)) < 1e-12

    # one state, complex and spread over the whole lattice
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    single = rng.normal(size=len(h)) + 1j * rng.normal(size=len(h))
    single /= np.linalg.norm(single)
    amps = propagator.evolve(single, times)[:, central]
    assert amps.shape == (len(times), size)
    reference = _reference_amplitudes(h, single, times, central)[:, 0]
    assert np.max(np.abs(amps - reference)) < 1e-12

    unnormalised = psi0.copy()
    unnormalised[:, data.draw(st.integers(0, len(modes) - 1))] *= 1.5
    with pytest.raises(ValueError, match="norm"):
        propagator.evolve(unnormalised, times)


def test_trapped_mode_remains_unitary():
    series, _ = _pi_survival(2, 4, leads=60, mode=3)
    assert np.all(np.abs(series.values - 1.0) < 1e-6)
    assert classify_decay(series) == UNITARY


def test_leaky_mode_drops_to_plateau():
    series, _ = _pi_survival(2, 4, leads=60, mode=1)
    assert classify_decay(series) == DROP_TO_PLATEAU
    assert plateau_value(series) < 0.6
    assert np.all(series.values >= 0.0)
    assert np.all(series.values <= 1.0 + 1e-10)


def test_quasi_resonant_mode_damps_slowly():
    # anchors at positions 4 and 126 of the 129-site central chain; mode 98
    # has tiny but nonzero joint amplitude, so it leaks on a long timescale
    series, _ = _pi_survival(3, 123, leads=300, mode=98)
    assert classify_decay(series) == SLOW_DAMPING
    assert series.values.min() > 0.9


def test_classification_needs_enough_samples():
    series = SurvivalSeries(1, np.linspace(0, 1, 10), np.ones(10), 1.0)
    with pytest.raises(ValueError, match="samples"):
        classify_decay(series)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_norm_and_energy_conserved(seed):
    rng = np.random.default_rng(seed)
    graph, _ = random_graph(rng)
    h = assemble_hamiltonian(graph)
    psi0 = rng.normal(size=graph.site_count) + 1j * rng.normal(size=graph.site_count)
    psi0 /= np.linalg.norm(psi0)
    times = np.sort(rng.uniform(0.0, 50.0, size=7))
    amps = dense_propagator(h).evolve(psi0, times)
    e0 = np.vdot(psi0, h @ psi0).real
    for psi in amps:
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
        assert abs(np.vdot(psi, h @ psi).real - e0) < 1e-10


@pytest.mark.parametrize("mode", [1, 2, 4])
def test_truncation_convergence(mode):
    # within the shorter horizon, doubling the leads must not move P(t)
    leads = 60
    horizon = safe_horizon(leads, 1.0)
    times = np.linspace(0.0, horizon, 40)
    values = []
    for m in (leads, 2 * leads):
        series, _ = _pi_survival(2, 4, leads=m, mode=mode, samples=40, t_max=horizon)
        values.append(series.values)
    assert np.max(np.abs(values[0] - values[1])) < 1e-6


def test_trapping_implies_unitarity_beyond_horizon():
    # certified modes are exact eigenstates: unitary even past the horizon
    series, _ = _pi_survival(3, 5, leads=10, mode=3, t_max=400.0)
    assert np.all(np.abs(series.values - 1.0) < 1e-10)


# the phase table: cos(tE) and sin(tE) by angle addition from anchor rows

U = np.finfo(float).eps / 2                     # unit roundoff


def plain_tables(times, energies):
    phase = np.outer(np.asarray(times, dtype=float), energies)
    return np.cos(phase), np.sin(phase)


def whole_tables(table):
    """All rows of a ``_PhaseTable`` at once."""
    cos, sin = (np.empty((len(table.times), len(table.energies))) for _ in range(2))
    table.rows(0, cos, sin)
    return cos, sin


phase_grids = st.fixed_dictionaries({
    "steps": st.integers(2, 1000),
    "t_max": st.sampled_from([0.0, 5000.0]) | st.floats(0.0, 5000.0),
    "kappa": st.floats(0.5, 2.0),
    "kappa0": st.floats(0.3, 10.0),
    "fractions": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
})


@given(grid=phase_grids)
@settings(max_examples=80, deadline=None)
def test_anchored_phase_table_is_within_its_rounding_bound(grid):
    # a linspace grid, as every evolve run has, with energies within the
    # Gershgorin bound 2*kappa + kappa0 of the lattice's host and anchors
    steps, t_max = grid["steps"], grid["t_max"]
    edge = 2.0 * grid["kappa"] + grid["kappa0"]
    energies = np.array([-edge, 0.0, edge] + [f * edge for f in grid["fractions"]])
    times = np.linspace(0.0, t_max, steps)
    table = _PhaseTable(times, energies, 0)
    r = table.stride
    # every linspace grid of normal numbers is anchored; a subnormal step
    # rounds by far more than an ulp of t_max and takes the plain table
    if t_max == 0.0 or t_max >= 1e-300:
        assert r == (math.isqrt(steps) if steps >= 4 else 1)
    got = whole_tables(table)
    expected = plain_tables(times, energies)
    # row j = a*r + q: the anchor phase rounds by u|t_ar E|, the offset phase
    # by 2u|(t_q - t_0) E| (a difference and a product) and the grid leaves
    # |E| |delta_j|, delta_j = t_j - t_ar - (t_q - t_0); four libm calls
    # (glibc, within 1 ulp = 2u each), two products and one sum add at most
    # 6u (|cos A cos D| + |sin A sin D|) <= 6u; today's table rounds the
    # phase by u|t_j E| and its libm call by 2u (CHANGES.md)
    j = np.arange(steps)
    anchor, offset = times[j - j % r], times[j % r] - times[0]
    delta = np.array([math.fsum([t, -a, -times[q], times[0]])
                      for t, a, q in zip(times, anchor, j % r)])
    magnitude = np.abs(energies)
    bound = (np.abs(delta)[:, None] * magnitude
             + U * (np.abs(anchor) + 2.0 * np.abs(offset) + np.abs(times))[:, None] * magnitude
             + 8.0 * U)
    for part, reference in zip(got, expected):
        assert np.all(np.abs(part - reference) <= bound)
    # a grid from 0 starts with the exact row (1, 0)
    assert np.all(got[0][0] == 1.0) and np.all(got[1][0] == 0.0)


@pytest.mark.parametrize("times", [
    [0.3, 1.7, 12.9],                                   # short and irregular
    [0.0], [2.5], [0.0, 1.0], [0.0, 0.5, 1.0],          # fewer than 4 samples
    np.sort(np.random.default_rng(3).uniform(0.0, 300.0, 720)),
    np.geomspace(1e-3, 300.0, 500),
    # a uniform grid with one sample moved by far more than rounding
    np.where(np.arange(720) == 400, 1e-9, 0.0) + np.linspace(0.0, 180.0, 720),
])
def test_irregular_and_short_grids_give_the_plain_table_bitwise(times):
    energies = np.linspace(-3.2, 3.2, 57)
    table = _PhaseTable(times, energies, 0)
    assert table.stride == 1
    for part, reference in zip(whole_tables(table), plain_tables(times, energies)):
        assert part.tobytes() == reference.tobytes()


def test_anchored_evolve_matches_the_plain_table():
    # the whole propagator on a 57-site graph at |tE| up to about 1.6e4:
    # with b as below, sum_k |b[k, s]| <= 1 (Cauchy-Schwarz), so each
    # amplitude moves by at most twice the tables' largest difference,
    # about 2e-11 by the bound above, plus the GEMMs' rounding
    spec = PiLatticeSpec(2, 5, 1.0, 1.6, 24)
    central = central_sites(spec)
    h = assemble_hamiltonian(build_pi_lattice(spec).graph)
    propagator = dense_propagator(h)
    psi0 = np.zeros(len(h))
    psi0[central] = open_chain_modes(9)[0].amplitudes
    times = np.linspace(0.0, 5000.0, 1000)
    amps = propagator.evolve(psi0, times)[:, central]
    cos, sin = plain_tables(times, propagator.energies)
    b = (propagator.vectors.T @ psi0)[:, None] * propagator.vectors[central].T
    np.testing.assert_allclose(amps, cos @ b - 1j * (sin @ b), rtol=0, atol=1e-10)


# the propagator runs one block of phase rows at a time


def _random_propagator(rng, sites, rows):
    """Energies in [-3, 3] and ``rows`` rows of a random orthogonal basis."""
    energies = np.sort(rng.uniform(-3.0, 3.0, sites))
    vectors = np.linalg.qr(rng.normal(size=(sites, sites)))[0]
    return SpectralPropagator(energies, vectors[:rows])


def _unit_columns(rng, rows, states, complex_states):
    psi0 = rng.normal(size=(rows, states))
    if complex_states:
        psi0 = psi0 + 1j * rng.normal(size=(rows, states))
    return psi0 / np.linalg.norm(psi0, axis=0)


@given(
    steps=st.integers(1, 300),
    uniform=st.booleans(),
    sites=st.integers(1, 40),
    states=st.integers(1, 4),
    complex_states=st.booleans(),
    budget=st.integers(1, 12_000),
    seed=st.integers(0, 2**32 - 1),
)
@example(steps=3, uniform=True, sites=7, states=2, complex_states=False, budget=1, seed=0)
@example(steps=200, uniform=False, sites=9, states=1, complex_states=True, budget=500, seed=1)
@example(steps=100, uniform=True, sites=12, states=3, complex_states=False, budget=1, seed=2)
@example(steps=101, uniform=True, sites=5, states=2, complex_states=True, budget=230, seed=3)
@settings(max_examples=60, deadline=None)
def test_blocks_of_phase_rows_match_the_one_shot_table(
        steps, uniform, sites, states, complex_states, budget, seed):
    # T < 4 and irregular grids take r = 1; a budget of 1 gives blocks of
    # one anchor; most budgets leave a last block shorter than the others
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, sites + 1))
    propagator = _random_propagator(rng, sites, rows)
    psi0 = _unit_columns(rng, rows, states, complex_states)
    t_max = float(rng.uniform(0.0, 500.0))
    times = (np.linspace(0.0, t_max, steps) if uniform
             else np.sort(rng.uniform(0.0, t_max, steps)))
    width = states * rows * (2 if complex_states else 1)    # GEMM columns
    table = _PhaseTable(times, propagator.energies, width)
    cos, sin = whole_tables(table)
    with mock.patch.object(dynamics, "PHASE_BLOCK", budget):
        size = _PhaseTable(times, propagator.energies, width).block
        amps = propagator.evolve(psi0, times)
        survival = propagator.survival(psi0, times)
        single = propagator.evolve(psi0[:, 0], times)
        single_survival = propagator.survival(psi0[:, 0], times)

    # blocks of whole anchors (the last one may be short), as many as keep
    # their phase rows and products within the budget, and at least one
    r, per_row = table.stride, sites + width
    assert size <= steps and (size % r == 0 or size == steps)
    assert size <= r or size * per_row <= budget
    assert size == steps or (size + r) * per_row > budget
    # each row is computed as in the one-shot table, bit for bit
    for start in range(0, steps, size):
        count = min(size, steps - start)
        block = np.empty((count, sites)), np.empty((count, sites))
        table.rows(start, *block)
        assert block[0].tobytes() == cos[start:start + count].tobytes()
        assert block[1].tobytes() == sin[start:start + count].tobytes()

    b = (propagator.vectors.T @ psi0)[:, :, None] * propagator.vectors.T[:, None, :]
    reference = (np.tensordot(cos, b, axes=1) - 1j * np.tensordot(sin, b, axes=1))
    assert amps.shape == (steps, states, rows)
    assert np.max(np.abs(amps - reference)) < 1e-12
    assert single.shape == (steps, rows)
    assert np.max(np.abs(single - reference[:, 0])) < 1e-12
    # survival reduces the same blocks: sum_s |evolve|^2, bit for bit
    assert survival.shape == (steps, states)
    assert survival.tobytes() == np.sum(np.abs(amps) ** 2, axis=-1).tobytes()
    assert single_survival.shape == (steps,)
    assert single_survival.tobytes() == np.sum(np.abs(single) ** 2, axis=-1).tobytes()


@given(
    steps=st.integers(1, 200),
    uniform=st.booleans(),
    shapes=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 3), st.booleans()),
                    min_size=1, max_size=5),
    shared=st.booleans(),
    budget=st.integers(1, 6_000),
    seed=st.integers(0, 2**32 - 1),
)
@example(steps=100, uniform=True, shapes=[(20, 2, False), (19, 1, False)], shared=False,
         budget=1 << 16, seed=0)
@example(steps=50, uniform=True, shapes=[(9, 3, True), (9, 0, False), (4, 1, False)],
         shared=True, budget=2_000, seed=1)
@settings(max_examples=60, deadline=None)
def test_joint_survival_is_each_pairs_survival(steps, uniform, shapes, shared, budget, seed):
    # pairs of (propagator, states) in passes of one phase table over their
    # energies; M = 0 stands for one state given as a vector.  With
    # ``shared`` consecutive pairs may share a propagator, and so its
    # energies, as a sector's batches do
    rng = np.random.default_rng(seed)
    pairs, propagator = [], None
    for sites, states, complex_states in shapes:
        if not (shared and propagator is not None and rng.random() < 0.5):
            rows = int(rng.integers(1, sites + 1))
            propagator = _random_propagator(rng, sites, rows)
        psi0 = _unit_columns(rng, len(propagator.vectors), max(states, 1), complex_states)
        pairs.append((propagator, psi0 if states else psi0[:, 0]))
    t_max = float(rng.uniform(0.0, 300.0))
    times = (np.linspace(0.0, t_max, steps) if uniform
             else np.sort(rng.uniform(0.0, t_max, steps)))
    with mock.patch.object(dynamics, "PHASE_BLOCK", budget):
        joint = dynamics.joint_survival(pairs, times)
        passes = list(dynamics._passes(pairs, dynamics._anchor_stride(times)))
    # each pair's P, as its own pass gives it; a pass's GEMMs may take other
    # row counts, and BLAS may round those differently
    for (propagator, psi0), values in zip(pairs, joint):
        assert values.shape == (steps, *psi0.shape[1:])
        assert np.max(np.abs(values - propagator.survival(psi0, times))) < 1e-12
    # the passes take the pairs in order, and a pass of two or more keeps
    # its spectral weights and one anchor's phase rows within the budget
    assert [pair for group in passes for pair in group] == pairs
    r = dynamics._anchor_stride(times)
    for group in passes:
        widths = [psi0.size // len(psi0) * len(p.vectors) * (2 if np.iscomplexobj(psi0) else 1)
                  for p, psi0 in group]
        sizes = [len(p.energies) for p, _ in group]
        assert len(group) == 1 or (sum(n * w for n, w in zip(sizes, widths)) <= budget
                                   and r * (sum(sizes) + sum(widths)) <= budget)


def test_buffers_are_reused_until_outgrown():
    buffers = dynamics._Buffers()
    first = buffers.take("rows", (4, 6))
    smaller = buffers.take("rows", (2, 5))
    assert smaller.base is first.base and smaller.shape == (2, 5)
    larger = buffers.take("rows", (5, 6))
    assert larger.base is not first.base and larger.shape == (5, 6)
    assert buffers.take("amplitudes", (3,), complex).dtype == complex
