"""The lead/chain secular kernel against dense eigensolves, its closed-form
lead term against the sum over the lead's poles, and what
``diagonalize`` returns."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import PiLatticeSpec, assemble_hamiltonian, build_pi_lattice, diagonalize, secular, spectra
from fanonet.cli import main
from fanonet.spectra import lead_eigenpairs

from _support import dense_mirror_blocks, lead_pole_sum, random_graph, sector_problems

U = 2.0**-53


def gamma(k):
    return k * U / (1 - k * U)


def sectors(n0, length, kappa0, leads):
    """Each sector's problem, (rest, spokes) as evolve poses it, the dense
    block sliced from the lattice, the chain's own dense sector block, and
    what one ``lead_eigenpairs`` call on both problems gives for it."""
    spec = PiLatticeSpec(n0, length, 1.0, kappa0, leads)
    lattice = build_pi_lattice(spec).graph
    chain = build_pi_lattice(PiLatticeSpec(n0, length, 1.0, kappa0)).graph
    problems = sector_problems(spec)
    return zip(problems, dense_mirror_blocks(assemble_hamiltonian(lattice)),
               dense_mirror_blocks(assemble_hamiltonian(chain)),
               lead_eigenpairs(problems, leads, 1.0))


def rest_propagator(energies, rows, t):
    """R exp(-iEt) R^T: the propagator between the rest's sites."""
    return (rows * np.exp(-1j * energies * t)) @ rows.T


def check_sector_eigenpairs(n0, length, leads, kappa0):
    """Each sector's kernel eigenpairs against ``diagonalize`` of the dense
    sector block: the energies, the chain modes, and the rest rows'
    propagator."""
    for problem, dense, chain, (energies, rows, modes) in sectors(n0, length, kappa0, leads):
        size, scale = len(dense), np.linalg.norm(dense, np.inf)
        expected, vectors = diagonalize(dense)
        # one root for every eigenvalue
        assert energies.shape == (size,) and rows.shape == (size - leads, size)
        # the rest's eigenvectors are the chain's own sector modes
        assert modes.tobytes() == diagonalize(chain)[1].tobytes()
        # both are backward stable: each is the spectrum of h + dh with
        # ||dh|| within gamma_N ||h|| (the dense solve's Householder
        # reductions, LAPACK's p(N) eps ||h|| with p(N) = N; the secular
        # roots alike), and the kernel's deflation adds at most 8 u ||h||,
        # so by Weyl they lie within (2 gamma_N + 8u) ||h|| of each other
        drift = (2 * gamma(size) + 8 * U) * scale
        assert np.max(np.abs(energies - expected)) <= drift
        # the rest rows' propagator, which evolve uses: exp(-iHt) of the two
        # perturbed matrices differ by at most |t| ||dh - dh'||, and each
        # set of rows is orthonormal within gamma_N
        for t in (0.0, 1.0, leads / 2.0 + 1.0):
            gap = np.max(np.abs(rest_propagator(energies, rows, t)
                                - rest_propagator(expected, vectors[leads:], t)))
            assert gap <= 4 * gamma(size) + t * drift


@given(n0=st.integers(1, 5), length=st.integers(2, 300), leads=st.integers(0, 700),
       kappa0=st.sampled_from([1.0]) | st.floats(0.15, 10.0))
# lead and chain poles that coincide (equal hoppings), modes with a node at
# c_1 (trapped: 3 and 6 of the 8-site chain), the middle-site fold of L = 2
# and 3, one- and two-site leads, a strong side coupling, and a narrow
# resonance
@example(n0=2, length=5, leads=300, kappa0=1.0)
@example(n0=2, length=4, leads=40, kappa0=1.0)
@example(n0=1, length=2, leads=60, kappa0=1.3)
@example(n0=3, length=3, leads=45, kappa0=0.7)
@example(n0=4, length=7, leads=1, kappa0=2.0)
@example(n0=4, length=7, leads=2, kappa0=2.0)
@example(n0=5, length=299, leads=80, kappa0=10.0)
@example(n0=2, length=30, leads=700, kappa0=0.15)
@settings(max_examples=20, deadline=None)
def test_sector_eigenpairs_match_the_dense_eigensolve(n0, length, leads, kappa0):
    check_sector_eigenpairs(n0, length, leads, kappa0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the odd sector's rows are 2.2e-15 from orthonormal (eigh's 6.7e-16), "
                   "so the t = 0 propagators differ by 2.4e-15, past 4 gamma_5 = 2.2e-15")
def test_sector_eigenpairs_match_the_dense_eigensolve_at_a_strong_side_coupling():
    check_sector_eigenpairs(1, 4, 2, 10.0)


@given(n0=st.integers(1, 5), length=st.integers(2, 300), leads=st.integers(1, 300),
       kappa0=st.floats(-4.0, 4.0).map(lambda e: 10.0**e))
# side chains coupled 100 and 1000 times more strongly than the host, where
# the secular roots stall a hair from a pole unless the middle way's X is
# summed without cancellation
@example(n0=2, length=5, leads=20, kappa0=100.0)
@example(n0=3, length=41, leads=300, kappa0=1000.0)
@settings(max_examples=30, deadline=None)
def test_sector_energies_match_the_dense_eigensolve_at_any_hopping_ratio(n0, length, leads,
                                                                         kappa0):
    for _, dense, _, (energies, _, _) in sectors(n0, length, kappa0, leads):
        drift = (2 * gamma(len(dense)) + 8 * U) * np.linalg.norm(dense, np.inf)
        assert np.max(np.abs(energies - np.linalg.eigvalsh(dense))) <= drift


def test_the_kernel_is_the_chains_own_eigenpairs_without_leads():
    problem, dense, chain, _ = next(iter(sectors(2, 5, 1.3, 0)))
    mu, w = diagonalize(chain)
    energies, rows, _ = lead_eigenpairs([problem], 0, 1.0)[0]
    assert energies.tobytes() == mu.tobytes() and rows.tobytes() == w.tobytes()


def test_trapped_chain_modes_stay_exact_eigenpairs():
    # chain modes 3 and 6 of the uniform 8-site chain have a node at c_1:
    # their spokes deflate, and they come back as they went in
    problem, dense, chain, _ = next(iter(sectors(2, 4, 1.0, 40)))
    mu, w = diagonalize(chain)
    energies, rows, _ = lead_eigenpairs([problem], 40, 1.0)[0]
    trapped = np.flatnonzero(np.abs(w[2]) < 1e-15)      # c_1 is sector site 2
    assert len(trapped) == 1                            # the even sector's one
    column = np.flatnonzero(np.all(rows == w[:, trapped], axis=0))
    assert len(column) == 1 and energies[column[0]] == mu[trapped[0]]


@pytest.mark.parametrize("rest, spokes, leads, kappa", [
    (np.eye(3), np.ones(3), -1, 1.0),           # a negative lead
    (np.eye(3), np.ones(2), 10, 1.0),           # spokes that do not fit the rest
    (np.eye(3), np.ones((3, 1)), 10, 1.0),
    (np.ones((3, 2)), np.ones(3), 10, 1.0),     # a rest that is not square
    (np.zeros((0, 0)), np.zeros(0), 10, 1.0),   # no rest
    (np.eye(3), np.ones(3), 10, 0.0),           # a lead hopping that is not positive
    (np.eye(3), np.ones(3), 10, np.inf),
])
def test_a_problem_that_does_not_fit_is_refused(rest, spokes, leads, kappa):
    with pytest.raises(ValueError, match="expected leads >= 0"):
        lead_eigenpairs([(rest, spokes)], leads, kappa)
    # a block that fits does not make up for one that does not
    with pytest.raises(ValueError, match="expected leads >= 0"):
        lead_eigenpairs([(np.eye(2), np.ones(2)), (rest, spokes)], leads, kappa)


def test_no_block_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        lead_eigenpairs([], 10, 1.0)


@pytest.mark.parametrize("n0, length, kappa0", [(2, 5, 1.3), (1, 2, 1.0), (3, 41, 1.7),
                                                (5, 130, 0.37)])
@pytest.mark.parametrize("leads", [0, 1, 10, 300])
def test_modes_are_the_lead_free_chains_sector_eigenvectors(n0, length, kappa0, leads):
    # the rest folded from the chain's hoppings is bitwise the chain's own
    # dense sector block, so its eigenvectors are diagonalize's of that block
    for _, _, chain, (_, _, modes) in sectors(n0, length, kappa0, leads):
        assert modes.tobytes() == diagonalize(chain)[1].tobytes()


def test_a_failed_certificate_is_an_arithmetic_error(monkeypatch):
    problem = sector_problems(PiLatticeSpec(2, 5, 1.0, 1.3, 30))[0]
    monkeypatch.setattr(secular, "SECULAR_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        lead_eigenpairs([problem], 30, 1.0)


@given(n0=st.integers(1, 5), length=st.integers(2, 200), leads=st.integers(1, 600),
       kappa0=st.sampled_from([1.0]) | st.floats(0.3, 6.0))
@example(n0=1, length=3, leads=150, kappa0=1.0)
@example(n0=3, length=5, leads=400, kappa0=1.0)
@example(n0=2, length=61, leads=300, kappa0=1.0)
@example(n0=5, length=121, leads=500, kappa0=1.0)
@example(n0=4, length=2, leads=600, kappa0=1.7)
@example(n0=2, length=31, leads=200, kappa0=0.6)
@example(n0=3, length=41, leads=300, kappa0=1.7)
@example(n0=2, length=4, leads=2, kappa0=1.0)
@settings(max_examples=25, deadline=None)
def test_both_sectors_in_one_call_are_bitwise_one_sector_calls(n0, length, leads, kappa0):
    # one iteration for both blocks: each block's rest terms are its own
    # products over its own roots, and everything else is elementwise
    problems = sector_problems(PiLatticeSpec(n0, length, 1.0, kappa0, leads))
    for joint, problem in zip(lead_eigenpairs(problems, leads, 1.0), problems):
        alone = lead_eigenpairs([problem], leads, 1.0)[0]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(joint, alone))


@pytest.mark.parametrize("m", [3, 4, 7, 150, 600, 20000])
@pytest.mark.parametrize("kappa", [1.0, 0.7])
def test_closed_lead_term_matches_the_pole_sum(m, kappa):
    # from 1e-12 kappa to 1e3 kappa past each band edge (twice ||h||_inf of
    # side chains coupled some 500 times more strongly than the host), and
    # between each edge and nu_1 or nu_m-1, each point measured from the
    # nearer of the two, as the kernel measures it
    lead = secular.Lead(m, kappa)
    gap = lead.nu[1] + 2.0 * kappa
    beyond = np.geomspace(1e-12, 1e3, 60) * kappa
    inside = np.concatenate([np.geomspace(1e-12, 0.45, 40), np.linspace(0.05, 0.45, 9)]) * gap
    for end, x, below in [(0, -beyond, 0), (m, beyond, m - 1), (0, inside, 0),
                          (1, -inside, 0), (m, -inside, m - 1), (m - 1, inside, m - 1)]:
        origin = np.full(len(x), lead.nu[end])
        value, left, right, size, slope_size = lead.term(np.full(len(x), below), origin, x,
                                                         True)
        summed, slope, summed_size = lead_pole_sum(m, kappa, end, x)
        # each within its own rounding bound: the closed form's gamma_10
        # times its sizes, the sum's 25 u (value) and 40 u (slope) per term
        # and log2(m) + 10 roundings of numpy's pairwise sum
        depth = math.log2(m) + 10
        assert np.all(np.abs(value - summed) <= gamma(10) * size + (25 + depth) * U * summed_size)
        assert np.all(np.abs(left + right - slope) <= gamma(10) * slope_size
                      + (40 + depth) * U * slope)
        # the closed form's size is no laxer, and no tighter, than the sum's
        # by more than a factor 4, and its slope's size holds the slope
        assert np.all((size <= 4 * summed_size) & (summed_size <= 4 * size))
        assert np.all(slope_size >= left + right)
        # all of the slope lies on the side of the lead's poles
        assert np.all((left if below == 0 else right) == 0.0)


def test_a_long_lead_holds_no_more_than_gap_tables_and_rows():
    # evolve --n0 2 --len 4 --m 20000: N = 20,004 energies and S = 4 rest
    # sites per sector.  What is held beyond the rows, S per energy and a
    # few copies of them for their certificate, is a few dozen tables of
    # one number per gap: the iteration's state and one evaluation of f.
    # The lead term summed over 48 probe rows of m poles took 29 MiB.
    problems = sector_problems(PiLatticeSpec(2, 4, 1.0, 1.0, 20000))
    lead_eigenpairs(problems, 60, 1.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        results = lead_eigenpairs(problems, 20000, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    energies = sum(len(e) for e, _, _ in results)
    rows = sum(r.size for _, r, _ in results)
    assert peak <= 8 * (4 * rows + 64 * energies)


def test_evolve_hands_eigh_nothing_larger_than_the_chains_sector_block(tmp_path, monkeypatch):
    sizes = []
    eigh = np.linalg.eigh

    def spy(h, *args, **kwargs):
        sizes.append(len(h))
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    n0, length = 3, 41
    assert main(["evolve", "--n0", str(n0), "--len", str(length), "--m", "300", "--kappa0",
                 "1.7", "--steps", "60", "--modes", "all", "--out", str(tmp_path / "p.csv")]) == 0
    assert sizes and max(sizes) <= math.ceil((2 * n0 + length) / 2)


def test_evolve_reaches_past_the_dense_size_cap(tmp_path):
    # 8,412 sites: each sector block has more rows than DEFAULT_SIZE_CAP,
    # which only a dense eigensolve needs
    out = tmp_path / "p.csv"
    assert main(["evolve", "--n0", "2", "--len", "4", "--m", "4200", "--modes", "1,2",
                 "--steps", "5", "--out", str(out)]) == 0
    assert 4200 + 4 > spectra.DEFAULT_SIZE_CAP
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[4] for r in rows if r[3] == "0"] == ["1", "1"]


# ------------------------------------------------- diagonalize's contract

def pinned_matrices():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 40))
    yield dense + dense.T
    for seed in range(4):
        graph, _ = random_graph(np.random.default_rng(seed))
        yield assemble_hamiltonian(graph)
    lattice = build_pi_lattice(PiLatticeSpec(3, 41, 1.0, 1.7, 60)).graph
    yield from dense_mirror_blocks(assemble_hamiltonian(lattice))
    yield np.zeros((3, 3))


@pytest.mark.parametrize("h", list(pinned_matrices()), ids=lambda h: f"n{len(h)}")
def test_diagonalize_returns_eighs_bits(h):
    # what diagonalize returns is eigh's output, bit for bit: its checks
    # only read it
    energies, vectors = diagonalize(h)
    expected, expected_vectors = np.linalg.eigh(h)
    assert energies.tobytes() == expected.tobytes()
    assert vectors.tobytes() == expected_vectors.tobytes()


def test_a_wrong_eigenpair_fails_the_residual_check(monkeypatch):
    eigh = np.linalg.eigh

    def skewed(h):
        energies, vectors = eigh(h)
        return energies + 1e-6, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(ArithmeticError, match="residual"):
        diagonalize(next(iter(pinned_matrices())))
