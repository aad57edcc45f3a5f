"""Mirror sectors: the parity blocks of a mirror-symmetric chain, folded
from its hopping profile, the numbering of the central chain's modes by
sector, and survival evolved in one sector at a time."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanonet import PiLatticeSpec, SurvivalSeries, assemble_hamiltonian, build_pi_lattice, \
    classify_decay, diagonalize, safe_horizon
from fanonet.cli import main
from fanonet.spectra import RESIDUAL_TOL, fold_chain, mirror_mode, unfold

from _support import chain_modes, dense_mirror_blocks, full_lattice_survival, sector_problems, \
    tridiagonal, with_lead

EPS = np.finfo(float).eps

# the pi lattice's parameters; kappa0 is one ratio for the parity tests,
# while evolve draws its own, equal hoppings among them
lattices = st.fixed_dictionaries({
    "n0": st.integers(1, 5),
    "length": st.integers(2, 300),
    "leads": st.integers(0, 80),
    "kappa0": st.floats(0.3, 10.0),
})


def lattice_graph(p, kappa=1.0):
    spec = PiLatticeSpec(p["n0"], p["length"], kappa, p["kappa0"], p["leads"])
    return build_pi_lattice(spec).graph


def lattice_hamiltonian(p, kappa=1.0):
    return assemble_hamiltonian(lattice_graph(p, kappa))


def sector_spectrum(graph):
    """Energies of both blocks merged by ``mirror_mode`` and the unfolded
    eigenvectors in the same order."""
    size = graph.site_count
    energies, vectors = np.empty(size), np.empty((size, size))
    for sector, block in zip((1, -1), dense_mirror_blocks(assemble_hamiltonian(graph))):
        columns = slice(0 if sector > 0 else 1, None, 2)
        energies[columns], folded = diagonalize(block)
        vectors[:, columns] = unfold(folded, sector, size)
    return energies, vectors


@given(p=lattices, kappa=st.sampled_from([1.0, 0.7]))
@settings(max_examples=40, deadline=None)
def test_sector_eigenpairs_are_the_full_eigenpairs(p, kappa):
    graph = lattice_graph(p, kappa)
    h = assemble_hamiltonian(graph)
    scale = np.linalg.norm(h, np.inf)
    energies, vectors = sector_spectrum(graph)
    # each eigenvalue carries eigh's backward error, at most about
    # size*eps*||H||, on each side
    assert np.max(np.abs(energies - np.linalg.eigvalsh(h))) <= 2 * len(h) * EPS * scale
    assert np.max(np.abs(h @ vectors - vectors * energies)) < RESIDUAL_TOL * scale
    assert np.max(np.abs(vectors.T @ vectors - np.eye(len(h)))) < 1e-12


@given(p=lattices)
@settings(max_examples=40, deadline=None)
def test_mode_numbering_matches_the_parity_of_resolved_eigh_modes(p):
    # the lattice with its leads is one path, a Jacobi matrix with negative
    # hoppings, like the central chain: eigenvector n has n-1 sign changes
    h = lattice_hamiltonian(p)
    energies, vectors = np.linalg.eigh(h)
    gaps = np.minimum(np.diff(energies, prepend=-np.inf), np.diff(energies, append=np.inf))
    parity = np.sum(vectors * vectors[::-1], axis=0)              # <g|J|g>
    resolved = np.flatnonzero(gaps > 1e-6 * np.linalg.norm(h, np.inf))
    assert len(resolved) > 0
    expected = [mirror_mode(n + 1)[0] for n in resolved]
    np.testing.assert_allclose(parity[resolved], expected, rtol=0, atol=1e-9)


def test_mirror_mode_numbers_even_then_odd():
    assert [mirror_mode(n) for n in range(1, 9)] == [
        (1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]


@given(size=st.integers(1, 40), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_blocks_of_a_dense_mirror_symmetric_matrix(size, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size))
    a = a + a.T
    h = a + a[::-1, ::-1]
    even, odd = dense_mirror_blocks(h)
    assert even.shape == ((size + 1) // 2,) * 2 and odd.shape == (size // 2,) * 2
    assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)
    scale = np.linalg.norm(h, np.inf)
    merged = np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
    assert np.max(np.abs(merged - np.linalg.eigvalsh(h))) <= 2 * size * EPS * scale
    # unfold maps sector coordinates to a state of that parity and norm, on
    # which the block acts as h does
    for sector, block in ((1, even), (-1, odd)):
        w = rng.normal(size=(len(block), 3))
        part = unfold(w, sector, size)
        np.testing.assert_array_equal(part[::-1], sector * part)
        assert np.max(np.abs(np.linalg.norm(part, axis=0) - np.linalg.norm(w, axis=0))) < 1e-14
        assert np.max(np.abs(unfold(block @ w, sector, size) - h @ part)) < 1e-12 * scale


def same_bytes(blocks, expected):
    """Each block byte for byte the expected one, shapes included."""
    return all(b.shape == e.shape and b.tobytes() == e.tobytes() for b, e in zip(blocks, expected))


@given(n0=st.integers(1, 5), length=st.integers(2, 1000), leads=st.integers(0, 300),
       kappa=st.floats(0.15, 10.0), kappa0=st.sampled_from([1.0]) | st.floats(0.15, 10.0))
# odd and even sizes, with no lead, a one-site lead and a long one, at both
# ends of the hopping ratio
@example(n0=1, length=2, leads=0, kappa=1.0, kappa0=0.3)
@example(n0=1, length=3, leads=1, kappa=1.0, kappa0=10.0)
@example(n0=5, length=1000, leads=300, kappa=0.15, kappa0=10.0)
@example(n0=5, length=999, leads=2, kappa=10.0, kappa0=0.15)
@settings(max_examples=40, deadline=None)
def test_folded_blocks_of_pi_lattices_are_the_dense_slices(n0, length, leads, kappa, kappa0):
    # the fold of the chain's hoppings is the chain's sector blocks, and
    # with the lead written out, the lattice's, bitwise as the dense slices
    spec = PiLatticeSpec(n0, length, kappa, kappa0, leads)
    chain = build_pi_lattice(PiLatticeSpec(n0, length, kappa, kappa0)).graph
    folded = [tridiagonal(*sector) for sector in fold_chain(spec.central_hoppings)]
    assert same_bytes(folded, dense_mirror_blocks(assemble_hamiltonian(chain)))
    blocks = [with_lead(*problem, leads, kappa) for problem in sector_problems(spec)]
    lattice = build_pi_lattice(spec).graph
    assert same_bytes(blocks, dense_mirror_blocks(assemble_hamiltonian(lattice)))


def random_mirror_profile(rng):
    """A profile of nonzero strengths of either sign, read the same from
    both ends; an odd number of bonds (even lambda) has its middle bond
    once."""
    count = int(rng.integers(1, 21))
    half = rng.choice([-1.0, 1.0], size=count) * rng.uniform(0.1, 3.0, size=count)
    return np.concatenate([half, half[-1 - int(rng.integers(0, 2))::-1]])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_folded_blocks_of_random_mirror_symmetric_chains_are_the_dense_slices(seed):
    # against the chain's Hamiltonian sliced
    hoppings = random_mirror_profile(np.random.default_rng(seed))
    h = tridiagonal(np.zeros(len(hoppings) + 1), -hoppings)
    folded = [tridiagonal(*sector) for sector in fold_chain(hoppings)]
    assert same_bytes(folded, dense_mirror_blocks(h))


@pytest.mark.parametrize("hoppings", [[1.0, 2.0], [1.0, 1.0, 1.0 + EPS], [1.0, 2.0, 3.0, 1.0],
                                      [], [[1.0]], 1.0])
def test_a_profile_that_is_not_mirror_symmetric_is_refused(hoppings):
    with pytest.raises(ValueError, match="mirror-symmetric chain"):
        fold_chain(hoppings)


@given(seed=st.integers(0, 2**32 - 1), nudge=st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_profile_with_one_bond_off_its_mirror_bond_is_refused(seed, nudge):
    # one bond of a mirror-symmetric profile made to differ from its mirror
    # bond, by 1 or by one ulp
    rng = np.random.default_rng(seed)
    hoppings = random_mirror_profile(rng)
    p = int(rng.integers(len(hoppings)))
    assume(p != len(hoppings) - 1 - p)          # the middle bond is its own mirror
    hoppings[p] = np.nextafter(hoppings[p], np.inf) if nudge else hoppings[p] + 1.0
    with pytest.raises(ValueError, match="mirror-symmetric chain"):
        fold_chain(hoppings)


@pytest.mark.parametrize("n0, length, kappa, kappa0", [(1, 2, 1.0, 1.0), (3, 41, 1.0, 1.7),
                                                       (2, 7, 1.0, 1.0), (4, 10, 1.3, 0.5),
                                                       (5, 131, 1.0, 1.0)])
def test_chain_sector_modes_are_the_chain_modes_of_their_sector(n0, length, kappa, kappa0):
    # evolve takes a sector's chain modes from the central rows and columns
    # of the lattice's sector block: bitwise the chain's own sector block,
    # whose eigenvectors, unfolded, are the chain's modes of that sector
    size = 2 * n0 + length
    chain_graph = lattice_graph({"n0": n0, "length": length, "leads": 0, "kappa0": kappa0}, kappa)
    chain = assemble_hamiltonian(chain_graph)
    for leads in (0, 1, 7, 60):
        graph = lattice_graph({"n0": n0, "length": length, "leads": leads, "kappa0": kappa0},
                              kappa)
        blocks = dense_mirror_blocks(assemble_hamiltonian(graph))
        for sector, block, own in zip((1, -1), blocks, dense_mirror_blocks(chain)):
            observed = np.arange(leads, leads + (size + (sector > 0)) // 2)
            central = block[np.ix_(observed, observed)]
            assert central.tobytes() == own.tobytes()
            energies, vectors = diagonalize(central)
            numbers = [n for n in range(1, size + 1) if mirror_mode(n)[0] == sector]
            assert [mirror_mode(n)[1] for n in numbers] == list(range(len(central)))
            expected = chain_modes(n0, length, kappa, kappa0, numbers)
            got = unfold(vectors, sector, size)
            got *= np.sign(np.sum(got * expected, axis=0))
            # the same mode up to sign; at equal hoppings expected is the
            # analytic mode, and an eigenvector computed with residual
            # r <= size*eps*||H|| leans by at most r/gap towards its
            # neighbours in the sector (Davis-Kahan)
            gaps = np.minimum(np.diff(energies, prepend=-np.inf),
                              np.diff(energies, append=np.inf))
            bound = 2 * size * EPS * np.linalg.norm(chain, np.inf) / gaps
            assert np.all(np.max(np.abs(got - expected), axis=0) <= bound)


evolve_runs = st.fixed_dictionaries({
    "kappa0": st.sampled_from([1.0]) | st.floats(0.3, 10.0),
    "steps": st.integers(50, 90),
    "t_max": st.floats(0.0, 60.0),
    # mode numbers are taken modulo the central size
    "modes": st.lists(st.integers(1, 310), min_size=1, max_size=6),
})


@given(p=lattices, run=evolve_runs)
# the side-chain edge pairs that eigh cannot split, both parities of the
# longest odd and even lattices, and no leads
@example(p={"n0": 3, "length": 41, "leads": 60, "kappa0": 1.7},
         run={"kappa0": 1.7, "steps": 60, "t_max": 50.0, "modes": [1, 2, 46, 47]})
@example(p={"n0": 5, "length": 299, "leads": 80, "kappa0": 10.0},
         run={"kappa0": 10.0, "steps": 50, "t_max": 60.0, "modes": [1, 2, 155, 156, 309]})
@example(p={"n0": 5, "length": 300, "leads": 80, "kappa0": 0.3},
         run={"kappa0": 0.3, "steps": 50, "t_max": 60.0, "modes": [1, 155, 156, 310]})
@example(p={"n0": 2, "length": 5, "leads": 0, "kappa0": 1.0},
         run={"kappa0": 1.0, "steps": 50, "t_max": 8.0, "modes": list(range(1, 10))})
@settings(max_examples=25, deadline=None)
def test_evolve_matches_the_full_lattice_path(p, run, tmp_path_factory):
    n0, length, leads = p["n0"], p["length"], p["leads"]
    kappa0, steps, t_max = run["kappa0"], run["steps"], run["t_max"]
    modes = [1 + (n - 1) % (2 * n0 + length) for n in run["modes"]]
    out = tmp_path_factory.mktemp("evolve") / "p.csv"
    assert main(["evolve", "--n0", str(n0), "--len", str(length), "--m", str(leads),
                 "--kappa0", repr(kappa0), "--steps", str(steps), "--t-max", repr(t_max),
                 "--allow-reflections", "--modes", ",".join(map(str, modes)),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [int(r[2]) for r in rows] == [n for n in modes for _ in range(steps)]

    times = np.linspace(0.0, t_max, steps)
    horizon = safe_horizon(leads, 1.0)
    expected = full_lattice_survival(n0, length, 1.0, kappa0, leads, modes, times)
    for i, (n, values) in enumerate(zip(modes, expected)):
        mode_rows = rows[i * steps:(i + 1) * steps]
        got = np.array([float(r[4]) for r in mode_rows])
        assert np.max(np.abs(got - values)) <= 1e-12
        try:
            label = classify_decay(SurvivalSeries(n, times, values, horizon))
        except ValueError:
            label = "unclassified"
        assert {r[5] for r in mode_rows} == {label}
