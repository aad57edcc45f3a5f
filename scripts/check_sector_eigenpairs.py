#!/usr/bin/env python3
"""Cross-check the secular sector kernel against dense eigensolves on the
shapes that survival runs use: leads of 100 to 600 sites, short chains
evolved in every mode and long chains up to length 131, equal and unequal
hoppings.  The CLI takes any positive hopping ratio, so fixed lattices
also reach side chains coupled far more weakly and far more strongly than
the host: kappa0 of 0.01, 0.15, 10, 100, 1000 and 1e4 at kappa = 1.  The
band-edge lattices (kappa0 from 3 to 100, leads of 3 to 2,000 sites) put
energies beyond both band edges and between each edge and the lead pole
nearest it, where the lead term takes its closed form from the edge.

For every mirror sector of each lattice it compares
``spectra.lead_eigenpairs``, called once for both sectors as evolve calls
it, on the problem that evolve poses (the rest folded from the chain's
hoppings by ``spectra.fold_chain``, the lead given by its length and
hopping), with ``diagonalize`` of the dense sector
block, sliced from ``assemble_hamiltonian`` of the whole lattice, so the
reference shares no code with what it checks.  Both are backward stable,
each the spectrum of h + dh with ||dh|| within gamma_N ||h|| (LAPACK's
p(N) eps ||h|| with p(N) = N), and the kernel's deflation adds at most
8 u ||h||, so the energies must agree within D = (2 gamma_N + 8 u) ||h||
(Weyl), and the propagators R exp(-iEt) R^T between the chain's sector
sites, which ``evolve`` uses, within 4 gamma_N + t D.  Prints one line per
lattice with the worst ratio of each difference to its bound, and how many
energies lie in each of those four band-edge regions.

It also checks the initial mode of ``bound --long-time`` on the sweep's
largest chain (n0 = 5, length 1000, sector blocks of 505 sites) at
kappa0 from 0.3 to 6 and modes spread over 1..lambda: the eigenpair of
``spectra.tridiagonal_eigenpair`` on the folded block against
``diagonalize`` of the dense sector block sliced from the chain's
Hamiltonian.  The energies must agree within the bracket's width
(4 u ||h||), the counts' backward error (u (max|a| + |E|) + 2 gamma_2
max|b| + 3 pivmin, CHANGES.md) and eigh's gamma_N ||h||; the vectors,
aligned in sign, within 2.5 (r + r_dense) / gap (Davis-Kahan, with r the
2-norm residuals and gap the distance to the other eigenvalues).  Prints
one line per kappa0.

Exits 1 if any ratio exceeds 1, or if the band-edge lattices leave one of
the four regions empty.

    python scripts/check_sector_eigenpairs.py [--lattices 40] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fanonet import (  # noqa: E402
    PiLatticeSpec, assemble_hamiltonian, build_pi_lattice, diagonalize)
from fanonet.spectra import (  # noqa: E402
    fold_chain, lead_eigenpairs, mirror_mode, tridiagonal_eigenpair)

UNIT_ROUNDOFF = 2.0**-53
# the long-time check: the sweep's largest chain, its range of hopping
# ratios and a spread of modes
LONG_TIME_CHAIN = (5, 1000)
LONG_TIME_KAPPA0 = np.round(np.geomspace(0.3, 6.0, 12), 4)
LONG_TIME_MODES = 15


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


# lattices whose sector energies lie beyond both band edges and between
# each edge and the lead pole nearest it, nu_1 or nu_m-1, where the lead
# term takes its closed form from the band edge: side chains coupled 3 to
# 100 times more strongly than the host, leads of 3 to 2,000 sites
EDGE_LATTICES = [(1, 2, 3, 3.0), (2, 5, 4, 10.0), (2, 3, 5, 4.0), (3, 7, 7, 30.0),
                 (5, 10, 20, 3.0), (4, 9, 50, 100.0), (3, 4, 150, 3.0), (5, 31, 600, 30.0),
                 (1, 3, 1000, 100.0), (2, 4, 2000, 3.0), (1, 5, 2000, 10.0)]


def lattices(count, seed):
    """(n0, length, leads, kappa0): fixed shapes and hopping ratios, the
    band-edge lattices, then a seeded draw of survival shapes."""
    yield from [(2, 5, 300, 1.0), (2, 30, 600, 0.15), (5, 131, 600, 10.0), (1, 2, 100, 1.0),
                (3, 123, 600, 1.0), (5, 3, 583, 0.5), (2, 5, 20, 100.0), (3, 41, 300, 1000.0),
                (5, 131, 600, 1e4), (4, 9, 150, 0.01)]
    yield from EDGE_LATTICES
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n0 = int(rng.integers(1, 6))
        # a short chain, or a long one of odd length (an exact pi/2 mode)
        short = rng.random() < 0.5
        length = int(rng.integers(2, 7)) if short else 2 * int(rng.integers(4, 66)) + 1
        leads = int(round(100 * 6 ** rng.random()))
        kappa0 = 1.0 if rng.random() < 0.5 else round(float(0.5 * 4 ** rng.random()), 4)
        yield n0, length, leads, kappa0


def sliced_sectors(spec):
    """The even and odd blocks of the lattice's dense Hamiltonian:
    top +- cross, top = h[:half, :half] and cross[i, j] = h[i, N-1-j], and in
    the even block of odd N the middle site's row and column sqrt(2) *
    h[:half, half]."""
    h = assemble_hamiltonian(build_pi_lattice(spec).graph)
    half = len(h) // 2
    top, cross = h[:half, :half], h[:half, ::-1][:, :half]
    even, odd = top + cross, top - cross
    if len(h) % 2:
        middle = np.sqrt(2.0) * h[:half, half]
        even = np.block([[even, middle[:, None]], [middle[None, :], h[half, half]]])
    return even, odd


def tridiagonal(diagonal, off_diagonal):
    return np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)


def worst_ratios(n0, length, leads, kappa0):
    """The largest ratio of each difference to its bound over both sectors,
    solved by one ``lead_eigenpairs`` call, and how many energies lie below
    the band, between its lower edge and nu_1, between nu_m-1 and its upper
    edge, and above it."""
    spec = PiLatticeSpec(n0, length, 1.0, kappa0, leads)
    problems = []
    for folded in fold_chain(spec.central_hoppings):
        rest = tridiagonal(*folded)
        spokes = np.zeros(len(rest))
        spokes[n0] = -spec.kappa
        problems.append((rest, spokes))
    energy_ratio = propagator_ratio = 0.0
    regions = np.zeros(4, dtype=int)
    edge = 2.0 * spec.kappa
    nu_1 = -edge * np.cos(np.pi / leads) if leads > 1 else edge
    for (energies, rows, _), dense in zip(lead_eigenpairs(problems, leads, spec.kappa),
                                          sliced_sectors(spec)):
        size, scale = len(dense), np.linalg.norm(dense, np.inf)
        expected, vectors = diagonalize(dense)
        drift = (2 * gamma(size) + 8 * UNIT_ROUNDOFF) * scale
        energy_ratio = max(energy_ratio, np.max(np.abs(energies - expected)) / drift)
        for t in (0.0, 1.0, leads / 2.0):
            ours = (rows * np.exp(-1j * energies * t)) @ rows.T
            theirs = (vectors[leads:] * np.exp(-1j * expected * t)) @ vectors[leads:].T
            propagator_ratio = max(propagator_ratio, np.max(np.abs(ours - theirs))
                                   / (4 * gamma(size) + t * drift))
        regions += [np.sum(energies < -edge), np.sum((energies > -edge) & (energies < nu_1)),
                    np.sum((energies > -nu_1) & (energies < edge)), np.sum(energies > edge)]
    return energy_ratio, propagator_ratio, regions


def long_time_ratios(n0, length, kappa0, modes):
    """The largest ratio of the energy and the vector difference to their
    bounds over ``modes`` of the chain."""
    spec = PiLatticeSpec(n0, length, 1.0, kappa0)
    energy_ratio = vector_ratio = 0.0
    sectors = zip(fold_chain(spec.central_hoppings), sliced_sectors(spec))
    for which, ((diagonal, off_diagonal), block) in enumerate(sectors):
        columns = [mirror_mode(n)[1] for n in modes if (mirror_mode(n)[0] > 0) == (which == 0)]
        if not columns:
            continue
        size, scale = len(block), np.linalg.norm(block, np.inf)
        b_max = np.max(np.abs(off_diagonal))
        pivmin = np.finfo(float).tiny * max(1.0, b_max**2)
        expected, vectors = diagonalize(block)
        for column in columns:
            energy, vector = tridiagonal_eigenpair(diagonal, off_diagonal, column)
            drift = 4 * UNIT_ROUNDOFF * scale + 2 * pivmin + gamma(size) * scale \
                + UNIT_ROUNDOFF * (np.max(np.abs(diagonal)) + abs(energy) + scale) \
                + 2 * gamma(2) * b_max + 3 * pivmin
            energy_ratio = max(energy_ratio, abs(energy - expected[column]) / drift)
            dense = vectors[:, column] * np.sign(vectors[:, column] @ vector)
            gap = np.min(np.abs(np.delete(expected, column) - expected[column])) - drift
            r = np.linalg.norm(block @ vector - energy * vector) \
                + np.linalg.norm(block @ dense - expected[column] * dense)
            vector_ratio = max(vector_ratio, np.max(np.abs(vector - dense)) / (2.5 * r / gap))
    return energy_ratio, vector_ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lattices", type=int, default=40, help="random lattices to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    worst, covered = 0.0, np.zeros(4, dtype=int)
    for n0, length, leads, kappa0 in lattices(args.lattices, args.seed):
        *ratios, regions = worst_ratios(n0, length, leads, kappa0)
        worst = max(worst, *ratios)
        if (n0, length, leads, kappa0) in EDGE_LATTICES:
            covered += regions
        print(f"n0={n0} len={length} m={leads} kappa0={kappa0}: energies {ratios[0]:.3f}, "
              f"propagator {ratios[1]:.3f} of their bounds; energies below the band, "
              f"up to nu_1, from nu_m-1, above: {regions.tolist()}")
    print(f"band-edge lattices' energies below the band, up to nu_1, from nu_m-1, above: "
          f"{covered.tolist()}")
    if not np.all(covered):
        print("the band-edge lattices missed a region of the closed-form lead term")
        return 1
    n0, length = LONG_TIME_CHAIN
    lam = 2 * n0 + length
    modes = np.unique(np.linspace(1, lam, LONG_TIME_MODES).round().astype(int)).tolist()
    for kappa0 in LONG_TIME_KAPPA0.tolist():
        ratios = long_time_ratios(n0, length, kappa0, modes)
        worst = max(worst, *ratios)
        print(f"long-time mode n0={n0} len={length} kappa0={kappa0} ({len(modes)} modes): "
              f"energies {ratios[0]:.3f}, vectors {ratios[1]:.3f} of their bounds")
    print(f"worst ratio to a bound: {worst:.3f}")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
