#!/usr/bin/env python3
"""Cross-check the secular sector kernel against dense eigensolves on the
shapes that survival runs use: leads of 100 to 600 sites, short chains
evolved in every mode and long chains up to length 131, equal and unequal
hoppings, plus the edges of the input domain (kappa0 of 0.15 and 10).

For every mirror sector of each lattice it compares
``spectra.lead_eigenpairs`` with ``diagonalize`` of the dense sector
block.  Both are backward stable, each the spectrum of h + dh with ||dh||
within gamma_N ||h|| (LAPACK's p(N) eps ||h|| with p(N) = N), and the
kernel's deflation adds at most 8 u ||h||, so the energies must agree
within D = (2 gamma_N + 8 u) ||h|| (Weyl), and the propagators
R exp(-iEt) R^T between the chain's sector sites, which ``evolve`` uses,
within 4 gamma_N + t D.  Prints one
line per lattice with the worst ratio of each difference to its bound,
and exits 1 if any ratio exceeds 1.

    python scripts/check_sector_eigenpairs.py [--lattices 40] [--seed 0]
"""

import argparse
import sys

import numpy as np

from fanonet import PiLatticeSpec, build_pi_lattice, diagonalize
from fanonet.spectra import lead_eigenpairs, mirror_blocks, mirror_elements

UNIT_ROUNDOFF = 2.0**-53


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def lattices(count, seed):
    """(n0, length, leads, kappa0): the domain's edges, then a seeded draw
    of survival shapes."""
    yield from [(2, 5, 300, 1.0), (2, 30, 600, 0.15), (5, 131, 600, 10.0), (1, 2, 100, 1.0),
                (3, 123, 600, 1.0), (5, 3, 583, 0.5)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n0 = int(rng.integers(1, 6))
        # a short chain, or a long one of odd length (an exact pi/2 mode)
        short = rng.random() < 0.5
        length = int(rng.integers(2, 7)) if short else 2 * int(rng.integers(4, 66)) + 1
        leads = int(round(100 * 6 ** rng.random()))
        kappa0 = 1.0 if rng.random() < 0.5 else round(float(0.5 * 4 ** rng.random()), 4)
        yield n0, length, leads, kappa0


def worst_ratios(n0, length, leads, kappa0):
    """The largest ratio of each difference to its bound over both sectors."""
    lattice = build_pi_lattice(PiLatticeSpec(n0, length, 1.0, kappa0, leads)).graph
    chain = build_pi_lattice(PiLatticeSpec(n0, length, 1.0, kappa0)).graph
    energy_ratio = propagator_ratio = 0.0
    for block, dense, chain_block in zip(mirror_elements(lattice), mirror_blocks(lattice),
                                         mirror_blocks(chain)):
        size, scale = len(dense), np.linalg.norm(dense, np.inf)
        energies, rows = lead_eigenpairs(block, leads, diagonalize(chain_block))
        expected, vectors = diagonalize(dense)
        drift = (2 * gamma(size) + 8 * UNIT_ROUNDOFF) * scale
        energy_ratio = max(energy_ratio, np.max(np.abs(energies - expected)) / drift)
        for t in (0.0, 1.0, leads / 2.0):
            ours = (rows * np.exp(-1j * energies * t)) @ rows.T
            theirs = (vectors[leads:] * np.exp(-1j * expected * t)) @ vectors[leads:].T
            propagator_ratio = max(propagator_ratio, np.max(np.abs(ours - theirs))
                                   / (4 * gamma(size) + t * drift))
    return energy_ratio, propagator_ratio


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lattices", type=int, default=40, help="random lattices to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    worst = 0.0
    for n0, length, leads, kappa0 in lattices(args.lattices, args.seed):
        ratios = worst_ratios(n0, length, leads, kappa0)
        worst = max(worst, *ratios)
        print(f"n0={n0} len={length} m={leads} kappa0={kappa0}: energies {ratios[0]:.3f}, "
              f"propagator {ratios[1]:.3f} of their bounds")
    print(f"worst ratio to a bound: {worst:.3f}")
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
