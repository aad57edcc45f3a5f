#!/usr/bin/env python3
"""Certify the trapped modes of the 11-site central chain (n0=3, length=5).

Prints the wave-node structure of every central-chain mode, which of them
decouple from the leads, and the full-lattice residual of each certificate
at increasing lead lengths.  Each residual, computed from the bond list,
is rechecked on the dense Hamiltonian (``verify_trapping``); the script
exits 1 when the two differ by more than their rounding bound
(``residual_rounding_bound``).
"""

import argparse
import json
import sys
from pathlib import Path

from fanonet import (
    PiLatticeSpec,
    build_pi_lattice,
    find_trapping_modes,
    open_chain_modes,
    residual_rounding_bound,
    verify_trapping,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n0", type=int, default=3)
    parser.add_argument("--len", dest="length", type=int, default=5)
    parser.add_argument("--outdir", type=Path, default=Path("data"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    lam = 2 * args.n0 + args.length
    joints = (args.n0 + 1, args.n0 + args.length)
    print(f"central chain of {lam} sites, anchors at positions {joints}")
    for n, mode in enumerate(open_chain_modes(lam), start=1):
        trapped = set(joints) <= mode.nodes
        print(
            f"mode n={n:2d}  k={n}pi/{lam + 1}  E={mode.energy:+.6f}  "
            f"nodes={sorted(mode.nodes) or '-'}  trapped={trapped}"
        )

    records, apart = [], 0
    for leads in (8, 20, 50):
        lattice = build_pi_lattice(PiLatticeSpec(args.n0, args.length, leads=leads))
        certs = find_trapping_modes(lattice.graph, lattice.partition, 1)
        for cert in certs:
            recheck = verify_trapping(lattice.graph, cert)
            bound = residual_rounding_bound(lattice.graph, cert)
            if abs(cert.residual - recheck) > bound:
                apart += 1
                print(f"leads={leads}: residual {cert.residual:.3e} at E={cert.energy:+.6f} "
                      f"differs from its dense recheck {recheck:.3e} by more than {bound:.3e}")
            records.append({"leads": leads, **cert.to_json_dict(), "recheck": recheck})
        worst = max(c.residual for c in certs)
        print(f"leads={leads:3d}: {len(certs)} certificates, worst residual {worst:.2e}")

    out = args.outdir / f"trapped_modes_n0{args.n0}_L{args.length}.json"
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if apart:
        sys.exit(f"{apart} residuals differ from their dense recheck beyond rounding")


if __name__ == "__main__":
    main()
