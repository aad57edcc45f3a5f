#!/usr/bin/env python3
"""Check the array pass of ``%.17g`` against CPython's ``%``, value by value.

    python scripts/check_decimal_text.py [--count 2000000] [--seed 0]

``fanonet._decimal.join_g17`` writes ``trap``'s certificate amplitudes.
This script runs it over ``--count`` random 64-bit patterns read as
doubles (every class: subnormals, every exponent, both signs, infinities
and NaNs), every power of ten from 1e-300 to 1e300 with both of its
neighbours, and the tie family 1 + j * 2**-17 for j < 2**17, whose odd
members are exact ties of the 17-digit rounding.  It compares each text
with ``'%.17g' % x``, prints how many values of each set took the scalar
fallback, and exits 1 on any difference.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fanonet._decimal import join_g17  # noqa: E402

# values per call, so that the check holds a few MB at a time
BLOCK = 1 << 16


def check(values: np.ndarray) -> tuple[int, int]:
    """Differences from ``%`` and values that took the scalar fallback."""
    wrong = fallback = 0
    for start in range(0, len(values), BLOCK):
        block = values[start:start + BLOCK]
        text, offsets, scalar = join_g17(block)
        expected = "".join(["%.17g, "] * len(block)) % tuple(block.tolist())
        if text != expected or offsets[-1] != len(expected):
            for i, value in enumerate(block.tolist()):
                got = text[offsets[i]:offsets[i + 1] - 2]
                if got != "%.17g" % value:
                    wrong += 1
                    if wrong <= 10:
                        print(f"  {value!r}: {got!r}, % gives {'%.17g' % value!r}")
        fallback += int(scalar.sum())
    return wrong, fallback


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2_000_000, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    sets = {
        "random bit patterns": rng.integers(0, 2 ** 64, args.count, np.uint64,
                                            endpoint=False).view(np.float64),
        "powers of ten and neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "1 + j * 2**-17": 1 + np.arange(1, 2 ** 17) * 2.0 ** -17,
    }
    failed = False
    for name, values in sets.items():
        wrong, fallback = check(values)
        print(f"{name}: {len(values)} values, {fallback} by %, {wrong} differ")
        failed |= wrong > 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
