#!/usr/bin/env python3
"""Compare two directories of CLI output value by value.

    python scripts/compare_outputs.py DIR_A DIR_B

The CLI prints floats with 12 significant digits in CSV, with 17 in
trap's certificate amplitudes and with shortest round-trip text in the
rest of its JSON, so output that is right on both sides can still differ
in the last printed digit when a sum is reordered, and the same double
can be printed two ways ("0.1" and "0.10000000000000001").  A byte
comparison cannot tell either from a real change, and neither can an
absolute tolerance: a value near 1 printed as 0.999999999999 moves by
1e-12 when its last digit flips.  This script reads two numeric fields
as equal when their texts parse to the same double.  It reads any other
pair as the decimal texts they are and reports their difference in units
of the last printed place: |a - b| / 10^e, with 10^e the finer of the two
fields' last printed places ("0.999999999999" has e = -12, "1" has e = 0).
A tiny value, such as an overlap of 4.5e-42, can differ by many such
units and still by nothing that matters, so the script also reports the
largest absolute difference |a - b| and the field where it occurs.

Files are matched by their path below each directory, recursively.  A
``.csv`` file is compared line by line and field by field at its commas;
a ``.json`` file as parsed JSON, path by path; any other file byte for
byte.  For each file that is not byte-identical it prints how many
numeric fields differ, a histogram of their unit counts and the largest,
the largest |a - b| and its field, and every non-numeric difference (a missing file, different row or field
counts, different keys, labels or other text), the first few in full.
The last line sums this over all files.

Exit status: 0 when the two directories hold the same values, 1 when
anything differs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

# a finite decimal number as Python and JSON print them
NUMBER = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
# non-numeric differences printed in full per file
SHOWN = 5


class Report:
    """Differences of one file: unit counts of numeric fields, the largest
    absolute difference and where it occurs, and text."""

    def __init__(self):
        self.units: Counter = Counter()
        self.largest: tuple[Decimal, str] = (Decimal(0), "")
        self.other: list[str] = []

    def number(self, where: str, a: str, b: str):
        if float(a).hex() == float(b).hex():         # the same double, -0.0 apart from 0.0
            return
        da, db = Decimal(a), Decimal(b)
        if da != db:
            place = min(da.as_tuple().exponent, db.as_tuple().exponent)
            self.units[abs(da - db).scaleb(-place)] += 1
            self.largest = max(self.largest, (abs(da - db), where), key=lambda d: d[0])

    def field(self, where: str, a: str, b: str):
        if a == b:
            return
        if NUMBER.fullmatch(a) and NUMBER.fullmatch(b):
            self.number(where, a, b)
        else:
            self.other.append(f"{where}: {a!r} != {b!r}")


def compare_csv(a: str, b: str, report: Report):
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        report.other.append(f"{len(lines_a)} != {len(lines_b)} lines")
    for row, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        fields_a, fields_b = line_a.split(","), line_b.split(",")
        if len(fields_a) != len(fields_b):
            report.other.append(f"line {row}: {len(fields_a)} != {len(fields_b)} fields")
            continue
        for column, (x, y) in enumerate(zip(fields_a, fields_b), 1):
            report.field(f"line {row} field {column}", x, y)


class _Number(str):
    """The printed text of a JSON number."""


def _json(text: str):
    """Parsed JSON with every number kept as its printed text."""
    return json.loads(text, parse_float=_Number, parse_int=_Number, parse_constant=str)


def compare_json(a, b, report: Report, where: str = "$"):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            report.other.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
        for key in sorted(a.keys() & b.keys()):
            compare_json(a[key], b[key], report, f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            report.other.append(f"{where}: {len(a)} != {len(b)} items")
        for index, (x, y) in enumerate(zip(a, b)):
            compare_json(x, y, report, f"{where}[{index}]")
    elif isinstance(a, _Number) and isinstance(b, _Number):
        report.number(where, a, b)
    elif type(a) is not type(b) or a != b:
        report.other.append(f"{where}: {json.dumps(a)} != {json.dumps(b)}")


def compare_file(a: Path | None, b: Path | None) -> Report:
    report = Report()
    if a is None or b is None:
        report.other.append("only in " + ("the second" if a is None else "the first"))
        return report
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return report
    try:
        text_a, text_b = data_a.decode("utf-8"), data_b.decode("utf-8")
        if a.suffix == ".csv":
            compare_csv(text_a, text_b, report)
        elif a.suffix == ".json":
            compare_json(_json(text_a), _json(text_b), report)
        else:
            report.other.append("bytes differ")
    except ValueError as exc:            # not UTF-8, or not JSON
        report.other.append(f"unreadable: {exc}")
    if not report.units and not report.other:
        report.other.append("bytes differ, values equal")    # e.g. 1.0 against 1.00
    return report


def describe(units: Counter, largest: tuple[Decimal, str]) -> str:
    histogram = ", ".join(f"{_text(u)}: {n}" for u, n in sorted(units.items()))
    return (f"{sum(units.values())} numeric fields differ, by up to {_text(max(units))} "
            f"units of the last printed place (units: fields {histogram}), "
            f"the largest |a - b| {format(largest[0].normalize(), 'g')} at {largest[1]}")


def _text(units: Decimal) -> str:
    return format(units.normalize(), "f")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    for root in (args.first, args.second):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    names = sorted({p.relative_to(root) for root in (args.first, args.second)
                    for p in root.rglob("*") if p.is_file()})
    total, other, files = Counter(), 0, 0
    largest = (Decimal(0), "")
    for name in names:
        a, b = (root / name for root in (args.first, args.second))
        report = compare_file(a if a.is_file() else None, b if b.is_file() else None)
        if not report.units and not report.other:
            continue
        files += 1
        print(f"{name}:")
        if report.units:
            print(f"  {describe(report.units, report.largest)}")
        for line in report.other[:SHOWN]:
            print(f"  {line}")
        if len(report.other) > SHOWN:
            print(f"  ... {len(report.other) - SHOWN} more non-numeric differences")
        total.update(report.units)
        largest = max(largest, (report.largest[0], f"{name} {report.largest[1]}"),
                      key=lambda d: d[0])
        other += len(report.other)
    numeric = describe(total, largest) if total else "no numeric field differs"
    print(f"{len(names)} files, {files} differ: {numeric}; "
          f"{other} non-numeric differences")
    return 0 if other == 0 and not total else 1


if __name__ == "__main__":
    sys.exit(main())
