#!/usr/bin/env python3
"""Sweep lens spaces and tabulate the Z2-index of their double covers.

For each even p up to --pmax the classifier is run on chain presentations
for several q and compared against the family rule (index 3 iff
p = 2 mod 4).  Odd p are checked to have no connected double cover.
Exits 1 if any row is a MISMATCH.

    PYTHONPATH=src python scripts/lens_sweep.py --pmax 60 --all-q
"""

import argparse
import sys
from math import gcd

from z2index.borsuk import classify_all
from z2index.catalog import lens_rule_index
from z2index.surgery import lens_presentation


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=40)
    parser.add_argument("--all-q", action="store_true",
                        help="sweep every coprime q, not just the smallest")
    args = parser.parse_args()

    print(f"{'p':>4} {'q':>4} {'chain':>6} {'index':>6} {'rule':>5}")
    mismatches = 0
    for p in range(2, args.pmax + 1):
        rule = lens_rule_index(p)
        qs = [q for q in range(1, p) if gcd(p, q) == 1]
        if not args.all_q:
            qs = qs[:1]
        for q in qs:
            pres = lens_presentation(p, q)
            reports = classify_all(pres.matrix).reports
            index = reports[0].index if reports else "-"
            expected = rule if rule is not None else "-"
            marker = "" if index == expected else "  MISMATCH"
            mismatches += bool(marker)
            print(f"{p:>4} {q:>4} {pres.matrix.rows:>6} "
                  f"{index!s:>6} {expected!s:>5}{marker}")
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
