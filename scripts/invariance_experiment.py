#!/usr/bin/env python3
"""Empirical check that the index spectrum is a manifold invariant.

Draws random symmetric presentations, applies random unimodular
congruences (handle slides) and +-1 stabilizations (blow-ups), and
verifies that the multiset of indices over all double-cover classes never
changes.  Prints the distribution of spectra seen, and exits 1 if any
variant's spectrum differs from its presentation's.  A stabilization adds
a new 1x1 block to the linking matrix.

    PYTHONPATH=src python scripts/invariance_experiment.py --trials 300 --size 6
"""

import argparse
import collections
import random
import sys

from z2index.borsuk import classify_all
from z2index.exactlinalg import IntMatrix, congruence_transform
from z2index.selftest import random_symmetric_matrix, random_unimodular_matrix


def spectrum(b):
    return tuple(sorted(r.index for r in classify_all(b, cap=1 << b.rows).reports))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    seen = collections.Counter()
    mismatches = 0
    for _ in range(args.trials):
        n = rng.randint(1, args.size)
        b = random_symmetric_matrix(rng, n, 6)
        base = spectrum(b)
        seen[base] += 1
        p = random_unimodular_matrix(rng, n)
        eps = rng.choice((1, -1))
        stabilized = IntMatrix.from_rows(
            [list(row) + [0] for row in b.entries] + [[0] * n + [eps]]
        )
        for variant in (congruence_transform(b, p), stabilized):
            if spectrum(variant) != base:
                mismatches += 1
                print(f"MISMATCH for b={b.to_lists()}")
    print(f"{args.trials} presentations, {mismatches} mismatches")
    print("index spectra observed:")
    for spec, count in sorted(seen.items(), key=lambda kv: -kv[1]):
        print(f"  {list(spec)!s:<16} x{count}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
