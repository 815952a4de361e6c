"""Seeded document generators, one per workload.

Each generator yields `Doc` values in a fixed order for a given seed. The
program under test only ever sees `Doc.argv` and, for `analyze`, `Doc.text`;
`Doc.meta` is what the oracles in `oracle.py` need and never reaches it.

No two documents of one stream share a linking matrix: `z2index` memoizes
`smith_normal_form` in a process-wide `lru_cache(maxsize=512)`, so a repeated
matrix would time a cache hit instead of the elimination.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

# A placeholder in `Doc.argv` that the runner replaces with the path of the
# file it wrote `Doc.text` to.
DOC_PATH = "{doc}"
ANALYZE_ARGV = ("analyze", DOC_PATH, "--format", "json")
# A document still running after this many seconds fails, so that one
# coefficient blow-up cannot stall the run.
DEADLINE_S = 20.0

LENS_MAX_P = 160
EVEN_SIZES = (8, 9, 10)
EVEN_DIAGONAL = range(-8, 9, 2)
DENSE_SIZES = range(20, 27)
DENSE_ENTRY = 9
SUMS_TARGET_N = range(50, 151, 10)
SUMS_PART_P = (3, 64)
SUMS_EVEN_PARTS = (1, 2, 3)
# An odd part that would take n past its target by more than this is drawn
# again, so that the largest documents, which set the tail, vary little in
# size from seed to seed.
SUMS_SLACK = 4


@dataclass(frozen=True)
class Doc:
    index: int
    argv: tuple[str, ...]
    text: str | None  # the analyze input document, or None for `lens`
    n: int            # link components, the size of the linking matrix
    key: tuple        # identifies the linking matrix
    meta: object      # oracle data


def chain(p: int, q: int) -> tuple[int, ...]:
    """Negative continued fraction p/q = a_1 - 1/(a_2 - ...), each a_i >= 2.

    The lens chain presentation has linking matrix diag(-a_i) with 1 on the
    first off-diagonals.
    """
    coeffs = []
    while q:
        a = -(-p // q)
        coeffs.append(a)
        p, q = q, a * q - p
    return tuple(coeffs)


def lens_chains(seed: int):
    """Every coprime pair 0 < q < p <= LENS_MAX_P once, in seeded order."""
    rng = random.Random(f"lens_chains:{seed}")
    pairs = [(p, q) for p in range(2, LENS_MAX_P + 1)
             for q in range(1, p) if gcd(p, q) == 1]
    rng.shuffle(pairs)
    for i, (p, q) in enumerate(pairs):
        c = chain(p, q)
        yield Doc(i, ("lens", str(p), str(q), "--format", "json"), None,
                  len(c), c, p)


def _unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A product of 2n elementary column operations with coefficient +-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in p:
            row[j] += c * row[i]
    return p


def even_many_classes(seed: int):
    """P^T D P with D diagonal and even, P unimodular, n cycling 8, 9, 10.

    Every entry is even, so the mod-2 kernel is everything: k = n.
    """
    rng = random.Random(f"even_many_classes:{seed}")
    seen = set()
    i = 0
    while True:
        n = EVEN_SIZES[i % len(EVEN_SIZES)]
        d = [rng.choice(EVEN_DIAGONAL) for _ in range(n)]
        p = _unimodular(n, rng)
        b = tuple(
            tuple(sum(p[a][r] * d[a] * p[a][c] for a in range(n))
                  for c in range(n))
            for r in range(n)
        )
        if b in seen:
            continue
        seen.add(b)
        yield Doc(i, ANALYZE_ARGV, json.dumps({"matrix": b}), n, b,
                  tuple(d))
        i += 1


def dense_snf(seed: int):
    """Dense random symmetric matrices, n cycling over DENSE_SIZES.

    Beyond n = 26 single documents take from ten seconds to minutes at the
    time this benchmark was written, so they would fail the per-document
    deadline; n = 24..26 already gives entries of 10^5 bits in U and V.
    """
    rng = random.Random(f"dense_snf:{seed}")
    seen = set()
    i = 0
    while True:
        n = DENSE_SIZES[i % len(DENSE_SIZES)]
        rows = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = rng.randint(-DENSE_ENTRY, DENSE_ENTRY)
        b = tuple(tuple(r) for r in rows)
        if b in seen:
            continue
        seen.add(b)
        yield Doc(i, ANALYZE_ARGV, json.dumps({"matrix": b}), n, b, b)
        i += 1


def _lens_part(rng: random.Random, even: bool) -> tuple[int, int]:
    lo, hi = SUMS_PART_P
    while True:
        p = rng.randint(lo, hi)
        if (p % 2 == 0) != even:
            continue
        q = rng.randint(1, p - 1)
        if gcd(p, q) == 1:
            return p, q


def _nest(parts: list, rng: random.Random) -> list:
    """Group a flat list of lens documents into nested connected sums,
    keeping their order."""
    if len(parts) <= 2:
        return parts
    out = []
    i = 0
    while i < len(parts):
        size = rng.randint(1, max(1, len(parts) // 2))
        group = parts[i:i + size]
        i += size
        if size > 1 and rng.random() < 0.7:
            out.append({"preset": "connected_sum",
                        "parts": _nest(group, rng)})
        else:
            out.extend(group)
    return out


def connected_sums(seed: int):
    """Nested connected sums of lens chains, a few even parts among odd ones.

    Block-diagonal and sparse. The target n and k, the number of even
    parts, cycle through SUMS_TARGET_N and SUMS_EVEN_PARTS, so that every
    run sees the same mix of sizes.
    """
    rng = random.Random(f"connected_sums:{seed}")
    seen = set()
    i = 0
    while True:
        target = SUMS_TARGET_N[i % len(SUMS_TARGET_N)]
        evens = SUMS_EVEN_PARTS[i % len(SUMS_EVEN_PARTS)]
        parts = [_lens_part(rng, even=True) for _ in range(evens)]
        n = sum(len(chain(p, q)) for p, q in parts)
        while n < target:
            p, q = _lens_part(rng, even=False)
            if n + len(chain(p, q)) > target + SUMS_SLACK:
                continue
            parts.append((p, q))
            n += len(chain(p, q))
        rng.shuffle(parts)
        key = tuple(chain(p, q) for p, q in parts)
        if key in seen:
            continue
        seen.add(key)
        leaves = [{"preset": "lens", "p": p, "q": q} for p, q in parts]
        doc = {"preset": "connected_sum", "parts": _nest(leaves, rng)}
        meta = tuple((p, len(c)) for (p, _), c in zip(parts, key))
        yield Doc(i, ANALYZE_ARGV, json.dumps(doc), n, key, meta)
        i += 1


_GENERATORS = {
    "lens_chains": lens_chains,
    "even_many_classes": even_many_classes,
    "dense_snf": dense_snf,
    "connected_sums": connected_sums,
}
WORKLOADS = tuple(_GENERATORS)


def documents(workload: str, seed: int):
    """The document stream of a workload; finite only for lens_chains."""
    return _GENERATORS[workload](seed)
