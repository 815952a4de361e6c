"""Verdict oracles that share no code with z2index.

Each check takes a `corpus.Doc` and the classes the program reported, as
(bits, index) pairs, and returns None when they agree, else a one-line
reason. None of them uses a Smith normal form: they use the lens family
rule, the diagonal closed form, ranks over Q and GF(2), and block
additivity of connected sums.
"""

from __future__ import annotations

from collections import Counter


def lens_rule(p: int) -> int | None:
    """Index of the double cover of L(p, q): none for odd p, 3 iff
    p = 2 mod 4, else 2."""
    if p % 2:
        return None
    return 3 if p % 4 == 2 else 2


def diagonal_spectrum(d) -> Counter:
    """Index multiset of diag(d), every entry even, over its 2^n - 1 classes.

    A class selects a subset of the entries; with s the sum of the selected
    nonzero ones the index is 3 iff s = 2 mod 4, else 2 iff one is
    selected, else 1.
    """
    n = len(d)
    spectrum = Counter()
    for mask in range(1, 2 ** n):
        selected = [d[i] for i in range(n) if mask >> i & 1 and d[i]]
        if sum(selected) % 4:
            spectrum[3] += 1
        else:
            spectrum[2 if selected else 1] += 1
    return spectrum


def rank_q(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    rank, prev = 0, 1
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, m):
            f = a[i][c]
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * p - f * a[rank][j]) // prev
            a[i][c] = 0
        prev = p
        rank += 1
    return rank


def rank_gf2(rows) -> int:
    """Rank over GF(2), rows packed into ints."""
    pivots = {}  # leading bit -> row
    for r in rows:
        w = sum(1 << j for j, e in enumerate(r) if e & 1)
        while w:
            top = w.bit_length() - 1
            if top not in pivots:
                pivots[top] = w
                break
            w ^= pivots[top]
    return len(pivots)


def _check_lens(doc, classes):
    rule = lens_rule(doc.meta)
    expected = [] if rule is None else [rule]
    got = [index for _, index in classes]
    if got != expected:
        return f"L(p={doc.meta}) gave {got}, family rule {expected}"
    return None


def _check_even(doc, classes):
    expected = diagonal_spectrum(doc.meta)
    got = Counter(index for _, index in classes)
    if got != expected:
        return (f"index multiset {dict(sorted(got.items()))} != diagonal "
                f"closed form {dict(sorted(expected.items()))}")
    return None


def _check_dense(doc, classes):
    b = doc.meta
    n = len(b)
    k = n - rank_gf2(b)
    b1 = n - rank_q(b)
    if len({bits for bits, _ in classes}) != len(classes):
        return "a class is listed twice"
    if len(classes) != 2 ** k - 1:
        return f"{len(classes)} classes, 2^k - 1 = {2 ** k - 1} with k={k}"
    got = Counter(index for _, index in classes)
    if got[1] != 2 ** b1 - 1:
        return f"{got[1]} classes of index 1, 2^b1 - 1 = {2 ** b1 - 1}"
    if got[3] not in (0, 2 ** (k - 1)):
        return f"{got[3]} classes of index 3, not 0 or 2^(k-1)"
    for bits, index in classes:
        bx = [sum(e * x for e, x in zip(row, bits)) for row in b]
        if any(e & 1 for e in bx):
            return f"class {bits} is not in the mod-2 kernel"
        cup = sum(x * e for x, e in zip(bits, bx)) // 2 % 2
        if (index == 3) != (cup == 1):
            return f"class {bits}: index {index} but (1/2)X^T B X = {cup} mod 2"
    return None


def _check_sums(doc, classes):
    starts, n = [], 0
    for _, size in doc.meta:
        starts.append(n)
        n += size
    even = {i for i, (p, _) in enumerate(doc.meta) if p % 2 == 0}
    seen = set()
    for bits, index in classes:
        chosen = frozenset(
            i for i, (s, (_, size)) in enumerate(zip(starts, doc.meta))
            if any(bits[s:s + size])
        )
        if not chosen or not chosen <= even or chosen in seen:
            return f"class {bits} is not a new nonempty set of even parts"
        seen.add(chosen)
        threes = sum(1 for i in chosen if lens_rule(doc.meta[i][0]) == 3)
        expected = 3 if threes % 2 else 2
        if index != expected:
            return f"class {bits}: index {index}, block additivity {expected}"
    if len(seen) != 2 ** len(even) - 1:
        return f"{len(seen)} classes for {len(even)} even parts"
    return None


_CHECKS = {
    "lens_chains": _check_lens,
    "even_many_classes": _check_even,
    "dense_snf": _check_dense,
    "connected_sums": _check_sums,
}


def check(workload: str, doc, classes) -> str | None:
    """None if the reported classes agree with the oracle, else a reason."""
    return _CHECKS[workload](doc, classes)
