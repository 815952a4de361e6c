"""How fast the host runs Python right now, measured by a fixed kernel.

On a shared VM the same code runs up to half again as slow for seconds to
minutes at a time. Process CPU time slows with it, so wall times of one
commit spread wider than any regression bound the benchmark may set. The
end-to-end timings are therefore reported in reference seconds: each wall
time is multiplied by `REFERENCE_S / t`, where `t` is the time this kernel
took on the same host just before and after it. The kernel belongs to the
benchmark and shares no code with z2index. A change to the program moves a
scaled time as much as it moves the wall time. A slowdown of the host slows
the kernel too, so it cancels, as far as it hits both alike. `REFERENCE_S`
is about the kernel's median time on the 2-vCPU x86-64 VM (Python 3.11.7)
the benchmark was written on, so a scaled time reads there as a typical
wall time. Runs print the wall-time figures too.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0013
# The worker samples the kernel whenever this much time has passed since
# the last sample, so about 1% of a run goes to sampling.
EVERY_S = 0.1
# A stretch of documents between two samples is scaled by the median of the
# samples this many places either side of it, so that one interrupted
# sample does not skew it.
WINDOW = 2


def kernel() -> int:
    """A fixed mix of what z2index does: integer elimination with growing
    entries, bit-vector XORs, fraction sums and JSON rendering."""
    n = 12
    rows = [[(7 * i + 13 * j) % 19 - 9 + 20 * (i == j) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c]
            rows[r] = [pivot[c] * a - f * b for a, b in zip(rows[r], pivot)]
    bits = [(0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFF for i in range(128)]
    for i in range(128):
        bits[i] ^= bits[(i * 5 + 3) % 128] >> 1
    half = sum((Fraction(b % 7, 2 + i % 5) for i, b in enumerate(bits[:48])),
               Fraction(0))
    doc = {"rows": [[str(e)[:12] for e in row] for row in rows],
           "bits": bits, "half": str(half)}
    return len(json.dumps(doc, indent=2))


def sample() -> float:
    """Seconds one kernel call takes on the host now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def factors(samples: list[float]) -> list[float]:
    """Scale factors for the stretches between consecutive samples."""
    out = []
    for j in range(len(samples) - 1):
        near = samples[max(0, j + 1 - WINDOW):j + 1 + WINDOW]
        out.append(REFERENCE_S / statistics.median(near))
    return out
