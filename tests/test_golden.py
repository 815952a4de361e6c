"""Golden output: `lens`, `analyze` and `catalog` print byte-identical
reports.

Each case is one CLI call; `golden_digests.json` holds the SHA-256 digest of
its stdout, in both `--format json` and text.  The corpus is every coprime
lens pair with p <= 40, the surgery-computable catalog matrices, seeded
random symmetric matrices (singular and all-even ones included), a few
presets and flags, and a `catalog` lookup of every alias and of one unknown
name.  Regenerate the digests, only after checking that a
change of output is intended, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from math import gcd
from pathlib import Path

import pytest

from z2index.catalog import _ALIASES, ENTRIES
from z2index.cli import main
from z2index.surgery import linking_matrix

DIGESTS = Path(__file__).with_name("golden_digests.json")
FORMATS = ("json", "text")


def _symmetric(rng, n, bound, *, even=False, zero_rows=0):
    rows = [[0] * n for _ in range(n)]
    for i in range(zero_rows, n):
        for j in range(i, n):
            e = rng.randint(-bound, bound)
            rows[i][j] = rows[j][i] = 2 * e if even else e
    return rows


def _documents():
    """(name, document, extra CLI flags) for every `analyze` case."""
    docs = []
    for i, entry in enumerate(ENTRIES):
        if entry.computable_by_surgery:
            docs.append((f"catalog-{i}", {
                "matrix": linking_matrix(entry.surgery_presentation).to_lists(),
                "label": entry.quotient_manifold,
            }, []))
    rng = random.Random(20261018)
    for i in range(24):
        docs.append((f"random-{i}", {
            "matrix": _symmetric(rng, rng.randint(1, 7), 9)}, []))
    for i in range(8):
        docs.append((f"even-{i}", {
            "matrix": _symmetric(rng, rng.randint(2, 6), 4, even=True)}, []))
    for i in range(8):
        n = rng.randint(2, 7)
        docs.append((f"singular-{i}", {
            "matrix": _symmetric(rng, n, 5, zero_rows=rng.randint(1, n - 1))},
            []))
    docs += [
        ("sum", {"preset": "connected_sum", "label": "sum", "parts": [
            {"preset": "lens", "p": 6, "q": 1},
            {"preset": "lens", "p": 8, "q": 3},
            {"matrix": [[0]]},
            {"preset": "s3"},
        ]}, []),
        ("no-crosscheck", {"matrix": [[2, 0, 1], [0, -4, 0], [1, 0, 0]]},
         ["--no-crosscheck"]),
        ("truncated", {"matrix": _symmetric(rng, 6, 3, even=True)},
         ["--cap", "10", "--allow-truncate"]),
    ]
    return docs


def _cases():
    """(case name, argv) with `{path}` standing for the document file."""
    cases = []
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) == 1:
                for fmt in FORMATS:
                    cases.append((f"lens {p} {q} {fmt}",
                                  ["lens", str(p), str(q), "--format", fmt]))
    for name, _, flags in _documents():
        for fmt in FORMATS:
            cases.append((f"analyze {name} {fmt}",
                          ["analyze", "{path}", "--format", fmt, *flags]))
    for name in [*_ALIASES, "klein bottle"]:
        for fmt in FORMATS:
            cases.append((f"catalog {name} {fmt}",
                          ["catalog", name, "--format", fmt]))
    return cases


def _run_all():
    """Digest of every case's stdout, keyed by case name."""
    documents = {name: doc for name, doc, _ in _documents()}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _cases():
            if argv[0] == "analyze":
                path = Path(tmp) / "doc.json"
                path.write_text(json.dumps(documents[name.split()[1]]),
                                encoding="utf-8")
                argv = [str(path) if a == "{path}" else a for a in argv]
            out = io.StringIO()
            code = main(argv, out=out)
            assert code == 0, (name, code)
            digests[name] = hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest()[:20]
    return digests


@pytest.fixture(scope="module")
def digests():
    return _run_all()


def test_corpus_matches_committed_cases(digests):
    assert sorted(digests) == sorted(
        json.loads(DIGESTS.read_text(encoding="utf-8")))


@pytest.mark.parametrize("command", ["lens", "analyze", "catalog"])
def test_output_is_byte_identical(digests, command):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = [name for name, digest in digests.items()
               if name.startswith(command) and golden.get(name) != digest]
    assert not changed, f"{len(changed)} changed, first: {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(_run_all(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
