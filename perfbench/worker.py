"""Feed one workload's documents to z2index in this interpreter and time them.

`run.py` starts this script as a fresh process for every measured pass, so
the `smith_normal_form` cache starts empty and the peak RSS is the pass's
own. The result is one JSON object on stdout.

Untraced, each document is one `z2index.cli.main([...])` call, and the
host's speed is sampled between documents (`hostspeed.py`) so that each
record also carries its time in reference milliseconds. Traced, the
same work is done one public function at a time, each call wrapped in a
span named after its module, with `smith_normal_form` called before the
per-class stages so that the elimination's time lands in `exactlinalg`.
Each document is also run through the same stages with spans that record
nothing, in alternating order and in the same interpreter, so that the
difference between the two is the cost of the spans alone. Spans sit in the
benchmark only; `src/z2index` is not instrumented.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import signal
import sys
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
from z2index.borsuk import ClassificationResult, classify_class  # noqa: E402
from z2index.catalog import lens_rule_index  # noqa: E402
from z2index.cli import build_parser, build_report, main  # noqa: E402
from z2index.exactlinalg import (  # noqa: E402
    GF2Matrix,
    gf2_kernel_basis,
    smith_normal_form,
)
from z2index.homology import (  # noqa: E402
    cover_classes,
    first_homology,
    torsion_linking,
)
from z2index.surgery import (  # noqa: E402
    lens_presentation,
    linking_matrix,
    parse_presentation,
)

HALF = Fraction(1, 2)
_NO_SPAN = nullcontext()
# Every functools cache in z2index, such as the `lru_cache` on the Smith
# normal form: a traced run empties them before each pass over a document,
# so that its second pass repeats the work instead of hitting a memo.
CACHES = [obj.cache_clear for name, module in list(sys.modules.items())
          if name.startswith("z2index")
          for obj in vars(module).values() if hasattr(obj, "cache_clear")]


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM. Not an Exception, so `main`'s handlers pass it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


class Span:
    """Appends (doc, name, start, end) to `spans` around a block."""

    __slots__ = ("spans", "doc", "name", "start")

    def __init__(self, spans: list, doc: int, name: str):
        self.spans, self.doc, self.name = spans, doc, name

    def __enter__(self):
        self.start = perf_counter()

    def __exit__(self, *exc):
        self.spans.append((self.doc, self.name, self.start, perf_counter()))


def _no_span(name):
    return _NO_SPAN


def run_main(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out


def run_staged(argv, span):
    """`main(argv)` one stage at a time, for `lens` and `analyze` with
    `--format json` and the default cap; `span(name)` times one stage."""
    with span("cli.parser"):
        args = build_parser().parse_args(argv)
    if args.command == "lens":
        with span("surgery.lens"):
            pres = lens_presentation(args.p, args.q)
    else:
        with span("cli.read"):
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        with span("surgery.parse"):
            pres = parse_presentation(text)
    with span("surgery.matrix"):
        b = linking_matrix(pres)
    with span("exactlinalg.snf"):
        dec = smith_normal_form(b)
    with span("exactlinalg.gf2_kernel"):
        basis = gf2_kernel_basis(GF2Matrix.from_int_matrix(b))
    with span("homology.cover_classes"):
        classes, truncated = cover_classes(b, args.cap)
    if truncated:
        return "cap exceeded", None
    with span("borsuk.verdict"):
        reports = [classify_class(b, x, crosscheck=False) for x in classes]
    with span("homology.linking"):
        links = [torsion_linking(b, r.bockstein_rep, r.bockstein_rep)
                 for r in reports]
    with span("homology.first_homology"):
        first_homology(b)
    with span("cli.report"):
        result = ClassificationResult(
            reports=tuple(replace(r, self_linking=s)
                          for r, s in zip(reports, links)),
            truncated=False,
            note=None if reports else "no connected double cover",
        )
        doc = build_report(pres, result, b, warnings=[])
        if args.command == "lens":
            rule = lens_rule_index(args.p)
            doc["lens"] = {
                "p": args.p, "q": args.q, "rule_index": rule,
                "agrees": [r.index for r in reports] == (
                    [] if rule is None else [rule]),
            }
    with span("cli.render"):
        rendered = json.dumps(doc, indent=2, ensure_ascii=False)
    if any((s.value == HALF) != (r.index == 3) for r, s in zip(reports, links)):
        return "cross-check disagrees", None
    return 0, (doc, rendered, dec, len(basis))


def _max_bits(dec) -> int:
    return max((abs(e).bit_length()
                for m in (dec.u, dec.s, dec.v) for row in m.entries
                for e in row), default=0)


def _classes(doc) -> list:
    return [["".join(map(str, c["class"])), c["index"]] for c in doc["classes"]]


def _digest(matrix) -> str:
    """Identifies the linking matrix the program reported."""
    return hashlib.sha256(json.dumps(matrix).encode()).hexdigest()[:32]


def _timed(run, argv):
    """`run(argv)` under the per-document deadline: (code, out, t0, t1)."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, corpus.DEADLINE_S)
        try:
            code, out = run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        code, out = "deadline", None
    except Exception as exc:  # a crash fails this document, not the run
        code, out = f"{type(exc).__name__}: {exc}", None
    return code, out, t0, perf_counter()


def _status(code) -> str:
    if code == 0:
        return "ok"
    return f"exit {code}" if isinstance(code, int) else code


def _traced_and_plain(doc, argv, spans):
    """Both staged passes over one document, in alternating order, with the
    caches emptied before each: (traced result, untraced result)."""
    traced = lambda a: run_staged(a, lambda name: Span(spans, doc.index, name))
    plain = lambda a: run_staged(a, _no_span)
    order = (traced, plain) if doc.index % 2 == 0 else (plain, traced)
    timed = {}
    for run in order:
        for clear in CACHES:
            clear()
        timed[run] = _timed(run, argv)
    return timed[traced], timed[plain]


def measure(docs, *, traced: bool, seconds: float, max_docs: int,
            doc_path: Path) -> dict:
    """Closed loop, one client: the next document starts when the last one
    returns, until `seconds` have passed or `max_docs` are done."""
    records, spans = [], []
    # (records done, kernel seconds), sampled between untraced documents
    speed = [(0, hostspeed.sample())]
    start = last_sample = perf_counter()
    for doc in docs:
        if len(records) >= max_docs or perf_counter() - start >= seconds:
            break
        argv = list(doc.argv)
        if doc.text is not None:
            doc_path.write_text(doc.text, encoding="utf-8")
            argv = [str(doc_path) if a == corpus.DOC_PATH else a for a in argv]
        if traced:
            (code, out, t0, t1), plain = _traced_and_plain(doc, argv, spans)
        else:
            code, out, t0, t1 = _timed(run_main, argv)
        record = {"index": doc.index, "ms": (t1 - t0) * 1e3, "n": doc.n,
                  "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "status": _status(code)}
        if code == 0 and traced:
            report, rendered, dec, k = out
            spans.append((doc.index, "doc", t0, t1))
            record.update(k=k, snf_max_bits=_max_bits(dec),
                          render_bytes=len(rendered.encode()),
                          plain_ms=(plain[3] - plain[2]) * 1e3)
            if plain[0] != 0:
                record["status"] = f"untraced pass: {_status(plain[0])}"
            elif plain[1][0] != report:
                record["status"] = "untraced pass disagrees"
        elif code == 0:
            report = json.loads(out.getvalue())
            record.update(k=report["k"])
        if code == 0:
            record.update(classes=_classes(report),
                          matrix=_digest(report["matrix"]))
        records.append(record)
        if not traced and perf_counter() - last_sample >= hostspeed.EVERY_S:
            speed.append((len(records), hostspeed.sample()))
            last_sample = perf_counter()
    if speed[-1][0] < len(records):
        speed.append((len(records), hostspeed.sample()))
    factors = hostspeed.factors([t for _, t in speed])
    for (lo, _), (hi, _), factor in zip(speed, speed[1:], factors):
        for record in records[lo:hi]:
            record["ref_ms"] = record["ms"] * factor
    return {"records": records, "spans": spans}


def main_cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--max-docs", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    doc_path = args.scratch / f"doc-{os.getpid()}.json"
    try:
        result = measure(corpus.documents(args.workload, args.seed),
                         traced=args.traced, seconds=args.seconds,
                         max_docs=args.max_docs, doc_path=doc_path)
    finally:
        doc_path.unlink(missing_ok=True)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
