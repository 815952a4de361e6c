"""Command-line front end.

Subcommands: analyze (classify a presentation file), lens (classify a
lens space and compare with the family rule), catalog (look up the static
table), selftest (run the verification suites).

Exit codes: 0 success, 2 input validation (including input nested too
deeply to parse, an integer too long to convert to text and a negative
--cap), 3 cap exceeded without --allow-truncate, 4 internal invariant
violation, 141 (128 + SIGPIPE, what a shell reports for a program killed
by SIGPIPE) when the reader of stdout closed the pipe before the output
was written.

JSON output comes from `render_json`, z2index's own indent-2 writer; its
text is byte-identical to `json.dumps(doc, indent=2, ensure_ascii=False)`.

`main` builds its argument parser on its first call and reuses it for
every later call in the process.  The parser holds nothing derived from
input; `build_parser()` returns a new parser on every call.

Importing this module loads only what analyze and lens run: `borsuk`,
`exactlinalg`, `homology` and `surgery`.  The catalog and selftest
commands import `catalog` and `selftest` on their first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from json.encoder import encode_basestring as _quote

from . import __version__
from .borsuk import (
    _HALF,
    _ZERO,
    Analysis,
    ClassificationResult,
    IndexReport,
    InvariantViolation,
    classify_all,
    lens_rule_index,
)
from .exactlinalg import IntMatrix
from .surgery import (
    PresentationError,
    SurgeryPresentation,
    check_printable,
    lens_presentation,
    parse_presentation,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4
EXIT_PIPE = 141


class CapExceededError(RuntimeError):
    """Class enumeration hit the cap and truncation was not allowed."""


# the Borsuk-Ulam dimensions of each index, and the text of the two
# self-linking values `Analysis` gives; `str` writes any other value
_BU_HOLDS_FOR = {1: (1,), 2: (1, 2), 3: (1, 2, 3)}
_ZERO_TEXT, _HALF_TEXT = str(_ZERO), str(_HALF)


class ClassEntry(dict):
    """The entry of one class in a report, as `_class_doc` builds it: eight
    keys in that order, `class` the same tuple as `lift`, tuples of exact
    `int`s and hashable values, which `_class_texts` writes."""

    __slots__ = ()


class MatrixRows(list):
    """The "matrix" of a report: the rows of `matrix` as lists, for
    `json.dumps`, `==` and `str`, and `matrix`, whose entries are exact
    `int`s, from whose sparse rows `render_json` writes it."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        super().__init__(matrix.to_lists())
        self.matrix = matrix


def _class_doc(report: IndexReport) -> ClassEntry:
    # the report's own tuples and shared constants, not copies: JSON writes
    # a tuple as a list, and each copy is one more object the cyclic garbage
    # collector tracks while the report lives
    link = report.self_linking
    return ClassEntry({
        "class": report.lift,
        "lift": report.lift,
        "bockstein_rep": report.bockstein_rep,
        "beta_vanishes": report.beta_vanishes,
        "triple_cup": report.triple_cup,
        "self_linking": (
            None if link is None else _HALF_TEXT if link is _HALF
            else _ZERO_TEXT if link is _ZERO else str(link)
        ),
        "index": report.index,
        "bu_holds_for": _BU_HOLDS_FOR[report.index],
    })


def build_report(pres: SurgeryPresentation, result: ClassificationResult,
                 b: IntMatrix, warnings: list[str]) -> dict:
    # a result assembled by hand carries no analysis of b
    analysis = result.analysis
    if analysis is None:
        analysis = Analysis.of(b)
    homology = analysis.homology
    check_printable(max(homology.invariant_factors, default=0),
                    "an invariant factor of H_1")
    k = len(analysis.basis)
    return {
        "schema": 1,
        "version": __version__,
        "label": pres.label,
        "matrix": MatrixRows(b),
        "homology": {
            "invariant_factors": list(homology.invariant_factors),
            "free_rank": homology.free_rank,
        },
        "k": k,
        "class_count": (2 ** k - 1) if k else 0,
        "truncated": result.truncated,
        "classes": [_class_doc(r) for r in result.reports],
        "note": result.note,
        "warnings": list(warnings),
    }


def render_text(doc: dict, out) -> None:
    label = doc["label"] or "(unlabeled)"
    print(f"presentation: {label}", file=out)
    print(f"linking matrix: {doc['matrix']}", file=out)
    factors = doc["homology"]["invariant_factors"]
    free = doc["homology"]["free_rank"]
    parts = [f"Z/{f}" for f in factors] + ["Z"] * free
    print(f"H_1 = {' + '.join(parts) if parts else '0'}", file=out)
    print(f"dim H^1(N; Z_2) = {doc['k']}  "
          f"({doc['class_count']} connected double cover(s))", file=out)
    if doc["truncated"]:
        print("  [truncated: only a kernel basis is classified]", file=out)
    for cdoc in doc["classes"]:
        print(f"class {list(cdoc['class'])}:", file=out)
        print(f"  lift X = {list(cdoc['lift'])}", file=out)
        print(f"  Y = (1/2) B X = {list(cdoc['bockstein_rep'])}", file=out)
        print(f"  beta(x) vanishes: {cdoc['beta_vanishes']}", file=out)
        print(f"  (1/2) X^T B X mod 2 = {cdoc['triple_cup']}", file=out)
        if cdoc["self_linking"] is not None:
            print(f"  self-linking = {cdoc['self_linking']}", file=out)
        print(f"  Z2-index = {cdoc['index']}", file=out)
        print(f"  Borsuk-Ulam property holds for (M, tau, R^n) for "
              f"n <= {cdoc['index']}", file=out)
    if doc["note"]:
        print(f"note: {doc['note']}", file=out)
    for w in doc["warnings"]:
        print(f"warning: {w}", file=out)


def render_json(value, pad: str = "\n") -> str:
    """`value` as the text of `json.dumps(value, indent=2,
    ensure_ascii=False)`, byte for byte.

    With `indent` set, the stdlib encoder takes its pure-Python path and
    makes one generator step and one small string per item.  Here every
    container is one `join`, a `MatrixRows` is written from the sparse
    rows of its matrix, and the `ClassEntry`s of a list, one per class of
    a report, by `_class_texts`.  Keys must be strings: any other key
    raises TypeError, where `json.dumps` would write an `int`, `float`,
    `bool` or `None` key as a string.  `pad` is the newline and
    indentation of the line that holds `value`.
    """
    t = type(value)
    if t is str:
        return _quote(value)
    if t is int:
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value[0]) is ClassEntry:
            items = _class_texts(value, inner)
        elif t is not MatrixRows or not value.matrix.cols:
            items = [render_json(v, inner) for v in value]
        else:
            # each row cut from the text of a zero row, its nonzeros put in
            cell, width = "," + inner + "  ", len(inner) + 4
            zeros, items = (cell + "0") * value.matrix.cols, []
            for row in value.matrix.sparse_rows:
                text, at = [], 0
                for j in sorted(row):
                    text += zeros[at:j * width], cell, repr(row[j])
                    at = j * width + width
                text.append(zeros[at:])
                items.append(f"[{''.join(text)[1:]}{inner}]")
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(value, dict):
        if t is ClassEntry:
            return _class_texts((value,), pad)[0]
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {render_json(v, inner)}"
                 for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    # floats and subclasses of str and int; anything else raises TypeError
    return json.dumps(value, ensure_ascii=False)


def _class_texts(entries, pad: str) -> list[str]:
    """The text of each of entries on the line with `pad`, that of a
    `ClassEntry` by templates, with no type test: per pair of list
    lengths, one of a `%d` per entry of `lift`, which is `class` too, and
    one of the head, with `bockstein_rep`; and, by the generic writer once
    per distinct verdict, of which a report has few, the text of the five
    verdict fields.  All are made for this call only."""
    inner, heads, tails, texts = pad + "  ", {}, {}, []
    for entry in entries:
        if type(entry) is not ClassEntry:
            texts.append(render_json(entry, pad))
            continue
        _, lift, y, *verdict = entry.values()
        if (head := heads.get(shape := (len(lift), len(y)))) is None:
            lift_list, y_list = (
                f"[{inner}  " + f",{inner}  ".join(["%d"] * m) + f"{inner}]"
                if m else "[]" for m in shape)
            head = heads[shape] = lift_list, (
                f'{{{inner}"class": %s,{inner}"lift": %s,'
                f'{inner}"bockstein_rep": {y_list}')
        if (tail := tails.get(verdict := tuple(verdict))) is None:
            tail = tails[verdict] = "".join(
                f",{inner}{_quote(key)}: {render_json(value, inner)}"
                for key, value in list(entry.items())[3:]) + pad + "}"
        lift_text = head[0] % lift
        texts.append(head[1] % (lift_text, lift_text, *y) + tail)
    return texts


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(render_json(doc), file=out)
    else:
        render_text(doc, out)


def _classify_presentation(pres: SurgeryPresentation, args,
                           warnings: list[str]) -> dict:
    b = pres.matrix
    result = classify_all(b, cap=args.cap, crosscheck=not args.no_crosscheck)
    if result.truncated and not args.allow_truncate:
        count = 2 ** len(result.analysis.basis) - 1
        noun = "cover class exceeds" if count == 1 else "cover classes exceed"
        raise CapExceededError(
            f"{count} {noun} the cap of {args.cap}; pass "
            "--allow-truncate to classify a basis only"
        )
    return build_report(pres, result, b, warnings)


def cmd_analyze(args, out) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    pres = parse_presentation(text)
    doc = _classify_presentation(pres, args, warnings=[])
    _emit(doc, args.format, out)
    return EXIT_OK


def cmd_lens(args, out) -> int:
    pres = lens_presentation(args.p, args.q)
    warnings = [
        "chain presentation convention: the label L(p,q) may realize "
        "L(p,q') for q' = +-q^(+-1) mod p; the index depends only on "
        "p mod 4"
    ]
    doc = _classify_presentation(pres, args, warnings=warnings)
    rule = lens_rule_index(args.p)
    computed = [c["index"] for c in doc["classes"]]
    doc["lens"] = {
        "p": args.p,
        "q": args.q,
        "rule_index": rule,
        "agrees": (computed == ([] if rule is None else [rule])),
    }
    _emit(doc, args.format, out)
    if args.format == "text":
        if rule is None:
            print(f"family rule: p={args.p} odd, no connected double cover; "
                  f"agrees: {doc['lens']['agrees']}", file=out)
        else:
            print(f"family rule: index {rule}; agrees: "
                  f"{doc['lens']['agrees']}", file=out)
    return EXIT_OK


def cmd_catalog(args, out) -> int:
    from .catalog import lookup

    entries = lookup(args.name)
    doc = {
        "schema": 1,
        "version": __version__,
        "query": args.name,
        "entries": [],
        "note": None if entries else "unknown manifold name",
    }
    for e in entries:
        edoc = dataclasses.asdict(e)
        pres = e.surgery_presentation
        edoc["surgery_presentation"] = (
            None if pres is None else pres.matrix.to_lists()
        )
        doc["entries"].append(edoc)
    if args.format == "json":
        print(render_json(doc), file=out)
    else:
        if not entries:
            print(f"no catalog entries for {args.name!r}", file=out)
        for e in entries:
            print(f"cover {e.cover_manifold} -> quotient "
                  f"{e.quotient_manifold}: Z2-index {e.index}", file=out)
            print(f"  {e.involution_note}", file=out)
            print(f"  source: {e.source}", file=out)
            if e.computable_by_surgery:
                print(f"  surgery matrix: "
                      f"{e.surgery_presentation.matrix.to_lists()}", file=out)
    return EXIT_OK


def cmd_selftest(args, out) -> int:
    from .selftest import run_all

    results = run_all(quick=args.quick)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}", file=out)
        print(f"{r.name}: {r.seconds:.3f} s", file=sys.stderr)
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} suites passed", file=out)
    return EXIT_OK if failed == 0 else 1


def class_count(text: str) -> int:
    """The --cap argument: a count of cover classes, 0 or more."""
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; `main` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="z2index",
        description="Classify the Borsuk-Ulam Z2-index of free involutions "
                    "on 3-manifolds given by surgery presentations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--cap", type=class_count, default=1024,
                       help="max number of cover classes to enumerate")
        p.add_argument("--allow-truncate", action="store_true",
                       help="past the cap, classify a kernel basis only")
        p.add_argument("--no-crosscheck", action="store_true",
                       help="skip the linking-form verification")

    p = sub.add_parser("analyze", help="classify a presentation file")
    p.add_argument("input", help="JSON presentation document")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lens", help="classify a lens space L(p, q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    add_common(p)
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("catalog", help="look up the static classification "
                                       "table")
    p.add_argument("name")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("--quick", action="store_true", help="fixtures only")
    p.set_defaults(func=cmd_selftest)

    return parser


# Built by `main` on its first call, not at import, which would add the
# build to every import of this module.  It holds only the fixed grammar,
# nothing derived from input, so it memoizes nothing across presentations.
_parser: argparse.ArgumentParser | None = None


def main(argv=None, out=None) -> int:
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        if out is sys.stdout:
            # the interpreter flushes stdout once more on exit; let that
            # write go nowhere instead of raising a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (PresentationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
