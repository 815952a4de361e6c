"""`cli.render_json` against the stdlib encoder it replaces.

Every JSON report is written by `render_json`; `json.dumps(value, indent=2,
ensure_ascii=False)` is the oracle it must equal byte for byte.  The cases
are the reports of the golden corpus and every catalog name, seeded random
nested values, and strings that need escaping.
"""

import enum
import io
import json
import random
from collections import OrderedDict

from test_golden import _cases, _documents
from z2index import cli
from z2index.catalog import ENTRIES
from z2index.cli import main, render_json


def stdlib(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


def outcome(render, value):
    """The text `render` writes for `value`, or the name of its TypeError."""
    try:
        return render(value)
    except TypeError:
        return "TypeError"


def _catalog_names():
    names = {e.cover_manifold for e in ENTRIES}
    names |= {e.quotient_manifold for e in ENTRIES}
    return sorted(names) + ["no such manifold"]


def _json_argvs(tmp_path):
    """argv of every golden `--format json` case and of every catalog name,
    with the `analyze` documents written under `tmp_path`."""
    documents = {name: doc for name, doc, _ in _documents()}
    argvs = []
    for name, argv in _cases():
        if "json" not in argv:
            continue
        if argv[0] == "analyze":
            path = tmp_path / f"{name.split()[1]}.json"
            path.write_text(json.dumps(documents[name.split()[1]]),
                            encoding="utf-8")
            argv = [str(path) if a == "{path}" else a for a in argv]
        argvs.append(argv)
    argvs += [["catalog", name, "--format", "json"]
              for name in _catalog_names()]
    return argvs


def test_every_corpus_report_equals_stdlib(tmp_path):
    reports = []

    def spy(value, *pad):
        if not pad:  # the call for the whole report, not a nested value
            reports.append(value)
        return render_json(value, *pad)

    argvs = _json_argvs(tmp_path)
    assert {argv[0] for argv in argvs} == {"lens", "analyze", "catalog"}
    cli.render_json = spy
    try:
        for argv in argvs:
            out = io.StringIO()
            assert main(argv, out=out) == 0, argv
            assert out.getvalue() == stdlib(reports[-1]) + "\n", argv
    finally:
        cli.render_json = render_json
    assert len(reports) == len(argvs)


def _random_string(rng):
    pool = ('az"\\/\b\f\n\r\t\x00\x01\x1f\x7f\x80 \u00e9\u2202\u4e2d'
            '\u2028\u2029\ud800\udfff\U0001f600')
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    return rng.choice([
        lambda: rng.randint(-10, 10),
        lambda: rng.randint(-2 ** 80, 2 ** 80),
        lambda: 2 ** 64 + rng.randint(0, 2 ** 64),
        lambda: rng.choice([0.5, -0.0, 1e300, 1e-7, float("inf"),
                            float("-inf"), float("nan"),
                            rng.uniform(-1e6, 1e6)]),
        lambda: _random_string(rng),
        lambda: None,
        lambda: rng.choice([True, False]),
    ])()


def _random_value(rng, depth=0):
    kind = rng.randrange(6 if depth < 4 else 2)
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # integers, sometimes with a bool among them
        items = [rng.randint(-2 ** 70, 2 ** 70)
                 for _ in range(rng.randint(0, 6))]
        if items and rng.random() < 0.3:
            items[rng.randrange(len(items))] = rng.choice([True, False])
        return items if rng.random() < 0.7 else tuple(items)
    size = rng.randint(0, 4)
    if kind == 2:
        return [_random_value(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return tuple(_random_value(rng, depth + 1) for _ in range(size))
    return {_random_string(rng): _random_value(rng, depth + 1)
            for _ in range(size)}


def test_random_nested_values_equal_stdlib():
    rng = random.Random(20261018)
    values = [_random_value(rng) for _ in range(3000)]
    assert sum(isinstance(v, (dict, list, tuple)) for v in values) > 1000
    for value in values:
        assert render_json(value) == stdlib(value), value


def test_strings_equal_stdlib():
    rng = random.Random(7)
    strings = ["", "plain", "non-ASCII \u00e9 \u2202 \u4e2d \U0001f600",
               'quote " and \\', "".join(map(chr, range(0x20))) + "\x7f",
               "line separators \u2028 \u2029", "lone \ud800 surrogate",
               "\udfff"]
    strings += [_random_string(rng) for _ in range(500)]
    for s in strings:
        for value in (s, [s], {s: s}, {"k": [s, 1, s]}):
            assert render_json(value) == stdlib(value), value


class Color(enum.IntEnum):
    RED = 1


class Name(str):
    pass


def test_fallback_scalars_and_container_subclasses_equal_stdlib():
    values = [1.5, -0.0, float("nan"), float("inf"), 10 ** 20 + 0.5,
              [1, True, 2], [False], [1, 2.0], [1, None],
              Color.RED, [Color.RED, 2], {"c": Color.RED},
              Name("a\n"), [Name("\u00e9")], {Name("k"): Name("v")},
              OrderedDict([("b", [1]), ("a", {})]), {"e": [[], {}, ()]}]
    for value in values:
        assert render_json(value) == stdlib(value), value


# Keys and values the reports never hold, with what json.dumps does and
# what render_json does: write the same text ("match") or raise TypeError.
# render_json writes string keys only, where json.dumps also turns int,
# float, bool and None keys into strings.
RECORDED = [
    ("str subclass key", {Name("k"): 1}, "text", "match"),
    ("int key", {1: "a"}, "text", "TypeError"),
    ("float key", {1.5: 0}, "text", "TypeError"),
    ("bool key", {True: 0}, "text", "TypeError"),
    ("None key", {None: 0}, "text", "TypeError"),
    ("tuple key", {(1, 2): 0}, "TypeError", "TypeError"),
    ("set value", {"a": {1, 2}}, "TypeError", "TypeError"),
    ("object value", [object()], "TypeError", "TypeError"),
    ("bytes value", b"x", "TypeError", "TypeError"),
]


def test_unusual_keys_and_values_are_recorded():
    for name, value, stdlib_does, render_does in RECORDED:
        theirs, ours = outcome(stdlib, value), outcome(render_json, value)
        assert (theirs == "TypeError") == (stdlib_does == "TypeError"), name
        assert ours == (theirs if render_does == "match" else "TypeError"), name
