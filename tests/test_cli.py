import argparse
import ast
import copy
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import z2index
import z2index.borsuk as borsuk
import z2index.cli as cli
import z2index.exactlinalg as exactlinalg
from z2index.cli import main
from z2index.exactlinalg import (
    DimensionError,
    GF2Matrix,
    GF2Vector,
    IntMatrix,
    cokernel_structure,
    order_in_cokernel,
    solve_integral,
)
from z2index.homology import first_homology, torsion_linking


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_stolz_json(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-4]]})
        code, text = run(["analyze", path, "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert doc["homology"] == {"invariant_factors": [4], "free_rank": 0}
        assert len(doc["classes"]) == 1
        c = doc["classes"][0]
        assert c["index"] == 2
        assert c["bockstein_rep"] == [-2]
        assert c["self_linking"] == "0"
        assert c["bu_holds_for"] == [1, 2]

    def test_no_cover_note(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-3]]})
        code, text = run(["analyze", path, "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["classes"] == []
        assert doc["note"] == "no connected double cover"

    def test_asymmetric_exits_2(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[0, 1], [0, 0]]})
        code, _ = run(["analyze", path])
        assert code == 2

    def test_asymmetric_entry_is_named(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"matrix": [[1, 2], [3, 4]]})
        code, text = run(["analyze", path])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: matrix is not symmetric at (0,1)\n")

    def test_missing_file_exits_2(self):
        code, _ = run(["analyze", "/nonexistent/input.json"])
        assert code == 2

    def test_cap_exits_3(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [
            [2 if i == j else 0 for j in range(6)] for i in range(6)
        ]})
        code, _ = run(["analyze", path, "--cap", "10"])
        assert code == 3
        code, text = run(["analyze", path, "--cap", "10",
                          "--allow-truncate", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["truncated"] and len(doc["classes"]) == 6

    def test_text_mode_mentions_borsuk_ulam_range(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-2]], "label": "sphere"})
        code, text = run(["analyze", path])
        assert code == 0
        assert "Z2-index = 3" in text
        assert "n <= 3" in text
        assert "sphere" in text

    def test_no_crosscheck_nulls_self_linking(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[-2]]})
        code, text = run(["analyze", path, "--no-crosscheck",
                          "--format", "json"])
        assert code == 0
        assert json.loads(text)["classes"][0]["self_linking"] is None

    def test_deterministic_output(self, tmp_path):
        path = write_doc(tmp_path, {"preset": "connected_sum", "parts": [
            {"preset": "lens", "p": 6, "q": 1},
            {"matrix": [[0]]},
        ]})
        runs = [run(["analyze", path, "--format", "json"]) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


class TestLens:
    def test_index_three(self):
        code, text = run(["lens", "6", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert [c["index"] for c in doc["classes"]] == [3]
        assert doc["lens"] == {"p": 6, "q": 1, "rule_index": 3,
                               "agrees": True}

    def test_index_two(self):
        code, text = run(["lens", "8", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert [c["index"] for c in doc["classes"]] == [2]
        assert doc["lens"]["rule_index"] == 2 and doc["lens"]["agrees"]

    def test_odd_p_no_classes(self):
        code, text = run(["lens", "5", "2", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["classes"] == [] and doc["lens"]["rule_index"] is None
        assert doc["lens"]["agrees"]

    def test_convention_warning_present(self):
        code, text = run(["lens", "6", "1", "--format", "json"])
        assert code == 0
        assert any("convention" in w for w in json.loads(text)["warnings"])

    def test_invalid_pair_exits_2(self):
        code, _ = run(["lens", "4", "2"])
        assert code == 2


class TestCatalog:
    def test_s1xs2(self):
        code, text = run(["catalog", "S1xS2", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert len(doc["entries"]) == 4
        assert sorted(e["index"] for e in doc["entries"]) == [1, 1, 2, 2]

    def test_k3(self):
        code, text = run(["catalog", "K3", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        covers = [e for e in doc["entries"] if e["cover_manifold"] == "K^3"]
        assert len(covers) == 1 and covers[0]["index"] == 3

    def test_unknown(self):
        code, text = run(["catalog", "whatever", "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["entries"] == [] and doc["note"]


class TestSelftest:
    def test_quick_passes(self):
        code, text = run(["selftest", "--quick"])
        assert code == 0
        assert "FAIL" not in text
        assert text.strip().endswith("suites passed")

    def test_suite_wall_times_go_to_stderr(self, capsys):
        code, text = run(["selftest", "--quick"])
        assert code == 0
        names = [line.split()[1].rstrip(":")
                 for line in text.splitlines()[:-1]]
        assert names == ["sphere", "stolz", "s1xs2", "catalog"]
        # stdout keeps its PASS/FAIL lines and summary, nothing else
        assert all(line.startswith("PASS ")
                   for line in text.splitlines()[:-1])
        assert text.splitlines()[-1] == "4/4 suites passed"
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err] == names
        for line in err:
            seconds, unit = line.split(": ")[1].split(" ")
            assert unit == "s" and float(seconds) >= 0

    def test_injected_sign_bug_is_caught(self, monkeypatch):
        # flip the engine's triple cup of every basis class and the lens
        # sweep must fail
        from z2index.selftest import suite_lens_sweep

        original = borsuk.Analysis.cup_mask.func
        monkeypatch.setattr(borsuk.Analysis, "cup_mask", property(
            lambda self: original(self) ^ (1 << len(self.basis)) - 1))
        result = suite_lens_sweep(pmax=12)
        assert result.name == "lens_sweep" and not result.passed

    def test_injected_oracle_sign_bug_is_caught(self, monkeypatch):
        # flip the public triple_cup, the oracle the engine no longer
        # calls, and the lift independence suite must fail
        import z2index.selftest as selftest

        original = borsuk.triple_cup
        monkeypatch.setattr(selftest, "triple_cup",
                            lambda b, lift: 1 - original(b, lift))
        result = selftest.suite_lift_independence(trials=20)
        assert result.name == "lift_independence" and not result.passed


class TestErrorBoundary:
    def test_too_many_components_exits_2(self, capsys):
        # a chain of 99999 components is refused before its matrix is built
        code, _ = run(["lens", "100000", "99999"])
        assert code == 2
        assert "link components, the limit" in capsys.readouterr().err

    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        # json.dumps itself recurses, so the text is written out directly
        text = ('{"preset": "connected_sum", "parts": [' * 3000
                + '{"matrix": [[2]]}' + "]}" * 3000)
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        code, _ = run(["analyze", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "nested too deeply" in err

    def test_invariant_violation_exits_4(self, monkeypatch, capsys):
        import z2index.surgery as surgery

        monkeypatch.setattr(surgery, "negative_continued_fraction",
                            lambda p, q: [2, 2])
        code, _ = run(["lens", "5", "2"])
        assert code == 4
        assert "internal invariant violation" in capsys.readouterr().err

    def test_odd_kernel_class_exits_4(self, tmp_path, monkeypatch, capsys):
        # each block's kernel basis is the vector 1, which is outside the
        # mod-2 kernel of the 1x1 block [[1]]: its B X is odd, which inside
        # the classifier is a fault of the program and not of its input.
        # The class (0, 1) comes first and is even, so the odd basis class
        # is met by the basis classifier, through bockstein_representative
        monkeypatch.setattr(borsuk, "gf2_kernel_basis",
                            lambda bbar: [GF2Vector.from_bits((1,))])
        path = write_doc(tmp_path, {"matrix": [[1, 0], [0, 2]]})
        code, _ = run(["analyze", path])
        assert code == 4
        err = capsys.readouterr().err
        assert "mod-2 kernel basis class [1] of block [0]" in err
        assert "B X is not even" in err

    def test_odd_lift_passed_in_is_an_input_error(self):
        # the public functions keep ValueError, which `main` maps to exit 2
        b = exactlinalg.IntMatrix.from_rows([[1, 0], [0, 2]])
        for check in (borsuk.bockstein_representative, borsuk.triple_cup):
            with pytest.raises(ValueError):
                check(b, (1, 0))

    def test_negative_cap_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lens", "2", "1", "--cap", "-5"])
        assert exc.value.code == 2
        assert "--cap: must be 0 or more, not -5" in capsys.readouterr().err

    def test_cap_message_counts_the_classes(self, tmp_path, capsys):
        tail = "; pass --allow-truncate to classify a basis only\n"
        assert run(["lens", "2", "1", "--cap", "0"]) == (3, "")
        assert capsys.readouterr().err == (
            "error: 1 cover class exceeds the cap of 0" + tail)
        path = write_doc(tmp_path, {"matrix": [[2, 0], [0, 2]]})
        assert run(["analyze", path, "--cap", "1"]) == (3, "")
        assert capsys.readouterr().err == (
            "error: 3 cover classes exceed the cap of 1" + tail)

    def test_cap_zero_admits_no_class(self):
        assert run(["lens", "2", "1", "--cap", "0"])[0] == 3
        code, text = run(["lens", "2", "1", "--cap", "0", "--allow-truncate",
                          "--format", "json"])
        assert code == 0 and json.loads(text)["truncated"]

    def test_closed_pipe_exits_141_without_traceback(self, tmp_path):
        # 1023 classes write about 300 kB, more than a pipe buffers
        path = write_doc(tmp_path, {"matrix": [
            [2 if i == j else 0 for j in range(10)] for i in range(10)]})
        src = str(Path(z2index.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "z2index.cli", "analyze", path,
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(2) == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == "", err  # no traceback, no "Exception ignored"


def _run_fresh(*args):
    """`python *args` in a new interpreter that imports this z2index:
    (exit code, stdout, stderr)."""
    src = str(Path(z2index.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _run_here(argv, capsys):
    """`main(argv)` in this process, as (exit code, stdout, stderr), with
    argparse's own exits (errors, --version) taken as exit codes."""
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, out.getvalue() + captured.out, captured.err


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    def test_reuse_carries_nothing_between_calls(self, tmp_path,
                                                 monkeypatch, capsys):
        # argparse wraps usage lines at the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        path = write_doc(tmp_path, {"matrix": [[2, 1], [1, -2]]})
        seen = []
        classify = cli._classify_presentation

        def recorded(pres, args, warnings):
            seen.append(args)
            return classify(pres, args, warnings)

        monkeypatch.setattr(cli, "_classify_presentation", recorded)
        argvs = [
            ["lens", "6", "1", "--cap", "0", "--allow-truncate",
             "--no-crosscheck", "--format", "text"],
            ["lens", "2", "1", "--cap", "-5"],
            ["--version"],
            ["lens", "6", "1", "--format", "json"],
            ["analyze", path, "--format", "json"],
        ]
        here = [_run_here(argv, capsys) for argv in argvs]
        assert [code for code, _, _ in here] == [0, 2, 0, 0, 0]
        assert here == [_run_fresh("-m", "z2index.cli", *argv)
                        for argv in argvs]
        # the flags of call 1 do not carry over: call 4 has the defaults
        first, fourth = seen[0], seen[1]
        assert (first.cap, first.allow_truncate, first.no_crosscheck) == (
            0, True, True)
        assert (fourth.cap, fourth.allow_truncate, fourth.no_crosscheck) == (
            1024, False, False)
        doc = json.loads(here[3][1])
        assert not doc["truncated"]
        assert doc["classes"][0]["self_linking"] is not None

    def test_later_calls_construct_no_parser(self, monkeypatch):
        run(["lens", "6", "1"])
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(50):
            assert run(["lens", "6", "1", "--format", "json"])[0] == 0
        assert constructed == []
        # build_parser() still returns a new parser on every call
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second and constructed

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *a, **k):\n"
                "    built.append(self)\n"
                "    init(self, *a, **k)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import z2index.cli\n"
                "print(len(built))\n")
        assert _run_fresh("-c", code) == (0, "0\n", "")


# the z2index modules a fresh `import z2index.cli` loads
CLI_MODULES = ["z2index", "z2index.borsuk", "z2index.cli",
               "z2index.exactlinalg", "z2index.homology", "z2index.surgery"]
# prints the z2index modules loaded; stdlib modules are left out, since
# `site` may import some (a .pth hook) before any z2index code runs
PRINT_LOADED = ("import sys\n"
                "print(*sorted(m for m in sys.modules\n"
                "              if m.split('.')[0] == 'z2index'))\n")


class TestImports:
    """Each command loads only the modules it runs."""

    def test_import_loads_what_analyze_and_lens_run(self):
        code = "import z2index.cli\nz2index.cli.build_parser()\n"
        assert _run_fresh("-c", code + PRINT_LOADED) == (
            0, " ".join(CLI_MODULES) + "\n", "")

    @pytest.mark.parametrize("argv, extra", [
        (["lens", "12", "5"], []),
        (["analyze", "{path}", "--format", "json"], []),
        (["catalog", "RP3"], ["z2index.catalog"]),
        (["selftest", "--quick"], ["z2index.catalog", "z2index.selftest"]),
    ], ids=["lens", "analyze", "catalog", "selftest"])
    def test_each_command_loads_its_own_modules(self, tmp_path, argv, extra):
        path = write_doc(tmp_path, {"matrix": [[2, 1], [1, -2]]})
        argv = [arg.format(path=path) for arg in argv]
        code = ("import io\nimport z2index.cli\n"
                f"assert z2index.cli.main({argv!r}, out=io.StringIO()) == 0\n")
        assert _run_fresh("-c", code + PRINT_LOADED)[:2] == (
            0, " ".join(sorted(CLI_MODULES + extra)) + "\n")

    def test_star_import_binds_every_public_name(self):
        # each name is the object of the module that defines it
        code = ("import sys\n"
                "import z2index\n"
                "eager = sorted(set(vars(z2index)) & set(z2index.__all__))\n"
                "from z2index import *\n"
                "names = z2index.__all__\n"
                "g = globals()\n"
                "print(eager, len(names), z2index.__version__)\n"
                "print([n for n in names if n not in g or g[n] is not getattr(\n"
                "    sys.modules[g[n].__module__], n)])\n"
                "print([n for n in names if n not in dir(z2index)])\n"
                "print(hasattr(z2index, 'cache_clear'))\n")
        assert _run_fresh("-c", code) == (
            0, "[] 33 0.1.0\n[]\n[]\nFalse\n", "")

    def test_benchmark_import_surface_resolves(self):
        # every name perfbench/worker.py imports from z2index, and the
        # build_parser whose import perfbench/run.py times as setup_s
        worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
        tree = ast.parse(worker.read_text(encoding="utf-8"))
        names = [(node.module, alias.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "z2index"
                 for alias in node.names]
        assert len(names) > 1
        names.append(("z2index.cli", "build_parser"))
        assert [f"{module}.{name}" for module, name in names
                if not hasattr(importlib.import_module(module), name)] == []


def _count_calls(monkeypatch, name):
    """Count the calls of exactlinalg.`name`, through every z2index module
    that imports it."""
    original = getattr(exactlinalg, name)
    calls = []

    def counted(*args, **kwargs):
        # a copy, since eliminate works on its rows in place
        calls.append(copy.deepcopy(args))
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "z2index"
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestOneAnalysisPerDocument:
    @pytest.mark.parametrize("flags, code", [
        ([], 0),
        (["--format", "json"], 0),
        (["--no-crosscheck"], 0),
        (["--cap", "10"], 3),
        (["--cap", "10", "--allow-truncate", "--format", "json"], 0),
    ])
    def test_one_kernel_and_one_smith_form(self, tmp_path, monkeypatch,
                                           flags, code):
        """One GF(2) kernel and one `eliminate` per connected block: each on
        that block's rows, exactly once, and never on the whole matrix.  A
        block with a mod-2 kernel is bordered by the Y of its k basis
        classes on the right and by I below; the others run bare."""
        kernels = _count_calls(monkeypatch, "gf2_kernel_basis")
        eliminations = _count_calls(monkeypatch, "eliminate")
        path = write_doc(tmp_path, {"matrix": [
            [2, 0, 0, 2, 0, 0, 0], [0, 4, 0, 0, 0, 0, 0],
            [0, 0, -2, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 6, 2, 0], [0, 0, 0, 0, 2, 8, 0],
            [0, 0, 0, 0, 0, 0, 3]]})
        assert run(["analyze", path, *flags])[0] == code
        # the blocks are {0, 3}, {1}, {2}, {4, 5} and {6}, with k = 2, 1,
        # 1, 2 and 0
        blocks = [[[2, 2], [2, 0]], [[4]], [[-2]], [[6, 2], [2, 8]], [[3]]]
        assert [[row[:n] for row in a[:m]] for a, m, n in eliminations] == (
            blocks)
        assert [(len(a), len(a[0]), m, n) for a, m, n in eliminations] == [
            (4, 4, 2, 2), (2, 2, 1, 1), (2, 2, 1, 1), (4, 4, 2, 2),
            (1, 1, 1, 1)]
        assert [m for (m,) in kernels] == [
            GF2Matrix.from_int_matrix(IntMatrix.from_rows(m))
            for m in blocks]


    def test_no_transform_carrying_smith_form(self, tmp_path, monkeypatch):
        """The CLI and the public solvers each run one `eliminate`, bordered
        by what they solve for; none builds the U and V of
        `smith_normal_form`, which stays as the selftest's oracle."""
        smith_forms = _count_calls(monkeypatch, "smith_normal_form")
        b = IntMatrix.from_rows([[2, 1, 0, 0], [1, -2, 0, 0],
                                 [0, 0, -4, 2], [0, 0, 2, 0]])
        path = write_doc(tmp_path, {"matrix": b.to_lists()})
        assert run(["analyze", path, "--format", "json"])[0] == 0
        assert first_homology(b) == cokernel_structure(b)
        assert first_homology(b).invariant_factors == (2, 10)
        assert order_in_cokernel(b, (1, 0, 1, 0)) == 10
        assert solve_integral(b, (0, 0, 2, 0)) == (0, 0, 0, 1)
        assert torsion_linking(b, (1, 0, 0, 0), (1, 0, 0, 0)).value == (
            Fraction(2, 5))
        assert smith_forms == []

    def test_symmetry_checked_once(self, tmp_path, monkeypatch):
        """The presentation checks that its matrix is symmetric, and the
        analysis reads that result: one evaluation per matrix of a document,
        so one for a plain matrix, and one for each part of a connected sum
        and one for their join.  A bare matrix handed to `Analysis.of` or
        `classify_all` is checked too."""
        evaluated = []
        check = IntMatrix.__dict__["is_symmetric"].func

        def counted(self):
            evaluated.append(self.rows)
            return check(self)

        prop = cached_property(counted)
        prop.__set_name__(IntMatrix, "is_symmetric")
        monkeypatch.setattr(IntMatrix, "is_symmetric", prop)
        plain = write_doc(tmp_path, {"matrix": [[2, 1], [1, 2]]}, "plain.json")
        nested = write_doc(tmp_path, {"preset": "connected_sum", "parts": [
            {"matrix": [[2, 1], [1, 2]]}, {"preset": "lens", "p": 8, "q": 3},
            {"preset": "connected_sum", "parts": [{"matrix": [[0]]}]}]})
        for argv, sizes in (
                (["analyze", plain, "--format", "json"], [2]),
                (["analyze", plain, "--no-crosscheck"], [2]),
                (["analyze", nested, "--format", "json"], [2, 2, 1, 5]),
                (["lens", "160", "159", "--format", "json"], [159])):
            evaluated.clear()
            assert run(argv)[0] == 0
            assert evaluated == sizes, argv
        evaluated.clear()
        assert len(borsuk.classify_all(IntMatrix.diagonal([2, 4])).reports) == 3
        with pytest.raises(DimensionError, match="symmetric"):
            borsuk.Analysis.of(IntMatrix.from_rows([[2, 1], [0, 2]]))
        assert evaluated == [2, 2]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no limit on integer digits")
class TestIntegerDigitLimit:
    """Integers longer than the interpreter converts to text are rejected
    with exit 2 and a message that names the limit, before any elimination
    when the matrix entries alone exceed it."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_entries_too_long_to_print_exit_2_before_analysis(
            self, tmp_path, monkeypatch, capsys, fmt):
        # every entry has 4300 digits and parses; the entries of Y = B X / 2
        # have 4301 and would not print
        c = 8 * 10 ** 4299 + 1
        path = write_doc(tmp_path, {"matrix": [
            [c + (i == j) for j in range(21)] for i in range(21)]})
        eliminations = _count_calls(monkeypatch, "eliminate")
        smith_forms = _count_calls(monkeypatch, "smith_normal_form")
        code, text = run(["analyze", path, "--format", fmt])
        assert (code, text, eliminations, smith_forms) == (2, "", [], [])
        err = capsys.readouterr().err
        assert "n * max|b_ij| of the matrix has more than 4300 digits" in err
        assert "PYTHONINTMAXSTRDIGITS" in err

    def test_entries_at_the_limit_are_classified(self, tmp_path):
        # n max|b_ij| = 2 10^4299 has 4300 digits: every integer prints
        path = write_doc(tmp_path, {"matrix": [[2 * 10 ** 4299]]})
        code, text = run(["analyze", path, "--format", "json"])
        assert code == 0
        assert json.loads(text)["classes"][0]["bockstein_rep"] == [
            10 ** 4299]

    def test_invariant_factor_too_long_to_print_exits_2(self, tmp_path,
                                                         capsys):
        # the entries have 2201 digits, but H_1 = Z/(M^2 - 1) has 4400
        m = 10 ** 2200
        path = write_doc(tmp_path, {"matrix": [[m, 1], [1, m]]})
        code, text = run(["analyze", path, "--format", "json"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert "an invariant factor of H_1 has more than 4300 digits" in err

    def test_input_literal_too_long_to_read_exits_2(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text('{"matrix": [[' + "9" * 4301 + "]]}",
                        encoding="utf-8")
        assert run(["analyze", str(path)]) == (2, "")
        err = capsys.readouterr().err
        assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS" in err
        assert "set_int_max_str_digits" not in err
