import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2index
import z2index.borsuk as borsuk
import z2index.exactlinalg as exactlinalg
from z2index.cli import main
from z2index.exactlinalg import GF2Vector


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

    def test_injected_sign_bug_is_caught(self, monkeypatch):
        # flip the parity criterion and the lens sweep must fail
        import z2index.borsuk as borsuk
        from z2index.selftest import suite_lens_sweep

        original = borsuk.triple_cup
        monkeypatch.setattr(
            borsuk, "triple_cup", lambda b, lift: 1 - original(b, lift)
        )
        result = suite_lens_sweep(pmax=12)
        assert not result.passed


class TestErrorBoundary:
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

    @pytest.mark.parametrize("failing", ["bockstein_representative",
                                         "triple_cup"])
    def test_odd_kernel_class_exits_4(self, tmp_path, monkeypatch, capsys,
                                      failing):
        # a kernel basis with a vector outside the mod-2 kernel: B X and
        # X^T B X are odd, which inside the classifier is a fault of the
        # program and not of its input
        monkeypatch.setattr(borsuk, "gf2_kernel_basis",
                            lambda bbar: [GF2Vector.from_bits((1, 0))])
        if failing == "triple_cup":
            # let the odd B X through, so that triple_cup sees it first
            monkeypatch.setattr(borsuk, "bockstein_representative",
                                lambda b, lift: tuple(
                                    e // 2 for e in b.mul_vec(lift)))
        path = write_doc(tmp_path, {"matrix": [[1, 0], [0, 2]]})
        code, _ = run(["analyze", path])
        assert code == 4
        assert "is odd" in capsys.readouterr().err

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


def _count_calls(monkeypatch, name):
    """Count the calls of exactlinalg.`name`, through every z2index module
    that imports it."""
    original = getattr(exactlinalg, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
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
        """One GF(2) kernel of the whole matrix per document, and one Smith
        form per connected block: each block's submatrix exactly once, and
        never the whole matrix."""
        kernels = _count_calls(monkeypatch, "gf2_kernel_basis")
        smith_forms = _count_calls(monkeypatch, "smith_normal_form")
        path = write_doc(tmp_path, {"matrix": [
            [2, 0, 0, 2, 0, 0], [0, 4, 0, 0, 0, 0], [0, 0, -2, 0, 0, 0],
            [2, 0, 0, 0, 0, 0], [0, 0, 0, 0, 6, 2], [0, 0, 0, 0, 2, 8]]})
        assert run(["analyze", path, *flags])[0] == code
        assert len(kernels) == 1
        assert kernels[0][0].rows == 6
        # the blocks are {0, 3}, {1}, {2} and {4, 5}
        assert [m.to_lists() for (m,) in smith_forms] == [
            [[2, 2], [2, 0]], [[4]], [[-2]], [[6, 2], [2, 8]]]
