import io
import json

import pytest

from z2index.cli import main


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
