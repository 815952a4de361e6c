"""Toy-size checks of the benchmark: every workload runs and passes its
oracle, each oracle rejects an altered verdict, and BENCHMARK.json names
what run.py reports.

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from z2index.cli import main  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_workload_runs_at_toy_size(workload):
    res = result(bench("--workload", workload, "--seed", "7",
                       "--seconds", "0.3", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_attributes_time_to_the_module_layers():
    res = result(bench("--workload", "connected_sums", "--seed", "7",
                       "--seconds", "2", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.PER_LAYER
    assert metrics["trace.layer_share"] >= 0.9
    assert metrics["surgery.components"] > 0 and metrics["homology.classes"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_host_speed_scales_each_stretch_by_the_samples_around_it():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factors([2 * ref] * 4) == [0.5] * 3
    # one interrupted sample does not move its neighbours
    assert hostspeed.factors([ref, ref, 9 * ref, ref, ref]) == [1] * 4


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "lens_chains", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def verdicts(doc, tmp_path):
    """The program's (bits, index) pairs for one corpus document."""
    argv = list(doc.argv)
    if doc.text is not None:
        path = tmp_path / "doc.json"
        path.write_text(doc.text)
        argv = [str(path) if a == corpus.DOC_PATH else a for a in argv]
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return [(tuple(c["class"]), c["index"])
            for c in json.loads(out.getvalue())["classes"]]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_oracle_rejects_an_altered_verdict(workload, tmp_path):
    for doc in corpus.documents(workload, 3):
        classes = verdicts(doc, tmp_path)
        assert oracle.check(workload, doc, classes) is None
        if classes:
            break
    for i, (bits, index) in enumerate(classes):
        for wrong in {1, 2, 3} - {index}:
            altered = list(classes)
            altered[i] = (bits, wrong)
            assert oracle.check(workload, doc, altered) is not None
    assert oracle.check(workload, doc, classes[:-1]) is not None


def test_corpus_is_seeded_and_never_repeats_a_matrix():
    for workload in corpus.WORKLOADS:
        first = [d for _, d in zip(range(30), corpus.documents(workload, 5))]
        again = [d for _, d in zip(range(30), corpus.documents(workload, 5))]
        assert first == again
        assert len({d.key for d in first}) == len(first)


def test_check_rejects_a_matrix_the_program_reports_twice():
    docs = [d for _, d in zip(range(2), corpus.documents("lens_chains", 1))]
    rules = [oracle.lens_rule(d.meta) for d in docs]
    records = [{"index": d.index, "status": "ok", "matrix": "same",
                "classes": [] if rule is None else [["1", rule]]}
               for d, rule in zip(docs, rules)]
    problems = run.check("lens_chains", 1, records)
    assert problems == ["doc 1: linking matrix repeats"]
    records[1]["matrix"] = "other"
    assert run.check("lens_chains", 1, records) == []


def _rank_fractions(rows):
    a = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_rank_q_matches_fraction_elimination():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 7)
        basis = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(1, n))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis)
                 for j in range(n)] for _ in range(n)]
        assert oracle.rank_q(rows) == _rank_fractions(rows)
