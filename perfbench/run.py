"""Seeded benchmark of the z2index CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; z2index is imported from `src/`.
With `--trace 0` the run measures the end-to-end metrics: documents are fed
to `z2index.cli.main` for S seconds in a fresh interpreter and every verdict
is checked against an oracle that does not use the Smith normal form, and
the timings are scaled to a reference host speed (`hostspeed.py`). With
`--trace 1` it times the same documents one module at a time and reports
the per-layer metrics, with the traced total beside an untraced pass over
the same documents. Every metric is printed by name with its unit; the
last line is the JSON result. Per-document records and spans go to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402

# Launches timed for setup_s on each side of the documents, so that the
# median spans the run and not one moment of a host whose speed drifts.
SETUP_LAUNCHES = 8
# A fresh interpreter times its own import of z2index.cli and build_parser()
# and then samples the host's speed. The benchmark's modules load only after
# the timed part, so that they do not import ahead what z2index needs.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import z2index.cli
z2index.cli.build_parser()
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import hostspeed
print(wall, *(hostspeed.sample() for _ in range(8)))
"""
TAIL_BEYOND = 10
# Peak RSS is read after this many documents: the SNF cache keeps up to 512
# decompositions, so over a fixed time a faster program would hold more.
RSS_DOCS = {"lens_chains": 6000, "even_many_classes": 50,
            "dense_snf": 150, "connected_sums": 100}
# The traced pass covers at most this many documents, so that its counts
# repeat exactly for a seed, and at most half of --seconds.
TRACE_DOCS = {"lens_chains": 2000, "even_many_classes": 24,
              "dense_snf": 140, "connected_sums": 60}
LAYERS = ("cli", "surgery", "exactlinalg", "homology", "borsuk")

END_TO_END = {"docs_per_s": "1/s", "doc_ms_p50": "ms", "doc_ms_tail": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
SPAN_METRICS = ("cli.parser", "cli.read", "cli.report", "cli.render",
                "surgery.parse", "surgery.lens", "surgery.matrix",
                "exactlinalg.snf", "exactlinalg.gf2_kernel",
                "homology.cover_classes", "homology.first_homology",
                "homology.linking", "borsuk.verdict")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "cli.render_bytes": "bytes",
    "surgery.components": "count",
    "exactlinalg.snf_max_bits": "bits",
    "homology.classes": "count",
    "homology.kernel_dim_max": "count",
    "trace.docs": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.layer_share": "ratio",
}


def _worker(args, scratch: Path, *, traced: bool, seconds: float,
            max_docs: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--max-docs", str(max_docs),
           "--scratch", str(scratch)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          timeout=seconds + corpus.DEADLINE_S + 60)
    return json.loads(proc.stdout)


def setup_launches(count: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds that each of `count` fresh interpreters
    takes to import z2index.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                              stdout=subprocess.PIPE, timeout=60)
        wall, *speed = map(float, proc.stdout.split())
        times.append((wall, wall * hostspeed.REFERENCE_S
                      / statistics.median(speed)))
    return times


def tail(sorted_values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    its value, the percentile and the number beyond. With too few samples,
    the upper median."""
    n = len(sorted_values)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    return sorted_values[n - 1 - beyond], 100 * (n - beyond) / n, beyond


def check(workload: str, seed: int, records: list) -> list[str]:
    """Oracle verdicts for the processed documents; one line per problem.

    Also rejects the run if the program reports the same linking matrix
    twice, since it would then time a cached elimination.
    """
    problems, matrices = [], set()
    for doc, rec in zip(corpus.documents(workload, seed), records):
        if doc.index != rec["index"]:
            raise RuntimeError("worker and corpus disagree on document order")
        if rec.get("matrix") in matrices:
            problems.append(f"doc {doc.index}: linking matrix repeats")
        if "matrix" in rec:
            matrices.add(rec["matrix"])
        if rec["status"] == "ok":
            classes = [(tuple(map(int, bits)), index)
                       for bits, index in rec["classes"]]
            reason = oracle.check(workload, doc, classes)
            if reason:
                rec["status"] = "oracle mismatch"
                problems.append(f"doc {doc.index}: {reason}")
        elif rec["status"] != "deadline":
            problems.append(f"doc {doc.index}: {rec['status']}")
    return problems


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _histogram(values) -> str:
    return " ".join(f"{v}:{c}" for v, c in sorted(Counter(values).items()))


def _describe(args, records: list) -> list[str]:
    failed = [r for r in records if r["status"] != "ok"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
        f"  trace {args.trace}",
        f"python {platform.python_version()}  nproc {os.cpu_count()}"
        f"  commit {_commit()}",
        f"documents {len(records)} attempted, {len(failed)} failed "
        f"({dict(Counter(r['status'] for r in failed))})",
        f"failed_frac {len(failed) / max(1, len(records)):.6g}",
        f"n histogram {_histogram(r['n'] for r in records)}",
        f"k histogram {_histogram(r['k'] for r in records if 'k' in r)}",
    ]
    return lines


def end_to_end(args, scratch: Path):
    setup_launches(1)  # writes the bytecode cache
    setup = setup_launches(SETUP_LAUNCHES)
    result = _worker(args, scratch, traced=False, seconds=args.seconds,
                     max_docs=10 ** 9)
    setup += setup_launches(SETUP_LAUNCHES)
    records = result["records"]
    problems = check(args.workload, args.seed, records)
    timings = {clock: _timings(records, [t[i] for t in setup], clock)
               for i, clock in enumerate(("ms", "ref_ms"))}
    metrics = {
        **timings["ref_ms"],
        "peak_rss_mb": records[:RSS_DOCS[args.workload]][-1]["rss_kb"] / 1024,
    }
    _, tail_pct, beyond = tail(sorted(r["ms"] for r in records))
    notes = [f"doc_ms_tail is p{tail_pct:.4g}: {beyond} of {len(records)} "
             "samples beyond it",
             f"peak_rss_mb is read after document "
             f"{len(records[:RSS_DOCS[args.workload]])}",
             f"setup_s is the median of {len(setup)} launches, half before "
             "and half after the documents",
             "timings are in reference seconds (hostspeed.py); in wall "
             "seconds they read " + ", ".join(
                 f"{name} {value:.6g}"
                 for name, value in timings["ms"].items())]
    return records, metrics, notes, problems, None


def _timings(records: list, setup: list[float], clock: str) -> dict:
    """The timing metrics from the records' `clock` milliseconds and the
    setup launches' seconds."""
    ok_ms = [r[clock] for r in records if r["status"] == "ok"]
    # a failed document misses every latency limit
    latencies = sorted(ok_ms + [math.inf] * (len(records) - len(ok_ms)))
    return {
        "docs_per_s": len(ok_ms) / (sum(r[clock] for r in records) / 1e3),
        "doc_ms_p50": statistics.median(latencies),
        "doc_ms_tail": tail(latencies)[0],
        "setup_s": statistics.median(setup),
    }


def traced(args, scratch: Path):
    """The traced pass, which also times each document through the same
    stages without spans, then `main` over the same documents in a fresh
    interpreter for reference."""
    result = _worker(args, scratch, traced=True, seconds=args.seconds / 2,
                     max_docs=TRACE_DOCS[args.workload])
    records = result["records"]
    plain = _worker(args, scratch, traced=False, seconds=args.seconds,
                    max_docs=len(records))["records"]
    problems = check(args.workload, args.seed, records)
    problems += check(args.workload, args.seed, plain)
    spans = result["spans"]
    busy = Counter()
    for doc, name, t0, t1 in spans:
        busy[name] += t1 - t0
    ok = [r for r in records if r["status"] == "ok"]
    traced_s = sum(r["ms"] for r in ok) / 1e3
    untraced_s = sum(r["plain_ms"] for r in ok) / 1e3
    main_s = sum(r["ms"] for r in plain) / 1e3
    layer_s = {layer: sum(s for name, s in busy.items()
                          if name.startswith(layer + "."))
               for layer in LAYERS}
    metrics = {f"{name}_s": busy[name] for name in SPAN_METRICS}
    metrics.update({
        "cli.render_bytes": sum(r["render_bytes"] for r in ok),
        "surgery.components": sum(r["n"] for r in ok),
        "exactlinalg.snf_max_bits": max((r["snf_max_bits"] for r in ok),
                                        default=0),
        "homology.classes": sum(len(r["classes"]) for r in ok),
        "homology.kernel_dim_max": max((r["k"] for r in ok), default=0),
        "trace.docs": len(records),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0.0,
        "trace.layer_share": sum(layer_s.values()) / busy["doc"]
        if busy["doc"] else 0.0,
    })
    notes = [f"layer {layer}: {s:.6f} s self time, "
             f"{s / busy['doc'] if busy['doc'] else 0:.1%} of traced time"
             for layer, s in layer_s.items()]
    notes.append(f"overhead over {len(ok)} documents: traced {traced_s:.6f} s,"
                 f" same stages untraced {untraced_s:.6f} s; main over "
                 f"{len(plain)} documents {main_s:.6f} s")
    return records, metrics, notes, problems, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "z2index" / "cli.py").is_file():
        print(f"error: no z2index sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        records, metrics, notes, problems, spans = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for r in records if r["status"] != "ok")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"records": records, "spans": spans}))
    for line in _describe(args, records) + notes:
        print(line)
    for p in problems:
        print(f"problem: {p}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"records: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
