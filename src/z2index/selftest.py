"""Self-verification suites.

Each suite re-derives a known classification result or checks an
algebraic invariant on seeded random input, and reports pass/fail with a
short detail line.  The CLI `selftest` command and the acceptance tests
both run these.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .borsuk import (
    IndexReport,
    InvariantViolation,
    beta_vanishes,
    classify_all,
    classify_class,
    diagonal_index,
    lens_rule_index,
    triple_cup,
)
from .catalog import ENTRIES
from .exactlinalg import (
    IntMatrix,
    congruence_transform,
    is_in_integral_image,
    smith_normal_form,
    solve_integral,
)
from .homology import CoverClass, torsion_linking
from .surgery import lens_presentation


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


Recorder = list[tuple[IntMatrix, IndexReport]]


def _suite(name):
    """Make the suite body, which returns (passed, detail), return the
    SuiteResult named name with the body's wall time in seconds; an internal
    invariant violation is reported as a failure instead of escaping."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> SuiteResult:
            start = time.perf_counter()
            try:
                passed, detail = fn(*args, **kwargs)
            except InvariantViolation as exc:
                passed, detail = False, f"invariant violation: {exc}"
            return SuiteResult(name, passed, detail,
                               time.perf_counter() - start)
        return run
    return wrap


def _classify_recorded(b: IntMatrix, x: CoverClass, recorder: Recorder | None) -> IndexReport:
    report = classify_class(b, x)
    if recorder is not None:
        recorder.append((b, report))
    return report


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows([
        [rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)
    ])


def random_symmetric_matrix(rng: random.Random, n: int, bound: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return IntMatrix.from_rows(rows)


def random_unimodular_matrix(rng: random.Random, n: int, ops: int = 12) -> IntMatrix:
    """Product of random elementary transvections, swaps, and sign flips."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-2, 2)
            for k in range(n):
                rows[i][k] += q * rows[j][k]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-e for e in rows[i]]
    return IntMatrix.from_rows(rows)


@_suite("sphere")
def suite_sphere(recorder: Recorder | None = None):
    """Antipodal involution on S^3: the (-2)-framed unknot, index 3."""
    b = IntMatrix.from_rows([[-2]])
    result = classify_all(b)
    ok = [(r.index, r.lift) for r in result.reports] == [(3, (1,))]
    if recorder is not None and ok:
        recorder.append((b, result.reports[0]))
    return ok, f"[[-2]] -> {[r.index for r in result.reports]} (want [3])"


@_suite("stolz")
def suite_stolz(recorder: Recorder | None = None):
    """RP^3 with the i-multiplication involution: (-4)-framed unknot,
    index 2 with Bockstein witness Y = (-2) outside 4Z and triple cup 0."""
    b = IntMatrix.from_rows([[-4]])
    result = classify_all(b)
    ok = [(r.index, r.bockstein_rep, r.beta_vanishes, r.triple_cup)
          for r in result.reports] == [(2, (-2,), False, 0)]
    if recorder is not None and ok:
        recorder.append((b, result.reports[0]))
    return ok, f"[[-4]] -> {[r.index for r in result.reports]} (want [2])"


@_suite("lens_sweep")
def suite_lens_sweep(pmax: int = 200, recorder: Recorder | None = None):
    """Lens spaces for all coprime (p, q) with p <= pmax: index 3 iff
    p = 2 mod 4, index 2 for other even p, no classes for odd p."""
    checked = 0
    for p in range(2, pmax + 1):
        expected = lens_rule_index(p)
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            b = lens_presentation(p, q).matrix
            result = classify_all(b)
            checked += 1
            if expected is None:
                if result.reports:
                    return False, (f"L({p},{q}): expected no classes, got "
                                   f"{len(result.reports)}")
            else:
                if len(result.reports) != 1 or result.reports[0].index != expected:
                    return False, (f"L({p},{q}): expected one class of index "
                                   f"{expected}, got "
                                   f"{[r.index for r in result.reports]}")
                if recorder is not None:
                    recorder.append((b, result.reports[0]))
    return True, f"{checked} coprime pairs up to p={pmax}"


@_suite("s1xs2")
def suite_s1xs2(recorder: Recorder | None = None):
    """Free involutions on S^1 x S^2 with orientable quotient: the
    0-framed unknot gives index 1; diag(2,2) class (1,1) gives index 2."""
    b0 = IntMatrix.from_rows([[0]])
    r0 = _classify_recorded(b0, CoverClass.from_bits((1,)), recorder)
    b2 = IntMatrix.from_rows([[2, 0], [0, 2]])
    r2 = _classify_recorded(b2, CoverClass.from_bits((1, 1)), recorder)
    return r0.index == 1 and r2.index == 2, (
        f"[[0]] -> {r0.index} (want 1); diag(2,2)@(1,1) -> {r2.index} (want 2)"
    )


@_suite("catalog")
def suite_catalog(recorder: Recorder | None = None):
    """Every surgery-computable catalog entry reproduces its index through
    the classifier; nonorientable entries are present with citations."""
    for entry in ENTRIES:
        if entry.computable_by_surgery:
            b = entry.surgery_presentation.matrix
            x = CoverClass.from_bits(entry.cover_class_bits)
            report = _classify_recorded(b, x, recorder)
            if report.index != entry.index:
                return False, (f"{entry.quotient_manifold}: classifier gave "
                               f"{report.index}, catalog says {entry.index}")
        elif not entry.source:
            return False, (f"{entry.quotient_manifold}: non-computable entry "
                           "without citation")
    names = {(e.cover_manifold, e.quotient_manifold, e.index) for e in ENTRIES}
    required = {("K^3", "S^1xRP^2", 3), ("S^1xS^2", "S^1xRP^2", 2),
                ("S^1xS^2", "K^3", 1)}
    if not required <= names:
        return False, f"missing entries: {required - names}"
    return True, f"{len(ENTRIES)} entries consistent"


@_suite("diagonal_oracle")
def suite_diagonal_oracle(trials: int = 500, seed: int = 20260823,
                          recorder: Recorder | None = None):
    """Random diagonal matrices: the general classifier agrees with the
    diagonal closed form on every cover class."""
    rng = random.Random(seed)
    classified = 0
    for _ in range(trials):
        n = rng.randint(1, 8)
        diag = [rng.randint(-10, 10) for _ in range(n)]
        b = IntMatrix.diagonal(diag)
        # the cap 2^n never truncates
        for report in classify_all(b, cap=1 << n).reports:
            if recorder is not None:
                recorder.append((b, report))
            classified += 1
            closed = diagonal_index(diag, CoverClass.from_bits(report.lift))
            if report.index != closed:
                return False, (f"diag {diag}, class {report.lift}: classifier "
                               f"{report.index} != closed form {closed}")
    return True, f"{trials} matrices, {classified} classes agree"


def _index_from_lift(b: IntMatrix, lift) -> tuple[int, bool, int]:
    vanishes = beta_vanishes(b, lift)
    cup = triple_cup(b, lift)
    index = 3 if cup == 1 else (1 if vanishes else 2)
    return index, vanishes, cup


@_suite("lift_independence")
def suite_lift_independence(trials: int = 1000, seed: int = 20260824,
                            recorder: Recorder | None = None):
    """Replacing the canonical lift X by X + 2Z changes no verdict."""
    rng = random.Random(seed)
    done = 0
    while done < trials:
        n = rng.randint(1, 6)
        b = random_symmetric_matrix(rng, n, 9)
        reports = classify_all(b, cap=1 << n).reports
        if not reports:
            continue
        report = rng.choice(reports)
        if recorder is not None:
            recorder.append((b, report))
        z = [rng.randint(-4, 4) for _ in range(n)]
        shifted = tuple(xi + 2 * zi for xi, zi in zip(report.lift, z))
        index, vanishes, cup = _index_from_lift(b, shifted)
        if (index, vanishes, cup) != (
            report.index, report.beta_vanishes, report.triple_cup
        ):
            return False, (
                f"b={b.to_lists()}, class {report.lift}, shift {z}: "
                f"({index},{vanishes},{cup}) != "
                f"({report.index},{report.beta_vanishes},{report.triple_cup})")
        done += 1
    return True, f"{trials} perturbations"


@_suite("linking_crosscheck")
def suite_linking_crosscheck(recorder: Recorder):
    """Every recorded classification satisfies the linking-form identity:
    self-linking = (1/4) X^T B X mod 1, lands in {0, 1/2}, is 1/2 exactly
    when the triple cup is nonzero, and equals torsion_linking(B, Y, Y),
    taken with one elimination of the whole of B rather than of a block."""
    if not recorder:
        return False, "nothing recorded"
    for b, report in recorder:
        if report.self_linking is None:
            return False, "classification skipped the cross-check"
        value = report.self_linking.value
        quad = sum(
            xi * e for xi, e in zip(report.lift, b.mul_vec(report.lift))
        )
        if value not in (Fraction(0), Fraction(1, 2)):
            return False, f"self-linking {value} outside {{0, 1/2}}"
        if value != Fraction(quad, 4) % 1:
            return False, (f"self-linking {value} != quarter form "
                           f"{Fraction(quad, 4) % 1}")
        if (value == Fraction(1, 2)) != (report.triple_cup == 1):
            return False, "linking verdict disagrees with the triple cup"
        y = report.bockstein_rep
        whole = torsion_linking(b, y, y).value
        if value != whole:
            return False, (f"self-linking {value} != torsion_linking(B, Y, Y) "
                           f"= {whole}")
    return True, f"{len(recorder)} classifications"


def _index_multiset(b: IntMatrix) -> tuple[int, ...]:
    result = classify_all(b, cap=1 << b.rows)
    return tuple(sorted(r.index for r in result.reports))


@_suite("presentation_invariance")
def suite_presentation_invariance(trials: int = 300, seed: int = 0):
    """The index multiset over all classes is invariant under unimodular
    congruence (handle slides) and under (+-1)-stabilization (blow-ups),
    on random symmetric presentations with 1 to 6 components."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 6)
        b = random_symmetric_matrix(rng, n, 6)
        base = _index_multiset(b)
        p = random_unimodular_matrix(rng, n)
        if _index_multiset(congruence_transform(b, p)) != base:
            return False, (f"congruence changed indices for b={b.to_lists()}, "
                           f"p={p.to_lists()}")
        eps = rng.choice((1, -1))
        stabilized = IntMatrix.from_rows([
            list(row) + [0] for row in b.entries
        ] + [[0] * n + [eps]])
        if _index_multiset(stabilized) != base:
            return False, (f"stabilization by ({eps}) changed indices for "
                           f"b={b.to_lists()}")
    return True, f"{trials} random presentations"


@_suite("exact_linalg")
def suite_exact_linalg(snf_trials: int = 500, solve_trials: int = 200,
                       seed: int = 20260826):
    """Smith form identities on random matrices; integral solvability
    against bounded brute force on small instances."""
    rng = random.Random(seed)
    for _ in range(snf_trials):
        rows = rng.randint(1, 20)
        cols = rng.randint(1, 20)
        b = random_matrix(rng, rows, cols, 100)
        dec = smith_normal_form(b)
        if not dec.verify(b):
            return False, f"SNF identity failed for a {rows}x{cols} matrix"
    bound = 5
    for _ in range(solve_trials):
        n = rng.randint(1, 3)
        b = random_matrix(rng, n, n, bound)
        y = tuple(rng.randint(-bound, bound) for _ in range(n))
        found = _brute_force_solvable(b, y, bound)
        claimed = is_in_integral_image(b, y)
        z = solve_integral(b, y)
        if found and not claimed:
            return False, (f"brute force solves b={b.to_lists()}, y={y} but "
                           "is_in_integral_image says no")
        if claimed != (z is not None):
            return False, "is_in_integral_image and solve_integral disagree"
        if z is not None and b.mul_vec(z) != y:
            return False, "solve_integral witness is wrong"
    return True, f"{snf_trials} SNF instances, {solve_trials} solve instances"


def _brute_force_solvable(b: IntMatrix, y, bound: int) -> bool:
    n = b.cols
    coords = [0] * n

    def rec(i):
        if i == n:
            return b.mul_vec(coords) == tuple(y)
        for v in range(-bound, bound + 1):
            coords[i] = v
            if rec(i + 1):
                return True
        return False

    return rec(0)


def run_all(*, quick: bool = False) -> list[SuiteResult]:
    """Run every suite (fixtures only when quick) and return the results."""
    recorder: Recorder = []
    results = [
        suite_sphere(recorder),
        suite_stolz(recorder),
        suite_s1xs2(recorder),
        suite_catalog(recorder),
    ]
    if not quick:
        results.insert(2, suite_lens_sweep(recorder=recorder))
        results += [
            suite_diagonal_oracle(recorder=recorder),
            suite_lift_independence(recorder=recorder),
            suite_linking_crosscheck(recorder),
            suite_presentation_invariance(),
            suite_exact_linalg(),
        ]
    return results
