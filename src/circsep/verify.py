"""Sweep harness: grind every identity against the enumeration oracle.

``verify_all`` sweeps a parameter grid and evaluates a family of named checks,
one report per parameter point.  Evaluators return the two sides they compare
(and a counterexample, if any); ``evaluate_point`` alone builds the reports,
which pass exactly when the sides' exact decimal strings are equal.  Every skip
comes from the grid, with a reason: no silent gaps, so coverage stays auditable.

The ``fixed-sum-printed`` check is documentation: it evaluates a widely
circulated but misprinted variant of the fixed-element sum (binomial exponent
``j - 1`` instead of ``j`` in the second factor) and records that it fails.
Its failures are expected and do not count against the overall verdict.

Every evaluator takes a point's parameters as keywords, and every point is
evaluated by itself, so points may run in any order and in any process: the
job count changes only where they run, never the output.  ``sweep`` yields
each report in canonical grid order as soon as it is built, so
``report_lines`` can give its line at once and end a table with
``summary_line``.  The pool's module is imported only when a pool runs.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, deque

from .bijection import check_bijectivity
from .core import (CircleSystem, Element, SeparationParams, _check_bounds,
                   _least_size, _Record, _require_ints, _setattr)
from .counting import (binomial, count_circle, count_circle_fixed, count_system,
                       count_system_convolution, count_system_fixed,
                       count_system_fixed_recursive)
from .enumeration import EnumerationRequest, count_by_enumeration, selection_runs

DOCUMENTATION_CHECKS = frozenset({"fixed-sum-printed"})
# points per pool task: chunks of 1 took a 114,435-point grid from 6.5 to 10.5 s
CHUNK = 64


class IdentityReport(_Record):
    """One evaluated (or skipped) parameter point of one check."""

    __slots__ = ("check", "params", "left", "right", "passed", "skipped",
                 "reason", "counterexample")

    def __init__(self, check: str, params: dict, left: str = "", right: str = "",
                 passed: bool = False, skipped: bool = False, reason: str = "",
                 counterexample: str = "") -> None:
        _setattr(self, "check", check)
        _setattr(self, "params", params)
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "passed", passed)
        _setattr(self, "skipped", skipped)
        _setattr(self, "reason", reason)
        _setattr(self, "counterexample", counterexample)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in self.params.items()},
            "left": self.left,
            "right": self.right,
            "pass": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# the named identities


def verify_fixed_sum_identity(m: int, n: int, s: int, k: int) -> IdentityReport:
    """Fixed-element count of a two-circle system as a sum over how many
    elements land on the circle of size m:

        sum_{j=0}^{k-1} C(n - s*(k-j) - 1, k-j-1) * count_circle(m, s, j)
            == C(m + n - s*k - 1, k - 1)

    The fixed element lives on the circle of size n, so the preconditions are
    ``n >= s*k + 1`` and ``m >= s*k`` (with k >= 1).
    """
    return evaluate_point(("fixed-sum", {"m": m, "n": n, "s": s, "k": k}, None))


def verify_fixed_sum_printed(m: int, n: int, s: int, k: int) -> IdentityReport:
    """The misprinted variant of the fixed-element sum, kept for documentation.

    Uses ``(m / (m - s*j)) * C(m - s*j, j - 1)`` as the second factor; the
    exponent ``j - 1`` makes the factor stop counting j-subsets, and the sum
    generally misses the right-hand side (often it is not even an integer).
    Evaluated on the corrected identity's domain, in exact rational
    arithmetic, and reported as-is.
    """
    return evaluate_point(("fixed-sum-printed", {"m": m, "n": n, "s": s, "k": k}, None))


def verify_convolution_identity(n1: int, n2: int, s: int, k: int) -> IdentityReport:
    """Free count of a two-circle system as a convolution of single-circle
    counts; requires both sizes >= s*k + 1."""
    return evaluate_point(("convolution", {"n1": n1, "n2": n2, "s": s, "k": k}, None))


# ---------------------------------------------------------------------------
# grid generation: (check, params, skip_reason) triples in canonical order


def _sk_grid(grid: SweepGrid):
    return itertools.product(range(1, grid.max_s + 1), range(1, grid.max_k + 1))


def _gen_named(grid: SweepGrid, check: str, keys: tuple[str, ...],
               beside: tuple[bool, ...]):
    """One point per product of sizes, named ``keys``: slot i runs up from the
    least size admitted free or (``beside[i]``) beside a fixed element."""
    for s, k in _sk_grid(grid):
        los = [_least_size(s, k, b) for b in beside]
        if max(los) > grid.max_size:
            what = "circle size" if len(los) == 1 else "size pair"
            spans = " x ".join(f"[{lo}, {grid.max_size}]" for lo in los)
            yield check, {"s": s, "k": k}, f"no {what} in {spans}"
            continue
        for sizes in itertools.product(
                *(range(lo, grid.max_size + 1) for lo in los)):
            # each key set sorts into its report order: n; n1, n2; m, n
            yield check, dict(sorted(zip(keys, sizes)), s=s, k=k), None


def _gen_systems(grid: SweepGrid, check: str, first_beside: bool,
                 rest_beside: bool):
    """Size tuples for p in {2, 3}: the first size runs up from the least one
    admitted free or (``first_beside``) beside a fixed element, the others
    from the least one for ``rest_beside``.  Equal bounds give multisets;
    unequal ones give every ordered tail after each first size.  Tuples with
    no circle of size s*k+1 or more are skipped."""
    for s, k in _sk_grid(grid):
        lo = _least_size(s, k)
        first_lo = _least_size(s, k, first_beside)
        rest = range(_least_size(s, k, rest_beside), grid.max_size + 1)
        for p in (2, 3):
            if first_lo > grid.max_size:
                yield check, {"p": p, "s": s, "k": k}, \
                    f"no circle size in [{first_lo}, {grid.max_size}]"
                continue
            if first_beside == rest_beside:
                tuples = itertools.combinations_with_replacement(rest, p)
            else:
                tuples = itertools.product(range(first_lo, grid.max_size + 1),
                                           *[rest] * (p - 1))
            for sizes in tuples:
                yield check, {"sizes": sizes, "s": s, "k": k}, (
                    None if max(sizes) >= lo else f"no circle reaches s*k+1 = {lo}")


def _points(grid: SweepGrid):  # grid_points, one point at a time
    for check in grid.checks:
        generator, args, _ = _CHECKS[check]
        yield from generator(grid, check, *args)


def grid_points(grid: SweepGrid) -> list[tuple[str, dict, str | None]]:
    """All parameter points of the selected checks, in canonical order."""
    return list(_points(grid))


# ---------------------------------------------------------------------------
# per-point evaluation (pure; runs in worker processes)


def _oracle_count(sizes, s, k) -> int:
    """The number of s-separated k-selections on ``sizes``, by enumeration."""
    return count_by_enumeration(EnumerationRequest(
        CircleSystem(tuple(sizes)), SeparationParams(s, k)))


def _tally(request: EnumerationRequest) -> Counter:
    """The number of selections through each (circle, position) pair, in one
    pass over the search's items: each run ``(c, lo, hi)`` marks its ends in
    circle c's difference row, each pick of a prefix gets the item's summed
    run lengths, and one running sum per circle adds the rows up."""
    rows = [[0] * (n + 2) for n in (0, *request.system.sizes)]
    picks = [[0] * (n + 1) for n in (0, *request.system.sizes)]
    for prefix, runs in selection_runs(request):
        total = 0
        for c, lo, hi in runs:
            total += hi - lo + 1
            row = rows[c]
            row[lo] += 1
            row[hi + 1] -= 1
        for c, q in prefix:
            picks[c][q] += total
    buckets = Counter()
    for c in range(1, len(rows)):
        row, got = rows[c], picks[c]
        for q in range(1, len(got)):
            row[q] += row[q - 1]
            buckets[c, q] = got[q] + row[q]
    return buckets


def _buckets(sizes, s, k, closed_on: dict):
    """Compare, for every element of each circle in ``closed_on`` (circle ->
    its closed form, at least one), the closed form with the number of
    s-separated k-selections through that element (``_tally``)."""
    buckets = _tally(EnumerationRequest(
        CircleSystem(tuple(sizes)), SeparationParams(s, k)))
    for c, closed in closed_on.items():
        for a in range(1, sizes[c - 1] + 1):
            got = buckets[c, a]
            if got != closed:
                return closed, got, (f"fixed={a}@{c}: enumeration {got}, "
                                     f"closed form {closed}")
    return closed, closed


def _fixed_sum(op: str, m: int, n: int, s: int, k: int, factor):
    """``sum_{j=0}^{k-1} C(n - s*(k-j) - 1, k-j-1) * factor(j)`` against
    ``C(m + n - s*k - 1, k - 1)``, naming the first non-integer term."""
    _check_bounds(op, s, k, (n, m), fixed=1, names=("n", "m"))
    terms = [binomial(n - s * (k - j) - 1, k - j - 1) * factor(j)
             for j in range(k)]
    bad_term = next((f"term j={j} is {term}, not an integer"
                     for j, term in enumerate(terms) if term.denominator != 1), "")
    return sum(terms), binomial(m + n - s * k - 1, k - 1), bad_term


def _eval_circle(n, s, k):
    return count_circle(n, s, k), _oracle_count([n], s, k)


def _eval_circle_fixed(n, s, k):
    return _buckets([n], s, k, {1: count_circle_fixed(n, s, k)})


def _eval_system(sizes, s, k):
    return count_system(CircleSystem(tuple(sizes)), s, k), _oracle_count(sizes, s, k)


def _eval_system_fixed(sizes, s, k):
    system = CircleSystem(tuple(sizes))
    # the closed form is the same for every element of circle c; where no circle
    # admits it (a point the grid skips), the largest circle's raises DomainError
    lo = min(_least_size(s, k), max(sizes))
    return _buckets(sizes, s, k, {c: count_system_fixed(system, s, k, Element(1, c))
                                  for c, n in enumerate(sizes, 1) if n >= lo})


def _eval_recursion(sizes, s, k):
    system = CircleSystem(tuple(sizes))
    return (count_system_fixed_recursive(system, s, k),
            count_system_fixed(system, s, k, Element(1, 1)))


def _eval_convolution(n1, n2, s, k):
    system = CircleSystem((n1, n2))
    return count_system(system, s, k), count_system_convolution(system, s, k)


def _eval_fixed_sum(m, n, s, k):
    return _fixed_sum("fixed-sum identity", m, n, s, k,
                      lambda j: count_circle(m, s, j))


def _eval_fixed_sum_printed(m, n, s, k):
    from fractions import Fraction
    return _fixed_sum("printed fixed-sum variant", m, n, s, k,
                      lambda j: Fraction(m, m - s * j) * binomial(m - s * j, j - 1))


def _eval_bijection(n1, n2, s, k):
    failures = check_bijectivity(CircleSystem((n1, n2)), s, k).failures
    return len(failures), 0, failures[0] if failures else ""


def _eval_double_count(sizes, s, k):
    system = CircleSystem(tuple(sizes))
    return (k * count_system(system, s, k),
            system.total * count_system_fixed(system, s, k, Element(1, 1)))


def _eval_divisibility(n, s, k):
    # (n - s*k) divides n * C(n - s*k, k), and k divides n * C(n - s*k - 1, k - 1):
    # the two exact divisions performed by the closed forms
    _check_bounds("divisibility check", s, k, (n,), fixed=1, names=("n",))
    rem_free = (n * binomial(n - s * k, k)) % (n - s * k)
    rem_fixed = (n * binomial(n - s * k - 1, k - 1)) % k
    return rem_free + rem_fixed, 0, "" if rem_free + rem_fixed == 0 else (
        f"remainders: free form {rem_free}, fixed form {rem_fixed}")


# ---------------------------------------------------------------------------
# the check registry: name -> (grid generator, its extra arguments, evaluator
# returning (left, right) or (left, right, counterexample)), in canonical order

_N_M = (("n", "m"), (False, True))  # the fixed element's circle, then the other

_CHECKS = {
    # closed single-circle count vs enumeration
    "circle": (_gen_named, (("n",), (False,)), _eval_circle),
    # fixed-element count vs enumeration, every rotation
    "circle-fixed": (_gen_named, (("n",), (False,)), _eval_circle_fixed),
    # closed multi-circle count vs enumeration
    "system": (_gen_systems, (False, False), _eval_system),
    # fixed-element system count vs enumeration, every element
    "system-fixed": (_gen_systems, (True, True), _eval_system_fixed),
    # one-circle-at-a-time recomputation vs direct fixed count
    "recursion": (_gen_systems, (False, True), _eval_recursion),
    # polynomial product of single-circle counts vs direct free count
    "convolution": (_gen_named, (("n1", "n2"), (False, False)), _eval_convolution),
    # two-circle fixed-element sum identity (corrected)
    "fixed-sum": (_gen_named, _N_M, _eval_fixed_sum),
    # the misprinted variant, reported for documentation
    "fixed-sum-printed": (_gen_named, _N_M, _eval_fixed_sum_printed),
    # exhaustive forward/backward round trip per point
    "bijection": (_gen_named, (("n1", "n2"), (False, True)), _eval_bijection),
    # k * free count == N * fixed count
    "double-count": (_gen_systems, (False, False), _eval_double_count),
    # the divisors in the closed forms divide exactly
    "divisibility": (_gen_named, (("n",), (False,)), _eval_divisibility),
}

CHECKS = tuple(_CHECKS)


class SweepGrid(_Record):
    """Grid bounds and execution hints for ``verify_all``.

    Sweeps run s in ``1..max_s``, k in ``1..max_k``, and circle sizes up to
    ``max_size`` (lower bounds follow each check's precondition).
    """

    __slots__ = ("max_size", "max_k", "max_s", "checks", "jobs")

    def __init__(self, max_size: int = 10, max_k: int = 3, max_s: int = 2,
                 checks: tuple[str, ...] = CHECKS, jobs: int = 1) -> None:
        _require_ints("SweepGrid", 1, max_size=max_size, max_k=max_k,
                      max_s=max_s, jobs=jobs)
        if isinstance(checks, str):
            raise ValueError(f"checks takes check names, not a string: {checks!r}")
        checks = tuple(checks)  # read once: an iterator has no second pass
        if not checks:
            raise ValueError("at least one check is required")
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                             f"available: {', '.join(CHECKS)}")
        _setattr(self, "max_size", max_size)
        _setattr(self, "max_k", max_k)
        _setattr(self, "max_s", max_s)
        _setattr(self, "checks", tuple(c for c in CHECKS if c in set(checks)))
        _setattr(self, "jobs", jobs)


def evaluate_point(point: tuple) -> IdentityReport:
    """Evaluate one point of ``grid_points``; the one place reports are built."""
    check, params, skip_reason = point
    if skip_reason is not None:
        return IdentityReport(check, params, skipped=True, reason=skip_reason)
    left, right, *counterexample = map(str, _CHECKS[check][2](**params))
    return IdentityReport(check, params, left, right, passed=left == right,
                          counterexample="".join(counterexample))


def _batch(points: list) -> list[IdentityReport]:
    """One pool task: the reports of ``CHUNK`` points or fewer, in order."""
    return list(map(evaluate_point, points))


def _orphan_exits() -> None:
    """Pool worker start-up: a worker whose parent is gone exits quietly, at
    its next write to it (SIGPIPE's default, where there is one), or within
    0.1 s if it waits on a lock that such a worker died holding."""
    import signal
    import threading
    import time
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def sweep(grid: SweepGrid):
    """Yield the grid's reports in canonical order as they are evaluated: here,
    or by a pool of ``jobs`` workers (at most one per CPU this process may run
    on, as all start at once), which reads points a batch at a time, with at
    most 2 * jobs batches in flight, so a reader that stalls stalls the grid
    and no report piles up; ``close`` ends it."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    jobs = min(grid.jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)
    points = _points(grid)
    if jobs == 1:
        yield from map(evaluate_point, points)
        return
    from multiprocessing import Pool
    with Pool(jobs, _orphan_exits) as pool:
        inflight = deque()
        for batch in iter(lambda: list(itertools.islice(points, CHUNK)), []):
            inflight.append(pool.apply_async(_batch, (batch,)))
            if len(inflight) == 2 * jobs:
                yield from inflight.popleft().get()
        while inflight:
            yield from inflight.popleft().get()


def verify_all(grid: SweepGrid) -> list[IdentityReport]:
    """``sweep(grid)``'s reports, as a list."""
    return list(sweep(grid))


def overall_pass(reports) -> bool:
    """True unless some report's status (``_status``) is ``FAIL``."""
    return not any(_status(r) == "FAIL" for r in reports)


def _status(report: IdentityReport) -> str:
    return ("SKIP" if report.skipped else "PASS" if report.passed
            else "XFAIL" if report.check in DOCUMENTATION_CHECKS else "FAIL")


def json_line(report: IdentityReport) -> str:
    return json.dumps(report.as_dict(), separators=(",", ":")) + "\n"


def table_line(report: IdentityReport, status: str) -> str:
    params = " ".join(
        f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for key, v in report.params.items())
    detail = report.reason if report.skipped else f"{report.left} vs {report.right}"
    if report.counterexample:
        detail += f" [{report.counterexample}]"
    return f"{status:5} {report.check:17} {params:28} {detail}\n"


def summary_line(counts: Counter) -> str:
    """The table's last line, from the number of reports per ``_status``."""
    return (f"result: {'FAIL' if counts['FAIL'] else 'PASS'} ({sum(counts.values())} "
            f"points: {counts['PASS']} passed, {counts['FAIL']} failed, "
            f"{counts['XFAIL']} expected failures, {counts['SKIP']} skipped)\n")


def report_lines(reports, fmt: str, counts: Counter):
    """Each report's ``fmt`` line (text or json) as it comes, its ``_status``
    counted in ``counts``; a text table ends with ``summary_line``."""
    for report in reports:
        counts[status := _status(report)] += 1
        yield table_line(report, status) if fmt == "text" else json_line(report)
    if fmt == "text":
        yield summary_line(counts)


def to_json_lines(reports) -> str:
    return "".join(report_lines(reports, "json", Counter()))


def render_table(reports) -> str:
    """Fixed-layout human-readable table with a trailing summary line."""
    return "".join(report_lines(reports, "text", Counter()))
