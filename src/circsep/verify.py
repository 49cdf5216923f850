"""Sweep harness: grind every identity against the enumeration oracle.

``verify_all`` walks a parameter grid and evaluates a family of named checks,
one report per parameter point.  Each report compares a left and a right value
(exact decimal strings) and passes exactly when they are equal; points whose
parameters fall outside a check's precondition become skipped entries with a
reason, never silent gaps, so grid coverage stays auditable.

The ``fixed-sum-printed`` check is documentation: it evaluates a widely
circulated but misprinted variant of the fixed-element sum (binomial exponent
``j - 1`` instead of ``j`` in the second factor) and records that it fails.
Its failures are expected and do not count against the overall verdict.

Every evaluator takes a point's parameters as keywords.  Evaluation is
embarrassingly parallel over points and every check is a pure function of its
parameters, so reports are assembled in canonical grid order regardless of how
many worker processes ran them; output for a fixed grid is byte-identical for
any job count.  With one job, ``verify_all`` evaluates the points in reverse
grid order and keeps, for that call only, the length of each ``system-fixed``
walk in a dict (ints, not buckets, so memory stays flat), passed only to the
two ``system`` checks: ``_bucket_report`` stores a walk's count there, and
``_oracle_count`` takes it for the ``system`` point of the same size tuple
instead of walking the same family again.  A pool of workers and a bare
``evaluate_point`` share no walks.  The pool's module is imported only when a
pool runs.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass

from .bijection import check_bijectivity
from .core import (CircleSystem, Element, SeparationParams, _check_bounds,
                   _least_size, _require_ints)
from .counting import (binomial, count_circle, count_circle_fixed, count_system,
                       count_system_convolution, count_system_fixed,
                       count_system_fixed_recursive)
from .enumeration import EnumerationRequest, count_by_enumeration, selection_runs

DOCUMENTATION_CHECKS = frozenset({"fixed-sum-printed"})


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """One evaluated (or skipped) parameter point of one check."""

    check: str
    params: dict
    left: str = ""
    right: str = ""
    passed: bool = False
    skipped: bool = False
    reason: str = ""
    counterexample: str = ""

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


def _report(check: str, params: dict, left, right,
            counterexample: str = "") -> IdentityReport:
    left_s, right_s = str(left), str(right)
    return IdentityReport(check=check, params=params, left=left_s, right=right_s,
                          passed=left_s == right_s, counterexample=counterexample)


def _skipped(check: str, params: dict, reason: str) -> IdentityReport:
    return IdentityReport(check=check, params=params, skipped=True, reason=reason)


# ---------------------------------------------------------------------------
# the named identities


def _fixed_sum(check: str, op: str, m: int, n: int, s: int, k: int,
               factor) -> IdentityReport:
    """``sum_{j=0}^{k-1} C(n - s*(k-j) - 1, k-j-1) * factor(j)`` against
    ``C(m + n - s*k - 1, k - 1)``, naming the first non-integer term."""
    _check_bounds(op, s, k, (n, m), fixed=1, names=("n", "m"))
    terms = [binomial(n - s * (k - j) - 1, k - j - 1) * factor(j)
             for j in range(k)]
    bad_term = next((f"term j={j} is {term}, not an integer"
                     for j, term in enumerate(terms) if term.denominator != 1), "")
    return _report(check, {"m": m, "n": n, "s": s, "k": k}, sum(terms),
                   binomial(m + n - s * k - 1, k - 1), counterexample=bad_term)


def verify_fixed_sum_identity(m: int, n: int, s: int, k: int) -> IdentityReport:
    """Fixed-element count of a two-circle system as a sum over how many
    elements land on the circle of size m:

        sum_{j=0}^{k-1} C(n - s*(k-j) - 1, k-j-1) * count_circle(m, s, j)
            == C(m + n - s*k - 1, k - 1)

    The fixed element lives on the circle of size n, so the preconditions are
    ``n >= s*k + 1`` and ``m >= s*k`` (with k >= 1).
    """
    return _fixed_sum("fixed-sum", "fixed-sum identity", m, n, s, k,
                      lambda j: count_circle(m, s, j))


def verify_fixed_sum_printed(m: int, n: int, s: int, k: int) -> IdentityReport:
    """The misprinted variant of the fixed-element sum, kept for documentation.

    Uses ``(m / (m - s*j)) * C(m - s*j, j - 1)`` as the second factor; the
    exponent ``j - 1`` makes the factor stop counting j-subsets, and the sum
    generally misses the right-hand side (often it is not even an integer).
    Evaluated on the corrected identity's domain, in exact rational
    arithmetic, and reported as-is.
    """
    from fractions import Fraction
    return _fixed_sum(
        "fixed-sum-printed", "printed fixed-sum variant", m, n, s, k,
        lambda j: Fraction(m, m - s * j) * binomial(m - s * j, j - 1))


def verify_convolution_identity(n1: int, n2: int, s: int, k: int) -> IdentityReport:
    """Free count of a two-circle system as a convolution of single-circle
    counts; requires both sizes >= s*k + 1."""
    params = {"n1": n1, "n2": n2, "s": s, "k": k}
    system = CircleSystem((n1, n2))
    left = count_system(system, s, k)
    right = count_system_convolution(system, s, k)
    return _report("convolution", params, left, right)


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
            yield check, dict(zip(keys, sizes), s=s, k=k), None


def _gen_systems(grid: SweepGrid, check: str, first_beside: bool,
                 rest_beside: bool):
    """Size tuples for p in {2, 3}: the first size runs up from the least one
    admitted free or (``first_beside``) beside a fixed element, the others
    from the least one for ``rest_beside``.  Equal bounds give multisets;
    unequal ones give every ordered tail after each first size."""
    for s, k in _sk_grid(grid):
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
                yield check, {"sizes": sizes, "s": s, "k": k}, None


def grid_points(grid: SweepGrid) -> list[tuple[str, dict, str | None]]:
    """All parameter points of the selected checks, in canonical order."""
    points: list[tuple[str, dict, str | None]] = []
    for check in grid.checks:
        generator, args, _ = _CHECKS[check]
        points.extend(generator(grid, check, *args))
    return points


# ---------------------------------------------------------------------------
# per-point evaluation (pure; runs in worker processes)


def _oracle_count(sizes, s, k, walks=None) -> int:
    """The number of s-separated k-selections on ``sizes``: the count a bucket
    walk of the same ``(sizes, s, k)`` left in ``walks``, or a fresh walk."""
    key = (tuple(sizes), s, k)
    if walks and key in walks:
        return walks.pop(key)
    return count_by_enumeration(EnumerationRequest(
        CircleSystem(key[0]), SeparationParams(s, k)))


def _tally(request: EnumerationRequest) -> Counter:
    """The number of selections through each (circle, position) pair, in one
    pass over the search's items that keeps no selection: an item's summed
    run lengths go to each pick of its prefix, and each distinct
    ``(c, lo, hi)`` adds its number of runs to its positions once."""
    buckets, tails = Counter(), Counter()
    for prefix, runs in selection_runs(request):
        total = 0
        for run in runs:
            total += run[2] - run[1] + 1
            tails[run] += 1
        for pair in prefix:
            buckets[pair] += total
    for (c, lo, hi), runs in tails.items():
        for q in range(lo, hi + 1):
            buckets[c, q] += runs
    return buckets


def _bucket_report(check: str, params: dict, sizes, s, k, closed_on: dict,
                   walks=None) -> IdentityReport:
    """Compare, for every element of each circle in ``closed_on`` (circle ->
    its closed form), the closed form with the number of s-separated
    k-selections through that element (``_tally``).  ``walks``, when given,
    also gets the number of selections under ``(sizes, s, k)``: each fills k
    buckets."""
    buckets = _tally(EnumerationRequest(
        CircleSystem(tuple(sizes)), SeparationParams(s, k)))
    if walks is not None:
        walks[tuple(sizes), s, k] = sum(buckets.values()) // k
    for c, closed in closed_on.items():
        for a in range(1, sizes[c - 1] + 1):
            got = buckets[c, a]
            if got != closed:
                return _report(check, params, closed, got,
                               counterexample=f"fixed={a}@{c}: enumeration {got}, "
                                              f"closed form {closed}")
    return _report(check, params, closed, closed)


def _eval_circle(n, s, k) -> IdentityReport:
    return _report("circle", {"n": n, "s": s, "k": k}, count_circle(n, s, k),
                   _oracle_count([n], s, k))


def _eval_circle_fixed(n, s, k) -> IdentityReport:
    return _bucket_report("circle-fixed", {"n": n, "s": s, "k": k}, [n], s, k,
                          {1: count_circle_fixed(n, s, k)})


def _eval_system(walks=None, *, sizes, s, k) -> IdentityReport:
    return _report("system", {"sizes": sizes, "s": s, "k": k},
                   count_system(CircleSystem(tuple(sizes)), s, k),
                   _oracle_count(sizes, s, k, walks))


def _eval_system_fixed(walks=None, *, sizes, s, k) -> IdentityReport:
    params = {"sizes": sizes, "s": s, "k": k}
    system = CircleSystem(tuple(sizes))
    lo = _least_size(s, k)
    # the closed form is the same for every element of circle c
    closed_on = {c: count_system_fixed(system, s, k, Element(1, c))
                 for c, n in enumerate(sizes, 1) if n >= lo}
    if not closed_on:
        return _skipped("system-fixed", params, f"no circle reaches s*k+1 = {lo}")
    return _bucket_report("system-fixed", params, sizes, s, k, closed_on, walks)


def _eval_recursion(sizes, s, k) -> IdentityReport:
    system = CircleSystem(tuple(sizes))
    return _report("recursion", {"sizes": sizes, "s": s, "k": k},
                   count_system_fixed_recursive(system, s, k),
                   count_system_fixed(system, s, k, Element(1, 1)))


def _eval_bijection(n1, n2, s, k) -> IdentityReport:
    rep = check_bijectivity(CircleSystem((n1, n2)), s, k)
    return _report("bijection", {"n1": n1, "n2": n2, "s": s, "k": k},
                   len(rep.failures), 0,
                   counterexample=rep.failures[0] if rep.failures else "")


def _eval_double_count(sizes, s, k) -> IdentityReport:
    system = CircleSystem(tuple(sizes))
    left = k * count_system(system, s, k)
    right = system.total * count_system_fixed(system, s, k, Element(1, 1))
    return _report("double-count", {"sizes": sizes, "s": s, "k": k}, left, right)


def _eval_divisibility(n, s, k) -> IdentityReport:
    # (n - s*k) divides n * C(n - s*k, k), and k divides n * C(n - s*k - 1, k - 1):
    # the two exact divisions performed by the closed forms
    rem_free = (n * binomial(n - s * k, k)) % (n - s * k)
    rem_fixed = (n * binomial(n - s * k - 1, k - 1)) % k
    return _report("divisibility", {"n": n, "s": s, "k": k}, rem_free + rem_fixed, 0,
                   counterexample="" if rem_free + rem_fixed == 0 else
                   f"remainders: free form {rem_free}, fixed form {rem_fixed}")


# ---------------------------------------------------------------------------
# the check registry: name -> (grid generator, its extra arguments, evaluator),
# in canonical report order

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
    "convolution": (_gen_named, (("n1", "n2"), (False, False)), verify_convolution_identity),
    # two-circle fixed-element sum identity (corrected)
    "fixed-sum": (_gen_named, _N_M, verify_fixed_sum_identity),
    # the misprinted variant, reported for documentation
    "fixed-sum-printed": (_gen_named, _N_M, verify_fixed_sum_printed),
    # exhaustive forward/backward round trip per point
    "bijection": (_gen_named, (("n1", "n2"), (False, True)), _eval_bijection),
    # k * free count == N * fixed count
    "double-count": (_gen_systems, (False, False), _eval_double_count),
    # the divisors in the closed forms divide exactly
    "divisibility": (_gen_named, (("n",), (False,)), _eval_divisibility),
}

CHECKS = tuple(_CHECKS)


@dataclass(frozen=True, slots=True)
class SweepGrid:
    """Grid bounds and execution hints for ``verify_all``.

    Sweeps run s in ``1..max_s``, k in ``1..max_k``, and circle sizes up to
    ``max_size`` (lower bounds follow each check's precondition).
    """

    max_size: int = 10
    max_k: int = 3
    max_s: int = 2
    checks: tuple[str, ...] = CHECKS
    jobs: int = 1

    def __post_init__(self) -> None:
        _require_ints("SweepGrid", 1, max_size=self.max_size, max_k=self.max_k,
                      max_s=self.max_s, jobs=self.jobs)
        if isinstance(self.checks, str):
            raise ValueError(f"checks takes check names, not a string: {self.checks!r}")
        if not self.checks:
            raise ValueError("at least one check is required")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                             f"available: {', '.join(CHECKS)}")
        ordered = tuple(c for c in CHECKS if c in set(self.checks))
        object.__setattr__(self, "checks", ordered)


def evaluate_point(point: tuple) -> IdentityReport:
    """Evaluate one point of ``grid_points``, passing its parameters as
    keywords.  ``verify_all`` appends its walk counts as a fourth item, which
    only ``system`` and ``system-fixed`` receive, so that per-point wrappers
    (perfbench's per-check timing) still see one argument."""
    check, params, skip_reason, *walks = point
    if skip_reason is not None:
        return _skipped(check, params, skip_reason)
    evaluator = _CHECKS[check][2]
    if check in ("system", "system-fixed"):
        return evaluator(*walks, **params)
    return evaluator(**params)


def verify_all(grid: SweepGrid) -> list[IdentityReport]:
    """Evaluate every selected check over the grid; canonical report order.
    The job count is capped at the CPUs this process may run on, since a
    process pool starts all its workers at once; one job runs in this
    process, more in a pool of that many workers."""
    points = grid_points(grid)
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    jobs = min(grid.jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if jobs == 1:
        walks: dict = {}  # dropped on return: nothing outlives this call
        # popped: each report builds its own params, so the grid's go as they are done
        reports = [evaluate_point((*points.pop(), walks)) for _ in range(len(points))]
        return reports[::-1]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(points) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(evaluate_point, points, chunksize=chunk))


def overall_pass(reports) -> bool:
    """True when every evaluated non-documentation report passed."""
    return all(r.passed for r in reports
               if not r.skipped and r.check not in DOCUMENTATION_CHECKS)


def to_json_lines(reports) -> str:
    return "".join(json.dumps(r.as_dict(), separators=(",", ":")) + "\n"
                   for r in reports)


def _status(report: IdentityReport) -> str:
    if report.skipped:
        return "SKIP"
    if report.passed:
        return "PASS"
    return "XFAIL" if report.check in DOCUMENTATION_CHECKS else "FAIL"


def render_table(reports) -> str:
    """Fixed-layout human-readable table with a trailing summary line."""
    lines = []
    for r in reports:
        params = " ".join(
            f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for key, v in r.params.items())
        detail = r.reason if r.skipped else f"{r.left} vs {r.right}"
        if r.counterexample:
            detail += f" [{r.counterexample}]"
        lines.append(f"{_status(r):5} {r.check:17} {params:28} {detail}")
    counts = Counter(_status(r) for r in reports)
    lines.append(
        f"result: {'PASS' if overall_pass(reports) else 'FAIL'} "
        f"({len(reports)} points: {counts.get('PASS', 0)} passed, "
        f"{counts.get('FAIL', 0)} failed, {counts.get('XFAIL', 0)} expected "
        f"failures, {counts.get('SKIP', 0)} skipped)")
    return "\n".join(lines) + "\n"
