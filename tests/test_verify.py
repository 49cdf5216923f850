import hashlib
import itertools
import json
import multiprocessing
import os
import random
import time

import pytest

from circsep import verify
from circsep.core import DomainError
from circsep.verify import (CHECKS, DOCUMENTATION_CHECKS, IdentityReport,
                            SweepGrid, evaluate_point, grid_points,
                            overall_pass, render_table, sweep, to_json_lines,
                            verify_all, verify_convolution_identity,
                            verify_fixed_sum_identity, verify_fixed_sum_printed)


# ---------------------------------------------------------------------------
# the two-circle sum identities at pinned points


def test_fixed_sum_identity_pinned_point():
    report = verify_fixed_sum_identity(8, 7, 2, 3)
    assert report.passed
    assert report.left == report.right == "28"
    assert report.params == {"m": 8, "n": 7, "s": 2, "k": 3}


def test_fixed_sum_identity_preconditions():
    with pytest.raises(DomainError, match=r"n >= s\*k\+1"):
        verify_fixed_sum_identity(3, 2, 1, 2)  # n = s*k lies outside
    with pytest.raises(DomainError, match=r"m >= s\*k"):
        verify_fixed_sum_identity(1, 5, 2, 2)
    with pytest.raises(DomainError):
        verify_fixed_sum_identity(4, 4, 1, 0)
    for identity in (verify_fixed_sum_identity, verify_fixed_sum_printed):
        with pytest.raises(ValueError, match="requires an integer k"):
            identity(7, 8, 1, 2.0)
        for m, n, name in ((7.0, 8, "m"), (7, 8.0, "n")):
            with pytest.raises(ValueError, match=f"requires an integer {name}") as info:
                identity(m, n, 1, 2)
            assert not isinstance(info.value, DomainError)
    assert verify_fixed_sum_identity(4, 5, 2, 2).passed  # m = s*k, n = s*k+1


def test_fixed_sum_printed_variant_fails_at_pinned_point():
    report = verify_fixed_sum_printed(8, 7, 2, 3)
    assert not report.passed
    assert report.left == "32/3"
    assert report.right == "28"
    assert "term j=1 is 8/3, not an integer" in report.counterexample
    assert report.check in DOCUMENTATION_CHECKS


def test_fixed_sum_printed_variant_can_pass_by_coincidence():
    # the misprint is reported as evaluated, not hardwired to fail
    report = verify_fixed_sum_printed(2, 3, 1, 2)
    assert report.passed
    assert report.left == report.right == "2"


def test_convolution_identity_pinned_point():
    report = verify_convolution_identity(7, 8, 2, 3)
    assert report.passed
    assert report.left == report.right == "140"


def test_convolution_identity_propagates_domain_errors():
    with pytest.raises(DomainError):
        verify_convolution_identity(4, 9, 2, 2)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_validation():
    with pytest.raises(ValueError, match="unknown checks"):
        SweepGrid(checks=("circle", "nonsense"))
    with pytest.raises(ValueError):
        SweepGrid(jobs=0)
    with pytest.raises(ValueError):
        SweepGrid(max_size=0)
    with pytest.raises(ValueError, match="at least one check"):
        SweepGrid(checks=())  # an empty sweep would pass vacuously
    for bounds in ({"max_size": 4.5}, {"max_k": 2.0}, {"max_s": "2"}, {"jobs": 2.0}):
        with pytest.raises(ValueError, match="SweepGrid requires an integer"):
            SweepGrid(**bounds)
    with pytest.raises(ValueError, match="check names, not a string"):
        SweepGrid(checks="circle")  # would otherwise be read letter by letter


def test_grid_reads_an_iterator_of_checks_once():
    # the name check must not use up the only pass over the checks
    grid = SweepGrid(checks=(c for c in ["circle"]))
    assert grid.checks == ("circle",)
    assert verify_all(grid)
    with pytest.raises(ValueError, match="at least one check"):
        SweepGrid(checks=iter([]))


def test_grid_normalizes_check_order():
    grid = SweepGrid(checks=("bijection", "circle"))
    assert grid.checks == ("circle", "bijection")


def test_grid_points_deterministic_and_filtered():
    grid = SweepGrid(max_size=6, max_k=2, max_s=1, checks=("circle", "fixed-sum"))
    points = grid_points(grid)
    assert points == grid_points(grid)
    assert {check for check, _, _ in points} == {"circle", "fixed-sum"}


def test_evaluate_point_passes_skip_reason_through():
    report = evaluate_point(("circle", {"s": 9, "k": 9}, "out of range"))
    assert report.skipped
    assert report.reason == "out of range"
    assert not report.passed


def test_a_system_fixed_point_with_no_circle_at_s_k_plus_1_raises():
    # the grid skips these sizes; evaluated without its reason, the largest
    # circle's closed form refuses them
    with pytest.raises(DomainError, match="n_1 >= s\\*k\\+1 on the fixed element"):
        evaluate_point(("system-fixed", {"sizes": (2, 2, 1), "s": 1, "k": 2}, None))


@pytest.mark.parametrize("params, message", [
    # n - s*k = 0 and k = 0, the two divisors, which the grid never reaches
    ({"n": 2, "s": 1, "k": 2}, r"n >= s\*k\+1 on the fixed element's circle"),
    ({"n": 5, "s": 1, "k": 0}, r"k >= 1"),
])
def test_a_divisibility_point_with_a_zero_divisor_raises(params, message):
    with pytest.raises(DomainError, match=message):
        evaluate_point(("divisibility", params, None))


@pytest.mark.parametrize("grid", [SweepGrid(), SweepGrid(max_size=4, max_k=3, max_s=2)],
                         ids=["default", "skips"])
def test_skips_and_params_come_from_the_grid(grid):
    points = grid_points(grid)
    reports = verify_all(grid)
    assert len(reports) == len(points)
    for (check, params, reason), report in zip(points, reports):
        assert report.check == check
        # a report is skipped exactly when its point carries a reason
        assert report.skipped == (reason is not None), (check, params)
        # and keeps its point's params, in the grid's key order
        assert list(report.params) == list(params), (check, params)
        assert report.params == params


def test_each_public_identity_is_its_grid_check():
    identities = {"convolution": verify_convolution_identity,
                  "fixed-sum": verify_fixed_sum_identity,
                  "fixed-sum-printed": verify_fixed_sum_printed}
    points = grid_points(SweepGrid(max_size=8, max_k=3, max_s=2,
                                   checks=tuple(identities)))
    assert {check for check, _, _ in points} == set(identities)
    assert all(reason is None for _, _, reason in points)
    for point in points:
        check, params, _ = point
        assert identities[check](**params) == evaluate_point(point), point


def test_system_fixed_names_the_circle_whose_closed_form_is_wrong(monkeypatch):
    count_system_fixed = verify.count_system_fixed

    def off_on_circle_2(system, s, k, fixed):
        return count_system_fixed(system, s, k, fixed) + (fixed.circle == 2)

    monkeypatch.setattr(verify, "count_system_fixed", off_on_circle_2)
    report = evaluate_point(("system-fixed", {"sizes": (5, 5), "s": 1, "k": 2},
                             None))
    assert not report.passed
    assert report.counterexample.startswith("fixed=1@2: ")


@pytest.mark.parametrize("closed_form, check, shifted_side", [
    ("count_circle", "circle", "left"),
    ("count_circle_fixed", "circle-fixed", "left"),
    ("count_system", "system", "left"),
    ("count_system_convolution", "convolution", "right"),
])
def test_a_shifted_closed_form_fails_its_check(monkeypatch, closed_form, check,
                                               shifted_side):
    # verify reads the closed forms through its own module globals, identities
    # held in the registry included
    closed = getattr(verify, closed_form)
    monkeypatch.setattr(verify, closed_form, lambda *args: closed(*args) + 1)
    reports = [r for r in verify_all(SweepGrid(max_size=6, max_k=2, max_s=1,
                                               checks=(check,)))
               if not r.skipped]
    assert reports and not any(r.passed for r in reports)
    for r in reports:
        shifted, other = ((r.left, r.right) if shifted_side == "left"
                          else (r.right, r.left))
        assert int(shifted) == int(other) + 1, (r.params, r.left, r.right)
        if check == "circle-fixed":
            assert r.counterexample.startswith("fixed=1@1: enumeration")


SYSTEM_CHECKS = SweepGrid(max_size=7, max_k=2, max_s=2,
                          checks=("system", "system-fixed"))


def _wrap_walks(monkeypatch, drop_first_of=None):
    """Record the (sizes, s, k) of every search verify starts, for a bucket
    tally or for a count; the search of ``drop_first_of`` loses its first
    selection."""
    selection_runs = verify.selection_runs
    count_by_enumeration = verify.count_by_enumeration
    walks = []

    def record(request):
        key = (request.system.sizes, request.params.s, request.params.k)
        walks.append(key)
        return key == drop_first_of

    def wrapped(request):
        runs = selection_runs(request)
        if record(request):  # the first item's first run loses its first position
            prefix, ((c, lo, hi), *rest) = next(runs)
            first = ((c, lo + 1, hi),) if lo < hi else ()
            runs = itertools.chain([(prefix, first + tuple(rest))], runs)
        return runs

    def counted(request):
        return count_by_enumeration(request) - record(request)

    monkeypatch.setattr(verify, "selection_runs", wrapped)
    monkeypatch.setattr(verify, "count_by_enumeration", counted)
    return walks


def test_every_system_point_runs_its_own_search(monkeypatch):
    walks = _wrap_walks(monkeypatch)
    first = verify_all(SYSTEM_CHECKS)
    assert overall_pass(first)
    # one search per evaluated point of either check, for its own parameters
    evaluated = [r for r in first if not r.skipped]
    assert {r.check for r in evaluated} == {"system", "system-fixed"}
    assert sorted(walks) == sorted((r.params["sizes"], r.params["s"], r.params["k"])
                                   for r in evaluated)
    # a second call starts the same searches
    searches = list(walks)
    walks.clear()
    assert verify_all(SYSTEM_CHECKS) == first
    assert walks == searches
    # and a bare evaluation starts one
    walks.clear()
    params = {"sizes": (5, 5), "s": 1, "k": 2}
    assert evaluate_point(("system", params, None)).passed
    assert walks == [((5, 5), 1, 2)]


def test_a_search_one_short_fails_both_system_checks_at_its_point(monkeypatch):
    _wrap_walks(monkeypatch, drop_first_of=((5, 5), 1, 2))
    failing = [r for r in verify_all(SYSTEM_CHECKS)
               if not r.skipped and not r.passed]
    assert [(r.check, r.params) for r in failing] == [
        ("system", {"sizes": (5, 5), "s": 1, "k": 2}),
        ("system-fixed", {"sizes": (5, 5), "s": 1, "k": 2})]
    system, fixed = failing
    # closed forms on the left, enumeration (one selection short) on the right
    assert (system.left, system.right) == ("35", "34")
    assert (fixed.left, fixed.right) == ("7", "6")
    assert fixed.counterexample.startswith("fixed=1@1: enumeration 6")


# ---------------------------------------------------------------------------
# a full small sweep


@pytest.fixture(scope="module")
def small_sweep():
    return verify_all(SweepGrid(max_size=7, max_k=2, max_s=2))


def test_sweep_covers_every_check(small_sweep):
    assert {r.check for r in small_sweep} == set(CHECKS)


def test_sweep_passes_overall(small_sweep):
    assert overall_pass(small_sweep)
    for r in small_sweep:
        if not r.skipped and r.check not in DOCUMENTATION_CHECKS:
            assert r.passed, (r.check, r.params, r.left, r.right, r.counterexample)


def test_sweep_pass_flag_means_left_equals_right(small_sweep):
    for r in small_sweep:
        if not r.skipped:
            assert r.passed == (r.left == r.right)


def test_sweep_skips_carry_reasons(small_sweep):
    skipped = [r for r in small_sweep if r.skipped]
    assert skipped
    assert all(r.reason for r in skipped)
    assert any(r.check == "system-fixed" and "s*k+1" in r.reason for r in skipped)


def test_sweep_documents_the_misprint(small_sweep):
    printed = [r for r in small_sweep if r.check == "fixed-sum-printed"]
    failing = [r for r in printed if not r.skipped and not r.passed]
    assert failing  # the misprint does fail somewhere on this grid
    assert all(r.counterexample for r in failing
               if "/" in r.left)  # non-integer sums name the bad term


def test_documentation_failures_do_not_block(small_sweep):
    fabricated = [IdentityReport(check="fixed-sum-printed", params={},
                                 left="1", right="2")]
    assert overall_pass(fabricated)
    assert not overall_pass([IdentityReport(check="circle", params={},
                                            left="1", right="2")])


# ---------------------------------------------------------------------------
# serialization


def test_json_lines_shape(small_sweep):
    text = to_json_lines(small_sweep)
    lines = text.splitlines()
    assert len(lines) == len(small_sweep)
    first = json.loads(lines[0])
    assert list(first.keys()) == ["check", "params", "left", "right", "pass",
                                  "skipped", "reason", "counterexample"]
    for line in lines:
        json.loads(line)


def test_as_dict_turns_size_tuples_into_lists(small_sweep):
    system_reports = [r for r in small_sweep
                      if r.check == "system" and "sizes" in r.params]
    assert system_reports
    dumped = system_reports[0].as_dict()
    assert isinstance(dumped["params"]["sizes"], list)


def test_render_table(small_sweep):
    table = render_table(small_sweep)
    lines = table.splitlines()
    assert len(lines) == len(small_sweep) + 1
    assert lines[-1].startswith("result: PASS")
    assert any(line.startswith("XFAIL") for line in lines)
    assert any(line.startswith("SKIP") for line in lines)


def test_render_table_reads_a_stream_once():
    # one pass writes the rows and the verdict: a failing row ends in FAIL
    reports = [IdentityReport(check="circle", params={}, left="1", right="1",
                              passed=True),
               IdentityReport(check="circle", params={}, left="1", right="2")]
    table = render_table(r for r in reports)
    assert table == render_table(reports)
    assert table.splitlines()[-1].startswith("result: FAIL (2 points: 1 passed, 1 failed")
    assert to_json_lines(r for r in reports) == to_json_lines(reports)


# ---------------------------------------------------------------------------
# parallel evaluation is invisible in the output


def test_job_count_does_not_change_reports():
    grid1 = SweepGrid(max_size=6, max_k=2, max_s=1, jobs=1)
    grid3 = SweepGrid(max_size=6, max_k=2, max_s=1, jobs=3)
    assert to_json_lines(verify_all(grid1)) == to_json_lines(verify_all(grid3))


def test_points_evaluate_alike_in_any_order():
    # what lets a pool, or any split of the grid into chunks, run them
    grid = SweepGrid(max_size=7, max_k=2, max_s=2,
                     checks=("circle-fixed", "system", "system-fixed"))
    points = grid_points(grid)
    order = list(range(len(points)))
    random.Random(0).shuffle(order)
    reports = [None] * len(points)
    for i in order:
        reports[i] = evaluate_point(points[i])
    assert reports == verify_all(grid)


def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch):
    # a stand-in pool that maps in process: no worker process is started by
    # this test, whatever job count it asks for
    started = []

    class Done:
        def __init__(self, pool, value):
            self.pool, self.value = pool, value

        def get(self):
            self.pool.inflight -= 1
            return self.value

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)
            self.processes, self.inflight = processes, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            (batch,) = args  # the points are read a batch at a time
            if len(started) == 1:
                started.append(len(batch))
            assert 0 < len(batch) <= verify.CHUNK
            self.inflight += 1
            assert self.inflight <= 2 * self.processes
            return Done(self, fn(batch))

    # sweep imports the name from multiprocessing when a pool starts
    monkeypatch.setattr("multiprocessing.Pool", InlinePool)
    # three CPUs, by either count verify may read
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    small = dict(max_size=6, max_k=2, max_s=1)
    expected = to_json_lines(verify_all(SweepGrid(**small)))

    def pool_shape(jobs):
        started.clear()
        assert to_json_lines(verify_all(SweepGrid(**small, jobs=jobs))) == expected
        return started

    for jobs, workers in ((2, 2), (3, 3), (4, 3), (100_000, 3)):
        assert pool_shape(jobs) == [workers, verify.CHUNK]
    # one CPU: no pool, the points run in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_shape(100_000) == []
    # without the process's CPU set, the machine's count, or one when unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_shape(100_000) == [2, verify.CHUNK]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_shape(100_000) == []


def test_pool_reads_the_grid_as_it_goes_and_stops_on_close(monkeypatch):
    # 114,435 points: the first report comes long before the pool has read
    # them all, and closing the sweep ends its workers at once
    pulled = 0
    points = verify._points

    def counted(grid):
        nonlocal pulled
        for point in points(grid):
            pulled += 1
            yield point

    monkeypatch.setattr(verify, "_points", counted)
    grid = SweepGrid(max_size=24, max_k=3, max_s=2, jobs=2)
    reports = sweep(grid)
    first = next(reports)
    assert pulled < 114_435 // 4
    assert first == evaluate_point(next(points(grid)))
    reports.close()
    assert multiprocessing.active_children() == []


def test_a_stalled_reader_stalls_the_pool(monkeypatch):
    # the pool keeps at most 2 * jobs batches of CHUNK points in flight, so a
    # reader that stops after one report leaves the rest of the grid unread
    # and no report piles up behind it
    pulled = 0
    points = verify._points

    def counted(grid):
        nonlocal pulled
        for point in points(grid):
            pulled += 1
            yield point

    monkeypatch.setattr(verify, "_points", counted)
    jobs = 2
    reports = sweep(SweepGrid(max_size=24, max_k=3, max_s=2, jobs=jobs))
    try:
        next(reports)
        time.sleep(1)
        assert pulled <= (2 * jobs + 1) * verify.CHUNK
    finally:
        reports.close()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the bytes of the default sweep


@pytest.mark.parametrize("grid, skipping, digests", [
    (SweepGrid(), {"system-fixed"}, [
        "aaf5ff6d8d0d7dc5e31f8c1a6f292c87f265c7b242cd78e2489e395c3ee901a9",
        "e5473a636a42a27fefafc06293a2e5211815426af46e013c1e58f69b6df0374b",
    ]),
    # small enough that every check's grid generator takes its skip branch
    (SweepGrid(max_size=4, max_k=3, max_s=2), set(CHECKS), [
        "c22ac764baa237d7a3c71d15ef59772ac1f57a6b1d8dac0401eec8df4fa74b1a",
        "de5b92aa8fb87e1eb7ea3cdc2b76a21f37ddef9c2959459a634ee1a953e934c4",
    ]),
], ids=["default", "skips"])
def test_default_sweep_bytes_are_pinned(grid, skipping, digests):
    reports = verify_all(grid)
    assert {r.check for r in reports if r.skipped} == skipping
    assert [hashlib.sha256(text.encode()).hexdigest()
            for text in (render_table(reports), to_json_lines(reports))] == digests
