import hashlib
import json

import pytest

from circsep import verify
from circsep.core import DomainError
from circsep.verify import (CHECKS, DOCUMENTATION_CHECKS, IdentityReport,
                            SweepGrid, evaluate_point, grid_points,
                            overall_pass, render_table, to_json_lines,
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
    with pytest.raises(ValueError, match="check names, not a string"):
        SweepGrid(checks="circle")  # would otherwise be read letter by letter


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
    """Record the (sizes, s, k) of every search verify starts; the walk of
    ``drop_first_of`` loses its first selection."""
    selection_keys = verify.selection_keys
    walks = []

    def wrapped(request):
        key = (request.system.sizes, request.params.s, request.params.k)
        walks.append(key)
        keys = selection_keys(request)
        if key == drop_first_of:
            next(keys)
        return keys

    monkeypatch.setattr(verify, "selection_keys", wrapped)
    return walks


def test_system_checks_share_one_walk_per_size_tuple_within_a_call(monkeypatch):
    walks = _wrap_walks(monkeypatch)
    first = verify_all(SYSTEM_CHECKS)
    tuples = {(r.params["sizes"], r.params["s"], r.params["k"])
              for r in first if not r.skipped}
    assert len(walks) == len(set(walks)) == len(tuples)
    assert overall_pass(first)
    # nothing carries over into the next call
    assert verify_all(SYSTEM_CHECKS) == first
    assert len(walks) == 2 * len(tuples)
    # nor into a bare evaluation of a point the sweep has seen
    params = {"sizes": (5, 5), "s": 1, "k": 2}
    assert evaluate_point(("system", params, None)).passed
    assert walks[-1] == ((5, 5), 1, 2) and len(walks) == 2 * len(tuples) + 1


def test_shared_walk_is_still_the_oracle_for_both_system_checks(monkeypatch):
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


# ---------------------------------------------------------------------------
# parallel evaluation is invisible in the output


def test_job_count_does_not_change_reports():
    grid1 = SweepGrid(max_size=6, max_k=2, max_s=1, jobs=1)
    grid3 = SweepGrid(max_size=6, max_k=2, max_s=1, jobs=3)
    assert to_json_lines(verify_all(grid1)) == to_json_lines(verify_all(grid3))


# ---------------------------------------------------------------------------
# the bytes of the default sweep


def test_default_sweep_bytes_are_pinned():
    reports = verify_all(SweepGrid())
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (render_table(reports), to_json_lines(reports))]
    assert digests == [
        "aaf5ff6d8d0d7dc5e31f8c1a6f292c87f265c7b242cd78e2489e395c3ee901a9",
        "e5473a636a42a27fefafc06293a2e5211815426af46e013c1e58f69b6df0374b",
    ]
