import itertools
import tracemalloc
from collections import Counter, defaultdict
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circsep import enumeration
from circsep.core import (CircleSystem, DomainError, Element, SelectionSet,
                          SeparationParams, is_s_separated)
from circsep.counting import (count_circle, count_circle_fixed, count_system,
                              count_system_convolution, count_system_fixed,
                              count_system_fixed_recursive)
from circsep.enumeration import (EnumerationRequest, count_by_enumeration,
                                 enumerate_gap, enumerate_naive, selection_keys,
                                 selection_runs)
from circsep.verify import _tally


def request(sizes, s, k, fixed=None):
    return EnumerationRequest(CircleSystem(tuple(sizes)),
                              SeparationParams(s, k), fixed)


def partitions(total, largest=None):
    """Nonincreasing integer partitions; each one is a multiset of sizes."""
    if total == 0:
        yield ()
        return
    largest = total if largest is None else largest
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# frozen reference values


def test_two_circle_fixed_example():
    got = [str(sel) for sel in enumerate_naive(request([4, 3], 1, 2, Element(1, 1)))]
    assert got == ["1@1,3@1", "1@1,1@2", "1@1,2@2", "1@1,3@2"]


def test_small_circle_has_no_room():
    # on 5 positions no two elements can keep 2 others between them both ways
    assert list(enumerate_naive(request([5], 2, 2))) == []
    assert count_by_enumeration(request([5], 2, 2)) == 0


def test_single_circle_count():
    assert count_by_enumeration(request([10], 1, 3)) == 50


def test_two_circle_count():
    assert count_by_enumeration(request([8, 7], 2, 3)) == 140
    assert count_by_enumeration(request([7, 8], 2, 3)) == 140
    assert count_by_enumeration(request([8, 7], 2, 3, Element(1, 1))) == 28


def test_fixed_position_sets_on_one_circle():
    got = [sel.positions_in(1)
           for sel in enumerate_gap(request([7], 1, 2, Element(1, 1)))]
    assert got == [(1, 3), (1, 4), (1, 5), (1, 6)]


# ---------------------------------------------------------------------------
# degenerate sizes


def test_k0_yields_one_empty_set():
    assert list(enumerate_naive(request([4, 3], 1, 0))) == [SelectionSet()]
    assert list(enumerate_gap(request([4, 3], 1, 0))) == [SelectionSet()]
    assert count_by_enumeration(request([4, 3], 1, 0)) == 1


def test_k0_with_fixed_yields_nothing():
    assert list(enumerate_gap(request([4, 3], 1, 0, Element(1, 1)))) == []


def test_k_larger_than_ground_set():
    assert list(enumerate_gap(request([3, 2], 0, 6))) == []
    assert count_by_enumeration(request([3, 2], 0, 6)) == 0


def test_k0_count_has_no_run():
    # the empty selection has no last pick, so it is counted without the runs
    assert list(selection_runs(request([4, 3], 1, 0))) == []
    assert count_by_enumeration(request([4, 3], 1, 0)) == 1
    assert count_by_enumeration(request([4, 3], 1, 0, Element(1, 1))) == 0


def test_request_validates_fixed():
    with pytest.raises(ValueError):
        request([4, 3], 1, 2, Element(4, 2))


# ---------------------------------------------------------------------------
# the two enumerators agree, sets and order both


def test_output_is_lexicographic():
    sels = list(enumerate_naive(request([4, 3], 1, 2)))
    assert sels == sorted(sels, key=lambda sel: sel.key)
    assert len(sels) == len(set(sels))


def test_gap_matches_naive_exhaustively():
    # every multiset of circle sizes up to 10 objects total
    for total in range(2, 11):
        for sizes in partitions(total):
            for s in range(0, 4):
                for k in range(0, 5):
                    req = request(sizes, s, k)
                    assert list(enumerate_gap(req)) == list(enumerate_naive(req)), \
                        (sizes, s, k)


def test_gap_matches_naive_with_fixed():
    # every element fixed up to 8 positions: on a middle circle, first or last
    # among the last depth's candidates, and at k = 1; then 1@1 and the last
    for total in range(2, 11):
        for sizes in partitions(total):
            anchors = ({Element(p, c) for c, n in enumerate(sizes, 1)
                        for p in range(1, n + 1)} if total <= 8 else
                       {Element(1, 1), Element(sizes[-1], len(sizes))})
            for s in range(0, 4):
                for k in range(1, 5):
                    for fixed in anchors:
                        req = request(sizes, s, k, fixed)
                        assert list(enumerate_gap(req)) == list(enumerate_naive(req)), \
                            (sizes, s, k, str(fixed))


def test_fixed_pending_at_the_last_depth_matches_naive():
    # the last depth tests a still-pending fixed pair alone: every element of
    # every ordered system of up to 3 circles of sizes 1..6, s <= 2, k <= 4
    for p in range(1, 4):
        for sizes in itertools.product(range(1, 7), repeat=p):
            for s in range(3):
                for k in range(1, 5):
                    # naive's free family by element: its filter for each fixed
                    through = defaultdict(list)
                    for sel in enumerate_naive(request(sizes, s, k)):
                        key = sel.key
                        for pair in key:
                            through[pair].append(key)
                    for fixed in CircleSystem(sizes).elements():
                        got = list(selection_keys(request(sizes, s, k, fixed)))
                        assert got == through[fixed.key], (sizes, s, k, str(fixed))


@st.composite
def fixed_requests(draw):
    """Up to 4 circles, s <= 3, k <= 6 and at most 20,000 k-subsets of the
    ground set, with a fixed element drawn mostly from the last circle, where
    it stays pending through the most depths."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    assume(comb(sum(sizes), k) <= 20_000)
    circle = draw(st.just(len(sizes)) | st.integers(1, len(sizes)))
    fixed = Element(draw(st.integers(1, sizes[circle - 1])), circle)
    return request(sizes, draw(st.integers(0, 3)), k, fixed)


@settings(max_examples=150, deadline=None)
@given(fixed_requests())
def test_fixed_search_is_the_free_search_filtered(req):
    # each depth carries its own pending pair; only k >= 5 takes the fixed
    # pair at depth 3 or 4 and still pushes a depth below it
    free = request(req.system.sizes, req.params.s, req.params.k)
    expected = [pairs for pairs in selection_keys(free) if req.fixed.key in pairs]
    assert list(selection_keys(req)) == expected


def test_gap_matches_naive_spot_checks():
    for sizes, s, k in (([8, 7], 2, 3), ([6, 5, 4], 1, 4), ([9, 2], 3, 2)):
        req = request(sizes, s, k)
        assert list(enumerate_gap(req)) == list(enumerate_naive(req))


def test_count_matches_stream_length():
    for sizes, s, k in (([10], 1, 3), ([8, 7], 2, 3), ([5, 5, 5], 1, 3)):
        req = request(sizes, s, k)
        assert count_by_enumeration(req) == sum(1 for _ in enumerate_gap(req))


@st.composite
def requests(draw):
    """Up to 4 circles of up to 20 positions, s <= 3, k <= 4, and sometimes a
    fixed element; at most 20,000 k-subsets of the ground set, so that each
    example stays fast."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    s, k = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    assume(comb(sum(sizes), k) <= 20_000)
    fixed = None
    if draw(st.booleans()):
        circle = draw(st.integers(1, len(sizes)))
        fixed = Element(draw(st.integers(1, sizes[circle - 1])), circle)
    return request(sizes, s, k, fixed)


@settings(max_examples=60, deadline=None)
@given(requests())
def test_gap_search_properties(req):
    system, s, k, fixed = req.system, req.params.s, req.params.k, req.fixed
    sels = list(enumerate_gap(req))
    keys = [sel.key for sel in sels]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for sel in sels:
        assert len(sel) == k and is_s_separated(sel, system, s)
        assert fixed is None or fixed in sel
    assert len(sels) == count_by_enumeration(req)
    # the closed forms that fit the request, and the paper's bounds on them
    sizes = system.sizes
    if fixed is None:
        closed = [lambda: count_system(system, s, k),
                  lambda: count_system_convolution(system, s, k)]
        if len(sizes) == 1:
            closed.append(lambda: count_circle(sizes[0], s, k))
        admissible = all(n >= s * k + 1 for n in sizes)
    else:
        closed = [lambda: count_system_fixed(system, s, k, fixed)]
        if fixed == Element(1, 1):
            closed.append(lambda: count_system_fixed_recursive(system, s, k))
        if len(sizes) == 1:
            closed.append(lambda: count_circle_fixed(sizes[0], s, k))
        admissible = k >= 1 and all(n >= s * k + (c == fixed.circle)
                                    for c, n in enumerate(sizes, 1))
    for count in closed:
        if admissible:
            assert count() == len(sels)
        else:
            with pytest.raises(DomainError):
                count()


@settings(max_examples=150, deadline=None)
@given(requests() | fixed_requests())
@example(request([3, 2], 1, 1))                  # k = 1: one run per circle
@example(request([3, 2], 1, 1, Element(2, 2)))   # ... or the fixed pair's alone
@example(request([3, 2], 0, 6))                  # k > N: no run
@example(request([6, 5], 1, 3, Element(5, 2)))   # fixed pending at the last depth
@example(request([7], 1, 3, Element(6, 1)))      # ... on the last pick's circle
@example(request([6, 5], 1, 2))                  # k = 2: the root is drained
@example(request([8, 4], 1, 2, Element(4, 1)))   # ... fixed past its first candidate
@example(request([6, 5, 4], 1, 2, Element(3, 3)))  # ... fixed on a later circle
@example(request([6, 5, 4], 1, 3, Element(4, 3)))  # the last circle's last position
# up to nine later circles per prefix, free and through the last position
@example(request([2, 2, 2, 2, 3, 3, 3, 3, 3, 5], 1, 5))
@example(request([2, 2, 2, 2, 3, 3, 3, 3, 3, 5], 1, 5, Element(5, 10)))
# a circle of one position between larger ones, at s = 0 and fixed on it
@example(request([4, 1, 3], 0, 3))
@example(request([4, 1, 3], 1, 2, Element(1, 2)))
def test_runs_expand_to_the_selections(req):
    items = list(selection_runs(req))
    assert all(lo <= hi for _, runs in items for _, lo, hi in runs)
    keys = list(selection_keys(req))
    assert keys == [sel.key for sel in enumerate_naive(req)]
    if req.params.k == 0:  # the empty selection, or nothing, and no run
        assert (items, keys) == ([], [] if req.fixed else [()])
        return
    assert [prefix + ((c, q),) for prefix, runs in items for c, lo, hi in runs
            for q in range(lo, hi + 1)] == keys
    # verify's bucket tally, taken from the runs, counts what the tuples hold
    assert _tally(req) == Counter(itertools.chain.from_iterable(keys))


@settings(max_examples=150, deadline=None)
@given(requests() | fixed_requests())
@example(request([6, 5, 4], 1, 3, Element(4, 3)))  # one-position runs only
@example(request([4, 3], 1, 0))                    # k = 0: no item
def test_runs_of_one_prefix_come_out_together(req):
    # one item per prefix of k - 1 picks, its runs a nonempty tuple of
    # nonempty intervals on the circles, and no prefix comes twice
    sizes, k = req.system.sizes, req.params.k
    items = list(selection_runs(req))
    if k == 0:
        assert items == []
    prefixes = [prefix for prefix, _ in items]
    assert len(set(prefixes)) == len(prefixes)
    for prefix, runs in items:
        assert type(prefix) is tuple and len(prefix) == k - 1
        assert type(runs) is tuple and runs
        for run in runs:
            c, lo, hi = run
            assert 1 <= lo <= hi <= sizes[c - 1]


@st.composite
def searches(draw):
    """Up to 5 circles of 1..9 positions, s <= 3, k <= 6, and no fixed element
    or any one; at most 20,000 k-subsets of the ground set, for the naive
    oracle's sake."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    k = draw(st.integers(0, 6))
    assume(comb(sum(sizes), k) <= 20_000)
    fixed = draw(st.none() | st.sampled_from(list(CircleSystem(tuple(sizes)).elements())))
    return request(sizes, draw(st.integers(0, 3)), k, fixed)


@settings(max_examples=150, deadline=None)
@given(searches())
@example(request([9, 9, 9, 9, 9], 0, 2))                 # k = 2: the root is drained
@example(request([9, 1, 9, 1, 9], 1, 3, Element(9, 5)))  # pending to the last position
@example(request([2, 9, 2, 9, 2], 3, 4))                 # circles too small for two
@example(request([1, 1, 1, 1, 1], 0, 5, Element(1, 3)))  # every circle holds one pick
def test_search_matches_naive(req):
    # the last open depth, drained from ranges, gives naive's selections in
    # its order, the streamed count their number, and no empty run
    keys = [sel.key for sel in enumerate_naive(req)]
    assert list(selection_keys(req)) == keys
    assert count_by_enumeration(req) == len(keys)
    for _, runs in selection_runs(req):
        assert runs and all(lo <= hi for _, lo, hi in runs)


def test_no_picks_generator_serves_the_last_open_depth(monkeypatch):
    # _picks serves only the inner depths, where at least two picks follow
    # its candidate; the last open depth is drained from ranges
    rems = Counter()
    picks = enumeration._picks

    def recorded(size, gap, after, last, first, rem):
        rems[rem] += 1
        return picks(size, gap, after, last, first, rem)

    monkeypatch.setattr(enumeration, "_picks", recorded)
    for total in range(1, 11):
        for sizes in partitions(total):
            fixes = [None, Element(1, 1), Element(sizes[-1], len(sizes))]
            for s in range(4):
                for k in range(7):
                    for fixed in fixes:
                        count_by_enumeration(request(sizes, s, k, fixed))
    assert rems and min(rems) >= 2
    assert set(rems) == set(range(2, 6))  # k = 3..6 open 1..4 inner depths


def test_many_circles_cost_memory_in_proportion_to_the_runs():
    # at k = 1 the one item holds every circle whole: the later circles' runs
    # are built for the circles prefixes end on, not for every circle up front;
    # nor for the circles before a pending fixed pair, where every candidate
    # gets the fixed pair's lone run
    for req, count in ((request([5] * 2000, 1, 1), 10_000),
                       (request([2] * 3000, 0, 2, Element(2, 3000)), 5_999)):
        tracemalloc.start()
        try:
            assert count_by_enumeration(req) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# ---------------------------------------------------------------------------
# symmetries the enumeration must respect


def bucket_by_element(req):
    buckets = {}
    for sel in enumerate_gap(req):
        for e in sel:
            buckets[e] = buckets.get(e, 0) + 1
    return buckets


def test_rotation_symmetry_on_one_circle():
    buckets = bucket_by_element(request([8], 1, 3))
    assert len(buckets) == 8
    assert len(set(buckets.values())) == 1


def test_membership_counts_sum_to_k_times_total():
    for k in (1, 2, 3):
        req = request([7, 5], 1, k)
        total = count_by_enumeration(req)
        assert sum(bucket_by_element(req).values()) == k * total


def test_circle_relabeling_preserves_count():
    for a, b in ((8, 7), (6, 9)):
        assert (count_by_enumeration(request([a, b], 2, 2))
                == count_by_enumeration(request([b, a], 2, 2)))
