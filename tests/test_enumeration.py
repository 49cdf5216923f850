import itertools
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circsep.core import (CircleSystem, DomainError, Element, SelectionSet,
                          SeparationParams, is_s_separated)
from circsep.counting import (count_circle, count_circle_fixed, count_system,
                              count_system_convolution, count_system_fixed,
                              count_system_fixed_recursive)
from circsep.enumeration import (EnumerationRequest, count_by_enumeration,
                                 enumerate_gap, enumerate_naive)


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
