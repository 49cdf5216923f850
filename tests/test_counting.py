import functools
import itertools
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circsep.core import (CircleSystem, DomainError, Element, InvariantViolation,
                          SeparationParams)
from circsep.counting import (_count, _exact_div, _product, binomial, count_circle,
                              count_circle_fixed, count_system,
                              count_system_convolution, count_system_fixed,
                              count_system_fixed_recursive)
from circsep.enumeration import EnumerationRequest, count_by_enumeration


def oracle(sizes, s, k, fixed=None):
    return count_by_enumeration(EnumerationRequest(
        CircleSystem(tuple(sizes)), SeparationParams(s, k), fixed))


# ---------------------------------------------------------------------------
# binomial conventions


def test_binomial_zero_conventions():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 4) == 0
    assert binomial(-1, 0) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, -2) == 0


# ---------------------------------------------------------------------------
# one circle


def test_circle_frozen_values():
    assert count_circle(10, 1, 3) == 50
    assert count_circle(7, 2, 2) == 7
    assert count_circle(8, 2, 2) == 12
    assert count_circle(7, 1, 2) == 14


def test_circle_edges():
    assert count_circle(5, 3, 0) == 1  # k = 0 counts the empty set only
    assert count_circle(9, 2, 1) == 9  # singletons are never constrained
    for s in range(1, 4):
        assert count_circle(s + 1, s, 1) == s + 1
        for k in range(2, 5):
            # n = s*k + 1 is in the exact range but leaves no room at all:
            # k gaps of length >= s+1 need at least s*k + k positions
            assert count_circle(s * k + 1, s, k) == 0
            # n = k*(s+1) admits exactly the s+1 rotations of a perfect packing
            assert count_circle(k * (s + 1), s, k) == s + 1
    # 2k positions, s = 1: only the two alternating packings
    for k in range(1, 6):
        assert count_circle(2 * k, 1, k) == 2


def test_circle_fixed_frozen_values():
    assert count_circle_fixed(10, 1, 3) == 15
    assert count_circle_fixed(7, 1, 2) == 4
    assert count_circle_fixed(8, 2, 2) == 3
    assert count_circle_fixed(9, 2, 1) == 1
    assert count_circle_fixed(2, 1, 1) == 1  # smallest admissible circle


def test_circle_domain_errors():
    with pytest.raises(DomainError, match="count_by_enumeration"):
        count_circle(4, 2, 2)  # n < s*k + 1
    with pytest.raises(DomainError):
        count_circle(0, 1, 1)
    with pytest.raises(DomainError):
        count_circle(5, -1, 1)
    with pytest.raises(DomainError):
        count_circle(5, 1, -1)
    with pytest.raises(DomainError):
        count_circle_fixed(6, 1, 0)  # fixed counts need k >= 1
    with pytest.raises(DomainError, match="n >= s\\*k\\+1"):
        count_circle_fixed(6, 2, 3)


def test_circle_against_oracle():
    for s in range(0, 4):
        for k in range(1, 5):
            for n in range(s * k + 1, 13):
                assert count_circle(n, s, k) == oracle([n], s, k), (n, s, k)


def test_circle_fixed_against_oracle():
    for s in range(0, 3):
        for k in range(1, 4):
            for n in range(s * k + 1, 12):
                closed = count_circle_fixed(n, s, k)
                assert closed == oracle([n], s, k, Element(1, 1)), (n, s, k)


def test_fixed_count_consistency():
    # each of the n rotations hosts the same share: k * free == n * fixed
    for s in range(1, 3):
        for k in range(1, 4):
            for n in range(s * k + 1, 14):
                assert (k * count_circle(n, s, k)
                        == n * count_circle_fixed(n, s, k))


# ---------------------------------------------------------------------------
# circle systems


def test_system_frozen_values():
    assert count_system(CircleSystem((8, 7)), 2, 3) == 140
    assert count_system(CircleSystem((7, 8)), 2, 3) == 140
    assert count_system_fixed(CircleSystem((8, 7)), 2, 3, Element(1, 1)) == 28
    assert count_system_fixed(CircleSystem((8, 7)), 2, 3, Element(5, 2)) == 28
    assert count_system_fixed(CircleSystem((4, 3)), 1, 2, Element(1, 1)) == 4


def test_system_k0():
    assert count_system(CircleSystem((5, 2)), 3, 0) == 1


def test_system_against_oracle():
    for s in (1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for sizes in itertools.combinations_with_replacement(range(lo, 8), 2):
                system = CircleSystem(sizes)
                assert count_system(system, s, k) == oracle(sizes, s, k)
                assert (count_system_fixed(system, s, k, Element(1, 1))
                        == oracle(sizes, s, k, Element(1, 1)))


def test_system_fixed_allows_smaller_other_circles():
    # circles without the fixed element only need size >= s*k
    system = CircleSystem((7, 4))
    assert count_system_fixed(system, 2, 2, Element(1, 1)) == \
        oracle([7, 4], 2, 2, Element(1, 1)) == binomial(11 - 4 - 1, 1)


def test_system_domain_errors():
    with pytest.raises(DomainError, match="n_1=4"):
        count_system(CircleSystem((4, 9)), 2, 2)
    with pytest.raises(DomainError, match="n_2"):
        count_system_fixed(CircleSystem((7, 3)), 2, 2, Element(1, 1))
    with pytest.raises(DomainError, match="fixed element's circle"):
        count_system_fixed(CircleSystem((4, 9)), 2, 2, Element(1, 1))
    with pytest.raises(ValueError):  # element does not exist at all
        count_system_fixed(CircleSystem((7, 7)), 1, 2, Element(8, 1))
    with pytest.raises(DomainError):
        count_system_fixed(CircleSystem((7, 7)), 1, 0, Element(1, 1))


def test_system_permutation_invariance():
    for perm in itertools.permutations((5, 4, 3)):
        assert count_system(CircleSystem(perm), 1, 2) == \
            count_system(CircleSystem((5, 4, 3)), 1, 2)


def test_system_fixed_relabeling():
    a = count_system_fixed(CircleSystem((7, 5)), 1, 2, Element(1, 1))
    b = count_system_fixed(CircleSystem((5, 7)), 1, 2, Element(1, 2))
    assert a == b == oracle([7, 5], 1, 2, Element(1, 1))


def test_double_count_relation():
    for s in (1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for sizes in itertools.combinations_with_replacement(range(lo, 9), 2):
                system = CircleSystem(sizes)
                assert (k * count_system(system, s, k)
                        == system.total * count_system_fixed(system, s, k,
                                                             Element(1, 1)))


# ---------------------------------------------------------------------------
# recursion and convolution recomputations


def test_recursive_decomposition_terms():
    # [8, 7], s=2, k=3 splits over the 7-circle's share as 7 + 21 + 0
    terms = [count_circle_fixed(8, 2, j) * count_circle(7, 2, 3 - j)
             for j in (1, 2, 3)]
    assert terms == [7, 21, 0]
    assert sum(terms) == 28
    assert count_system_fixed_recursive(CircleSystem((8, 7)), 2, 3) == 28


def test_recursive_matches_direct():
    # p = 1 is the fixed circle alone; the circles beside it may hold s*k
    for s in (0, 1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for p in (1, 2, 3, 4):
                for first in range(lo, 9):
                    for rest in itertools.combinations_with_replacement(
                            range(max(lo - 1, 1), 9), p - 1):
                        system = CircleSystem((first, *rest))
                        assert (count_system_fixed_recursive(system, s, k)
                                == count_system_fixed(system, s, k, Element(1, 1)))
    assert (count_system_fixed_recursive(CircleSystem((5, 4, 6)), 1, 3)
            == count_system_fixed(CircleSystem((5, 4, 6)), 1, 3, Element(1, 1)))


def test_recursive_domain_error():
    with pytest.raises(DomainError):
        count_system_fixed_recursive(CircleSystem((4, 9)), 2, 2)


def test_convolution_terms():
    # [7, 8], s=2, k=3 distributes as 0 + 84 + 56 + 0 over the 7-circle's share
    terms = [count_circle(7, 2, j) * count_circle(8, 2, 3 - j) for j in range(4)]
    assert terms == [0, 84, 56, 0]
    assert count_system_convolution(CircleSystem((7, 8)), 2, 3) == 140


def test_convolution_matches_direct():
    for s in (1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for sizes in itertools.combinations_with_replacement(range(lo, 8), 3):
                system = CircleSystem(sizes)
                assert (count_system_convolution(system, s, k)
                        == count_system(system, s, k))


def test_convolution_domain_error():
    with pytest.raises(DomainError):
        count_system_convolution(CircleSystem((4, 9)), 2, 2)


@pytest.mark.parametrize("count", [
    lambda s, k: count_circle(8, s, k),
    lambda s, k: count_circle_fixed(8, s, k),
    lambda s, k: count_system(CircleSystem((8, 7)), s, k),
    lambda s, k: count_system_fixed(CircleSystem((8, 7)), s, k, Element(1, 1)),
    lambda s, k: count_system_fixed_recursive(CircleSystem((8, 7)), s, k),
    lambda s, k: count_system_convolution(CircleSystem((8, 7)), s, k),
    lambda s, k: count_by_enumeration(
        EnumerationRequest(CircleSystem((8, 7)), SeparationParams(s, k))),
], ids=["circle", "circle_fixed", "system", "system_fixed", "fixed_recursive",
        "convolution", "enumeration"])
def test_counts_reject_non_integer_s_and_k(count):
    for s, k in ((1.5, 2), (1, 2.0), (-1.0, 2)):
        with pytest.raises(ValueError, match="requires an integer") as info:
            count(s, k)
        assert not isinstance(info.value, DomainError)


def test_bare_circle_sizes_reject_non_integers():
    # a size given as a bare number never reaches binomial as a float
    for count, n in ((count_circle, 8.0), (count_circle_fixed, 8.5),
                     (count_circle, "8")):
        with pytest.raises(ValueError, match="requires an integer n") as info:
            count(n, 1, 2)
        assert not isinstance(info.value, DomainError)


def test_s0_reduces_to_plain_binomials():
    # with no separation the count is just C(N, k), however the circles split,
    # and C(N - 1, k - 1) through 1@1; both are 0 once k passes N
    for n1, n2, k in ((5, 4, 3), (6, 6, 2), (3, 7, 4)):
        system = CircleSystem((n1, n2))
        total = n1 + n2
        assert count_system(system, 0, k) == comb(total, k)
        assert count_system_convolution(system, 0, k) == sum(
            comb(n1, j) * comb(n2, k - j) for j in range(k + 1))
        for k_ in (k, total, total + 1, 10**9):
            assert count_system_convolution(system, 0, k_) == comb(total, k_)
            assert (count_system_fixed_recursive(system, 0, k_)
                    == comb(total - 1, k_ - 1))


def test_an_inexact_division_is_an_internal_error():
    # the closed forms divide exactly on their domain; a remainder is a bug
    assert _exact_div(8, 2, "x") == 4
    with pytest.raises(InvariantViolation, match="x: 7 is not divisible by 2"):
        _exact_div(7, 2, "x")


# ---------------------------------------------------------------------------
# per-circle counts and their product, exact for any parameters


def cyclic_words(s, max_n, max_j):
    """Count 0/1 words on a cycle of n positions (1 <= n <= max_n) with j ones
    (j <= max_j), any two ones at least s zeros apart around the cycle; one
    lone one is never constrained.  Returns ``(free, through)``, dicts on
    ``(n, j)``; ``through`` counts the words with a one at position 1.

    A word with ones has a least one, at position a + 1.  From there on it is a
    linear word of length n - a that starts with a one and keeps s zeros
    between its ones, and closing the cycle adds the a zeros before the least
    one to its trailing zeros.  ``words[L]`` counts those linear words by
    (ones, trailing zeros capped at s).
    """
    words = {1: {(1, 0): 1}}
    for length in range(2, max_n + 1):
        row = {}
        for (ones, zeros), ways in words[length - 1].items():
            key = (ones, min(zeros + 1, s))
            row[key] = row.get(key, 0) + ways
            if zeros >= s and ones < max_j:
                row[ones + 1, 0] = row.get((ones + 1, 0), 0) + ways
        words[length] = row

    def closing(n, a):
        counts = [0] * (max_j + 1)
        for (ones, zeros), ways in words[n - a].items():
            if ones < 2 or zeros + a >= s:
                counts[ones] += ways
        return counts

    free, through = {}, {}
    for n in range(1, max_n + 1):
        rows = [closing(n, a) for a in range(n)]
        for j in range(max_j + 1):
            through[n, j] = rows[0][j]
            free[n, j] = (j == 0) + sum(row[j] for row in rows)
    return free, through


def test_per_circle_counts_match_a_cyclic_word_count_everywhere():
    # every n >= 1, in the closed forms' domain and out of it
    for s in range(5):
        free, through = cyclic_words(s, 30, 10)
        for n in range(1, 31):
            for j in range(11):
                assert _count(n, s, j) == free[n, j], (n, s, j)
                assert _count(n, s, j, True) == through[n, j], (n, s, j)


@st.composite
def spreads(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    return sizes, draw(st.integers(0, 3)), draw(st.integers(0, 6))


@settings(max_examples=300, deadline=None)
@given(spreads())
@example(([7, 6, 6], 2, 3))      # circles beside 1@1 of size exactly s*k
@example(([3, 2, 2, 2], 2, 1))   # k = 1 beside circles of size s
@example(([5, 4], 0, 9))         # s = 0, k = N
@example(([5, 4], 0, 10))        # s = 0, k = N + 1
def test_product_counts_every_spread(spread):
    sizes, s, k = spread
    assert _product(sizes, s, k) == oracle(sizes, s, k)
    for circle in range(1, len(sizes) + 1):
        assert (_product(sizes, s, k, fixed=circle)
                == oracle(sizes, s, k, Element(1, circle))), circle


@functools.lru_cache(maxsize=None)
def word_rows(s):
    """``cyclic_words`` for circles of up to 30 positions and up to 20 ones."""
    return cyclic_words(s, 30, 20)


def schoolbook(sizes, s, k, fixed=None):
    """Coefficient k of the product of the circles' ``cyclic_words`` rows
    (circle ``fixed`` counted through its position 1), one term at a time."""
    free, through = word_rows(s)
    poly = [1] + [0] * k
    for c, n in enumerate(sizes, 1):
        row = [(through if c == fixed else free)[n, j] for j in range(k + 1)]
        poly = [sum(poly[i] * row[j - i] for i in range(j + 1)) for j in range(k + 1)]
    return poly[k]


@st.composite
def wide_spreads(draw):
    """Up to 6 circles of up to 30 positions, s <= 4, k <= 20 (the benchmark's
    convolution counts reach 11 circles and k = 9), and perhaps a fixed circle."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=6))
    fixed = draw(st.none() | st.integers(1, len(sizes)))
    return sizes, draw(st.integers(0, 4)), draw(st.integers(0, 20)), fixed


@settings(max_examples=300, deadline=None)
@given(wide_spreads())
@example(([30] * 6, 4, 20, None))    # the largest spread drawn
@example(([30] * 6, 0, 20, 6))       # ... with no separation, through the last
@example(([1, 1, 1], 2, 3, None))    # k = N on circles of one position
@example(([9, 4], 1, 20, 1))         # k past N
def test_product_matches_a_schoolbook_convolution(spread):
    sizes, s, k, fixed = spread
    assert _product(sizes, s, k, fixed) == schoolbook(sizes, s, k, fixed)


def test_single_circle_forms_make_one_binomial_call(monkeypatch):
    # O(1) in k: a k-long factor list here would make 10**5 calls
    calls = []

    def counted(n, k):
        calls.append((n, k))
        assert len(calls) == 1, calls
        return binomial(n, k)

    monkeypatch.setattr("circsep.counting.binomial", counted)
    for count in (count_circle, count_circle_fixed):
        calls.clear()
        assert count(10**6, 1, 10**5) > 0
        assert len(calls) == 1
