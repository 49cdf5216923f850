"""Exhaustive and pruned enumeration of s-separated selections.

Two generators produce the same family of sets.  ``enumerate_naive`` filters
every k-subset of the ground set and is deliberately simple: it is the oracle
everything else is measured against.  The pruned side is one depth-first
search over the canonical (circle, position) order: each depth picks the next
element after the previous one, on the same circle at least ``s + 1`` further
on and within the wrap-around gap back to that circle's first pick, or on a
later circle.  A branch is cut as soon as the circles left cannot hold the
rest of k.  The last depth is one loop over its candidates, each completing a
selection.  Both yield selections in lexicographic order of the canonical
(circle, position) serialization, so output is deterministic and directly
comparable.

``selection_keys`` streams the search's raw output, one increasing tuple of
(circle, position) pairs per selection, and is what every consumer reads:
``enumerate_gap``, the object API, wraps each tuple in a ``SelectionSet``;
``count_by_enumeration`` counts the tuples; the ``enumerate`` command formats
them straight to text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import CircleSystem, Element, SelectionSet, SeparationParams


@dataclass(frozen=True, slots=True)
class EnumerationRequest:
    """A system, separation parameters, and an optional required element."""

    system: CircleSystem
    params: SeparationParams
    fixed: Element | None = None

    def __post_init__(self) -> None:
        if self.fixed is not None:
            self.system.check_element(self.fixed)


def _selection(pairs) -> SelectionSet:
    return SelectionSet(tuple(Element(p, c) for c, p in pairs))


def enumerate_naive(request: EnumerationRequest):
    """Filter all k-subsets of the ground set; the reference enumerator.

    Yields every s-separated k-subset (containing ``fixed`` when given) in
    lexicographic order of canonical serialization.
    """
    system, s, k = request.system, request.params.s, request.params.k
    fixed = request.fixed
    sizes = system.sizes
    ground = [(c, p) for c, n in enumerate(sizes, 1) for p in range(1, n + 1)]
    fixed_pair = (fixed.circle, fixed.position) if fixed is not None else None
    least = s + 1
    for combo in itertools.combinations(ground, k):
        if fixed_pair is not None and fixed_pair not in combo:
            continue
        ok = True
        for (c1, p1), (c2, p2) in itertools.combinations(combo, 2):
            if c1 != c2:
                continue
            n = sizes[c1 - 1]
            d = p1 - p2 if p1 > p2 else p2 - p1
            if d < least or n - d < least:
                ok = False
                break
        if ok:
            yield _selection(combo)


def _picks(sizes, gap: int, after: list[int], last: tuple[int, int],
           first: int, rem: int):
    """Candidates ``((circle, position), first)`` for the pick after ``last``,
    in canonical order; ``first`` is the first pick on the candidate's circle.
    No candidate leaves too little room for the ``rem`` picks still to follow:
    the circles after ``c`` hold at most ``after[c]``, the rest must fit on ``c``.
    """
    c0, q0 = last
    if c0:
        n = sizes[c0 - 1]
        hi = min(n, first + n - gap) - max(0, rem - after[c0]) * gap
        for q in range(q0 + gap, hi + 1):
            yield (c0, q), first
    for c in range(c0 + 1, len(sizes) + 1):
        n = sizes[c - 1]
        need = max(0, rem - after[c])  # picks that must share circle c
        if need and n < (need + 1) * gap:
            return  # and every later circle has even less room
        for q in range(1, n - need * gap + 1):
            yield (c, q), q


def selection_keys(request: EnumerationRequest):
    """Yield the selections of ``request`` as increasing tuples of (circle,
    position) pairs, the same sets in the same order as ``enumerate_gap``,
    without building an ``Element`` or a ``SelectionSet``.

    A depth-first search on an explicit stack of candidate iterators, one per
    open depth: depth d takes the d-th element of the selection, always after
    the one before it, so selections come out in lexicographic order.  For
    positions increasing on one circle it is enough that consecutive picks
    differ by at least s + 1 and that none passes ``first + n - (s + 1)``, the
    wrap-around bound back to the circle's first pick; every other pair is
    then farther apart.  A circle of size n holds at most ``max(1, n // (s+1))``
    picks.  Until ``fixed`` is taken, the first candidate past it ends its
    depth.  The last depth is one loop, not a stack entry; while ``fixed`` is
    pending it yields only the fixed pair.
    """
    sizes, s, k = request.system.sizes, request.params.s, request.params.k
    fixed = request.fixed.key if request.fixed is not None else None
    if k == 0:
        if fixed is None:
            yield ()
        return
    gap = s + 1
    after = [0] * (len(sizes) + 1)  # after[c]: most picks circles > c can hold
    for c in range(len(sizes) - 1, -1, -1):
        after[c] = after[c + 1] + max(1, sizes[c] // gap)
    path: list[tuple[int, int]] = []  # the chosen pairs, one per open depth
    stack = [_picks(sizes, gap, after, (0, 0), 0, k - 1)]
    pending = fixed  # the fixed pair until it is chosen
    while stack:
        if len(path) == len(stack):  # the deepest depth moves past its pick
            if path.pop() == fixed:
                pending = fixed
        pick = next(stack[-1], None)
        if pick is None or (pending is not None and pick[0] > pending):
            stack.pop()
            continue
        pair, first = pick
        path.append(pair)
        if pair == pending:
            pending = None
        if len(path) < k - 1:
            stack.append(_picks(sizes, gap, after, pair, first, k - len(path) - 1))
        elif len(path) == k:  # k == 1: the first depth is the last
            if pending is None:
                yield (pair,)
        else:  # the last depth, in one loop
            base = tuple(path)
            for last, _ in _picks(sizes, gap, after, pair, first, 0):
                if pending is None:
                    yield base + (last,)
                elif last >= pending:  # only the fixed pair itself completes
                    if last == pending:
                        yield base + (last,)
                    break


def enumerate_gap(request: EnumerationRequest):
    """Pruned enumerator; same sets and the same order as ``enumerate_naive``."""
    for pairs in selection_keys(request):
        yield _selection(pairs)


def count_by_enumeration(request: EnumerationRequest) -> int:
    """Count by streaming the pruned search; exact for any parameters."""
    return sum(1 for _ in selection_keys(request))
