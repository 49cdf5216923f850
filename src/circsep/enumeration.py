"""Exhaustive and pruned enumeration of s-separated selections.

Two generators produce the same family of sets.  ``enumerate_naive`` filters
every k-subset of the ground set and is deliberately simple: it is the oracle
everything else is measured against.  The pruned side is one depth-first
search over the canonical (circle, position) order, ``selection_runs``: each
depth picks the next element after the previous one, on the same circle at
least ``s + 1`` further on and within the wrap-around gap back to that
circle's first pick, or on a later circle.  A branch is cut as soon as the
circles left cannot hold the rest of k.  The last depth is not searched:
given the first k - 1 picks, the positions that complete a selection form
one interval per circle, so the search yields each prefix once with its runs
of last positions.  ``count_by_enumeration`` sums run lengths,
``selection_keys`` expands the runs into one increasing tuple of (circle,
position) pairs per selection, and ``enumerate_gap``, the object API, wraps
each tuple in a ``SelectionSet``.  All of them yield selections in
lexicographic order of the canonical (circle, position) serialization, so
output is deterministic and directly comparable.
"""

from __future__ import annotations

import itertools

from .core import (CircleSystem, Element, SelectionSet, SeparationParams, _Record,
                   _setattr)


class EnumerationRequest(_Record):
    """A system, separation parameters, and an optional required element."""

    __slots__ = ("system", "params", "fixed")

    def __init__(self, system: CircleSystem, params: SeparationParams,
                 fixed: Element | None = None) -> None:
        if fixed is not None:
            system.check_element(fixed)
        _setattr(self, "system", system)
        _setattr(self, "params", params)
        _setattr(self, "fixed", fixed)


def _selection(pairs) -> SelectionSet:
    return SelectionSet(tuple(Element(p, c) for c, p in pairs))


def enumerate_naive(request: EnumerationRequest):
    """Filter all k-subsets of the ground set; the reference enumerator.

    Yields every s-separated k-subset (containing ``fixed`` when given) in
    lexicographic order of canonical serialization.
    """
    sizes, s, k = request.system.sizes, request.params.s, request.params.k
    ground = [(c, p) for c, n in enumerate(sizes, 1) for p in range(1, n + 1)]
    fixed_pair = request.fixed.key if request.fixed is not None else None
    least = s + 1
    for combo in itertools.combinations(ground, k):
        if fixed_pair is not None and fixed_pair not in combo:
            continue
        for (c1, p1), (c2, p2) in itertools.combinations(combo, 2):
            if c1 != c2:
                continue
            n = sizes[c1 - 1]
            d = p1 - p2 if p1 > p2 else p2 - p1
            if d < least or n - d < least:
                break
        else:  # no pair too close
            yield _selection(combo)


def _picks(size, gap: int, after: list[int], last: tuple[int, int],
           first: int, rem: int):
    """Candidates ``((circle, position), first)`` for the pick after ``last``
    at the inner depths, where ``rem >= 2`` picks still follow, in canonical
    order; ``first`` is the first pick on the candidate's circle, and
    ``size[c]`` is circle c's size (``size[0] = 0``: the empty prefix's last
    pick is ``(0, 0)``).  No candidate leaves too little room for the ``rem``
    picks still to follow: the circles after ``c`` hold at most ``after[c]``,
    the rest must fit on ``c``.  The last open depth (``rem = 1``) opens no
    generator: ``selection_runs`` drains it from the same ranges.
    """
    c0, q0 = last
    n = size[c0]
    hi = min(n, first + n - gap) - max(0, rem - after[c0]) * gap
    for q in range(q0 + gap, hi + 1):
        yield (c0, q), first
    for c in range(c0 + 1, len(size)):
        n = size[c]
        need = max(0, rem - after[c])  # picks that must share circle c
        if need and n < (need + 1) * gap:
            return  # and every later circle has even less room
        for q in range(1, n - need * gap + 1):
            yield (c, q), q


def selection_runs(request: EnumerationRequest):
    """Yield the selections of ``request`` as items ``(prefix, runs)``, one
    per prefix of k - 1 picks and each prefix once: ``runs`` is a nonempty
    tuple of runs ``(c, lo, hi)``, and ``prefix + ((c, q),)`` is a selection
    for each run in order and each ``lo <= q <= hi``, so expanding the items
    in order gives ``selection_keys``.  At k = 0 there is no item (the empty
    selection has no last pick); at k = 1 there is one, the empty prefix's,
    with every circle whole (or ``lone``, below).

    A depth-first search on an explicit stack, one entry per open depth, the
    picks but the last: its candidates, the picks before it, and ``fixed``
    until one of those is it, so a pop restores nothing.  Depth d takes the
    d-th element of the selection, always after the one before it, so
    selections come out in lexicographic order.  For positions increasing on
    one circle it is enough that consecutive picks differ by at least s + 1
    and that none passes ``first + n - (s + 1)``, the wrap-around bound back
    to the circle's first pick; every other pair is then farther apart.  A
    circle of size n holds at most ``max(1, n // (s+1))`` picks.  Until
    ``fixed`` is taken, the first candidate past it ends its depth.

    The last depth is not searched: given k - 1 picks, the last positions
    form one interval per circle.  Inner depths draw their candidates from
    ``_picks``; the last open one opens no generator.  Its entry holds the
    pick it extends and the first pick on that pick's circle, and one loop
    drains it from ``range``s: the rest of that circle up to the wrap-around
    bound, then each later circle whole, except that the last circle must
    hold the last pick too, so its candidates stop s + 1 short, and it has
    none when it cannot hold two picks.  A candidate's runs are the one on
    its own circle c, from s + 1 past it to the wrap-around bound, when that
    is not empty, then ``later[c]``, the circles after c whole: one tuple,
    built when a prefix first ends on c and shared by every prefix after it
    that does, so it costs no more than the runs it gives.  With ``fixed``
    still pending each candidate is compared with it: equal gives the runs
    above, past it ends the drain, and before it gives ``lone``, the fixed
    pair's one-position run, built once, when that pair can follow the
    candidate.  At k = 2 the drained entry is the root, whose pick ``(0, 0)``
    is on no circle.
    """
    sizes, s, k = request.system.sizes, request.params.s, request.params.k
    fixed = request.fixed.key if request.fixed is not None else None
    if k == 0:
        return
    gap = s + 1
    size = (0, *sizes)  # size[c]: circle c's size, for c >= 1
    after = [0] * len(size)  # after[c]: most picks circles > c can hold
    for c in range(len(sizes) - 1, -1, -1):
        after[c] = after[c + 1] + max(1, size[c + 1] // gap)
    whole = tuple((c, 1, n) for c, n in enumerate(sizes, 1))  # whole[c - 1]: circle c
    later = [None] * len(size)  # later[c]: whole[c:], once a prefix needs it
    lone = ((*fixed, fixed[1]),) if fixed is not None else None
    if k == 1:
        yield (), whole if fixed is None else lone  # the empty prefix's item
        return
    root = ((0, 0), 0) if k == 2 else _picks(size, gap, after, (0, 0), 0, k - 1)
    stack = [(root, (), fixed)]
    while stack:
        top, prefix, pending = stack[-1]
        if len(prefix) == k - 2:  # the last open depth: drain it from ranges
            stack.pop()
            (c0, q0), first = top
            for c in range(c0, len(size)):
                n = size[c]
                need = gap if after[c] == 0 else 0  # room the last pick needs
                if c == c0:
                    wrap, cut, lo = min(n, first + n - gap), 0, q0 + gap
                elif need and n < 2 * gap:
                    break  # the last circle, too small for two picks
                else:  # a candidate here is its circle's first pick
                    wrap, cut, lo = n, gap, 1
                runs = later[c]  # unused before a pending pair's circle
                if runs is None and (pending is None or pending[0] == c):
                    runs = later[c] = whole[c:]
                for q in range(lo, wrap - need + 1):
                    end = q + n - gap if q < cut else wrap  # its own run's end
                    if pending is None or (c, q) == pending:
                        yield prefix + ((c, q),), (((c, q + gap, end),) + runs
                                                   if q + gap <= end else runs)
                    elif (c, q) > pending:
                        break
                    elif pending[0] > c or q + gap <= pending[1] <= end:
                        yield prefix + ((c, q),), lone
                if pending is not None and pending[0] == c:
                    break  # every later candidate is past the pending pair
            continue
        pick = next(top, None)
        if pick is None or (pending is not None and pick[0] > pending):
            stack.pop()
            continue
        pair, first = pick
        path = prefix + (pair,)
        stack.append((pick if len(path) == k - 2
                      else _picks(size, gap, after, pair, first, k - len(path) - 1),
                      path, None if pair == pending else pending))


def selection_keys(request: EnumerationRequest):
    """Yield the selections of ``request`` as increasing tuples of (circle,
    position) pairs, the same sets in the same order as ``enumerate_gap``,
    without building an ``Element`` or a ``SelectionSet``: the items of
    ``selection_runs`` expanded, and the empty selection at k = 0 unless an
    element is fixed.
    """
    if request.params.k == 0 and request.fixed is None:
        yield ()  # the empty selection, in no item
    for prefix, runs in selection_runs(request):
        for c, lo, hi in runs:
            for q in range(lo, hi + 1):
                yield prefix + ((c, q),)


def enumerate_gap(request: EnumerationRequest):
    """Pruned enumerator; same sets and the same order as ``enumerate_naive``."""
    for pairs in selection_keys(request):
        yield _selection(pairs)


def count_by_enumeration(request: EnumerationRequest) -> int:
    """Count by streaming the pruned search's runs; exact for any parameters."""
    empty = request.params.k == 0 and request.fixed is None  # in no item
    return empty + sum(hi - lo + 1 for _, runs in selection_runs(request)
                       for _, lo, hi in runs)
