"""A size-preserving bijection between selections on two circles and on one.

Splicing two circles into one (``flatten`` in :mod:`circsep.core`) can break
s-separation in two ways: the tail of circle 2 becomes adjacent to the head of
circle 1, and the wrap-around of each original circle disappears.  The
``zig`` procedure repairs a two-circle selection *before* flattening, and
``zag`` repairs a freshly unflattened selection, each by a chain of switches.

A switch inspects a window of ``s`` positions directly below the previous
insertion point (on alternating circles; windows are plain intervals clipped
at position 1 and never wrap).  If the window is empty the chain stops.
Otherwise it contains exactly one selected element; that element is removed,
and a replacement is inserted on the opposite circle, the same distance below
the previous *removal* as the removed element sat below the previous
insertion.  The seeds for "previous removal/insertion" are phantom positions
one past the top of each circle, which is what makes the first window the top
``s`` positions of circle 2 for ``zig`` and of circle 1 for ``zag``.

For a selection ``A`` of size k anchored at element (1,1), with circle sizes
``n_1 >= s*k + 1`` and ``n_2 >= s*k``:

* ``forward(A) = flatten(zig(A))`` is s-separated on the combined circle and
  still contains position 1;
* ``backward(S) = zag(unflatten(S))`` inverts it exactly, running the same
  switch chain mirrored (same gaps, removals and insertions exchanged);
* both directions execute the same number of switches, at most k - 1.

Intermediate selections need not be s-separated on either side; only the
endpoint guarantees hold.  ``check_bijectivity`` verifies all of this
exhaustively for one parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (CircleSystem, DomainError, Element, InvariantViolation,
                   SelectionSet, SeparationParams, _check_bounds, _require_ints,
                   _require_two_circles, flatten, is_s_separated, unflatten)
from .counting import count_system_fixed
from .enumeration import EnumerationRequest, _selection, selection_keys


@dataclass(frozen=True, slots=True)
class SwitchStep:
    """One executed switch: the inspected window, what left, what entered.

    ``gap`` is the distance from the previous insertion point down to the
    removed element; the inserted position sits ``gap`` below the previous
    removal on the other circle.
    """

    index: int
    window_circle: int
    window_lo: int
    window_hi: int
    removed: int
    gap: int
    added: int

    def __post_init__(self) -> None:
        if self.gap < 1:
            raise InvariantViolation(f"switch gap must be >= 1, got {self.gap}")
        if not self.window_lo <= self.removed <= self.window_hi:
            raise InvariantViolation(
                f"removed position {self.removed} outside window "
                f"[{self.window_lo}, {self.window_hi}]")

    def as_dict(self) -> dict:
        return {
            "i": self.index,
            "window": {"circle": self.window_circle,
                       "lo": self.window_lo, "hi": self.window_hi},
            "removed": self.removed,
            "d": self.gap,
            "added": self.added,
        }


@dataclass(frozen=True, slots=True)
class ZigZagTrace:
    """The full switch chain of one zig or zag run."""

    direction: str  # "zig" | "zag"
    steps: tuple[SwitchStep, ...]

    @property
    def order(self) -> int:
        """Number of executed switches."""
        return len(self.steps)

    def as_dict(self) -> dict:
        return {
            "direction": self.direction,
            "order": self.order,
            "steps": [st.as_dict() for st in self.steps],
        }


def _check_common(selection: SelectionSet, system: CircleSystem, s: int,
                  op: str) -> set[tuple[int, int]]:
    _require_two_circles(system, op)
    k = len(selection)
    _check_bounds(op, s, k, fixed=1)
    for e in selection:
        system.check_element(e)
    if Element(1, 1) not in selection:
        raise DomainError(f"{op} requires the selection to contain 1@1")
    _check_bounds(op, s, k, system.sizes, fixed=1)
    return set(selection.key)


def _switch_chain(selected: set[tuple[int, int]], sizes: tuple[int, int],
                  s: int, direction: str) -> tuple[SwitchStep, ...]:
    """Run one switch chain in place on a set of ``(circle, position)`` pairs,
    the search's own keys, and return its steps.  ``zig`` opens its first
    window on circle 2, ``zag`` on circle 1; the circles swap after every
    switch.  The input is not validated here: callers pass selections that
    meet zig's or zag's preconditions."""
    window_circle, other_circle = (2, 1) if direction == "zig" else (1, 2)
    original = set(selected)
    removed_pairs: set[tuple[int, int]] = set()
    # phantom seeds one past the top of each circle
    last_added = sizes[window_circle - 1] + 1
    last_removed = sizes[other_circle - 1] + 1
    k = len(original)
    steps: list[SwitchStep] = []
    while True:
        hi = last_added - 1
        lo = max(1, last_added - s)
        hits = [q for q in range(lo, hi + 1) if (window_circle, q) in selected]
        if not hits:
            break
        if len(hits) > 1:
            raise InvariantViolation(
                f"{direction}: window {lo}..{hi} on circle {window_circle} "
                f"holds {len(hits)} selected elements, expected at most one")
        removed = hits[0]
        gap = last_added - removed
        added = last_removed - gap
        gone, new = (window_circle, removed), (other_circle, added)
        # structural guarantees of the switch chain; violations are bugs
        if gap > s:
            raise InvariantViolation(
                f"{direction}: switch gap {gap} exceeds s={s}")
        if gone not in original:
            raise InvariantViolation(
                f"{direction}: removed {removed}@{window_circle} was not part "
                "of the input selection")
        if gone in removed_pairs:
            raise InvariantViolation(
                f"{direction}: removed {removed}@{window_circle} twice")
        if gone == (1, 1):
            raise InvariantViolation(f"{direction}: attempted to remove the anchor 1@1")
        if not 1 <= added <= sizes[other_circle - 1]:
            raise InvariantViolation(
                f"{direction}: insertion position {added} outside circle {other_circle}")
        if new in selected:
            raise InvariantViolation(
                f"{direction}: insertion {added}@{other_circle} collides with "
                "an existing element")
        selected.remove(gone)
        selected.add(new)
        removed_pairs.add(gone)
        steps.append(SwitchStep(index=len(steps), window_circle=window_circle,
                                window_lo=lo, window_hi=hi,
                                removed=removed, gap=gap, added=added))
        if len(steps) > k - 1:
            raise InvariantViolation(
                f"{direction}: executed {len(steps)} switches on a size-{k} "
                "selection, expected at most k-1")
        last_removed, last_added = removed, added
        window_circle, other_circle = other_circle, window_circle
    return tuple(steps)


def zig(selection: SelectionSet, system: CircleSystem, s: int
        ) -> tuple[SelectionSet, ZigZagTrace]:
    """Repair a two-circle selection so that its flattening is s-separated.

    The input must itself be s-separated on the two circles, contain 1@1,
    and satisfy the size bounds; the output selection need not be
    s-separated on the two circles.
    """
    selected = _check_common(selection, system, s, "zig")
    if not is_s_separated(selection, system, s):
        raise DomainError("zig requires an s-separated input selection")
    steps = _switch_chain(selected, system.sizes, s, "zig")
    return _selection(sorted(selected)), ZigZagTrace("zig", steps)


def zag(selection: SelectionSet, system: CircleSystem, s: int
        ) -> tuple[SelectionSet, ZigZagTrace]:
    """Repair a freshly unflattened selection back into an s-separated one.

    The input must be the unflattening of an s-separated selection on the
    combined circle that contains position 1 (so the input contains 1@1 but
    need not be s-separated on the two circles).  The output is s-separated
    on the two circles.
    """
    selected = _check_common(selection, system, s, "zag")
    flat = _selection((1, flatten(e, system)) for e in selection)
    if not is_s_separated(flat, CircleSystem((system.total,)), s):
        raise DomainError(
            "zag requires a selection whose flattening is s-separated on the "
            "combined circle")
    steps = _switch_chain(selected, system.sizes, s, "zag")
    return _selection(sorted(selected)), ZigZagTrace("zag", steps)


def forward(selection: SelectionSet, system: CircleSystem, s: int) -> tuple[int, ...]:
    """Map a two-circle selection to positions on the combined circle:
    run ``zig``, then flatten.  Returns sorted positions."""
    repaired, _ = zig(selection, system, s)
    return tuple(sorted(flatten(e, system) for e in repaired))


def backward(positions, system: CircleSystem, s: int) -> SelectionSet:
    """Map combined-circle positions back to a two-circle selection:
    unflatten, then run ``zag``.  Inverse of ``forward``."""
    positions = tuple(positions)
    for p in positions:
        _require_ints("backward", position=p)
    pos = sorted(set(positions))
    selection = SelectionSet(tuple(unflatten(p, system) for p in pos))
    repaired, _ = zag(selection, system, s)
    return repaired


@dataclass(frozen=True, slots=True)
class BijectivityReport:
    """Outcome of exhaustively checking one (n_1, n_2, s, k) point."""

    system: CircleSystem
    s: int
    k: int
    domain_size: int
    codomain_size: int
    expected_size: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_bijectivity(system: CircleSystem, s: int, k: int) -> BijectivityReport:
    """Exhaustively verify the bijection at one parameter point.

    Enumerates every s-separated k-selection through 1@1 on the two circles
    (the domain) and every s-separated k-subset of the combined circle
    through position 1 (the codomain); checks that ``forward`` lands in the
    codomain, round-trips through ``backward``, executes the same number of
    switches in both directions with mirrored steps, and is a bijection onto
    the codomain; and compares both sizes against the closed form
    ``C(n_1 + n_2 - s*k - 1, k - 1)``.

    Each domain selection runs one zig chain and one zag chain, on the set of
    its search keys, without zig's and zag's input checks: a domain selection
    is s-separated and holds 1@1 by construction, and an image is pulled
    back only after it is found in the codomain, which is exactly zag's
    precondition.  The structural checks inside the chain still run.  The
    round trip ``forward(backward(y)) == y`` needs no pass of its own: every
    codomain set y that some domain selection x maps to has ``backward(y) =
    x`` checked, so ``forward(backward(y)) = forward(x) = y``, and a set that
    ``forward`` misses already fails the surjectivity check.
    """
    n1, n2 = _require_two_circles(system, "check_bijectivity")
    _check_bounds("check_bijectivity", s, k, system.sizes, fixed=1)
    failures: list[str] = []
    params = SeparationParams(s, k)
    domain = list(selection_keys(EnumerationRequest(system, params, Element(1, 1))))
    combined = CircleSystem((n1 + n2,))
    codomain = {tuple(p for _, p in pairs) for pairs in selection_keys(
        EnumerationRequest(combined, params, Element(1, 1)))}
    expected = count_system_fixed(system, s, k, Element(1, 1))

    images = []  # one per input whose chain ends in the codomain
    for pairs in domain:
        selected = set(pairs)
        try:
            zsteps = _switch_chain(selected, system.sizes, s, "zig")
        except InvariantViolation as exc:
            failures.append(f"zig({_selection(pairs)}) raised: {exc}")
            continue
        image = tuple(p if c == 1 else n1 + p for c, p in sorted(selected))
        if image not in codomain:
            failures.append(
                f"forward({_selection(pairs)}) = {image} is not in the codomain")
            continue
        images.append(image)
        # ``selected`` now holds unflatten(image), zag's input
        try:
            gsteps = _switch_chain(selected, system.sizes, s, "zag")
        except InvariantViolation as exc:
            unflat = SelectionSet(tuple(unflatten(p, system) for p in image))
            failures.append(f"zag({unflat}) raised: {exc}")
            continue
        back = tuple(sorted(selected))
        if back != pairs:
            failures.append(f"backward(forward({_selection(pairs)})) = "
                            f"{_selection(back)}, expected {_selection(pairs)}")
        if len(zsteps) != len(gsteps):
            failures.append(f"switch counts differ on {_selection(pairs)}: "
                            f"zig {len(zsteps)}, zag {len(gsteps)}")
        else:
            for zstep, gstep in zip(zsteps, gsteps):
                if (gstep.removed, gstep.gap, gstep.added) != (
                        zstep.added, zstep.gap, zstep.removed):
                    failures.append(f"steps not mirrored on {_selection(pairs)} "
                                    f"at switch {zstep.index}")
                    break
    if len(set(images)) != len(images):
        failures.append(
            f"forward is not injective: {len(images)} inputs, "
            f"{len(set(images))} distinct images")
    missing = codomain.difference(images)
    if missing:
        failures.append(
            f"forward is not surjective: {len(missing)} codomain sets missed, "
            f"e.g. {sorted(missing)[0]}")
    if len(domain) != expected:
        failures.append(
            f"domain size {len(domain)} != closed form {expected}")
    if len(codomain) != expected:
        failures.append(
            f"codomain size {len(codomain)} != closed form {expected}")
    return BijectivityReport(system=system, s=s, k=k,
                             domain_size=len(domain),
                             codomain_size=len(codomain),
                             expected_size=expected,
                             failures=tuple(failures))
