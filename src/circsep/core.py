"""Ground-set model for selections on systems of circles.

A system of circles is a disjoint union of cycles with sizes ``n_1, ..., n_p``.
Positions on circle ``j`` are labelled ``1 .. n_j`` and wrap around, so the
distance between two positions is the length of the shorter arc.  A selection
is a duplicate-free set of (position, circle) pairs; it is s-separated when
every same-circle pair has at least ``s`` positions strictly between its two
elements along the shorter arc, i.e. circular distance at least ``s + 1``.
Pairs on different circles are never constrained.

Two circles can be spliced into one: ``flatten`` identifies circle 1 with the
positions ``1 .. n_1`` of a single circle of size ``n_1 + n_2`` and circle 2
with the positions ``n_1 + 1 .. n_1 + n_2``; ``unflatten`` inverts it.  The
splice preserves nothing about separation by itself - the repair procedures
live in :mod:`circsep.bijection`.

Textual syntax: an element is written ``POS@CIRCLE`` (``3@2`` is position 3 on
circle 2) and a selection is a comma-separated list of elements.  Selections
over a flattened single circle are written as bare integers.
"""

from __future__ import annotations

from itertools import groupby, pairwise
from operator import attrgetter


class DomainError(ValueError):
    """A parameter lies outside the precondition of an exact operation."""


class InvariantViolation(RuntimeError):
    """An internal structural guarantee failed; indicates a genuine bug."""


_setattr = object.__setattr__  # a record's __init__ sets its fields with it


class _Record:
    """Base of the frozen records.  A subclass names its fields in
    ``__slots__``, in the order of its ``__init__``'s parameters, and sets
    each one there with ``_setattr``.  The base makes the fields read-only,
    compares and hashes a record by its class and its field values, writes
    it as ``Name(field=value, ...)``, matches ``case Name(a, b)`` patterns
    on the fields in that order and pickles it as a call of its class on
    those values.  The ``dataclasses`` helpers do not apply to a record."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Element(_Record):
    """One selected object: position ``position`` on circle ``circle``."""

    __slots__ = ("position", "circle")

    def __init__(self, position: int, circle: int) -> None:
        if not (type(position) is int and position >= 1
                and type(circle) is int and circle >= 1):
            _require_ints("Element", 1, position=position, circle=circle)
        _setattr(self, "position", position)
        _setattr(self, "circle", circle)

    @property
    def key(self) -> tuple[int, int]:
        """Canonical sort key: circle first, then position."""
        return (self.circle, self.position)

    def __lt__(self, other: "Element") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return f"{self.position}@{self.circle}"


class CircleSystem(_Record):
    """A disjoint union of circles with the given positive sizes."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]) -> None:
        sizes = tuple(sizes)
        if not sizes:
            raise ValueError("a circle system needs at least one circle")
        for n in sizes:
            if type(n) is not int or n < 1:
                _require_ints("CircleSystem", 1,
                              **{f"n_{i}": m for i, m in enumerate(sizes, 1)})
        _setattr(self, "sizes", sizes)

    @property
    def num_circles(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        """Number of objects across all circles."""
        return sum(self.sizes)

    def size_of(self, circle: int) -> int:
        if not 1 <= circle <= len(self.sizes):
            raise ValueError(f"no circle {circle} in a {len(self.sizes)}-circle system")
        return self.sizes[circle - 1]

    def __contains__(self, e: Element) -> bool:
        return 1 <= e.circle <= len(self.sizes) and e.position <= self.sizes[e.circle - 1]

    def check_element(self, e: Element) -> Element:
        if e not in self:
            raise ValueError(f"element {e} does not exist in system {list(self.sizes)}")
        return e

    def elements(self):
        """All elements of the ground set in canonical (circle, position) order."""
        for c, n in enumerate(self.sizes, 1):
            for p in range(1, n + 1):
                yield Element(p, c)


class SeparationParams(_Record):
    """Separation distance ``s`` (>= 0) and selection size ``k`` (>= 0)."""

    __slots__ = ("s", "k")

    def __init__(self, s: int, k: int) -> None:
        _require_ints("SeparationParams", 0, s=s, k=k)
        _setattr(self, "s", s)
        _setattr(self, "k", k)


class SelectionSet(_Record):
    """An immutable duplicate-free set of elements in canonical order.

    Construction accepts the elements in any order; they are sorted by
    (circle, position) and deduplicated, so two selections with the same
    members always compare equal.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[Element, ...] = ()) -> None:
        _setattr(self, "elements", tuple(sorted(set(elements))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical serialization key; selections sort lexicographically by it."""
        return tuple(e.key for e in self.elements)

    def __lt__(self, other: "SelectionSet") -> bool:
        return self.key < other.key

    def positions_in(self, circle: int) -> tuple[int, ...]:
        """Sorted positions selected on one circle."""
        return tuple(e.position for e in self.elements if e.circle == circle)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.elements)


def circular_distance(a: Element, b: Element, system: CircleSystem) -> int | None:
    """Shorter-arc distance between two elements, or None across circles.

    Within a circle of size ``n`` the distance is ``min(|pa-pb|, n-|pa-pb|)``,
    which is symmetric and at most ``n // 2``.
    """
    system.check_element(a)
    system.check_element(b)
    if a.circle != b.circle:
        return None
    n = system.sizes[a.circle - 1]
    d = abs(a.position - b.position)
    return min(d, n - d)


def is_s_separated(selection: SelectionSet, system: CircleSystem, s: int) -> bool:
    """True when every same-circle pair sits at circular distance >= s + 1.

    With s = 0 every duplicate-free selection qualifies.  Cross-circle pairs
    are unconstrained.
    """
    _require_ints("is_s_separated", 0, s=s)
    for e in selection:
        system.check_element(e)
    return all(_separated([e.position for e in on_circle], system.sizes[circle - 1], s)
               for circle, on_circle in groupby(selection.elements, attrgetter("circle")))


def _separated(positions, n: int, s: int) -> bool:
    """The separation rule on one circle of size ``n``: increasing
    ``positions`` pass when there are fewer than two, or when each is more
    than ``s`` past the one before it, the first counted again at
    ``positions[0] + n``.  Every pair is then s-separated, as each arc
    between two of them is a sum of these gaps."""
    return len(positions) < 2 or all(
        b - a > s for a, b in pairwise((*positions, positions[0] + n)))


def _require_ints(op: str, least: int | None = None, **values) -> None:
    """Raise ValueError naming the first of ``values`` that is not an int (a
    bool is not one), then, with ``least`` given, the first below ``least``;
    range checks come after it, so a float never reaches ``range``."""
    for name, value in values.items():
        if type(value) is not int and (type(value) is bool or not isinstance(value, int)):
            raise ValueError(f"{op} requires an integer {name}, got {name}={value!r}")
    if least is not None:
        for name, value in values.items():
            if value < least:
                raise ValueError(f"{op} requires {name} >= {least}, got {name}={value}")


def _least_size(s: int, k: int, beside_fixed: bool = False) -> int:
    """Least circle size the closed forms admit at (s, k): ``s*k + 1``, or
    ``s*k`` (and at least 1) on a circle beside the fixed element's."""
    return max(1, s * k) if beside_fixed else s * k + 1


def _check_bounds(op: str, s: int, k: int, sizes=(), fixed: int | None = None,
                  names=None, hint: str = "") -> None:
    """Raise :class:`DomainError` naming the first closed-form bound violated:
    ``s >= 0``, ``k >= 0`` (``k >= 1`` when ``fixed``, the fixed element's
    circle, is given), then ``_least_size`` on each of ``sizes``, labelled by
    ``names`` (``n_1 .. n_p`` when None) and followed by ``hint``.  Callers
    that check membership in between call it first without ``sizes``.
    A non-integer s or k, or a non-integer size given with ``names`` (a bare
    number, not the size of a checked ``CircleSystem``), raises ValueError
    before any of these.
    """
    if type(s) is not int or type(k) is not int:
        _require_ints(op, s=s, k=k)
    if names:
        _require_ints(op, **dict(zip(names, sizes)))
    if s < 0:
        raise DomainError(f"{op} requires s >= 0, got s={s}")
    if fixed is None and k < 0:
        raise DomainError(f"{op} requires k >= 0, got k={k}")
    if fixed is not None and k < 1:
        raise DomainError(f"{op} requires k >= 1 (a nonempty selection), got k={k}")
    if not sizes or min(sizes) >= _least_size(s, k):
        return  # the common case, in one comparison
    for circle, n in enumerate(sizes, 1):
        beside = fixed is not None and circle != fixed
        if n >= _least_size(s, k, beside):
            continue
        name = names[circle - 1] if names else f"n_{circle}"
        if fixed is None:
            bound = "every circle size >= s*k+1"
        elif beside:
            bound = f"{name} >= s*k on circles without the fixed element"
        else:
            bound = f"{name} >= s*k+1 on the fixed element's circle"
        raise DomainError(
            f"{op} requires {bound} (got {name}={n}, s={s}, k={k}){hint}")


def _require_two_circles(system: CircleSystem, op: str) -> tuple[int, int]:
    if system.num_circles != 2:
        raise DomainError(
            f"{op} requires exactly two circles, got {system.num_circles}")
    return system.sizes[0], system.sizes[1]


def flatten(e: Element, system: CircleSystem) -> int:
    """Splice a two-circle system into one circle: (i,1) -> i, (i,2) -> n_1 + i."""
    n1, _ = _require_two_circles(system, "flatten")
    system.check_element(e)
    return e.position if e.circle == 1 else n1 + e.position


def unflatten(i: int, system: CircleSystem) -> Element:
    """Inverse splice: positions 1..n_1 land on circle 1, the rest on circle 2.

    Positions on circle 2 are renumbered to start at 1, so the round trip
    ``flatten(unflatten(i)) == i`` holds for every i in ``1 .. n_1 + n_2``.
    """
    n1, n2 = _require_two_circles(system, "unflatten")
    _require_ints("unflatten", position=i)
    if not 1 <= i <= n1 + n2:
        raise DomainError(f"unflatten requires positions in 1..{n1 + n2}, got {i}")
    return Element(i, 1) if i <= n1 else Element(i - n1, 2)


def parse_element(text: str) -> Element:
    """Parse the ``POS@CIRCLE`` syntax, e.g. ``3@2``."""
    pos_part, sep, circle_part = text.strip().partition("@")
    if not sep:
        raise ValueError(f"expected POS@CIRCLE, got {text!r}")
    try:
        return Element(int(pos_part), int(circle_part))
    except ValueError as exc:
        raise ValueError(f"bad element {text!r}: {exc}") from None


def parse_selection(text: str) -> SelectionSet:
    """Parse a comma-separated list of elements; empty input is the empty set."""
    text = text.strip()
    if not text:
        return SelectionSet()
    return SelectionSet(tuple(parse_element(tok) for tok in text.split(",")))


def parse_flat_selection(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of bare positions on a flattened circle."""
    text = text.strip()
    if not text:
        return ()
    try:
        positions = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected bare comma-separated integers, got {text!r}") from None
    return tuple(sorted(set(positions)))


def format_flat_selection(positions) -> str:
    return ",".join(str(p) for p in sorted(positions))
