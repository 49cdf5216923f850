import itertools
import pickle

import pytest

from circsep.bijection import (BijectivityReport, SwitchStep, ZigZagTrace,
                               backward, check_bijectivity, zag, zig)
from circsep.core import (CircleSystem, DomainError, Element, SelectionSet,
                          SeparationParams, _Record, circular_distance, flatten,
                          format_flat_selection, is_s_separated, parse_element,
                          parse_flat_selection, parse_selection, unflatten)
from circsep.counting import (binomial, count_circle, count_circle_fixed,
                              count_system, count_system_convolution,
                              count_system_fixed, count_system_fixed_recursive)
from circsep.enumeration import EnumerationRequest
from circsep.verify import IdentityReport, SweepGrid


# ---------------------------------------------------------------------------
# elements and systems


def test_element_validation():
    with pytest.raises(ValueError):
        Element(0, 1)
    with pytest.raises(ValueError):
        Element(1, 0)
    with pytest.raises(ValueError):
        Element(-3, 2)
    # no rounding: Element(1.5, 1) would sit inside CircleSystem((3,))
    for position, circle in ((1.5, 1), (1, 1.0), ("1", 1), (1, "2")):
        with pytest.raises(ValueError, match="requires an integer (position|circle)"):
            Element(position, circle)


def test_element_ordering_is_circle_then_position():
    elems = [Element(2, 2), Element(1, 1), Element(4, 1), Element(1, 2)]
    assert sorted(elems) == [Element(1, 1), Element(4, 1),
                             Element(1, 2), Element(2, 2)]


def test_element_str():
    assert str(Element(3, 2)) == "3@2"


def test_system_validation():
    with pytest.raises(ValueError):
        CircleSystem(())
    with pytest.raises(ValueError):
        CircleSystem((4, 0))
    # no conversion: int() would read these as (8, 7)
    for sizes in ("87", (8.9, 7), (8, 7.0), ("8", 7)):
        with pytest.raises(ValueError, match="CircleSystem requires an integer n_[12]"):
            CircleSystem(sizes)
    assert CircleSystem([8, 7]).sizes == (8, 7)
    sys43 = CircleSystem((4, 3))
    assert sys43.num_circles == 2
    assert sys43.total == 7
    assert sys43.size_of(2) == 3
    with pytest.raises(ValueError):
        sys43.size_of(3)


def test_system_membership():
    sys43 = CircleSystem((4, 3))
    assert Element(4, 1) in sys43
    assert Element(3, 2) in sys43
    assert Element(5, 1) not in sys43
    assert Element(4, 2) not in sys43
    assert Element(1, 3) not in sys43
    with pytest.raises(ValueError):
        sys43.check_element(Element(4, 2))


def test_system_elements_canonical_order():
    got = list(CircleSystem((2, 3)).elements())
    assert got == [Element(1, 1), Element(2, 1),
                   Element(1, 2), Element(2, 2), Element(3, 2)]


def test_separation_params_validation():
    SeparationParams(0, 0)
    with pytest.raises(ValueError):
        SeparationParams(-1, 2)
    with pytest.raises(ValueError):
        SeparationParams(1, -2)
    # no float reaches range(): the type is checked before the sign
    for s, k in ((1.5, 2), (1, 2.0), (-1.0, 2), ("1", 2)):
        with pytest.raises(ValueError, match="requires an integer"):
            SeparationParams(s, k)


@pytest.mark.parametrize("op, build", [
    pytest.param("Element", lambda: Element(True, 1), id="Element"),
    pytest.param("CircleSystem", lambda: CircleSystem((True, 2)), id="CircleSystem"),
    pytest.param("SeparationParams", lambda: SeparationParams(False, 1),
                 id="SeparationParams"),
    pytest.param("is_s_separated",
                 lambda: is_s_separated(SelectionSet(), CircleSystem((4,)), s=True),
                 id="is_s_separated"),
    pytest.param("count_circle", lambda: count_circle(8, True, 2), id="count_circle"),
    pytest.param("SweepGrid", lambda: SweepGrid(jobs=True), id="SweepGrid"),
    pytest.param("backward", lambda: backward((1, True), CircleSystem((4, 3)), 1),
                 id="backward"),
    pytest.param("binomial", lambda: binomial(5, True), id="binomial"),
    pytest.param("unflatten", lambda: unflatten(True, CircleSystem((3, 4))),
                 id="unflatten"),
])
def test_a_bool_is_not_an_integer_argument(op, build):
    # str(Element(True, 1)) would be "True@1", a label parse_element cannot read
    with pytest.raises(ValueError, match=f"^{op} requires an integer"):
        build()


SYS87 = CircleSystem((8, 7))
NON_INTEGERS = ((True, 2), (1.0, 2), (1, True), (1, 2.0))


@pytest.mark.parametrize("op, run, values", [
    ("count_circle_fixed", lambda s, k: count_circle_fixed(8, s, k), NON_INTEGERS),
    ("count_system", lambda s, k: count_system(SYS87, s, k), NON_INTEGERS),
    ("count_system_fixed",
     lambda s, k: count_system_fixed(SYS87, s, k, Element(1, 1)), NON_INTEGERS),
    ("count_system_fixed_recursive",
     lambda s, k: count_system_fixed_recursive(SYS87, s, k), NON_INTEGERS),
    ("count_system_convolution",
     lambda s, k: count_system_convolution(SYS87, s, k), NON_INTEGERS),
    ("check_bijectivity", lambda s, k: check_bijectivity(SYS87, s, k), NON_INTEGERS),
    # zig and zag take k from the selection: only s can be refused
    ("zig", lambda s, k: zig(parse_selection("1@1,4@2"), SYS87, s), NON_INTEGERS[:2]),
    ("zag", lambda s, k: zag(parse_selection("1@1,4@2"), SYS87, s), NON_INTEGERS[:2]),
])
def test_every_bound_check_refuses_a_bool_or_a_float(op, run, values):
    # the closed forms' bound check hands s and k to _require_ints only when
    # one is not an int; the refusal and its words are still that rule's
    for s, k in values:
        with pytest.raises(ValueError, match=f"^{op} requires an integer") as info:
            run(s, k)
        assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: binomial(5, 1.5),
                 "binomial requires an integer k, got k=1.5", id="binomial-float-k"),
    pytest.param(lambda: binomial(5.0, 2),
                 "binomial requires an integer n, got n=5.0", id="binomial-float-n"),
    pytest.param(lambda: binomial("5", 2),
                 "binomial requires an integer n, got n='5'", id="binomial-str"),
    pytest.param(lambda: unflatten(2.0, CircleSystem((3, 4))),
                 "unflatten requires an integer position, got position=2.0",
                 id="unflatten-float"),
    pytest.param(lambda: unflatten("3", CircleSystem((3, 4))),
                 "unflatten requires an integer position, got position='3'",
                 id="unflatten-str"),
])
def test_binomial_and_unflatten_refuse_floats_and_strings(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_integers_are_checked_before_lower_bounds():
    with pytest.raises(ValueError, match="Element requires position >= 1, got position=0"):
        Element(0, 1)
    with pytest.raises(ValueError, match="CircleSystem requires n_2 >= 1, got n_2=0"):
        CircleSystem((4, 0))
    with pytest.raises(ValueError, match="requires an integer n_2"):
        CircleSystem((0, 1.5))
    with pytest.raises(ValueError, match="SweepGrid requires max_k >= 1, got max_k=0"):
        SweepGrid(max_k=0)


# ---------------------------------------------------------------------------
# selection sets


def test_selection_sorts_and_dedupes():
    sel = SelectionSet((Element(3, 2), Element(1, 1), Element(3, 2)))
    assert sel.elements == (Element(1, 1), Element(3, 2))
    assert len(sel) == 2
    assert Element(3, 2) in sel
    assert Element(2, 1) not in sel


def test_selection_equality_ignores_input_order():
    a = SelectionSet((Element(1, 1), Element(2, 2)))
    b = SelectionSet((Element(2, 2), Element(1, 1)))
    assert a == b
    assert a.key == ((1, 1), (2, 2))


def test_selection_lex_order():
    a = SelectionSet((Element(1, 1), Element(3, 1)))
    b = SelectionSet((Element(1, 1), Element(1, 2)))
    assert a < b  # (1,3) sorts before (2,1) in (circle, position) keys


def test_positions_in():
    sel = SelectionSet((Element(4, 1), Element(1, 1), Element(2, 2)))
    assert sel.positions_in(1) == (1, 4)
    assert sel.positions_in(2) == (2,)
    assert sel.positions_in(3) == ()


def test_selection_str():
    sel = SelectionSet((Element(3, 2), Element(1, 1)))
    assert str(sel) == "1@1,3@2"
    assert str(SelectionSet()) == ""


# ---------------------------------------------------------------------------
# the frozen records


# each record's class, its fields by keyword in signature order, and one
# field given another value
RECORDS = [
    (Element, {"position": 3, "circle": 2}, "circle", 1),
    (CircleSystem, {"sizes": (4, 3)}, "sizes", (4, 4)),
    (SeparationParams, {"s": 1, "k": 2}, "k", 3),
    (SelectionSet, {"elements": (Element(1, 1), Element(3, 2))}, "elements",
     (Element(1, 1),)),
    (EnumerationRequest, {"system": CircleSystem((4, 3)),
                          "params": SeparationParams(1, 2),
                          "fixed": Element(1, 1)}, "fixed", None),
    (SwitchStep, {"index": 0, "window_circle": 2, "window_lo": 5,
                  "window_hi": 6, "removed": 6, "gap": 1, "added": 7},
     "added", 6),
    (ZigZagTrace, {"direction": "zig", "steps": ()}, "direction", "zag"),
    (BijectivityReport, {"system": CircleSystem((7, 6)), "s": 2, "k": 2,
                         "domain_size": 8, "codomain_size": 8,
                         "expected_size": 8, "failures": ()},
     "failures", ("broken",)),
    (IdentityReport, {"check": "circle", "params": {"n": 5, "s": 1, "k": 2},
                      "left": "5", "right": "5", "passed": True,
                      "skipped": False, "reason": "", "counterexample": ""},
     "passed", False),
    (SweepGrid, {"max_size": 6, "max_k": 2, "max_s": 1, "checks": ("circle",),
                 "jobs": 2}, "jobs", 1),
]


@pytest.mark.parametrize("cls, fields, name, other", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, fields, name, other):
    record = cls(**fields)
    assert cls.__slots__ == tuple(fields) and not hasattr(record, "__dict__")
    for field, value in fields.items():
        assert getattr(record, field) == value
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    twin, changed = cls(*fields.values()), cls(**{**fields, name: other})
    assert record == twin and not record != twin
    assert record != changed and not record == changed
    # neither a tuple of the same values nor another class's record of them
    values = tuple(fields.values())
    stranger = _Record.__new__(type("Stranger", (_Record,), {"__slots__": cls.__slots__}))
    for field, value in fields.items():
        object.__setattr__(stranger, field, value)
    assert record != values and record != stranger and stranger != record
    try:
        hash(values)
    except TypeError:  # a dict among the fields: unhashable, as the values are
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) and len({record, twin, changed}) == 2
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{field}={value!r}" for field, value in fields.items()) + ")"
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert cls.__match_args__ == cls.__slots__


def test_record_positional_pattern():
    # a class pattern binds the fields positionally, in signature order
    match Element(3, 2):
        case Element(p, c):
            assert (p, c) == (3, 2)
        case _:
            pytest.fail("no match")
    match SeparationParams(1, 4):
        case SeparationParams(1, k) if k == 4:
            pass
        case _:
            pytest.fail("no match")


# ---------------------------------------------------------------------------
# circular distance and separation


def test_distance_frozen_examples():
    sys10 = CircleSystem((10,))
    assert circular_distance(Element(1, 1), Element(9, 1), sys10) == 2
    assert circular_distance(Element(1, 1), Element(6, 1), sys10) == 5
    assert circular_distance(Element(2, 1), Element(2, 1), sys10) == 0


def test_distance_none_across_circles():
    sys43 = CircleSystem((4, 3))
    assert circular_distance(Element(1, 1), Element(1, 2), sys43) is None


def test_distance_rejects_foreign_elements():
    with pytest.raises(ValueError):
        circular_distance(Element(5, 1), Element(1, 1), CircleSystem((4,)))


@pytest.mark.parametrize("n", range(2, 10))
def test_distance_symmetric_and_bounded(n):
    system = CircleSystem((n,))
    for a, b in itertools.combinations(range(1, n + 1), 2):
        d = circular_distance(Element(a, 1), Element(b, 1), system)
        assert d == circular_distance(Element(b, 1), Element(a, 1), system)
        assert 1 <= d <= n // 2


def test_s0_accepts_everything():
    system = CircleSystem((5, 4))
    ground = list(system.elements())
    for combo in itertools.combinations(ground, 3):
        assert is_s_separated(SelectionSet(combo), system, 0)


def test_separation_wraparound():
    sys7 = CircleSystem((7,))
    near = SelectionSet((Element(1, 1), Element(7, 1)))  # adjacent across the seam
    assert not is_s_separated(near, sys7, 1)
    far = SelectionSet((Element(1, 1), Element(4, 1)))
    assert is_s_separated(far, sys7, 1)
    assert is_s_separated(far, sys7, 2)
    assert not is_s_separated(far, sys7, 3)


def test_cross_circle_pairs_unconstrained():
    system = CircleSystem((4, 3))
    sel = SelectionSet((Element(1, 1), Element(1, 2)))
    assert is_s_separated(sel, system, 3)


def test_separation_matches_pairwise_definition():
    # the gap rule agrees with the all-pairs definition on every subset of up
    # to 5 elements, a lone element on a circle no larger than s among them
    systems = [(n,) for n in range(1, 11)]
    systems += [(n1, n2) for n1 in range(1, 10) for n2 in range(1, 11 - n1)]
    for sizes in systems:
        system = CircleSystem(sizes)
        ground = list(system.elements())
        for k in range(6):
            for combo in itertools.combinations(ground, k):
                sel = SelectionSet(combo)
                distances = [circular_distance(a, b, system)
                             for a, b in itertools.combinations(combo, 2)]
                for s in range(6):
                    expect = all(d is None or d >= s + 1 for d in distances)
                    assert is_s_separated(sel, system, s) == expect, (sizes, str(sel), s)


def test_zag_refuses_exactly_the_flattenings_that_are_not_separated():
    # zag's precondition against the all-pairs definition on the combined
    # circle, for every selection through 1@1 of up to 4 elements
    for n1, n2, s in itertools.product(range(1, 12), range(1, 12), (1, 2)):
        if n1 + n2 > 12:
            continue
        system, combined = CircleSystem((n1, n2)), CircleSystem((n1 + n2,))
        rest = list(system.elements())[1:]
        for k in range(1, 5):
            if n1 < s * k + 1 or n2 < max(1, s * k):
                continue  # outside the domain
            for others in itertools.combinations(rest, k - 1):
                sel = SelectionSet((Element(1, 1), *others))
                flat = [Element(flatten(e, system), 1) for e in sel]
                separated = all(circular_distance(a, b, combined) >= s + 1
                                for a, b in itertools.combinations(flat, 2))
                try:
                    zag(sel, system, s)
                except DomainError as exc:
                    assert not separated and "flattening" in str(exc), (str(sel), s)
                else:
                    assert separated, (n1, n2, str(sel), s)


def test_separation_monotone_in_subsets():
    system = CircleSystem((6, 5))
    ground = list(system.elements())
    for combo in itertools.combinations(ground, 3):
        if is_s_separated(SelectionSet(combo), system, 1):
            for sub in itertools.combinations(combo, 2):
                assert is_s_separated(SelectionSet(sub), system, 1)


def test_separation_rejects_negative_s():
    with pytest.raises(ValueError):
        is_s_separated(SelectionSet(), CircleSystem((4,)), -1)
    # a float s used to be compared as a threshold between two integers
    with pytest.raises(ValueError, match="requires an integer s"):
        is_s_separated(parse_selection("1@1,3@1"), CircleSystem((6,)), 1.5)


# ---------------------------------------------------------------------------
# flatten / unflatten


def test_flatten_frozen_examples():
    system = CircleSystem((4, 3))
    assert flatten(Element(1, 1), system) == 1
    assert flatten(Element(4, 1), system) == 4
    assert flatten(Element(1, 2), system) == 5
    assert flatten(Element(3, 2), system) == 7
    assert unflatten(4, system) == Element(4, 1)
    assert unflatten(5, system) == Element(1, 2)


@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(1, 9)
                                   for n2 in range(1, 9)])
def test_flatten_round_trip(n1, n2):
    system = CircleSystem((n1, n2))
    for i in range(1, n1 + n2 + 1):
        assert flatten(unflatten(i, system), system) == i
    for e in system.elements():
        assert unflatten(flatten(e, system), system) == e


def test_flatten_requires_two_circles():
    with pytest.raises(DomainError):
        flatten(Element(1, 1), CircleSystem((7,)))
    with pytest.raises(DomainError):
        unflatten(1, CircleSystem((3, 3, 3)))


def test_flatten_range_checks():
    system = CircleSystem((4, 3))
    with pytest.raises(ValueError):
        flatten(Element(4, 2), system)
    with pytest.raises(DomainError):
        unflatten(8, system)
    with pytest.raises(DomainError):
        unflatten(0, system)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_element():
    assert parse_element("3@2") == Element(3, 2)
    assert parse_element(" 10@1 ") == Element(10, 1)
    for bad in ("3", "3@", "@2", "a@b", "3@2@1", "0@1"):
        with pytest.raises(ValueError):
            parse_element(bad)


def test_parse_selection_round_trip():
    sel = parse_selection("3@2,1@1,4@1")
    assert sel == SelectionSet((Element(1, 1), Element(4, 1), Element(3, 2)))
    assert parse_selection(str(sel)) == sel
    assert parse_selection("") == SelectionSet()
    assert parse_selection("2@1,2@1") == SelectionSet((Element(2, 1),))


def test_parse_flat_selection():
    assert parse_flat_selection("4,1,4") == (1, 4)
    assert parse_flat_selection("") == ()
    assert parse_flat_selection(" 7 ") == (7,)
    with pytest.raises(ValueError):
        parse_flat_selection("1,x")
    with pytest.raises(ValueError):
        parse_flat_selection("1@1")


def test_format_flat_selection():
    assert format_flat_selection((4, 1)) == "1,4"
    assert format_flat_selection(()) == ""


# ---------------------------------------------------------------------------
# the order of the precondition checks: s and k, then membership, then the
# 1@1 anchor, then circle sizes; the first failing one sets the exception


@pytest.mark.parametrize("call, expected", [
    (lambda: count_system_fixed(CircleSystem((7, 7)), -1, 2, Element(9, 1)),
     DomainError),
    (lambda: count_system_fixed(CircleSystem((7, 7)), 1, 0, Element(9, 1)),
     DomainError),
    (lambda: count_system_fixed(CircleSystem((4, 9)), 2, 2, Element(9, 1)),
     ValueError),
    (lambda: zig(parse_selection("1@1,3@1,9@2"), CircleSystem((3, 4)), 1),
     ValueError),
    (lambda: zag(parse_selection("1@1,3@1,9@2"), CircleSystem((3, 4)), 1),
     ValueError),
    (lambda: zig(parse_selection("1@1,9@2"), CircleSystem((3, 4)), -1),
     DomainError),
])
def test_first_failing_precondition_sets_the_exception(call, expected):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is expected
