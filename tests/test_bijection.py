import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

from circsep import bijection
from circsep.bijection import (BijectivityReport, SwitchStep, backward,
                               check_bijectivity, forward, zag, zig)
from circsep.core import (CircleSystem, DomainError, Element,
                          InvariantViolation, SelectionSet, SeparationParams,
                          flatten, is_s_separated, parse_selection, unflatten)
from circsep.enumeration import EnumerationRequest, enumerate_gap, selection_keys

SYS43 = CircleSystem((4, 3))
SYS54 = CircleSystem((5, 4))


# ---------------------------------------------------------------------------
# hand-traced single-switch example on [4, 3], s = 1


def test_zig_single_switch():
    out, trace = zig(parse_selection("1@1,3@2"), SYS43, 1)
    assert out == parse_selection("1@1,4@1")
    assert trace.direction == "zig"
    assert trace.order == 1
    step = trace.steps[0]
    assert (step.index, step.window_circle) == (0, 2)
    assert (step.window_lo, step.window_hi) == (3, 3)
    assert (step.removed, step.gap, step.added) == (3, 1, 4)


def test_zig_trace_dict_schema():
    _, trace = zig(parse_selection("1@1,3@2"), SYS43, 1)
    assert trace.as_dict() == {
        "direction": "zig",
        "order": 1,
        "steps": [{"i": 0, "window": {"circle": 2, "lo": 3, "hi": 3},
                   "removed": 3, "d": 1, "added": 4}],
    }


def test_zag_mirrors_the_switch():
    out, trace = zag(parse_selection("1@1,4@1"), SYS43, 1)
    assert out == parse_selection("1@1,3@2")
    assert trace.direction == "zag"
    assert trace.order == 1
    step = trace.steps[0]
    assert step.window_circle == 1
    assert (step.window_lo, step.window_hi) == (4, 4)
    assert (step.removed, step.gap, step.added) == (4, 1, 3)


def test_zig_output_may_violate_separation_before_flattening():
    out, _ = zig(parse_selection("1@1,3@2"), SYS43, 1)
    assert not is_s_separated(out, SYS43, 1)  # 1@1 and 4@1 are adjacent
    flat = SelectionSet(tuple(Element(flatten(e, SYS43), 1) for e in out))
    assert is_s_separated(flat, CircleSystem((7,)), 1)


def test_forward_image_on_4_3():
    inputs = ["1@1,3@1", "1@1,1@2", "1@1,2@2", "1@1,3@2"]
    images = [forward(parse_selection(text), SYS43, 1) for text in inputs]
    assert images == [(1, 3), (1, 5), (1, 6), (1, 4)]
    assert sorted(images) == [(1, 3), (1, 4), (1, 5), (1, 6)]


def test_backward_inverts_forward_on_4_3():
    assert backward((1, 4), SYS43, 1) == parse_selection("1@1,3@2")
    assert backward((1, 3), SYS43, 1) == parse_selection("1@1,3@1")
    assert backward((1, 5), SYS43, 1) == parse_selection("1@1,1@2")
    assert backward((1, 6), SYS43, 1) == parse_selection("1@1,2@2")


# ---------------------------------------------------------------------------
# a two-switch chain on [5, 4], s = 1


def test_zig_two_switch_chain():
    out, trace = zig(parse_selection("1@1,4@1,4@2"), SYS54, 1)
    assert out == parse_selection("1@1,5@1,3@2")
    assert trace.order == 2
    first, second = trace.steps
    assert (first.window_circle, first.removed, first.gap, first.added) == (2, 4, 1, 5)
    assert (second.window_circle, second.removed, second.gap, second.added) == (1, 4, 1, 3)


def test_zag_two_switch_chain_mirrored():
    zig_out, ztrace = zig(parse_selection("1@1,4@1,4@2"), SYS54, 1)
    flat = sorted(flatten(e, SYS54) for e in zig_out)
    assert flat == [1, 5, 8]
    unflat = SelectionSet(tuple(unflatten(p, SYS54) for p in flat))
    back, gtrace = zag(unflat, SYS54, 1)
    assert back == parse_selection("1@1,4@1,4@2")
    assert gtrace.order == ztrace.order == 2
    for zstep, gstep in zip(ztrace.steps, gtrace.steps):
        assert (gstep.removed, gstep.gap, gstep.added) == \
            (zstep.added, zstep.gap, zstep.removed)


# ---------------------------------------------------------------------------
# degenerate chains


def test_k1_never_switches():
    out, trace = zig(parse_selection("1@1"), CircleSystem((3, 2)), 2)
    assert trace.order == 0
    assert out == parse_selection("1@1")
    assert forward(parse_selection("1@1"), CircleSystem((3, 2)), 2) == (1,)


def test_s0_is_plain_relabeling():
    sel = parse_selection("1@1,2@1,1@2")
    system = CircleSystem((3, 2))
    assert forward(sel, system, 0) == (1, 2, 4)
    _, trace = zig(sel, system, 0)
    assert trace.order == 0  # width-0 windows never hold anything
    assert backward((1, 2, 4), system, 0) == sel


# ---------------------------------------------------------------------------
# round trips and order bounds on a bigger instance


def test_round_trip_grid():
    system = CircleSystem((6, 5))
    for k in (1, 2, 3):
        domain = list(enumerate_gap(EnumerationRequest(
            system, SeparationParams(1, k), Element(1, 1))))
        assert domain
        for sel in domain:
            image = forward(sel, system, 1)
            assert backward(image, system, 1) == sel
            _, trace = zig(sel, system, 1)
            assert trace.order <= k - 1


# ---------------------------------------------------------------------------
# preconditions


def test_zig_requires_separated_input():
    with pytest.raises(DomainError, match="s-separated"):
        zig(parse_selection("1@1,2@1"), SYS43, 1)


def test_zig_requires_the_anchor():
    with pytest.raises(DomainError, match="1@1"):
        zig(parse_selection("2@1,1@2"), SYS43, 1)


def test_zig_size_bounds():
    with pytest.raises(DomainError, match=r"n_1 >= s\*k\+1"):
        zig(parse_selection("1@1,3@1,2@2"), CircleSystem((3, 4)), 1)
    with pytest.raises(DomainError, match=r"n_2 >= s\*k"):
        zig(parse_selection("1@1,3@1"), CircleSystem((7, 1)), 1)


def test_zig_rejects_empty_and_bad_shapes():
    with pytest.raises(DomainError, match="nonempty"):
        zig(SelectionSet(), SYS43, 1)
    with pytest.raises(DomainError, match="two circles"):
        zig(parse_selection("1@1"), CircleSystem((5,)), 1)
    with pytest.raises(DomainError, match="s >= 0"):
        zig(parse_selection("1@1,3@1"), SYS43, -1)
    # checked before the sign, so 1.0 is no more accepted than -1
    for run in (zig, zag):
        with pytest.raises(ValueError, match="requires an integer s"):
            run(parse_selection("1@1,4@2"), SYS54, 1.0)


def test_zag_requires_separated_flattening():
    with pytest.raises(DomainError, match="flattening"):
        zag(parse_selection("1@1,2@1"), SYS43, 1)


def test_backward_validates_positions():
    with pytest.raises(DomainError, match="1..7"):
        backward((1, 9), SYS43, 1)
    with pytest.raises(DomainError, match="1@1"):
        backward((2, 5), SYS43, 1)
    # no rounding: int() would read 4.7 as 4
    for positions in ([1, 4.7], [1, 4.0], [1, "4"]):
        with pytest.raises(ValueError, match="backward requires an integer position"):
            backward(positions, SYS43, 1)


# ---------------------------------------------------------------------------
# structural guards


def test_switch_step_rejects_zero_gap():
    with pytest.raises(InvariantViolation):
        SwitchStep(index=0, window_circle=2, window_lo=3, window_hi=3,
                   removed=3, gap=0, added=4)


def test_switch_step_rejects_removal_outside_window():
    with pytest.raises(InvariantViolation):
        SwitchStep(index=0, window_circle=2, window_lo=3, window_hi=3,
                   removed=5, gap=1, added=4)


# The chain checks three more guarantees that no input reaches: a gap past s
# (the window starts s below the last insertion), and removing an element that
# was inserted or already removed (on each circle, every window lies below the
# last insertion there, and insertions and removals both move down).
@pytest.mark.parametrize("selected, sizes, s, direction, message", [
    ({(1, 1), (2, 4), (2, 5)}, (3, 5), 2, "zig", "window 4..5 on circle 2 holds 2"),
    ({(1, 1)}, (1, 3), 1, "zag", "attempted to remove the anchor 1@1"),
    ({(1, 1), (2, 4)}, (1, 5), 2, "zig", "insertion position 0 outside circle 1"),
    ({(1, 1), (2, 5)}, (1, 5), 1, "zig", "insertion 1@1 collides"),
    ({(2, 1)}, (1, 1), 1, "zig", "executed 1 switches on a size-1 selection"),
])
def test_switch_chain_refuses_a_broken_guarantee(selected, sizes, s, direction,
                                                 message):
    with pytest.raises(InvariantViolation, match=f"{direction}: {message}"):
        bijection._switch_chain(selected, sizes, s, direction)


# ---------------------------------------------------------------------------
# the exhaustive per-point checker


def test_check_bijectivity_hand_traced_point():
    report = check_bijectivity(SYS43, 1, 2)
    assert isinstance(report, BijectivityReport)
    assert report.passed
    assert report.failures == ()
    assert report.domain_size == report.codomain_size == report.expected_size == 4


def test_check_bijectivity_larger_point():
    report = check_bijectivity(CircleSystem((7, 6)), 2, 2)
    assert report.passed
    assert report.domain_size == report.expected_size == 8


@pytest.mark.parametrize("corruption", ["wrong set", "dropped step"])
def test_check_bijectivity_catches_a_broken_zag(monkeypatch, corruption):
    chain = bijection._switch_chain
    chosen = ((1, 1), (2, 6))  # 1@1,6@2: zig and zag each switch once

    def broken(selected, sizes, s, direction):
        steps = chain(selected, sizes, s, direction)
        if direction == "zag" and tuple(sorted(selected)) == chosen:
            if corruption == "wrong set":
                selected.remove((2, 6))
                selected.add((2, 5))
            else:
                steps = steps[:-1]
        return steps

    monkeypatch.setattr(bijection, "_switch_chain", broken)
    report = check_bijectivity(CircleSystem((7, 6)), 2, 2)
    assert not report.passed
    expected = ("backward(forward(1@1,6@2)) = 1@1,5@2, expected 1@1,6@2"
                if corruption == "wrong set" else
                "switch counts differ on 1@1,6@2: zig 1, zag 0")
    assert expected in report.failures


def _raise(selected, steps):
    raise InvariantViolation("broken")


def _move(old, new):
    def change(selected, steps):
        selected.remove(old)
        selected.add(new)
        return steps
    return change


def _unmirror(selected, steps):
    *first, added = steps[0]
    return ((*first, added - 1),)


# on 7,6 at s = 2, k = 2, zig takes 1@1,6@2 to 1@1,7@1 and zag takes it back
@pytest.mark.parametrize("direction, chosen, change, message", [
    ("zig", ((1, 1), (2, 6)), _raise, "zig(1@1,6@2) raised: broken"),
    ("zig", ((1, 1), (2, 6)), _move((1, 7), (1, 2)),
     "forward(1@1,6@2) = (1, 2) is not in the codomain"),
    ("zag", ((1, 1), (1, 7)), _raise, "zag(1@1,7@1) raised: broken"),
    ("zag", ((1, 1), (1, 7)), _unmirror, "steps not mirrored on 1@1,6@2 at switch 0"),
    ("zig", ((1, 1), (2, 6)), _move((1, 7), (1, 6)),
     "forward is not injective: 8 inputs, 7 distinct images"),
])
def test_check_bijectivity_reports_a_broken_chain(monkeypatch, direction, chosen,
                                                  change, message):
    chain = bijection._switch_chain

    def broken(selected, sizes, s, direction_):
        hit = direction_ == direction and tuple(sorted(selected)) == chosen
        steps = chain(selected, sizes, s, direction_)
        return change(selected, steps) if hit else steps

    monkeypatch.setattr(bijection, "_switch_chain", broken)
    failures = check_bijectivity(CircleSystem((7, 6)), 2, 2).failures
    assert message in failures
    if "not injective" not in message:  # an image formed once, or none
        assert not any("not injective" in failure for failure in failures)


def _drop_last(circles):
    """``selection_keys`` less its last selection on ``circles`` circles."""
    def keys(request):
        found = list(selection_keys(request))
        return found[:-1] if request.system.num_circles == circles else found
    return keys


@pytest.mark.parametrize("name, stand_in, message", [
    ("selection_keys", _drop_last(2),
     "forward is not surjective: 1 codomain sets missed, e.g. (1, 7)"),
    ("count_system_fixed", lambda system, s, k, fixed: 9,
     "domain size 8 != closed form 9"),
    ("selection_keys", _drop_last(1), "codomain size 7 != closed form 8"),
])
def test_check_bijectivity_reports_a_wrong_family_or_count(monkeypatch, name,
                                                           stand_in, message):
    monkeypatch.setattr(bijection, name, stand_in)
    assert message in check_bijectivity(CircleSystem((7, 6)), 2, 2).failures


@st.composite
def anchored_points(draw):
    """Two circles of up to 120 positions with s <= 3 and k inside the
    bijection's bounds, and an s-separated k-subset of the combined circle
    through position 1.  Gaps are often the least allowed, so that runs of
    close elements make long switch chains."""
    s = draw(st.integers(0, 3))
    k = draw(st.integers(1, 119 // max(s, 1)))
    n1 = draw(st.integers(s * k + 1, 120))
    n2 = draw(st.integers(max(1, s * k), 120))
    extra = n1 + n2 - k * (s + 1)  # room beyond the least gaps
    assume(extra >= 0)
    positions = [1]
    for _ in range(k - 1):
        slack = min(extra, draw(st.one_of(st.integers(0, 1),
                                          st.integers(0, extra))))
        extra -= slack
        positions.append(positions[-1] + s + 1 + slack)
    return CircleSystem((n1, n2)), s, tuple(positions)


@settings(max_examples=100, deadline=None)
@given(anchored_points())
@example((CircleSystem((7, 3)), 1, (1, 3, 5)))  # n_2 = s*k, the least allowed
def test_round_trip_past_the_exhaustive_range(point):
    system, s, flat = point
    k = len(flat)
    assert is_s_separated(SelectionSet(tuple(Element(p, 1) for p in flat)),
                          CircleSystem((system.total,)), s)
    back = backward(flat, system, s)
    assert forward(back, system, s) == flat
    _, ztrace = zig(back, system, s)
    _, gtrace = zag(SelectionSet(tuple(unflatten(p, system) for p in flat)),
                    system, s)
    target(float(ztrace.order))  # steer the search toward long chains
    assert ztrace.order == gtrace.order <= k - 1
    for zstep, gstep in zip(ztrace.steps, gtrace.steps):
        assert (gstep.removed, gstep.gap, gstep.added) == \
            (zstep.added, zstep.gap, zstep.removed)


def test_check_bijectivity_domain_errors():
    with pytest.raises(DomainError):
        check_bijectivity(SYS43, 2, 2)  # n_1 = 4 < s*k + 1
    with pytest.raises(DomainError):
        check_bijectivity(SYS43, 1, 0)
    with pytest.raises(ValueError, match="requires an integer k"):
        check_bijectivity(SYS54, 1, 2.0)
    with pytest.raises(DomainError):
        check_bijectivity(CircleSystem((5, 5, 5)), 1, 2)
    # either side of n_1 >= s*k+1 and n_2 >= s*k at s = 1, k = 2
    for sizes in ((2, 2), (3, 1)):
        with pytest.raises(DomainError):
            check_bijectivity(CircleSystem(sizes), 1, 2)
    assert check_bijectivity(CircleSystem((3, 2)), 1, 2).passed
