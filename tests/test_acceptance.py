"""Acceptance gate: the package's end-to-end guarantees, one test per criterion.

Every comparison is exact integer equality; there are no tolerances anywhere.
Each test prints a single ``[criterion N] ... PASS``/``FAIL`` line (shown with
``pytest -s``); on failure the assertion message carries the first few
offending parameter points.
"""

import itertools
from collections import Counter
from functools import lru_cache

import circsep.cli as cli
from circsep.bijection import (backward, check_bijectivity, forward, zag,
                               zig)
from circsep.core import (CircleSystem, Element, SeparationParams,
                          parse_selection)
from circsep.counting import (binomial, count_circle, count_circle_fixed,
                              count_system, count_system_fixed,
                              count_system_fixed_recursive)
from circsep.enumeration import (EnumerationRequest, count_by_enumeration,
                                 enumerate_gap, enumerate_naive)
from circsep.verify import (verify_convolution_identity,
                            verify_fixed_sum_identity, verify_fixed_sum_printed)


def _verdict(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {label}: {status}")
    assert not failures, (
        f"criterion {number} ({label}): {len(failures)} failing points; "
        f"first: {failures[:3]}")


@lru_cache(maxsize=None)
def _circle_families(n, s, k):
    """All s-separated k-subsets of one circle, as position tuples, by the
    deliberately naive filter."""
    req = EnumerationRequest(CircleSystem((n,)), SeparationParams(s, k))
    return tuple(sel.positions_in(1) for sel in enumerate_naive(req))


def _system_grid():
    """Every multiset of 2 or 3 circle sizes in [s*k+1, 10] for s <= 2, k <= 3."""
    for s in (1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for p in (2, 3):
                for sizes in itertools.combinations_with_replacement(
                        range(lo, 11), p):
                    yield sizes, s, k


def _bijection_grid():
    """Every (n_1, n_2, s, k) with n_1 >= s*k+1, n_2 >= s*k, n_1+n_2 <= 16,
    1 <= k <= 4."""
    for k in range(1, 5):
        for s in itertools.count(0):
            lo1, lo2 = s * k + 1, max(s * k, 1)
            if lo1 + lo2 > 16:
                break
            for n1 in range(lo1, 16 - lo2 + 1):
                for n2 in range(lo2, 16 - n1 + 1):
                    yield n1, n2, s, k


def test_criterion_1_single_circle_closed_form():
    failures = []
    for s in range(1, 4):
        for k in range(1, 6):
            for n in range(s * k + 1, 15):
                closed = count_circle(n, s, k)
                brute = len(_circle_families(n, s, k))
                if closed != brute:
                    failures.append((n, s, k, closed, brute))
    if count_circle(10, 1, 3) != 50:
        failures.append(("pinned", 10, 1, 3, count_circle(10, 1, 3)))
    _verdict(1, "single-circle closed form vs brute force", failures)


def test_criterion_2_fixed_element_counts():
    failures = []
    for s in range(1, 4):
        for k in range(1, 6):
            for n in range(s * k + 1, 15):
                fixed = count_circle_fixed(n, s, k)
                buckets = Counter(
                    p for sel in _circle_families(n, s, k) for p in sel)
                for a in range(1, n + 1):
                    if buckets.get(a, 0) != fixed:
                        failures.append((n, s, k, a, buckets.get(a, 0), fixed))
                if k * count_circle(n, s, k) != n * fixed:
                    failures.append((n, s, k, "double-count"))
    if count_circle_fixed(10, 1, 3) != 15:
        failures.append(("pinned", 10, 1, 3, count_circle_fixed(10, 1, 3)))
    _verdict(2, "fixed-element count at every rotation", failures)


def test_criterion_3_system_counts():
    failures = []
    for sizes, s, k in _system_grid():
        system = CircleSystem(sizes)
        sels = list(enumerate_naive(EnumerationRequest(
            system, SeparationParams(s, k))))
        if count_system(system, s, k) != len(sels):
            failures.append((sizes, s, k, "free", count_system(system, s, k),
                             len(sels)))
        buckets = Counter(e for sel in sels for e in sel)
        for e in system.elements():
            closed = count_system_fixed(system, s, k, e)
            if buckets.get(e, 0) != closed:
                failures.append((sizes, s, k, str(e), buckets.get(e, 0), closed))
                break
    if count_system(CircleSystem((8, 7)), 2, 3) != 140:
        failures.append(("pinned free", 140))
    if count_system_fixed(CircleSystem((8, 7)), 2, 3, Element(1, 1)) != 28:
        failures.append(("pinned fixed", 28))
    _verdict(3, "two- and three-circle counts vs brute force", failures)


def test_criterion_4_bijection_suite():
    failures = []
    points = 0
    for n1, n2, s, k in _bijection_grid():
        points += 1
        report = check_bijectivity(CircleSystem((n1, n2)), s, k)
        if not report.passed:
            failures.append(((n1, n2, s, k), report.failures[0]))
        if n1 + n2 <= 10:
            # check_bijectivity skips the public functions' input checks;
            # run them here on every valid input of the small points
            system = CircleSystem((n1, n2))
            for sel in enumerate_gap(EnumerationRequest(
                    CircleSystem((n1 + n2,)), SeparationParams(s, k),
                    Element(1, 1))):
                flat = sel.positions_in(1)
                again = forward(backward(flat, system, s), system, s)
                if again != flat:
                    failures.append(((n1, n2, s, k), flat, again))
    if points < 1000:
        failures.append(("grid unexpectedly small", points))
    image = sorted(forward(parse_selection(text), CircleSystem((4, 3)), 1)
                   for text in ("1@1,3@1", "1@1,1@2", "1@1,2@2", "1@1,3@2"))
    if image != [(1, 3), (1, 4), (1, 5), (1, 6)]:
        failures.append(("pinned image on [4,3]", image))
    _verdict(4, "bijection round trips, sizes, and mirrored traces", failures)


def test_criterion_5_recursion():
    failures = []
    for sizes, s, k in _system_grid():
        system = CircleSystem(sizes)
        rec = count_system_fixed_recursive(system, s, k)
        direct = count_system_fixed(system, s, k, Element(1, 1))
        if rec != direct:
            failures.append((sizes, s, k, rec, direct))
    terms = [count_circle_fixed(8, 2, j) * count_circle(7, 2, 3 - j)
             for j in (1, 2, 3)]
    if terms != [7, 21, 0] or sum(terms) != 28:
        failures.append(("pinned decomposition", terms))
    _verdict(5, "peel-one-circle recursion vs direct fixed count", failures)


def test_criterion_6_sum_identities():
    failures = []
    for s in (1, 2):
        for k in (1, 2, 3):
            lo = s * k + 1
            for n1 in range(lo, 11):
                for n2 in range(lo, 11):
                    if not verify_convolution_identity(n1, n2, s, k).passed:
                        failures.append(("convolution", n1, n2, s, k))
            for n in range(lo, 11):
                for m in range(max(1, s * k), 11):
                    if not verify_fixed_sum_identity(m, n, s, k).passed:
                        failures.append(("fixed-sum", m, n, s, k))
    conv_terms = [count_circle(7, 2, j) * count_circle(8, 2, 3 - j)
                  for j in range(4)]
    if conv_terms != [0, 84, 56, 0]:
        failures.append(("pinned convolution terms", conv_terms))
    sum_terms = [binomial(7 - 2 * (3 - j) - 1, 3 - j - 1) * count_circle(8, 2, j)
                 for j in range(3)]
    if sum_terms != [0, 16, 12]:
        failures.append(("pinned fixed-sum terms", sum_terms))
    if count_by_enumeration(EnumerationRequest(
            CircleSystem((7, 8)), SeparationParams(2, 3), Element(1, 1))) != 28:
        failures.append(("pinned fixed-sum oracle anchor",))
    printed = verify_fixed_sum_printed(8, 7, 2, 3)
    if printed.passed or printed.left != "32/3":
        failures.append(("misprinted variant not reported as failing",
                         printed.left, printed.right))
    _verdict(6, "convolution and fixed-element sum identities", failures)


def _replay_switches(trace, selection, system, s, direction):
    """Re-derive every recorded switch from scratch and flag any field that
    does not match, any broken window/anchor/order invariant included."""
    n1, n2 = system.sizes
    even_circle = 2 if direction == "zig" else 1
    current = {(e.position, e.circle) for e in selection}
    original = set(current)
    removed_seen = set()
    if direction == "zig":
        last_removed, last_added = n1 + 1, n2 + 1
    else:
        last_removed, last_added = n2 + 1, n1 + 1
    problems = []
    for i, step in enumerate(trace.steps):
        circle = even_circle if i % 2 == 0 else 3 - even_circle
        lo, hi = max(1, last_added - s), last_added - 1
        if (step.index, step.window_circle, step.window_lo, step.window_hi) \
                != (i, circle, lo, hi):
            problems.append(f"step {i}: window fields do not replay")
        hits = [q for q in range(lo, hi + 1) if (q, circle) in current]
        if hits != [step.removed]:
            problems.append(f"step {i}: window is not the singleton {step.removed}")
        if not 1 <= step.gap <= s:
            problems.append(f"step {i}: gap {step.gap} outside 1..{s}")
        if (step.removed, circle) not in original:
            problems.append(f"step {i}: removed element not from the input")
        if (step.removed, circle) in removed_seen:
            problems.append(f"step {i}: element removed twice")
        removed_seen.add((step.removed, circle))
        if step.added != last_removed - step.gap:
            problems.append(f"step {i}: insertion is not gap below last removal")
        current.discard((step.removed, circle))
        other = 3 - circle
        if (step.added, other) in current:
            problems.append(f"step {i}: insertion collides")
        current.add((step.added, other))
        if (1, 1) not in current:
            problems.append(f"step {i}: anchor 1@1 lost")
        last_removed, last_added = step.removed, step.added
    if trace.order > len(selection) - 1:
        problems.append(f"order {trace.order} exceeds k-1")
    return current, problems


def test_criterion_7_structural_invariants():
    failures = []
    # the exact divisions hidden in the closed forms never leave a remainder
    for s in range(1, 4):
        for k in range(1, 6):
            for n in range(s * k + 1, 15):
                if (n * binomial(n - s * k, k)) % (n - s * k):
                    failures.append(("free-form divisor", n, s, k))
                if (n * binomial(n - s * k - 1, k - 1)) % k:
                    failures.append(("fixed-form divisor", n, s, k))
    for sizes, s, k in _system_grid():
        total = sum(sizes)
        if (total * binomial(total - s * k - 1, k - 1)) % k:
            failures.append(("system divisor", sizes, s, k))
    # every switch chain on the whole bijection grid replays cleanly
    for n1, n2, s, k in _bijection_grid():
        system = CircleSystem((n1, n2))
        domain = enumerate_gap(EnumerationRequest(
            system, SeparationParams(s, k), Element(1, 1)))
        for sel in domain:
            zigged, ztrace = zig(sel, system, s)
            end, problems = _replay_switches(ztrace, sel, system, s, "zig")
            if problems or end != {(e.position, e.circle) for e in zigged}:
                failures.append(((n1, n2, s, k), str(sel), "zig", problems[:1]))
                break
            # unflattening the flattened image gives back the same elements,
            # so the zig output is exactly what zag receives
            zagged, gtrace = zag(zigged, system, s)
            end, problems = _replay_switches(gtrace, zigged, system, s, "zag")
            if problems or end != {(e.position, e.circle) for e in zagged}:
                failures.append(((n1, n2, s, k), str(zigged), "zag", problems[:1]))
                break
    _verdict(7, "divisibility and switch-chain invariants", failures)


def test_criterion_8_verify_determinism(capsys):
    args = ["verify", "--max-size", "7", "--max-k", "2", "--max-s", "2",
            "--format", "json"]
    rc1 = cli.main(args + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = cli.main(args + ["--jobs", "2"])
    out2 = capsys.readouterr().out
    failures = []
    if rc1 != 0 or rc2 != 0:
        failures.append(("exit codes", rc1, rc2))
    if out1 != out2:
        failures.append(("reports differ between job counts", len(out1), len(out2)))
    if not out1.strip():
        failures.append(("no reports produced",))
    _verdict(8, "verify output is byte-identical across job counts", failures)
