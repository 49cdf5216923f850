"""Seeded workloads and their correctness checks.

A workload is a list of CLI calls made one after another by one client
(a closed loop).  ``make(name, seed)`` builds it from the seed alone; the
checks compare every output with the oracles in ``oracle``, which share no
code with circsep.

Why these inputs:

* ``enumerate``: one full stream of a 3-circle system (sizes 16,16,17, s=2,
  k=4: 121,030 selections) stresses per-selection cost; eight ``--limit 50``
  pages of 7-circle systems (s=1, k=7, 1,716 ways to distribute k) stress
  time to the first selection.  The calls are fixed and the seed is unused
  (see ``STREAM_SIZES`` for why).  Pages carry no
  ``--fixed``: with one, the time to the first selection swings 0.1-7 s with
  the fixed element's circle, which no seed-to-seed comparison survives.
* ``count``: 9-11 circle systems.  The convolution queries take about half
  the time and the streaming ``--method enumerate`` queries (out of the
  closed forms' range, counts near 45,000) about a third; recursive and
  closed queries and three expected exit-3 refusals fill the rest.  The 150
  closed queries are most of the calls, so the median call is one of them.  The
  1,200-circle query is a known failure of the recursive ``compositions``
  and stays in, so that it shows until it is fixed.
* ``verify``: the default grid at ``--jobs 1``; the seed is unused.
* ``bijection``: 1,500 round trips, ``backward --trace`` then
  ``forward --trace`` of its output, on two circles of sizes 70..120 with
  s=2..3 and k=15..20; inputs are uniform among the combined circle's
  selections through position 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import oracle

PREVIOUS = "<first line of the previous call's stdout>"


@dataclass(frozen=True)
class Call:
    """One CLI call: its kind (which check applies), argv, expected exit code."""

    kind: str
    argv: tuple[str, ...]
    expect_rc: int = 0


@dataclass
class Result:
    rc: int | str  # exit code, or "raised <ExceptionType>"
    out: str
    err: str
    latency: float  # seconds
    first: float | None  # seconds from the call to its first stdout write
    start: float = 0.0  # clock readings at the call's start and end
    end: float = 0.0


def _csv(values) -> str:
    return ",".join(map(str, values))


# The enumerate workload is the same for every seed.  The time of a stream
# moves with the order of its circles, and the time to a page's first
# selection with the order of its sizes and with how many circles can hold 4
# elements rather than 3; with seeded systems, ten seeds spread these times
# by 10-15% while one seed repeats within 3-4%, so the seed rather than the
# code would set the result.  Even the order of the calls moves peak RSS by
# 15%, so it is fixed too.
STREAM_SIZES = (16, 16, 17)
PAGE_SIZES = [(8, 8, 8, 7, 7, 7, 7)[i:] + (8, 8, 8, 7, 7, 7, 7)[:i] for i in range(7)]
PAGE_SIZES.append((8, 7, 8, 7, 8, 7, 7))


def _enumerate(rng: random.Random) -> list[Call]:
    calls = [Call("stream", ("enumerate", "--sizes", _csv(STREAM_SIZES),
                             "--s", "2", "--k", "4"))]
    for page in PAGE_SIZES:
        calls.append(Call("page", ("enumerate", "--sizes", _csv(page), "--s", "1",
                                   "--k", "7", "--limit", "50")))
    return calls


def _count_argv(sizes, s, k, *extra) -> tuple[str, ...]:
    return ("count", "--sizes", _csv(sizes), "--s", str(s), "--k", str(k), *extra)


# systems of 10 circles, all out of the closed forms' range for s=1, k=5,
# whose counts lie within 44,332..46,352.  They are the same for every seed:
# their time moves up to 2x with the order of the circles, and they are the
# slowest calls of a pass, so seeded orders would make call_p99_ms a draw
# of the seed rather than a measure of the code.
STREAMED_COUNTS = ((2, 2, 2, 2, 3, 3, 3, 3, 3, 5), (2, 2, 2, 2, 3, 3, 3, 3, 4, 4),
                   (2, 2, 2, 3, 3, 3, 3, 3, 3, 4), (5, 3, 3, 3, 3, 3, 2, 2, 2, 2))


def _count(rng: random.Random) -> list[Call]:
    calls = []
    for p, k in [(9, 8), (10, 7), (11, 7), (10, 8)] * 4:
        s = rng.randint(1, 2)
        sizes = [rng.randint(s * k + 1, s * k + 12) for _ in range(p)]
        calls.append(Call("count", _count_argv(sizes, s, k, "--method", "convolution")))
    for p, k in [(9, 8), (10, 7), (11, 6), (10, 8), (11, 7)] * 2:
        sizes = [rng.randint(k + 1, k + 12) for _ in range(p)]
        calls.append(Call("count", _count_argv(sizes, 1, k, "--fixed", "1@1",
                                               "--method", "recursive")))
    # the majority, so the median call is a closed one, and many, so that
    # which one it is does not depend on the seed
    for i in range(150):
        p, s, k = rng.randint(9, 11), rng.randint(1, 3), rng.randint(1, 9)
        sizes = [rng.randint(s * k + 1, s * k + 30) for _ in range(p)]
        extra = ("--format", "json") if i % 4 == 0 else ()
        if i % 2:
            c = rng.randint(1, p)
            extra += ("--fixed", f"{rng.randint(1, sizes[c - 1])}@{c}")
        calls.append(Call("count", _count_argv(sizes, s, k, *extra)))
    for sizes in STREAMED_COUNTS:
        calls.append(Call("count", _count_argv(sizes, 1, 5, "--method", "enumerate")))
    small = [rng.randint(3, 5) for _ in range(10)]
    calls += [
        Call("count", _count_argv(small, 1, 5), expect_rc=3),
        Call("count", _count_argv(small, 1, 5, "--fixed", "1@1"), expect_rc=3),
        Call("count", _count_argv(small, 1, 5, "--method", "convolution"), expect_rc=3),
        # known failure: RecursionError in the recursive compositions()
        Call("count", _count_argv([5] * 1200, 1, 1, "--method", "enumerate")),
    ]
    rng.shuffle(calls)
    return calls


def _verify(rng: random.Random) -> list[Call]:
    return [Call("verify", ("verify", "--jobs", "1"))]


def _bijection(rng: random.Random) -> list[Call]:
    calls = []
    for _ in range(1500):
        n1, n2 = rng.randint(70, 120), rng.randint(70, 120)
        s, k = rng.randint(2, 3), rng.randint(15, 20)
        flat = oracle.sample_anchored(rng, n1 + n2, s, k)
        head = ("--sizes", f"{n1},{n2}", "--s", str(s))
        calls.append(Call("backward", ("bijection", "backward", *head,
                                       "--set", _csv(flat), "--trace")))
        calls.append(Call("forward", ("bijection", "forward", *head,
                                      "--set", PREVIOUS, "--trace")))
    return calls


_BUILDERS = {"enumerate": _enumerate, "count": _count, "verify": _verify,
             "bijection": _bijection}
NAMES = tuple(_BUILDERS)


def make(name: str, seed: int) -> list[Call]:
    """The calls of one pass of workload ``name`` for ``seed``."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# checks: each returns None, or (reason, wrong) where ``wrong`` marks a call
# that completed and asserted a wrong answer rather than failing to answer


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _system(argv):
    sizes = tuple(int(n) for n in _opt(argv, "--sizes").split(","))
    return sizes, int(_opt(argv, "--s")), int(_opt(argv, "--k", "0"))


def _check_stream(argv, out):
    sizes, s, k = _system(argv)
    lines = out.splitlines()
    expected = oracle.count(sizes, s, k)
    if len(lines) != expected:
        return f"{len(lines)} selections, expected {expected}"
    previous = ()
    for line in lines:
        pairs = oracle.parse_pairs(line)
        if len(pairs) != k or not oracle.is_separated(pairs, sizes, s):
            return f"{line!r} is not an s-separated {k}-selection"
        if list(pairs) != sorted(pairs) or pairs <= previous:
            return f"{line!r} is out of lexicographic order"
        previous = pairs
    return None


def _check_page(argv, out):
    sizes, s, k = _system(argv)
    limit = int(_opt(argv, "--limit"))
    expected = []
    for pairs in oracle.lex_selections(sizes, s, k):
        if len(expected) == limit:
            break
        expected.append(oracle.format_pairs(pairs) + "\n")
    if out != "".join(expected):
        return "page differs from the lexicographic search"
    return None


def _check_count(argv, out):
    sizes, s, k = _system(argv)
    fixed = _opt(argv, "--fixed")
    circle = int(fixed.split("@")[1]) if fixed else None
    expected = str(oracle.count(sizes, s, k, circle))
    if _opt(argv, "--format") == "json":
        got = json.loads(out)["count"]
    else:
        got = out.strip()
    return None if got == expected else f"count {got}, expected {expected}"


def _check_round_trip(back_call, back, fwd):
    sizes, s, _ = _system(back_call.argv)
    flat = _opt(back_call.argv, "--set")
    k = len(flat.split(","))
    two, zag_line = back.out.splitlines()
    positions, zig_line = fwd.out.splitlines()
    pairs = oracle.parse_pairs(two)
    if len(pairs) != k or (1, 1) not in pairs or not oracle.is_separated(pairs, sizes, s):
        return f"backward({flat}) = {two} is not an s-separated selection through 1@1"
    if positions != flat:
        return f"forward(backward({flat})) = {positions}"
    if not oracle.mirrored(json.loads(zig_line), json.loads(zag_line)):
        return f"zig and zag traces of {flat} are not mirrored"
    return None


def check(calls: list[Call], results: list[Result]) -> list[tuple[str, bool] | None]:
    """One verdict per call of a pass: None when it behaved as expected."""
    verdicts = []
    for i, (call, res) in enumerate(zip(calls, results)):
        if isinstance(res.rc, str):
            verdicts.append((res.rc, False))
            continue
        if res.rc != call.expect_rc:
            verdicts.append((f"exit {res.rc}, expected {call.expect_rc}: "
                             f"{res.err.strip()[:200]}", res.rc in (0, 1, 3)))
            continue
        if call.expect_rc == 3:
            ok = res.out == "" and res.err.startswith("error: ")
            verdicts.append(None if ok else ("exit 3 without an error message", True))
            continue
        try:
            if call.kind == "stream":
                reason = _check_stream(call.argv, res.out)
            elif call.kind == "page":
                reason = _check_page(call.argv, res.out)
            elif call.kind == "count":
                reason = _check_count(call.argv, res.out)
            elif call.kind == "verify":
                last = res.out.splitlines()[-1] if res.out else ""
                reason = None if last.startswith("result: PASS") else f"summary {last!r}"
            elif call.kind == "backward":
                reason = None  # checked with the forward call that follows
            elif results[i - 1].rc != 0:
                verdicts.append(("the backward call before it failed", False))
                continue
            else:
                reason = _check_round_trip(calls[i - 1], results[i - 1], res)
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"malformed output: {exc!r}"
        verdicts.append(None if reason is None else (reason, True))
    return verdicts
