"""Command-line front end.

Four subcommands cover the library surface:

* ``count``      exact counts via closed forms, recursion, convolution, or
                 streaming enumeration
* ``enumerate``  list the selections themselves as text, CSV or JSON, each
                 streamed from the search with no selection objects built
* ``bijection``  map a two-circle selection onto the combined circle and back,
                 optionally with the full switch trace
* ``verify``     sweep the identity checks over a parameter grid, writing each
                 point's line as it is evaluated, so an error keeps those before it

Counts are printed as exact decimal strings (never floats), output for a fixed
invocation is byte-deterministic, and exit codes are stable: 0 success,
1 failed verification, 2 usage error, 3 parameter outside an operation's
precondition (the violated bound is named), 4 internal error (a broken
internal invariant, i.e. a bug in circsep), 141 stdout closed by its reader
(as in ``circsep enumerate ... | head``; nothing is printed, and 141 is what a
shell reports for a writer killed by SIGPIPE).  A command line that argparse
cannot parse prints its usage first; every failure after parsing prints one
line on stderr, ``error: <message>`` (``internal error: ...`` for exit 4).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter

from .core import (CircleSystem, DomainError, Element, InvariantViolation,
                   SelectionSet, SeparationParams, flatten,
                   format_flat_selection, parse_element, parse_flat_selection,
                   parse_selection, unflatten)
from .counting import (count_system, count_system_convolution,
                       count_system_fixed, count_system_fixed_recursive)
from .enumeration import (EnumerationRequest, count_by_enumeration,
                          selection_runs)

# verify.CHECKS (a test ties the two), so that the parser need not import verify
_CHECKS = ("circle", "circle-fixed", "system", "system-fixed", "recursion",
           "convolution", "fixed-sum", "fixed-sum-printed", "bijection",
           "double-count", "divisibility")


def _sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated circle sizes, got {text!r}") from None
    if any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("circle sizes must be positive integers")
    return sizes


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circsep",
        description="Count, enumerate, and bijectively map s-separated "
                    "selections on systems of circles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact count of s-separated k-selections")
    p_count.add_argument("--sizes", type=_sizes, required=True,
                         help="comma-separated circle sizes, e.g. 8,7")
    p_count.add_argument("--s", type=_nonneg, required=True,
                         help="separation distance")
    p_count.add_argument("--k", type=_nonneg, required=True,
                         help="selection size")
    p_count.add_argument("--fixed", type=parse_element, default=None,
                         metavar="POS@CIRCLE",
                         help="count only selections through this element")
    p_count.add_argument("--method",
                         choices=("closed", "recursive", "convolution", "enumerate"),
                         default="closed")
    p_count.add_argument("--format", choices=("text", "json"), default="text")
    p_count.set_defaults(run=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list s-separated k-selections")
    p_enum.add_argument("--sizes", type=_sizes, required=True)
    p_enum.add_argument("--s", type=_nonneg, required=True)
    p_enum.add_argument("--k", type=_nonneg, required=True)
    p_enum.add_argument("--fixed", type=parse_element, default=None,
                        metavar="POS@CIRCLE")
    p_enum.add_argument("--limit", type=_nonneg, default=None,
                        help="stop after this many selections")
    p_enum.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    p_enum.set_defaults(run=_cmd_enumerate)

    p_bij = sub.add_parser("bijection",
                           help="map a selection across the two-circle/one-circle "
                                "bijection")
    p_bij.add_argument("direction", choices=("forward", "backward"))
    p_bij.add_argument("--sizes", type=_sizes, required=True,
                       help="the two circle sizes, e.g. 4,3")
    p_bij.add_argument("--s", type=_nonneg, required=True)
    p_bij.add_argument("--set", required=True, dest="selection",
                       help="forward: POS@CIRCLE list, e.g. 1@1,3@2; "
                            "backward: bare positions on the combined circle, "
                            "e.g. 1,4")
    p_bij.add_argument("--trace", action="store_true",
                       help="also print the switch trace as JSON")
    p_bij.add_argument("--format", choices=("text", "json"), default="text")
    p_bij.set_defaults(run=_cmd_bijection)

    p_ver = sub.add_parser("verify", help="sweep the identity checks over a grid")
    p_ver.add_argument("--checks", default=None, metavar="LIST",
                       help=f"comma-separated subset of: {', '.join(_CHECKS)}")
    p_ver.add_argument("--max-size", type=_positive, default=10)
    p_ver.add_argument("--max-k", type=_positive, default=3)
    p_ver.add_argument("--max-s", type=_positive, default=2)
    p_ver.add_argument("--jobs", type=_positive, default=1)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(run=_cmd_verify)
    return parser


def _json_dump(payload) -> str:
    import json
    return json.dumps(payload, separators=(",", ":"))


def _cmd_count(args) -> int:
    system = CircleSystem(args.sizes)
    fixed = args.fixed
    # the library checks k >= 1 first: at --k 0 an absent element would exit 3
    if fixed is not None and fixed not in system:
        raise ValueError(f"--fixed {fixed} does not exist in system {list(args.sizes)}")
    if args.method == "recursive":
        if fixed != Element(1, 1):
            raise ValueError("--method recursive computes the count through the "
                             "first element only; it requires --fixed 1@1")
        value = count_system_fixed_recursive(system, args.s, args.k)
    elif args.method == "convolution":
        if fixed is not None:
            raise ValueError("--method convolution computes the free count; "
                             "it does not accept --fixed")
        value = count_system_convolution(system, args.s, args.k)
    elif args.method == "enumerate":
        value = count_by_enumeration(EnumerationRequest(
            system, SeparationParams(args.s, args.k), fixed))
    elif fixed is not None:
        value = count_system_fixed(system, args.s, args.k, fixed)
    else:
        value = count_system(system, args.s, args.k)
    if args.format == "json":
        print(_json_dump({
            "sizes": list(args.sizes), "s": args.s, "k": args.k,
            "fixed": str(fixed) if fixed is not None else None,
            "method": args.method, "count": str(value),
        }))
    else:
        print(value)
    return 0


_BLOCK = 2048  # lines per write after the first
_TEXTS = tuple(map(str, range(_BLOCK)))  # str(q) at index q, built at import
# by format: a line's start, label separator and close, and the empty line
_LINES = {"text": ("", ",", "\n", "\n"), "csv": ("", ",", "\n", "\n"),
          "json": (',["', '","', '"]', ",[]")}


def _blocks(request, limit, fmt):
    """The lines of ``request``'s selections in ``fmt``, at most ``limit``:
    the first alone, then blocks of ``_BLOCK``.  Each prefix's text is built
    once; a run, cut at block ends and ``limit``, is one join of its last
    labels with that text between them.  A piece ending below ``_BLOCK`` and
    a pick below it read ``_TEXTS``, the rest ``str``."""
    if limit == 0:
        return
    start, sep, close, empty = _LINES[fmt]
    if request.params.k == 0 and request.fixed is None:
        yield empty  # the empty selection, in no item
    mid = [f"@{c}{sep}" for c in range(request.system.num_circles + 1)]
    tails = [f"@{c}{close}" for c in range(request.system.num_circles + 1)]
    parts, count, cut = [], 0, 1  # this block ends after line cut
    for prefix, runs in selection_runs(request):
        head = start
        for d, p in prefix:
            head += (_TEXTS[p] if p < _BLOCK else str(p)) + mid[d]
        for c, lo, hi in runs:
            while lo <= hi:
                end = min(hi, lo + cut - count - 1)
                labels = (_TEXTS[lo:end + 1] if end < _BLOCK
                          else map(str, range(lo, end + 1)))
                parts.append(head + (tails[c] + head).join(labels) + tails[c])
                count += end - lo + 1
                lo = end + 1
                if count == cut:
                    yield "".join(parts)
                    if count == limit:
                        return
                    parts = []
                    cut = (count + _BLOCK if limit is None
                           else min(count + _BLOCK, limit))
    if parts:
        yield "".join(parts)


def _cmd_enumerate(args) -> int:
    blocks = _blocks(EnumerationRequest(
        CircleSystem(args.sizes), SeparationParams(args.s, args.k), args.fixed),
        args.limit, args.format)
    if args.format == "json":  # each line opens with the comma before it
        sys.stdout.write("[" + next(blocks, ",")[1:])
    for block in blocks:  # CSV's writer would not quote these fields either
        sys.stdout.write(block)
    if args.format == "json":  # what json.dumps writes: labels need no escapes
        sys.stdout.write("]\n")
    return 0


def _parse_set(text: str, parse):
    """Parse ``--set`` with ``parse``; an element listed twice is a usage
    error rather than silently dropped, since it would change k."""
    parsed = parse(text)
    if len(parsed) != (len(text.split(",")) if text.strip() else 0):
        raise ValueError(f"--set lists an element more than once: {text.strip()}")
    return parsed


def _cmd_bijection(args) -> int:
    from .bijection import zag, zig
    system = CircleSystem(args.sizes)
    # zig and zag refuse other systems with DomainError, which would exit 3
    if system.num_circles != 2:
        raise ValueError("bijection requires exactly two circle sizes")
    if args.direction == "forward":
        selection = _parse_set(args.selection, parse_selection)
        repaired, trace = zig(selection, system, args.s)
        out = format_flat_selection(flatten(e, system) for e in repaired)
    else:
        positions = _parse_set(args.selection, parse_flat_selection)
        total = system.total
        # unflatten refuses these with DomainError, which would exit 3
        for p in positions:
            if not 1 <= p <= total:
                raise ValueError(f"position {p} outside the combined circle 1..{total}")
        unflat = SelectionSet(tuple(unflatten(p, system) for p in positions))
        repaired, trace = zag(unflat, system, args.s)
        out = str(repaired)
    if args.format == "json":
        print(_json_dump({
            "direction": args.direction,
            "sizes": list(args.sizes), "s": args.s,
            "input": args.selection.strip(),
            "output": out,
            "trace": trace.as_dict() if args.trace else None,
        }))
    else:
        print(out)
        if args.trace:
            print(_json_dump(trace.as_dict()))
    return 0


def _cmd_verify(args) -> int:
    from .verify import CHECKS, SweepGrid, report_lines, sweep
    checks = CHECKS
    if args.checks is not None:
        checks = tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    grid = SweepGrid(max_size=args.max_size, max_k=args.max_k, max_s=args.max_s,
                     checks=checks, jobs=args.jobs)
    counts = Counter()
    with contextlib.closing(sweep(grid)) as reports:  # a pool ends before main returns
        for line in report_lines(reports, args.format, counts):
            sys.stdout.write(line)
    return 1 if counts["FAIL"] else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # str() refuses ints past this many digits (Python 3.10.7+); 0 lifts it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            code = args.run(args)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        return code
    except SystemExit as exc:  # argparse: --help, or a line it cannot parse
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:  # the reader closed stdout, as ``| head`` does
        # send the rest of the buffer nowhere, so the flush at exit is quiet
        with contextlib.suppress(AttributeError, OSError):  # no descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
