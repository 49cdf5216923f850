import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import circsep.cli as cli
from circsep.core import (CircleSystem, Element, InvariantViolation,
                          SeparationParams)
from circsep.enumeration import (EnumerationRequest, enumerate_gap,
                                 selection_keys, selection_runs)
from circsep.verify import IdentityReport


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def call(argv):
    """``main(argv)`` with stdout and stderr captured, for hypothesis tests,
    which cannot use the function-scoped ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# count


def test_count_single_circle(capsys):
    rc, out, err = run(capsys, "count", "--sizes", "10", "--s", "1", "--k", "3")
    assert (rc, out, err) == (0, "50\n", "")


def test_count_two_circles_json(capsys):
    rc, out, _ = run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
                     "--format", "json")
    assert rc == 0
    assert out == ('{"sizes":[8,7],"s":2,"k":3,"fixed":null,'
                   '"method":"closed","count":"140"}\n')


def test_count_fixed(capsys):
    rc, out, _ = run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
                     "--fixed", "1@1")
    assert (rc, out) == (0, "28\n")
    rc, out, _ = run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
                     "--fixed", "5@2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"sizes": [8, 7], "s": 2, "k": 3, "fixed": "5@2",
                               "method": "closed", "count": "28"}


def test_count_methods_agree(capsys):
    base = ("count", "--sizes", "8,7", "--s", "2", "--k", "3")
    assert run(capsys, *base, "--method", "convolution")[:2] == (0, "140\n")
    assert run(capsys, *base, "--method", "enumerate")[:2] == (0, "140\n")
    assert run(capsys, *base, "--fixed", "1@1",
               "--method", "recursive")[:2] == (0, "28\n")
    assert run(capsys, *base, "--fixed", "1@1",
               "--method", "enumerate")[:2] == (0, "28\n")


def test_count_recomputations_stop_at_the_system_size(capsys):
    # s = 0 admits any k; past N = 15 both recomputations answer 0 at once
    base = ("count", "--sizes", "8,7", "--s", "0", "--k", "1000000000")
    assert run(capsys, *base, "--method", "convolution") == (0, "0\n", "")
    assert run(capsys, *base, "--method", "recursive",
               "--fixed", "1@1") == (0, "0\n", "")


@pytest.fixture
def digit_limit():
    """The int-to-str digit limit at 640, as PYTHONINTMAXSTRDIGITS=640 sets it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.10.7 has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_count_prints_past_the_int_digit_limit(capsys, digit_limit, fmt):
    rc, out, err = run(capsys, "count", "--sizes", "100000", "--s", "1",
                       "--k", "20000", "--format", fmt)
    assert (rc, err) == (0, "")
    count = json.loads(out)["count"] if fmt == "json" else out.rstrip("\n")
    assert count.isdigit() and len(count) == 19536
    assert sys.get_int_max_str_digits() == digit_limit


def test_the_digit_limit_holds_for_arguments_and_after_errors(capsys, digit_limit):
    # argparse parses under the caller's limit: a 700-digit --k is a usage error
    assert run(capsys, "count", "--sizes", "10", "--s", "1", "--k", "1" * 700)[0] == 2
    assert run(capsys, "count", "--sizes", "10", "--s", "1", "--k", "20000")[0] == 3
    assert sys.get_int_max_str_digits() == digit_limit


def test_count_enumerate_covers_what_closed_forms_refuse(capsys):
    rc, out, err = run(capsys, "count", "--sizes", "4", "--s", "2", "--k", "2")
    assert rc == 3
    assert out == ""
    assert "n_1=4" in err and "count_by_enumeration" in err
    rc, out, _ = run(capsys, "count", "--sizes", "4", "--s", "2", "--k", "2",
                     "--method", "enumerate")
    assert (rc, out) == (0, "0\n")


def test_count_enumerate_many_circles(capsys):
    # more circles than the interpreter's recursion limit
    rc, out, _ = run(capsys, "count", "--sizes", ",".join(["5"] * 1200),
                     "--s", "1", "--k", "1", "--method", "enumerate")
    assert (rc, out) == (0, "6000\n")
    rc, out, _ = run(capsys, "count", "--sizes", ",".join(["1"] * 1100),
                     "--s", "0", "--k", "1100", "--method", "enumerate")
    assert (rc, out) == (0, "1\n")


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
               "--method", "recursive")[0] == 2  # recursive needs --fixed 1@1
    assert run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
               "--fixed", "2@1", "--method", "recursive")[0] == 2
    assert run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
               "--fixed", "1@1", "--method", "convolution")[0] == 2
    assert run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3",
               "--fixed", "9@1")[0] == 2  # no such element
    assert run(capsys, "count", "--sizes", "0", "--s", "1", "--k", "1")[0] == 2
    assert run(capsys, "count", "--sizes", "8,7", "--s", "-1", "--k", "3")[0] == 2
    assert run(capsys, "count", "--sizes", "8,7", "--s", "2")[0] == 2


# ---------------------------------------------------------------------------
# enumerate


EXPECTED_43 = ["1@1,3@1", "1@1,1@2", "1@1,2@2", "1@1,3@2"]


def test_enumerate_text(capsys):
    rc, out, _ = run(capsys, "enumerate", "--sizes", "4,3", "--s", "1",
                     "--k", "2", "--fixed", "1@1")
    assert rc == 0
    assert out.splitlines() == EXPECTED_43


def test_enumerate_limit(capsys):
    rc, out, _ = run(capsys, "enumerate", "--sizes", "4,3", "--s", "1",
                     "--k", "2", "--fixed", "1@1", "--limit", "2")
    assert rc == 0
    assert out.splitlines() == EXPECTED_43[:2]


def test_enumerate_json(capsys):
    rc, out, _ = run(capsys, "enumerate", "--sizes", "4,3", "--s", "1",
                     "--k", "2", "--fixed", "1@1", "--format", "json")
    assert rc == 0
    assert out == ('[["1@1","3@1"],["1@1","1@2"],["1@1","2@2"],'
                   '["1@1","3@2"]]\n')


def test_enumerate_csv(capsys):
    rc, out, _ = run(capsys, "enumerate", "--sizes", "4,3", "--s", "1",
                     "--k", "2", "--fixed", "1@1", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == EXPECTED_43


def test_enumerate_empty_family(capsys):
    rc, out, _ = run(capsys, "enumerate", "--sizes", "5", "--s", "2", "--k", "2")
    assert (rc, out) == (0, "")


def test_enumerate_rejects_unknown_fixed(capsys):
    assert run(capsys, "enumerate", "--sizes", "4,3", "--s", "1", "--k", "2",
               "--fixed", "4@2")[0] == 2


def library_output(sizes, s, k, fixed, limit, fmt):
    """What ``enumerate`` prints, formatted from ``enumerate_gap``'s
    ``SelectionSet`` objects."""
    sels = list(enumerate_gap(EnumerationRequest(
        CircleSystem(sizes), SeparationParams(s, k), fixed)))[:limit]
    if fmt == "json":
        return json.dumps([[str(e) for e in sel] for sel in sels],
                          separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for sel in sels:
            writer.writerow([str(e) for e in sel])
        return buf.getvalue()
    return "".join(f"{sel}\n" for sel in sels)


@st.composite
def enumerate_queries(draw):
    """Up to 4 circles of up to 12 positions, s <= 3, k <= 4, sometimes a
    fixed element and a limit; at most 20,000 k-subsets of the ground set."""
    sizes = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    s, k = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    assume(comb(sum(sizes), k) <= 20_000)
    fixed = None
    if draw(st.booleans()):
        circle = draw(st.integers(1, len(sizes)))
        fixed = Element(draw(st.integers(1, sizes[circle - 1])), circle)
    limit = draw(st.none() | st.integers(0, 40))
    fmt = draw(st.sampled_from((None, "text", "json", "csv")))
    return sizes, s, k, fixed, limit, fmt


@settings(max_examples=80, deadline=None)
@given(enumerate_queries())
@example(((5,), 2, 2, None, None, "csv"))         # empty family
@example(((4, 3), 1, 0, None, None, "json"))      # k = 0: one empty selection
@example(((4, 3), 1, 0, Element(1, 1), None, None))
@example(((8, 7), 2, 3, Element(5, 2), 0, "text"))
def test_enumerate_prints_what_the_library_formats(query):
    sizes, s, k, fixed, limit, fmt = query
    argv = ["enumerate", "--sizes", ",".join(map(str, sizes)),
            "--s", str(s), "--k", str(k)]
    if fixed is not None:
        argv += ["--fixed", str(fixed)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    if fmt is not None:
        argv += ["--format", fmt]
    assert call(argv) == (0, library_output(sizes, s, k, fixed, limit, fmt), "")


class RecordingStdout:
    """A stdout stand-in that keeps each ``write`` separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("limit", [0, 1, 2, 2048, 2049, 4097, None])
def test_enumerate_writes_the_first_line_alone_then_whole_blocks(fmt, limit):
    # 5,814 selections: without --limit the last block is a partial one
    sizes, s, k = (12, 12), 1, 4
    argv = ["enumerate", "--sizes", "12,12", "--s", "1", "--k", "4",
            "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = RecordingStdout()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    expected = library_output(sizes, s, k, None, limit, fmt)
    assert "".join(out.writes) == expected
    # the first line alone (JSON is one line, in one write)
    assert out.writes[:1] == expected.splitlines(keepends=True)[:1]
    # every later write is whole lines: full blocks, the last possibly short
    blocks = out.writes[1:]
    assert all(block.endswith("\n") for block in blocks)
    lines = [block.count("\n") for block in blocks]
    assert lines[:-1] == [cli._BLOCK] * (len(lines) - 1)
    assert all(0 < n <= cli._BLOCK for n in lines)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("limit", [2, 101, 2049])
def test_enumerate_limit_inside_a_run_prints_the_head_of_the_stream(fmt, limit):
    # the selection after the last one printed is the same prefix with the
    # next position on the same circle: the limit cuts one run part way
    argv = ["enumerate", "--sizes", "12,12", "--s", "1", "--k", "4",
            "--format", fmt]
    keys = list(selection_keys(EnumerationRequest(
        CircleSystem((12, 12)), SeparationParams(1, 4))))
    *prefix, (c, q) = keys[limit - 1]
    assert keys[limit] == (*prefix, (c, q + 1))
    rc, full, _ = call(argv)
    assert rc == 0
    if fmt == "json":
        head = json.dumps(json.loads(full)[:limit], separators=(",", ":")) + "\n"
    else:
        head = "".join(full.splitlines(keepends=True)[:limit])
    assert call(argv + ["--limit", str(limit)]) == (0, head, "")


@pytest.mark.parametrize("argv, out", [
    # k = 0: the one empty selection, or none through a fixed element
    (["--k", "0"], "\n"),
    (["--k", "0", "--format", "csv"], "\n"),
    (["--k", "0", "--format", "json"], "[[]]\n"),
    (["--k", "0", "--fixed", "1@1"], ""),
    (["--k", "0", "--fixed", "1@1", "--format", "json"], "[]\n"),
    (["--k", "0", "--limit", "0", "--format", "json"], "[]\n"),
    # k = 1: one run per circle, or the fixed element's alone
    (["--k", "1"], "1@1\n2@1\n3@1\n1@2\n2@2\n"),
    (["--k", "1", "--format", "json"], '[["1@1"],["2@1"],["3@1"],["1@2"],["2@2"]]\n'),
    (["--k", "1", "--fixed", "2@2", "--format", "csv"], "2@2\n"),
    (["--k", "1", "--limit", "4"], "1@1\n2@1\n3@1\n1@2\n"),
])
def test_enumerate_k0_and_k1_exactly(argv, out):
    assert call(["enumerate", "--sizes", "3,2", "--s", "1", *argv]) == (0, out, "")


def test_enumerate_limit_allocates_nothing_per_position():
    # a million positions on one circle: the first selections come straight
    # from the search, with no table built over the circle
    argv = ["enumerate", "--sizes", "1000000", "--s", "1", "--k", "2",
            "--limit", "3"]
    tracemalloc.start()
    try:
        result = call(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "1@1,3@1\n1@1,4@1\n1@1,5@1\n", "")
    assert peak < 2**20


# the 5th run of sizes 12,12, s=1, k=4 ends on this line
RUN_END = sum(hi - lo + 1 for _, lo, hi in itertools.islice(
    itertools.chain.from_iterable(runs for _, runs in selection_runs(
        EnumerationRequest(CircleSystem((12, 12)), SeparationParams(1, 4)))), 5))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("sizes, k, fixed, limit", [
    # every prefix pick but the first lies past each last position so far
    ((10, 3), 2, Element(2, 2), None),
    # a limit on a run's last line (limits on a block's last line, 1 + _BLOCK
    # and 1 + 2 * _BLOCK, are in the write-shape test above)
    ((12, 12), 4, None, RUN_END),
])
def test_enumerate_edge_shapes_print_what_the_library_formats(fmt, sizes, k,
                                                              fixed, limit):
    argv = ["enumerate", "--sizes", ",".join(map(str, sizes)), "--s", "1",
            "--k", str(k), "--format", fmt]
    if fixed is not None:
        argv += ["--fixed", str(fixed)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert call(argv) == (0, library_output(sizes, 1, k, fixed, limit, fmt), "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("sizes, s, k, fixed, limit", [
    # last labels 2,042-2,071: runs that end past _BLOCK and start below it,
    # at it or past it
    ((4100,), 2040, 2, None, 300),
    # a prefix pick, 2050@2, past the label table
    ((3, 4100), 2040, 3, Element(2050, 2), None),
    # three runs of 1,046 that end on 2,047, 2,048 and 2,049; the first
    # block ends inside the second
    ((3047,), 1000, 2, None, 3 * 1046),
])
def test_enumerate_across_the_label_table_end_prints_the_library_keys(
        fmt, sizes, s, k, fixed, limit):
    argv = ["enumerate", "--sizes", ",".join(map(str, sizes)), "--s", str(s),
            "--k", str(k), "--format", fmt]
    if fixed is not None:
        argv += ["--fixed", str(fixed)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    keys = itertools.islice(selection_keys(EnumerationRequest(
        CircleSystem(sizes), SeparationParams(s, k), fixed)), limit)
    sels = [[f"{q}@{c}" for c, q in key] for key in keys]
    expected = (json.dumps(sels, separators=(",", ":")) + "\n" if fmt == "json"
                else "".join(",".join(sel) + "\n" for sel in sels))
    assert len(sels) == (limit or 57)
    assert call(argv) == (0, expected, "")


def test_enumerate_late_fixed_element_grows_no_table():
    # the one line printed has a last position near the end of a million:
    # a table of labels up to it would hold about 60 MB
    argv = ["enumerate", "--sizes", "3,1000000", "--s", "1", "--k", "2",
            "--fixed", "999999@2", "--limit", "1"]
    tracemalloc.start()
    try:
        result = call(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "1@1,999999@2\n", "")
    assert peak < 2**20


def test_enumerate_memory_does_not_grow_with_a_label_cache():
    # a million one-label lines: the child reports its own peak RSS, which
    # a cache keyed by (circle, position) pushed past 200 MiB
    code = (
        "import os, resource, sys\n"
        "from circsep.cli import main\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sys.stdout = sink\n"
        "    rc = main(['enumerate', '--sizes', '1000000', '--s', '1', '--k', '1'])\n"
        "    sys.stdout = sys.__stdout__\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    rc, maxrss = map(int, proc.stdout.split())
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    mib = maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    assert rc == 0
    assert mib < 128


def test_enumerate_memory_stays_flat_over_a_huge_circle():
    # the same million lines from the command itself, its stdout at
    # os.devnull; the peak RSS of the one child of a second interpreter, which
    # a table of every position's text pushed to 88 MiB
    code = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'circsep', 'enumerate', '--sizes',"
        " '1000000', '--s', '1', '--k', '1'], stdout=subprocess.DEVNULL,"
        " check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    mib = int(proc.stdout) / (2**20 if sys.platform == "darwin" else 2**10)
    assert mib < 40


def test_enumerate_streams():
    # a family far too large to list: its first line must come out at once
    argv = [sys.executable, "-m", "circsep", "enumerate",
            "--sizes", "200,200,200", "--s", "1", "--k", "10"]
    first = ",".join(f"{p}@1" for p in range(1, 20, 2)) + "\n"
    proc = subprocess.run(argv + ["--limit", "1"], capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, first, "")
    # without a limit, output starts long before the stream ends
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
        finally:
            timer.cancel()
            proc.kill()
    assert line == first


@pytest.mark.parametrize("argv, lines", [
    # a reader that stops after one line, like ``| head -1``
    (["enumerate", "--sizes", "200,200,200", "--s", "1", "--k", "10"], 1),
    # a reader gone before the first write: the output waits in stdout's
    # buffer until the end of main flushes it
    (["count", "--sizes", "10", "--s", "1", "--k", "3"], 0),
])
def test_closed_stdout_exits_141_quietly(argv, lines):
    # no traceback, and not exit 1, which means a failed verification
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "circsep", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            for _ in range(lines):
                assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            rc = proc.wait()
        finally:
            timer.cancel()
    assert (rc, err) == (141, "")


def test_closed_stdout_without_a_descriptor_exits_141():
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    err = io.StringIO()
    with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
        rc = cli.main(["count", "--sizes", "10", "--s", "1", "--k", "3"])
    assert (rc, err.getvalue()) == (141, "")


# ---------------------------------------------------------------------------
# bijection


def test_bijection_forward(capsys):
    rc, out, _ = run(capsys, "bijection", "forward", "--sizes", "4,3",
                     "--s", "1", "--set", "1@1,3@2")
    assert (rc, out) == (0, "1,4\n")


def test_bijection_forward_trace(capsys):
    rc, out, _ = run(capsys, "bijection", "forward", "--sizes", "4,3",
                     "--s", "1", "--set", "1@1,3@2", "--trace")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1,4"
    assert json.loads(lines[1]) == {
        "direction": "zig", "order": 1,
        "steps": [{"i": 0, "window": {"circle": 2, "lo": 3, "hi": 3},
                   "removed": 3, "d": 1, "added": 4}],
    }


def test_bijection_backward(capsys):
    rc, out, _ = run(capsys, "bijection", "backward", "--sizes", "4,3",
                     "--s", "1", "--set", "1,4")
    assert (rc, out) == (0, "1@1,3@2\n")


def test_bijection_json_envelope(capsys):
    rc, out, _ = run(capsys, "bijection", "forward", "--sizes", "4,3",
                     "--s", "1", "--set", "1@1,3@2", "--format", "json")
    assert rc == 0
    assert out == ('{"direction":"forward","sizes":[4,3],"s":1,'
                   '"input":"1@1,3@2","output":"1,4","trace":null}\n')


def test_bijection_round_trip_via_cli(capsys):
    rc, flat, _ = run(capsys, "bijection", "forward", "--sizes", "5,4",
                      "--s", "1", "--set", "1@1,4@1,4@2")
    assert rc == 0
    rc, back, _ = run(capsys, "bijection", "backward", "--sizes", "5,4",
                      "--s", "1", "--set", flat.strip())
    assert (rc, back) == (0, "1@1,4@1,4@2\n")


def test_bijection_usage_errors(capsys):
    assert run(capsys, "bijection", "forward", "--sizes", "4,3,2", "--s", "1",
               "--set", "1@1")[0] == 2
    assert run(capsys, "bijection", "forward", "--sizes", "4,3", "--s", "1",
               "--set", "1,4")[0] == 2  # flat syntax on the forward side
    assert run(capsys, "bijection", "forward", "--sizes", "4,3", "--s", "1",
               "--set", "1@1,5@2")[0] == 2
    assert run(capsys, "bijection", "backward", "--sizes", "4,3", "--s", "1",
               "--set", "1,9")[0] == 2
    assert run(capsys, "bijection", "sideways", "--sizes", "4,3", "--s", "1",
               "--set", "1@1")[0] == 2


def test_bijection_rejects_duplicate_elements(capsys):
    rc, out, err = run(capsys, "bijection", "forward", "--sizes", "9,9",
                       "--s", "1", "--set", "1@1,1@1,4@1")
    assert (rc, out) == (2, "")
    assert "more than once" in err
    rc, out, err = run(capsys, "bijection", "backward", "--sizes", "9,9",
                       "--s", "1", "--set", "1,1,4")
    assert (rc, out) == (2, "")
    assert "more than once" in err


def test_bijection_domain_errors(capsys):
    rc, _, err = run(capsys, "bijection", "forward", "--sizes", "4,3",
                     "--s", "1", "--set", "1@1,2@1")
    assert rc == 3
    assert "s-separated" in err
    rc, _, err = run(capsys, "bijection", "backward", "--sizes", "4,3",
                     "--s", "1", "--set", "2,5")
    assert rc == 3
    assert "1@1" in err


@pytest.mark.parametrize("argv, rc", [
    ("count --sizes 4,3 --s 1 --k 0 --fixed 9@1", 2),
    ("count --sizes 4,3 --s 1 --k 0 --fixed 1@1", 3),
    ("enumerate --sizes 4,3 --s 1 --k 0 --fixed 9@1", 2),
    ("bijection forward --sizes 3,4 --s 1 --set 1@1,3@1,9@2", 2),
    ("bijection forward --sizes 3,4 --s 1 --set 1@1,3@1,2@2", 3),
    ("bijection backward --sizes 4,3 --s 1 --set 1,9", 2),
    # argparse's own validators run before --help is acted on
    ("verify --max-k 0 --help", 2),
    ("count --sizes 0 --s 1 --k 1 --help", 2),
])
def test_first_failing_precondition_sets_the_exit_code(capsys, argv, rc):
    # an absent element or position is a usage error (2) even where a bound
    # on k or on a circle size also fails; a bound alone exits 3
    got, out, err = run(capsys, *argv.split())
    assert (got, out) == (rc, "")
    assert "error: " in err


@pytest.mark.parametrize("argv, message", [
    ("count --sizes 8,7 --s 2 --k 3 --fixed 9@1",
     "--fixed 9@1 does not exist in system [8, 7]"),
    ("count --sizes 8,7 --s 2 --k 3 --method recursive",
     "--method recursive computes the count through the first element only; "
     "it requires --fixed 1@1"),
    ("count --sizes 8,7 --s 2 --k 3 --fixed 1@1 --method convolution",
     "--method convolution computes the free count; it does not accept --fixed"),
    ("bijection forward --sizes 4,3,2 --s 1 --set 1@1",
     "bijection requires exactly two circle sizes"),
    ("bijection forward --sizes 4,3 --s 1 --set 1,4",
     "expected POS@CIRCLE, got '1'"),
    ("bijection backward --sizes 9,9 --s 1 --set 1,1,4",
     "--set lists an element more than once: 1,1,4"),
    ("bijection backward --sizes 4,3 --s 1 --set 1,9",
     "position 9 outside the combined circle 1..7"),
    ("bijection forward --sizes 4,3 --s 1 --set 0@1",
     "bad element '0@1': Element requires position >= 1, got position=0"),
])
def test_usage_error_after_parsing_prints_one_line(capsys, argv, message):
    # the same one line a library ValueError prints, without argparse's usage
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_table(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "circle,divisibility",
                     "--max-size", "6", "--max-k", "2", "--max-s", "1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1].startswith("result: PASS")
    assert all(line.startswith(("PASS", "FAIL", "XFAIL", "SKIP"))
               for line in lines[:-1])


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "circle",
                     "--max-size", "6", "--max-k", "2", "--max-s", "1",
                     "--format", "json")
    assert rc == 0
    for line in out.splitlines():
        report = json.loads(line)
        assert report["check"] == "circle"
        assert report["pass"] or report["skipped"]


def test_verify_unknown_check(capsys):
    assert run(capsys, "verify", "--checks", "circle,nope")[0] == 2
    assert run(capsys, "verify", "--checks", ",")[0] == 2
    assert run(capsys, "verify", "--jobs", "0")[0] == 2


def test_verify_reports_failure_in_exit_code(capsys, monkeypatch):
    # the pipeline turns any failed non-documentation report into exit 1
    monkeypatch.setattr(cli, "verify_all", lambda grid: [
        IdentityReport(check="circle", params={"n": 5, "s": 1, "k": 2},
                       left="5", right="4")])
    rc, out, _ = run(capsys, "verify")
    assert rc == 1
    assert out.splitlines()[-1].startswith("result: FAIL")
    assert out.splitlines()[0].startswith("FAIL")


# ---------------------------------------------------------------------------
# cross-cutting behavior


def test_internal_error_exits_4(capsys, monkeypatch):
    # a broken invariant is a bug in circsep, never a failed verification
    def broken(*args):
        raise InvariantViolation("count_system: 7 is not divisible by 2")

    monkeypatch.setattr(cli, "count_system", broken)
    rc, out, err = run(capsys, "count", "--sizes", "8,7", "--s", "2", "--k", "3")
    assert (rc, out) == (4, "")
    assert err == "internal error: count_system: 7 is not divisible by 2\n"


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "count" in capsys.readouterr().out


def test_repeated_invocations_are_byte_identical(capsys):
    first = run(capsys, "enumerate", "--sizes", "8,7", "--s", "2", "--k", "3")
    second = run(capsys, "enumerate", "--sizes", "8,7", "--s", "2", "--k", "3")
    assert first == second
    assert len(first[1].splitlines()) == 140


def test_closed_and_enumerate_agree_through_the_cli(capsys):
    for sizes, s, k in (("6,5", "1", "2"), ("7,8", "2", "3"),
                        ("9", "2", "3"), ("5,4,3", "1", "2")):
        closed = run(capsys, "count", "--sizes", sizes, "--s", s, "--k", k)
        brute = run(capsys, "count", "--sizes", sizes, "--s", s, "--k", k,
                    "--method", "enumerate")
        assert closed[0] == brute[0] == 0
        assert closed[1] == brute[1]


def _mostly(valid, malformed):
    """Draw from ``valid``, or from ``malformed`` when a drawn digit is 0."""
    return st.integers(0, 9).flatmap(lambda i: malformed if i == 0 else valid)


_BAD_NUMBERS = st.sampled_from(("-1", "x", "", "1.5", "1e2", "3,4"))
_BAD_ELEMENTS = st.sampled_from(
    ("@", "1@", "@1", "3", "0@1", "1@0", "1@1@1", "x@y", "9@9", "-1@1"))
_NUMBERS = _mostly(st.integers(0, 4).map(str), _BAD_NUMBERS)
_ELEMENTS = _mostly(st.builds("{}@{}".format, st.integers(1, 8),
                              st.integers(1, 3)), _BAD_ELEMENTS)
_SIZES = _mostly(
    st.lists(st.integers(1, 8), min_size=1, max_size=3).map(
        lambda sizes: ",".join(map(str, sizes))),
    st.lists(st.sampled_from(("0", "-2", "a", "", " 3", "1e2")),
             max_size=3).map(",".join))
_FORMATS = _mostly(st.sampled_from(("text", "json")), st.just("xml"))
_COMMANDS = {
    "count": {
        "--sizes": _SIZES, "--s": _NUMBERS, "--k": _NUMBERS,
        "--fixed": _ELEMENTS, "--format": _FORMATS,
        "--method": st.sampled_from(
            ("closed", "recursive", "convolution", "enumerate", "nope")),
    },
    "enumerate": {
        "--sizes": _SIZES, "--s": _NUMBERS, "--k": _NUMBERS,
        "--fixed": _ELEMENTS, "--limit": _NUMBERS,
        "--format": _FORMATS | st.just("csv"),
    },
    "bijection": {
        "--sizes": _mostly(st.builds("{},{}".format, st.integers(1, 8),
                                     st.integers(1, 8)), _SIZES),
        "--s": _NUMBERS, "--format": _FORMATS,
        # sometimes led by the anchor, 1@1 forward or 1 backward
        "--set": st.tuples(
            st.sampled_from(("", "1@1,", "1,")),
            (st.lists(_ELEMENTS, min_size=1, max_size=3)
             | st.lists(st.integers(0, 17).map(str), max_size=3)).map(",".join),
        ).map("".join),
    },
}
_REQUIRED = ("--sizes", "--s", "--k", "--set")


@st.composite
def cli_argvs(draw):
    """Structured random argv for ``count``, ``enumerate`` and ``bijection``:
    options mostly present and well formed, in any order.  Circles stay at
    most 3 of at most 8 positions and k at most 4, so that every call is
    fast; ``verify`` is left out, so no process pool starts."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    if command == "bijection":
        argv.append(draw(_mostly(st.sampled_from(("forward", "backward")),
                                 st.just("sideways"))))
    options = _COMMANDS[command]
    for flag in draw(st.permutations(sorted(options))):
        if flag in _REQUIRED or draw(st.booleans()):
            argv += [flag, draw(options[flag])]
    if command == "bijection" and draw(st.booleans()):
        argv.append("--trace")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(("--bogus", "extra", "--k"))))
    return argv


@settings(max_examples=400, deadline=None)
@given(cli_argvs())
def test_random_argv_exits_with_a_defined_code(argv):
    # 1 means a failed verification, which none of these commands runs
    assert call(argv)[0] in {0, 2, 3, 4}


_BAD_COUNTS = _BAD_NUMBERS | st.just("0")  # --max-* and --jobs need >= 1
_BOUNDS = _mostly(st.integers(1, 4).map(str), _BAD_COUNTS)
_VERIFY = {
    "--max-size": _BOUNDS, "--max-k": _BOUNDS, "--max-s": _BOUNDS,
    # real and unknown names, empty pieces, so stray and doubled commas
    "--checks": st.lists(st.sampled_from(cli.CHECKS)
                         | st.sampled_from(("nope", "Circle", "", " ")),
                         max_size=4).map(",".join),
    "--format": _FORMATS,
    # one worker or malformed text, never more than one worker
    "--jobs": _mostly(st.just("1"), _BAD_COUNTS),
}


@st.composite
def verify_argvs(draw):
    """Random ``verify`` argv on grids of at most 4 per bound (every bound is
    given, so the default grid never runs), in any order."""
    argv = ["verify"]
    for flag in draw(st.permutations(sorted(_VERIFY))):
        if flag.startswith("--max-") or draw(st.booleans()):
            argv += [flag, draw(_VERIFY[flag])]
    return argv


@settings(max_examples=150, deadline=None)
@given(verify_argvs())
def test_random_verify_argv_exits_0_or_2(argv):
    # every check passes on a correct tree, so 1 would be a false failure
    assert call(argv)[0] in {0, 2}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "circsep", "count",
         "--sizes", "10", "--s", "1", "--k", "3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "50\n"
