"""Host-speed probe: times a fixed pure-Python kernel while the workload runs.

The benchmark shares a few cores of a host with other tenants, and the speed
of this process moves between two levels about 1.6-1.9x apart, each lasting
seconds, with no sign in CPU time or steal.  Raw timings of the same code
therefore spread by 20-50% from run to run.  The probe measures that speed
where the workload runs: a timer signal interrupts the workload every
``INTERVAL`` seconds and the handler times a fixed kernel (run once to warm
it, then timed).  The kernel mixes the kinds of work circsep's calls do,
because a kernel of one kind reacts to the host's slow level by more or
less than the workload does: scaled by a bare loop over dicts, tuples and
``str``, the enumerate passes of one run still spread by 12%, against 3-4%
with the mix.  A timing is then scaled by ``REF_S`` over the kernel time
sampled around it, which gives the seconds it would have taken with the
kernel at ``REF_S`` (about the host's fast level on a 2.0 GHz Xeon).  A
faster program still reads faster: the kernel is the benchmark's own code
and the standard library's, and does not change with circsep.

The handler's time is kept out of the workload's: ``now`` is a clock that
stops while the handler runs.
"""

from __future__ import annotations

import argparse
import bisect
import signal
import statistics
import time

import oracle

INTERVAL = 0.04  # seconds between samples
WINDOW = 0.2  # samples this close to a timed span describe its speed
REF_S = 150e-6  # kernel time that scaled timings are expressed at
ARGV = ["count", "--sizes", "3,4,5", "--s", "2", "--k", "7", "--fixed"]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("count")
    p.add_argument("--sizes", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fixed", action="store_true")
    return parser


def kernel(parser: argparse.ArgumentParser) -> int:
    """A fixed mix of what circsep's calls do: argument parsing, dict and
    tuple churn with int-to-str conversion, and a counting DP on Python ints."""
    parser.parse_args(ARGV)
    d: dict[int, int] = {}
    t = 0
    for i in range(100):
        d[i & 31] = d.get(i & 31, 0) + i
        t += len((i, i + 1, str(i)))
    return t + oracle.count((7, 8), 1, 3)


class SpeedProbe:
    """Context manager that samples the kernel on ``SIGALRM`` while active."""

    def __init__(self) -> None:
        self.times: list[float] = []  # on the ``now`` clock
        self.durations: list[float] = []
        self.cost = 0.0  # seconds spent in the handler
        self._parser = make_parser()
        self._previous = None

    def now(self) -> float:
        """``time.perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.cost

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel(self._parser)
        t0 = time.perf_counter()
        kernel(self._parser)
        t1 = time.perf_counter()
        self.times.append(t0 - self.cost)
        self.durations.append(t1 - t0)
        self.cost += t1 - start

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):
            kernel(self._parser)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a span of the ``now`` clock to reference speed:
        ``REF_S`` over the mean kernel time sampled within ``WINDOW`` of it."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        if lo == hi:
            raise RuntimeError("no speed sample near a timed span")
        return REF_S / statistics.fmean(self.durations[lo:hi])
