"""Benchmark for the circsep CLI: one workload per run, in this interpreter.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Builds the workload's calls from the seed, then runs passes over them for
``--seconds`` seconds, calling ``circsep.cli.main(argv)`` in process from
one client, one call after another.  With ``--trace 1`` the first half of the
time runs untraced and the second half with ``tracer.Tracer`` installed.
Timings are scaled to a reference host speed measured by ``probe`` while
they are taken (see there why).  Outputs are checked against the benchmark's
own oracles after the timed passes.  A result file with metadata and stdout
digests goes to ``perfbench/out/``; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe as speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SPAWNS = 11
# Set-up is timed in fresh interpreters, alternating with interpreters that
# import a fixed set of standard modules.  Imports react to the host's speed
# less than the probe kernel does, so set-up is scaled by these reference
# imports instead: seconds as if the reference took SETUP_REF_S.
SETUP_REF_S = 0.04
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "t0 = time.perf_counter()\n"
    "if sys.argv[1] == 'reference':\n"
    "    import http.client, email.parser, logging, dataclasses, concurrent.futures\n"
    "else:\n"
    "    import circsep.cli\n"
    "    circsep.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "call_p50_ms": "ms",
    "call_p99_ms": "ms", "first_output_ms": "ms", "error_rate": "ratio",
    "selections_per_s": "1/s", "first_selection_ms": "ms", "map_p50_ms": "ms",
    "map_p99_ms": "ms",
}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "call_p50_ms", "call_p99_ms",
              "first_output_ms")


class Capture:
    """A stdout/stderr stand-in that keeps what is written and the time of
    the first write on ``clock``."""

    def __init__(self, clock) -> None:
        self.parts: list[str] = []
        self.first: float | None = None
        self.clock = clock
        self.write = self._first_write  # later writes go straight to the list

    def _first_write(self, text: str) -> int:
        if self.first is None:
            self.first = self.clock()
        self.write = self.parts.append
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def run_pass(calls, main, clock=time.perf_counter):
    """Run every call once, timed on ``clock``; returns (wall seconds,
    [workloads.Result])."""
    raw = []
    previous: list[str] = []
    real_out, real_err = sys.stdout, sys.stderr
    t_pass = clock()
    for call in calls:
        argv = call.argv
        if workloads.PREVIOUS in argv:
            line = "".join(previous).partition("\n")[0]
            argv = tuple(line if a == workloads.PREVIOUS else a for a in argv)
        out, err = Capture(clock), Capture(clock)
        sys.stdout, sys.stderr = out, err
        t0 = clock()
        try:
            rc = main(list(argv))
        except Exception as exc:  # a crash is a failed call, not a failed run
            rc = f"raised {type(exc).__name__}"
        finally:
            t1 = clock()
            sys.stdout, sys.stderr = real_out, real_err
        raw.append((rc, out, err, t0, t1))
        previous = out.parts
    wall = clock() - t_pass
    return wall, [workloads.Result(rc, "".join(out.parts), "".join(err.parts), t1 - t0,
                                   None if out.first is None else out.first - t0, t0, t1)
                  for rc, out, err, t0, t1 in raw]


class PassLog:
    """Timings and stdout digests of passes.  Only the first pass's outputs
    are kept (for the checks); each later pass is compared with it and then
    dropped, so memory does not grow with the number of passes."""

    def __init__(self, reference=None) -> None:
        self.reference = reference
        self.walls: list[float] = []
        self.results: list[list] = []  # per pass: [(latency, first, start, end)]
        self.digests: list[str] = []
        self.differing: list[tuple[int, int]] = []  # (pass, call)

    def add(self, wall: float, results) -> None:
        if self.reference is None:
            self.reference = results
        for i, (a, b) in enumerate(zip(self.reference, results)):
            if (a.rc, a.out, a.err) != (b.rc, b.out, b.err):
                self.differing.append((len(self.walls), i))
        h = hashlib.sha256()
        for res in results:
            h.update(res.out.encode() + b"\0")
        self.walls.append(wall)
        self.results.append([(r.latency, r.first, r.start, r.end) for r in results])
        self.digests.append(h.hexdigest())

    def scaled(self, probe: speed.SpeedProbe):
        """Per pass, each call's (latency, first output) at reference speed."""
        passes = []
        for per_pass in self.results:
            row = []
            for lat, first, start, end in per_pass:
                f = probe.scale(start, end)
                row.append((lat * f, None if first is None else first * f))
            passes.append(row)
        return passes


def timed_passes(calls, main, seconds: float, log: PassLog, clock) -> None:
    """Passes until ``seconds`` have gone by on ``clock`` (at least one)."""
    start = clock()
    while not log.walls or clock() - start < seconds:
        log.add(*run_pass(calls, main, clock))


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import circsep.cli and build its parser, each in a fresh
    interpreter: as measured, and scaled by the reference imports timed just
    before and after.  One untimed spawn first fills the bytecode cache."""
    def spawn(what: str) -> float:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, what, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        return float(done.stdout)

    spawn("circsep")
    reference = [spawn("reference")]
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        raw.append(spawn("circsep"))
        reference.append(spawn("reference"))
        scaled.append(raw[-1] * 2 * SETUP_REF_S / (reference[-2] + reference[-1]))
    return raw, scaled


def source_info() -> dict:
    files = sorted(p for p in SRC.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        if p.suffix == ".py":
            lines += data.count(b"\n")
    return {"src_sha256": h.hexdigest(), "src_lines": lines}


def commit() -> str | None:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout; src_sha256 identifies the code


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def walls(scaled) -> list[float]:
    """Time of each pass's calls."""
    return [sum(lat for lat, _ in per_pass) for per_pass in scaled]


def per_call(scaled, field: int) -> list[float | None]:
    """Each call's median over passes of ``field`` (0: latency, 1: time to
    first output; None for a call that printed nothing).  Every pass repeats
    the same inputs, so this keeps the spread between inputs and drops the
    host's interruptions of single calls, which otherwise set the tail."""
    medians = []
    for i in range(len(scaled[0])):
        values = [p[i][field] for p in scaled if p[i][field] is not None]
        medians.append(statistics.median(values) if values else None)
    return medians


def p99(values) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(name, calls, reference, scaled, setup, rss_mb) -> dict:
    """The bounded metrics of the untraced passes (``scaled`` timings, see
    ``PassLog.scaled``; ``reference``, the first pass's results), then the
    extras that only some workloads define."""
    latency = per_call(scaled, 0)
    first = per_call(scaled, 1)
    metrics = {
        "wall_s": statistics.median(walls(scaled)),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": rss_mb,
        "call_p50_ms": statistics.median(latency) * 1e3,
        "call_p99_ms": p99(latency) * 1e3,
        "first_output_ms": statistics.median(f for f in first if f is not None) * 1e3,
    }
    kinds = [c.kind for c in calls]
    if name == "enumerate":
        i = kinds.index("stream")
        metrics["selections_per_s"] = reference[i].out.count("\n") / latency[i]
        metrics["first_selection_ms"] = statistics.median(
            f for kind, f in zip(kinds, first) if kind == "page" and f is not None) * 1e3
    if name == "bijection":
        metrics["map_p50_ms"] = metrics["call_p50_ms"]
        metrics["map_p99_ms"] = metrics["call_p99_ms"]
    return metrics


def check_outputs(calls, logs) -> list[tuple[int, int, str, bool]]:
    """Failures as (pass, call, reason, wrong answer?) over every pass."""
    verdicts = workloads.check(calls, logs[0].reference)
    failures = []
    n = 0
    for log in logs:
        differing = set(log.differing)
        for p in range(len(log.walls)):
            for i, verdict in enumerate(verdicts):
                if (p, i) in differing:
                    failures.append((n, i, "output differs from the first pass", True))
                elif verdict:
                    failures.append((n, i, *verdict))
            n += 1
    return failures


def check_earlier_runs(stem: str, record: dict) -> list[tuple[int, int, str, bool]]:
    """Runs of the same code on the same inputs must print the same bytes,
    traced or not."""
    failures = []
    for other in OUT.glob(stem + "*.json"):
        try:
            prior = json.loads(other.read_text())
        except (OSError, ValueError):
            continue
        same = all(prior.get(k) == record[k] for k in ("src_sha256", "inputs_sha256"))
        if same and prior.get("stdout_sha256") != record["stdout_sha256"]:
            failures.append((-1, -1, f"stdout differs from {other.name}", True))
    return failures


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    for suffix, unit in ((".self_s", "s"), ("_ms", "ms"), (".us_per_selection", "us"),
                         (".ns_per_selection", "ns"), (".stdout_bytes", "B"),
                         (".overhead_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "circsep" / "cli.py").is_file():
        print(f"error: no circsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    calls = workloads.make(args.workload, args.seed)
    inputs_sha256 = hashlib.sha256(
        json.dumps([c.argv for c in calls]).encode()).hexdigest()
    setup_raw, setup = ([], []) if args.trace else measure_setup()
    import circsep.cli
    cli_main = circsep.cli.main

    budget = args.seconds / 2 if args.trace else args.seconds
    log = PassLog()
    logs, tr = [log], None
    with speed.SpeedProbe() as probe:
        timed_passes(calls, cli_main, budget, log, probe.now)
        if args.trace:
            logs.append(PassLog(log.reference))
            with tracing.Tracer() as tr:
                timed_passes(calls, lambda a: tr.span("cli", cli_main, a), budget,
                             logs[1], probe.now)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # correctness, outside the timed region
    failures = check_outputs(calls, logs)
    attempted = len(calls) * sum(len(lg.walls) for lg in logs)
    scaled = log.scaled(probe)
    metrics = end_to_end(args.workload, calls, log.reference, scaled, setup, rss_mb)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), **source_info(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "inputs_sha256": inputs_sha256, "stdout_sha256": log.digests[0],
        "pass_digests": [d for lg in logs for d in lg.digests],
        "calls_per_pass": len(calls), "untraced_walls_s": log.walls,
        "setup_samples_s": setup_raw,
        "probe_kernel_s": statistics.median(probe.durations), "probe_cost_s": probe.cost,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace"
    failures += check_earlier_runs(stem, record)
    metrics["error_rate"] = len(failures) / attempted

    if args.trace:
        layers = tr.layer_metrics(len(logs[1].walls))
        layers["cli.stdout_bytes"] = sum(len(r.out) for r in log.reference)
        layers["trace.overhead_ratio"] = (statistics.median(walls(logs[1].scaled(probe)))
                                          / metrics["wall_s"])
        reported = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        record.update(traced_walls_s=logs[1].walls, per_layer=layers,
                      inclusive_s=dict(tr.total_s),
                      switch_order_histogram=tr.switch_order_histogram())
    else:
        reported = {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}
    record.update(metrics=metrics, failures=[
        {"pass": n, "call": i, "reason": r, "wrong": w} for n, i, r, w in failures[:50]])
    (OUT / f"{stem}{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for k, v in metrics.items():
        if v is not None:
            print(f"{k:48} {v:14.6g} {UNITS[k]}")
    if args.trace:
        for k, v in reported.items():
            print(f"{k:48} {v['value']:14.6g} {v['unit']}")
    for n, i, reason, _ in failures[:10]:
        print(f"failed: pass {n} call {i}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not any(w for *_, w in failures),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
