"""Tests for the benchmark itself: seeded inputs, the oracles, the checks and
the tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from circsep import (CircleSystem, Element, EnumerationRequest,  # noqa: E402
                     SeparationParams, count_by_enumeration, count_system,
                     count_system_fixed)
from circsep import cli  # noqa: E402
from circsep.core import DomainError  # noqa: E402

SMALL_PASS = [
    workloads.Call("stream", ("enumerate", "--sizes", "7,6,7", "--s", "1", "--k", "3")),
    workloads.Call("page", ("enumerate", "--sizes", "5,4,6,5", "--s", "1", "--k", "4",
                            "--limit", "50")),
    workloads.Call("count", ("count", "--sizes", "9,8,9", "--s", "1", "--k", "3",
                             "--method", "convolution")),
    workloads.Call("count", ("count", "--sizes", "9,8,9", "--s", "1", "--k", "3",
                             "--fixed", "1@1", "--method", "recursive")),
    workloads.Call("count", ("count", "--sizes", "9,8,9", "--s", "1", "--k", "3",
                             "--fixed", "2@3", "--format", "json")),
    workloads.Call("count", ("count", "--sizes", "3,4,3", "--s", "1", "--k", "3",
                             "--method", "enumerate")),
    workloads.Call("count", ("count", "--sizes", "3,4,3", "--s", "1", "--k", "3"),
                   expect_rc=3),
    workloads.Call("backward", ("bijection", "backward", "--sizes", "20,18", "--s", "2",
                                "--set", "1,9,19,30", "--trace")),
    workloads.Call("forward", ("bijection", "forward", "--sizes", "20,18", "--s", "2",
                               "--set", workloads.PREVIOUS, "--trace")),
    workloads.Call("verify", ("verify", "--max-size", "6", "--max-k", "2")),
]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_deterministic_per_seed(name):
    assert workloads.make(name, 7) == workloads.make(name, 7)
    if name not in ("verify", "enumerate"):  # these two ignore the seed
        assert workloads.make(name, 7) != workloads.make(name, 8)


def test_oracle_matches_circsep_on_a_small_grid():
    for p in (1, 2, 3):
        for sizes in itertools.product(range(1, 7), repeat=p):
            if p == 3 and len(set(sizes)) > 2:
                continue
            system = CircleSystem(sizes)
            for s, k in itertools.product(range(3), range(4)):
                expected = count_by_enumeration(
                    EnumerationRequest(system, SeparationParams(s, k)))
                assert oracle.count(sizes, s, k) == expected
                try:
                    assert oracle.count(sizes, s, k) == count_system(system, s, k)
                except DomainError:
                    pass
                if k == 0:
                    continue
                for c in range(1, p + 1):
                    fixed = Element(sizes[c - 1], c)
                    expected = count_by_enumeration(
                        EnumerationRequest(system, SeparationParams(s, k), fixed))
                    assert oracle.count(sizes, s, k, c) == expected
                    try:
                        assert oracle.count(sizes, s, k, c) == \
                            count_system_fixed(system, s, k, fixed)
                    except DomainError:
                        pass


def test_lex_search_and_sampler():
    sizes, s, k = (6, 5, 7), 1, 3
    found = list(oracle.lex_selections(sizes, s, k))
    assert found == sorted(found) and len(found) == oracle.count(sizes, s, k)
    assert all(oracle.is_separated(sel, sizes, s) for sel in found)
    through = list(oracle.lex_selections(sizes, s, k, fixed=(2, 3)))
    assert through == [sel for sel in found if (2, 3) in sel]
    rng = random.Random(3)
    for _ in range(200):
        flat = oracle.sample_anchored(rng, 40, 3, 8)
        assert flat[0] == 1 and len(flat) == 8
        assert oracle.is_separated([(1, q) for q in flat], (40,), 3)


def test_checks_pass_on_real_output_and_catch_wrong_output():
    _, results = run.run_pass(SMALL_PASS, cli.main)
    assert workloads.check(SMALL_PASS, results) == [None] * len(SMALL_PASS)
    tampered = [workloads.Result(r.rc, r.out, r.err, r.latency, r.first)
                for r in results]
    tampered[0].out = tampered[0].out.replace("1@1,3@1,", "1@1,2@1,", 1)
    tampered[1].out = "".join(tampered[1].out.splitlines(True)[1:])
    tampered[2].out = "1\n"
    tampered[8].out = tampered[8].out.replace('"d":', '"d":1', 1)
    verdicts = workloads.check(SMALL_PASS, tampered)
    assert [i for i, v in enumerate(verdicts) if v] == [0, 1, 2, 8]
    assert all(wrong for _, wrong in filter(None, verdicts))


def test_crash_is_a_failure_but_not_a_wrong_answer():
    calls = [workloads.Call("count", ("count", "--sizes", ",".join(["5"] * 1200),
                                      "--s", "1", "--k", "1", "--method", "enumerate"))]
    _, results = run.run_pass(calls, cli.main)
    assert workloads.check(calls, results) == [("raised RecursionError", False)]


def _bindings():
    names = [(m, n) for m, n, _ in tracer.TIMED + tracer.COUNTED] + [tracer.POINTS]
    return {(m, n): getattr(tracer._module(m), n) for m, n in names
            if hasattr(tracer._module(m), n)}


def test_tracer_restores_bindings_and_keeps_output():
    before = _bindings()
    _, plain = run.run_pass(SMALL_PASS, cli.main)
    with tracer.Tracer() as tr:
        assert all(getattr(tracer._module(m), n) is not f for (m, n), f in before.items())
        _, traced = run.run_pass(SMALL_PASS, lambda argv: tr.span("cli", cli.main, argv))
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert [(r.rc, r.out, r.err) for r in plain] == [(r.rc, r.out, r.err) for r in traced]
    layers = tr.layer_metrics(1)
    assert layers["enumeration.enumerate_gap.yielded"] > 0
    assert layers["bijection.zig.calls"] == layers["bijection.zag.calls"] == 1
    assert layers["verify.check.bijection.points"] > 0
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) == \
        pytest.approx(tr.total_s["cli"], rel=1e-6)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, run.UNITS[name]) for name in run.END_TO_END]
    with tracer.Tracer() as tr:
        pass
    layers = list(tr.layer_metrics(1)) + ["cli.stdout_bytes", "trace.overhead_ratio"]
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == \
        sorted((name, run.unit_of(name)) for name in layers)


def test_speed_probe_samples_and_puts_the_signal_back():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as pr:
        t0, real0 = pr.now(), time.perf_counter()
        while time.perf_counter() - real0 < 0.3:
            pass
        t1, real1 = pr.now(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pr.durations) >= 5
    assert (t1 - t0) == pytest.approx(real1 - real0 - pr.cost, abs=1e-3)
    assert pr.scale(t0, t1) == \
        pytest.approx(probe.REF_S / statistics.fmean(pr.durations))
    with pytest.raises(RuntimeError):
        pr.scale(t1 + 10, t1 + 11)


def test_latencies_are_per_call_medians_over_passes():
    scaled = [[(1.0, None), (4.0, 2.0)], [(3.0, None), (5.0, 1.0)], [(2.0, None), (9.0, 3.0)]]
    assert run.per_call(scaled, 0) == [2.0, 5.0]
    assert run.per_call(scaled, 1) == [None, 2.0]
    assert run.walls(scaled) == [5.0, 8.0, 11.0]
    assert run.p99([7.0]) == 7.0
