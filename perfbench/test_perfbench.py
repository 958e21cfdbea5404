"""Tests of the benchmark's own code: span arithmetic, output checks, host-speed probe."""

import math
import signal
import time
from types import SimpleNamespace

import pytest

from checks import Tally, check_unit, iteration_digest
from probe import NOMINAL_PROBE_S, SpeedProbe, normalized_seconds
from spans import Layer, Recorder, SpanLog, derived_metrics


def _log(*names):
    return SpanLog(names)


def test_self_time_subtracts_nested_children():
    log = _log("a", "b", "c")
    root = log.add("a", 0.0, 10.0)
    b = log.add("b", 1.0, 4.0, root)
    log.add("c", 2.0, 3.0, b)
    log.add("c", 5.0, 9.0, root)
    assert log.self_times() == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]
    totals = log.totals()
    assert totals["a"] == {"calls": 1.0, "s": 10.0, "self_s": 3.0}
    assert totals["c"] == {"calls": 2.0, "s": 5.0, "self_s": 5.0}


def test_self_time_counts_overlapping_children_once():
    log = _log("p", "k")
    root = log.add("p", 0.0, 10.0)
    log.add("k", 1.0, 5.0, root)
    log.add("k", 3.0, 7.0, root)  # overlaps the first child by 2
    log.add("k", 8.0, 12.0, root)  # runs past its parent's end
    assert log.self_times()[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_same_name_nesting_counts_time_and_calls_once():
    log = _log("run", "step")
    outer = log.add("run", 0.0, 8.0)
    inner = log.add("run", 1.0, 7.0, outer)  # an override calling super()
    log.add("step", 2.0, 3.0, inner)
    totals = log.totals()
    assert totals["run"]["calls"] == 1.0
    assert totals["run"]["s"] == 8.0
    assert totals["run"]["self_s"] == pytest.approx(7.0)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(8.0)


def test_live_spans_nest_by_call_order():
    ticks = iter(range(100))
    log = _log("x", "y")
    a = log.open(0, next(ticks))
    b = log.open(1, next(ticks))
    log.close(b, next(ticks))
    log.close(a, next(ticks))
    assert list(log.parent) == [-1, a]
    assert log.self_times() == [2.0, 1.0]
    with pytest.raises(RuntimeError):
        c = log.open(0, 10.0)
        log.open(1, 11.0)
        log.close(c, 12.0)


def _body(log):
    got = yield "first"
    log.append(got)
    try:
        yield "second"
    except KeyError as exc:
        log.append(repr(exc))
    return "done"


def _drive(gen):
    out = [next(gen)]
    out.append(gen.send(1))
    try:
        gen.throw(KeyError("k"))
    except StopIteration as stop:
        out.append(stop.value)
    return out


def test_generator_wrapper_only_observes():
    plain, wrapped = [], []
    recorder = Recorder(layers=(Layer("g", (), generator=True),), clock=iter(range(100)).__next__)
    timed = recorder._gen_wrapper(_body, 0)
    assert _drive(timed(wrapped)) == _drive(_body(plain)) == ["first", "second", "done"]
    assert wrapped == plain == [1, "KeyError('k')"]
    totals = recorder.log.totals()["g"]
    assert totals["calls"] == 1.0 and len(recorder.log) == 3  # one span per resumption


def _metrics(**over):
    names = ("workload.make_replicas", "workload.sample_batch",
             "workload.trajectory_factory", "rollout.add_sequences",
             "runtime.barrier", "runtime.service")
    m = {f"{n}.s": 1.0 for n in names}
    m.update({"rollout.batch_view.lanes": 4.0, "rollout.batch_view.fused": 3.0,
              "sim.calls": 33.0, "sim.self_s": 2.0, "systems.run.s": 9.0})
    m.update(over)
    return m


def test_derived_metrics_shares_and_overheads():
    out = derived_metrics(_metrics(), num_units=3, traced_wall=10.0, untraced_wall=8.0)
    assert out["rollout.fused_share"] == 0.75
    assert out["sim.events_per_unit"] == 11.0
    assert out["bench.overhead_s"] == 1.0
    assert out["bench.trace_overhead_s"] == 2.0
    assert out["split.build_drain_share"] == 0.5
    assert out["split.service_sim_share"] == 0.3
    idle = derived_metrics(_metrics(**{"rollout.batch_view.lanes": 0.0}), 1, 1.0, 1.0)
    assert idle["rollout.fused_share"] == 0.0


def _result(batch=8, n=3):
    its = [SimpleNamespace(iteration=i + 1, end_time=10.0 * (i + 1) + 0.125,
                           tokens_trained=1000 + i, trajectories=batch) for i in range(n)]
    return SimpleNamespace(iterations=its)


def test_reference_digest_passes_and_perturbed_digest_fails():
    result = _result()
    digest = iteration_digest(result.iterations)
    tally = Tally()
    assert tally.record(check_unit(result, 3, 8, expected_digest=digest))
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    problems = check_unit(result, 3, 8, expected_digest=perturbed)
    assert problems and "digest" in problems[0]
    assert not tally.record(problems)
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_digest_sees_one_ulp_of_simulated_time():
    result = _result()
    digest = iteration_digest(result.iterations)
    last = result.iterations[-1]
    last.end_time = math.nextafter(last.end_time, math.inf)
    assert iteration_digest(result.iterations) != digest


def test_short_batch_and_missing_iterations_fail():
    assert check_unit(_result(batch=7), 3, 8)
    assert check_unit(_result(n=2), 3, 8)
    assert check_unit(_result(), 3, 8) == []


def test_baseline_metrics_compare_exactly():
    result = _result()
    breakdown = SimpleNamespace(generation_time=5.0, training_time=2.0,
                                weight_sync_time=1.0, bubble_time=0.5)
    result.throughput = lambda warmup: 100.0
    result.mean_iteration_time = lambda warmup: 10.0
    result.mean_breakdown = lambda: breakdown
    result.mean_staleness = lambda: 0.0
    expected = {"throughput_tok_s": 100.0, "iteration_time_s": 10.0,
                "generation_bound": 1.0, "generation_time": 5.0, "training_time": 2.0,
                "weight_sync_time": 1.0, "bubble_time": 0.5, "mean_staleness": 0.0}
    assert check_unit(result, 3, 8, expected_metrics=expected, warmup=1) == []
    expected["bubble_time"] = math.nextafter(0.5, 1.0)
    assert check_unit(result, 3, 8, expected_metrics=expected, warmup=1)


def test_normalized_seconds_scales_each_interval_by_its_probe():
    # 1 s at a probe time of 0.5 s, then 0.5 s at 0.25 s: 2 + 2 probe loops.
    samples = [(1.0, 0.5), (2.0, 0.25)]
    assert normalized_seconds(0.0, samples) == pytest.approx(4 * NOMINAL_PROBE_S)
    # Twice as slow a host: every interval and every probe doubles.
    slow = [(2.0, 1.0), (4.0, 0.5)]
    assert normalized_seconds(0.0, slow) == pytest.approx(normalized_seconds(0.0, samples))


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe(period_s=0.001) as probe:
        end = time.process_time() + 0.05
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= 2  # timer ticks plus the closing probe
    assert probe.normalized_seconds() > 0.0
