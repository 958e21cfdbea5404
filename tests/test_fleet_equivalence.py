"""Fleet-stepped vs per-replica-process equivalence: the stepping-mode gate.

The fleet engine (:mod:`repro.runtime.fleet`) replaces N per-replica
``sim.engine`` processes with one fleet process per scenario.  Its contract is
bit-identity: every replica must observe the identical sequence of
``next_event_in`` / ``advance`` calls at the identical simulated instants, so
clocks, stats, trajectories, streamed-completion events and KVCache occupancy
must match the per-replica ``"process"`` mode *exactly* — no tolerances.

The fuzz surface deliberately includes the hard cases: tiny KV pools that
force queueing and preemption storms, multi-turn env waits, repack pulls
mid-window (Laminar), machine/relay/trainer failures mid-window (the fault
drill), the adversarial :mod:`repro.faults` schedules (correlated waves,
spot preemptions, stragglers, degraded networks), and the streamed anchored
barrier whose publications interleave with the trainer.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import make_system_config
from repro.faults import FailurePlan
from repro.llm import QWEN_7B
from repro.rollout import (
    ReplicaGenerationState,
    RolloutReplicaConfig,
    SequenceState,
    TurnSchedule,
)
from repro.runtime import ReplicaFleet, generation_barrier, stepping, stepping_mode
from repro.sim import Environment, KVCacheConfig
from repro.systems import FailureEvent, FailureInjector, FailureKind, LaminarSystem, make_system
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()


# --------------------------------------------------------------------------- barrier fuzz
def make_replicas(seed: int, num_replicas: int, per_replica: int,
                  blocks: int, max_concurrency: int):
    """Seeded random multi-turn workload spread over small-KV replicas."""
    rng = np.random.default_rng(seed)
    replicas = []
    next_id = 0
    for replica_id in range(num_replicas):
        replica = ReplicaGenerationState(
            replica_id=replica_id,
            decode_model=DECODE_MODEL,
            kvcache_config=KVCacheConfig(total_blocks=blocks),
            max_concurrency=max_concurrency,
        )
        states = []
        for _ in range(per_replica):
            num_turns = int(rng.integers(1, 4))
            segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
            env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
            env_latencies.append(0.0)
            prompt = Prompt(prompt_id=next_id, group_id=0,
                            prompt_tokens=int(rng.integers(16, 64)))
            trajectory = Trajectory(traj_id=next_id, prompt=prompt,
                                    target_tokens=sum(segments))
            states.append(SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
            ))
            next_id += 1
        replica.add_sequences(states)
        replicas.append(replica)
    return replicas


def run_barrier(mode: str, seed: int, barrier_shape: str):
    """One barrier generation under a stepping mode; returns everything observable."""
    with stepping(mode):
        env = Environment()
        replicas = make_replicas(seed, num_replicas=4, per_replica=10,
                                 blocks=96, max_concurrency=8)
        streamed = []

        def on_complete(pos, batch):
            streamed.append((env.now, pos, tuple(t.traj_id for t in batch)))

        def body():
            origin = None if barrier_shape == "plain" else env.now
            observer = on_complete if barrier_shape == "streamed" else None
            outcome = yield from generation_barrier(env, replicas, origin, observer)
            return outcome

        process = env.process(body(), name="barrier")
        outcome = env.run(until=process)
        return {
            "now": env.now,
            "duration": outcome.duration,
            "per_replica_time": outcome.per_replica_time,
            "tokens": outcome.tokens_generated,
            "bubble": outcome.bubble_time,
            "trajectories": [(t.traj_id, t.finish_time, t.replica_id, t.turns_done)
                             for t in outcome.trajectories],
            "clocks": [r.clock for r in replicas],
            "stats": [r.stats for r in replicas],
            "kv": [(r.kvcache.used_blocks, r.kvcache.peak_blocks) for r in replicas],
            "streamed": streamed,
        }


@pytest.mark.parametrize("barrier_shape", ["plain", "anchored", "streamed"])
@pytest.mark.parametrize("seed", range(6))
def test_barrier_fuzz_bit_identity(seed, barrier_shape):
    reference = run_barrier("process", seed, barrier_shape)
    fleet = run_barrier("fleet", seed, barrier_shape)
    assert fleet == reference


def test_barrier_empty_fleet_matches():
    for mode in ("process", "fleet"):
        with stepping(mode):
            env = Environment()

            def body():
                outcome = yield from generation_barrier(env, [])
                return outcome

            outcome = env.run(until=env.process(body()))
            assert outcome.duration == 0.0 and outcome.trajectories == []
            assert env.now == 0.0


# --------------------------------------------------------------------------- system fuzz
def run_system(mode: str, name: str, seed: int = 0, task: str = "math",
               gpus: int = 32, scale: float = 1 / 32, iters: int = 3,
               failure: FailureEvent = None, plan: FailurePlan = None,
               **overrides):
    config = make_system_config(name, "7B", gpus, task_type=task).scaled(scale)
    config = replace(config, num_iterations=iters, warmup_iterations=0,
                     seed=seed, **overrides)
    with stepping(mode):
        assert stepping_mode() == mode
        if failure is not None or plan is not None:
            injector = plan.build_injector() if plan is not None else FailureInjector()
            if failure is not None:
                injector.add(failure)
            system = LaminarSystem(config, failure_injector=injector)
        else:
            system = make_system(config)
        return system.run()


def assert_results_identical(reference, fleet):
    assert fleet.wall_clock == reference.wall_clock
    assert fleet.iterations == reference.iterations
    assert fleet.breakdowns == reference.breakdowns
    assert fleet.staleness_samples == reference.staleness_samples
    assert fleet.extras == reference.extras


ALL_SYSTEMS = ("verl", "one_step", "stream_gen", "semi_sync",
               "areal", "laminar", "laminar_norepack")


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_system_run_bit_identity(name):
    """Every orchestration — barrier and continuous — end to end, both modes."""
    reference = run_system("process", name)
    fleet = run_system("fleet", name)
    assert_results_identical(reference, fleet)


@pytest.mark.parametrize("name", ["stream_gen", "laminar"])
@pytest.mark.parametrize("seed", range(3))
def test_multi_turn_tool_bit_identity(name, seed):
    """Env-wait transitions and streamed mini-batches across random seeds."""
    reference = run_system("process", name, seed=seed, task="tool", iters=2)
    fleet = run_system("fleet", name, seed=seed, task="tool", iters=2)
    assert_results_identical(reference, fleet)


@pytest.mark.parametrize("kind", [FailureKind.ROLLOUT_MACHINE,
                                  FailureKind.RELAY,
                                  FailureKind.TRAINER])
def test_failures_mid_window_bit_identity(kind):
    """Machine/relay/trainer failures: retire + respawn lands identically."""
    failure = FailureEvent(time=15.0, kind=kind, target=0)
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, failure=failure)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, failure=failure)
    assert_results_identical(reference, fleet)
    assert reference.iterations  # training survived the failure
    if kind == FailureKind.ROLLOUT_MACHINE:
        # Only machine failovers produce recovery records; make sure the
        # retire + respawn path actually ran.
        assert reference.extras.get("failures_handled", 0.0) >= 1.0


def test_repack_pulls_bit_identity():
    """Laminar with repack enabled at a scale where pulls actually fire."""
    reference = run_system("process", "laminar", gpus=64, scale=1 / 8, iters=4)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 8, iters=4)
    assert_results_identical(reference, fleet)


# --------------------------------------------------------------------------- adversarial fuzz
@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_persistent_straggler_config_bit_identity(name):
    """A config-declared straggler slot degrades every system identically."""
    reference = run_system("process", name, straggler_factors=((1, 2.5),))
    fleet = run_system("fleet", name, straggler_factors=((1, 2.5),))
    assert_results_identical(reference, fleet)
    # The slowdown actually bit: the degraded run is no faster than nominal.
    nominal = run_system("process", name)
    assert reference.wall_clock >= nominal.wall_clock


@pytest.mark.parametrize("seed", range(2))
def test_transient_straggler_wave_bit_identity(seed):
    """Injected slow-down windows (set + paired clear) land identically."""
    plan = FailurePlan.stragglers(seed, num_machines=4, window=(5.0, 25.0),
                                  count=2, factor_range=(1.5, 3.0),
                                  duration_range=(5.0, 15.0))
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, plan=plan)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, plan=plan)
    assert_results_identical(reference, fleet)
    assert reference.extras.get("stragglers_handled", 0.0) >= 1.0


def test_correlated_rack_wave_bit_identity():
    """Simultaneous machine losses (one rack) recover identically."""
    plan = FailurePlan.rack_wave(15.0, rack=0, rack_size=2)
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, plan=plan)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, plan=plan)
    assert_results_identical(reference, fleet)
    assert reference.extras.get("failures_handled", 0.0) >= 2.0


def test_preemption_wave_bit_identity():
    """Spot warning drains gracefully before the reclaim lands."""
    plan = FailurePlan.preemption_wave(10.0, [0, 2], warning_lead=8.0)
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, plan=plan)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, plan=plan)
    assert_results_identical(reference, fleet)
    assert reference.extras.get("preemption_warnings", 0.0) == 2.0
    assert reference.extras.get("spot_preemptions", 0.0) == 2.0


@pytest.mark.parametrize("seed", range(2))
def test_network_degradation_bit_identity(seed):
    """Bandwidth dips + link flaps on the weight-sync path stay identical."""
    plan = FailurePlan.network_degradation(seed, window=(5.0, 30.0), dips=2,
                                           flap_machines=[1],
                                           flap_duration_range=(3.0, 8.0))
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, plan=plan)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, plan=plan)
    assert_results_identical(reference, fleet)
    # At least one degradation event landed inside the simulated run (later
    # ones may fall past the final iteration, which is fine).
    assert reference.extras.get("network_events", 0.0) >= 1.0


@pytest.mark.parametrize("seed", range(3))
def test_chaos_storm_bit_identity(seed):
    """The composed storm — wave + preemption + straggler + network — is the
    union of every adversarial pathway; training must survive it and both
    stepping modes must agree exactly."""
    plan = FailurePlan.chaos(seed, num_machines=4, horizon=60.0)
    reference = run_system("process", "laminar", gpus=64, scale=1 / 16,
                           iters=4, plan=plan)
    fleet = run_system("fleet", "laminar", gpus=64, scale=1 / 16,
                       iters=4, plan=plan)
    assert_results_identical(reference, fleet)
    assert reference.iterations  # training survived the storm


# --------------------------------------------------------------------------- pop_due
def test_pop_due_ties_supersession_and_disarm():
    """Exact-tie members pop one at a time in (wake, stamp) FIFO order over a
    heap laced with superseded and disarmed entries."""
    import math

    from repro.runtime.fleet import FleetState

    state = FleetState()
    for replica_id in range(6):
        state.add_replica(replica_id)
    at = 10.0 + 1e-3  # an inexact float: ties must match bit-for-bit anyway
    later = math.nextafter(at, math.inf)

    state.schedule(0, at)          # stamp 0
    state.schedule(1, at)          # stamp 1
    state.schedule(2, at)          # stamp 2 — superseded below
    state.schedule(3, at)          # stamp 3 — disarmed below
    state.schedule(4, later)       # one ulp later: not a tie
    state.schedule(2, at)          # stamp 5: member 2 re-armed, moves to FIFO back
    state.clear(3)                 # member 3 disarmed: stale heap entry remains

    # Nothing due before the tie instant.
    assert state.pop_due(math.nextafter(at, 0.0)) is None
    assert state.next_wake() == at

    # The tie pops in (wake, stamp) order: 0, 1, then 2's re-arm stamp.
    # Member 3's entry is skipped lazily; member 4 (one ulp later) stays
    # armed until every tied member is out.
    assert state.pop_due(at + 1.0) == 0
    assert state.pop_due(at + 1.0) == 1
    assert state.pop_due(at + 1.0) == 2
    assert all(math.isinf(state.wake[i]) for i in (0, 1, 2, 3))
    assert state.wake[4] == later
    assert state.next_wake() == later

    # The one-ulp-later member comes next, then nothing.
    assert state.pop_due(at) is None
    assert state.pop_due(at + 1.0) == 4
    assert state.pop_due(at + 1.0) is None
    assert state.next_wake() is None


def test_pop_due_replays_wake_stamp_order():
    """Random arm/re-arm/disarm traffic: single pops come out in exactly the
    (wake, last stamp) order of the members still armed."""
    from repro.runtime.fleet import FleetState

    rng = np.random.default_rng(42)
    state = FleetState()
    for replica_id in range(12):
        state.add_replica(replica_id)
    times = [1.0, 1.0 + 2 ** -40, 2.5, 7.0 / 3.0]
    armed = {}  # index -> (wake, stamp) of its live entry
    for stamp in range(60):
        index = int(rng.integers(0, 12))
        if rng.random() < 0.15:
            state.clear(index)
            armed.pop(index, None)
        else:
            at = float(rng.choice(times))
            state.schedule(index, at)
            armed[index] = (at, stamp)
    expected = sorted(armed, key=armed.__getitem__)
    popped = []
    for now in (2.0, 10.0):  # a cut between ties, then everything
        while True:
            index = state.pop_due(now)
            if index is None:
                break
            assert armed[index][0] <= now
            popped.append(index)
    assert popped == expected
    assert np.isinf(state.wake[:12]).all()


# --------------------------------------------------------------------------- exact-tie servicing
def tied_workload(seed: int, count: int, start_id: int):
    """A workload whose *content* depends only on ``seed``.

    Replicas loaded from the same seed (with disjoint id ranges) evolve
    through identical float chains, so their wake-ups tie at the exact same
    float instants.  Real continuous fleets essentially never tie, so these
    synthetic cohorts are what pins the ``(wake, stamp)`` FIFO tie-break.
    """
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        num_turns = int(rng.integers(1, 4))
        segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
        env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
        env_latencies.append(0.0)
        prompt = Prompt(prompt_id=start_id + i, group_id=0,
                        prompt_tokens=int(rng.integers(16, 64)))
        trajectory = Trajectory(traj_id=start_id + i, prompt=prompt,
                                target_tokens=sum(segments))
        states.append(SequenceState(
            trajectory=trajectory,
            schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
        ))
    return states


class _ToyFleet(ReplicaFleet):
    """Minimal continuous fleet: fixed members, recorded completions, and a
    bounded per-member refill budget so drained members park and the run
    terminates on its own."""

    def __init__(self, env, replicas, refill_batches=0, refill_count=4):
        super().__init__(env)
        self._by_id = {r.replica_id: r for r in replicas}
        self._refills_left = {r.replica_id: refill_batches for r in replicas}
        self._refill_count = refill_count
        self.events = []

    def replica(self, replica_id):
        return self._by_id.get(replica_id)

    def refill(self, replica):
        left = self._refills_left[replica.replica_id]
        if left <= 0:
            return
        self._refills_left[replica.replica_id] = left - 1
        # Same content seed for every member: refilled cohorts re-tie.
        replica.add_sequences(tied_workload(
            7000 + left, self._refill_count,
            100_000 * (replica.replica_id + 1) + 100 * left,
        ))

    def on_advance(self, replica, completed):
        for trajectory in completed:
            self.events.append((
                self.env.now, replica.replica_id, trajectory.traj_id,
                trajectory.finish_time, trajectory.generated_tokens,
                trajectory.turns_done,
            ))


def run_toy_fleet(mode: str, workload_seeds, refill_batches=0, blocks=512,
                  slowdowns=()):
    """Drive a synthetic continuous fleet to quiescence under one mode."""
    with stepping(mode):
        env = Environment()
        replicas = []
        for replica_id, seed in enumerate(workload_seeds):
            replica = ReplicaGenerationState(
                replica_id=replica_id,
                decode_model=DECODE_MODEL,
                kvcache_config=KVCacheConfig(total_blocks=blocks),
                max_concurrency=16,
            )
            replica.add_sequences(tied_workload(seed, 8, 1000 * (replica_id + 1)))
            replicas.append(replica)
        for replica_id, factor in slowdowns:
            replicas[replica_id].set_slowdown(decode=factor)
        fleet = _ToyFleet(env, replicas, refill_batches=refill_batches)
        for replica in replicas:
            fleet.spawn(replica.replica_id)
        env.run()
        return {
            "events": fleet.events,
            "clocks": [r.clock for r in replicas],
            "stats": [r.stats for r in replicas],
            "kv": [(r.kvcache.used_blocks, r.kvcache.peak_blocks)
                   for r in replicas],
        }


def cross_replica_ties(events) -> int:
    """Completion instants shared by two or more replicas (exact float ties)."""
    members = {}
    for now, replica_id, *_ in events:
        members.setdefault(now, set()).add(replica_id)
    return sum(1 for ids in members.values() if len(ids) > 1)


@pytest.mark.parametrize("seed", range(3))
def test_grouped_service_exact_ties_bit_identity(seed):
    """Identical members wake at exact float ties: each tied cohort is
    serviced one member at a time in FIFO order and matches process mode."""
    reference = run_toy_fleet("process", [seed] * 4, refill_batches=2)
    fleet = run_toy_fleet("fleet", [seed] * 4, refill_batches=2)
    assert fleet == reference
    assert cross_replica_ties(fleet["events"])  # the tie-break actually ran


@pytest.mark.parametrize("seed", range(2))
def test_grouped_mixed_ties_and_singles_bit_identity(seed):
    """Tied twins interleaved with unique members."""
    reference = run_toy_fleet("process", [seed, seed, seed + 50, seed + 60],
                              refill_batches=1)
    fleet = run_toy_fleet("fleet", [seed, seed, seed + 50, seed + 60],
                          refill_batches=1)
    assert fleet == reference
    assert cross_replica_ties(fleet["events"])


@pytest.mark.parametrize("seed", range(2))
def test_grouped_fallback_queued_lanes_bit_identity(seed):
    """A KV pool too small for the cohort leaves waiting queues on every
    tied member: admission and preemption run inside the tied services."""
    reference = run_toy_fleet("process", [seed] * 4, blocks=64)
    fleet = run_toy_fleet("fleet", [seed] * 4, blocks=64)
    assert fleet == reference
    assert cross_replica_ties(fleet["events"])


def test_grouped_fallback_slowdown_bit_identity():
    """A tied cohort of straggling members."""
    reference = run_toy_fleet("process", [3] * 4,
                              slowdowns=((0, 2.0), (1, 2.0), (2, 2.0), (3, 2.0)))
    fleet = run_toy_fleet("fleet", [3] * 4,
                          slowdowns=((0, 2.0), (1, 2.0), (2, 2.0), (3, 2.0)))
    assert fleet == reference
    assert cross_replica_ties(fleet["events"])


def test_grouped_refill_waits_bit_identity():
    """Members that drain early park on the refill signal mid-run; later
    refills revive them and the revived cohort re-ties."""
    reference = run_toy_fleet("process", [9] * 3, refill_batches=3)
    fleet = run_toy_fleet("fleet", [9] * 3, refill_batches=3)
    assert fleet == reference
    assert cross_replica_ties(fleet["events"])
