"""Tests for the shared repro.runtime layer: workload bundle, completion
pipeline, weight-sync components, the DES generation harness, and the
event-driven Laminar runtime."""

from dataclasses import replace

import numpy as np
import pytest

from repro.systems import LaminarSystem, VerlSynchronous, make_system
from repro.experiments import make_system_config
from repro.runtime import (
    CompletionPipeline,
    GlobalWeightSync,
    RelayWeightSync,
    WorkloadBundle,
    stepping,
)
from repro.sim import Environment


def quick_config(system, gpus=32, scale=1 / 32, iters=2, warm=0, task="math"):
    config = make_system_config(system, "7B", gpus, task_type=task).scaled(scale)
    return replace(config, num_iterations=iters, warmup_iterations=warm)


# --------------------------------------------------------------------------- workload bundle
def test_workload_bundle_seed_layout_is_deterministic():
    config = quick_config("verl")
    a = WorkloadBundle.from_config(config)
    b = WorkloadBundle.from_config(config)
    rng_a, rng_b = np.random.default_rng(config.seed + 3), a.rng
    prompts_a = a.dataset.sample_batch(8, a.rng)
    prompts_b = b.dataset.sample_batch(8, b.rng)
    assert [p.prompt_id for p in prompts_a] == [p.prompt_id for p in prompts_b]
    states_a = a.factory.make(prompts_a)
    states_b = b.factory.make(prompts_b)
    assert [s.schedule.total_tokens for s in states_a] == [
        s.schedule.total_tokens for s in states_b
    ]
    assert a.environment.score(states_a[0].trajectory) == b.environment.score(
        states_b[0].trajectory
    )
    del rng_a, rng_b


def test_systems_share_the_bundle_objects():
    """Baselines and Laminar must expose the bundle's objects, not copies."""
    baseline = VerlSynchronous(quick_config("verl"))
    assert baseline.dataset is baseline.workload.dataset
    assert baseline.trainer is baseline.workload.trainer
    assert baseline.decode_model is baseline.workload.decode_model
    laminar = LaminarSystem(quick_config("laminar"))
    assert laminar.dataset is laminar.workload.dataset
    assert laminar.relay is laminar.weight_sync.relay


def test_completion_pipeline_orders_scoring_like_direct_calls():
    config = quick_config("verl")
    a = WorkloadBundle.from_config(config)
    b = WorkloadBundle.from_config(config)
    states = a.factory.make(a.dataset.sample_batch(6, a.rng))
    twin_states = b.factory.make(b.dataset.sample_batch(6, b.rng))
    for s, t in zip(states, twin_states):
        s.trajectory.advance(s.schedule.total_tokens, 0)
        t.trajectory.advance(t.schedule.total_tokens, 0)
    pipeline = CompletionPipeline(environment=a.environment, buffer=a.buffer)
    pipeline.process([s.trajectory for s in states], actor_version=0)
    rewards_direct = [b.environment.score(t.trajectory) for t in twin_states]
    assert [exp.reward for exp in a.buffer.peek_all()] == rewards_direct


# --------------------------------------------------------------------------- weight sync
def test_weight_sync_components_expose_one_surface():
    config = quick_config("one_step")
    model = config.model()
    global_sync = GlobalWeightSync.from_config(config, model)
    assert global_sync.sync_time() > 0
    # Fig 14's claim is about the rollout side: a replica's relay pull waits
    # far less than the blocking global sync that couples every rollout.
    big = make_system_config("laminar", "32B", 512)
    big_model = big.model()
    relay_sync = RelayWeightSync.from_config(big, big_model)
    assert relay_sync.sync_time() > 0
    pull_wait = relay_sync.pull(machine_id=0, time=0.0).wait_time
    assert pull_wait < GlobalWeightSync.from_config(big, big_model).sync_time()
    publication = relay_sync.publish(1, time=10.0)
    assert publication.actor_stall == pytest.approx(relay_sync.sync_time())
    pull = relay_sync.pull(0, publication.broadcast_complete_at + 1.0)
    assert pull.version == 1


# --------------------------------------------------------------------------- generation harness
def test_generation_barrier_matches_serial_run_to_completion():
    """The AllOf-joined replica processes must reproduce the serial reference
    (per-replica run_to_completion) bit for bit: same durations, same
    trajectories, same completion timestamps, same token counts."""
    des = VerlSynchronous(quick_config("verl", scale=1 / 16))
    outcome = des.generate_full_batch(weight_version=0)

    twin = VerlSynchronous(quick_config("verl", scale=1 / 16))
    states = twin.sample_batch_states(0)
    replicas = twin.make_replicas(twin.num_generation_replicas(), 0)
    for index, state in enumerate(states):
        replicas[index % len(replicas)].add_sequences([state])
    reference_durations, reference_trajectories = [], []
    for replica in replicas:
        duration, completed = replica.run_to_completion()
        reference_durations.append(duration)
        reference_trajectories.extend(completed)

    assert outcome.per_replica_time == reference_durations
    assert outcome.duration == max(reference_durations)
    assert [t.traj_id for t in outcome.trajectories] == [
        t.traj_id for t in reference_trajectories
    ]
    assert [t.finish_time for t in outcome.trajectories] == [
        t.finish_time for t in reference_trajectories
    ]
    assert outcome.tokens_generated == sum(r.stats.tokens_generated for r in replicas)


def test_generation_barrier_is_reusable_within_one_environment():
    system = VerlSynchronous(quick_config("verl"))
    env = Environment()

    def driver():
        outcome_a = yield from system.generate_batch_process(env, 0)
        outcome_b = yield from system.generate_batch_process(env, 0)
        return outcome_a, outcome_b

    process = env.process(driver())
    outcome_a, outcome_b = env.run(until=process)
    # Both batches completed; the environment clock covers both barriers.
    assert outcome_a.duration > 0 and outcome_b.duration > 0
    assert env.now == pytest.approx(outcome_a.duration + outcome_b.duration, rel=1e-6)


# --------------------------------------------------------------------------- event-driven systems
def test_all_five_systems_run_on_the_event_engine():
    for name in ("verl", "one_step", "stream_gen", "areal"):
        result = make_system(quick_config(name)).run()
        assert len(result.iterations) == 2, name
        assert result.wall_clock > 0, name
    result = LaminarSystem(quick_config("laminar")).run()
    assert len(result.iterations) == 2
    assert result.wall_clock > 0


def test_laminar_trainer_timestamps_are_exact_not_round_aligned():
    """Iteration completions must not be multiples of the old 1 ms round
    floor or of the repack interval: they land on exact event times
    (trainer compute end + actor push stall)."""
    system = LaminarSystem(quick_config("laminar", iters=3))
    result = system.run()
    for record in result.iterations:
        remainder = record.end_time % system.config.repack_interval
        assert min(remainder, system.config.repack_interval - remainder) > 1e-6
    # End times are strictly increasing and strictly positive.
    ends = [r.end_time for r in result.iterations]
    assert ends == sorted(ends) and ends[0] > 0


def test_laminar_event_driven_run_matches_legacy_behaviour_envelope():
    """Sanity envelope on the ported main loop: run-ahead cap respected,
    replicas stay busy, staleness stays small, weights advance."""
    system = LaminarSystem(quick_config("laminar", iters=4, warm=1))
    result = system.run()
    assert len(result.iterations) == 4
    assert system.trainer.weight_version == 4
    assert result.extras["max_inherent_staleness"] <= 8
    assert result.throughput(1) > 0
    # The relay saw every published version.
    assert system.relay.latest_version() == 4
    # Every trajectory was generated by exactly one policy version.
    assert all(not exp.trajectory.mixed_versions for exp in system.buffer.peek_all())


def test_areal_event_driven_continuous_generation():
    system = make_system(quick_config("areal", iters=3))
    result = system.run()
    assert len(result.iterations) == 3
    assert result.extras["total_reprefill_stall"] > 0
    # Batches become ready at exact completion timestamps: iteration ends are
    # strictly increasing and not multiples of any round length.
    ends = [r.end_time for r in result.iterations]
    assert ends == sorted(ends)
    assert any(e % 20.0 > 1e-6 for e in ends)  # the old 20 s round is gone


@pytest.mark.parametrize("mode", ["fleet", "process"])
def test_areal_in_flight_counter_matches_replica_sequences(mode):
    """AReaL counts its in-flight sequences incrementally; on every top-up
    the count equals what the replicas hold."""
    system = make_system(quick_config("areal", iters=3))
    top_up = system._top_up
    checked = []

    def checked_top_up(replica):
        assert system._in_flight == sum(r.num_sequences for r in system.replicas)
        top_up(replica)
        assert system._in_flight == sum(r.num_sequences for r in system.replicas)
        checked.append(replica.replica_id)

    system._top_up = checked_top_up
    with stepping(mode):
        result = system.run()
    assert len(result.iterations) == 3
    assert len(checked) > len(system.replicas)
    assert system._in_flight > 0
