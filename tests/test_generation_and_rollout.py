"""Tests for the replica generation engine, environments and trajectory types."""

import numpy as np
import pytest

from repro.rollout import (
    ReplicaGenerationState,
    RolloutReplicaConfig,
    SequenceState,
    SimulatedEnvironment,
    TrajectoryFactory,
    TurnSchedule,
    build_sequence_states,
)
from repro.llm import QWEN_7B
from repro.sim import KVCacheConfig
from repro.types import Prompt, Trajectory
from repro.workload import PromptDataset, math_task, tool_task


def make_replica(max_concurrency=64, blocks=4096, tp=1):
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=tp, max_concurrency=max_concurrency)
    return ReplicaGenerationState(
        replica_id=0,
        decode_model=config.decode_model(),
        kvcache_config=KVCacheConfig(total_blocks=blocks),
        max_concurrency=max_concurrency,
    )


def make_states(lengths, prompt_tokens=64, start_id=0):
    states = []
    for offset, length in enumerate(lengths):
        prompt = Prompt(prompt_id=start_id + offset, group_id=0, prompt_tokens=prompt_tokens)
        trajectory = Trajectory(traj_id=start_id + offset, prompt=prompt, target_tokens=length)
        states.append(SequenceState(trajectory=trajectory, schedule=TurnSchedule.single_turn(length)))
    return states


# --------------------------------------------------------------------------- types
def test_trajectory_progress_and_staleness():
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=100)
    trajectory = Trajectory(traj_id=0, prompt=prompt, target_tokens=50, weight_version=2)
    trajectory.advance(30, weight_version=2)
    assert not trajectory.done and trajectory.remaining_tokens == 20
    trajectory.advance(40, weight_version=3)
    assert trajectory.done and trajectory.generated_tokens == 50
    assert trajectory.mixed_versions
    assert trajectory.inherent_staleness(actor_version_at_finish=5) == 3
    assert trajectory.total_tokens == 150


def test_turn_schedule_validation():
    with pytest.raises(ValueError):
        TurnSchedule(segments=[], env_latencies=[])
    with pytest.raises(ValueError):
        TurnSchedule(segments=[10], env_latencies=[1.0, 2.0])
    schedule = TurnSchedule(segments=[10, 20], env_latencies=[3.0, 0.0])
    assert schedule.total_tokens == 30 and schedule.num_turns == 2


# --------------------------------------------------------------------------- engine basics
def test_single_sequence_completion_time_matches_decode_model():
    replica = make_replica()
    states = make_states([100])
    replica.add_sequences(states)
    duration, done = replica.run_to_completion()
    assert len(done) == 1 and done[0].done
    step = replica.decode_model.decode_step_time(1, 64 + 50)
    # 100 decode steps at roughly the single-sequence step time.
    assert duration == pytest.approx(100 * step, rel=0.25)
    assert replica.stats.tokens_generated == 100
    assert replica.is_idle


def test_completion_order_follows_length():
    replica = make_replica()
    replica.add_sequences(make_states([500, 50, 200]))
    _, done = replica.run_to_completion()
    assert [t.traj_id for t in sorted(done, key=lambda t: t.finish_time)] == [1, 2, 0]


def test_batched_decode_is_faster_than_serial():
    lengths = [200] * 16
    batched = make_replica()
    batched.add_sequences(make_states(lengths))
    batched_time, _ = batched.run_to_completion()

    serial_total = 0.0
    for i, length in enumerate(lengths):
        replica = make_replica()
        replica.add_sequences(make_states([length], start_id=100 + i))
        duration, _ = replica.run_to_completion()
        serial_total += duration
    assert batched_time < 0.25 * serial_total


def test_interrupted_advance_preserves_token_accounting():
    replica = make_replica()
    replica.add_sequences(make_states([300, 300]))
    total_target = 600
    # Advance in many small, unaligned windows (as the Laminar loop does).
    while not replica.is_idle:
        delta = replica.next_event_in()
        if delta is None:
            break
        replica.advance(min(delta, 0.37))
    assert replica.stats.tokens_generated == total_target


# --------------------------------------------------------------------------- slot sizing
def test_fresh_replica_uses_initial_slots_before_growing():
    """A fresh replica hands out slots 0.._INITIAL_SLOTS-1 before it grows,
    and the next sequence doubles the slot block and KV ledger exactly once."""
    from repro.rollout.generation import _INITIAL_SLOTS
    from repro.sim.kvcache import _INITIAL_CAPACITY

    replica = make_replica()
    replica.add_sequences(make_states([50] * _INITIAL_SLOTS))
    assert replica.num_decoding == _INITIAL_SLOTS
    assert replica._a_i64.shape[1] == _INITIAL_SLOTS
    assert sorted(replica._slots.values()) == list(range(_INITIAL_SLOTS))
    assert _INITIAL_CAPACITY == _INITIAL_SLOTS
    assert sorted(replica._dec.rows_view().tolist()) == list(range(_INITIAL_CAPACITY))
    assert len(replica.kvcache._tokens) == _INITIAL_CAPACITY

    replica.add_sequences(make_states([50], start_id=_INITIAL_SLOTS))
    width = 2 * _INITIAL_SLOTS
    assert replica._slots[_INITIAL_SLOTS] == _INITIAL_SLOTS
    assert replica._a_i64.shape == (11, width)
    assert len(replica._a_env) == len(replica._a_status) == len(replica._a_reprefill) == width
    assert replica._a_gen.base is replica._a_i64  # row views rebound to the new block
    assert len(replica.kvcache._tokens) == 2 * _INITIAL_CAPACITY


def test_large_first_intake_grows_geometrically_and_matches_scalar():
    from repro.rollout import ScalarReplicaGenerationState
    from repro.rollout.generation import _INITIAL_SLOTS

    count = 3 * _INITIAL_SLOTS + 1
    lengths = [40 + 17 * (i % 9) for i in range(count)]
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1)
    kwargs = dict(
        replica_id=0, decode_model=config.decode_model(),
        kvcache_config=KVCacheConfig(total_blocks=4096), max_concurrency=64,
    )
    scalar = ScalarReplicaGenerationState(**kwargs)
    vector = ReplicaGenerationState(**kwargs)
    scalar.add_sequences(make_states(lengths))
    vector.add_sequences(make_states(lengths))
    assert vector.num_decoding == count
    assert vector._a_i64.shape[1] == 4 * _INITIAL_SLOTS
    assert sorted(vector._slots.values()) == list(range(count))
    assert len(vector.kvcache._tokens) == 4 * _INITIAL_SLOTS
    while not scalar.is_idle:
        delta = scalar.next_event_in()
        assert vector.next_event_in() == delta
        s_done, v_done = scalar.advance(delta), vector.advance(delta)
        assert [(t.traj_id, t.finish_time, t.generated_tokens) for t in s_done] == [
            (t.traj_id, t.finish_time, t.generated_tokens) for t in v_done
        ]
        assert scalar.clock == vector.clock
        assert scalar.stats == vector.stats
        assert scalar.kvcache.used_blocks == vector.kvcache.used_blocks
        assert scalar.kvcache.peak_blocks == vector.kvcache.peak_blocks
    assert vector.is_idle and vector.kvcache.used_blocks == 0
    assert vector.stats.trajectories_completed == count


def test_kvcache_queueing_and_preemption_free_progress():
    # Tiny cache: only ~2 sequences fit concurrently; the rest wait.
    replica = make_replica(blocks=64)
    replica.add_sequences(make_states([200] * 6, prompt_tokens=128))
    assert replica.num_decoding < 6
    assert replica.num_queued > 0
    _, done = replica.run_to_completion()
    assert len(done) == 6
    assert all(t.done for t in done)


def test_remove_sequences_releases_cache_and_requeues_elsewhere():
    replica = make_replica()
    states = make_states([400, 700, 1000])
    replica.add_sequences(states)
    replica.advance(replica.next_event_in())  # the shortest sequence completes
    removed = replica.remove_all()
    assert len(removed) == 2
    assert replica.is_idle
    assert replica.kvcache.used_blocks == 0
    # Migrated sequences resume on another replica and still finish.
    other = make_replica()
    for state in removed:
        state.needs_reprefill = True
    other.add_sequences(removed)
    _, done = other.run_to_completion()
    assert len(done) == 2
    assert other.stats.reprefill_tokens > 0


def test_multi_turn_env_wait_blocks_decoding():
    replica = make_replica()
    schedule = TurnSchedule(segments=[50, 50], env_latencies=[30.0, 0.0])
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=64, multi_turn=True, max_turns=2)
    trajectory = Trajectory(traj_id=0, prompt=prompt, target_tokens=100)
    replica.add_sequences([SequenceState(trajectory=trajectory, schedule=schedule)])
    duration, done = replica.run_to_completion()
    assert len(done) == 1
    assert done[0].turns_done == 2
    assert duration > 30.0  # the environment latency is on the critical path
    assert replica.stats.env_blocked_time > 0.0


def test_inject_stall_and_weight_version_guard():
    replica = make_replica()
    replica.inject_stall(5.0, busy=False)
    assert replica.clock == 5.0
    replica.set_weight_version(3)
    with pytest.raises(ValueError):
        replica.set_weight_version(1)
    with pytest.raises(ValueError):
        replica.inject_stall(-1.0)


def test_reprefill_all_inflight_charges_time():
    replica = make_replica()
    replica.add_sequences(make_states([500, 800, 1100, 1400]))
    replica.advance(replica.next_event_in())  # shortest finishes, three remain in flight
    before = replica.clock
    stall = replica.reprefill_all_inflight()
    assert stall > 0
    assert replica.clock == pytest.approx(before + stall)
    assert all(s.trajectory.reprefill_count == 1 for s in replica.sequences())


# --------------------------------------------------------------------------- factory / environment
def test_trajectory_factory_is_deterministic_per_seed():
    task = math_task("7B")
    dataset = PromptDataset(task, num_questions=50, seed=0)
    prompts = dataset.sample_batch(2, np.random.default_rng(0))
    lengths_a = [s.trajectory.target_tokens for s in TrajectoryFactory(task, seed=7).make(prompts)]
    lengths_b = [s.trajectory.target_tokens for s in TrajectoryFactory(task, seed=7).make(prompts)]
    assert lengths_a == lengths_b


def test_trajectory_factory_multi_turn_schedules():
    task = tool_task("7B", max_turns=8)
    dataset = PromptDataset(task, num_questions=20, seed=1)
    prompts = dataset.sample_batch(2, np.random.default_rng(1))
    states = TrajectoryFactory(task, seed=2).make(prompts)
    assert any(s.schedule.num_turns > 1 for s in states)
    for state in states:
        assert state.schedule.num_turns <= 8
        assert state.schedule.env_latencies[-1] == 0.0
        assert state.schedule.total_tokens == state.trajectory.target_tokens


def test_environment_scoring_rewards_are_binary_and_difficulty_sensitive():
    task = math_task("7B")
    env = SimulatedEnvironment(task, seed=0)
    easy = Prompt(prompt_id=0, group_id=0, prompt_tokens=64, difficulty=0.05)
    hard = Prompt(prompt_id=1, group_id=1, prompt_tokens=64, difficulty=0.95)
    easy_rewards, hard_rewards = [], []
    for i in range(300):
        t_easy = Trajectory(traj_id=1000 + i, prompt=easy, target_tokens=100)
        t_easy.advance(100, 0)
        t_hard = Trajectory(traj_id=2000 + i, prompt=hard, target_tokens=100)
        t_hard.advance(100, 0)
        easy_rewards.append(env.score(t_easy))
        hard_rewards.append(env.score(t_hard))
    assert set(easy_rewards) <= {-1.0, 1.0}
    assert np.mean(easy_rewards) > np.mean(hard_rewards)


def test_solve_probability_clamp_matches_numpy_clip():
    """The plain-float clamp equals the np.clip formula, both edges included,
    and scoring still draws exactly one random() per trajectory."""
    from repro.rollout.environment import solve_probability

    grid = []
    for difficulty in (-0.5, -0.05, 0.0, 0.05, 0.3, 0.5, 0.95, 1.0, 1.2, 1.5):
        for tokens in (0, 1, 100, 4096, 8191, 8192, 20000):
            expected = float(np.clip(
                0.85 - 0.7 * difficulty + 0.1 * min(1.0, tokens / 8192.0), 0.02, 0.98
            ))
            got = solve_probability(difficulty, tokens)
            assert type(got) is float and got == expected, (difficulty, tokens)
            grid.append((difficulty, tokens, expected))
    assert {0.02, 0.98} <= {p for _, _, p in grid}

    env = SimulatedEnvironment(math_task("7B"), seed=3)
    replay = np.random.default_rng(3)
    for traj_id, (difficulty, tokens, expected) in enumerate(grid):
        prompt = Prompt(prompt_id=traj_id, group_id=0, prompt_tokens=64, difficulty=difficulty)
        trajectory = Trajectory(traj_id=traj_id, prompt=prompt, target_tokens=max(tokens, 1))
        trajectory.generated_tokens = tokens
        assert env.score(trajectory) == (1.0 if replay.random() < expected else -1.0)


def test_build_sequence_states_alignment_check():
    states = make_states([10, 20])
    trajectories = [s.trajectory for s in states]
    schedules = [s.schedule for s in states]
    assert len(build_sequence_states(trajectories, schedules)) == 2
    with pytest.raises(ValueError):
        build_sequence_states(trajectories, schedules[:1])


def test_replica_config_kvcache_sizing():
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1)
    kv = config.kvcache_config()
    assert kv.total_tokens > 100_000  # most of an 80 GB GPU is KVCache for a 7B
    from repro.llm import QWEN_72B
    with pytest.raises(ValueError):
        RolloutReplicaConfig(QWEN_72B, tensor_parallel=1).kvcache_config()
