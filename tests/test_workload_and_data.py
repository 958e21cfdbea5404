"""Tests for workload generators and the data module."""

import numpy as np
import pytest

from repro.data import (
    EvictOldest,
    EvictStalest,
    ExperienceBuffer,
    FIFOSampling,
    FreshnessSampling,
    PartialResponsePool,
    PrioritySampling,
    PromptPool,
    UniformSampling,
    make_sampler,
)
from repro.types import Prompt, Trajectory
from repro.workload import (
    EvolvingLengthDistribution,
    PromptDataset,
    get_env_latency,
    get_length_distribution,
    math_task,
    tool_task,
)


def _make_trajectory(traj_id=0, tokens=100, version=0, prompt_tokens=32):
    prompt = Prompt(prompt_id=traj_id, group_id=0, prompt_tokens=prompt_tokens)
    return Trajectory(traj_id=traj_id, prompt=prompt, target_tokens=tokens,
                      weight_version=version)


# --------------------------------------------------------------------------- workload
def test_length_distribution_long_tail_skew():
    """Fig 2: the p99/p50 ratio is close to an order of magnitude."""
    dist = get_length_distribution("math", "7B")
    assert 5.0 <= dist.skew_ratio() <= 25.0
    rng = np.random.default_rng(0)
    samples = dist.sample(rng, 10_000)
    assert samples.min() >= dist.min_tokens
    assert samples.max() <= dist.max_tokens


def test_length_distribution_difficulty_shifts_tail():
    dist = get_length_distribution("math", "7B")
    rng = np.random.default_rng(1)
    easy = dist.sample(rng, 20_000, difficulty=[0.05] * 20_000).mean()
    hard = dist.sample(rng, 20_000, difficulty=[0.95] * 20_000).mean()
    assert hard > easy


def test_evolving_length_distribution_grows_and_caps():
    base = get_length_distribution("math", "7B")
    evolving = EvolvingLengthDistribution(base=base, growth_per_iteration=1.05, max_growth=2.0)
    later = evolving.at_iteration(50)
    assert later.body_median == pytest.approx(base.body_median * 2.0)
    with pytest.raises(ValueError):
        evolving.at_iteration(-1)


def test_env_latency_distribution_shape():
    dist = get_env_latency("code-sandbox")
    rng = np.random.default_rng(2)
    samples = dist.sample(rng, 50_000)
    assert samples.min() >= dist.min_latency
    assert samples.max() <= dist.max_latency
    assert np.percentile(samples, 99) > 5 * np.percentile(samples, 50)


def test_prompt_dataset_group_structure():
    dataset = PromptDataset(math_task("7B"), num_questions=100, seed=0)
    rng = np.random.default_rng(0)
    prompts = dataset.sample_batch(4, rng)
    assert len(prompts) == 4 * 16
    groups = {}
    for prompt in prompts:
        groups.setdefault(prompt.group_id, []).append(prompt)
    assert len(groups) == 4
    for members in groups.values():
        assert len(members) == 16
        assert len({m.difficulty for m in members}) == 1  # same underlying question


@pytest.mark.parametrize("task", [math_task("7B"), tool_task("7B")], ids=["math", "tool"])
def test_sample_batch_limit_builds_the_kept_prefix(task):
    k, g = 3, task.group_size
    for limit in (1, g - 1, g, g + 1, k * g):
        limited = PromptDataset(task, num_questions=100, seed=4)
        full = PromptDataset(task, num_questions=100, seed=4)
        rng_limited, rng_full = np.random.default_rng(9), np.random.default_rng(9)
        kept = limited.sample_batch(k, rng_limited, limit=limit)
        assert kept == full.sample_batch(k, rng_full)[:limit]
        assert all(type(p.prompt_tokens) is int and type(p.difficulty) is float for p in kept)
        assert limited._next_prompt_id == full._next_prompt_id == k * g
        assert limited._next_group_id == full._next_group_id == k
        assert rng_limited.integers(0, 1 << 30) == rng_full.integers(0, 1 << 30)
    dataset = PromptDataset(task, num_questions=100, seed=4)
    for bad in (0, k * g + 1):
        with pytest.raises(ValueError):
            dataset.sample_batch(k, np.random.default_rng(9), limit=bad)


def test_tool_task_is_multi_turn():
    task = tool_task("7B", max_turns=8)
    assert task.multi_turn
    dataset = PromptDataset(task, num_questions=10, seed=0)
    prompts = dataset.sample_batch(1, np.random.default_rng(0))
    assert all(p.multi_turn and p.max_turns == 8 for p in prompts)


# --------------------------------------------------------------------------- prompt pool
def test_prompt_pool_take_and_refill():
    dataset = PromptDataset(math_task("7B"), num_questions=50, seed=0)
    pool = PromptPool(dataset, refill_prompts=8, low_watermark=32)
    taken = pool.take(200)
    assert len(taken) == 200
    assert pool.total_supplied == 200
    pool.put_back(taken[:10])
    assert pool.total_supplied == 190
    again = pool.take(10)
    assert [p.prompt_id for p in again] == [p.prompt_id for p in taken[:10]]


# --------------------------------------------------------------------------- partial response pool
def test_partial_response_pool_lifecycle():
    pool = PartialResponsePool()
    trajectory = _make_trajectory(1, tokens=500)
    pool.register(trajectory, replica_id=3)
    assert 1 in pool and pool.owner(1) == 3
    pool.stream_progress(1, 120)
    assert trajectory.generated_tokens == 120
    with pytest.raises(ValueError):
        pool.stream_progress(1, 50)  # progress cannot go backwards
    pool.migrate(1, new_replica_id=7)
    assert pool.owner(1) == 7
    assert trajectory.repack_count == 1
    finished = pool.complete(1)
    assert finished is trajectory
    assert len(pool) == 0
    with pytest.raises(KeyError):
        pool.complete(1)


def test_partial_response_pool_orphans_of_failed_replicas():
    pool = PartialResponsePool()
    for i in range(6):
        pool.register(_make_trajectory(i), replica_id=i % 2)
    orphans = pool.orphans_of([0])
    assert {t.traj_id for t in orphans} == {0, 2, 4}


# --------------------------------------------------------------------------- experience buffer
def test_experience_buffer_fifo_sampling_removes_items():
    buffer = ExperienceBuffer()
    for i in range(10):
        buffer.write(_make_trajectory(i), reward=1.0, actor_version=0)
    assert buffer.can_sample(4)
    batch = buffer.sample(4)
    assert [exp.trajectory.traj_id for exp in batch] == [0, 1, 2, 3]
    assert len(buffer) == 6
    with pytest.raises(ValueError):
        buffer.sample(100)


def test_experience_buffer_eviction_policies():
    buffer = ExperienceBuffer(capacity=5, evictor=EvictOldest())
    for i in range(8):
        buffer.write(_make_trajectory(i), reward=0.0, actor_version=0)
    assert len(buffer) == 5
    assert buffer.total_evicted == 3
    assert [e.trajectory.traj_id for e in buffer.peek_all()] == [3, 4, 5, 6, 7]

    stale_buffer = ExperienceBuffer(capacity=2, evictor=EvictStalest())
    stale_buffer.write(_make_trajectory(1, version=0), 0.0, actor_version=5)
    stale_buffer.write(_make_trajectory(2, version=5), 0.0, actor_version=5)
    stale_buffer.write(_make_trajectory(3, version=4), 0.0, actor_version=5)
    ids = [e.trajectory.traj_id for e in stale_buffer.peek_all()]
    assert 1 not in ids  # the stalest experience was evicted


def test_sampling_strategies_return_distinct_indices():
    experiences = []
    buffer = ExperienceBuffer()
    for i in range(20):
        buffer.write(_make_trajectory(i, version=i % 3), reward=float(i), actor_version=3,
                     priority=float(i))
    rng = np.random.default_rng(0)
    for strategy in (FIFOSampling(), UniformSampling(), PrioritySampling(), FreshnessSampling()):
        indices = strategy.select(buffer.peek_all(), 8, rng)
        assert len(indices) == 8
        assert len(set(indices)) == 8


def test_freshness_sampling_prefers_low_staleness():
    buffer = ExperienceBuffer(sampler=FreshnessSampling())
    buffer.write(_make_trajectory(1, version=0), 0.0, actor_version=4)  # staleness 4
    buffer.write(_make_trajectory(2, version=4), 0.0, actor_version=4)  # staleness 0
    batch = buffer.sample(1)
    assert batch[0].trajectory.traj_id == 2


def test_make_sampler_registry():
    assert make_sampler("fifo").name == "fifo"
    assert make_sampler("priority", alpha=0.5).alpha == 0.5
    with pytest.raises(KeyError):
        make_sampler("nope")
