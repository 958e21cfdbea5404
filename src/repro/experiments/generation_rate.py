"""Sustained generation-rate measurements for the continuous systems.

The batch-synchronous baselines are simulated directly (their iteration time
is the time for the slowest replica to finish a full batch).  For the
continuously-generating systems (AReaL and Laminar) the steady-state
throughput is composed from component rates measured here:

* :func:`replica_batch_cycle` — one Laminar replica working through one
  prompt batch: completion profile, the time at which the repack mechanism
  would release the replica, and the tokens generated.
* :func:`continuous_replica_rate` — one AReaL-style replica with continuous
  prompt top-up: the sustained full-KVCache decode rate and the average
  in-flight context (which prices the re-prefill storm).

Both run a single replica, so they are cheap, and both use the exact same
generation engine as every end-to-end simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..llm.decode_model import DecodeModel
from ..rollout.environment import TrajectoryFactory
from ..rollout.generation import ReplicaGenerationState
from ..rollout.replica_config import RolloutReplicaConfig
from ..workload.datasets import PromptDataset, TaskSpec


@dataclass
class BatchCycleProfile:
    """One replica's pass over one prompt batch."""

    batch_size: int
    total_tokens: int
    #: Time for every trajectory of the batch to finish on this replica alone.
    full_duration: float
    #: Time at which the repack release condition first holds (ramp-down and
    #: fewer than ``batch_bound`` remaining trajectories).
    release_time: float
    #: Tokens generated up to the release time.
    tokens_at_release: int
    #: Mean completion time of the batch's trajectories.
    mean_completion: float
    #: Mean KVCache utilisation sampled over the cycle.
    mean_kvcache_utilization: float
    mean_kvcache_utilization_to_release: float
    #: Sampled ``(time, utilisation)`` trace over the cycle (Fig 9 lifecycle).
    utilization_trace: List[Tuple[float, float]] = field(default_factory=list)

    #: Typical number of same-version ramp-down replicas consolidated together:
    #: Algorithm 1 releases all but one of them, and the remaining destination
    #: keeps decoding every tail at negligible marginal cost (memory-bound).
    consolidation_group: int = 4

    @property
    def rate_without_repack(self) -> float:
        """Sustained tokens/s when the replica must drain its own tail."""
        return self.total_tokens / self.full_duration if self.full_duration > 0 else 0.0

    @property
    def rate_with_repack(self) -> float:
        """Sustained fleet-average tokens/s per replica when repack absorbs tails.

        In a group of ``consolidation_group`` ramp-down replicas, all but one
        are released at ``release_time`` and immediately start a fresh batch;
        the one destination carries the consolidated tails to ``full_duration``
        with essentially unchanged decode latency (Fig 4).  The fleet-average
        cycle length is therefore a weighted mix of the two.
        """
        if self.release_time <= 0 or self.release_time >= self.full_duration:
            return self.rate_without_repack
        g = max(2, self.consolidation_group)
        effective_cycle = ((g - 1) * self.release_time + self.full_duration) / g
        return self.total_tokens / effective_cycle


def _make_replica(config: SystemConfig, replica_config: RolloutReplicaConfig) -> ReplicaGenerationState:
    return ReplicaGenerationState(
        replica_id=0,
        decode_model=replica_config.decode_model(),
        kvcache_config=replica_config.kvcache_config(),
        max_concurrency=config.max_concurrency_per_replica,
    )


def replica_prompt_batch(config: SystemConfig, task: TaskSpec,
                         replica_config: RolloutReplicaConfig) -> int:
    """Per-replica prompt batch size: saturate the KVCache with a waiting queue."""
    kv_tokens = replica_config.kvcache_config().total_tokens
    mean_tokens = task.length_dist.mean() + 512.0
    capacity = max(1, int(kv_tokens / mean_tokens))
    return int(min(config.max_concurrency_per_replica, max(capacity * 1.5, 8)))


def replica_batch_cycle(
    config: SystemConfig,
    batch_size: Optional[int] = None,
    seed: int = 0,
    sample_interval: float = 5.0,
) -> BatchCycleProfile:
    """Simulate one replica through one prompt batch (Laminar's unit of work)."""
    task = config.task()
    replica_config = RolloutReplicaConfig(
        model=config.model(),
        tensor_parallel=config.rollout_tensor_parallel,
        gpu=config.gpu,
        max_concurrency=config.max_concurrency_per_replica,
    )
    decode_model = replica_config.decode_model()
    batch_size = batch_size or replica_prompt_batch(config, task, replica_config)
    dataset = PromptDataset(task, seed=seed)
    factory = TrajectoryFactory(task, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    prompts = dataset.sample_batch(max(1, -(-batch_size // task.group_size)), rng,
                                   limit=batch_size)
    states = factory.make(prompts)
    replica = _make_replica(config, replica_config)
    replica.add_sequences(states)

    batch_bound = max(
        8, decode_model.batch_bound_for_latency_slack(int(task.length_dist.mean()) + 512, slack=2.0)
    )
    release_time = 0.0
    tokens_at_release = 0
    utilisation_samples: List[float] = []
    trace: List[Tuple[float, float]] = []
    utilisation_to_release: List[float] = []
    completions: List[float] = []
    next_sample = 0.0
    prev_util = 0.0
    peak_util = 0.0

    while replica.num_sequences > 0:
        delta = replica.next_event_in()
        if delta is None:
            break
        done = replica.advance(delta)
        completions.extend(t.finish_time for t in done)
        if replica.clock >= next_sample:
            util = replica.kvcache_utilization
            utilisation_samples.append(util)
            trace.append((replica.clock, util))
            peak_util = max(peak_util, util)
            if release_time == 0.0:
                utilisation_to_release.append(util)
                # §5.2 release condition: the replica is past its peak (genuine
                # ramp-down), no trajectories are waiting, and the remaining
                # in-flight count is below the roofline batch bound so that a
                # destination replica can absorb it at negligible latency cost.
                # Requiring half the batch to have completed guards against
                # declaring a barely-started (small) batch "long tail".
                ramp_down = (
                    replica.num_queued == 0
                    and util <= prev_util + 1e-12
                    and util < peak_util - 1e-9
                    and replica.num_sequences < batch_bound
                    and replica.num_sequences > 0
                    and len(completions) >= batch_size // 2
                )
                if ramp_down:
                    release_time = replica.clock
                    tokens_at_release = replica.stats.tokens_generated
            prev_util = util
            next_sample = replica.clock + sample_interval

    full_duration = replica.clock
    if release_time == 0.0:
        release_time = full_duration
        tokens_at_release = replica.stats.tokens_generated
    return BatchCycleProfile(
        batch_size=batch_size,
        total_tokens=replica.stats.tokens_generated,
        full_duration=full_duration,
        release_time=release_time,
        tokens_at_release=tokens_at_release,
        mean_completion=float(np.mean(completions)) if completions else 0.0,
        mean_kvcache_utilization=float(np.mean(utilisation_samples)) if utilisation_samples else 0.0,
        mean_kvcache_utilization_to_release=(
            float(np.mean(utilisation_to_release)) if utilisation_to_release else 0.0
        ),
        utilization_trace=trace,
    )


@dataclass
class KVCacheLifecycle:
    """Fig 9 lifecycle phases extracted from a batch-cycle utilisation trace.

    The trace of a healthy replica shows three phases: a *ramp* while
    admissions fill the cache, a *plateau* near peak utilisation while a
    waiting queue keeps freed space occupied, and a *drain* once the queue
    empties and the long tail shrinks the live batch.
    """

    peak_utilization: float
    #: Time to first reach 95% of peak utilisation (end of the ramp).
    ramp_seconds: float
    #: Fraction of the cycle spent at >= 90% of peak utilisation.
    plateau_fraction: float
    #: Time from the last >= 90%-of-peak sample to the end of the cycle.
    drain_seconds: float

    @classmethod
    def from_profile(cls, profile: BatchCycleProfile) -> "KVCacheLifecycle":
        trace = profile.utilization_trace
        if not trace or profile.full_duration <= 0:
            return cls(0.0, 0.0, 0.0, 0.0)
        peak = max(util for _, util in trace)
        if peak <= 0:
            return cls(0.0, 0.0, 0.0, profile.full_duration)
        ramp_end = next(t for t, util in trace if util >= 0.95 * peak)
        high = [t for t, util in trace if util >= 0.90 * peak]
        return cls(
            peak_utilization=float(peak),
            ramp_seconds=float(ramp_end),
            plateau_fraction=float(len(high) / len(trace)),
            drain_seconds=float(max(0.0, profile.full_duration - max(high))),
        )


@dataclass
class ContinuousRateProfile:
    """Sustained rate of one replica under continuous prompt replenishment."""

    tokens_per_second: float
    mean_inflight: float
    mean_inflight_context: float
    mean_decode_batch: float


def continuous_replica_rate(
    config: SystemConfig,
    horizon: float = 600.0,
    seed: int = 0,
) -> ContinuousRateProfile:
    """Simulate one replica with continuous top-up (AReaL-style generation)."""
    task = config.task()
    replica_config = RolloutReplicaConfig(
        model=config.model(),
        tensor_parallel=config.rollout_tensor_parallel,
        gpu=config.gpu,
        max_concurrency=config.max_concurrency_per_replica,
    )
    dataset = PromptDataset(task, seed=seed)
    factory = TrajectoryFactory(task, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    replica = _make_replica(config, replica_config)
    target = replica_prompt_batch(config, task, replica_config)

    inflight_samples: List[int] = []
    context_samples: List[float] = []
    batch_samples: List[int] = []
    # Warm up for 20% of the horizon, then measure.
    warmup = horizon * 0.2
    tokens_at_warmup = 0

    while replica.clock < horizon:
        deficit = target - replica.num_sequences
        if deficit > 0:
            prompts = dataset.sample_batch(max(1, -(-deficit // task.group_size)), rng,
                                           limit=deficit)
            replica.add_sequences(factory.make(prompts))
        delta = replica.next_event_in()
        if delta is None:
            break
        replica.advance(min(delta, horizon - replica.clock))
        if replica.clock >= warmup:
            if tokens_at_warmup == 0:
                tokens_at_warmup = replica.stats.tokens_generated
            inflight_samples.append(replica.num_decoding + replica.num_env_waiting)
            batch_samples.append(replica.num_decoding)
            contexts = [s.context_tokens for s in replica.sequences()
                        if s.status in ("decoding", "env_wait")]
            if contexts:
                context_samples.append(float(np.mean(contexts)))

    elapsed = max(1e-9, replica.clock - warmup)
    tokens = replica.stats.tokens_generated - tokens_at_warmup
    return ContinuousRateProfile(
        tokens_per_second=tokens / elapsed,
        mean_inflight=float(np.mean(inflight_samples)) if inflight_samples else 0.0,
        mean_inflight_context=float(np.mean(context_samples)) if context_samples else 0.0,
        mean_decode_batch=float(np.mean(batch_samples)) if batch_samples else 0.0,
    )
