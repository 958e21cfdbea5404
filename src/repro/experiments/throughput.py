"""End-to-end training throughput (Fig 11, Fig 12, §8.1).

The batch-synchronous systems (verl, one-step staleness, stream generation)
are simulated directly for a few iterations.  The continuously-generating
systems (AReaL and Laminar) are evaluated at steady state by composing
component measurements from the same generation engine:

* Laminar: iteration time = max(training time + actor push stall,
  batch tokens / fleet generation rate), where the fleet rate uses the
  per-replica batch-cycle rate *with repack* (the replica is released once it
  reaches its ramp-down phase; the tail is consolidated on destination
  replicas at negligible marginal decode cost).
* AReaL: iteration time solves the fixed point
  T = max(T_train, B / (N * R_eff(T))) + T_sync, with
  R_eff(T) = R_continuous * (1 - T_reprefill / T), because every weight update
  interrupts all replicas and re-prefills every in-flight trajectory.

Both compositions are estimates, documented only here.  No test checks them
against the event-driven :class:`~repro.systems.laminar.LaminarSystem` or
:class:`~repro.systems.areal.PartialRollout`, and a short event-driven run of
either system can land well above or below its estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..systems import make_system
from ..systems.base import get_system_class
from ..config import SystemConfig
from ..systems.relay import RelayService
from ..llm.training_model import TrainingModel
from ..metrics.results import SystemRunResult
from ..sim.network import RDMA_LINK, gpu_direct_global_sync_time
from ..trainer.trainer import IterationRecord
from .generation_rate import (
    BatchCycleProfile,
    ContinuousRateProfile,
    continuous_replica_rate,
    replica_batch_cycle,
)
from .placements import MODEL_SCALES, SYSTEMS, make_system_config


#: Scale factor applied to the paper's 8192-trajectory global batch.  The
#: default of 1.0 evaluates the paper's exact batch geometry; benchmarks that
#: need to run quickly may pass a smaller value, at the cost of overstating the
#: long-tail penalty of the batch-synchronous systems (the tail is constant
#: while the batch shrinks).
DEFAULT_BATCH_SCALE = 1.0


@dataclass
class ThroughputPoint:
    """One (system, model, GPU count) evaluation-grid point."""

    system: str
    model_size: str
    task_type: str
    total_gpus: int
    throughput: float
    iteration_time: float
    generation_bound: bool
    details: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "system": self.system,
            "model": self.model_size,
            "task": self.task_type,
            "gpus": self.total_gpus,
            "throughput_tok_s": self.throughput,
            "iteration_time_s": self.iteration_time,
        }
        row.update(self.details)
        return row


def _mean_tokens_per_trajectory(config: SystemConfig, seed: int = 0) -> float:
    task = config.task()
    rng = np.random.default_rng(seed)
    lengths = task.length_dist.sample(rng, 20_000)
    prompt = 450.0
    return float(lengths.mean() + prompt)


def _training_time(config: SystemConfig, batch_tokens: float) -> float:
    model = TrainingModel(model=config.model(), config=config.trainer_parallel, gpu=config.gpu)
    return model.iteration_time(batch_tokens, config.num_minibatches)


def measure_batch_system(config: SystemConfig) -> ThroughputPoint:
    """Direct DES simulation of a registered batch/continuous system."""
    system = make_system(config)
    result = system.run()
    warm = config.warmup_iterations
    breakdown = result.mean_breakdown()
    return ThroughputPoint(
        system=config.system,
        model_size=config.model_size,
        task_type=config.task_type,
        total_gpus=config.total_gpus,
        throughput=result.throughput(warm),
        iteration_time=result.mean_iteration_time(warm),
        generation_bound=breakdown.generation_time >= breakdown.training_time,
        details={
            "generation_time": breakdown.generation_time,
            "training_time": breakdown.training_time,
            "weight_sync_time": breakdown.weight_sync_time,
            "bubble_time": breakdown.bubble_time,
            "mean_staleness": result.mean_staleness(),
        },
    )


def measure_laminar(config: SystemConfig, cycle: Optional[BatchCycleProfile] = None) -> ThroughputPoint:
    """Steady-state Laminar throughput from the batch-cycle composition."""
    cycle = cycle or replica_batch_cycle(config, seed=config.seed)
    num_replicas = config.num_rollout_replicas()
    fleet_rate = num_replicas * (
        cycle.rate_with_repack if config.repack_enabled else cycle.rate_without_repack
    )
    mean_tokens = _mean_tokens_per_trajectory(config, config.seed)
    batch_tokens = config.global_batch_size * mean_tokens
    train_time = _training_time(config, batch_tokens)
    relay = RelayService(
        model=config.model(),
        rollout_machine_ids=list(range(max(1, config.rollout_gpus // 8))),
        rollout_tensor_parallel=config.rollout_tensor_parallel,
    )
    actor_stall = relay.actor_push_time()
    supply_time = batch_tokens / fleet_rate if fleet_rate > 0 else float("inf")
    iteration = max(train_time + actor_stall, supply_time)
    staleness_estimate = cycle.release_time / iteration if iteration > 0 else 0.0
    return ThroughputPoint(
        system=config.system,
        model_size=config.model_size,
        task_type=config.task_type,
        total_gpus=config.total_gpus,
        throughput=batch_tokens / iteration,
        iteration_time=iteration,
        generation_bound=supply_time > train_time + actor_stall,
        details={
            "generation_time": supply_time,
            "training_time": train_time,
            "weight_sync_time": actor_stall,
            "fleet_generation_rate": fleet_rate,
            "replica_cycle_time": cycle.full_duration,
            "replica_release_time": cycle.release_time,
            "estimated_max_staleness": float(np.ceil(staleness_estimate)),
            "mean_kvcache_utilization": cycle.mean_kvcache_utilization_to_release,
        },
    )


def measure_areal(config: SystemConfig, profile: Optional[ContinuousRateProfile] = None) -> ThroughputPoint:
    """Steady-state AReaL throughput from the continuous-rate fixed point."""
    profile = profile or continuous_replica_rate(config, seed=config.seed)
    num_replicas = config.num_rollout_replicas()
    mean_tokens = _mean_tokens_per_trajectory(config, config.seed)
    batch_tokens = config.global_batch_size * mean_tokens
    train_time = _training_time(config, batch_tokens)
    machines = max(1, config.rollout_gpus // 8)
    sync_time = gpu_direct_global_sync_time(config.model().weight_bytes, machines, RDMA_LINK)

    # Re-prefill storm: every in-flight trajectory on every replica rebuilds
    # its KVCache after each weight update.
    from ..llm.decode_model import DecodeModel

    decode_model = DecodeModel(
        model=config.model(), gpu=config.gpu, tensor_parallel=config.rollout_tensor_parallel
    )
    per_seq = decode_model.prefill_time(int(max(1.0, profile.mean_inflight_context)), 1)
    reprefill_time = profile.mean_inflight * per_seq

    raw_rate = num_replicas * profile.tokens_per_second
    iteration = max(train_time, batch_tokens / raw_rate if raw_rate > 0 else float("inf")) + sync_time
    for _ in range(100):
        overhead_fraction = min(0.95, (reprefill_time + sync_time) / max(iteration, 1e-9))
        effective_rate = raw_rate * (1.0 - overhead_fraction)
        supply = batch_tokens / effective_rate if effective_rate > 0 else float("inf")
        new_iteration = max(train_time, supply) + sync_time
        if abs(new_iteration - iteration) < 1e-3:
            iteration = new_iteration
            break
        # Damped update: the raw fixed-point map can oscillate when the
        # re-prefill overhead is comparable to the iteration time.
        iteration = 0.5 * iteration + 0.5 * new_iteration
    supply_time = batch_tokens / max(raw_rate, 1e-9)
    return ThroughputPoint(
        system=config.system,
        model_size=config.model_size,
        task_type=config.task_type,
        total_gpus=config.total_gpus,
        throughput=batch_tokens / iteration,
        iteration_time=iteration,
        generation_bound=iteration - sync_time > train_time + 1e-9,
        details={
            "generation_time": supply_time,
            "training_time": train_time,
            "weight_sync_time": sync_time,
            "reprefill_time_per_update": reprefill_time,
            "raw_generation_rate": raw_rate,
            "mean_inflight_per_replica": profile.mean_inflight,
        },
    )


#: Registered ``SystemCapabilities.throughput_method`` values → evaluators.
_MEASURERS = {
    "simulate": measure_batch_system,
    "laminar_cycle": measure_laminar,
    "areal_fixed_point": measure_areal,
}


def measure_config(config: SystemConfig) -> ThroughputPoint:
    """Evaluate one configuration with its system's declared method.

    The registered class's ``capabilities.throughput_method`` selects direct
    DES simulation, the Laminar batch-cycle composition, or the AReaL
    continuous-rate fixed point.
    """
    method = get_system_class(config.system).capabilities.throughput_method
    try:
        measurer = _MEASURERS[method]
    except KeyError:
        raise ValueError(
            f"system {config.system!r} declares unknown throughput method "
            f"{method!r}; known: {sorted(_MEASURERS)}"
        ) from None
    return measurer(config)


def measure_point(system: str, model_size: str, total_gpus: int, task_type: str = "math",
                  batch_scale: float = DEFAULT_BATCH_SCALE, seed: int = 0,
                  num_iterations: int = 3, warmup_iterations: int = 1) -> ThroughputPoint:
    """Measure one evaluation-grid point with the appropriate method."""
    config = make_system_config(system, model_size, total_gpus, task_type=task_type, seed=seed)
    if batch_scale < 1.0:
        config = config.scaled(batch_scale)
    config = replace(config, num_iterations=num_iterations, warmup_iterations=warmup_iterations)
    return measure_config(config)


def throughput_sweep(
    model_size: str,
    task_type: str = "math",
    systems: Iterable[str] = SYSTEMS,
    gpu_scales: Optional[List[int]] = None,
    batch_scale: float = DEFAULT_BATCH_SCALE,
    seed: int = 0,
) -> List[ThroughputPoint]:
    """Reproduce one panel of Fig 11 (or Fig 12 with ``task_type='tool'``)."""
    gpu_scales = gpu_scales or MODEL_SCALES[model_size]
    points: List[ThroughputPoint] = []
    for system in systems:
        if task_type == "tool" and system == "areal":
            # Fig 12 omits AReaL on the multi-turn task (its sandbox
            # integration is not evaluated in the paper).
            continue
        for gpus in gpu_scales:
            points.append(
                measure_point(system, model_size, gpus, task_type=task_type,
                              batch_scale=batch_scale, seed=seed)
            )
    return points


def speedup_table(points: List[ThroughputPoint], reference_system: str = "verl") -> Dict[str, Dict[int, float]]:
    """Per-system, per-scale speedup over the reference system."""
    reference = {p.total_gpus: p.throughput for p in points if p.system == reference_system}
    table: Dict[str, Dict[int, float]] = {}
    for point in points:
        base = reference.get(point.total_gpus)
        if not base:
            continue
        table.setdefault(point.system, {})[point.total_gpus] = point.throughput / base
    return table


def scaling_efficiency_from_points(points: List[ThroughputPoint], system: str) -> float:
    """§8.1 strong-scaling efficiency for one system over its GPU scales."""
    mine = sorted((p for p in points if p.system == system), key=lambda p: p.total_gpus)
    if len(mine) < 2:
        raise ValueError(f"need at least two scales for system {system!r}")
    smallest, largest = mine[0], mine[-1]
    gpu_ratio = largest.total_gpus / smallest.total_gpus
    tput_ratio = largest.throughput / smallest.throughput if smallest.throughput else 0.0
    return tput_ratio / gpu_ratio
