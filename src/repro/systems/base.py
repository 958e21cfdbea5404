"""The ``System`` protocol and the string-keyed system registry.

Every orchestration in the reproduction — Laminar, the four §8 baselines and
any composed variant (repack ablation, bounded-staleness hybrids) — is a
:class:`System`: it consumes the shared, identically-seeded
:class:`~repro.runtime.workload.WorkloadBundle`, declares its
:class:`SystemCapabilities`, and expresses its orchestration as a single
:meth:`System.build` process on a fresh discrete-event
:class:`~repro.sim.engine.Environment`.  Measured differences between systems
therefore come only from orchestration (the paper's controlled comparison,
§8 "alleviating implementation bias").

Systems are registered by name (:func:`register_system`, usually via the
``@register`` decorator on the class) and resolved by the benchmark registry,
the experiment drivers and the examples through :func:`get_system_class` /
:func:`make_system` — adding a new orchestration is: subclass
:class:`System`, implement ``build``, register, done.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Dict, Generator, List, Optional, Sequence, Tuple, Type

from ..config import SystemConfig
from ..metrics.results import SystemRunResult
from ..rollout.generation import ReplicaGenerationState, SequenceState
from ..runtime.components import CompletionPipeline, GlobalWeightSync
from ..runtime.harness import CompletionObserver, GenerationOutcome, generation_barrier
from ..runtime.workload import WorkloadBundle
from ..sim.engine import Environment
from ..types import Trajectory

#: Engine switch overhead (offload weights / rebuild decode engine) paid twice
#: per iteration by colocated synchronous systems such as verl's HybridEngine.
COLOCATED_SWITCH_OVERHEAD = 4.0


@dataclass(frozen=True)
class SystemCapabilities:
    """Declared properties of one orchestration, consumed by the registry,
    the placement tables and the benchmark executors."""

    #: One-line description shown by ``repro-bench list --systems``.
    description: str = ""
    #: Rollouts generate continuously (no per-iteration barrier).
    continuous: bool = False
    #: Generation and training share the same GPUs (verl's HybridEngine).
    colocated: bool = False
    #: Weight distribution mechanism: "switch", "global" or "relay".
    weight_sync: str = "global"
    #: Staleness regime: "on_policy", "bounded" or "unbounded".
    staleness: str = "on_policy"
    #: The system runs the repack mechanism (§5).
    repack: bool = False
    #: The system tolerates injected failures (§3.3 fault model).
    fault_tolerant: bool = False
    #: Which system's Table 2 placements / Appendix A.2 tensor-parallel sizes
    #: this system reuses ("" = its own name has entries).
    placement_like: str = ""
    #: Default ``SystemConfig.staleness_bound`` for this system.
    default_staleness_bound: int = 0
    #: Default ``SystemConfig.max_concurrency_per_replica``.
    default_max_concurrency: int = 8192
    #: How the throughput benchmark evaluates this system:
    #: "simulate" (direct DES run), "laminar_cycle" (batch-cycle composition)
    #: or "areal_fixed_point" (continuous-rate fixed point).
    throughput_method: str = "simulate"
    #: Span kinds this orchestration guarantees to emit on every traced run
    #: (registry-integrity contract checked by the observability tests).
    trace_spans: Tuple[str, ...] = ()
    #: Graceful-degradation policy for straggling machines (repro.faults):
    #: "wait" tolerates the slowdown; "preempt_requeue" migrates the
    #: machine's in-flight work to healthy replicas and drains it.
    straggler_policy: str = "wait"
    #: Retry behaviour when a weight-sync path hits a degraded/flapping
    #: link: "none" (the sync simply takes longer) or "bounded_backoff"
    #: (capped exponential backoff, counted in the run's extras).
    sync_retry: str = "none"

    def summary(self) -> str:
        """Compact capability string for tables."""
        parts = [
            "continuous" if self.continuous else "batch-barrier",
            "colocated" if self.colocated else "disaggregated",
            f"sync={self.weight_sync}",
            f"staleness={self.staleness}",
        ]
        if self.repack:
            parts.append("repack")
        if self.fault_tolerant:
            parts.append("fault-tolerant")
        if self.straggler_policy != "wait":
            parts.append(f"stragglers={self.straggler_policy}")
        if self.sync_retry != "none":
            parts.append(f"sync-retry={self.sync_retry}")
        return ", ".join(parts)


class System(ABC):
    """Base class every registered orchestration implements.

    The protocol is three members: :attr:`name` (the registry key),
    :attr:`capabilities`, and :meth:`build`, which returns the process body
    orchestrating ``num_iterations`` RL iterations on the run's environment.
    The shared :meth:`run` driver owns the environment lifecycle, so the
    clock of every system is pure event time — timeouts and ``AllOf`` joins
    on one :class:`Environment`.
    """

    name: ClassVar[str] = "system"
    capabilities: ClassVar[SystemCapabilities] = SystemCapabilities()

    #: Continuous systems: stop admitting new prompts once buffered plus
    #: in-flight trajectories exceed this many global batches (keeps the
    #: trainer/rollout pipeline in balance, as an experience-buffer eviction
    #: policy would in production).
    run_ahead_batches: float = 3.0

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.workload = WorkloadBundle.from_config(config)
        self.model = self.workload.model
        self.task = self.workload.task
        self.dataset = self.workload.dataset
        self.factory = self.workload.factory
        self.environment = self.workload.environment
        self.rng = self.workload.rng
        self.trainer = self.workload.trainer
        self.buffer = self.workload.buffer
        self.replica_config = self.workload.replica_config
        self.decode_model = self.workload.decode_model
        self.pipeline = self._build_pipeline()
        self.weight_sync = self._build_weight_sync()
        self._next_replica_id = 0

    # ------------------------------------------------------------------ construction hooks
    def _build_pipeline(self) -> CompletionPipeline:
        """Completion pipeline factory (Laminar adds staleness tracking and
        the partial-response pool)."""
        return CompletionPipeline(environment=self.environment, buffer=self.buffer)

    def _build_weight_sync(self):
        """Weight-sync factory: the baselines' blocking GPU-direct collective
        by default; relay-based systems override."""
        return GlobalWeightSync.from_config(self.config, self.model)

    # ------------------------------------------------------------------ helpers
    def num_generation_replicas(self) -> int:
        return self.config.num_rollout_replicas()

    def make_replicas(self, count: int, weight_version: int) -> List[ReplicaGenerationState]:
        replicas = []
        for _ in range(count):
            replicas.append(self.workload.make_replica(self._next_replica_id, weight_version))
            self._next_replica_id += 1
        return replicas

    def run_ahead_budget(self, in_flight: int, num_replicas: int,
                         per_replica_target: int) -> int:
        """Trajectories that may still be admitted under the run-ahead cap.

        ``in_flight`` counts the sequences held by the ``num_replicas``
        generation replicas.  The cap never starves the natural generation
        pipeline: every replica can always hold (a bit more than) its own
        per-replica target.
        """
        pipeline_floor = int(1.25 * num_replicas * per_replica_target)
        cap = max(int(self.run_ahead_batches * self.config.global_batch_size),
                  pipeline_floor)
        return max(0, cap - in_flight - len(self.buffer))

    def sample_batch_states(self, weight_version: int) -> List[SequenceState]:
        """Sample one global batch worth of prompts and build sequence states."""
        prompts = self.dataset.sample_batch(self.config.num_prompts_per_batch, self.rng)
        return self.factory.make(prompts, weight_version=weight_version)

    def generate_batch_process(
        self,
        env: Environment,
        weight_version: int,
        origin: Optional[float] = None,
        on_complete: Optional[CompletionObserver] = None,
    ) -> Generator:
        """Sub-process: synchronous full-batch generation across fresh replicas.

        Sequences are distributed round-robin over the replicas; the ``AllOf``
        join completes when the slowest replica finishes (the global barrier
        of the synchronous and k-step-staleness designs).  With ``origin``
        set the replicas run as anchored drains whose wake-ups land at
        ``origin + local clock`` and whose completions stream to
        ``on_complete`` at their exact finish instants.

        This is the fleet-stepping hook for every barrier orchestration
        (verl, one_step, stream_gen, semi_sync): under the default
        ``repro.runtime.stepping_mode()`` the barrier runs as one fleet
        process instead of one engine process per replica, bit-identically.
        """
        states = self.sample_batch_states(weight_version)
        replicas = self.make_replicas(self.num_generation_replicas(), weight_version)
        buckets: List[List[SequenceState]] = [[] for _ in replicas]
        for index, state in enumerate(states):
            buckets[index % len(replicas)].append(state)
        for replica, bucket in zip(replicas, buckets):
            replica.add_sequences(bucket)
        outcome = yield from generation_barrier(env, replicas, origin, on_complete)
        return outcome

    def generate_full_batch(self, weight_version: int) -> GenerationOutcome:
        """Run one generation barrier on a private environment (tests, probes)."""
        env = Environment()
        process = env.process(
            self.generate_batch_process(env, weight_version),
            name=f"{self.name}-generation",
        )
        return env.run(until=process)

    def score_and_buffer(self, trajectories: Sequence[Trajectory], actor_version: int) -> None:
        self.pipeline.process(trajectories, actor_version)

    def global_sync_time(self) -> float:
        """GPU-direct global weight synchronization latency (NCCL-style)."""
        return self.weight_sync.sync_time()

    def record_batch_staleness(self, env: Environment, result: SystemRunResult,
                               batch) -> None:
        """Append the batch's staleness samples, mirroring them as a trace
        instant on the trainer track when a recorder is attached."""
        values = [exp.staleness for exp in batch]
        result.staleness_samples.extend(values)
        tracer = env.tracer
        if tracer.enabled and values:
            tracer.instant("trainer", "staleness", env.now,
                           args={"mean": sum(values) / len(values),
                                 "max": max(values), "batch": len(values)})

    def batch_tokens(self, trajectories: Sequence[Trajectory]) -> int:
        return sum(t.total_tokens for t in trajectories)

    def new_result(self) -> SystemRunResult:
        return SystemRunResult(
            system=self.name,
            model=self.config.model_size,
            task=self.config.task_type,
            total_gpus=self.config.total_gpus,
            trainer_gpus=self.config.trainer_gpus,
            rollout_gpus=self.config.rollout_gpus or self.config.trainer_gpus,
        )

    def run(self, num_iterations: Optional[int] = None) -> SystemRunResult:
        """Simulate ``num_iterations`` RL iterations on the event engine."""
        num_iterations = num_iterations or self.config.num_iterations
        result = self.new_result()
        env = Environment()
        main = env.process(
            self.build(env, result, num_iterations), name=f"{self.name}-main"
        )
        env.run(until=main)
        result.wall_clock = env.now
        return result

    # ------------------------------------------------------------------ interface
    @abstractmethod
    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        """Process body simulating ``num_iterations`` RL iterations."""


# --------------------------------------------------------------------------- registry
_REGISTRY: Dict[str, Type[System]] = {}


class SystemRegistryError(KeyError):
    """Raised for duplicate registrations and unknown system lookups."""


def register_system(cls: Type[System], replace_existing: bool = False) -> Type[System]:
    """Register a :class:`System` subclass under its ``name``.

    Duplicate names raise :class:`SystemRegistryError` unless
    ``replace_existing`` is set (tests); the class itself is returned so the
    function doubles as a decorator via :func:`register`.
    """
    name = cls.name
    if not name or name == System.name:
        raise SystemRegistryError(f"system class {cls.__name__} needs a unique name")
    if name in _REGISTRY and not replace_existing:
        raise SystemRegistryError(
            f"system {name!r} is already registered (by "
            f"{_REGISTRY[name].__name__}); pass replace_existing=True to override"
        )
    _REGISTRY[name] = cls
    return cls


def register(cls: Type[System]) -> Type[System]:
    """Class decorator: ``@register`` above a :class:`System` subclass."""
    return register_system(cls)


def unregister_system(name: str) -> None:
    """Remove a registration (tests only)."""
    _REGISTRY.pop(name, None)


def available_systems() -> List[str]:
    """Registered system names, in registration order."""
    return list(_REGISTRY)


def get_system_class(name: str) -> Type[System]:
    """Resolve a system name to its class, or raise listing the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_systems()) or "(none)"
        raise SystemRegistryError(
            f"unknown system {name!r}; registered systems: {known}"
        ) from None


def make_system(config: SystemConfig, **kwargs) -> System:
    """Instantiate the registered system matching ``config.system``."""
    return get_system_class(config.system)(config, **kwargs)


def system_capabilities(name: str) -> SystemCapabilities:
    return get_system_class(name).capabilities


def placement_system(name: str) -> str:
    """The system whose Table 2 placements ``name`` uses (itself by default)."""
    cls = get_system_class(name)
    return cls.capabilities.placement_like or cls.name
