"""Event-driven harness that runs rollout replicas as ``sim.engine`` processes.

Two execution shapes cover every registered system (:mod:`repro.systems`):

* **Batch generation behind a barrier** (verl, one-step, stream generation,
  semi-sync): each replica is drained to completion and the batch's global
  barrier is an :class:`~repro.sim.engine.AllOf` join over the replica
  processes (:func:`generation_barrier`).  Per-replica results are
  byte-identical to driving the replica with
  :meth:`ReplicaGenerationState.run_to_completion`, because the process
  performs exactly the same ``next_event_in`` / ``advance`` call sequence —
  the engine merely interleaves independent replicas on one clock.  Two
  drain modes exist: the plain :func:`drain_replica` sleeps relative
  timeouts, while :func:`drain_replica_anchored` lands every wake-up at
  ``origin + local clock`` exactly and can stream completions at their
  precise finish instants — the mode the pipelined systems build their pure
  event-time iteration clocks on.

* **Continuous generation** (AReaL, Laminar): every replica has a long-lived
  :func:`replica_driver` process that sleeps until the replica's own next
  internal event, refills it when idle, and reports completions through
  :class:`ReplicaFleet` hooks.  External actors (trainer, repack, failures)
  interrupt the driver via :meth:`Process.interrupt` whenever they mutate the
  replica (pull its trajectories, inject a stall), and the driver recomputes
  its next event — so simulated time jumps between real events instead of
  being stepped through lock-step rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..rollout.generation import _EPS, ReplicaGenerationState
from ..sim.engine import Environment, Event, Interrupt, Process
from ..types import Trajectory
from .fleet import FleetStepper, fleet_generation_barrier, stepping_mode


def _flush_decode_samples(tracer, replica: ReplicaGenerationState,
                          offset: float = 0.0) -> None:
    """Batched flush of the replica's buffered decode samples to the tracer.

    The SoA decode loop only appends ``(clock, tokens)`` rows; turning them
    into cumulative-token counter events happens here, once per phase
    boundary, so tracing adds no per-decode-window tracer calls.
    """
    samples = replica.take_trace_samples(offset)
    if samples:
        tracer.counter_batch(f"replica-{replica.replica_id}", "tokens", samples)


@dataclass
class GenerationOutcome:
    """Result of generating one batch of trajectories on a set of replicas."""

    duration: float
    trajectories: List[Trajectory]
    #: Per-replica generation time (time until that replica finished its share).
    per_replica_time: List[float]
    tokens_generated: int

    @property
    def bubble_time(self) -> float:
        """Aggregate idle GPU-time caused by the long tail (relative units).

        Mean idle span per replica: the gap between a replica finishing its
        share and the slowest replica finishing (the bubbles of Fig 3a-c).
        """
        if not self.per_replica_time:
            return 0.0
        slowest = max(self.per_replica_time)
        return float(np.mean([slowest - t for t in self.per_replica_time]))


def drain_replica(env: Environment, replica: ReplicaGenerationState) -> Generator:
    """Process body: drive ``replica`` until it has no work left.

    Returns ``(elapsed_local_time, completed_trajectories)`` exactly like
    :meth:`ReplicaGenerationState.run_to_completion`.

    The ``next_event_in`` / ``advance`` pair leans on the engine's
    incremental event accessors: both calls need the same (step time, min
    segment, earliest env return) reductions, and the engine caches them
    against its mutation counter, so the ``advance`` after the timeout pays
    O(1) for its first window instead of re-scanning the batch.
    """
    start = replica.clock
    tracer = env.tracer
    drain_begin = env.now
    if tracer.enabled:
        replica.enable_trace_sampling()
    completed: List[Trajectory] = []
    while replica.num_sequences:
        delta = replica.next_event_in()
        if delta is None:
            break
        yield env.timeout(delta)
        completed.extend(replica.advance(delta))
    completed.extend(replica.drain_completed())
    unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
    if tracer.enabled:
        tracer.span(f"replica-{replica.replica_id}", "generate",
                    drain_begin, env.now,
                    args={"trajectories": len(unique),
                          "tokens": replica.stats.tokens_generated})
        _flush_decode_samples(tracer, replica, offset=drain_begin - start)
    return replica.clock - start, list(unique.values())


class EventBox:
    """One-slot broadcast event: processes sleep on :meth:`wait`, and
    :meth:`notify` wakes every current waiter at once.

    The box swaps in a fresh event *before* succeeding the old one, so a
    waiter re-yielding inside the same wake-up chain sleeps on the next
    occurrence instead of the already-fired event (the lost-wakeup idiom
    shared by the fleet wake-ups and the producer/consumer variants).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._event: Event = env.event()

    def wait(self) -> Event:
        return self._event

    def notify(self) -> None:
        event, self._event = self._event, self.env.event()
        event.succeed()


#: Streamed-completion callback: ``(replica_position, completed)`` delivered
#: at the exact simulated instant the trajectories finished.
CompletionObserver = Callable[[int, List[Trajectory]], None]


def drain_replica_anchored(
    env: Environment,
    replica: ReplicaGenerationState,
    origin: float,
    on_complete: Optional[CompletionObserver] = None,
    replica_pos: int = 0,
) -> Generator:
    """Anchored variant of :func:`drain_replica`: the replica's local clock is
    authoritative and every engine wake-up lands at ``origin + clock`` exactly
    (:meth:`Environment.timeout_until`, no ``now + delay`` rounding).

    The synchronous systems define their stage clocks relative to the stage
    origin, so the barrier's join time is bit-identical to the per-replica
    local arithmetic: ``max_r fl(origin + clock_r)`` equals
    ``fl(origin + max_r clock_r)`` because rounding is monotone.

    ``on_complete`` additionally streams completions at their *exact* finish
    instants (``origin + finish_time``), including completions that fall
    strictly inside an advance window — the event feed the streaming
    mini-batch trainer clocks itself on.
    """
    start = replica.clock
    tracer = env.tracer
    if tracer.enabled:
        replica.enable_trace_sampling()
    completed: List[Trajectory] = []
    seen: Dict[int, Trajectory] = {}

    def publisher(at: float, batch: List[Trajectory]) -> Generator:
        yield env.timeout_until(at)
        on_complete(replica_pos, batch)

    def publish(done: List[Trajectory]) -> List[Trajectory]:
        fresh = [t for t in done if t.traj_id not in seen]
        for t in fresh:
            seen[t.traj_id] = t
        if fresh and on_complete is not None:
            # One publication event per distinct finish instant, in order.
            groups: List[Tuple[float, List[Trajectory]]] = []
            for t in fresh:
                if groups and groups[-1][0] == t.finish_time:
                    groups[-1][1].append(t)
                else:
                    groups.append((t.finish_time, [t]))
            for finish, batch in groups:
                at = origin + finish
                if at <= env.now:
                    on_complete(replica_pos, batch)
                else:
                    env.process(publisher(at, batch),
                                name=f"publish-{replica.replica_id}")
        return fresh

    while replica.num_sequences:
        delta = replica.next_event_in()
        if delta is None:
            break
        done = replica.advance(delta)
        completed.extend(publish(done))
        yield env.timeout_until(origin + replica.clock)
    completed.extend(publish(replica.drain_completed()))
    if tracer.enabled:
        tracer.span(f"replica-{replica.replica_id}", "generate",
                    origin + start, origin + replica.clock,
                    args={"trajectories": len(completed),
                          "tokens": replica.stats.tokens_generated})
        _flush_decode_samples(tracer, replica, offset=origin)
    return replica.clock - start, completed


def generation_barrier(
    env: Environment,
    replicas: Sequence[ReplicaGenerationState],
    origin: Optional[float] = None,
    on_complete: Optional[CompletionObserver] = None,
) -> Generator:
    """Sub-process: run every replica to completion behind an ``AllOf`` join.

    This is the global barrier of the batch-synchronous systems: the batch is
    done only when the slowest replica's process terminates.  Trajectories are
    collected replica-major (replica 0's completions first), matching the
    scoring order the reward RNG stream depends on.

    With ``origin`` set, the replicas run as anchored drains
    (:func:`drain_replica_anchored`): their wake-ups land at
    ``origin + local clock`` and completions may be streamed to
    ``on_complete`` at their exact finish instants — the mode the pipelined
    systems use so the barrier's join time equals the local stage arithmetic
    bit for bit.

    Under the default ``"fleet"`` stepping mode
    (:func:`repro.runtime.fleet.stepping_mode`) the whole barrier runs as a
    single fleet drain (:func:`repro.runtime.fleet.fleet_generation_barrier`)
    instead of N engine processes; the per-replica call sequences and every
    externally observable event time are identical by contract.
    """
    if stepping_mode() == "fleet":
        outcome = yield from fleet_generation_barrier(env, replicas, origin, on_complete)
        return outcome
    if origin is None:
        processes = [
            env.process(drain_replica(env, replica), name=f"drain-{replica.replica_id}")
            for replica in replicas
        ]
    else:
        processes = [
            env.process(
                drain_replica_anchored(env, replica, origin, on_complete, pos),
                name=f"drain-{replica.replica_id}",
            )
            for pos, replica in enumerate(replicas)
        ]
    if processes:
        yield env.all_of(processes)
    per_replica_time: List[float] = []
    trajectories: List[Trajectory] = []
    tokens = 0
    for process, replica in zip(processes, replicas):
        duration, completed = process.value
        per_replica_time.append(duration)
        trajectories.extend(completed)
        tokens += replica.stats.tokens_generated
    return GenerationOutcome(
        duration=max(per_replica_time) if per_replica_time else 0.0,
        trajectories=trajectories,
        per_replica_time=per_replica_time,
        tokens_generated=tokens,
    )


class ReplicaFleet:
    """Book-keeping and wake-up plumbing for a fleet of continuous replicas.

    Subclasses provide the policy hooks:

    * :meth:`replica` — resolve a replica id (``None`` retires the driver,
      e.g. after a machine failure);
    * :meth:`refill` — give an idle replica new work (may inject a weight-pull
      stall first);
    * :meth:`on_advance` — consume an advance step's completions (score,
      buffer, record tokens).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._drivers: Dict[int, Process] = {}
        self._refill_box = EventBox(env)
        self._data_box = EventBox(env)
        self._stepper: Optional[FleetStepper] = None

    # -- driver lifecycle ---------------------------------------------------
    def spawn(self, replica_id: int) -> Process:
        """Start driving ``replica_id``.

        Under the ``"fleet"`` stepping mode all members share one
        :class:`repro.runtime.fleet.FleetStepper` process; ``"process"`` mode
        keeps the reference shape of one :func:`replica_driver` per replica.
        """
        if stepping_mode() == "fleet":
            if self._stepper is None:
                self._stepper = FleetStepper(self.env, self)
            return self._stepper.spawn(replica_id)
        process = self.env.process(
            replica_driver(self.env, replica_id, self), name=f"replica-{replica_id}"
        )
        self._drivers[replica_id] = process
        return process

    def touch(self, replica_ids: Optional[Sequence[int]] = None) -> None:
        """Interrupt drivers so they recompute their next event.

        Called whenever an external actor mutated replica state under a
        sleeping driver: a repack moved trajectories, a stall was injected, a
        weight update arrived.  ``None`` touches every driver.
        """
        if self._stepper is not None:
            ids = (
                self._stepper.live_ids() if replica_ids is None else list(replica_ids)
            )
            self._stepper.touch(ids)
            return
        ids = list(self._drivers) if replica_ids is None else list(replica_ids)
        for replica_id in ids:
            process = self._drivers.get(replica_id)
            if process is not None and process.is_alive and process is not self.env.active_process:
                process.interrupt()

    # -- wake-up signals ----------------------------------------------------
    def refill_signal(self) -> Event:
        """Event a driver sleeps on when its replica has no work and no budget."""
        return self._refill_box.wait()

    def data_event(self) -> Event:
        """Event a trainer sleeps on while waiting for buffered experiences."""
        return self._data_box.wait()

    def notify_refill(self) -> None:
        """Wake every driver blocked on the refill signal (budget freed)."""
        self._refill_box.notify()
        if self._stepper is not None:
            self._stepper.notify_refill()

    def notify_data(self) -> None:
        """Wake the trainer: the experience buffer can satisfy a batch."""
        self._data_box.notify()

    # -- policy hooks (subclass responsibility) ------------------------------
    def replica(self, replica_id: int) -> Optional[ReplicaGenerationState]:
        raise NotImplementedError

    def refill(self, replica: ReplicaGenerationState) -> None:
        raise NotImplementedError

    def on_advance(self, replica: ReplicaGenerationState, completed: List[Trajectory]) -> None:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------
    def catch_up(self, replica: ReplicaGenerationState) -> None:
        """Advance ``replica`` to the current simulation time.

        External actors call this before inspecting or mutating a replica
        whose driver is mid-sleep, so snapshots (KVCache utilisation, request
        counts, streamed tokens) are exact at the current instant.
        """
        behind = self.env.now - replica.clock
        if behind > _EPS:
            self.on_advance(replica, replica.advance(behind))
            if self.env.tracer.enabled:
                _flush_decode_samples(self.env.tracer, replica)


def replica_driver(env: Environment, replica_id: int, fleet: ReplicaFleet) -> Generator:
    """Process body: event-driven driver for one continuously-fed replica.

    The driver keeps the invariant ``replica.clock == env.now`` whenever the
    replica is actively decoding; a weight-pull or re-prefill stall may push
    the local clock *ahead* of simulated time, in which case the driver simply
    sleeps until the stall has elapsed.  Interrupts mean "something changed,
    recompute" and carry no payload.  Recomputation is cheap: the engine's
    next-event reductions are cached against its mutation counter, so a driver
    woken without an intervening replica mutation (e.g. a broadcast ``touch``)
    re-derives its next event in O(1) rather than re-scanning the decode batch.
    """
    tracer = env.tracer
    if tracer.enabled:
        seeded = fleet.replica(replica_id)
        if seeded is not None:
            seeded.enable_trace_sampling()
    while True:
        replica = fleet.replica(replica_id)
        if replica is None:
            return  # replica retired (machine failure)
        behind = env.now - replica.clock
        if behind > _EPS:
            # An external actor let simulated time pass (or this driver was
            # interrupted mid-sleep): consume the elapsed window first.
            fleet.on_advance(replica, replica.advance(behind))
            if tracer.enabled:
                _flush_decode_samples(tracer, replica)
            continue
        if replica.is_idle:
            fleet.refill(replica)
            if replica.is_idle:
                try:
                    yield fleet.refill_signal()
                except Interrupt:
                    pass
                continue
        ahead = max(0.0, replica.clock - env.now)
        delta = replica.next_event_in()
        if delta is None:
            if ahead <= _EPS:
                # Sequences exist but none can run (queued behind a full
                # KVCache with no decoder live): wait for outside help.
                try:
                    yield fleet.refill_signal()
                except Interrupt:
                    pass
                continue
            wait = ahead  # stalled: let the stall elapse, then re-evaluate
        else:
            wait = ahead + delta
        try:
            yield env.timeout(wait)
        except Interrupt:
            continue
        behind = env.now - replica.clock
        if behind > _EPS:
            fleet.on_advance(replica, replica.advance(behind))
            if tracer.enabled:
                _flush_decode_samples(tracer, replica)
