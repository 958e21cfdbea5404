"""Fleet-stepped execution: one engine process drives all replicas.

The per-replica harness processes (:func:`repro.runtime.drain_replica`,
:func:`repro.runtime.replica_driver`) cost one live generator, one heap event
per wake-up and one interrupt per ``touch`` **per replica** — at datacenter
scale (thousands of replicas) the ``sim.engine`` scheduling tier itself
becomes the hot path.  This module replaces those N processes with a single
fleet process per scenario:

* :func:`fleet_generation_barrier` — the batch-synchronous barrier.  Because
  no external actor mutates a barrier replica mid-drain (each batch gets
  fresh replicas), the entire multi-replica drain is simulated eagerly in
  plain Python at barrier start — every replica receives the **identical
  sequence of ``next_event_in`` / ``advance`` calls** the per-replica drain
  processes would have issued — and the engine only sees the events that are
  externally observable: one publisher per distinct completion instant
  (streamed systems) and one join wake-up at the slowest replica's finish
  time.

* :class:`FleetStepper` — the continuous systems' replacement for N
  :func:`replica_driver` processes.  Per-replica wake-ups live in a
  :class:`FleetState` SoA block (packed absolute wake times + FIFO order
  stamps mirroring engine event ids); the stepper sleeps until the fleet's
  earliest stored wake (``FleetState.next_wake``) and services due replicas
  one at a time, in exactly the (time, order) sequence the engine heap would
  have used.
  External actors still interact per replica: ``touch`` marks the replica
  dirty and delivers **one** interrupt for the whole fleet, ``notify_refill``
  wakes waiters in wait order, and ``catch_up`` remains a synchronous call.

Bit-identity contract
---------------------
Each replica observes the same ``(next_event_in, advance)`` call sequence,
at the same simulated instants, as under the per-replica processes; the
fleet layer re-organises *scheduling*, never replica arithmetic.  Residual
freedom exists only where the engine's FIFO tie-break ordered events of
*different* replicas at exactly equal float times — orderings the committed
``BENCH_*.json`` gates pin at ``--tolerance 0`` and
``tests/test_fleet_equivalence.py`` fuzzes directly against the per-replica
stepping mode (:func:`stepping_mode` toggles between them).
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..rollout.generation import _EPS, ReplicaBatchView, ReplicaGenerationState
from ..sim.engine import Environment, Interrupt, Process
from ..types import Trajectory

#: Initial replica capacity of the FleetState SoA block.
_INITIAL_REPLICAS = 16

# -- stepping-mode toggle ----------------------------------------------------

#: "fleet" — one fleet process per scenario (the default);
#: "process" — one engine process per replica (the reference harness shape).
_STEPPING_MODE = "fleet"


def stepping_mode() -> str:
    """The active harness stepping mode ("fleet" or "process")."""
    return _STEPPING_MODE


def set_stepping_mode(mode: str) -> None:
    global _STEPPING_MODE
    if mode not in ("fleet", "process"):
        raise ValueError(f"unknown stepping mode {mode!r}")
    _STEPPING_MODE = mode


@contextmanager
def stepping(mode: str):
    """Temporarily select a stepping mode (the equivalence tests' lever)."""
    previous = _STEPPING_MODE
    set_stepping_mode(mode)
    try:
        yield
    finally:
        set_stepping_mode(previous)


# -- FleetState: packed per-replica scheduling block -------------------------


class FleetState:
    """SoA block of per-replica fleet scheduling state.

    Replica-id-indexed offsets map each member to a dense index; the packed
    arrays hold its next absolute wake time (``inf`` = no timer) and the FIFO
    order stamp that mirrors the engine's event-id tie-break.  A lazy heap
    over ``(wake, order, index)`` gives O(log n) pops in exactly the
    (time, FIFO) order N per-replica timeout events would have fired in.
    """

    def __init__(self) -> None:
        self.wake = np.full(_INITIAL_REPLICAS, math.inf, dtype=np.float64)
        self.order = np.zeros(_INITIAL_REPLICAS, dtype=np.int64)
        self.n = 0
        self._heap: List[Tuple[float, int, int]] = []
        self._counter = itertools.count()
        self._index_of: Dict[int, int] = {}
        self._ids: List[int] = []

    def add_replica(self, replica_id: int) -> int:
        """Register a member; returns its dense index into the block."""
        existing = self._index_of.get(replica_id)
        if existing is not None:
            return existing
        index = self.n
        if index == len(self.wake):
            capacity = 2 * len(self.wake)
            grown = np.full(capacity, math.inf, dtype=np.float64)
            grown[: index] = self.wake
            self.wake = grown
            grown_order = np.zeros(capacity, dtype=np.int64)
            grown_order[: index] = self.order
            self.order = grown_order
        self.n += 1
        self._index_of[replica_id] = index
        self._ids.append(replica_id)
        return index

    def index_of(self, replica_id: int) -> int:
        return self._index_of[replica_id]

    def id_at(self, index: int) -> int:
        return self._ids[index]

    def replica_ids(self) -> List[int]:
        """Member replica ids in registration order."""
        return list(self._ids)

    def schedule(self, index: int, at: float) -> None:
        """Arm (or re-arm) a member's wake-up at absolute time ``at``."""
        stamp = next(self._counter)
        self.wake[index] = at
        self.order[index] = stamp
        heapq.heappush(self._heap, (at, stamp, index))

    def clear(self, index: int) -> None:
        """Disarm a member's wake-up (stale heap entries die lazily)."""
        self.wake[index] = math.inf

    def _peek(self) -> Optional[Tuple[float, int, int]]:
        heap = self._heap
        while heap:
            at, stamp, index = heap[0]
            if self.wake[index] == at and self.order[index] == stamp:
                return heap[0]
            heapq.heappop(heap)  # superseded or disarmed entry
        return None

    def next_wake(self) -> Optional[float]:
        """Absolute time of the fleet's earliest armed wake-up (None if none).

        Returns the exact float stored by :meth:`schedule` — the stepper
        sleeps on this value directly so wake-ups land bit-identically to the
        engine's own ``now + delay`` timeout arithmetic.
        """
        entry = self._peek()
        if entry is None:
            return None
        return entry[0]

    def pop_due(self, now: float) -> Optional[int]:
        """Pop and disarm the earliest member due at or before ``now``.

        Members come out in ``(wake time, order stamp)`` order — the exact
        sequence the engine heap would have resumed their driver processes.
        """
        entry = self._peek()
        if entry is None or entry[0] > now:
            return None
        heapq.heappop(self._heap)
        index = entry[2]
        self.wake[index] = math.inf
        return index


# -- batch-synchronous fleet barrier ----------------------------------------


def _publisher(env: Environment, at: float, replica_pos: int,
               batch: List[Trajectory], on_complete) -> Generator:
    yield env.timeout_until(at)
    on_complete(replica_pos, batch)


def fleet_generation_barrier(
    env: Environment,
    replicas: Sequence[ReplicaGenerationState],
    origin: Optional[float] = None,
    on_complete=None,
) -> Generator:
    """Fleet-stepped :func:`repro.runtime.generation_barrier` body.

    Drains every replica with the identical ``next_event_in`` / ``advance``
    call sequence the per-replica drain processes would issue — plain mode
    accumulates each replica's own ``t = t + delta`` float chain (the
    engine's ``now + delay`` arithmetic), anchored mode wakes on the
    replica's local clock — but issues the whole drain eagerly, scheduling
    only the externally observable events: streamed-completion publishers at
    their exact instants and a single ``timeout_until`` at the barrier join
    time ``max_r(final_r)``.

    Barrier drains are mutually independent by construction (replicas
    interact only at the join), so the whole fleet is drained *together*
    through one :class:`~repro.rollout.generation.ReplicaBatchView`: each
    round asks every still-live lane for its next event with one stacked
    reduction and advances all of them with one grouped kernel sweep, while
    each lane's float chain (``t = t + delta`` / ``fl(origin + clock)``)
    stays per-lane and bit-identical.  Tracing forces the wholly per-replica
    path (the view refuses to fuse armed lanes), as do lanes with waiting
    queues, active slowdowns, or KV pools the drain could overflow.
    """
    from .harness import GenerationOutcome, _flush_decode_samples

    tracer = env.tracer
    barrier_start = env.now
    if tracer.enabled:
        for replica in replicas:
            replica.enable_trace_sampling()

    # (call_time, replica_pos, seq_no, at, batch): one row per publication,
    # keyed like the per-replica publishers would have been created.
    publications: List[Tuple[float, int, int, float, List[Trajectory]]] = []
    num = len(replicas)
    starts = [replica.clock for replica in replicas]
    completed_l: List[List[Trajectory]] = [[] for _ in range(num)]
    anchored = origin is not None
    if anchored:
        seen_l: List[Dict[int, Trajectory]] = [{} for _ in range(num)]
        seq_no_l = [0] * num
        call_time_l = [barrier_start] * num
    else:
        t_chain = [barrier_start] * num

    def publish(pos: int, done: List[Trajectory],
                call_time: float) -> List[Trajectory]:
        seen = seen_l[pos]
        fresh = [t for t in done if t.traj_id not in seen]
        for traj in fresh:
            seen[traj.traj_id] = traj
        if fresh and on_complete is not None:
            groups: List[Tuple[float, List[Trajectory]]] = []
            for traj in fresh:
                if groups and groups[-1][0] == traj.finish_time:
                    groups[-1][1].append(traj)
                else:
                    groups.append((traj.finish_time, [traj]))
            for finish, batch in groups:
                publications.append(
                    (call_time, pos, seq_no_l[pos], origin + finish, batch)
                )
                seq_no_l[pos] += 1
        return fresh

    view = ReplicaBatchView(replicas, fuse=not tracer.enabled)
    active = [pos for pos in range(num) if view.lane_live(pos)]
    while active:
        deltas = view.next_event_in_many(active)
        round_pos: List[int] = []
        dts: List[float] = []
        for pos, delta in zip(active, deltas):
            if delta is None:
                continue  # stuck lane (inadmissible queue): stop draining it
            round_pos.append(pos)
            dts.append(delta)
        done_lists = view.advance_many(round_pos, dts)
        if anchored:
            for pos, done in zip(round_pos, done_lists):
                completed_l[pos].extend(publish(pos, done, call_time_l[pos]))
                call_time_l[pos] = origin + view.lane_clock(pos)
        else:
            for pos, done, dt in zip(round_pos, done_lists, dts):
                t_chain[pos] = t_chain[pos] + dt
                completed_l[pos].extend(done)
        active = [pos for pos in round_pos if view.lane_live(pos)]
    view.settle()

    per_replica_time: List[float] = []
    trajectories: List[Trajectory] = []
    finals: List[float] = []
    counts: List[int] = []
    tokens = 0
    for pos, replica in enumerate(replicas):
        completed = completed_l[pos]
        if anchored:
            completed.extend(
                publish(pos, replica.drain_completed(), call_time_l[pos])
            )
            final = origin + replica.clock
        else:
            completed.extend(replica.drain_completed())
            unique: Dict[int, Trajectory] = {traj.traj_id: traj for traj in completed}
            completed = list(unique.values())
            final = t_chain[pos]
        per_replica_time.append(replica.clock - starts[pos])
        trajectories.extend(completed)
        counts.append(len(completed))
        tokens += replica.stats.tokens_generated
        finals.append(final)

    if tracer.enabled:
        for pos, replica in enumerate(replicas):
            if origin is None:
                span_begin, span_end = barrier_start, finals[pos]
                flush_offset = barrier_start - starts[pos]
            else:
                span_begin = origin + starts[pos]
                span_end = origin + replica.clock
                flush_offset = origin
            tracer.span(f"replica-{replica.replica_id}", "generate",
                        span_begin, span_end,
                        args={"trajectories": counts[pos],
                              "tokens": replica.stats.tokens_generated})
            _flush_decode_samples(tracer, replica, offset=flush_offset)

    if on_complete is not None and publications:
        # Publisher creation order = the engine order of the publish call
        # sites: ascending call time, replicas in spawn order at the shared
        # barrier-start instant, per-replica publication order within a call.
        publications.sort(key=lambda p: (p[0], p[1], p[2]))
        for call_time, pos, _seq_no, at, batch in publications:
            deliver_at = at if at > call_time else call_time
            if deliver_at <= env.now:
                on_complete(pos, batch)
            else:
                env.process(_publisher(env, deliver_at, pos, batch, on_complete),
                            name=f"publish-{pos}")

    if replicas:
        yield env.timeout_until(max(finals))
    return GenerationOutcome(
        duration=max(per_replica_time) if per_replica_time else 0.0,
        trajectories=trajectories,
        per_replica_time=per_replica_time,
        tokens_generated=tokens,
    )


# -- continuous fleet stepper ------------------------------------------------

#: FleetStepper per-replica states.
_RUNNING = 0       #: armed timer in FleetState (or about to be serviced)
_WAIT_REFILL = 1   #: parked until notify_refill / touch
_RETIRED = 2       #: replica resolved to None (machine failure)


class FleetStepper:
    """Single-process replacement for N :func:`replica_driver` processes.

    One engine process sleeps until the earliest member wake-up in the
    :class:`FleetState` block and replays, for each due replica, exactly the
    driver loop body: consume elapsed time (``advance`` + ``on_advance``),
    refill when idle, park on the refill signal when there is no work, and
    re-arm ``wake = now + (ahead + delta)`` with the same float arithmetic
    the engine's relative timeouts use.  ``touch`` delivers one prio-0
    interrupt for the whole fleet and services the touched replicas in call
    order (the order their per-replica interrupts would have fired);
    ``notify_refill`` wakes parked members in wait order, matching the
    :class:`repro.runtime.EventBox` callback order.
    """

    def __init__(self, env: Environment, fleet) -> None:
        self.env = env
        self.fleet = fleet
        self.state = FleetState()
        self._rstate: Dict[int, int] = {}
        #: Immediate-service FIFO: spawns, touches and refill wake-ups in
        #: call order (serviced before due timers, as prio-0 interrupts were).
        self._service_queue: List[int] = []
        self._wait_refill: List[int] = []
        self._servicing: Optional[int] = None
        self._process: Optional[Process] = None
        self._poked = False

    # -- membership ---------------------------------------------------------
    def spawn(self, replica_id: int) -> Process:
        self.state.add_replica(replica_id)
        self._rstate[replica_id] = _RUNNING
        self._service_queue.append(replica_id)
        if self._process is None or not self._process.is_alive:
            self._process = self.env.process(self._run(), name="fleet-stepper")
        else:
            self._poke()
        return self._process

    def live_ids(self) -> List[int]:
        """Unretired members in spawn order (the touch-broadcast order)."""
        return [rid for rid in self.state.replica_ids()
                if self._rstate.get(rid) != _RETIRED]

    # -- external signals ---------------------------------------------------
    def touch(self, replica_ids: Sequence[int]) -> None:
        queued = False
        for replica_id in replica_ids:
            if self._rstate.get(replica_id, _RETIRED) == _RETIRED:
                continue
            if replica_id == self._servicing:
                continue  # a driver never interrupts itself
            if self._rstate[replica_id] == _WAIT_REFILL:
                self._wait_refill.remove(replica_id)
                self._rstate[replica_id] = _RUNNING
            self._service_queue.append(replica_id)
            queued = True
        if queued:
            self._poke()

    def notify_refill(self) -> None:
        if not self._wait_refill:
            return
        waiters, self._wait_refill = self._wait_refill, []
        for replica_id in waiters:
            self._rstate[replica_id] = _RUNNING
        self._service_queue.extend(waiters)
        self._poke()

    def _poke(self) -> None:
        """Wake the sleeping stepper once (idempotent within one wake)."""
        process = self._process
        if (
            not self._poked
            and process is not None
            and process.is_alive
            and process is not self.env.active_process
        ):
            self._poked = True
            process.interrupt()

    # -- the fleet process ---------------------------------------------------
    def _run(self) -> Generator:
        env = self.env
        state = self.state
        while True:
            self._poked = False
            while self._service_queue:
                self._service(self._service_queue.pop(0))
            due = state.pop_due(env.now)
            if due is not None:
                self._service(state.id_at(due))
                continue
            if self._service_queue:
                continue
            wake = state.next_wake()
            if wake is None:
                # No armed timers: park until an external poke.
                try:
                    yield env.event()
                except Interrupt:
                    continue
            else:
                try:
                    yield env.timeout_until(wake)
                except Interrupt:
                    continue

    def _service(self, replica_id: int) -> None:
        """Run one driver-loop pass for ``replica_id`` until it sleeps."""
        env = self.env
        fleet = self.fleet
        tracer = env.tracer
        from .harness import _flush_decode_samples

        if self._rstate.get(replica_id, _RETIRED) == _RETIRED:
            return
        self._servicing = replica_id
        try:
            while True:
                replica = fleet.replica(replica_id)
                if replica is None:
                    self._retire(replica_id)
                    return
                if tracer.enabled:
                    replica.enable_trace_sampling()
                behind = env.now - replica.clock
                if behind > _EPS:
                    fleet.on_advance(replica, replica.advance(behind))
                    if tracer.enabled:
                        _flush_decode_samples(tracer, replica)
                    continue
                if replica.is_idle:
                    fleet.refill(replica)
                    if replica.is_idle:
                        self._park(replica_id)
                        return
                ahead = max(0.0, replica.clock - env.now)
                delta = replica.next_event_in()
                if delta is None:
                    if ahead <= _EPS:
                        # Sequences exist but none can run: wait for help.
                        self._park(replica_id)
                        return
                    wait = ahead  # stalled: let the stall elapse
                else:
                    wait = ahead + delta
                self._rstate[replica_id] = _RUNNING
                self.state.schedule(self.state.index_of(replica_id), env.now + wait)
                return
        finally:
            self._servicing = None

    def _park(self, replica_id: int) -> None:
        self._rstate[replica_id] = _WAIT_REFILL
        self._wait_refill.append(replica_id)
        self.state.clear(self.state.index_of(replica_id))

    def _retire(self, replica_id: int) -> None:
        self._rstate[replica_id] = _RETIRED
        self.state.clear(self.state.index_of(replica_id))
        if replica_id in self._wait_refill:
            self._wait_refill.remove(replica_id)
