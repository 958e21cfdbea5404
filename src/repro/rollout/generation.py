"""Replica-level generation engine.

:class:`ReplicaGenerationState` models one rollout replica (one vLLM tensor-
parallel group) decoding a set of trajectories.  It is deliberately free of
any discrete-event-simulation dependency: callers drive it by asking "when is
your next internal event?" and then telling it "advance by this much time".
The ``repro.runtime`` harness turns that contract into engine processes:

* Laminar and AReaL run one interruptible driver process per replica
  (:func:`repro.runtime.replica_driver`), which sleeps until the replica's
  own next event — so repacking, weight pulls and failures can land at any
  instant and simulated time jumps between real events;
* the batch-synchronous baselines drain each replica with
  :func:`repro.runtime.drain_replica` behind an ``AllOf`` barrier
  (:func:`repro.runtime.generation_barrier`), which reproduces their
  slowest-replica iteration semantics exactly.

Because every system shares this engine (and the roofline decode model inside
it), throughput differences between systems come purely from orchestration —
matching the paper's "alleviating implementation bias" methodology (§8).

Structure-of-arrays core
------------------------
The inner engine is vectorized: per-sequence decode state (segment remaining,
generated tokens, context length, environment return time) lives in numpy
arrays indexed by a dense *slot* id, and the decode / env-wait sets are
order-preserving parallel vectors of (seq id, slot, KVCache row)
(:class:`_SeqVector`) maintained incrementally — so the per-event hot path is
a handful of masked reductions and one clipped vector subtract, with no
Python loop over the batch and no per-event cache rebuilds.  Per-sequence
Python runs only on the rare control tail — admission, preemption, segment
finishes, environment transitions — and the :class:`SequenceState` objects
that external callers hold (repack, failover, the partial response pool) are
re-synchronised from the arrays at every boundary where they can be observed
(``sequences()``, removal, completion).
``tests/test_engine_equivalence.py`` drives this engine step-for-step against
the retained scalar reference (:mod:`repro.rollout.reference`) and asserts
bit-identical trajectories, stats and KVCache occupancy.

Decode semantics
----------------
All actively decoding sequences advance one token per decode step; the decode
step latency follows the roofline model and depends on the live batch size and
mean context length.  A sequence is one of:

``queued``      waiting for KVCache admission (vLLM waiting queue)
``decoding``    in the decode batch
``env_wait``    waiting on an environment interaction (multi-turn tasks)
``done``        finished (removed from the replica)

KVCache management follows the vLLM model: a sequence is admitted when its
*current* context fits (plus a small growth lookahead), blocks are allocated
incrementally as tokens are decoded, and when the cache fills up the most
recently admitted sequences are preempted back to the waiting queue (their
cache is rebuilt when they are re-admitted).  This reproduces the utilisation
lifecycle of Figure 9: ramp-up, a plateau near ``C_max`` while a waiting queue
exists, and a ramp-down once it drains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..llm.decode_model import DecodeModel, decode_step_time_arrays
from ..sim.kvcache import KVCache, KVCacheConfig, grow_array
from ..types import Trajectory

#: Numerical slack used when comparing simulated times.
_EPS = 1e-9

#: Initial slot / vector capacity of the SoA state (grown geometrically).
_INITIAL_SLOTS = 8

#: The int64 per-slot fields, in row order of the ``(11, capacity)`` slot
#: block ``ReplicaGenerationState._a_i64``; each name is bound to a row view.
_I64_FIELDS = (
    "_a_seg_rem", "_a_gen", "_a_target", "_a_prompt", "_a_ctx",
    "_a_done_turn", "_a_last_ver", "_a_turn", "_a_nturns", "_a_sched_off",
    "_a_sched_cap",
)


@dataclass
class TurnSchedule:
    """Pre-sampled decode/environment schedule for one trajectory.

    ``segments[i]`` is the number of response tokens decoded in turn ``i``;
    ``env_latencies[i]`` is the environment latency paid *after* turn ``i``
    (zero after the final turn).  Single-turn tasks have one segment and no
    environment latency.
    """

    segments: List[int]
    env_latencies: List[float]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a turn schedule needs at least one segment")
        if len(self.env_latencies) != len(self.segments):
            raise ValueError("env_latencies must have one entry per segment")
        if min(self.segments) <= 0:
            raise ValueError("segments must be positive")
        if min(self.env_latencies) < 0:
            raise ValueError("env latencies must be non-negative")

    @property
    def total_tokens(self) -> int:
        return sum(self.segments)

    @property
    def num_turns(self) -> int:
        return len(self.segments)

    @classmethod
    def single_turn(cls, tokens: int) -> "TurnSchedule":
        return cls(segments=[int(tokens)], env_latencies=[0.0])


class SequenceStatus:
    QUEUED = "queued"
    DECODING = "decoding"
    ENV_WAIT = "env_wait"
    DONE = "done"


#: Integer status codes used by the slot-indexed status array (the
#: authoritative residency state of the vectorized engine; the string
#: ``SequenceState.status`` field is re-synchronised from it lazily).
_ST_QUEUED = 0
_ST_DECODING = 1
_ST_ENV_WAIT = 2
_STATUS_NAMES = (
    SequenceStatus.QUEUED,
    SequenceStatus.DECODING,
    SequenceStatus.ENV_WAIT,
)


@dataclass
class SequenceState:
    """Runtime state of one trajectory on a replica."""

    trajectory: Trajectory
    schedule: TurnSchedule
    status: str = SequenceStatus.QUEUED
    turn_index: int = 0
    tokens_done_in_turn: int = 0
    env_return_time: float = math.inf
    #: True if this sequence arrived via repack/failover and its existing
    #: context must be re-prefilled before decoding resumes on this replica.
    needs_reprefill: bool = False

    @property
    def seq_id(self) -> int:
        return self.trajectory.traj_id

    @property
    def segment_remaining(self) -> int:
        return self.schedule.segments[self.turn_index] - self.tokens_done_in_turn

    @property
    def total_remaining(self) -> int:
        remaining = self.segment_remaining
        remaining += sum(self.schedule.segments[self.turn_index + 1:])
        return remaining

    @property
    def context_tokens(self) -> int:
        return self.trajectory.prompt.prompt_tokens + self.trajectory.generated_tokens

    @property
    def reserved_tokens(self) -> int:
        """KVCache reservation: prompt plus the full eventual response."""
        return self.trajectory.prompt.prompt_tokens + self.schedule.total_tokens


@dataclass
class ReplicaStats:
    """Cumulative counters exposed for metrics and tests."""

    tokens_generated: int = 0
    prompt_tokens_prefilled: int = 0
    reprefill_tokens: int = 0
    trajectories_completed: int = 0
    decode_busy_time: float = 0.0
    idle_time: float = 0.0
    env_blocked_time: float = 0.0
    preemptions: int = 0


class _SeqVector:
    """Order-preserving parallel arrays of (seq id, slot, KVCache row).

    Backs the decode and env-wait sets of the vectorized engine.  Appends and
    tail-pops are O(1) amortised; arbitrary deletions compact the prefix with
    one vectorized copy.  Views returned by the accessors alias the backing
    arrays and are valid until the next mutation.
    """

    __slots__ = ("ids", "slots", "rows", "n")

    def __init__(self) -> None:
        self.ids = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self.slots = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self.rows = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def append(self, seq_id: int, slot: int, row: int) -> None:
        if self.n == len(self.ids):
            capacity = 2 * len(self.ids)
            self.ids = grow_array(self.ids, capacity)
            self.slots = grow_array(self.slots, capacity)
            self.rows = grow_array(self.rows, capacity)
        self.ids[self.n] = seq_id
        self.slots[self.n] = slot
        self.rows[self.n] = row
        self.n += 1

    def extend(self, ids: np.ndarray, slots: np.ndarray, rows: np.ndarray) -> None:
        """Append many entries at once, preserving input order."""
        count = len(ids)
        if not count:
            return
        need = self.n + count
        if need > len(self.ids):
            capacity = len(self.ids)
            while capacity < need:
                capacity *= 2
            self.ids = grow_array(self.ids, capacity)
            self.slots = grow_array(self.slots, capacity)
            self.rows = grow_array(self.rows, capacity)
        self.ids[self.n:need] = ids
        self.slots[self.n:need] = slots
        self.rows[self.n:need] = rows
        self.n = need

    def pop(self) -> Tuple[int, int, int]:
        """Remove and return the most recently appended entry."""
        self.n -= 1
        i = self.n
        return int(self.ids[i]), int(self.slots[i]), int(self.rows[i])

    def ids_view(self) -> np.ndarray:
        return self.ids[: self.n]

    def slots_view(self) -> np.ndarray:
        return self.slots[: self.n]

    def rows_view(self) -> np.ndarray:
        return self.rows[: self.n]

    def ids_list(self) -> List[int]:
        return self.ids[: self.n].tolist()

    def delete_positions(self, positions: Sequence[int]) -> None:
        """Delete the entries at ``positions``, preserving the order of the rest."""
        if len(positions) == 1:
            position = int(positions[0])
            stop = self.n
            for name in ("ids", "slots", "rows"):
                arr = getattr(self, name)
                arr[position:stop - 1] = arr[position + 1:stop]
            self.n = stop - 1
            return
        keep = np.ones(self.n, dtype=bool)
        keep[positions] = False
        kept = int(keep.sum())
        for name in ("ids", "slots", "rows"):
            arr = getattr(self, name)
            arr[:kept] = arr[: self.n][keep]
        self.n = kept

    def remove_id(self, seq_id: int) -> bool:
        """Delete the (first) entry for ``seq_id``; True if it was present."""
        hits = np.flatnonzero(self.ids[: self.n] == seq_id)
        if not len(hits):
            return False
        self.delete_positions(hits[:1])
        return True


class _IdQueue:
    """FIFO of waiting sequence ids (the vLLM waiting queue).

    A head pointer over a plain list makes :meth:`popleft` O(1) amortised —
    admission pops the head on every ``next_event_in`` / ``advance`` loop
    that admits, so head pops must not be ``list.pop(0)``.  Preempted
    sequences go back to the *front* (:meth:`appendleft`, vLLM recompute
    order) by reclaiming the dead prefix when one exists.
    """

    __slots__ = ("_items", "_head")

    def __init__(self) -> None:
        self._items: List[int] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __bool__(self) -> bool:
        return len(self._items) > self._head

    def head(self) -> int:
        return self._items[self._head]

    def append(self, seq_id: int) -> None:
        self._items.append(seq_id)

    def appendleft(self, seq_id: int) -> None:
        if self._head:
            self._head -= 1
            self._items[self._head] = seq_id
        else:
            self._items.insert(0, seq_id)

    def popleft(self) -> int:
        item = self._items[self._head]
        self._head += 1
        self._compact()
        return item

    def remove(self, seq_id: int) -> None:
        index = self._items.index(seq_id, self._head)
        del self._items[index]

    def _compact(self) -> None:
        if self._head > 64 and self._head * 2 >= len(self._items):
            del self._items[: self._head]
            self._head = 0


class ReplicaGenerationState:
    """Simulated decode engine for one rollout replica (vectorized core)."""

    def __init__(
        self,
        replica_id: int,
        decode_model: DecodeModel,
        kvcache_config: KVCacheConfig,
        max_concurrency: int = 1024,
        weight_version: int = 0,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.replica_id = replica_id
        self.decode_model = decode_model
        self.kvcache = KVCache(kvcache_config)
        self.max_concurrency = max_concurrency
        self.weight_version = weight_version
        self.clock = 0.0
        self.stats = ReplicaStats()
        self._sequences: Dict[int, SequenceState] = {}
        self._queued = _IdQueue()
        #: Decode and env-wait sets: incrementally maintained (id, slot, row)
        #: vectors in the same order the scalar engine kept its id lists.
        self._dec = _SeqVector()
        self._env = _SeqVector()
        self._completed: List[Trajectory] = []
        self._time_carry = 0.0
        #: Straggler degradation (repro.faults): multipliers applied to the
        #: decode step time and to environment latencies.  1.0 (the default)
        #: is the exact pre-fault code path — the guards below skip the
        #: multiply entirely, so healthy replicas stay bit-identical.
        self._decode_slowdown = 1.0
        self._env_slowdown = 1.0
        #: Bumped on every mutation of the decode batch (admission, removal,
        #: preemption, token growth); keys the incremental event caches below.
        self._mutation = 0
        #: True while the waiting queue is known to be inadmissible (head does
        #: not fit, or no concurrency headroom).  Kept exact by clearing at
        #: every event that can unblock admission: KV rows freed or queue /
        #: concurrency changed (finish, preemption, add/remove).  Token
        #: growth only shrinks headroom, so decode windows need not clear it
        #: — that is what keeps the steady-state admission check O(1).
        self._admit_blocked = False
        self._step_cache: Tuple[int, float] = (-1, 0.0)
        self._min_seg_cache: Tuple[int, int] = (-1, 0)
        self._env_min_cache: Tuple[int, float] = (-1, math.inf)
        #: Utilisation at the previous observation, for the ramp-down test
        #: (§5.2: a repack candidate has non-increasing KVCache utilisation).
        self.prev_utilization = 0.0
        #: Observability: when tracing is on, the decode loop appends
        #: ``(local clock, tokens)`` increments here (one list append per
        #: vectorized decode window — the batched-flush contract keeping the
        #: SoA hot path fast); the harness drains it at phase boundaries via
        #: :meth:`take_trace_samples`.  ``None`` (the default) disables the
        #: buffer entirely.
        self.trace_samples: Optional[List[Tuple[float, int]]] = None
        self._trace_total = 0
        # SoA state, indexed by slot id (see _alloc_slot).  Free slots pop
        # lowest first, and growth appends above the old capacity.
        self._slots: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))
        # The int64 fields (decode state, turn cursor, and per-slot views into
        # the flat turn-schedule pools) are rows of one block, so growth and
        # cross-replica stacking copy one array; see _I64_FIELDS.
        self._bind_slot_block(np.zeros((len(_I64_FIELDS), _INITIAL_SLOTS), dtype=np.int64))
        self._a_env = np.full(_INITIAL_SLOTS, math.inf, dtype=np.float64)
        self._a_status = np.zeros(_INITIAL_SLOTS, dtype=np.int8)
        self._a_reprefill = np.zeros(_INITIAL_SLOTS, dtype=bool)
        #: Flat schedule pools: slot ``s`` owns ``_sched_seg[off:off+cap]``
        #: (segment lengths) and ``_sched_env[...]`` (env latencies), where
        #: ``off = _a_sched_off[s]``.  Regions are reused across the sequences
        #: a slot hosts; a slot upgrades to a fresh tail region only when a
        #: new occupant needs more turns than the slot ever held.
        self._sched_seg = np.zeros(4 * _INITIAL_SLOTS, dtype=np.int64)
        self._sched_env = np.zeros(4 * _INITIAL_SLOTS, dtype=np.float64)
        self._sched_len = 0

    # ------------------------------------------------------------------ slots
    def _bind_slot_block(self, block: np.ndarray) -> None:
        """Adopt ``block`` as the int64 slot block and rebind its row views."""
        self._a_i64 = block
        for name, row in zip(_I64_FIELDS, block):
            setattr(self, name, row)

    def _alloc_slot(self, seq: SequenceState) -> int:
        if not self._free_slots:
            old = self._a_i64.shape[1]
            new = 2 * old
            self._bind_slot_block(grow_array(self._a_i64, new))
            self._a_env = grow_array(self._a_env, new, fill=math.inf)
            self._a_status = grow_array(self._a_status, new)
            self._a_reprefill = grow_array(self._a_reprefill, new)
            self._free_slots.extend(range(new - 1, old - 1, -1))
        slot = self._free_slots.pop()
        trajectory = seq.trajectory
        self._a_seg_rem[slot] = seq.segment_remaining
        self._a_gen[slot] = trajectory.generated_tokens
        self._a_target[slot] = trajectory.target_tokens
        self._a_prompt[slot] = trajectory.prompt.prompt_tokens
        self._a_ctx[slot] = trajectory.prompt.prompt_tokens + trajectory.generated_tokens
        self._a_done_turn[slot] = seq.tokens_done_in_turn
        self._a_env[slot] = seq.env_return_time
        self._a_last_ver[slot] = -1
        self._a_status[slot] = _ST_QUEUED
        self._a_turn[slot] = seq.turn_index
        schedule = seq.schedule
        num_turns = schedule.num_turns
        self._a_nturns[slot] = num_turns
        self._a_reprefill[slot] = seq.needs_reprefill
        if num_turns > self._a_sched_cap[slot]:
            offset = self._sched_len
            need = offset + num_turns
            if need > len(self._sched_seg):
                capacity = len(self._sched_seg)
                while capacity < need:
                    capacity *= 2
                self._sched_seg = grow_array(self._sched_seg, capacity)
                self._sched_env = grow_array(self._sched_env, capacity)
            self._a_sched_off[slot] = offset
            self._a_sched_cap[slot] = num_turns
            self._sched_len = need
        offset = int(self._a_sched_off[slot])
        self._sched_seg[offset:offset + num_turns] = schedule.segments
        self._sched_env[offset:offset + num_turns] = schedule.env_latencies
        self._slots[seq.seq_id] = slot
        return slot

    def _release_slot(self, seq_id: int) -> None:
        self._free_slots.append(self._slots.pop(seq_id))

    def _sync_sequence(self, seq_id: int) -> None:
        """Write array-held (lazy) fields back to the sequence/trajectory."""
        slot = self._slots[seq_id]
        seq = self._sequences[seq_id]
        seq.tokens_done_in_turn = int(self._a_done_turn[slot])
        turn = int(self._a_turn[slot])
        seq.turn_index = turn
        seq.status = _STATUS_NAMES[self._a_status[slot]]
        seq.env_return_time = float(self._a_env[slot])
        seq.needs_reprefill = bool(self._a_reprefill[slot])
        trajectory = seq.trajectory
        trajectory.turns_done = turn
        trajectory.generated_tokens = min(
            trajectory.target_tokens, int(self._a_gen[slot])
        )

    def _sync_all(self) -> None:
        sequences = self._sequences
        if not sequences:
            return
        # Batch the array→object write-back: one C-level ``tolist`` per field
        # instead of six numpy scalar extractions per sequence.
        slots = np.fromiter(
            (self._slots[seq_id] for seq_id in sequences),
            dtype=np.int64, count=len(sequences),
        )
        done_turn = self._a_done_turn[slots].tolist()
        turns = self._a_turn[slots].tolist()
        statuses = self._a_status[slots].tolist()
        env_times = self._a_env[slots].tolist()
        reprefill = self._a_reprefill[slots].tolist()
        generated = self._a_gen[slots].tolist()
        for index, seq in enumerate(sequences.values()):
            seq.tokens_done_in_turn = done_turn[index]
            turn = turns[index]
            seq.turn_index = turn
            seq.status = _STATUS_NAMES[statuses[index]]
            seq.env_return_time = env_times[index]
            seq.needs_reprefill = reprefill[index]
            trajectory = seq.trajectory
            trajectory.turns_done = turn
            trajectory.generated_tokens = min(
                trajectory.target_tokens, generated[index]
            )

    # ------------------------------------------------------------------ intake
    def add_sequences(self, sequences: Sequence[SequenceState]) -> None:
        """Add new or migrated sequences to this replica's queue."""
        for seq in sequences:
            if seq.seq_id in self._sequences:
                raise ValueError(f"sequence {seq.seq_id} already on replica {self.replica_id}")
            seq.status = SequenceStatus.QUEUED
            self._sequences[seq.seq_id] = seq
            self._alloc_slot(seq)
            self._queued.append(seq.seq_id)
        self._admit_blocked = False
        self._try_admit()

    def remove_sequences(self, seq_ids: Sequence[int]) -> List[SequenceState]:
        """Detach (in-progress) sequences, e.g. when repacked to another replica."""
        removed: List[SequenceState] = []
        for seq_id in seq_ids:
            seq = self._sequences.get(seq_id)
            if seq is None:
                continue
            self._sync_sequence(seq_id)
            del self._sequences[seq_id]
            if seq.status == SequenceStatus.QUEUED:
                self._queued.remove(seq_id)
            elif seq.status == SequenceStatus.DECODING:
                self._dec.remove_id(seq_id)
                self.kvcache.free(seq_id)
            elif seq.status == SequenceStatus.ENV_WAIT:
                self._env.remove_id(seq_id)
                self.kvcache.free(seq_id)
            self._release_slot(seq_id)
            removed.append(seq)
        if removed:
            self._mutation += 1
            self._admit_blocked = False
        self._try_admit()
        return removed

    def remove_all(self) -> List[SequenceState]:
        """Detach every in-progress sequence (machine failure / full release)."""
        return self.remove_sequences(list(self._sequences.keys()))

    # ------------------------------------------------------------------ queries
    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    @property
    def num_decoding(self) -> int:
        return self._dec.n

    @property
    def num_queued(self) -> int:
        return len(self._queued)

    @property
    def num_env_waiting(self) -> int:
        return self._env.n

    @property
    def kvcache_utilization(self) -> float:
        return self.kvcache.utilization

    @property
    def is_idle(self) -> bool:
        return not self._sequences

    def drain_completed(self) -> List[Trajectory]:
        """Return (and clear) trajectories completed since the last drain."""
        completed, self._completed = self._completed, []
        return completed

    def sequences(self) -> List[SequenceState]:
        self._sync_all()
        return list(self._sequences.values())

    def mean_context_tokens(self) -> float:
        if not self._dec.n:
            return 0.0
        total = int(self._a_ctx[self._dec.slots_view()].sum())
        return total / self._dec.n

    def current_step_time(self) -> float:
        """Decode-step latency of the live batch.

        Cached against the mutation counter: callers typically ask for the
        step time twice per event (once to find the next event, once to apply
        the elapsed window), and the O(batch) context reduction is the widest
        scan on the event-driven hot path.
        """
        if not self._dec.n:
            return 0.0
        version, value = self._step_cache
        if version == self._mutation:
            return value
        value = self.decode_model.decode_step_time(
            self._dec.n, int(self.mean_context_tokens())
        )
        if self._decode_slowdown != 1.0:
            value *= self._decode_slowdown
        self._step_cache = (self._mutation, value)
        return value

    def _min_segment_remaining(self) -> int:
        """Smallest segment remainder in the decode batch (incrementally cached).

        Valid only while the decode set is non-empty.  ``next_event_in`` and
        ``advance`` both need this reduction for the same event; caching it
        against the mutation counter means the second caller (and every driver
        re-entry without an intervening mutation) pays O(1).
        """
        version, value = self._min_seg_cache
        if version != self._mutation:
            value = int(self._a_seg_rem[self._dec.slots_view()].min())
            self._min_seg_cache = (self._mutation, value)
        return value

    def _earliest_env_return(self) -> float:
        """Earliest environment return time (incrementally cached)."""
        version, value = self._env_min_cache
        if version != self._mutation:
            value = float(self._a_env[self._env.slots_view()].min())
            self._env_min_cache = (self._mutation, value)
        return value

    def in_ramp_down(self, c_max: Optional[float] = None) -> bool:
        """§5.2 idleness signal: utilisation below C_max and not increasing."""
        c_max = c_max if c_max is not None else self.kvcache.config.c_max
        util = self.kvcache_utilization
        return self.num_queued == 0 and util < min(c_max, self.prev_utilization + 1e-12)

    def observe_utilization(self) -> float:
        """Record the current utilisation for ramp-down detection and return it."""
        util = self.kvcache_utilization
        self.prev_utilization = util
        return util

    # ------------------------------------------------------------------ scheduling
    #: Extra tokens of headroom required beyond a sequence's current context
    #: before it is admitted, to avoid admit/preempt thrashing.
    admission_lookahead_tokens: int = 256

    def _try_admit(self) -> None:
        """Admit waiting sequences head-first while cache and concurrency allow.

        Admission is strictly FIFO: admit the head, then re-check the next
        head against the cache, until concurrency runs out or the next head
        does not fit.  The ``_admit_blocked`` flag keeps the steady state
        (cache full, nothing admissible) O(1) until a clearing event.
        """
        queued = self._queued
        if not queued or self._admit_blocked:
            return
        capacity = self.max_concurrency - self._dec.n - self._env.n
        kvcache = self.kvcache
        lookahead = self.admission_lookahead_tokens
        limit = min(len(queued), capacity)
        admitted = 0
        while admitted < limit:
            seq_id = queued.head()
            slot = self._slots[seq_id]
            context = int(self._a_ctx[slot])
            if not kvcache.can_allocate(context + lookahead):
                break
            queued.popleft()
            row = kvcache.allocate(seq_id, context + 1)
            self._a_status[slot] = _ST_DECODING
            self._dec.append(seq_id, slot, row)
            if self._a_reprefill[slot]:
                self.stats.reprefill_tokens += context
                self._a_reprefill[slot] = False
            else:
                self.stats.prompt_tokens_prefilled += int(self._a_prompt[slot])
            admitted += 1
        self._mutation += admitted
        # Either concurrency is exhausted or the next head does not fit; a
        # clearing event re-arms the scan.
        self._admit_blocked = True

    def _preempt_one(self) -> bool:
        """Preempt the most recently admitted decoding sequence (vLLM recompute).

        Returns True if a sequence was preempted.
        """
        if self._dec.n <= 1:
            return False
        seq_id, slot, _row = self._dec.pop()
        self.kvcache.free(seq_id)
        self._a_status[slot] = _ST_QUEUED
        self._a_reprefill[slot] = True
        self._queued.appendleft(seq_id)
        self.stats.preemptions += 1
        self._mutation += 1
        self._admit_blocked = False
        return True

    def _ensure_growth_capacity(self, tokens: int) -> None:
        """Preempt sequences until every decoding sequence can grow by ``tokens``."""
        # Fast path: growing by ``tokens`` adds at most ceil(tokens/block) + 1
        # blocks per sequence, so a roomy cache never needs the exact scan.
        upper_bound = self._dec.n * (self.kvcache.blocks_for(tokens) + 1)
        if upper_bound <= self.kvcache.free_blocks:
            return
        while True:
            current = self.kvcache.tokens_at(self._dec.rows_view())
            needed_blocks = int(
                (self.kvcache.blocks_for_many(current + tokens)
                 - self.kvcache.blocks_for_many(current)).sum()
            )
            if needed_blocks <= self.kvcache.free_blocks:
                return
            if not self._preempt_one():
                return

    def _release_env_returns(self) -> None:
        env = self._env
        if not env.n or self._earliest_env_return() > self.clock + _EPS:
            return
        ready = self._a_env[env.slots_view()] <= self.clock + _EPS
        if not ready.any():
            return
        positions = np.flatnonzero(ready)
        slots = env.slots[positions]
        self._a_env[slots] = math.inf
        self._a_status[slots] = _ST_DECODING
        self._dec.extend(env.ids[positions], slots, env.rows[positions])
        env.delete_positions(positions)
        self._mutation += 1

    def next_event_in(self) -> Optional[float]:
        """Time until the next internal event, or ``None`` if the replica is empty.

        Internal events are: a decoding sequence finishing its current segment,
        or an environment interaction returning.  Admission happens eagerly and
        never needs a timer.  The underlying reductions are cached against the
        mutation counter, so a driver that calls ``next_event_in`` and then
        ``advance`` for the same event pays for the scan once.
        """
        if not self._sequences:
            return None
        self._release_env_returns()
        if self._queued and not self._admit_blocked:
            self._try_admit()
        candidates: List[float] = []
        if self._dec.n:
            step = self.current_step_time()
            min_seg = self._min_segment_remaining()
            candidates.append(max(_EPS, min_seg * step - self._time_carry))
        if self._env.n:
            earliest = self._earliest_env_return()
            candidates.append(max(_EPS, earliest - self.clock))
        if not candidates:
            # Only queued sequences that cannot be admitted: the replica is
            # stuck (should not happen when reservations fit the cache).
            return None
        return min(candidates)

    def advance(self, dt: float) -> List[Trajectory]:
        """Advance the replica by ``dt`` seconds of simulated time.

        Handles any number of internal events that fall inside the window and
        returns the trajectories completed during it.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        target = self.clock + dt
        completed_now: List[Trajectory] = []
        # Enter the loop at least once for any positive window.  When the
        # step time shrinks below already-accrued ``_time_carry`` (a slowdown
        # clearing, or a batch-composition change after mass migration), the
        # next-event window floors to ``_EPS`` and the guard alone would
        # never admit it; the zero-width pass emits the carry-covered token
        # and is a no-op otherwise.
        pending = dt > 0.0
        while pending or self.clock < target - _EPS:
            pending = False
            self._release_env_returns()
            if self._queued and not self._admit_blocked:
                self._try_admit()
            if not self._dec.n:
                # Nothing to decode: jump to the next env return (or the target).
                if self._env.n:
                    earliest = self._earliest_env_return()
                    next_clock = min(target, max(earliest, self.clock))
                else:
                    next_clock = target
                blocked = next_clock - self.clock
                if self._env.n:
                    self.stats.env_blocked_time += blocked
                else:
                    self.stats.idle_time += blocked
                self.clock = next_clock
                continue

            step = self.current_step_time()
            min_seg = self._min_segment_remaining()
            time_to_segment = min_seg * step - self._time_carry
            time_to_env = math.inf
            if self._env.n:
                time_to_env = self._earliest_env_return() - self.clock
            window = min(time_to_segment, time_to_env, target - self.clock)
            window = max(window, 0.0)

            tokens_float = (window + self._time_carry) / step
            tokens = int(math.floor(tokens_float + 1e-9))
            tokens = min(tokens, min_seg)
            self._time_carry = (window + self._time_carry) - tokens * step
            if tokens > 0:
                self._apply_decode(tokens, completed_now)
            self.stats.decode_busy_time += window
            self.clock += window
            if window <= _EPS and tokens == 0:
                # Avoid an infinite loop on degenerate windows; the epsilon
                # slip is charged to the decode-busy bucket (a decode batch is
                # live here) so busy + idle + env-blocked keeps covering the
                # clock.
                new_clock = min(target, self.clock + _EPS)
                self.stats.decode_busy_time += new_clock - self.clock
                self.clock = new_clock
        self._completed.extend(completed_now)
        return completed_now

    def _apply_decode(self, tokens: int, completed_now: List[Trajectory]) -> None:
        """Advance every decoding sequence by up to ``tokens`` tokens (vectorized)."""
        self._mutation += 1  # contexts grow even when the batch set is unchanged
        self._ensure_growth_capacity(tokens)
        dec = self._dec
        slots = dec.slots_view()
        seg = self._a_seg_rem[slots]
        step_tokens = np.minimum(tokens, seg)
        new_gen = np.minimum(self._a_target[slots], self._a_gen[slots] + step_tokens)
        self._a_gen[slots] = new_gen
        self._a_ctx[slots] = self._a_prompt[slots] + new_gen
        self._a_done_turn[slots] += step_tokens
        new_seg = seg - step_tokens
        self._a_seg_rem[slots] = new_seg
        # Tag trajectories decoding under this weight version for the first
        # time (only right after add/version-bump: the vector fast path skips
        # already-tagged slots).
        stale = self._a_last_ver[slots] != self.weight_version
        if stale.any():
            version = self.weight_version
            ids = dec.ids_view()
            for position in np.flatnonzero(stale):
                trajectory = self._sequences[int(ids[position])].trajectory
                if version not in trajectory.versions_used:
                    trajectory.versions_used.append(version)
            self._a_last_ver[slots[stale]] = version
        self.kvcache.append_tokens_many(dec.ids_view(), step_tokens, rows=dec.rows_view())
        generated = int(step_tokens.sum())
        self.stats.tokens_generated += generated
        if self.trace_samples is not None:
            self.trace_samples.append((self.clock, generated))
        finished_positions = np.flatnonzero(new_seg == 0)
        if len(finished_positions):
            self._finish_segments(finished_positions.tolist(), completed_now)
            self._mutation += 1
        if self._queued and not self._admit_blocked:
            self._try_admit()

    def _finish_segments(
        self, positions: List[int], completed_now: List[Trajectory]
    ) -> None:
        """Control tail for the decoding rows whose segment just ended.

        Walks the ascending decode-set ``positions``: a row on its last turn
        frees its KV blocks and finalises its trajectory; any other row moves
        to its next turn, leaving the decode set for the env-wait set when an
        environment interaction follows.  The rows that leave the decode set
        are deleted in one :meth:`_SeqVector.delete_positions` call at the
        end, so positions stay valid throughout the walk.
        """
        dec = self._dec
        leaving: List[int] = []
        for position in positions:
            slot = dec.slots.item(position)
            turn = self._a_turn.item(slot)
            offset = self._a_sched_off.item(slot)
            seq_id = dec.ids.item(position)
            if turn + 1 == self._a_nturns.item(slot):
                self.kvcache.free(seq_id)
                self._admit_blocked = False
                seq = self._sequences[seq_id]
                self._sync_sequence(seq_id)
                del self._sequences[seq_id]
                self._release_slot(seq_id)
                seq.status = SequenceStatus.DONE
                trajectory = seq.trajectory
                trajectory.finish_time = self.clock
                trajectory.replica_id = self.replica_id
                trajectory.turns_done = turn + 1
                completed_now.append(trajectory)
                self.stats.trajectories_completed += 1
                leaving.append(position)
                continue
            self._a_turn[slot] = turn + 1
            self._a_done_turn[slot] = 0
            self._a_seg_rem[slot] = self._sched_seg.item(offset + turn + 1)
            env_latency = self._sched_env.item(offset + turn)
            if self._env_slowdown != 1.0:
                env_latency *= self._env_slowdown
            if env_latency > 0:
                self._a_env[slot] = self.clock + env_latency
                self._a_status[slot] = _ST_ENV_WAIT
                self._env.append(seq_id, slot, dec.rows.item(position))
                leaving.append(position)
        if leaving:
            dec.delete_positions(leaving)

    def enable_trace_sampling(self) -> None:
        """Arm the decode loop's trace-sample buffer (idempotent)."""
        if self.trace_samples is None:
            self.trace_samples = []

    def take_trace_samples(self, offset: float = 0.0) -> List[Tuple[float, float]]:
        """Drain the buffered decode samples as cumulative-token counter rows.

        Returns ``(offset + local clock, cumulative tokens)`` pairs — the
        batched flush the harness feeds to the tracer.  ``offset`` maps the
        replica-local clock into the environment's simulated time (zero for
        the continuous drivers, whose clocks are already absolute).
        """
        samples = self.trace_samples
        if not samples:
            return []
        self.trace_samples = []
        out: List[Tuple[float, float]] = []
        total = self._trace_total
        for clock, generated in samples:
            total += generated
            out.append((offset + clock, float(total)))
        self._trace_total = total
        return out

    def inject_stall(self, duration: float, *, busy: bool = True) -> None:
        """Advance the replica clock by ``duration`` without decoding.

        Used to charge non-decode GPU work that blocks generation, e.g. the
        KVCache re-prefill storms of partial-rollout systems or weight-load
        stalls.  ``busy=True`` books the time as decode-busy (the GPU is doing
        work, just not emitting tokens); ``busy=False`` books it as idle.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.clock += duration
        # Push any pending env returns accordingly: environment latency is
        # wall-clock, so env timers keep running during the stall (no shift).
        if busy:
            self.stats.decode_busy_time += duration
        else:
            self.stats.idle_time += duration

    def reprefill_all_inflight(self) -> float:
        """Charge a re-prefill of every in-flight sequence's cached context.

        Returns the stall duration charged.  This models the partial-rollout
        pause-and-sync cycle (§2.3): after a weight update, every interrupted
        trajectory must rebuild its KVCache before decoding can continue.
        """
        slots = np.concatenate((self._dec.slots_view(), self._env.slots_view()))
        context = self._a_prompt[slots] + np.minimum(self._a_target[slots], self._a_gen[slots])
        total_context = int(context.sum())
        if total_context == 0:
            return 0.0
        # Each interrupted trajectory re-prefills its own context; the engine
        # batches these prefills, so the cost is the sum of per-sequence
        # prefill compute (attention cost is quadratic per sequence, not over
        # the concatenation).  ``sum`` over the list adds left to right, in
        # decode-then-env order, like the scalar engine.
        stall = sum(self.decode_model.prefill_time_many(context).tolist())
        self.stats.reprefill_tokens += total_context
        sequences = self._sequences
        for seq_id in self._dec.ids_list() + self._env.ids_list():
            sequences[seq_id].trajectory.reprefill_count += 1
        self.inject_stall(stall, busy=True)
        return stall

    def set_weight_version(self, version: int) -> None:
        """Switch the replica to a new weight version (subsequent tokens use it)."""
        if version < self.weight_version:
            raise ValueError("weight version cannot go backwards")
        self.weight_version = version

    @property
    def decode_slowdown(self) -> float:
        return self._decode_slowdown

    @property
    def env_slowdown(self) -> float:
        return self._env_slowdown

    @property
    def is_straggling(self) -> bool:
        return self._decode_slowdown != 1.0 or self._env_slowdown != 1.0

    def set_slowdown(self, decode: Optional[float] = None,
                     env: Optional[float] = None) -> None:
        """Apply straggler multipliers to decode step time / env latency.

        A factor of 1.0 restores the nominal path.  The mutation bump
        invalidates the step cache so the new factor takes effect at the
        caller's next event; callers mutate only at the replica's current
        clock (``catch_up`` first), which keeps fleet and process stepping
        bit-identical.
        """
        changed = False
        if decode is not None and decode != self._decode_slowdown:
            if decode <= 0:
                raise ValueError("decode slowdown must be positive")
            # The carry is fractional progress toward the next token stored
            # in *time* units; rescale it with the step time, or clearing a
            # slowdown leaves carry > step and the next-event window
            # collapses into a zero-width livelock.
            self._time_carry *= decode / self._decode_slowdown
            self._decode_slowdown = decode
            changed = True
        if env is not None and env != self._env_slowdown:
            if env <= 0:
                raise ValueError("env slowdown must be positive")
            self._env_slowdown = env
            changed = True
        if changed:
            self._mutation += 1

    # ------------------------------------------------------------------ batch API
    def run_to_completion(self, max_time: float = math.inf) -> Tuple[float, List[Trajectory]]:
        """Drive the replica until every sequence finishes (baseline systems).

        Returns ``(elapsed_time, completed_trajectories)``.
        """
        start = self.clock
        completed: List[Trajectory] = []
        while self._sequences and self.clock - start < max_time:
            delta = self.next_event_in()
            if delta is None:
                break
            delta = min(delta, max_time - (self.clock - start))
            completed.extend(self.advance(delta))
        completed.extend(self.drain_completed())
        # drain_completed may duplicate those returned by advance; dedupe by id.
        unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
        return self.clock - start, list(unique.values())


class ReplicaBatchView:
    """Fused cross-replica stepping view over many replicas' decode state.

    Barrier drains advance replicas that are mutually independent: they
    interact only at the join.  This view stacks
    every *fuse-eligible* replica's per-sequence decode state into one
    cross-replica SoA — segment remainders, generated tokens, env timers and
    KV token counts concatenated lane-major — and sweeps all lanes together
    with per-horizon vectorized kernels: one masked ``next_event_in``
    reduction over the stacked arrays, one clipped vector subtract for decode
    across every lane due at the same horizon.  The per-sequence Python tail
    (segment finishes, env transitions) is shared across lanes per sweep.

    The contract is bit-identity with driving each
    :class:`ReplicaGenerationState` one at a time: every float expression
    mirrors :meth:`ReplicaGenerationState.advance` term for term and in the
    same association, per-lane clock/carry/stats chains accumulate in the
    same order, and FIFO orders (decode set, env set, KV row recycling, slot
    recycling, completion order) are preserved exactly.

    Lanes that fail the eligibility gates stay *resident*: their calls route
    straight to the underlying engine, one replica at a time, so the fused
    kernel degrades to exactly the per-replica call sequence whenever
    interleaving constraints bind.  A lane is fused only if

    * it is a plain :class:`ReplicaGenerationState` with live sequences,
    * its waiting queue is empty (no admissions or preemptions can fire),
    * no straggler slowdown is active and trace sampling is off, and
    * the KV pool provably fits every remaining token of every live sequence
      (so mid-drain growth can never overflow or trigger preemption).

    Between construction and :meth:`settle` the view owns its fused lanes'
    state; the underlying engines must not be touched.  ``settle`` writes
    everything back (arrays, membership vectors, KV ledger via telescoped
    free/append plus :meth:`KVCache.note_peak`, stats, completions) and is
    idempotent.
    """

    def __init__(self, replicas: Sequence[ReplicaGenerationState], fuse: bool = True) -> None:
        self.replicas = list(replicas)
        self._lane_k = np.full(len(self.replicas), -1, dtype=np.int64)
        self._settled = False
        self._round_done: Dict[int, List[Trajectory]] = {}
        candidates: List[int] = []
        if fuse:
            for pos, replica in enumerate(self.replicas):
                if (
                    type(replica) is ReplicaGenerationState
                    and replica.num_sequences > 0
                    and not replica._queued
                    and replica._decode_slowdown == 1.0
                    and replica._env_slowdown == 1.0
                    and replica.trace_samples is None
                ):
                    candidates.append(pos)
        self._stack(candidates)

    # ------------------------------------------------------------------ stacking
    def _stack(self, positions: List[int]) -> None:
        K = len(positions)
        self._K = K
        self._k_replica: List[ReplicaGenerationState] = [self.replicas[p] for p in positions]
        self._lane_ok = np.zeros(K, dtype=bool)
        if not K:
            return
        reps = self._k_replica
        nd = np.array([r._dec.n for r in reps], dtype=np.int64)
        ne = np.array([r._env.n for r in reps], dtype=np.int64)
        counts = nd + ne
        S = int(counts.sum())
        srep = np.repeat(np.arange(K, dtype=np.int64), counts)
        # Stacked per-sequence state: the lanes' int64 slot blocks side by
        # side, one fancy index for all eleven fields, plus one gather for the
        # env timers (the concatenates walk lanes at C level; nothing here is
        # per-replica Python).
        slot_base = np.zeros(K, dtype=np.int64)
        np.cumsum([r._a_i64.shape[1] for r in reps[:-1]], out=slot_base[1:])
        lslot = np.concatenate(
            [v for r in reps for v in (r._dec.slots_view(), r._env.slots_view())]
        )
        gslot = lslot + slot_base[srep]
        fields = dict(zip(
            _I64_FIELDS, np.concatenate([r._a_i64 for r in reps], axis=1)[:, gslot]
        ))
        self._rep = srep
        self._slot = lslot.copy()
        self._sid = np.concatenate(
            [v for r in reps for v in (r._dec.ids_view(), r._env.ids_view())]
        )
        self._row = np.concatenate(
            [v for r in reps for v in (r._dec.rows_view(), r._env.rows_view())]
        )
        self._seg = fields["_a_seg_rem"]
        self._gen = fields["_a_gen"]
        self._tgt = fields["_a_target"]
        self._prm = fields["_a_prompt"]
        self._dnt = fields["_a_done_turn"]
        self._trn = fields["_a_turn"]
        self._ntr = fields["_a_nturns"]
        self._soff = fields["_a_sched_off"]
        self._lvr = fields["_a_last_ver"]
        self._envt = np.concatenate([r._a_env for r in reps])[gslot]
        row_base = np.zeros(K, dtype=np.int64)
        np.cumsum([len(r.kvcache._tokens) for r in reps[:-1]], out=row_base[1:])
        self._kvt = np.concatenate([r.kvcache._tokens for r in reps])[
            self._row + row_base[srep]
        ]
        self._kvt0 = self._kvt.copy()
        # Membership: [decode set, env set] per lane, lane-major, preserving
        # each engine's FIFO order.
        base = np.zeros(K, dtype=np.int64)
        np.cumsum(counts[:-1], out=base[1:])
        is_dec = (np.arange(S, dtype=np.int64) - base[srep]) < nd[srep]
        self._dec_i = np.flatnonzero(is_dec)
        self._env_i = np.flatnonzero(~is_dec)
        # Per-lane scalars (float chains continue from the engines' values
        # and are assigned back verbatim at settle).
        self._clock = np.array([r.clock for r in reps], dtype=np.float64)
        self._carry = np.array([r._time_carry for r in reps], dtype=np.float64)
        self._busy = np.array([r.stats.decode_busy_time for r in reps], dtype=np.float64)
        self._idle = np.array([r.stats.idle_time for r in reps], dtype=np.float64)
        self._envb = np.array([r.stats.env_blocked_time for r in reps], dtype=np.float64)
        self._tokgen = np.array([r.stats.tokens_generated for r in reps], dtype=np.int64)
        self._ncomp = np.array(
            [r.stats.trajectories_completed for r in reps], dtype=np.int64
        )
        self._wv = np.array([r.weight_version for r in reps], dtype=np.int64)
        self._live = counts.copy()
        self._target = self._clock.copy()
        self._kv_used = np.array([r.kvcache.used_blocks for r in reps], dtype=np.int64)
        self._kv_peak = np.array([r.kvcache.peak_blocks for r in reps], dtype=np.int64)
        self._c_bs = np.array(
            [r.kvcache.config.block_size for r in reps], dtype=np.int64
        )
        self._bs_l = self._c_bs.tolist()
        total_blocks = np.array(
            [r.kvcache.config.total_blocks for r in reps], dtype=np.int64
        )
        # Roofline constants per lane (lanes may mix models / TP degrees).
        consts: Dict[int, Tuple[float, ...]] = {}
        rows = []
        for r in reps:
            dm = r.decode_model
            tup = consts.get(id(dm))
            if tup is None:
                m = dm.model
                tup = (
                    m.weight_bytes,
                    m.kv_bytes_per_token,
                    dm.effective_bandwidth,
                    dm.effective_flops,
                    2.0 * m.num_parameters,
                    4.0 * m.num_layers * m.hidden_size,
                    dm.step_overhead,
                )
                consts[id(dm)] = tup
            rows.append(tup)
        (self._c_wb, self._c_kvb, self._c_bw, self._c_fl,
         self._c_dense, self._c_attn, self._c_ovh) = (
            np.array(col, dtype=np.float64) for col in zip(*rows)
        )
        # Per-lane settle bookkeeping.
        self._admit_cleared = np.zeros(K, dtype=bool)
        self._freed_ids: List[List[int]] = [[] for _ in range(K)]
        self._freed_slots: List[List[int]] = [[] for _ in range(K)]
        self._done_traj: List[List[Trajectory]] = [[] for _ in range(K)]
        self._sched_seg_ref = [r._sched_seg for r in reps]
        self._sched_env_ref = [r._sched_env for r in reps]
        # KV-fit gate: a lane is fused only if the pool holds every live
        # sequence at its *final* size.  Usage during the drain is bounded by
        # sum(blocks(kv_now + remaining)) because each sequence's growth per
        # window is min(tokens, its own segment) <= its remaining tokens; the
        # exact growth scan then never preempts and appends never overflow.
        sched_base = np.zeros(K, dtype=np.int64)
        np.cumsum([r._sched_len for r in reps[:-1]], out=sched_base[1:])
        seg_pool = np.concatenate([r._sched_seg[: r._sched_len] for r in reps])
        csum = np.concatenate(([0], np.cumsum(seg_pool)))
        goff = self._soff + sched_base[srep]
        future = csum[goff + self._ntr] - csum[goff + self._trn + 1]
        final_blocks = -(-(self._kvt + self._seg + future) // self._c_bs[srep])
        need = np.bincount(srep, weights=final_blocks.astype(np.float64), minlength=K)
        fit = need <= total_blocks
        self._lane_ok = fit
        if not fit.all():
            keep = fit[srep]
            self._dec_i = self._dec_i[keep[self._dec_i]]
            self._env_i = self._env_i[keep[self._env_i]]
        for k, pos in enumerate(positions):
            if fit[k]:
                self._lane_k[pos] = k

    # ------------------------------------------------------------------ queries
    @property
    def num_fused(self) -> int:
        return int((self._lane_k >= 0).sum())

    def lane_is_fused(self, pos: int) -> bool:
        return bool(self._lane_k[pos] >= 0)

    def lane_live(self, pos: int) -> int:
        """Live sequences on the lane (stacked counter or engine state)."""
        k = int(self._lane_k[pos])
        if k < 0:
            return self.replicas[pos].num_sequences
        return int(self._live[k])

    def lane_clock(self, pos: int) -> float:
        k = int(self._lane_k[pos])
        if k < 0:
            return self.replicas[pos].clock
        return float(self._clock[k])

    # ------------------------------------------------------------------ kernels
    def _release_env(self, sel: np.ndarray) -> None:
        """Mirror of ``_release_env_returns`` across the selected lanes."""
        ei = self._env_i
        if not len(ei):
            return
        erep = self._rep[ei]
        due = sel[erep] & (self._envt[ei] <= self._clock[erep] + _EPS)
        if not due.any():
            return
        released = ei[due]
        self._envt[released] = math.inf
        merged = np.concatenate((self._dec_i, released))
        self._dec_i = merged[np.argsort(self._rep[merged], kind="stable")]
        self._env_i = ei[~due]

    def _dec_reductions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        K = self._K
        di = self._dec_i
        dcounts = np.bincount(self._rep[di], minlength=K)
        minseg = np.zeros(K, dtype=np.int64)
        ctxsum = np.zeros(K, dtype=np.int64)
        nz = np.flatnonzero(dcounts)
        if len(nz):
            starts = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
            minseg[nz] = np.minimum.reduceat(self._seg[di], starts[nz])
            ctxsum[nz] = np.add.reduceat(self._prm[di] + self._gen[di], starts[nz])
        return dcounts, minseg, ctxsum

    def _env_reductions(self) -> Tuple[np.ndarray, np.ndarray]:
        K = self._K
        ei = self._env_i
        ecounts = np.bincount(self._rep[ei], minlength=K)
        emin = np.full(K, math.inf, dtype=np.float64)
        nz = np.flatnonzero(ecounts)
        if len(nz):
            starts = np.concatenate(([0], np.cumsum(ecounts)[:-1]))
            emin[nz] = np.minimum.reduceat(self._envt[ei], starts[nz])
        return ecounts, emin

    def _step_times(self, dcounts: np.ndarray, ctxsum: np.ndarray,
                    lanes: np.ndarray) -> np.ndarray:
        """Per-lane decode-step latency for ``lanes`` (all with dcounts > 0)."""
        mean_ctx = (ctxsum[lanes] / dcounts[lanes]).astype(np.int64)
        return decode_step_time_arrays(
            dcounts[lanes],
            np.maximum(1, mean_ctx),
            weight_bytes=self._c_wb[lanes],
            kv_bytes_per_token=self._c_kvb[lanes],
            effective_bandwidth=self._c_bw[lanes],
            effective_flops=self._c_fl[lanes],
            dense_flops=self._c_dense[lanes],
            attn_coef=self._c_attn[lanes],
            step_overhead=self._c_ovh[lanes],
        )

    # ------------------------------------------------------------------ API
    def next_event_in_many(self, positions: Sequence[int]) -> List[Optional[float]]:
        """Per-lane :meth:`ReplicaGenerationState.next_event_in`, one reduction."""
        out: List[Optional[float]] = [None] * len(positions)
        if not positions:
            return out
        ks = self._lane_k[np.asarray(positions, dtype=np.int64)]
        ks_l = ks.tolist()
        fused = [i for i, k in enumerate(ks_l) if k >= 0]
        for i, k in enumerate(ks_l):
            if k < 0:
                out[i] = self.replicas[positions[i]].next_event_in()
        if not fused:
            return out
        sel = np.zeros(self._K, dtype=bool)
        sel[ks[ks >= 0]] = True
        self._release_env(sel)
        dcounts, minseg, ctxsum = self._dec_reductions()
        ecounts, emin = self._env_reductions()
        delta = np.full(self._K, math.inf, dtype=np.float64)
        dl = np.flatnonzero(sel & (dcounts > 0))
        if len(dl):
            step = self._step_times(dcounts, ctxsum, dl)
            delta[dl] = np.maximum(_EPS, minseg[dl] * step - self._carry[dl])
        el = sel & (ecounts > 0)
        if el.any():
            env_delta = np.maximum(_EPS, emin[el] - self._clock[el])
            delta[el] = np.minimum(delta[el], env_delta)
        for i in fused:
            out[i] = float(delta[ks_l[i]])
        return out

    def advance_many(self, positions: Sequence[int],
                     dts: Sequence[float]) -> List[List[Trajectory]]:
        """Grouped :meth:`ReplicaGenerationState.advance` across lanes.

        Fused lanes enter the sweep loop together and each exits when its own
        clock reaches its own target; fallback lanes are advanced through the
        engine directly.  Returns the trajectories completed per position.
        """
        out: List[List[Trajectory]] = [[] for _ in positions]
        if not positions:
            return out
        ks = self._lane_k[np.asarray(positions, dtype=np.int64)]
        ks_l = ks.tolist()
        fused = [i for i, k in enumerate(ks_l) if k >= 0]
        for i, k in enumerate(ks_l):
            if k < 0:
                out[i] = self.replicas[positions[i]].advance(dts[i])
        if not fused:
            return out
        karr = ks[ks >= 0]
        dtv = np.array([dts[i] for i in fused], dtype=np.float64)
        if (dtv < 0).any():
            raise ValueError("dt must be non-negative")
        self._target[karr] = self._clock[karr] + dtv
        self._round_done = {int(k): [] for k in karr.tolist()}
        entered = np.zeros(self._K, dtype=bool)
        entered[karr] = True
        # Mirror the engine's loop guard: one zero-width pass is forced for
        # any positive window even when it is below the epsilon guard.
        forced = np.zeros(self._K, dtype=bool)
        forced[karr[dtv > 0.0]] = True
        active = entered & (forced | (self._clock < self._target - _EPS))
        while active.any():
            self._sweep(active)
            active = entered & (self._clock < self._target - _EPS)
        for i in fused:
            done = self._round_done[ks_l[i]]
            out[i] = done
            self._done_traj[ks_l[i]].extend(done)
        self._round_done = {}
        return out

    def _sweep(self, sel: np.ndarray) -> None:
        """One advance-loop iteration for every selected lane."""
        self._release_env(sel)
        dcounts, minseg, ctxsum = self._dec_reductions()
        ecounts, emin = self._env_reductions()
        nodec = sel & (dcounts == 0)
        if nodec.any():
            # Nothing to decode: jump to the next env return (or the target).
            has_env = nodec & (ecounts > 0)
            if has_env.any():
                next_clock = np.minimum(
                    self._target[has_env],
                    np.maximum(emin[has_env], self._clock[has_env]),
                )
                self._envb[has_env] += next_clock - self._clock[has_env]
                self._clock[has_env] = next_clock
            no_env = nodec & (ecounts == 0)
            if no_env.any():
                self._idle[no_env] += self._target[no_env] - self._clock[no_env]
                self._clock[no_env] = self._target[no_env]
        dl = np.flatnonzero(sel & (dcounts > 0))
        if not len(dl):
            return
        step = self._step_times(dcounts, ctxsum, dl)
        carry = self._carry[dl]
        time_to_segment = minseg[dl] * step - carry
        time_to_env = np.where(
            ecounts[dl] > 0, emin[dl] - self._clock[dl], math.inf
        )
        window = np.minimum(
            np.minimum(time_to_segment, time_to_env),
            self._target[dl] - self._clock[dl],
        )
        window = np.maximum(window, 0.0)
        tokens = np.floor((window + carry) / step + 1e-9).astype(np.int64)
        tokens = np.minimum(tokens, minseg[dl])
        self._carry[dl] = (window + carry) - tokens * step
        decoding = tokens > 0
        if decoding.any():
            tokens_k = np.zeros(self._K, dtype=np.int64)
            tokens_k[dl] = tokens
            self._apply_decode_fused(dl[decoding], tokens_k)
        self._busy[dl] += window
        self._clock[dl] += window
        degenerate = (window <= _EPS) & (tokens == 0)
        if degenerate.any():
            dg = dl[degenerate]
            new_clock = np.minimum(self._target[dg], self._clock[dg] + _EPS)
            self._busy[dg] += new_clock - self._clock[dg]
            self._clock[dg] = new_clock

    def _apply_decode_fused(self, lanes: np.ndarray, tokens_k: np.ndarray) -> None:
        """Mirror of ``_apply_decode`` across lanes (one clipped subtract)."""
        lane_mask = np.zeros(self._K, dtype=bool)
        lane_mask[lanes] = True
        di = self._dec_i
        dsel = lane_mask[self._rep[di]]
        idx = di[dsel]
        rep_e = self._rep[idx]
        seg = self._seg[idx]
        step_tokens = np.minimum(tokens_k[rep_e], seg)
        new_gen = np.minimum(self._tgt[idx], self._gen[idx] + step_tokens)
        self._gen[idx] = new_gen
        self._dnt[idx] += step_tokens
        new_seg = seg - step_tokens
        self._seg[idx] = new_seg
        wv_e = self._wv[rep_e]
        stale = self._lvr[idx] != wv_e
        if stale.any():
            sidx = idx[stale]
            for k, sid in zip(rep_e[stale].tolist(), self._sid[sidx].tolist()):
                version = int(self._wv[k])
                trajectory = self._k_replica[k]._sequences[sid].trajectory
                if version not in trajectory.versions_used:
                    trajectory.versions_used.append(version)
            self._lvr[sidx] = wv_e[stale]
        block_size = self._c_bs[rep_e]
        old_blocks = -(-self._kvt[idx] // block_size)
        new_kvt = self._kvt[idx] + step_tokens
        self._kvt[idx] = new_kvt
        growth = (-(-new_kvt // block_size)) - old_blocks
        self._kv_used += np.bincount(
            rep_e, weights=growth.astype(np.float64), minlength=self._K
        ).astype(np.int64)
        np.maximum(self._kv_peak, self._kv_used, out=self._kv_peak)
        self._tokgen += np.bincount(
            rep_e, weights=step_tokens.astype(np.float64), minlength=self._K
        ).astype(np.int64)
        finished = new_seg == 0
        if finished.any():
            dec_pos = np.flatnonzero(dsel)
            self._finish_fused(idx[finished], dec_pos[finished], new_gen[finished])

    def _finish_fused(self, fidx: np.ndarray, fpos: np.ndarray,
                      fgen: np.ndarray) -> None:
        """Shared control tail for sequences whose segment just ended.

        Completion side effects (KV free order, completed order, env-set
        appends) land in ascending stacked position, matching the engine's
        :meth:`ReplicaGenerationState._finish_segments` row loop lane for
        lane.
        """
        idx_l = fidx.tolist()
        rep_l = self._rep[fidx].tolist()
        trn_l = self._trn[fidx].tolist()
        ntr_l = self._ntr[fidx].tolist()
        soff_l = self._soff[fidx].tolist()
        sid_l = self._sid[fidx].tolist()
        slot_l = self._slot[fidx].tolist()
        kvt_l = self._kvt[fidx].tolist()
        dnt_l = self._dnt[fidx].tolist()
        tgt_l = self._tgt[fidx].tolist()
        gen_l = fgen.tolist()
        pos_l = fpos.tolist()
        remove_pos: List[int] = []
        env_add: List[int] = []
        for i in range(len(idx_l)):
            k = rep_l[i]
            turn = trn_l[i]
            if turn + 1 == ntr_l[i]:
                replica = self._k_replica[k]
                self._kv_used[k] -= -(-kvt_l[i] // self._bs_l[k])
                self._freed_ids[k].append(sid_l[i])
                self._freed_slots[k].append(slot_l[i])
                self._admit_cleared[k] = True
                seq = replica._sequences[sid_l[i]]
                seq.tokens_done_in_turn = dnt_l[i]
                seq.turn_index = turn
                seq.env_return_time = math.inf
                seq.needs_reprefill = False
                seq.status = SequenceStatus.DONE
                trajectory = seq.trajectory
                trajectory.generated_tokens = min(tgt_l[i], gen_l[i])
                trajectory.turns_done = ntr_l[i]
                trajectory.finish_time = float(self._clock[k])
                trajectory.replica_id = replica.replica_id
                self._round_done[k].append(trajectory)
                self._ncomp[k] += 1
                self._live[k] -= 1
                remove_pos.append(pos_l[i])
            else:
                offset = soff_l[i]
                self._trn[idx_l[i]] = turn + 1
                self._dnt[idx_l[i]] = 0
                self._seg[idx_l[i]] = self._sched_seg_ref[k].item(offset + turn + 1)
                env_latency = self._sched_env_ref[k].item(offset + turn)
                if env_latency > 0:
                    self._envt[idx_l[i]] = self._clock[k] + env_latency
                    remove_pos.append(pos_l[i])
                    env_add.append(idx_l[i])
        if remove_pos:
            keep = np.ones(len(self._dec_i), dtype=bool)
            keep[remove_pos] = False
            self._dec_i = self._dec_i[keep]
        if env_add:
            merged = np.concatenate(
                (self._env_i, np.array(env_add, dtype=np.int64))
            )
            self._env_i = merged[np.argsort(self._rep[merged], kind="stable")]

    # ------------------------------------------------------------------ settle
    def settle(self) -> None:
        """Write the stacked state back into every fused engine.

        KV settlement telescopes: finished sequences are freed first (their
        appends were never applied to the ledger, so the free lands at the
        admission-time size), live growth is applied in one batched append,
        and the chronological block high-water mark tracked during the sweep
        is re-applied via :meth:`KVCache.note_peak`.
        """
        if self._settled or not self._K:
            self._settled = True
            return
        self._settled = True
        K = self._K
        di, ei = self._dec_i, self._env_i
        dcounts = np.bincount(self._rep[di], minlength=K)
        ecounts = np.bincount(self._rep[ei], minlength=K)
        dstarts = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
        estarts = np.concatenate(([0], np.cumsum(ecounts)[:-1]))
        for k in np.flatnonzero(self._lane_ok).tolist():
            replica = self._k_replica[k]
            replica.clock = float(self._clock[k])
            replica._time_carry = float(self._carry[k])
            stats = replica.stats
            stats.decode_busy_time = float(self._busy[k])
            stats.idle_time = float(self._idle[k])
            stats.env_blocked_time = float(self._envb[k])
            stats.tokens_generated = int(self._tokgen[k])
            stats.trajectories_completed = int(self._ncomp[k])
            if self._admit_cleared[k]:
                replica._admit_blocked = False
            freed = self._freed_ids[k]
            if freed:
                replica.kvcache.free_many(freed)
                for sid, slot in zip(freed, self._freed_slots[k]):
                    del replica._sequences[sid]
                    del replica._slots[sid]
                    replica._free_slots.append(slot)
            nd, ne = int(dcounts[k]), int(ecounts[k])
            dk = di[dstarts[k]:dstarts[k] + nd]
            ek = ei[estarts[k]:estarts[k] + ne]
            if nd or ne:
                live = np.concatenate((dk, ek))
                slots = self._slot[live]
                gen = self._gen[live]
                replica._a_seg_rem[slots] = self._seg[live]
                replica._a_gen[slots] = gen
                replica._a_ctx[slots] = self._prm[live] + gen
                replica._a_done_turn[slots] = self._dnt[live]
                replica._a_turn[slots] = self._trn[live]
                replica._a_env[slots] = self._envt[live]
                replica._a_last_ver[slots] = self._lvr[live]
                replica._a_status[slots[:nd]] = _ST_DECODING
                replica._a_status[slots[nd:]] = _ST_ENV_WAIT
                replica._dec.n = 0
                replica._dec.extend(self._sid[dk], slots[:nd], self._row[dk])
                replica._env.n = 0
                replica._env.extend(self._sid[ek], slots[nd:], self._row[ek])
                replica.kvcache.append_tokens_many(
                    self._sid[live], self._kvt[live] - self._kvt0[live],
                    rows=self._row[live],
                )
            else:
                replica._dec.n = 0
                replica._env.n = 0
            replica.kvcache.note_peak(int(self._kv_peak[k]))
            replica._completed.extend(self._done_traj[k])
            replica._mutation += 1


def build_sequence_states(
    trajectories: Sequence[Trajectory],
    schedules: Sequence[TurnSchedule],
) -> List[SequenceState]:
    """Pair trajectories with their pre-sampled turn schedules."""
    if len(trajectories) != len(schedules):
        raise ValueError("trajectories and schedules must align")
    return [SequenceState(trajectory=t, schedule=s) for t, s in zip(trajectories, schedules)]
