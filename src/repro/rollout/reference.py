"""Scalar reference implementation of the replica generation engine.

This is the pre-vectorization :class:`ReplicaGenerationState` inner loop,
retained verbatim (one sequence at a time, plain Python) as the behavioural
oracle for the structure-of-arrays engine in
:mod:`repro.rollout.generation`.  The equivalence test harness
(``tests/test_engine_equivalence.py``) drives both engines through identical
event sequences — decode windows, multi-turn env waits, repack pulls, stalls,
preemption storms — and asserts bit-identical clocks, trajectories, stats and
KVCache occupancy.  Any behavioural change to the vector engine must land
here too, or the equivalence suite fails.

It shares :class:`SequenceState`, :class:`TurnSchedule` and
:class:`ReplicaStats` with the production engine so states can be fabricated
once and fed to both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..llm.decode_model import DecodeModel
from ..sim.kvcache import KVCache, KVCacheConfig
from ..types import Trajectory
from .generation import (
    _EPS,
    ReplicaStats,
    SequenceState,
    SequenceStatus,
    TurnSchedule,
)

__all__ = ["ScalarReplicaBatchView", "ScalarReplicaGenerationState"]


class ScalarReplicaGenerationState:
    """Per-sequence (scalar) decode engine — the vector engine's oracle."""

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
        self._queued: List[int] = []
        self._decoding: List[int] = []
        self._env_wait: List[int] = []
        self._completed: List[Trajectory] = []
        self._time_carry = 0.0
        # Straggler multipliers (repro.faults); 1.0 keeps the nominal path.
        self._decode_slowdown = 1.0
        self._env_slowdown = 1.0
        self._mutation = 0
        self._step_cache: Tuple[int, float] = (-1, 0.0)
        self.prev_utilization = 0.0

    # ------------------------------------------------------------------ intake
    def add_sequences(self, sequences: Sequence[SequenceState]) -> None:
        for seq in sequences:
            if seq.seq_id in self._sequences:
                raise ValueError(f"sequence {seq.seq_id} already on replica {self.replica_id}")
            seq.status = SequenceStatus.QUEUED
            self._sequences[seq.seq_id] = seq
            self._queued.append(seq.seq_id)
        self._try_admit()

    def remove_sequences(self, seq_ids: Sequence[int]) -> List[SequenceState]:
        removed: List[SequenceState] = []
        for seq_id in seq_ids:
            seq = self._sequences.pop(seq_id, None)
            if seq is None:
                continue
            for bucket in (self._queued, self._decoding, self._env_wait):
                if seq_id in bucket:
                    bucket.remove(seq_id)
            if seq.status in (SequenceStatus.DECODING, SequenceStatus.ENV_WAIT):
                self.kvcache.free(seq_id)
            removed.append(seq)
        if removed:
            self._mutation += 1
        self._try_admit()
        return removed

    def remove_all(self) -> List[SequenceState]:
        return self.remove_sequences(list(self._sequences.keys()))

    # ------------------------------------------------------------------ queries
    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    @property
    def num_decoding(self) -> int:
        return len(self._decoding)

    @property
    def num_queued(self) -> int:
        return len(self._queued)

    @property
    def num_env_waiting(self) -> int:
        return len(self._env_wait)

    @property
    def kvcache_utilization(self) -> float:
        return self.kvcache.utilization

    @property
    def is_idle(self) -> bool:
        return not self._sequences

    def drain_completed(self) -> List[Trajectory]:
        completed, self._completed = self._completed, []
        return completed

    def sequences(self) -> List[SequenceState]:
        return list(self._sequences.values())

    def mean_context_tokens(self) -> float:
        if not self._decoding:
            return 0.0
        total = sum(self._sequences[sid].context_tokens for sid in self._decoding)
        return total / len(self._decoding)

    def current_step_time(self) -> float:
        if not self._decoding:
            return 0.0
        version, value = self._step_cache
        if version == self._mutation:
            return value
        value = self.decode_model.decode_step_time(
            len(self._decoding), int(self.mean_context_tokens())
        )
        if self._decode_slowdown != 1.0:
            value *= self._decode_slowdown
        self._step_cache = (self._mutation, value)
        return value

    def observe_utilization(self) -> float:
        util = self.kvcache_utilization
        self.prev_utilization = util
        return util

    # ------------------------------------------------------------------ scheduling
    admission_lookahead_tokens: int = 256

    def _try_admit(self) -> None:
        admitted_any = True
        while admitted_any and self._queued:
            admitted_any = False
            if len(self._decoding) + len(self._env_wait) >= self.max_concurrency:
                return
            seq_id = self._queued[0]
            seq = self._sequences[seq_id]
            needed = seq.context_tokens + self.admission_lookahead_tokens
            if not self.kvcache.can_allocate(needed):
                return
            self._queued.pop(0)
            self.kvcache.allocate(seq_id, seq.context_tokens + 1)
            seq.status = SequenceStatus.DECODING
            self._decoding.append(seq_id)
            if seq.needs_reprefill:
                self.stats.reprefill_tokens += seq.context_tokens
                seq.needs_reprefill = False
            else:
                self.stats.prompt_tokens_prefilled += seq.trajectory.prompt.prompt_tokens
            admitted_any = True
            self._mutation += 1

    def _preempt_one(self) -> bool:
        if len(self._decoding) <= 1:
            return False
        seq_id = self._decoding.pop()
        seq = self._sequences[seq_id]
        self.kvcache.free(seq_id)
        seq.status = SequenceStatus.QUEUED
        seq.needs_reprefill = True
        self._queued.insert(0, seq_id)
        self.stats.preemptions += 1
        self._mutation += 1
        return True

    def _ensure_growth_capacity(self, tokens: int) -> None:
        upper_bound = len(self._decoding) * (self.kvcache.blocks_for(tokens) + 1)
        if upper_bound <= self.kvcache.free_blocks:
            return
        while True:
            needed_blocks = 0
            for seq_id in self._decoding:
                current = self.kvcache.sequence_tokens(seq_id)
                needed_blocks += (
                    self.kvcache.blocks_for(current + tokens) - self.kvcache.blocks_for(current)
                )
            if needed_blocks <= self.kvcache.free_blocks:
                return
            if not self._preempt_one():
                return

    def _release_env_returns(self) -> None:
        returned = [sid for sid in self._env_wait
                    if self._sequences[sid].env_return_time <= self.clock + _EPS]
        for seq_id in returned:
            self._env_wait.remove(seq_id)
            seq = self._sequences[seq_id]
            seq.status = SequenceStatus.DECODING
            seq.env_return_time = math.inf
            self._decoding.append(seq_id)
        if returned:
            self._mutation += 1

    def next_event_in(self) -> Optional[float]:
        if not self._sequences:
            return None
        self._release_env_returns()
        self._try_admit()
        candidates: List[float] = []
        if self._decoding:
            step = self.current_step_time()
            min_seg = min(self._sequences[sid].segment_remaining for sid in self._decoding)
            candidates.append(max(_EPS, min_seg * step - self._time_carry))
        if self._env_wait:
            earliest = min(self._sequences[sid].env_return_time for sid in self._env_wait)
            candidates.append(max(_EPS, earliest - self.clock))
        if not candidates:
            return None
        return min(candidates)

    def advance(self, dt: float) -> List[Trajectory]:
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
            self._try_admit()
            if not self._decoding:
                if self._env_wait:
                    earliest = min(self._sequences[sid].env_return_time for sid in self._env_wait)
                    next_clock = min(target, max(earliest, self.clock))
                else:
                    next_clock = target
                blocked = next_clock - self.clock
                if self._env_wait:
                    self.stats.env_blocked_time += blocked
                else:
                    self.stats.idle_time += blocked
                self.clock = next_clock
                continue

            step = self.current_step_time()
            min_seg = min(self._sequences[sid].segment_remaining for sid in self._decoding)
            time_to_segment = min_seg * step - self._time_carry
            time_to_env = math.inf
            if self._env_wait:
                time_to_env = min(self._sequences[sid].env_return_time for sid in self._env_wait) - self.clock
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
                # Degenerate-window escape; charge the epsilon slip to the
                # decode-busy bucket (mirrors the vector engine's accounting).
                new_clock = min(target, self.clock + _EPS)
                self.stats.decode_busy_time += new_clock - self.clock
                self.clock = new_clock
        self._completed.extend(completed_now)
        return completed_now

    def _apply_decode(self, tokens: int, completed_now: List[Trajectory]) -> None:
        self._mutation += 1
        self._ensure_growth_capacity(tokens)
        finished_segment: List[int] = []
        for seq_id in list(self._decoding):
            seq = self._sequences[seq_id]
            step_tokens = min(tokens, seq.segment_remaining)
            seq.tokens_done_in_turn += step_tokens
            seq.trajectory.advance(step_tokens, self.weight_version)
            self.kvcache.append_tokens(seq_id, step_tokens)
            self.stats.tokens_generated += step_tokens
            if seq.segment_remaining == 0:
                finished_segment.append(seq_id)
        for seq_id in finished_segment:
            seq = self._sequences[seq_id]
            env_latency = seq.schedule.env_latencies[seq.turn_index]
            if self._env_slowdown != 1.0:
                env_latency = env_latency * self._env_slowdown
            last_turn = seq.turn_index == seq.schedule.num_turns - 1
            if last_turn:
                self._decoding.remove(seq_id)
                self.kvcache.free(seq_id)
                del self._sequences[seq_id]
                seq.status = SequenceStatus.DONE
                seq.trajectory.finish_time = self.clock
                seq.trajectory.replica_id = self.replica_id
                seq.trajectory.turns_done = seq.schedule.num_turns
                completed_now.append(seq.trajectory)
                self.stats.trajectories_completed += 1
            else:
                seq.turn_index += 1
                seq.tokens_done_in_turn = 0
                seq.trajectory.turns_done = seq.turn_index
                if env_latency > 0:
                    self._decoding.remove(seq_id)
                    seq.status = SequenceStatus.ENV_WAIT
                    seq.env_return_time = self.clock + env_latency
                    self._env_wait.append(seq_id)
        self._try_admit()

    def inject_stall(self, duration: float, *, busy: bool = True) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.clock += duration
        if busy:
            self.stats.decode_busy_time += duration
        else:
            self.stats.idle_time += duration

    def reprefill_all_inflight(self) -> float:
        inflight = [self._sequences[sid] for sid in self._decoding + self._env_wait]
        total_context = sum(seq.context_tokens for seq in inflight)
        if total_context == 0:
            return 0.0
        stall = sum(
            self.decode_model.prefill_time(seq.context_tokens, batch_size=1)
            for seq in inflight
        )
        self.stats.reprefill_tokens += total_context
        for seq in inflight:
            seq.trajectory.reprefill_count += 1
        self.inject_stall(stall, busy=True)
        return stall

    def set_weight_version(self, version: int) -> None:
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
        changed = False
        if decode is not None and decode != self._decode_slowdown:
            if decode <= 0:
                raise ValueError("decode slowdown must be positive")
            # Mirror of the vector engine: the time-unit carry rescales with
            # the step time so fractional token progress is preserved.
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
        start = self.clock
        completed: List[Trajectory] = []
        while self._sequences and self.clock - start < max_time:
            delta = self.next_event_in()
            if delta is None:
                break
            delta = min(delta, max_time - (self.clock - start))
            completed.extend(self.advance(delta))
        completed.extend(self.drain_completed())
        unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
        return self.clock - start, list(unique.values())


class ScalarReplicaBatchView:
    """Scalar oracle for :class:`repro.rollout.generation.ReplicaBatchView`.

    Fused stepping is defined as a pure performance transform: draining a
    set of mutually independent replicas together must be observationally
    identical to draining them one at a time in lane order.  This mirror
    *is* that definition — every batch call routes to the underlying engine,
    replica by replica — so the equivalence fuzzer can drive the fused SoA
    view and this one through identical call sequences and assert bit-equal
    outcomes on both engine families.
    """

    def __init__(self, replicas: Sequence[ScalarReplicaGenerationState],
                 fuse: bool = True) -> None:
        del fuse  # the oracle has no fused path to toggle
        self.replicas = list(replicas)

    @property
    def num_fused(self) -> int:
        return 0

    def lane_is_fused(self, pos: int) -> bool:
        return False

    def lane_live(self, pos: int) -> int:
        return self.replicas[pos].num_sequences

    def lane_clock(self, pos: int) -> float:
        return self.replicas[pos].clock

    def next_event_in_many(self, positions: Sequence[int]) -> List[Optional[float]]:
        return [self.replicas[pos].next_event_in() for pos in positions]

    def advance_many(self, positions: Sequence[int],
                     dts: Sequence[float]) -> List[List[Trajectory]]:
        return [
            self.replicas[pos].advance(dt) for pos, dt in zip(positions, dts)
        ]

    def settle(self) -> None:
        """No-op: the oracle never detaches state from its engines."""
