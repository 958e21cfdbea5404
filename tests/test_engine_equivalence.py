"""Bit-identity harness: vectorized engine vs the retained scalar reference.

Two engines — :class:`repro.rollout.ReplicaGenerationState` (structure-of-
arrays) and :class:`repro.rollout.ScalarReplicaGenerationState` (the
pre-vectorization per-sequence loop) — are driven through identical event
sequences: seeded random multi-turn workloads with interleaved repack-style
pulls and re-adds, stalls, weight-version bumps, partial-rollout re-prefills
and tiny cache pools that force queueing and preemption storms.  Every
committed ``BENCH_*.json`` baseline rests on this equivalence: the vector
engine must be *bit-identical*, not approximately equal.
"""

import math

import numpy as np
import pytest

from repro.llm import QWEN_7B
from repro.rollout import (
    ReplicaGenerationState,
    RolloutReplicaConfig,
    ScalarReplicaGenerationState,
    SequenceState,
    TurnSchedule,
)
from repro.sim import KVCacheConfig
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()


def make_engines(blocks=512, max_concurrency=64):
    kwargs = dict(
        replica_id=0,
        decode_model=DECODE_MODEL,
        kvcache_config=KVCacheConfig(total_blocks=blocks),
        max_concurrency=max_concurrency,
    )
    return ScalarReplicaGenerationState(**kwargs), ReplicaGenerationState(**kwargs)


def make_states(seed: int, count: int, start_id: int, multi_turn=True,
                tied_segment=None):
    """Deterministic workload fabrication; call twice for mirrored copies.

    With ``tied_segment`` every sequence's first segment has that length, and
    the sequences cycle through the three ways a segment can end: last turn,
    env wait, and straight into the next turn (zero env latency).  Admitted
    together, the cohort finishes its first segments in one decode window.
    """
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        num_turns = int(rng.integers(1, 4)) if multi_turn else 1
        segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
        env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
        env_latencies.append(0.0)
        if tied_segment is not None:
            outcome = i % 3  # 0: last turn, 1: env wait, 2: next turn
            if outcome == 0:
                segments, env_latencies = segments[:1], [0.0]
            elif num_turns == 1:
                segments.append(int(rng.integers(5, 120)))
                env_latencies.insert(0, float(rng.uniform(0.5, 10.0)))
            if outcome == 2:
                env_latencies[0] = 0.0
            segments[0] = tied_segment
        prompt = Prompt(
            prompt_id=start_id + i, group_id=0,
            prompt_tokens=int(rng.integers(16, 256)),
        )
        trajectory = Trajectory(
            traj_id=start_id + i, prompt=prompt, target_tokens=sum(segments)
        )
        states.append(
            SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
            )
        )
    return states


def assert_engines_identical(scalar, vector):
    assert scalar.clock == vector.clock
    assert scalar._time_carry == vector._time_carry
    assert scalar.stats == vector.stats
    assert scalar.num_sequences == vector.num_sequences
    assert scalar.num_decoding == vector.num_decoding
    assert scalar.num_queued == vector.num_queued
    assert scalar.num_env_waiting == vector.num_env_waiting
    assert scalar.kvcache.used_blocks == vector.kvcache.used_blocks
    assert scalar.kvcache.peak_blocks == vector.kvcache.peak_blocks
    assert scalar.kvcache.num_sequences == vector.kvcache.num_sequences
    s_states = {s.seq_id: s for s in scalar.sequences()}
    v_states = {s.seq_id: s for s in vector.sequences()}
    assert s_states.keys() == v_states.keys()
    for seq_id, s in s_states.items():
        v = v_states[seq_id]
        assert s.status == v.status, seq_id
        assert s.turn_index == v.turn_index, seq_id
        assert s.tokens_done_in_turn == v.tokens_done_in_turn, seq_id
        assert s.env_return_time == v.env_return_time, seq_id
        assert s.needs_reprefill == v.needs_reprefill, seq_id
        assert s.trajectory.generated_tokens == v.trajectory.generated_tokens, seq_id
        assert s.trajectory.versions_used == v.trajectory.versions_used, seq_id
        assert s.trajectory.turns_done == v.trajectory.turns_done, seq_id
        if s.status in ("decoding", "env_wait"):
            assert (
                scalar.kvcache.sequence_tokens(seq_id)
                == vector.kvcache.sequence_tokens(seq_id)
            ), seq_id


def assert_completions_identical(scalar_done, vector_done):
    assert [t.traj_id for t in scalar_done] == [t.traj_id for t in vector_done]
    for s, v in zip(scalar_done, vector_done):
        assert s.finish_time == v.finish_time
        assert s.generated_tokens == v.generated_tokens
        assert s.turns_done == v.turns_done
        assert s.versions_used == v.versions_used
        assert s.replica_id == v.replica_id


# --------------------------------------------------------------------------- fuzz
def fuzz_engines(seed, scalar, vector, opening):
    """Drive both engines through one seeded random op stream, step for step.

    ``opening(add_batch, op_rng)`` lands the first work; the op stream then mixes
    event-aligned and unaligned windows, repack pulls and re-adds, stalls,
    weight-version bumps, re-prefill storms and fresh prompts.
    """
    op_rng = np.random.default_rng(1000 + seed)
    next_id = 0
    parked_scalar, parked_vector = [], []  # repack-pulled, waiting to re-add
    version = 0

    def add_batch(count, **kwargs):
        nonlocal next_id
        scalar.add_sequences(make_states(seed * 971 + next_id, count, next_id, **kwargs))
        vector.add_sequences(make_states(seed * 971 + next_id, count, next_id, **kwargs))
        next_id += count

    opening(add_batch, op_rng)
    for _ in range(240):
        op = op_rng.random()
        if op < 0.62:  # drive to (or through) the next internal event
            delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
            assert delta_s == delta_v
            if delta_s is None:
                if not scalar.num_sequences:
                    add_batch(int(op_rng.integers(4, 12)))
                continue
            stretch = float(op_rng.uniform(0.3, 1.7))
            assert_completions_identical(
                scalar.advance(delta_s * stretch), vector.advance(delta_v * stretch)
            )
        elif op < 0.72:  # arbitrary window, unaligned with events
            window = float(op_rng.uniform(0.01, 30.0))
            assert_completions_identical(
                scalar.advance(window), vector.advance(window)
            )
        elif op < 0.80:  # repack-style pull of a random subset
            ids = [s.seq_id for s in scalar.sequences()]
            if ids:
                take = op_rng.choice(ids, size=min(len(ids), 5), replace=False)
                pulled_s = scalar.remove_sequences([int(i) for i in take])
                pulled_v = vector.remove_sequences([int(i) for i in take])
                assert [s.seq_id for s in pulled_s] == [s.seq_id for s in pulled_v]
                for s, v in zip(pulled_s, pulled_v):
                    assert s.trajectory.generated_tokens == v.trajectory.generated_tokens
                    assert s.tokens_done_in_turn == v.tokens_done_in_turn
                    s.needs_reprefill = v.needs_reprefill = True
                parked_scalar.extend(pulled_s)
                parked_vector.extend(pulled_v)
        elif op < 0.86:  # migrated work returns (same replica stands in for a peer)
            if parked_scalar:
                scalar.add_sequences(parked_scalar)
                vector.add_sequences(parked_vector)
                parked_scalar, parked_vector = [], []
        elif op < 0.92:  # weight-pull / repack-overhead stall
            duration = float(op_rng.uniform(0.1, 5.0))
            busy = bool(op_rng.random() < 0.5)
            scalar.inject_stall(duration, busy=busy)
            vector.inject_stall(duration, busy=busy)
        elif op < 0.96:  # trainer update: version bump (+ sometimes re-prefill storm)
            version += 1
            scalar.set_weight_version(version)
            vector.set_weight_version(version)
            if op_rng.random() < 0.5:
                assert scalar.reprefill_all_inflight() == vector.reprefill_all_inflight()
        else:  # fresh prompts land
            add_batch(int(op_rng.integers(2, 10)))
        assert_engines_identical(scalar, vector)

    # Drain everything that is still in flight and compare the full epilogue.
    if parked_scalar:
        scalar.add_sequences(parked_scalar)
        vector.add_sequences(parked_vector)
    duration_s, done_s = scalar.run_to_completion()
    duration_v, done_v = vector.run_to_completion()
    assert duration_s == duration_v
    assert_completions_identical(
        sorted(done_s, key=lambda t: t.traj_id),
        sorted(done_v, key=lambda t: t.traj_id),
    )
    assert_engines_identical(scalar, vector)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_fuzzed_random_workload_is_bit_identical(seed):
    """Random multi-turn workloads + pulls + stalls: step-for-step identity.

    Two pool geometries: a tight one that forces queueing and preemption,
    and a wide one whose opening ``add_sequences`` admits 72 sequences in
    one ``_try_admit`` call.  The wide opening leads with a tied cohort
    whose first segments all end in the first decode window, so one
    segment-finish call handles last-turn, env-wait and next-turn rows.
    """
    fuzz_engines(seed, *make_engines(blocks=384, max_concurrency=48),
                 opening=lambda add, op_rng: add(int(op_rng.integers(8, 20))))

    scalar, vector = make_engines(blocks=4096, max_concurrency=96)
    cohort = 15

    def wide_opening(add, _op_rng):
        add(cohort, tied_segment=3)  # shorter than any fabricated segment (>= 5)
        add(72 - cohort)
        assert vector.num_decoding == scalar.num_decoding == 72
        assert vector.num_queued == 0
        done_s = scalar.advance(scalar.next_event_in())
        done_v = vector.advance(vector.next_event_in())
        assert_completions_identical(done_s, done_v)
        states = {s.seq_id: s for s in vector.sequences()}
        next_turn = [i for i in range(cohort)
                     if i in states and states[i].status == "decoding"]
        env_wait = [i for i in range(cohort)
                    if i in states and states[i].status == "env_wait"]
        assert len(done_v) == cohort // 3
        assert len(env_wait) == len(next_turn) == cohort // 3
        assert all(states[i].turn_index == 1 for i in next_turn + env_wait)
        assert_engines_identical(scalar, vector)

    fuzz_engines(seed, scalar, vector, opening=wide_opening)


def test_preemption_storm_is_bit_identical():
    """A cache far too small for the workload: admission/preempt churn."""
    def long_states():
        states = []
        for i in range(8):
            prompt = Prompt(prompt_id=i, group_id=0, prompt_tokens=48)
            trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=400 + 60 * i)
            states.append(SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule.single_turn(400 + 60 * i),
            ))
        return states

    scalar, vector = make_engines(blocks=64, max_concurrency=32)
    scalar.add_sequences(long_states())
    vector.add_sequences(long_states())
    while scalar.num_sequences or vector.num_sequences:
        delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
        assert delta_s == delta_v
        if delta_s is None:
            break
        assert_completions_identical(scalar.advance(delta_s), vector.advance(delta_v))
        assert_engines_identical(scalar, vector)
    assert scalar.stats.preemptions > 0  # the scenario actually exercised churn


# --------------------------------------------------------------------------- degenerate windows
def degenerate_replica(engine_cls):
    replica = engine_cls(
        replica_id=0,
        decode_model=DECODE_MODEL,
        kvcache_config=KVCacheConfig(total_blocks=512),
        max_concurrency=8,
    )
    # A healthy sequence plus one whose current segment is already exhausted
    # (segment_remaining == 0, e.g. a corrupt migration): min_seg collapses to
    # zero, so every advance window is degenerate and only the epsilon-slip
    # fallback makes progress.
    healthy = make_states(11, 1, 0, multi_turn=False)
    prompt = Prompt(prompt_id=1, group_id=0, prompt_tokens=32)
    trajectory = Trajectory(traj_id=1, prompt=prompt, target_tokens=40)
    stuck = SequenceState(
        trajectory=trajectory,
        schedule=TurnSchedule.single_turn(40),
        tokens_done_in_turn=40,
    )
    replica.add_sequences(healthy + [stuck])
    return replica


@pytest.mark.parametrize("engine_cls",
                         [ReplicaGenerationState, ScalarReplicaGenerationState])
def test_degenerate_window_charges_stats_bucket(engine_cls):
    """The epsilon-slip fallback must not leak simulated time (regression).

    Before the fix, each degenerate iteration advanced ``clock`` by ``_EPS``
    without charging any stats bucket, so busy + idle + env-blocked drifted
    below the clock.
    """
    replica = degenerate_replica(engine_cls)
    target = 5e-9
    replica.advance(target)
    assert replica.clock >= target - 1.1e-9  # advance stops within _EPS of target
    assert replica.clock > 0.0  # the fallback did make progress
    stats = replica.stats
    accounted = stats.decode_busy_time + stats.idle_time + stats.env_blocked_time
    assert accounted == pytest.approx(replica.clock, abs=1e-15)


def test_degenerate_window_engines_agree():
    scalar = degenerate_replica(ScalarReplicaGenerationState)
    vector = degenerate_replica(ReplicaGenerationState)
    scalar.advance(5e-9)
    vector.advance(5e-9)
    assert_engines_identical(scalar, vector)


# --------------------------------------------------------------------------- KVCache batch API
def test_kvcache_batch_ops_match_scalar_loop():
    from repro.sim import KVCache

    rng = np.random.default_rng(3)
    a = KVCache(KVCacheConfig(total_blocks=4096))
    b = KVCache(KVCacheConfig(total_blocks=4096))
    live = []
    for seq_id in range(24):
        tokens = int(rng.integers(1, 300))
        if a.can_allocate(tokens):
            a.allocate(seq_id, tokens)
            b.allocate(seq_id, tokens)
            live.append(seq_id)
    for _ in range(40):
        grow = rng.integers(0, 48, size=len(live)).astype(np.int64)
        for seq_id, count in zip(live, grow):
            try:
                a.append_tokens(seq_id, int(count))
            except Exception:
                pytest.skip("workload overflowed the pool; resize the test")
        b.append_tokens_many(live, grow)
        assert a.used_blocks == b.used_blocks
        assert a.peak_blocks == b.peak_blocks
        for seq_id in live:
            assert a.sequence_tokens(seq_id) == b.sequence_tokens(seq_id)
        if len(live) > 4 and rng.random() < 0.3:
            victims, live = live[-2:], live[:-2]
            freed_a = sum(a.free(v) for v in victims)
            freed_b = b.free_many(victims)
            assert freed_a == freed_b


def test_decode_step_time_many_matches_scalar():
    """The vectorized roofline prices every lane bit-identically."""
    rng = np.random.default_rng(7)
    batches = rng.integers(0, 64, size=256).astype(np.int64)
    contexts = rng.integers(0, 8192, size=256).astype(np.int64)
    contexts[0] = 0  # exercise the max(1, ctx) clamp
    batches[1] = 0   # and the empty-batch zero
    many = DECODE_MODEL.decode_step_time_many(batches, np.maximum(1, contexts))
    for batch, context, fused in zip(batches, np.maximum(1, contexts), many):
        assert fused == DECODE_MODEL.decode_step_time(int(batch), int(context))


# --------------------------------------------------------------------------- batch views
def make_view_fleet(seed: int, lanes):
    """Mirrored scalar/vector replica lists; ``lanes`` gives per-lane slowdowns.

    A lane with a slowdown factor other than 1.0 is ineligible for fusion and
    must route through the per-replica fallback — the fused and fallback
    paths are exercised side by side.
    """
    scalars, vectors = [], []
    for replica_id, slowdown in enumerate(lanes):
        scalar, vector = make_engines(blocks=384, max_concurrency=24)
        scalar.add_sequences(make_states(seed * 131 + replica_id, 10,
                                         1000 * replica_id))
        vector.add_sequences(make_states(seed * 131 + replica_id, 10,
                                         1000 * replica_id))
        if slowdown != 1.0:
            scalar.set_slowdown(decode=slowdown)
            vector.set_slowdown(decode=slowdown)
        scalars.append(scalar)
        vectors.append(vector)
    return scalars, vectors


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_view_fuzz_is_bit_identical(seed):
    """ReplicaBatchView vs the scalar per-replica router, round for round.

    Each round stacks a fresh view over both fleets, asks a random member
    subset for its next event, advances a random stretch of it through the
    grouped kernels, settles, and compares every engine field bit for bit.
    """
    from repro.rollout import ReplicaBatchView, ScalarReplicaBatchView

    lanes = (1.0, 1.0, 1.5, 1.0, 1.0)  # lane 2 straggles: permanent fallback
    scalars, vectors = make_view_fleet(seed, lanes)
    op_rng = np.random.default_rng(9000 + seed)
    next_id = 50_000

    for round_no in range(40):
        count = int(op_rng.integers(1, len(lanes) + 1))
        positions = sorted(
            int(i) for i in op_rng.choice(len(lanes), size=count, replace=False)
        )
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        assert not scalar_view.lane_is_fused(2)
        assert not vector_view.lane_is_fused(2)
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        stretch = float(op_rng.uniform(0.3, 1.7))
        advance_pos, dts = [], []
        for position, delta in zip(positions, scalar_deltas):
            if delta is not None:
                advance_pos.append(position)
                dts.append(delta * stretch)
        scalar_done = scalar_view.advance_many(advance_pos, dts)
        vector_done = vector_view.advance_many(advance_pos, dts)
        scalar_view.settle()
        vector_view.settle()
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
        for scalar, vector in zip(scalars, vectors):
            assert_engines_identical(scalar, vector)
        if round_no % 7 == 6:  # fresh work lands between rounds
            lane = int(op_rng.integers(0, len(lanes)))
            scalars[lane].add_sequences(make_states(seed + round_no, 3, next_id))
            vectors[lane].add_sequences(make_states(seed + round_no, 3, next_id))
            next_id += 3

    # Drain to empty through the views and compare the epilogue.
    while any(r.num_sequences for r in scalars):
        positions = [i for i, r in enumerate(scalars) if r.num_sequences]
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        advance_pos = [p for p, d in zip(positions, scalar_deltas) if d is not None]
        dts = [d for d in scalar_deltas if d is not None]
        if not advance_pos:
            break
        scalar_done = scalar_view.advance_many(advance_pos, dts)
        vector_done = vector_view.advance_many(advance_pos, dts)
        scalar_view.settle()
        vector_view.settle()
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
    for scalar, vector in zip(scalars, vectors):
        assert_engines_identical(scalar, vector)


def test_batch_view_interleaves_with_direct_stepping():
    """A settled view hands the engines back intact: direct advance calls
    between view rounds continue the same float chains."""
    from repro.rollout import ReplicaBatchView, ScalarReplicaBatchView

    scalars, vectors = make_view_fleet(11, (1.0, 1.0, 1.0))
    for _ in range(10):
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        positions = [0, 1, 2]
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        dts = [d * 0.9 for d in scalar_deltas]
        scalar_view.advance_many(positions, dts)
        vector_view.advance_many(positions, dts)
        scalar_view.settle()
        vector_view.settle()
        # Direct per-replica stepping between view rounds.
        for scalar, vector in zip(scalars, vectors):
            delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
            assert delta_s == delta_v
            if delta_s is not None:
                assert_completions_identical(
                    scalar.advance(delta_s * 0.5), vector.advance(delta_v * 0.5)
                )
        for scalar, vector in zip(scalars, vectors):
            assert_engines_identical(scalar, vector)


def test_batch_view_stacks_lanes_of_mixed_widths():
    """Lanes whose slot blocks and KV ledgers have different widths stack at
    the right per-lane offsets: one lane grown past the initial width, one
    that reuses freed slots, one fresh.  The view drains == to the scalar
    per-replica router."""
    from repro.rollout import ReplicaBatchView, ScalarReplicaBatchView
    from repro.rollout.generation import _INITIAL_SLOTS

    fleets = [make_engines(blocks=4096, max_concurrency=64) for _ in range(3)]
    scalars = [scalar for scalar, _ in fleets]
    vectors = [vector for _, vector in fleets]

    def add(lane, count, start_id):
        scalars[lane].add_sequences(make_states(40 + lane, count, start_id))
        vectors[lane].add_sequences(make_states(40 + lane, count, start_id))

    add(0, 3 * _INITIAL_SLOTS + 1, 0)  # grown: 4x the initial width
    add(1, _INITIAL_SLOTS + 2, 1000)  # reuse: finish one, then refill
    before = dict(vectors[1]._slots)
    while len(vectors[1]._slots) == len(before):
        delta = scalars[1].next_event_in()
        assert vectors[1].next_event_in() == delta
        assert_completions_identical(scalars[1].advance(delta), vectors[1].advance(delta))
    freed = {slot for seq_id, slot in before.items() if seq_id not in vectors[1]._slots}
    add(1, len(freed), 2000)
    assert freed <= set(vectors[1]._slots.values())
    add(2, 3, 3000)  # fresh
    widths = [v._a_i64.shape[1] for v in vectors]
    assert widths == [4 * _INITIAL_SLOTS, 2 * _INITIAL_SLOTS, _INITIAL_SLOTS]
    assert len({len(v.kvcache._tokens) for v in vectors}) == 3

    first = True
    while any(r.num_sequences for r in scalars):
        positions = [i for i, r in enumerate(scalars) if r.num_sequences]
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        if first:
            assert vector_view.num_fused == 3
            first = False
        deltas = scalar_view.next_event_in_many(positions)
        assert vector_view.next_event_in_many(positions) == deltas
        dts = [d * 1.3 for d in deltas]
        scalar_done = scalar_view.advance_many(positions, dts)
        vector_done = vector_view.advance_many(positions, dts)
        scalar_view.settle()
        vector_view.settle()
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
        for scalar, vector in zip(scalars, vectors):
            assert_engines_identical(scalar, vector)


def test_kvcache_rows_stay_valid_across_frees():
    from repro.sim import KVCache

    cache = KVCache(KVCacheConfig(total_blocks=64))
    rows = {}
    for seq_id in range(6):
        rows[seq_id] = cache.allocate(seq_id, 20)
    cache.free(2)
    cache.allocate(99, 10)  # recycles a freed row, never steals a live one
    for seq_id in (0, 1, 3, 4, 5):
        assert cache.row_of(seq_id) == rows[seq_id]
        assert int(cache.tokens_at(np.array([rows[seq_id]]))[0]) == 20
