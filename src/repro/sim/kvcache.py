"""Paged KVCache accounting for rollout replicas.

The repack mechanism (§5) keys entirely off KVCache utilisation, so the
reproduction models the cache the way vLLM does: a fixed pool of fixed-size
blocks, allocated per in-flight trajectory as it grows.  The model exposes the
utilisation lifecycle of Figure 9: ramp-up while waiting trajectories fill
freed space, a steady plateau near ``C_max``, and a ramp-down once no waiting
trajectories remain.

The per-sequence ledger is stored structure-of-arrays (parallel numpy arrays
of sequence ids / tokens / blocks plus an id→row index), so the vectorized
replica engine can grow every decoding sequence in one call
(:meth:`KVCache.append_tokens_many`) instead of one dict update per sequence
per decode event.  Freed rows go on a free list rather than being compacted,
so a sequence's row handle (:meth:`KVCache.row_of`, returned by
:meth:`KVCache.allocate`) stays valid for its whole residency — the engine
keeps per-sequence row arrays alive across arbitrary interleavings of frees
and allocations without re-resolving ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Default vLLM-style block size in tokens.
DEFAULT_BLOCK_SIZE = 16

#: "Full" utilisation threshold C_max from §5.2 (99% of the cache).
DEFAULT_C_MAX = 0.99

#: Initial row capacity of the SoA ledger (grown geometrically).
_INITIAL_CAPACITY = 8


class KVCacheError(RuntimeError):
    """Raised on illegal KVCache operations (double free, over-allocation)."""


def grow_array(array: np.ndarray, capacity: int, fill=0) -> np.ndarray:
    """Return ``array`` re-homed in a buffer of ``fill`` whose last axis is ``capacity``.

    Shared by every geometric grow-and-copy site of the SoA state (the
    KVCache ledger, the replica slot arrays and int64 slot block, the
    decode/env-wait vectors) so the growth policy lives in one place.
    """
    grown = np.full(array.shape[:-1] + (capacity,), fill, dtype=array.dtype)
    grown[..., : array.shape[-1]] = array
    return grown


@dataclass
class KVCacheConfig:
    """Sizing of one replica's KVCache pool."""

    total_blocks: int
    block_size: int = DEFAULT_BLOCK_SIZE
    c_max: float = DEFAULT_C_MAX

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0 < self.c_max <= 1:
            raise ValueError("c_max must be in (0, 1]")

    @property
    def total_tokens(self) -> int:
        """Maximum number of cached tokens across all sequences."""
        return self.total_blocks * self.block_size


class KVCache:
    """Block-granular KVCache for a single rollout replica."""

    def __init__(self, config: KVCacheConfig) -> None:
        self.config = config
        self.peak_blocks = 0
        self._used_blocks = 0
        self._usage_history: List[float] = []
        # SoA ledger: row r holds (_tokens[r], _blocks[r]) for one live
        # sequence; _row_of maps seq_id -> row.  Freed rows are recycled via
        # _free_rows, never compacted, so live rows are stable handles.
        self._tokens = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._blocks = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._row_of: Dict[int, int] = {}
        self._free_rows: List[int] = list(range(_INITIAL_CAPACITY - 1, -1, -1))

    # -- allocation ---------------------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Number of blocks needed to hold ``tokens``."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        if tokens == 0:
            return 0
        return -(-tokens // self.config.block_size)

    def blocks_for_many(self, tokens: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`blocks_for` (tokens must be non-negative)."""
        return -(-tokens // self.config.block_size)

    def can_allocate(self, tokens: int) -> bool:
        """True if a new sequence of ``tokens`` tokens fits right now."""
        return self._used_blocks + self.blocks_for(tokens) <= self.config.total_blocks

    def _grow_ledger(self) -> None:
        old = len(self._tokens)
        new = 2 * old
        self._tokens = grow_array(self._tokens, new)
        self._blocks = grow_array(self._blocks, new)
        self._free_rows.extend(range(new - 1, old - 1, -1))

    def allocate(self, seq_id: int, tokens: int) -> int:
        """Reserve cache space for a new sequence; returns its stable row handle."""
        if seq_id in self._row_of:
            raise KVCacheError(f"sequence {seq_id} already allocated")
        blocks = self.blocks_for(tokens)
        if self._used_blocks + blocks > self.config.total_blocks:
            raise KVCacheError(
                f"cannot allocate {blocks} blocks for seq {seq_id}: "
                f"{self.free_blocks} free"
            )
        if not self._free_rows:
            self._grow_ledger()
        row = self._free_rows.pop()
        self._tokens[row] = tokens
        self._blocks[row] = blocks
        self._row_of[seq_id] = row
        self._used_blocks += blocks
        self.peak_blocks = max(self.peak_blocks, self._used_blocks)
        return row

    def append_tokens(self, seq_id: int, tokens: int = 1) -> None:
        """Grow sequence ``seq_id`` by ``tokens`` decoded tokens."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        row = self._row_of.get(seq_id)
        if row is None:
            raise KVCacheError(f"sequence {seq_id} is not allocated")
        new_total = int(self._tokens[row]) + tokens
        new_blocks = self.blocks_for(new_total)
        delta = new_blocks - int(self._blocks[row])
        if delta > 0:
            if self._used_blocks + delta > self.config.total_blocks:
                raise KVCacheError(f"KVCache overflow growing sequence {seq_id}")
            self._used_blocks += delta
        self._tokens[row] = new_total
        self._blocks[row] = new_blocks
        self.peak_blocks = max(self.peak_blocks, self._used_blocks)

    def append_tokens_many(
        self,
        seq_ids: Sequence[int],
        tokens: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Grow many sequences at once (the vectorized decode hot path).

        ``tokens[i]`` decoded tokens are appended to ``seq_ids[i]``.  Callers
        that hold the stable row handles (from :meth:`allocate` or
        :meth:`rows_for`) pass them via ``rows`` to skip the id lookups.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size == 0:
            return
        if np.any(tokens < 0):
            raise ValueError("tokens must be non-negative")
        if rows is None:
            rows = self.rows_for(seq_ids)
        new_totals = self._tokens[rows] + tokens
        new_blocks = self.blocks_for_many(new_totals)
        grow = int((new_blocks - self._blocks[rows]).sum())
        if grow > 0 and self._used_blocks + grow > self.config.total_blocks:
            # Replicate the scalar error semantics exactly: apply sequences in
            # order until the one that overflows, then raise.
            for seq_id, count in zip(seq_ids, tokens):
                self.append_tokens(int(seq_id), int(count))
            raise AssertionError("unreachable: scalar fallback must overflow")
        self._tokens[rows] = new_totals
        self._blocks[rows] = new_blocks
        self._used_blocks += grow
        self.peak_blocks = max(self.peak_blocks, self._used_blocks)

    def free(self, seq_id: int) -> int:
        """Release the sequence's blocks, returning how many were freed."""
        row = self._row_of.pop(seq_id, None)
        if row is None:
            raise KVCacheError(f"sequence {seq_id} is not allocated")
        blocks = int(self._blocks[row])
        self._free_rows.append(row)
        self._used_blocks -= blocks
        return blocks

    def free_many(self, seq_ids: Sequence[int]) -> int:
        """Batch :meth:`free`: release many sequences in one ledger update.

        Returns the total number of blocks freed.  Rows return to the free
        list in input order (the order a scalar loop would push them), so
        subsequent allocations recycle identical rows either way.
        """
        if len(seq_ids) == 0:
            return 0
        row_of = self._row_of
        unique = {int(seq_id) for seq_id in seq_ids}
        if len(unique) != len(seq_ids) or any(s not in row_of for s in unique):
            # Replicate the scalar partial-failure semantics: free in order
            # until the unallocated (or duplicated) sequence, then raise.
            return sum(self.free(int(seq_id)) for seq_id in seq_ids)
        rows = np.empty(len(seq_ids), dtype=np.int64)
        for index, seq_id in enumerate(seq_ids):
            rows[index] = row_of.pop(int(seq_id))
        freed = int(self._blocks[rows].sum())
        self._free_rows.extend(rows.tolist())
        self._used_blocks -= freed
        return freed

    def note_peak(self, peak_blocks: int) -> None:
        """Raise the high-water mark to ``peak_blocks`` if it exceeds it.

        Used by the fused cross-replica stepper, which tracks a replica's
        chronological block usage outside the ledger during a drain and
        settles the ledger afterwards with telescoped appends/frees — the
        transient peaks the scalar call sequence would have recorded are
        re-applied here.
        """
        if peak_blocks > self.peak_blocks:
            self.peak_blocks = peak_blocks

    def evict_all(self) -> None:
        """Drop every allocation (used when a replica is repacked away or fails)."""
        self._row_of.clear()
        self._free_rows = list(range(len(self._tokens) - 1, -1, -1))
        self._used_blocks = 0

    # -- batched inspection ---------------------------------------------------
    def row_of(self, seq_id: int) -> int:
        """Stable row handle of a live sequence (valid until it is freed)."""
        row = self._row_of.get(seq_id)
        if row is None:
            raise KVCacheError(f"sequence {seq_id} is not allocated")
        return row

    def rows_for(self, seq_ids: Sequence[int]) -> np.ndarray:
        """Row handles for ``seq_ids`` (each valid until that sequence is freed)."""
        row_of = self._row_of
        try:
            return np.fromiter(
                (row_of[int(s)] for s in seq_ids), dtype=np.int64, count=len(seq_ids)
            )
        except KeyError as exc:
            raise KVCacheError(f"sequence {exc.args[0]} is not allocated") from None

    def tokens_at(self, rows: np.ndarray) -> np.ndarray:
        """Cached token counts for the given row handles."""
        return self._tokens[rows]

    # -- inspection -----------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        return self.config.total_blocks - self._used_blocks

    @property
    def utilization(self) -> float:
        """Fraction of blocks in use, in [0, 1]."""
        return self._used_blocks / self.config.total_blocks

    @property
    def num_sequences(self) -> int:
        return len(self._row_of)

    def sequence_tokens(self, seq_id: int) -> int:
        row = self._row_of.get(seq_id)
        if row is None:
            raise KVCacheError(f"sequence {seq_id} is not allocated")
        return int(self._tokens[row])

    def sequence_ids(self) -> List[int]:
        return list(self._row_of)

    def is_full(self) -> bool:
        """True if utilisation has reached the C_max threshold."""
        return self.utilization >= self.config.c_max

    def record_usage(self) -> None:
        """Append the current utilisation to the usage history (Fig 9 traces)."""
        self._usage_history.append(self.utilization)

    @property
    def usage_history(self) -> List[float]:
        return list(self._usage_history)


def kvcache_blocks_for_memory(
    free_memory_bytes: float,
    kv_bytes_per_token: float,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> int:
    """How many KVCache blocks fit into ``free_memory_bytes``.

    ``kv_bytes_per_token`` is provided by the model spec (2 * layers * kv_heads
    * head_dim * dtype bytes, divided by the tensor-parallel degree).
    """
    if kv_bytes_per_token <= 0:
        raise ValueError("kv_bytes_per_token must be positive")
    tokens = int(free_memory_bytes // kv_bytes_per_token)
    return max(0, tokens // block_size)
