"""Tests for the network, cluster, KVCache and LLM cost-model substrates."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.llm import (
    DecodeModel,
    ParallelConfig,
    QWEN_7B,
    QWEN_32B,
    QWEN_72B,
    TrainingModel,
    fsdp_trainer_config,
    get_model,
    megatron_trainer_config,
    rollout_free_memory_for_kvcache,
)
from repro.sim import (
    Cluster,
    ClusterSpec,
    KVCache,
    KVCacheConfig,
    KVCacheError,
    RDMA_LINK,
    chain_pipelined_broadcast_time,
    gpu_direct_global_sync_time,
    kvcache_blocks_for_memory,
    optimal_chain_broadcast_time,
    optimal_chunk_count,
    storage_system_sync_time,
)


# --------------------------------------------------------------------------- network
def test_chain_broadcast_is_near_constant_in_node_count():
    """Appendix D: broadcast time is dominated by the bandwidth term."""
    nbytes = QWEN_72B.weight_bytes
    t8 = chain_pipelined_broadcast_time(nbytes, 8)
    t128 = chain_pipelined_broadcast_time(nbytes, 128)
    assert t128 < 2.0 * t8
    assert t128 >= t8  # monotone, but only weakly growing


def test_chain_broadcast_trivial_cases():
    assert chain_pipelined_broadcast_time(1e9, 1) == 0.0
    assert chain_pipelined_broadcast_time(0.0, 16) == 0.0
    with pytest.raises(ValueError):
        chain_pipelined_broadcast_time(1e9, 0)


def test_optimal_chunk_count_matches_closed_form():
    nbytes, nodes = 65e9, 64
    k = optimal_chunk_count(nbytes, nodes, RDMA_LINK)
    expected = math.sqrt((nodes - 2) * nbytes / RDMA_LINK.bandwidth / RDMA_LINK.startup)
    assert abs(k - expected) <= 1.0


def test_optimal_broadcast_is_lower_bound_of_eq1():
    nbytes, nodes = QWEN_32B.weight_bytes, 64
    t_star = optimal_chain_broadcast_time(nbytes, nodes)
    for chunks in (8, 64, 512, 4096):
        assert chain_pipelined_broadcast_time(nbytes, nodes, chunks) >= t_star - 1e-9


def test_gpu_direct_sync_grows_with_machines_and_storage_is_worse():
    small = gpu_direct_global_sync_time(QWEN_32B.weight_bytes, 4)
    big = gpu_direct_global_sync_time(QWEN_32B.weight_bytes, 64)
    assert big > small
    # §4.1: NFS/Redis-style sync is far slower than RDMA paths.
    assert storage_system_sync_time(QWEN_32B.weight_bytes, 8) > 10 * big


# --------------------------------------------------------------------------- cluster
def test_cluster_partition_and_replica_grouping():
    cluster = Cluster(ClusterSpec(num_machines=4, gpus_per_machine=8))
    placement = cluster.partition(trainer_gpus=16, rollout_gpus=16)
    assert placement.num_trainer_gpus == 16
    assert placement.num_rollout_gpus == 16
    replicas = placement.rollout_replicas(tensor_parallel=4)
    assert len(replicas) == 4
    for group in replicas:
        assert len({gpu.machine_id for gpu in group}) == 1  # TP never spans machines


def test_cluster_partition_rejects_oversubscription():
    cluster = Cluster(ClusterSpec(num_machines=1))
    with pytest.raises(ValueError):
        cluster.partition(trainer_gpus=8, rollout_gpus=8)


# --------------------------------------------------------------------------- kvcache
def test_kvcache_alloc_grow_free_roundtrip():
    cache = KVCache(KVCacheConfig(total_blocks=100, block_size=16))
    cache.allocate(1, 100)  # 7 blocks
    assert cache.used_blocks == 7
    cache.append_tokens(1, 16)
    assert cache.used_blocks == 8
    freed = cache.free(1)
    assert freed == 8
    assert cache.used_blocks == 0


def test_kvcache_rejects_double_allocation_and_overflow():
    cache = KVCache(KVCacheConfig(total_blocks=4, block_size=16))
    cache.allocate(1, 30)
    with pytest.raises(KVCacheError):
        cache.allocate(1, 10)
    with pytest.raises(KVCacheError):
        cache.allocate(2, 64)  # needs 4 blocks, only 2 free
    with pytest.raises(KVCacheError):
        cache.free(99)


def test_kvcache_blocks_for_memory():
    blocks = kvcache_blocks_for_memory(1e9, QWEN_7B.kv_bytes_per_token, 16)
    assert blocks > 0
    assert kvcache_blocks_for_memory(0.0, QWEN_7B.kv_bytes_per_token) == 0


# --------------------------------------------------------------------------- model specs
def test_qwen_parameter_counts_are_in_range():
    assert 7.0e9 < QWEN_7B.num_parameters < 8.5e9
    assert 31e9 < QWEN_32B.num_parameters < 34e9
    assert 71e9 < QWEN_72B.num_parameters < 75e9


def test_model_registry_lookup():
    assert get_model("7B") is QWEN_7B
    assert get_model("Qwen2.5-32B") is QWEN_32B
    with pytest.raises(KeyError):
        get_model("13B")


def test_kv_bytes_per_token_scale_with_sharding():
    full = QWEN_32B.kv_bytes_per_token
    assert QWEN_32B.kv_bytes_per_token_sharded(4) == pytest.approx(full / 4)


# --------------------------------------------------------------------------- decode roofline
def test_decode_latency_flat_then_rising():
    """Fig 4: decoding a small batch costs about the same as a mid-size batch."""
    decode = DecodeModel(QWEN_7B, tensor_parallel=2)
    t1 = decode.decode_step_time(1, 4096)
    t8 = decode.decode_step_time(8, 4096)
    t64 = decode.decode_step_time(64, 4096)
    t512 = decode.decode_step_time(512, 4096)
    assert t8 < 1.15 * t1
    assert t64 < 1.6 * t1
    assert t512 > t64  # eventually KV traffic raises the step time
    # Figure 4's absolute range: a few ms to a few tens of ms.
    assert 0.002 < t1 < 0.03
    assert t512 < 0.2


def test_decode_latency_decreases_with_tensor_parallel():
    t_tp2 = DecodeModel(QWEN_32B, tensor_parallel=2).decode_step_time(64, 4096)
    t_tp8 = DecodeModel(QWEN_32B, tensor_parallel=8).decode_step_time(64, 4096)
    assert t_tp8 < t_tp2


def test_decode_throughput_and_batch_bound():
    decode = DecodeModel(QWEN_7B, tensor_parallel=1)
    assert decode.decode_throughput(256, 2048) > decode.decode_throughput(8, 2048)
    bound = decode.batch_bound_for_latency_slack(2048, slack=2.0)
    assert bound >= 8
    assert decode.decode_step_time(bound, 2048) <= 2.0 * decode.decode_step_time(1, 2048) + 1e-9


def test_prefill_and_reprefill_costs():
    decode = DecodeModel(QWEN_7B, tensor_parallel=1)
    assert decode.prefill_time(0) == 0.0
    assert decode.prefill_time(2048) > 0.0
    assert decode.reprefill_time(4096) > decode.reprefill_time(1024)


@pytest.mark.parametrize("model", [QWEN_7B, QWEN_32B, QWEN_72B], ids=lambda m: m.name)
@pytest.mark.parametrize("tensor_parallel", [1, 2, 4, 8])
def test_prefill_time_many_matches_scalar_bit_for_bit(model, tensor_parallel):
    decode = DecodeModel(model, tensor_parallel=tensor_parallel)
    tokens = [0, 1, 2, 63, 64, 511, 4097, 32768]
    many = decode.prefill_time_many(np.array(tokens, dtype=np.int64)).tolist()
    assert many == [decode.prefill_time(t, 1) for t in tokens]


def test_cached_model_constants_keep_identity_and_follow_replace():
    fresh = dataclasses.replace(QWEN_7B)  # a new instance: nothing cached yet
    before = hash(QWEN_7B)
    for name in ("head_dim", "attention_params", "mlp_params", "layer_params",
                 "embedding_params", "num_parameters", "weight_bytes",
                 "kv_bytes_per_token"):
        getattr(QWEN_7B, name)
    assert hash(QWEN_7B) == before == hash(fresh)
    assert QWEN_7B == fresh
    half = dataclasses.replace(QWEN_7B, num_layers=14)
    assert half.num_parameters == 14 * QWEN_7B.layer_params + 2 * QWEN_7B.embedding_params
    assert half.num_parameters < QWEN_7B.num_parameters
    assert half != QWEN_7B


def test_decode_model_pickle_round_trip_prices_the_same():
    decode = DecodeModel(QWEN_32B, tensor_parallel=4)
    decode.effective_flops, decode.effective_bandwidth  # fill the caches first
    copy = pickle.loads(pickle.dumps(decode))
    assert copy == decode and hash(copy) == hash(decode)
    assert copy.prefill_time(4097) == decode.prefill_time(4097)
    assert copy.decode_step_time(64, 4096) == decode.decode_step_time(64, 4096)


# --------------------------------------------------------------------------- parallelism / training
def test_parallel_config_shard_math():
    config = ParallelConfig(tensor_parallel=4, pipeline_parallel=2, data_parallel=3)
    assert config.model_shards == 8
    assert config.world_size == 24
    assert config.shard_bytes(QWEN_32B) == pytest.approx(QWEN_32B.weight_bytes / 8)


def test_trainer_config_factories_validate_divisibility():
    assert fsdp_trainer_config(32, 8).world_size == 32
    assert megatron_trainer_config(64, 4, 2).data_parallel == 8
    with pytest.raises(ValueError):
        fsdp_trainer_config(30, 8)


def test_training_iteration_scales_with_tokens_and_gpus():
    small = TrainingModel(QWEN_7B, fsdp_trainer_config(8, 8))
    large = TrainingModel(QWEN_7B, fsdp_trainer_config(64, 8))
    tokens = 1e6
    assert small.iteration_time(tokens, 16) > large.iteration_time(tokens, 16)
    assert small.iteration_time(2 * tokens, 16) > small.iteration_time(tokens, 16)


def test_rollout_free_memory_positive_for_supported_configs():
    assert rollout_free_memory_for_kvcache(QWEN_7B, 80e9, 1) > 0
    assert rollout_free_memory_for_kvcache(QWEN_72B, 80e9, 8) > 0
    # A 72B model cannot serve on a single 80 GB GPU.
    assert rollout_free_memory_for_kvcache(QWEN_72B, 80e9, 1) == 0.0
