"""Output checks for the benchmark's simulated results.

A unit passes when its run returned, every iteration trained a full global
batch, and its simulated output matches the committed references that pin
its seed: on the default seed, ``BENCH_datacenter_4k.json`` at tolerance 0
for the barrier workload; on every seed in ``reference.json``, the digest of
the per-iteration outputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

#: Seed whose outputs a committed ``BENCH_*.json`` pins.
DEFAULT_SEED = 0

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def iteration_digest(iterations: Sequence) -> str:
    """sha256 over every iteration's (end_time, tokens_trained, trajectories).

    ``end_time`` enters as its exact hexadecimal float form, so any change of
    a simulated clock, however small, changes the digest.
    """
    text = ";".join(
        f"{float(it.end_time).hex()},{int(it.tokens_trained)},{int(it.trajectories)}"
        for it in iterations
    )
    return hashlib.sha256(text.encode()).hexdigest()


def throughput_metrics(result, warmup: int) -> Dict[str, float]:
    """The ``throughput`` scenario metrics of one simulated run.

    Same arithmetic as ``repro.experiments.throughput.measure_batch_system``
    and ``repro.bench.runner._run_throughput``, so the values compare with a
    committed ``BENCH_*.json`` at tolerance 0.
    """
    breakdown = result.mean_breakdown()
    return {
        "throughput_tok_s": float(result.throughput(warmup)),
        "iteration_time_s": float(result.mean_iteration_time(warmup)),
        "generation_bound": float(breakdown.generation_time >= breakdown.training_time),
        "generation_time": float(breakdown.generation_time),
        "training_time": float(breakdown.training_time),
        "weight_sync_time": float(breakdown.weight_sync_time),
        "bubble_time": float(breakdown.bubble_time),
        "mean_staleness": float(result.mean_staleness()),
    }


def load_bench_metrics(path: Path, scenario_id: str) -> Dict[str, Dict[str, float]]:
    """Committed unit metrics of one scenario, keyed by system name."""
    payload = json.loads(Path(path).read_text())
    units = payload["scenarios"][scenario_id]["result"]["units"]
    return {unit["system"]: unit["metrics"] for unit in units}


def load_digests(path: Path = REFERENCE_FILE) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Reference digests: workload name -> seed (as text) -> unit label -> digest."""
    return json.loads(Path(path).read_text())


def check_unit(result, num_iterations: int, batch_size: int,
               expected_metrics: Optional[Mapping[str, float]] = None,
               warmup: int = 0,
               expected_digest: Optional[str] = None) -> List[str]:
    """Problems found in one unit's simulated output (empty if it passes)."""
    problems: List[str] = []
    records = result.iterations
    if len(records) != num_iterations:
        problems.append(f"ran {len(records)} of {num_iterations} iterations")
    short = [it.iteration for it in records if int(it.trajectories) != batch_size]
    if short:
        problems.append(f"iterations {short} did not train {batch_size} trajectories")
    if expected_metrics is not None:
        got = throughput_metrics(result, warmup)
        diff = sorted(k for k in set(got) | set(expected_metrics)
                      if got.get(k) != expected_metrics.get(k))
        if diff:
            problems.append("metrics differ from the committed baseline: "
                            + ", ".join(f"{k} {got.get(k)!r} != {expected_metrics.get(k)!r}"
                                        for k in diff))
    if expected_digest is not None:
        digest = iteration_digest(records)
        if digest != expected_digest:
            problems.append(f"digest {digest[:12]} != reference {expected_digest[:12]}")
    return problems


class Tally:
    """Unit runs attempted and failed; a run with any problem fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: Sequence[str]) -> bool:
        """Count one unit run; True if it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
        return not problems

    @property
    def failed_frac(self) -> float:
        """Unit runs that failed over unit runs attempted."""
        if self.attempted < 1:
            raise ValueError("no unit run was attempted")
        return self.failed / self.attempted
