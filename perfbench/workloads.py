"""The benchmark's workloads: which scenario units each one runs.

Every workload is a grid of ``repro.bench`` scenario units.  Each unit is
built as a full discrete-event ``System`` (``system_for_unit``) and stepped
with ``System.run()``; none goes through the closed-form throughput
estimators.  The workload seed becomes the scenario seed, so unit ``i`` of a
workload simulates with seed ``seed + i``, as ``repro-bench`` would.

Why each workload exists, and which layers it should and should not move,
is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.bench.registry import ScenarioConfig, ScenarioUnit, get_scenario
from repro.bench.runner import system_for_unit


@dataclass(frozen=True)
class Workload:
    name: str
    #: Registered scenario the units come from, or None for ``spec``.
    scenario_id: Optional[str] = None
    #: ScenarioConfig fields of a workload defined here.
    spec: Tuple[Tuple[str, object], ...] = ()
    #: Committed artifact whose unit metrics pin the default seed.
    baseline_file: Optional[str] = None

    def scenario(self, seed: int) -> ScenarioConfig:
        if self.scenario_id is not None:
            return replace(get_scenario(self.scenario_id), seed=seed)
        return ScenarioConfig(id=f"perfbench_{self.name}", description=self.name,
                              kind="throughput", seed=seed, **dict(self.spec))

    def units(self, seed: int) -> List[ScenarioUnit]:
        return self.scenario(seed).expand()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # verl, one_step, stream_gen at 7B / 8192 GPUs, full paper batch.
        Workload("barrier_dc", scenario_id="datacenter_4k",
                 baseline_file="BENCH_datacenter_4k.json"),
        # laminar and areal at 7B / 256 GPUs, math, x0.25 batch.
        Workload("continuous_math", spec=(
            ("systems", ("laminar", "areal")), ("model_size", "7B"),
            ("gpu_scales", (256,)), ("task_type", "math"),
            ("iterations", 4), ("warmup", 1), ("batch_scale", 0.25),
        )),
        # laminar and stream_gen at 7B / 64 GPUs, multi-turn tool task.
        Workload("multiturn_tool", spec=(
            ("systems", ("laminar", "stream_gen")), ("model_size", "7B"),
            ("gpu_scales", (64,)), ("task_type", "tool"),
            ("iterations", 4), ("warmup", 1), ("batch_scale", 0.25),
        )),
    )
}


def build_systems(units: List[ScenarioUnit]) -> list:
    """One fresh System per unit (a System simulates only once)."""
    return [system_for_unit(unit) for unit in units]
