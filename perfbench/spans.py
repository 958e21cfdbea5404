"""In-memory span recorder for the traced benchmark run.

The recorder patches the entry points of each ``repro`` layer (listed in
:data:`LAYERS`) with thin timing wrappers, keeps every call as a span
``(name, start, end, parent)`` in compact arrays, and restores the original
attributes on exit.  The wrappers only observe: they pass arguments, return
values, yielded events and thrown exceptions through unchanged, so a traced
run must simulate exactly what an untraced run simulates (the benchmark
asserts this).

Generator entry points (process bodies such as the fleet barrier) are timed
per resumption: each stretch of work between two yields is one span, whose
parent is whatever span resumed it.  Their ``calls`` count generator
creations, not resumptions.  A call made inside another call of the same
metric name (an override calling ``super()``) is neither counted again nor
timed twice.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

@dataclass(frozen=True)
class Layer:
    """One per-layer metric and the entry points it times."""

    name: str
    #: ``"module:Class.method"`` or ``"module:function"``; a class path also
    #: covers the overrides of that method in the class's loaded subclasses.
    targets: Tuple[str, ...]
    #: The targets are generator functions (timed per resumption).
    generator: bool = False
    #: Spans of this layer contain other layers' spans: report ``.self_s``.
    nested: bool = False


GEN = "repro.rollout.generation"
LAYERS: Tuple[Layer, ...] = (
    Layer("workload.make_replicas", ("repro.systems.base:System.make_replicas",)),
    Layer("workload.sample_batch", ("repro.workload.datasets:PromptDataset.sample_batch",)),
    Layer("workload.trajectory_factory", ("repro.rollout.environment:TrajectoryFactory.make",)),
    Layer("rollout.add_sequences", (f"{GEN}:ReplicaGenerationState.add_sequences",)),
    Layer("rollout.advance", (f"{GEN}:ReplicaGenerationState.advance",)),
    Layer("rollout.next_event_in", (f"{GEN}:ReplicaGenerationState.next_event_in",)),
    Layer("rollout.reprefill", (f"{GEN}:ReplicaGenerationState.reprefill_all_inflight",)),
    Layer("rollout.batch_view", (f"{GEN}:ReplicaBatchView.next_event_in_many",
                                 f"{GEN}:ReplicaBatchView.advance_many",
                                 f"{GEN}:ReplicaBatchView.settle")),
    # The harness binds the barrier by name, so the harness binding is the
    # one every barrier system calls through.
    Layer("runtime.barrier", ("repro.runtime.harness:fleet_generation_barrier",),
          generator=True, nested=True),
    # FleetStepper has no public per-replica entry point; ``_service`` is the
    # one driver-loop pass it runs for every due replica.
    Layer("runtime.service", ("repro.runtime.fleet:FleetStepper._service",), nested=True),
    Layer("sim", ("repro.sim.engine:Environment.step",), nested=True),
    Layer("systems.run", ("repro.systems.base:System.run",), nested=True),
    # Process bodies of the registered orchestrations; separates their own
    # work from the DES core's self time.
    Layer("systems.build", ("repro.systems.base:System.build",), generator=True, nested=True),
    Layer("systems.refill", ("repro.runtime.harness:ReplicaFleet.refill",), nested=True),
    Layer("systems.run_ahead_budget", ("repro.systems.base:System.run_ahead_budget",)),
    Layer("systems.repack", ("repro.systems.rollout_manager:plan_repack",
                             "repro.systems.repack:RepackExecutor.execute")),
    Layer("systems.relay", tuple(f"repro.systems.relay:RelayService.{m}" for m in (
        "publish", "pull_latency", "pull_specific_version", "actor_push_time"))),
    # Every system scores through its CompletionPipeline, either via
    # ``System.score_and_buffer`` or (Laminar) directly.
    Layer("systems.score_and_buffer", ("repro.runtime.components:CompletionPipeline.process",)),
    Layer("trainer", tuple(f"repro.trainer.trainer:Trainer.{m}" for m in (
        "record_iteration", "iteration_compute_time", "minibatch_time"))),
)


class SpanLog:
    """Spans in parallel arrays; a span's index is its order of opening."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.calls = [0] * len(self.names)
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: 1 if no enclosing span has the same name (its time counts once).
        self.outer = array("b")
        self._stack: List[int] = []
        self._depth = [0] * len(self.names)

    def __len__(self) -> int:
        return len(self.start)

    def depth(self, name_id: int) -> int:
        """Open spans of one name (above 0 inside a call of that name)."""
        return self._depth[name_id]

    def open(self, name_id: int, at: float) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(1 if self._depth[name_id] == 0 else 0)
        self._depth[name_id] += 1
        self.start.append(at)
        self.end.append(at)
        self._stack.append(index)
        return index

    def close(self, index: int, at: float) -> None:
        self.end[index] = at
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")
        self._depth[self.name[index]] -= 1

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a closed span with explicit times (for offline use)."""
        name_id = self.names.index(name)
        index = len(self.start)
        outer = 1
        p = parent
        while p >= 0:
            if self.name[p] == name_id:
                outer = 0
                break
            p = self.parent[p]
        self.name.append(name_id)
        self.parent.append(parent)
        self.outer.append(outer)
        self.start.append(start)
        self.end.append(end)
        self.calls[name_id] += outer
        return index

    def self_times(self) -> List[float]:
        """Each span's duration minus the part of it its children cover.

        Children are swept in opening order, so their union is measured
        even where two of them overlap; a child's time outside its parent's
        interval is not subtracted.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        reach = list(start)  # how far each parent's interval is covered
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per name: calls, total time of outermost spans, and self time."""
        out = {name: {"calls": float(c), "s": 0.0, "self_s": 0.0}
               for name, c in zip(self.names, self.calls)}
        own = self.self_times()
        for i in range(len(self.start)):
            row = out[self.names[self.name[i]]]
            if self.outer[i]:
                row["s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out


def _resolve(target: str) -> List[Tuple[object, str]]:
    """(owner, attribute) pairs to patch for one entry point."""
    module_name, path = target.split(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    class_name, attr = path.split(".")
    cls = getattr(module, class_name)
    owners, todo, seen = [], [cls], set()
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if attr in vars(klass):
            owners.append((klass, attr))
        todo.extend(klass.__subclasses__())
    return owners


class Recorder:
    """Installs the layer wrappers for the duration of a ``with`` block."""

    def __init__(self, layers=LAYERS, clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = layers
        self.clock = clock
        self.log = SpanLog([layer.name for layer in layers])
        #: Work counters kept beside the spans.
        self.counts: Dict[str, int] = {"rollout.add_sequences.seqs": 0,
                                       "rollout.batch_view.lanes": 0,
                                       "rollout.batch_view.fused": 0}
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------
    def _call_wrapper(self, fn, name_id: int):
        log, clock = self.log, self.clock

        def timed(*args, **kwargs):
            if log.depth(name_id) == 0:
                log.calls[name_id] += 1
            index = log.open(name_id, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index, clock())

        return timed

    def _gen_wrapper(self, fn, name_id: int):
        log, clock = self.log, self.clock

        def drive(gen):
            value, error = None, None
            while True:
                index = log.open(name_id, clock())
                try:
                    if error is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    log.close(index, clock())
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into the body, as the engine would
                    error = exc

        def timed(*args, **kwargs):
            if log.depth(name_id) == 0:
                log.calls[name_id] += 1
            return drive(fn(*args, **kwargs))

        return timed

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- install / restore -------------------------------------------------
    def __enter__(self) -> "Recorder":
        try:
            for name_id, layer in enumerate(self.layers):
                wrap = self._gen_wrapper if layer.generator else self._call_wrapper
                for target in layer.targets:
                    for owner, attr in _resolve(target):
                        self._patch(owner, attr, wrap(vars(owner)[attr], name_id))
            self._patch_counters()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_counters(self) -> None:
        from repro.rollout.generation import ReplicaBatchView, ReplicaGenerationState

        counts = self.counts
        add = ReplicaGenerationState.add_sequences  # already the timed wrapper

        def add_sequences(replica, sequences):
            counts["rollout.add_sequences.seqs"] += len(sequences)
            return add(replica, sequences)

        init = vars(ReplicaBatchView)["__init__"]

        def view_init(view, replicas, fuse=True):
            init(view, replicas, fuse)
            counts["rollout.batch_view.lanes"] += len(view.replicas)
            counts["rollout.batch_view.fused"] += view.num_fused

        self._patch(ReplicaGenerationState, "add_sequences", add_sequences)
        self._patch(ReplicaBatchView, "__init__", view_init)

    # -- results -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.log.calls[self.log.names.index(name)]

    def metrics(self) -> Dict[str, float]:
        """``<name>.calls``, ``<name>.s`` and, where spans nest, ``.self_s``."""
        totals = self.log.totals()
        out: Dict[str, float] = {}
        for layer in self.layers:
            row = totals[layer.name]
            out[f"{layer.name}.calls"] = row["calls"]
            out[f"{layer.name}.s"] = row["s"]
            if layer.nested:
                out[f"{layer.name}.self_s"] = row["self_s"]
        out.update({k: float(v) for k, v in self.counts.items()})
        return out


#: Layer times summed into "construction" for the barrier split.
CONSTRUCTION = ("workload.make_replicas", "workload.sample_batch",
                "workload.trajectory_factory", "rollout.add_sequences")


def derived_metrics(m: Dict[str, float], num_units: int, traced_wall: float,
                    untraced_wall: float) -> Dict[str, float]:
    """Ratios and harness costs computed from one traced pass's metrics.

    ``traced_wall`` and ``untraced_wall`` are the wall times of a traced and
    an untraced pass over the same units.  A share is taken of the traced
    pass's wall time.
    """
    lanes = m["rollout.batch_view.lanes"]
    construction = sum(m[f"{name}.s"] for name in CONSTRUCTION)
    return {
        # 0 when no batch view was built (the continuous path only).
        "rollout.fused_share": m["rollout.batch_view.fused"] / lanes if lanes else 0.0,
        "sim.events_per_unit": m["sim.calls"] / num_units,
        "bench.wall_s": traced_wall,
        "bench.overhead_s": traced_wall - m["systems.run.s"],
        "bench.trace_overhead_s": traced_wall - untraced_wall,
        "split.build_drain_share": (construction + m["runtime.barrier.s"]) / traced_wall,
        "split.service_sim_share": (m["runtime.service.s"] + m["sim.self_s"]) / traced_wall,
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("share"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"
