"""Outside-in benchmark of the Laminar simulator's host-side cost.

Run from the repository root::

    python3 perfbench/run.py --workload barrier_dc --seed 0 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters that import ``repro`` and build every unit) and the host time of
``System.run()`` over all units (per unit, the median over the passes that
fit in ``--seconds``), both normalised for the host's speed by
``probe.SpeedProbe``, simulated tokens per normalised second and the
process's peak resident memory; the raw seconds are printed beside them.
``--trace 1`` runs one untraced pass and one traced pass and reports the
per-layer metrics of ``spans.LAYERS``.

Every unit's simulated output is checked (see ``checks.py``); the traced
pass must reproduce the untraced outputs exactly.  The last line printed is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from checks import (DEFAULT_SEED, Tally, check_unit, iteration_digest, load_bench_metrics,
                    load_digests)
from probe import SpeedProbe
from spans import Recorder, derived_metrics, layer_unit

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Passes per untraced run, at least, so no time is a single sample.
MIN_PASSES = 2
#: A unit running longer than this fails as timed out.
UNIT_TIMEOUT_S = 60.0
#: No pass starts that would end after this, whatever ``--seconds``.
RUN_LIMIT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "wall_norm_s": "s", "sim_tok_per_norm_s": "tok/s",
                    "peak_rss_mb": "MB"}


class UnitTimeout(Exception):
    """A unit exceeded ``UNIT_TIMEOUT_S``."""


def _on_alarm(signum, frame):
    raise UnitTimeout(f"unit ran longer than {UNIT_TIMEOUT_S:.0f} s")


@dataclass
class PassResult:
    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    #: Speed-normalised seconds per unit (probed passes only).
    norms: List[float] = field(default_factory=list)
    #: DES events popped per unit (traced passes only).
    events: List[int] = field(default_factory=list)
    tokens: int = 0
    wall: float = 0.0


class Checker:
    """Checks each unit's output against the reference and its earlier runs."""

    def __init__(self, workload, units, seed: int) -> None:
        #: Committed metrics per unit label (barrier workload, default seed).
        self.metrics: Dict[str, dict] = {}
        if seed == DEFAULT_SEED and workload.baseline_file:
            by_system = load_bench_metrics(ROOT / workload.baseline_file, workload.scenario_id)
            self.metrics = {unit_label(u): by_system.get(u.system, {}) for u in units}
        #: Reference digests per unit label, for the seeds ``reference.json`` pins.
        pinned = load_digests().get(workload.name, {})
        self.digests: Optional[Dict[str, str]] = pinned.get(str(seed))
        self.seen: Dict[str, str] = {}

    def check(self, unit, system, result) -> List[str]:
        label = unit_label(unit)
        problems = check_unit(
            result, unit.iterations, system.config.global_batch_size,
            expected_metrics=self.metrics.get(label), warmup=unit.warmup,
            expected_digest=(None if self.digests is None
                             else self.digests.get(label, "missing reference digest")),
        )
        digest = iteration_digest(result.iterations)
        if self.seen.setdefault(label, digest) != digest:
            problems.append("output differs from this unit's first run in this process")
        return problems


def unit_label(unit) -> str:
    return f"{unit.system}:{unit.model_size}/{unit.total_gpus}gpu"


def run_unit(system, probe=None):
    """(wall s, CPU s, result or None, error text) of one ``System.run()``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, UNIT_TIMEOUT_S)
    try:
        with probe or nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result, error = system.run(), ""
            except Exception:  # a failing unit is counted, not fatal
                result, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return wall, cpu, result, error
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(units, checker: Checker, tally, recorder=None, probed=False) -> PassResult:
    """Build every unit's System, then run and check them in order."""
    from workloads import build_systems

    gc.collect()
    systems = build_systems(units)
    out = PassResult()
    start = time.perf_counter()
    with recorder or nullcontext():
        for unit, system in zip(units, systems):
            events = recorder.calls("sim") if recorder else 0
            probe = SpeedProbe() if probed else None
            wall, cpu, result, error = run_unit(system, probe)
            if probe:
                out.norms.append(probe.normalized_seconds())
            if recorder:
                out.events.append(recorder.calls("sim") - events)
            problems = [error] if error else checker.check(unit, system, result)
            if not tally.record(problems):
                print(f"FAILED {unit_label(unit)}: " + "; ".join(problems), file=sys.stderr)
            else:
                out.tokens += sum(int(it.tokens_trained) for it in result.iterations)
            out.walls.append(wall)
            out.cpus.append(cpu)
    out.wall = time.perf_counter() - start
    return out


def setup_probe_seconds(workload: str, seed: int) -> Tuple[float, float]:
    """(raw, normalised) seconds from spawning a fresh interpreter until its units are built.

    The child normalises its span from importing ``repro`` to the last built
    System (see ``probe``); the interpreter's start before it stays raw.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    fields = line.split()
    if len(fields) != 3 or fields[0] != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
    child_raw, child_norm = float(fields[1]), float(fields[2])
    return elapsed, elapsed - child_raw + child_norm


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_probe_seconds``: import, build, report its seconds."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        from workloads import WORKLOADS, build_systems  # imports repro

        build_systems(WORKLOADS[workload].units(seed))
        raw = time.perf_counter() - start
    print(f"ready {raw!r} {probe.normalized_seconds()!r}", flush=True)


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head[:12]
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()[:12]
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, mode: str, passes: int) -> Dict[str, object]:
    import numpy

    return {"git_rev": git_rev(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": workload, "seed": seed, "mode": mode, "passes": passes}


def end_to_end(args, units, checker: Checker, tally):
    setup_raw, setup = zip(*(setup_probe_seconds(args.workload, args.seed)
                             for _ in range(SETUP_PROBES)))
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(units, checker, tally, probed=True))
        if len(passes) == 1:
            # Later passes would add only allocator slack, so the peak is
            # taken before them and does not depend on how many fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / len(passes)
        if next_end > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and next_end > args.seconds):
            break

    def medians(field_name):
        return [statistics.median(getattr(p, field_name)[i] for p in passes)
                for i in range(len(units))]

    norms, walls, cpus = medians("norms"), medians("walls"), medians("cpus")
    wall_norm_s = sum(norms)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": wall_norm_s,
        "sim_tok_per_norm_s": passes[0].tokens / wall_norm_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{'unit':28s} {'norm s':>8s} {'min':>8s} {'max':>8s} {'wall s':>8s} {'min':>8s} "
          f"{'max':>8s} {'cpu s':>8s}")
    for i, unit in enumerate(units):
        norm = [p.norms[i] for p in passes]
        wall = [p.walls[i] for p in passes]
        print(f"{unit_label(unit):28s} {norms[i]:8.3f} {min(norm):8.3f} {max(norm):8.3f} "
              f"{walls[i]:8.3f} {min(wall):8.3f} {max(wall):8.3f} {cpus[i]:8.3f}")
    print(f"medians over {len(passes)} passes; setup samples (s), normalised: "
          f"{', '.join(f'{s:.3f}' for s in setup)}; raw: "
          f"{', '.join(f'{s:.3f}' for s in setup_raw)}")
    # Raw host seconds, for reading beside the normalised ones; not bounded,
    # because they move with the host's speed.
    print(f"  {'wall_s':40s} {sum(walls):16.6f} s")
    print(f"  {'cpu_s':40s} {sum(cpus):16.6f} s")
    print(f"  {'sim_tok_per_host_s':40s} {passes[0].tokens / sum(walls):16.6f} tok/s")
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}, len(passes))


def per_layer(args, units, checker: Checker, tally):
    untraced = run_pass(units, checker, tally)
    recorder = Recorder()
    traced = run_pass(units, checker, tally, recorder)
    metrics = recorder.metrics()
    print(f"{'unit':28s} {'untraced s':>10s} {'traced s':>9s} {'DES events':>10s}")
    for i, unit in enumerate(units):
        print(f"{unit_label(unit):28s} {untraced.walls[i]:10.3f} {traced.walls[i]:9.3f} "
              f"{traced.events[i]:10d}")
    metrics.update(derived_metrics(metrics, len(units), traced.wall, untraced.wall))
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()}, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    units = workload.units(args.seed)
    checker = Checker(workload, units, args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, passes = measure(args, units, checker, tally)
    mode = "traced" if args.trace else "untraced"
    print(json.dumps({"env": environment(args.workload, args.seed, mode, passes)}))
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:16.6f} {entry['unit']}")
    print(f"  {'failed_frac':40s} {tally.failed_frac:16.6f} ratio "
          f"({tally.failed} of {tally.attempted} unit runs)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
