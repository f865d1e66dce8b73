"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-spec`` regenerates it, and the
benchmark's own tests check the committed file against it).  It imports
nothing outside the standard library, so the spec can be written and
checked without the program under test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seconds one run measures; every run also pays its set-up (imports,
#: warm-up and ``SETUP_SAMPLES`` timed set-ups in fresh processes).
#: With three workloads, 70 runs of about 40 s each fit the 3420 s that
#: all runs of a benchmark check may take.
RUN_SECONDS = 30

#: The seed a run uses when none is given.
DEFAULT_SEED = 0


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen;
    #: ``None`` for per-layer metrics, which carry no bound.
    bound: float = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "paper",
        "cold then warm run_paper: the one-command user path; the only "
        "workload that drives bio, store reads, the run DB and rendering",
    ),
    Workload(
        "dense_fleet",
        "feedback G(1000, 1/2) cell, 1024 trials on dense GEMM: round loop "
        "and per-trial costs (draws, rule, verify, row emission) dominate",
    ),
    Workload(
        "sparse_scale",
        "feedback G(100000, 8/n) cell, 8 trials on CSR: graph build, "
        "verification and sparse reduction dominate, per-trial costs do not",
    ),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("trials_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("graphs.build_s", "s", "lower"),
    Metric("graphs.edges", "count", "lower"),
    Metric("graphs.verify_s", "s", "lower"),
    Metric("graphs.verify_calls", "count", "lower"),
    Metric("engine.operand_s", "s", "lower"),
    Metric("beeping.rng.draw_s", "s", "lower"),
    Metric("beeping.rng.fault_draw_s", "s", "lower"),
    Metric("beeping.rng.uniforms", "count", "lower"),
    Metric("engine.reduce_s", "s", "lower"),
    Metric("engine.rule_s", "s", "lower"),
    Metric("engine.faults_s", "s", "lower"),
    Metric("engine.loop_s", "s", "lower"),
    Metric("engine.rounds", "count", "lower"),
    Metric("engine.trials", "count", "higher"),
    Metric("experiments.runner.emit_s", "s", "lower"),
    Metric("sweep.shard_s", "s", "lower"),
    Metric("sweep.shards_executed", "count", "lower"),
    Metric("sweep.shards_cached", "count", "higher"),
    Metric("sweep.store.get_s", "s", "lower"),
    Metric("sweep.store.put_s", "s", "lower"),
    Metric("sweep.store.hit_ratio", "ratio", "higher"),
    Metric("sweep.store.bytes_written", "bytes", "lower"),
    Metric("sweep.rundb.append_s", "s", "lower"),
    Metric("bio.integrate_s", "s", "lower"),
    Metric("bio.rhs_calls", "count", "lower"),
    Metric("experiments.golden_s", "s", "lower"),
    Metric("experiments.render_s", "s", "lower"),
    Metric("import_s", "s", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.unattributed_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)


def benchmark_json() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document this module defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [w._asdict() for w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    """The exact bytes of the committed ``BENCHMARK.json``."""
    return json.dumps(benchmark_json(), indent=2) + "\n"
