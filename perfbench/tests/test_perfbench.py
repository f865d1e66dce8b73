"""Tests of the benchmark itself: tracing, checks and the printed result.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import run, spec, tracer as tracing, workloads
from repro.sweep import orchestrator

ROOT = spec.ROOT


def small_cell(workload: str, seed: int = 3):
    return workloads.cell_spec(workload, seed, n=64, trials=16)


# ---------------------------------------------------------------------------
# Self-time arithmetic.
# ---------------------------------------------------------------------------


def test_self_times_of_synthetic_nested_spans():
    S = tracing.Span
    spans = [
        S("repetition", tracing.UNATTRIBUTED, 0.0, 10.0, -1, 0),
        S("a", "layer.a", 1.0, 5.0, 0, 0),
        S("b", "layer.b", 2.0, 3.0, 1, 0),
        S("a", "layer.a", 6.0, 8.0, 0, 0),
        S("repetition", tracing.UNATTRIBUTED, 20.0, 25.0, -1, 1),
        S("b", "layer.b", 21.0, 22.5, 4, 1),
    ]
    selfs = tracing.self_times(spans)
    assert dict(selfs[0]) == {
        tracing.UNATTRIBUTED: 4.0,
        "layer.a": 5.0,
        "layer.b": 1.0,
    }
    assert dict(selfs[1]) == {tracing.UNATTRIBUTED: 3.5, "layer.b": 1.5}
    assert tracing.root_walls(spans) == {0: 10.0, 1: 5.0}
    for rep, wall in tracing.root_walls(spans).items():
        assert sum(selfs[rep].values()) == pytest.approx(wall)


def test_tracer_records_parents_and_rejects_out_of_order_close():
    tracer = tracing.Tracer()
    with tracer.repetition(7):
        outer = tracer.open("outer", "layer.a")
        inner = tracer.open("inner", "layer.b")
        assert tracer.enclosing_metric() == "layer.b"
        tracer.close(inner)
        tracer.close(outer)
    root, outer_span, inner_span = tracer.finished()
    assert (root.parent, outer_span.parent, inner_span.parent) == (-1, 0, 1)
    assert {span.rep for span in tracer.finished()} == {7}
    first = tracer.open("x", "layer.a")
    tracer.open("y", "layer.a")
    with pytest.raises(RuntimeError):
        tracer.close(first)


# ---------------------------------------------------------------------------
# Patching.
# ---------------------------------------------------------------------------


def _attribute_snapshot():
    """Every attribute of every repro module and repro-defined class."""
    snapshot = {}
    for module in tracing._repro_modules():
        for name, value in list(vars(module).items()):
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, raw in list(vars(value).items()):
                    snapshot[(value.__module__, value.__qualname__, attr)] = raw
    return snapshot


def test_patch_and_restore_leave_every_attribute_identical():
    before = _attribute_snapshot()
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        patched = _attribute_snapshot()
        changed = [key for key in before if patched.get(key) is not before[key]]
        assert ("repro.sweep.orchestrator", "run_sweep") in changed
        assert ("repro.sweep.spec", "gnp_random_graph") in changed
        assert ("repro.engine.fleet", "verify_mis") in changed
        assert ("repro.graphs.graph", "Graph", "__init__") in changed
    finally:
        patcher.restore()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


# ---------------------------------------------------------------------------
# Tracing changes no output.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["dense_fleet", "sparse_scale"])
def test_traced_and_untraced_rows_are_identical(workload):
    # The warm-up cell keeps the workload's backend: CSR for sparse_scale.
    sweep = workloads.one_shard(workloads.warm_up_cell(workload, 3))
    untraced = orchestrator.run_sweep(sweep, jobs=1)
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.repetition(0):
        traced = orchestrator.run_sweep(sweep, jobs=1)
    cell = sweep.cells[0]
    assert workloads.rows_digest(traced.rows(cell)) == workloads.rows_digest(
        untraced.rows(cell)
    )
    spans = tracer.finished()
    metrics = {span.metric for span in spans}
    assert {"graphs.build_s", "engine.loop_s", "graphs.verify_s"} <= metrics
    wall = tracing.root_walls(spans)[0]
    assert sum(tracing.self_times(spans)[0].values()) == pytest.approx(wall)
    assert tracer.counts[0]["engine.trials"] == cell.trials
    assert tracer.counts[0]["graphs.verify_calls"] == cell.trials


# ---------------------------------------------------------------------------
# Output checks feed failed_frac.
# ---------------------------------------------------------------------------


def test_clean_repetitions_pass(tmp_path):
    workload = workloads.CellWorkload("dense_fleet", 3, small_cell("dense_fleet"))
    priming, reps, _ = run.measure(workload, tmp_path, 0.0)
    assert not priming.problems
    assert len(reps) == run.MIN_REPETITIONS
    assert all(not rep.problems for rep in reps)


def test_tampered_row_fails_its_repetition(tmp_path, monkeypatch):
    cell = small_cell("dense_fleet")
    workload = workloads.CellWorkload("dense_fleet", 3, cell)
    workload.expected = workloads.rows_digest(
        orchestrator.run_sweep(workload.sweep, jobs=1).rows(cell)
    )
    real_run_sweep = orchestrator.run_sweep
    calls = []

    def tampering_run_sweep(spec, store=None, jobs=1):
        result = real_run_sweep(spec, store, jobs)
        calls.append(spec)
        if len(calls) == 1:  # the very first (priming) cold run
            rows = result.outcomes[cell]
            rows[0] = dataclasses.replace(rows[0], rounds=rows[0].rounds + 1)
        return result

    monkeypatch.setattr(orchestrator, "run_sweep", tampering_run_sweep)
    priming, reps, _ = run.measure(workload, tmp_path, 0.0)
    assert any("digest" in problem for problem in priming.problems)
    assert all(not rep.problems for rep in reps)
    attempted = [priming] + reps
    failed = sum(1 for rep in attempted if rep.problems)
    assert failed / len(attempted) > 0


def test_pinned_digest_mismatch_fails(tmp_path):
    workload = workloads.CellWorkload("dense_fleet", 3, small_cell("dense_fleet"))
    workload.expected = "0" * 64
    rep = workload.repetition(tmp_path)
    assert len(rep.problems) == 1 + workloads.CELL_WARM_RUNS


def test_failed_shard_fails_the_repetition(tmp_path, monkeypatch):
    def refuse(shard, attempt):
        raise RuntimeError("injected")

    monkeypatch.setattr(orchestrator, "_failure_injector", refuse)
    workload = workloads.CellWorkload("dense_fleet", 3, small_cell("dense_fleet"))
    rep = workload.repetition(tmp_path)
    assert any("injected" in problem for problem in rep.problems)


def test_pinned_digests_cover_the_default_seed():
    for name in workloads.CELLS:
        assert spec.DEFAULT_SEED in workloads.PINNED_DIGESTS[name]


# ---------------------------------------------------------------------------
# Host-speed scaling.
# ---------------------------------------------------------------------------


def test_times_scale_by_the_host_speed_and_memory_does_not():
    reps = [workloads.Repetition(2.0, [0.1, 0.3], 100, [], 50.0)]
    raw = run.end_to_end_samples(reps, [0.4])
    scaled = run.end_to_end_samples(reps, [0.4], scale=0.5, setup_scale=2.0)
    assert scaled["wall_s"] == [1.0]
    assert scaled["warm_s"] == [0.05, 0.15]
    assert scaled["trials_per_s"] == [2 * raw["trials_per_s"][0]]
    assert scaled["setup_s"] == [0.8]
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == [50.0]


def test_host_speed_scale_is_reference_over_median_probe():
    speed = run.HostSpeed()
    speed.sample()
    speed.sample()
    assert len(speed.samples) == 2 * run.PROBES_PER_GAP
    assert speed.scale() == pytest.approx(
        run.PROBE_REFERENCE_S / statistics.median(speed.samples)
    )


def test_probe_arrays_stay_below_the_mmap_threshold():
    speed = run.HostSpeed()
    assert speed._matrix.nbytes < 128 * 1024
    assert speed._vector.nbytes < 128 * 1024


# ---------------------------------------------------------------------------
# The spec and the printed result.
# ---------------------------------------------------------------------------


def test_committed_benchmark_json_matches_spec():
    assert spec.SPEC_PATH.read_text(encoding="utf-8") == spec.render_benchmark_json()


def test_benchmark_json_stays_within_format_limits():
    doc = json.loads(spec.SPEC_PATH.read_text(encoding="utf-8"))
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 1 <= doc["run_seconds"] <= 60


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_bench(
        "--workload", "paper", "--seed", "0", "--seconds", "0", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    doc = json.loads(spec.SPEC_PATH.read_text(encoding="utf-8"))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in doc[section]
    }
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(
            value
            for name, value in values.items()
            if name.endswith("_s") and name not in ("import_s", "trace.wall_s")
        )
        assert layers == pytest.approx(values["trace.wall_s"])


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(spec.SPEC_PATH, tmp_path / "BENCHMARK.json")
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    proc = _run_bench(
        "--workload", "paper", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
