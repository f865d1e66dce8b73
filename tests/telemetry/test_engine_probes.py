"""Every engine emits the probes ``docs/observability.md`` documents.

The transparency suite proves probes never change results; this module
proves the documented names actually fire, engine by engine, so a probe
that silently drops out of one engine's loop is caught.
"""

from __future__ import annotations

import pytest

from repro.beeping.rng import derive_seed_block
from repro.engine.fleet import ArmadaSimulator
from repro.engine.rules import FeedbackRule
from repro.telemetry.probes import capture
from tests.engine.conftest import ENGINE_IDS
from tests.engine.test_churn import CHURN_FAULTS, churn_graph, run_pair

RUN_COUNTERS = {
    "dense": "engine.dense.runs",
    "sparse": "engine.sparse.runs",
    "fleet-dense": "engine.fleet.runs",
    "fleet-sparse": "engine.fleet.runs",
    "fleet-bitboard": "engine.fleet.runs",
}


def _assert_churn_probes(collector, runs: int) -> None:
    events = len(CHURN_FAULTS.churn_schedule.events)
    assert collector.counters["engine.churn.events"] == runs * events
    assert collector.gauges["engine.repair.rounds"] >= 0.0


@pytest.mark.parametrize("engine_id", ENGINE_IDS)
def test_churn_run_emits_repair_gauge(engine_id):
    """``engine.repair.rounds`` is emitted by any engine under churn."""
    with capture() as collector:
        run_pair(engine_id, "counter", CHURN_FAULTS)
    assert collector.counters[RUN_COUNTERS[engine_id]] == 1
    _assert_churn_probes(collector, runs=1)


def test_armada_churn_run_emits_repair_gauge():
    graph = churn_graph()
    seed_rows = [derive_seed_block(11, g, count=2) for g in range(2)]
    with capture() as collector:
        ArmadaSimulator([graph, graph]).run_armada(
            FeedbackRule(), seed_rows, faults=CHURN_FAULTS
        )
    assert collector.counters["engine.armada.runs"] == 1
    _assert_churn_probes(collector, runs=4)
