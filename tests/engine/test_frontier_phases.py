"""Phase coverage: the conformance wall drives the shared counter frontier.

:func:`repro.engine.fleet.run_counter_frontier` is the one entry-level
tail of two callers — the armada (after its dense phase) and the bitboard
fleet (after its compacted full-width phase).  The bit-equality tests in
``test_conformance.py`` only guard that code if their cases actually
reach it, so this module re-runs those exact cases under a probe
collector and asserts which phases executed:

- the fault-free armada cell reaches *both* armada phases on every
  backend (``engine.armada.dense_rounds`` and
  ``engine.armada.frontier_rounds`` both positive);
- the counter-mode bitboard fleet runs enter the frontier
  (``engine.bitboard.frontier_transitions``).
"""

from __future__ import annotations

import pytest

from repro.beeping.rng import derive_seed
from repro.engine.fleet import ArmadaSimulator, FleetSimulator
from repro.telemetry.probes import capture

from tests.engine.conftest import (
    CONFORMANCE_GRAPHS,
    armada_case,
    engine_run,
    make_rule,
)
from tests.engine.test_conformance import MASTER_SEED, RULE_NAMES


ARMADA_RULES = ("feedback", "afek-sweep")


@pytest.mark.parametrize("rule_name", ARMADA_RULES)
@pytest.mark.parametrize("backend", ("dense", "sparse", "bitboard"))
def test_armada_case_runs_dense_then_frontier_rounds(backend, rule_name):
    """``TestArmadaConformance``'s fault-free cell reaches both phases."""
    graphs, seed_rows = armada_case(MASTER_SEED)
    with capture() as collector:
        ArmadaSimulator(graphs, backend=backend).run_armada(
            make_rule(rule_name, graphs[0]), seed_rows
        )
    counters = collector.counters
    assert counters["engine.armada.dense_rounds"] > 0
    assert counters["engine.armada.frontier_rounds"] > 0
    assert counters["engine.armada.frontier_transitions"] == 1


@pytest.mark.parametrize("rule_name", ARMADA_RULES)
def test_armada_case_bitboard_fleets_enter_the_frontier(rule_name):
    """The per-graph bitboard fleet runs that cell is compared against."""
    graphs, seed_rows = armada_case(MASTER_SEED)
    for graph, row in zip(graphs, seed_rows):
        with capture() as collector:
            FleetSimulator(graph, backend="bitboard").run_fleet(
                make_rule(rule_name, graph), row, rng_mode="counter"
            )
        assert (
            collector.counters["engine.bitboard.frontier_transitions"] >= 1
        )


@pytest.mark.parametrize(
    "graph_id", list(CONFORMANCE_GRAPHS), ids=list(CONFORMANCE_GRAPHS)
)
@pytest.mark.parametrize("rule_name", RULE_NAMES)
def test_bit_equality_bitboard_runs_enter_the_frontier(graph_id, rule_name):
    """``TestBitEquality``'s counter-mode fleet-bitboard runs."""
    graph = CONFORMANCE_GRAPHS[graph_id]()
    seed = derive_seed(MASTER_SEED, graph.num_vertices, graph.num_edges)
    with capture() as collector:
        engine_run(
            "fleet-bitboard",
            graph,
            lambda: make_rule(rule_name, graph),
            seed,
            rng_mode="counter",
        )
    assert collector.counters["engine.bitboard.frontier_transitions"] >= 1
