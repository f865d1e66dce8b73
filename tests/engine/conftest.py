"""Shared fixtures for the engine suite: one registry of all fast engines.

The conformance and property tests sweep "every engine x every graph
family x every rule".  This conftest centralises that matrix:

- :func:`engine_run` executes one seeded trial on any engine by id and
  returns the common :class:`~repro.engine.simulator.EngineRun`;
- ``engine_id`` parametrises a test over all five fast engines (the
  fleet engine counts once per backend: dense, sparse, bitboard);
- ``conformance_graph`` parametrises over the graph families the engines
  must agree on (dense/sparse random, grid, geometric, star, isolated
  vertices);
- :func:`armada_case` is the ragged three-graph armada cell the armada
  conformance test runs.
"""

from __future__ import annotations

from random import Random
from typing import Callable

import pytest

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import RNG_MODES, derive_seed_block
from repro.engine.fleet import FleetSimulator
from repro.engine.rules import (
    FeedbackRule,
    GlobalScheduleRule,
    ProbabilityRule,
    SweepRule,
)
from repro.engine.simulator import EngineRun, VectorizedSimulator
from repro.engine.sparse import SparseSimulator
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph

ENGINE_IDS = (
    "dense", "sparse", "fleet-dense", "fleet-sparse", "fleet-bitboard",
)

RULE_FACTORIES = {
    "feedback": FeedbackRule,
    "afek-sweep": SweepRule,
}


def make_rule(name: str, graph: Graph) -> ProbabilityRule:
    """A fresh rule instance by name (afek-global needs graph parameters)."""
    if name == "afek-global":
        return GlobalScheduleRule(graph.num_vertices, max(graph.max_degree(), 1))
    return RULE_FACTORIES[name]()


def engine_run(
    engine_id: str,
    graph: Graph,
    rule_factory: Callable[[], ProbabilityRule],
    seed: int,
    validate: bool = False,
    max_rounds: int = 100_000,
    faults: FaultModel = NO_FAULTS,
    rng_mode: str = "stream",
) -> EngineRun:
    """One seeded trial on the engine named by ``engine_id``."""
    if engine_id == "dense":
        return VectorizedSimulator(graph, max_rounds=max_rounds).run(
            rule_factory(), seed, validate=validate, faults=faults,
            rng_mode=rng_mode,
        )
    if engine_id == "sparse":
        return SparseSimulator(graph, max_rounds=max_rounds).run(
            rule_factory(), seed, validate=validate, faults=faults,
            rng_mode=rng_mode,
        )
    if engine_id.startswith("fleet-"):
        backend = engine_id.split("-", 1)[1]
        simulator = FleetSimulator(graph, max_rounds=max_rounds, backend=backend)
        return simulator.run_fleet(
            rule_factory(), [seed], validate=validate, faults=faults,
            rng_mode=rng_mode,
        ).trial_run(0)
    raise ValueError(f"unknown engine id {engine_id!r}")


def armada_case(master_seed: int):
    """Three ``G(22, 0.3)`` graphs and their ragged seed rows (5, 4, 3
    trials), like a ``trial_range``-windowed cell."""
    graphs = [gnp_random_graph(22, 0.3, Random(900 + g)) for g in range(3)]
    seed_rows = [
        derive_seed_block(master_seed, g, 1, count=5 - g, start=g)
        for g in range(3)
    ]
    return graphs, seed_rows


CONFORMANCE_GRAPHS = {
    "gnp-dense": lambda: gnp_random_graph(40, 0.5, Random(401)),
    "gnp-sparse": lambda: gnp_random_graph(60, 0.05, Random(402)),
    "grid": lambda: grid_graph(6, 5),
    "geometric": lambda: random_geometric_graph(35, 0.3, Random(403)),
    "star": lambda: star_graph(9),
    "isolated": lambda: empty_graph(7),
}


@pytest.fixture(params=ENGINE_IDS)
def engine_id(request) -> str:
    """Every fast engine, by id."""
    return request.param


@pytest.fixture(params=RNG_MODES)
def rng_mode(request) -> str:
    """Both uniform-stream disciplines, by name."""
    return request.param


@pytest.fixture(
    params=list(CONFORMANCE_GRAPHS), ids=list(CONFORMANCE_GRAPHS)
)
def conformance_graph(request) -> Graph:
    """Every conformance graph family, freshly built."""
    return CONFORMANCE_GRAPHS[request.param]()
