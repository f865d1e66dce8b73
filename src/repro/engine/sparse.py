"""Sparse (CSR) engine for large, sparse graphs.

The dense engine stores an n×n adjacency matrix — perfect for the paper's
``G(n, 1/2)`` workloads, quadratic waste for sparse topologies (grids,
geometric/sensor networks, scale-free graphs).  This engine keeps the
adjacency in compressed-sparse-row form and computes the one-bit OR
observation with ``numpy.add.reduceat`` over the neighbour lists, so a
round costs O(n + m) with small constants.  It runs the same rules as the
dense engine and is cross-validated against it in the tests.

With mean degree ~8 this comfortably simulates n = 50,000 node networks —
letting the scaling benchmark extend Theorem 2's O(log n) curve well past
the paper's n = 1000.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro.beeping.faults import FaultModel, NO_FAULTS
from repro.beeping.rng import (
    DRAW_BEEP,
    DRAW_LOSS,
    DRAW_SPURIOUS,
    counter_uniforms,
)
from repro.engine.rules import ProbabilityRule
from repro.engine.simulator import (
    ChurnState,
    EngineRun,
    absent_set,
    check_rng_mode,
    faulty_observation,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import verify_mis
from repro.telemetry import probes

DEFAULT_MAX_ROUNDS = 100_000


def build_csr(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR neighbour lists of ``graph``: ``(columns, starts, isolated)``.

    Views of the graph's canonical (read-only) CSR arrays:
    ``columns`` concatenates each vertex's neighbour list; ``starts`` holds
    the *unclamped* per-vertex segment starts (``starts[v] ==
    columns.size`` for a trailing run of isolated vertices).  Consumers
    must therefore pad the gathered flag array with one trailing zero
    before ``np.add.reduceat`` so every start is a valid index — clamping
    the starts instead would silently truncate the last non-empty
    vertex's segment and drop beeps from its highest-index neighbours.
    Empty segments (isolated vertices) still produce garbage sums and are
    masked with ``isolated``.  Shared by :class:`SparseSimulator` and the
    fleet engine's sparse backend so the two stay structurally identical.
    """
    indptr = graph.indptr
    return graph.indices, indptr[:-1], indptr[1:] == indptr[:-1]


def csr_row_counts(
    flags: np.ndarray,
    columns: np.ndarray,
    starts: np.ndarray,
    isolated: np.ndarray,
) -> np.ndarray:
    """Row-wise flagged-neighbour counts over one CSR, for 2-D flags.

    The one implementation of the pad/clamp discipline ``build_csr``
    documents, shared by every batched CSR consumer (fleet, armada and
    message kernels) so the reduceat subtleties — the trailing pad
    column that keeps unclamped starts in range, the garbage sums of
    empty segments — can never drift between engines.  ``flags`` is
    ``(rows, n)`` boolean; returns ``(rows, n)`` int64.
    """
    k, n = flags.shape
    if columns.size == 0:
        return np.zeros((k, n), dtype=np.int64)
    # One trailing zero column keeps every (unclamped) start in range,
    # so trailing empty segments never truncate the last real segment.
    gathered = np.zeros((k, columns.size + 1), dtype=np.int32)
    gathered[:, :-1] = flags[:, columns]
    counts = np.add.reduceat(gathered, starts, axis=1)
    # Empty segments (isolated vertices) yield garbage sums; zero them.
    counts[:, isolated] = 0
    return counts.astype(np.int64)


class SparseSimulator:
    """CSR-based simulator, API-compatible with
    :class:`~repro.engine.simulator.VectorizedSimulator`."""

    def __init__(self, graph: Graph, max_rounds: int = DEFAULT_MAX_ROUNDS) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self._graph = graph
        self._max_rounds = max_rounds
        self._columns, self._starts, self._isolated = build_csr(graph)

    @property
    def graph(self) -> Graph:
        """The simulated graph."""
        return self._graph

    def _neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, how many neighbours have their flag set."""
        n = self._graph.num_vertices
        if n == 0 or self._columns.size == 0:
            return np.zeros(n, dtype=np.int64)
        # One trailing zero keeps every (unclamped) start in range, so
        # trailing empty segments never truncate the last real segment.
        gathered = np.zeros(self._columns.size + 1, dtype=np.int64)
        gathered[:-1] = flags[self._columns]
        # reduceat over CSR segments; empty segments (isolated vertices)
        # yield garbage, masked out below.
        counts = np.add.reduceat(gathered, self._starts)
        counts[self._isolated] = 0
        return counts

    def _neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, whether any neighbour's flag is set."""
        return self._neighbor_counts(flags) > 0

    def run(
        self,
        rule: ProbabilityRule,
        seed: int,
        validate: bool = False,
        faults: FaultModel = NO_FAULTS,
        rng_mode: str = "stream",
    ) -> EngineRun:
        """Execute one full simulation with the given rule and seed.

        Bit-identical to :meth:`VectorizedSimulator.run
        <repro.engine.simulator.VectorizedSimulator.run>` under the same
        seed, fault model and ``rng_mode`` (in ``"stream"`` mode the two
        share the per-round draw order; in ``"counter"`` mode every
        uniform is a pure function of its counter, so order is moot).
        """
        check_rng_mode(rng_mode)
        churn_schedule = faults.churn_schedule
        has_churn = not churn_schedule.is_empty()
        graph = self._graph
        columns, starts, isolated = self._columns, self._starts, self._isolated
        if has_churn:
            # Rebuild the CSR on the universe graph for this run — churn
            # runs are niche, so per-run construction beats complicating
            # the cached structures.
            graph = churn_schedule.universe_graph(graph)
            columns, starts, isolated = build_csr(graph)
        n = graph.num_vertices

        def neighbor_counts(flags: np.ndarray) -> np.ndarray:
            if n == 0 or columns.size == 0:
                return np.zeros(n, dtype=np.int64)
            gathered = np.zeros(columns.size + 1, dtype=np.int64)
            gathered[:-1] = flags[columns]
            counts = np.add.reduceat(gathered, starts)
            counts[isolated] = 0
            return counts

        def neighbor_or(flags: np.ndarray) -> np.ndarray:
            return neighbor_counts(flags) > 0

        counter = rng_mode == "counter"
        rng = None if counter else np.random.default_rng(seed)
        loss = faults.beep_loss_probability
        spurious = faults.spurious_beep_probability
        crash_masks: Dict[int, np.ndarray] = faults.crash_schedule.round_masks(n)
        crashed = np.zeros(n, dtype=bool)
        in_mis = np.zeros(n, dtype=bool)
        probabilities = rule.initial(n)
        beeps = np.zeros(n, dtype=np.int64)
        churn = ChurnState(churn_schedule, n) if has_churn else None
        last_event = churn.last_event_round if has_churn else -1
        active = churn.initial_active() if has_churn else np.ones(n, dtype=bool)
        initial_row = rule.initial(n) if has_churn else None
        recovered = True
        rounds = 0
        while active.any() or rounds <= last_event:
            if rounds >= self._max_rounds:
                if has_churn:
                    recovered = False
                    break
                raise RuntimeError(
                    f"sparse simulation exceeded {self._max_rounds} rounds"
                )
            if has_churn and churn.apply_events(
                rounds, active, in_mis, crashed, neighbor_or,
                probabilities, initial_row,
            ):
                if not active.any():
                    churn.record_quiescence(rounds, True)
            crash = crash_masks.get(rounds)
            if crash is not None:
                newly_crashed = active & crash
                crashed |= newly_crashed
                active &= ~newly_crashed
            if counter:
                uniforms = counter_uniforms(seed, rounds, DRAW_BEEP, n)
            else:
                uniforms = rng.random(n)
            beep = active & (uniforms < probabilities)
            counts = neighbor_counts(beep)
            heard_true = counts > 0
            if loss > 0.0 or spurious > 0.0:
                if counter:
                    loss_uniforms = (
                        counter_uniforms(seed, rounds, DRAW_LOSS, n)
                        if loss > 0.0
                        else None
                    )
                    spurious_uniforms = (
                        counter_uniforms(seed, rounds, DRAW_SPURIOUS, n)
                        if spurious > 0.0
                        else None
                    )
                else:
                    loss_uniforms = rng.random(n) if loss > 0.0 else None
                    spurious_uniforms = (
                        rng.random(n) if spurious > 0.0 else None
                    )
                heard = faulty_observation(
                    counts, loss, spurious, loss_uniforms, spurious_uniforms
                )
            else:
                heard = heard_true
            probabilities = rule.update(probabilities, heard, active, rounds)
            # Second exchange stays reliable: joins come from the true OR.
            joined = beep & ~heard_true
            in_mis |= joined
            neighbor_joined = neighbor_or(joined)
            beeps += beep
            active &= ~(joined | neighbor_joined)
            rounds += 1
            if has_churn and not active.any():
                churn.record_quiescence(rounds, True, applied_rounds=rounds - 1)
        mis: Set[int] = {int(v) for v in np.flatnonzero(in_mis)}
        crashed_set = {int(v) for v in np.flatnonzero(crashed)}
        absent = absent_set(churn) if has_churn else set()
        repair_rounds = (
            tuple(int(r) for r in churn.repair) if has_churn else ()
        )
        if probes.enabled():
            probes.count("engine.sparse.runs")
            probes.count("engine.sparse.rounds", rounds)
            if has_churn:
                probes.count(
                    "engine.churn.events", len(churn_schedule.events)
                )
        if validate and recovered:
            verify_mis(graph, mis, crashed=crashed_set, absent=absent)
        return EngineRun(
            rule_name=rule.name,
            num_vertices=n,
            rounds=rounds,
            mis=mis,
            beeps_by_node=beeps,
            crashed=crashed_set,
            absent=absent,
            repair_rounds=repair_rounds,
            recovered=recovered,
        )
