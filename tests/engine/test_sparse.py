"""Tests for the sparse (CSR) engine, including exact equivalence with the
dense engine — both consume the same numpy random stream in the same order,
so identical seeds must give identical runs."""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rules import FeedbackRule, SweepRule
from repro.engine.simulator import VectorizedSimulator
from repro.engine.sparse import (
    SparseSimulator,
    build_csr,
    csr_row_counts,
    csr_row_or,
)
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph, random_geometric_graph
from repro.graphs.structured import empty_graph, grid_graph, star_graph


class TestBasics:
    def test_empty_graph(self):
        run = SparseSimulator(empty_graph(0)).run(FeedbackRule(), 1)
        assert run.rounds == 0
        assert run.mis == set()

    def test_isolated_vertices(self):
        run = SparseSimulator(empty_graph(5)).run(
            FeedbackRule(), 2, validate=True
        )
        assert run.mis == set(range(5))

    def test_mixed_isolated_and_connected(self):
        graph = Graph(5, [(1, 2), (2, 3)])
        run = SparseSimulator(graph).run(FeedbackRule(), 3, validate=True)
        assert 0 in run.mis
        assert 4 in run.mis

    def test_trailing_isolated_vertices(self):
        # Regression guard for the reduceat boundaries: isolated vertices
        # at the END of the index range have empty trailing CSR segments.
        graph = Graph(6, [(0, 1)])
        run = SparseSimulator(graph).run(FeedbackRule(), 4, validate=True)
        assert {2, 3, 4, 5} <= run.mis

    def test_trailing_isolated_vertices_do_not_truncate_hearing(self):
        # A clamped trailing start used to cut the last non-empty CSR
        # segment short, dropping beeps from a vertex's highest-index
        # neighbours (sparse run then disagreed with dense on rounds).
        from repro.engine.sparse import SparseSimulator as SS

        # Vertex 2's CSR segment [2, 4) is the last one; vertex 3 is a
        # trailing isolated vertex whose start the old clamp pulled back
        # to 3, cutting neighbour 1 out of vertex 2's segment.
        graph = Graph(4, [(2, 0), (2, 1)])
        simulator = SS(graph)
        only_1 = np.array([False, True, False, False])
        heard = simulator._neighbor_or(only_1)
        assert list(heard) == [False, False, True, False]

    def test_star(self):
        run = SparseSimulator(star_graph(20)).run(
            FeedbackRule(), 5, validate=True
        )
        assert run.rounds >= 1

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError):
            SparseSimulator(empty_graph(1), max_rounds=0)


class TestExactEquivalenceWithDense:
    @pytest.mark.parametrize("seed", range(5))
    def test_identical_runs_random_graph(self, seed):
        graph = gnp_random_graph(40, 0.2, Random(seed))
        dense = VectorizedSimulator(graph).run(FeedbackRule(), 100 + seed)
        sparse = SparseSimulator(graph).run(FeedbackRule(), 100 + seed)
        assert dense.mis == sparse.mis
        assert dense.rounds == sparse.rounds
        assert np.array_equal(dense.beeps_by_node, sparse.beeps_by_node)

    def test_identical_runs_sweep(self):
        graph = gnp_random_graph(30, 0.3, Random(9))
        dense = VectorizedSimulator(graph).run(SweepRule(), 7)
        sparse = SparseSimulator(graph).run(SweepRule(), 7)
        assert dense.mis == sparse.mis
        assert dense.rounds == sparse.rounds

    def test_identical_runs_grid(self):
        graph = grid_graph(8, 8)
        dense = VectorizedSimulator(graph).run(FeedbackRule(), 11)
        sparse = SparseSimulator(graph).run(FeedbackRule(), 11)
        assert dense.mis == sparse.mis


class TestCsrRowOr:
    """``csr_row_or`` is ``csr_row_counts(...) > 0``, bit for bit, at every
    row count around its word and block boundaries."""

    GRAPHS = {
        "gnp": lambda: gnp_random_graph(40, 0.15, Random(3)),
        # Isolated vertices 0, 3 and 5 inside the index range.
        "isolated": lambda: Graph(8, [(1, 2), (2, 4), (4, 6), (6, 7), (1, 7)]),
        # The unclamped-starts case: a trailing isolated run whose starts
        # equal columns.size, after a last segment with a high neighbour.
        "trailing": lambda: Graph(7, [(2, 0), (2, 1), (0, 1)]),
        "no_edges": lambda: empty_graph(6),
        "empty": lambda: empty_graph(0),
    }

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_counts(self, name, rows):
        graph = self.GRAPHS[name]()
        csr = build_csr(graph)
        flags = np.random.default_rng(rows).random(
            (rows, graph.num_vertices)
        ) < 0.3
        result = csr_row_or(flags, *csr)
        assert result.dtype == bool
        assert result.shape == flags.shape
        assert np.array_equal(result, csr_row_counts(flags, *csr) > 0)

    def test_trailing_run_keeps_last_segment(self):
        # Only vertex 1 beeps: vertex 2 (the last non-empty segment) must
        # hear it in every packed row, the trailing run must not.
        columns, starts, isolated = build_csr(Graph(6, [(2, 0), (2, 1)]))
        assert starts[-1] == columns.size
        flags = np.zeros((9, 6), dtype=bool)
        flags[:, 1] = True
        heard = csr_row_or(flags, columns, starts, isolated)
        assert heard[:, 2].all()
        assert not heard[:, 3:].any()


class TestScale:
    def test_large_sparse_network(self):
        """The engine's reason to exist: n = 5000 sensor network."""
        graph = random_geometric_graph(5000, 0.025, Random(13))
        run = SparseSimulator(graph).run(FeedbackRule(), 14, validate=True)
        assert run.rounds < 60
        assert run.mean_beeps_per_node < 3.0


@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.5),
    graph_seed=st.integers(min_value=0, max_value=2**32 - 1),
    run_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_property_sparse_matches_dense(n, p, graph_seed, run_seed):
    graph = gnp_random_graph(n, p, Random(graph_seed))
    dense = VectorizedSimulator(graph, max_rounds=50_000).run(
        FeedbackRule(), run_seed
    )
    sparse = SparseSimulator(graph, max_rounds=50_000).run(
        FeedbackRule(), run_seed
    )
    assert dense.mis == sparse.mis
    assert dense.rounds == sparse.rounds
