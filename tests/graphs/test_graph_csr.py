"""Contract tests for the CSR-backed :class:`Graph`.

The array-built graph must agree with a reference computed from a plain
Python set of edges — neighbours, edge order, counts, equality and
hashing — whether the edges arrive as a list of pairs or as an
``(m, 2)`` integer array, and both inputs must keep the constructor's
``TypeError`` / ``ValueError`` contracts.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.bitboard import pack_adjacency, unpack_bits
from repro.engine.sparse import build_csr
from repro.graphs.graph import Graph


@st.composite
def edge_lists(draw, max_vertices: int = 14) -> Tuple[int, List[Tuple[int, int]]]:
    """``(n, pairs)``: loop-free pairs in either orientation, duplicates kept."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return n, []
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
            max_size=3 * n,
        )
    )
    return n, pairs


def reference(n: int, pairs) -> Tuple[Set[Tuple[int, int]], Dict[int, Set[int]]]:
    edges = {(min(u, v), max(u, v)) for u, v in pairs}
    adjacency: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return edges, adjacency


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_array_built_graph_matches_set_reference(case):
    n, pairs = case
    edges, adjacency = reference(n, pairs)
    graph = Graph(n, pairs)
    assert graph.num_vertices == n
    assert graph.num_edges == len(edges)
    assert list(graph.edges()) == sorted(edges)
    for v in range(n):
        assert graph.neighbors(v) == tuple(sorted(adjacency[v]))
        assert graph.neighbor_set(v) == frozenset(adjacency[v])
        assert graph.degree(v) == len(adjacency[v])
    assert graph.degrees() == tuple(len(adjacency[v]) for v in range(n))
    assert graph.edge_array().tolist() == [list(e) for e in sorted(edges)]


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.integers(min_value=0, max_value=2**32 - 1))
def test_input_form_and_order_do_not_matter(case, seed):
    n, pairs = case
    graph = Graph(n, pairs)
    shuffled = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(pairs)]
    Random(seed).shuffle(shuffled)
    variants = [
        Graph(n, shuffled),
        Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)),
        Graph(n, np.array(shuffled, dtype=np.int32).reshape(-1, 2)),
        Graph(n, iter(pairs)),
        Graph(n, sorted(reference(n, pairs)[0])),
    ]
    for other in variants:
        assert other == graph
        assert hash(other) == hash(graph)
        assert np.array_equal(other.indptr, graph.indptr)
        assert np.array_equal(other.indices, graph.indices)


@settings(max_examples=100, deadline=None)
@given(edge_lists(), edge_lists())
def test_equality_is_edge_set_equality(first, second):
    (n1, pairs1), (n2, pairs2) = first, second
    same = n1 == n2 and reference(n1, pairs1)[0] == reference(n2, pairs2)[0]
    assert (Graph(n1, pairs1) == Graph(n2, pairs2)) == same


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_derived_operands_are_views_of_the_csr(case):
    n, pairs = case
    graph = Graph(n, pairs)
    _, adjacency = reference(n, pairs)
    expected = np.zeros((n, n), dtype=bool)
    for u, neighbours in adjacency.items():
        expected[u, sorted(neighbours)] = True
    assert np.array_equal(graph.adjacency_matrix(), expected)
    assert np.array_equal(unpack_bits(pack_adjacency(graph), n), expected)
    columns, starts, isolated = build_csr(graph)
    for v in range(n):
        degree = len(adjacency[v])
        assert isolated[v] == (degree == 0)
        segment = columns[starts[v]:starts[v] + degree]
        assert segment.tolist() == sorted(adjacency[v])


def test_csr_arrays_are_read_only():
    graph = Graph(3, [(0, 1), (1, 2)])
    assert graph.indptr.dtype == graph.indices.dtype == np.int64
    with pytest.raises(ValueError):
        graph.indices[0] = 2
    with pytest.raises(ValueError):
        graph.indptr[0] = 1


def test_degree_queries_build_no_lazy_views(monkeypatch):
    graph = Graph(4, [(0, 1), (1, 2), (1, 3)])

    def refuse(self):
        raise AssertionError("lazy neighbour views were built")

    monkeypatch.setattr(Graph, "_neighbor_tuples", refuse)
    assert [graph.degree(v) for v in range(4)] == [1, 3, 1, 1]
    assert graph.degrees() == (1, 3, 1, 1)
    assert (graph.max_degree(), graph.min_degree()) == (3, 1)


# ---------------------------------------------------------------------------
# Constructor error contracts, for list and ndarray input alike.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "edges",
    [[(0, "1")], np.array([[0, "1"]]), [(0, True)], np.array([[False, True]])],
    ids=["str-list", "str-array", "bool-list", "bool-array"],
)
def test_non_int_vertices_raise_type_error(edges):
    with pytest.raises(TypeError):
        Graph(3, edges)


def test_float_array_raises_type_error():
    with pytest.raises(TypeError):
        Graph(3, np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize(
    "pairs, match",
    [
        ([(1, 1)], "self-loop at vertex 1"),
        ([(0, 3)], "vertex 3 out of range"),
        ([(-1, 0)], "vertex -1 out of range"),
        ([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
        ([(0, 1), (7, 1), (2, 2)], "vertex 7 out of range"),
    ],
)
def test_invalid_pairs_raise_value_error(pairs, match, as_array):
    edges = np.array(pairs, dtype=np.int64) if as_array else pairs
    with pytest.raises(ValueError, match=match):
        Graph(3, edges)


def test_first_offending_pair_decides_the_error():
    # A type error after a range error: the range error comes first, as a
    # pair-by-pair scan would report it.
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 9), (0, "x")])
    with pytest.raises(TypeError):
        Graph(3, [(0, "x"), (0, 9)])


def test_huge_vertex_ids_are_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 2**70)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, np.array([[0, 2**63]], dtype=np.uint64))


def test_array_must_have_two_columns():
    with pytest.raises(ValueError, match="shape"):
        Graph(3, np.array([[0, 1, 2]]))


def test_pairs_must_have_two_endpoints():
    # Ragged pairs that happen to flatten to an even count still fail.
    with pytest.raises(ValueError):
        Graph(4, [(0, 1, 2), (3,)])
