"""Differential test: the CSR :func:`verify_mis` against the per-edge scan
it replaced.

``oracle_verify_mis`` is the earlier implementation, kept verbatim here
(test-only) on the graph's neighbour tuples.  On random graphs and random
vertex sets — with and without ``crashed`` / ``absent`` exemptions — the
CSR version must accept exactly when the oracle does, and on rejection
raise the same exception type with the same message text.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import greedy_mis
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.validation import (
    MISValidationError,
    independent_set_violations,
    is_maximal_independent_set,
    uncovered_vertices,
    verify_mis,
)


# ---------------------------------------------------------------------------
# The pre-CSR implementation (oracle).
# ---------------------------------------------------------------------------


def _oracle_checked_set(graph: Graph, vertices: Iterable[int]) -> Set[int]:
    vertex_set = set(vertices)
    for v in vertex_set:
        if v not in graph:
            raise ValueError(f"vertex {v} is not a vertex of {graph!r}")
    return vertex_set


def oracle_violations(graph: Graph, vertices: Iterable[int]) -> List[Tuple[int, int]]:
    vertex_set = _oracle_checked_set(graph, vertices)
    violations = []
    for u in sorted(vertex_set):
        for w in graph.neighbors(u):
            if u < w and w in vertex_set:
                violations.append((u, w))
    return violations


def oracle_uncovered(graph: Graph, vertices: Iterable[int]) -> List[int]:
    vertex_set = _oracle_checked_set(graph, vertices)
    covered = set(vertex_set)
    for v in vertex_set:
        covered.update(graph.neighbors(v))
    return [v for v in graph.vertices() if v not in covered]


def oracle_verify_mis(graph, vertices, crashed=(), absent=()):
    vertex_set = _oracle_checked_set(graph, vertices)
    crashed_set = set(crashed)
    absent_set = set(absent)
    in_both = vertex_set & crashed_set
    if in_both:
        raise MISValidationError(f"crashed vertex {min(in_both)} is in the MIS")
    in_absent = vertex_set & absent_set
    if in_absent:
        raise MISValidationError(f"absent vertex {min(in_absent)} is in the MIS")
    violations = oracle_violations(graph, vertex_set)
    if violations:
        u, w = violations[0]
        raise MISValidationError(
            f"set is not independent: edge ({u}, {w}) has both endpoints "
            f"in the set ({len(violations)} violating edges in total)"
        )
    exempt = crashed_set | absent_set
    uncovered = [v for v in oracle_uncovered(graph, vertex_set) if v not in exempt]
    if uncovered:
        raise MISValidationError(
            f"set is not maximal: vertex {uncovered[0]} is neither in the "
            f"set nor adjacent to it ({len(uncovered)} uncovered vertices)"
        )
    return vertex_set


def outcome(check, *args, **kwargs):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", check(*args, **kwargs)
    except (MISValidationError, ValueError) as error:
        return type(error), str(error)


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def cases(draw):
    """A small G(n, p), a candidate set near an MIS, and exemptions."""
    n = draw(st.integers(min_value=0, max_value=16))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    graph = gnp_random_graph(n, p, Random(draw(st.integers(0, 2**32 - 1))))
    subset = st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)))
    order = draw(st.permutations(range(n)))
    base = set(greedy_mis(graph, order))
    if n:
        # Perturb a genuine MIS: drop and add a few vertices, so accepted
        # and rejected sets are both common.
        base -= draw(subset)
        base |= draw(subset) if draw(st.booleans()) else set()
    exemptions = []
    for _ in ("crashed", "absent"):
        exempt = draw(subset) if n and draw(st.booleans()) else set()
        if draw(st.booleans()):
            # Mostly outside the set, so the maximality exemption runs.
            exempt -= base
        exemptions.append(exempt)
    return (graph, base, *exemptions)


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(cases())
def test_csr_verify_matches_oracle(case):
    graph, vertices, crashed, absent = case
    assert outcome(verify_mis, graph, vertices, crashed, absent) == outcome(
        oracle_verify_mis, graph, vertices, crashed, absent
    )


@settings(max_examples=300, deadline=None)
@given(cases())
def test_accepts_exactly_the_maximal_independent_sets(case):
    graph, vertices, _, _ = case
    accepted = outcome(verify_mis, graph, vertices)[0] == "ok"
    assert accepted == is_maximal_independent_set(graph, vertices)
    assert accepted == (outcome(oracle_verify_mis, graph, vertices)[0] == "ok")


@settings(max_examples=300, deadline=None)
@given(cases())
def test_predicates_match_oracle(case):
    graph, vertices, _, _ = case
    assert independent_set_violations(graph, vertices) == oracle_violations(
        graph, vertices
    )
    assert uncovered_vertices(graph, vertices) == oracle_uncovered(graph, vertices)


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(min_value=0, max_value=40))
def test_foreign_vertices_raise_the_same_value_error(case, extra):
    graph, vertices, _, _ = case
    vertices = set(vertices) | {graph.num_vertices + extra}
    assert outcome(verify_mis, graph, vertices) == outcome(
        oracle_verify_mis, graph, vertices
    )


def test_non_int_vertices_raise_the_same_value_error():
    graph = Graph(3, [(0, 1)])
    for bad in ({0, "x"}, {0, 1.5}, {-1, 2}):
        assert outcome(verify_mis, graph, bad) == outcome(
            oracle_verify_mis, graph, bad
        )
        assert outcome(verify_mis, graph, bad)[0] is ValueError
