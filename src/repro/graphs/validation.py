"""Predicates for independent sets and maximal independent sets.

Every simulation in the test-suite and benchmark harness finishes by calling
:func:`verify_mis` on its output, so correctness of the algorithms is checked
by construction, not by eyeballing.

The checks run on the graph's CSR arrays and expand only the set
members' neighbour segments, so verifying a set ``S`` costs
``O(n + sum of deg(v) for v in S)``, never a scan of every edge.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph


class MISValidationError(AssertionError):
    """Raised by :func:`verify_mis` when a claimed MIS is not one."""


def _as_checked_set(graph: Graph, vertices: Iterable[int]) -> Set[int]:
    vertex_set = set(vertices)
    for v in vertex_set:
        if v not in graph:
            raise ValueError(
                f"vertex {v} is not a vertex of {graph!r}"
            )
    return vertex_set


def _expansion(
    graph: Graph, vertex_set: Set[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(owners, neighbours, mask)`` for a checked vertex set.

    ``mask`` marks the set's members; ``(owners[i], neighbours[i])``
    runs over every neighbour of every member, in ``(u, w)`` order: one
    ``repeat``/``cumsum`` expansion of the members' CSR segments, so the
    cost is the members' degree sum, not the edge count.
    """
    members = np.fromiter(vertex_set, dtype=np.int64, count=len(vertex_set))
    members.sort()
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[members] = True
    starts = graph.indptr[members]
    degrees = graph.indptr[members + 1] - starts
    ends = np.cumsum(degrees)
    total = int(ends[-1]) if ends.size else 0
    flat = np.repeat(starts - (ends - degrees), degrees) + np.arange(
        total, dtype=np.int64
    )
    return np.repeat(members, degrees), graph.indices[flat], mask


def _violations(
    owners: np.ndarray, neighbours: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The member-member edges ``(u, w)``, ``u < w``, in order."""
    hit = (owners < neighbours) & mask[neighbours]
    return owners[hit], neighbours[hit]


def _uncovered(neighbours: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Ascending vertices neither in the set nor next to a member."""
    covered = mask.copy()
    covered[neighbours] = True
    return np.flatnonzero(~covered)


def independent_set_violations(
    graph: Graph, vertices: Iterable[int]
) -> List[Tuple[int, int]]:
    """All edges of ``graph`` with both endpoints in ``vertices``.

    An empty result means the set is independent.
    """
    owners, neighbours, mask = _expansion(graph, _as_checked_set(graph, vertices))
    owners, neighbours = _violations(owners, neighbours, mask)
    return list(zip(owners.tolist(), neighbours.tolist()))


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether no two vertices of the set are adjacent."""
    return not independent_set_violations(graph, vertices)


def uncovered_vertices(graph: Graph, vertices: Iterable[int]) -> List[int]:
    """Vertices that are neither in the set nor adjacent to a set member.

    An independent set is *maximal* exactly when this list is empty.
    """
    _, neighbours, mask = _expansion(graph, _as_checked_set(graph, vertices))
    return _uncovered(neighbours, mask).tolist()


def is_dominating_for_uncovered(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether every vertex is in the set or adjacent to a set member."""
    return not uncovered_vertices(graph, vertices)


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` is an independent dominating set (an MIS)."""
    return is_independent_set(graph, vertices) and is_dominating_for_uncovered(
        graph, vertices
    )


def verify_mis(
    graph: Graph,
    vertices: Iterable[int],
    crashed: Iterable[int] = (),
    absent: Iterable[int] = (),
) -> Set[int]:
    """Assert that ``vertices`` is an MIS of ``graph`` and return it as a set.

    ``crashed`` names fail-stop vertices that left the system mid-run:
    they must not appear in the set, and they are exempt from the
    maximality requirement (a crashed vertex may legitimately be uncovered)
    — the same contract as
    :meth:`repro.beeping.scheduler.SimulationResult.verify`.

    ``absent`` is the churn-aware counterpart: vertices of the universe
    graph that are not part of the final alive subgraph (departed,
    asleep at the end, or never joined).  Like crashed vertices they are
    banned from the set and exempt from maximality, so the assertion
    becomes "a valid MIS of the final alive subgraph".

    Raises
    ------
    MISValidationError
        With a message pinpointing the violated edge or uncovered vertex.
    """
    vertex_set = _as_checked_set(graph, vertices)
    crashed_set = set(crashed)
    absent_set = set(absent)
    in_both = vertex_set & crashed_set
    if in_both:
        raise MISValidationError(
            f"crashed vertex {min(in_both)} is in the MIS"
        )
    in_absent = vertex_set & absent_set
    if in_absent:
        raise MISValidationError(
            f"absent vertex {min(in_absent)} is in the MIS"
        )
    owners, neighbours, mask = _expansion(graph, vertex_set)
    bad_u, bad_w = _violations(owners, neighbours, mask)
    if bad_u.size:
        raise MISValidationError(
            f"set is not independent: edge ({bad_u[0]}, {bad_w[0]}) has "
            f"both endpoints in the set ({bad_u.size} violating edges in "
            f"total)"
        )
    exempt = crashed_set | absent_set
    uncovered = [
        v for v in _uncovered(neighbours, mask).tolist() if v not in exempt
    ]
    if uncovered:
        raise MISValidationError(
            f"set is not maximal: vertex {uncovered[0]} is neither in the "
            f"set nor adjacent to it ({len(uncovered)} uncovered vertices)"
        )
    return vertex_set
