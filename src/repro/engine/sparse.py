"""Sparse (CSR) engine for large, sparse graphs.

The dense engine stores an n×n adjacency matrix — perfect for the paper's
``G(n, 1/2)`` workloads, quadratic waste for sparse topologies (grids,
geometric/sensor networks, scale-free graphs).  This engine keeps the
adjacency in compressed-sparse-row form and computes the one-bit OR
observation with ``numpy.add.reduceat`` over the neighbour lists, so a
round costs O(n + m) with small constants.  :class:`SparseSimulator`
runs the dense engine's round loop unchanged — it overrides only the
neighbour count — so the two cannot drift apart.

With mean degree ~8 this comfortably simulates n = 50,000 node networks —
letting the scaling benchmark extend Theorem 2's O(log n) curve well past
the paper's n = 1000.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.engine.simulator import DEFAULT_MAX_ROUNDS, VectorizedSimulator
from repro.graphs.graph import Graph


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
    masked with ``isolated``.  Shared by every CSR consumer so they stay
    structurally identical.
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
    documents, shared by every CSR consumer (the per-trial sparse engine,
    fleet, armada and message kernels) so the reduceat subtleties — the
    trailing pad column that keeps unclamped starts in range, the garbage
    sums of empty segments — can never drift between engines.  ``flags`` is
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


class SparseSimulator(VectorizedSimulator):
    """CSR-based simulator: :class:`VectorizedSimulator`'s round loop with
    the neighbour counts taken by :func:`csr_row_counts`."""

    _kind = "sparse"

    def __init__(self, graph: Graph, max_rounds: int = DEFAULT_MAX_ROUNDS) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self._graph = graph
        self._max_rounds = max_rounds
        self._columns, self._starts, self._isolated = build_csr(graph)

    def _neighbor_counts(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, how many neighbours have their flag set."""
        return csr_row_counts(
            flags[np.newaxis], self._columns, self._starts, self._isolated
        )[0]
