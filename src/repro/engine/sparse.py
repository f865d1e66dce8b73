"""Sparse (CSR) engine for large, sparse graphs.

The dense engine stores an n×n adjacency matrix — perfect for the paper's
``G(n, 1/2)`` workloads, quadratic waste for sparse topologies (grids,
geometric/sensor networks, scale-free graphs).  This engine keeps the
adjacency in compressed-sparse-row form and computes the one-bit OR
observation with ``numpy.bitwise_or.reduceat`` over the neighbour lists
(:func:`csr_row_or`; the beep-loss counts use ``numpy.add.reduceat``,
:func:`csr_row_counts`), so a round costs O(n + m) with small constants.
:class:`SparseSimulator` runs the dense engine's round loop unchanged — it
overrides only the two neighbour reductions — so the two cannot drift
apart.

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


#: Rows packed per word: one bit per row of ``flags``.
_WORD_BITS = 64


def csr_row_or(
    flags: np.ndarray,
    columns: np.ndarray,
    starts: np.ndarray,
    isolated: np.ndarray,
) -> np.ndarray:
    """Row-wise flagged-neighbour OR over one CSR, for 2-D flags.

    Equal to ``csr_row_counts(...) > 0``, bit for bit, but slices the rows
    into bits: each vertex's flags for up to 64 rows are packed into the
    narrowest unsigned word that holds them, so one 1-D gather over
    ``columns`` and one ``np.bitwise_or.reduceat`` over ``starts`` serve
    all those rows at once.  Same pad/clamp discipline as
    :func:`csr_row_counts`.  ``flags`` is ``(rows, n)`` boolean; returns
    ``(rows, n)`` boolean.
    """
    k, n = flags.shape
    if columns.size == 0 or k == 0:
        return np.zeros((k, n), dtype=bool)
    if k > _WORD_BITS:
        return np.concatenate([
            csr_row_or(flags[r:r + _WORD_BITS], columns, starts, isolated)
            for r in range(0, k, _WORD_BITS)
        ])
    used = (k + 7) // 8
    width = 1 << (used - 1).bit_length()  # bytes per word: 1, 2, 4 or 8
    if k == 1:
        # A bool byte (0 or 1) already is its own one-bit word.
        words = flags[0].astype(bool, copy=False).view(np.uint8)
    else:
        # (n, width) bytes, row r of flags in bit r % 8 of byte r // 8.
        packed = np.zeros((n, width), dtype=np.uint8)
        packed[:, :used] = np.packbits(flags, axis=0, bitorder="little").T
        words = packed.view(f"u{width}").ravel()
    # One trailing zero word keeps every (unclamped) start in range.
    gathered = np.empty(columns.size + 1, dtype=words.dtype)
    np.take(words, columns, out=gathered[:-1])
    gathered[-1] = 0
    reduced = np.bitwise_or.reduceat(gathered, starts)
    # Empty segments (isolated vertices) yield garbage words; zero them.
    reduced[isolated] = 0
    return np.unpackbits(
        reduced.view(np.uint8).reshape(n, width).T,
        axis=0,
        count=k,
        bitorder="little",
    ).view(bool)


class SparseSimulator(VectorizedSimulator):
    """CSR-based simulator: :class:`VectorizedSimulator`'s round loop with
    the neighbour counts taken by :func:`csr_row_counts` and the OR by
    :func:`csr_row_or`."""

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

    def _neighbor_or(self, flags: np.ndarray) -> np.ndarray:
        """For each vertex, whether any neighbour has its flag set."""
        return csr_row_or(
            flags[np.newaxis], self._columns, self._starts, self._isolated
        )[0]
