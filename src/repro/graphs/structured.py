"""Deterministic structured graph families.

These are the non-random workloads used in the paper (rectangular grids for
the Figure 5 "beeps per node" claim) plus the standard families every graph
library ships, which the tests use as known-answer fixtures (cliques, paths,
cycles, stars, hypercubes, bipartite graphs) and the biology substrate
depends on (hexagonal lattices of cells).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graphs.graph import Graph


def empty_graph(n: int) -> Graph:
    """``n`` isolated vertices."""
    return Graph(n)


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def path_graph(n: int) -> Graph:
    """The path ``P_n`` with ``n`` vertices and ``n - 1`` edges."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n``; requires ``n >= 3`` (or ``n <= 1`` for trivial)."""
    if n == 2:
        raise ValueError("a cycle needs at least 3 vertices (2 would be a multi-edge)")
    if n <= 1:
        return Graph(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph(n, edges)


def star_graph(leaves: int) -> Graph:
    """The star ``K_{1,leaves}``: hub 0 connected to ``leaves`` leaves."""
    if leaves < 0:
        raise ValueError("leaves must be >= 0")
    return Graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """``K_{left,right}``; left part is ``0..left-1``."""
    if left < 0 or right < 0:
        raise ValueError("part sizes must be >= 0")
    edges = [(u, left + v) for u in range(left) for v in range(right)]
    return Graph(left + right, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` rectangular grid (4-neighbour lattice).

    Vertex ``(r, c)`` is numbered ``r * cols + c``.  This is the "rectangular
    grid graph" family used by the paper for the beeps-per-node claim.
    """
    if rows < 0 or cols < 0:
        raise ValueError("grid dimensions must be >= 0")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1)
    down = np.stack((ids[:-1, :].ravel(), ids[1:, :].ravel()), axis=1)
    return Graph(rows * cols, np.concatenate((right, down)))


def torus_grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid with wrap-around edges (a discrete torus).

    Requires both dimensions >= 3 so that wrap-around edges are simple.
    """
    if rows == 0 or cols == 0:
        return Graph(0)
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must both be >= 3")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.append((v, right))
            edges.append((v, down))
    return Graph(rows * cols, edges)


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube ``Q_d`` on ``2^d`` vertices."""
    if dimension < 0:
        raise ValueError("dimension must be >= 0")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << bit))
        for v in range(n)
        for bit in range(dimension)
        if v < v ^ (1 << bit)
    ]
    return Graph(n, edges)


def hex_lattice_graph(
    rows: int, cols: int, return_positions: bool = False
):
    """A hexagonally packed lattice of cells (6-neighbour triangular lattice).

    This is the standard abstraction of an epithelial cell sheet, used by the
    Notch–Delta biology substrate: each interior cell touches six
    neighbours.  Cells are laid out in ``rows`` offset rows of ``cols`` cells;
    cell ``(r, c)`` is numbered ``r * cols + c``.

    When ``return_positions`` is true, returns ``(graph, positions)`` with
    axial 2-D coordinates suitable for plotting.
    """
    if rows < 0 or cols < 0:
        raise ValueError("lattice dimensions must be >= 0")
    edges: List[Tuple[int, int]] = []

    def vertex(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            v = vertex(r, c)
            if c + 1 < cols:
                edges.append((v, vertex(r, c + 1)))
            if r + 1 < rows:
                edges.append((v, vertex(r + 1, c)))
                # Offset rows: even rows also touch the previous column below,
                # odd rows the next column below.
                if r % 2 == 0 and c - 1 >= 0:
                    edges.append((v, vertex(r + 1, c - 1)))
                if r % 2 == 1 and c + 1 < cols:
                    edges.append((v, vertex(r + 1, c + 1)))
    graph = Graph(rows * cols, edges)
    if return_positions:
        positions = []
        for r in range(rows):
            for c in range(cols):
                x = c + (0.5 if r % 2 == 1 else 0.0)
                y = r * 0.8660254037844386  # sqrt(3)/2 row spacing
                positions.append((x, y))
        return graph, positions
    return graph
