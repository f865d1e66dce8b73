"""Clique-based graph families, including the Theorem 1 lower-bound family.

Theorem 1 of the paper exhibits a graph on which *any* preset global
probability sequence needs ``Ω(log² n)`` rounds: the disjoint union of
``n^(1/3)`` copies of the complete graph ``K_d`` for every ``d`` from 1 to
``n^(1/3)``.  The intuition is that a clique ``K_d`` only makes progress in a
round where *exactly one* of its members beeps, which requires the global
probability to pass near ``1/d`` — and no single sweep can linger near
``1/d`` for every ``d`` simultaneously for long enough.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.graphs.graph import Graph


def disjoint_cliques(sizes: Sequence[int]) -> Graph:
    """The disjoint union of cliques with the given ``sizes``.

    Vertices are numbered consecutively, clique by clique, in the order the
    sizes are given.
    """
    blocks = []
    offset = 0
    for size in sizes:
        if size < 0:
            raise ValueError(f"clique size must be >= 0, got {size}")
        blocks.append(np.stack(np.triu_indices(size, 1), axis=1) + offset)
        offset += size
    return Graph(offset, np.concatenate(blocks) if blocks else ())


def theorem1_clique_sizes(side: int, copies: int = 0) -> List[int]:
    """The multiset of clique sizes of the Theorem 1 family.

    ``side`` plays the role of ``n^(1/3)`` in the paper: cliques ``K_1`` to
    ``K_side`` each repeated ``copies`` times (``copies`` defaults to
    ``side``).  The total vertex count is ``copies * side * (side + 1) / 2``,
    which is ``Θ(side^3)``.
    """
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    if copies == 0:
        copies = side
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    sizes: List[int] = []
    for d in range(1, side + 1):
        sizes.extend([d] * copies)
    return sizes


def theorem1_family(side: int, copies: int = 0) -> Graph:
    """The Theorem 1 lower-bound graph.

    ``copies`` copies (default ``side``) of ``K_d`` for each ``d = 1..side``.
    With ``copies = side = n^(1/3)`` this is exactly the construction in the
    paper, with ``Θ(n)`` vertices.
    """
    return disjoint_cliques(theorem1_clique_sizes(side, copies))


def clique_membership(sizes: Sequence[int]) -> List[int]:
    """For a :func:`disjoint_cliques` graph, map each vertex to its clique
    index (in the order the sizes were given)."""
    membership: List[int] = []
    for index, size in enumerate(sizes):
        membership.extend([index] * size)
    return membership
