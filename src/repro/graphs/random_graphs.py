"""Random graph generators.

All generators take an explicit :class:`random.Random` instance so trials are
reproducible; none of them touch the global RNG.

The paper's main experimental workload is the Erdős–Rényi model
``G(n, 1/2)`` (:func:`gnp_random_graph` with ``p=0.5``); the geometric model
is included because the paper's conclusion motivates the algorithm with
ad-hoc sensor networks, for which random geometric graphs are the standard
abstraction.
"""

from __future__ import annotations

import math
from random import Random
from typing import List, Optional

import numpy as np

from repro.graphs.graph import Graph, GraphBuilder


def _require_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")


#: Relative distance to an integer within which a numpy ``log`` quotient
#: is recomputed with ``math.log``: numpy's SIMD ``log`` may differ from
#: libm's in the last ulp, which moves a truncation only when the quotient
#: sits that close to an integer.  1e-9 is millions of ulps of margin.
_NEAR_INTEGER = 1e-9


def _uniforms(rng: Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.random()``, drawn in one call.

    CPython's ``Random.random()`` reads two 32-bit Mersenne Twister words
    ``a, b`` and returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
    ``getrandbits(64 * count)`` returns the next ``2 * count`` words,
    least-significant first.  Decoding them gives the same floats, and
    leaves ``rng`` in the same state, as ``count`` scalar calls.
    """
    if count == 0:
        return np.zeros(0)
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
        dtype="<u4",
    ).astype(np.uint64)
    mantissa = (words[0::2] >> np.uint64(5)) * np.uint64(1 << 26) + (
        words[1::2] >> np.uint64(6)
    )
    return mantissa.astype(np.float64) * (1.0 / (1 << 53))


def _geometric_skips(
    rng: Random, count: int, log_q: float, cap: int
) -> np.ndarray:
    """``int(log(1 - rng.random()) / log_q)`` for the next ``count`` draws:
    the scalar loop's skips, bit for bit.  Each is clipped to ``cap`` (a
    skip that long passes the last pair anyway), so the summed int64
    positions stay far from overflow even when ``p`` is tiny."""
    r = _uniforms(rng, count)
    quotients = np.log(1.0 - r) / log_q
    near = np.flatnonzero(
        np.abs(quotients - np.rint(quotients)) <= _NEAR_INTEGER * quotients
    )
    for i in near.tolist():
        quotients[i] = math.log(1.0 - float(r[i])) / log_q
    return np.minimum(np.trunc(quotients), cap).astype(np.int64)


def _triangular_pairs(positions: np.ndarray) -> np.ndarray:
    """Map pair indices ``v * (v - 1) / 2 + w`` (``w < v``) to ``(w, v)``."""
    v = ((1.0 + np.sqrt(8.0 * positions + 1.0)) / 2.0).astype(np.int64)
    # Integer correction of the float root (one step either way suffices
    # while 8 * position fits a double's mantissa; loop to be exact).
    while True:
        low = v * (v - 1) // 2 > positions
        high = v * (v + 1) // 2 <= positions
        if not (low.any() or high.any()):
            break
        v = v - low + high
    return np.stack((positions - v * (v - 1) // 2, v), axis=1)


def gnp_random_graph(n: int, p: float, rng: Random) -> Graph:
    """An Erdős–Rényi graph ``G(n, p)``: each edge present independently.

    Uses the geometric-skipping method of Batagelj and Brandes, so the
    running time is O(n + m) rather than O(n^2) for sparse graphs, while
    remaining exactly distributed as G(n, p).

    The pairs ``(w, v)``, ``w < v``, are enumerated in order of ``v`` then
    ``w``; each draw ``r = rng.random()`` skips
    ``int(log(1 - r) / log(1 - p))`` pairs and selects the next one, until
    the position passes the last pair.  The draws are taken in bulk
    chunks (:func:`_uniforms`) and the skips summed with numpy; the edge
    set and the generator's final state equal those of the
    one-draw-at-a-time loop, so ``rng`` must be a :class:`random.Random`
    (Mersenne Twister) with ``getstate``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    _require_probability(p)
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return Graph(n, np.stack(np.triu_indices(n, 1), axis=1))
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p is below float resolution (log1p(-p) rounds to 0): no edges.
        return Graph(n)
    pairs = n * (n - 1) // 2
    saved = rng.getstate()
    chunks: List[np.ndarray] = []
    consumed = 0
    last = -1
    while True:
        # Draws still needed are Binomial(remaining, p) + 1: take the
        # mean plus eight standard deviations, so one chunk nearly always
        # reaches the end.
        remaining = pairs - 1 - last
        mean = remaining * p
        count = int(mean + 8.0 * math.sqrt(mean * (1.0 - p))) + 2
        skips = _geometric_skips(rng, count, log_q, pairs)
        positions = last + np.cumsum(skips + 1)
        end = int(np.searchsorted(positions, pairs))
        chunks.append(positions[:end])
        if end < positions.size:
            consumed += end + 1
            break
        consumed += positions.size
        last = int(positions[-1])
    # Rewind and replay exactly the consumed words, so rng ends where the
    # one-draw-at-a-time loop leaves it.
    rng.setstate(saved)
    rng.getrandbits(64 * consumed)
    return Graph(n, _triangular_pairs(np.concatenate(chunks)))


def gnm_random_graph(n: int, m: int, rng: Random) -> Graph:
    """A uniformly random graph with exactly ``n`` vertices and ``m`` edges."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise ValueError(
            f"m must be in [0, {max_edges}] for n={n}, got {m}"
        )
    chosen = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return Graph(n, sorted(chosen))


def random_bipartite_graph(
    left: int, right: int, p: float, rng: Random
) -> Graph:
    """A random bipartite graph: parts ``0..left-1`` and ``left..left+right-1``,
    each cross edge present independently with probability ``p``."""
    if left < 0 or right < 0:
        raise ValueError("part sizes must be >= 0")
    _require_probability(p)
    # One draw per cross pair, u-major, as a scalar loop would take them.
    hit = (_uniforms(rng, left * right) < p).reshape(left, right)
    u, v = np.nonzero(hit)
    return Graph(left + right, np.stack((u, left + v), axis=1))


def random_geometric_graph(
    n: int,
    radius: float,
    rng: Random,
    return_positions: bool = False,
):
    """A random geometric graph on the unit square.

    ``n`` points are placed uniformly at random; two points are adjacent when
    their Euclidean distance is at most ``radius``.  This is the standard
    model for the ad-hoc wireless sensor networks that motivate beeping
    algorithms.

    When ``return_positions`` is true, returns ``(graph, positions)`` where
    ``positions[v]`` is the (x, y) pair of vertex ``v``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    radius_squared = radius * radius
    edges = []
    # Grid-bucket the points so the expected running time is O(n + m).
    cell = max(radius, 1e-9)
    buckets = {}
    for v, (x, y) in enumerate(positions):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(v)
    for (cx, cy), members in buckets.items():
        neighbor_cells = [
            (cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
        ]
        for u in members:
            ux, uy = positions[u]
            for key in neighbor_cells:
                for v in buckets.get(key, ()):
                    if v <= u:
                        continue
                    vx, vy = positions[v]
                    if (ux - vx) ** 2 + (uy - vy) ** 2 <= radius_squared:
                        edges.append((u, v))
    graph = Graph(n, edges)
    if return_positions:
        return graph, positions
    return graph


def random_tree(n: int, rng: Random) -> Graph:
    """A uniformly random labelled tree on ``n`` vertices (Prüfer decoding)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n <= 1:
        return Graph(n)
    if n == 2:
        return Graph(2, [(0, 1)])
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    edges = []
    # Standard Prüfer decoding with a pointer + leaf variable.
    pointer = 0
    while degree[pointer] != 1:
        pointer += 1
    leaf = pointer
    for v in sequence:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < pointer:
            leaf = v
        else:
            pointer += 1
            while degree[pointer] != 1:
                pointer += 1
            leaf = pointer
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def barabasi_albert_graph(n: int, attachments: int, rng: Random) -> Graph:
    """A preferential-attachment (Barabási–Albert) graph.

    Starts from a star on ``attachments + 1`` vertices; each subsequent
    vertex attaches to ``attachments`` distinct existing vertices chosen
    with probability proportional to their degree.  Models the heavy-tailed
    contact networks where adaptive probabilities matter most (hubs hear
    beeps constantly, leaves rarely).
    """
    if attachments < 1:
        raise ValueError(f"attachments must be >= 1, got {attachments}")
    if n < attachments + 1:
        raise ValueError(
            f"n must be >= attachments + 1 = {attachments + 1}, got {n}"
        )
    builder = GraphBuilder(n)
    # Seed star: vertex 0 connected to 1..attachments.
    repeated: List[int] = []
    for v in range(1, attachments + 1):
        builder.add_edge(0, v)
        repeated.extend((0, v))
    for v in range(attachments + 1, n):
        targets = set()
        while len(targets) < attachments:
            targets.add(repeated[rng.randrange(len(repeated))])
        for target in sorted(targets):
            builder.add_edge(v, target)
            repeated.extend((v, target))
    return builder.build()


def watts_strogatz_graph(
    n: int, nearest: int, rewire_probability: float, rng: Random
) -> Graph:
    """A small-world (Watts–Strogatz) graph.

    A ring lattice where each vertex connects to its ``nearest`` clockwise
    neighbours (``nearest`` must be even and < n), then each edge is
    rewired to a uniform random endpoint with the given probability
    (skipping rewirings that would create loops or duplicates).
    """
    if nearest % 2 != 0 or nearest < 2:
        raise ValueError(f"nearest must be even and >= 2, got {nearest}")
    if n <= nearest:
        raise ValueError(f"n must exceed nearest, got n={n}")
    _require_probability(rewire_probability)
    edges = set()
    for v in range(n):
        for offset in range(1, nearest // 2 + 1):
            w = (v + offset) % n
            edges.add((min(v, w), max(v, w)))
    rewired = set()
    for u, v in sorted(edges):
        if rng.random() < rewire_probability:
            for _attempt in range(4 * n):
                w = rng.randrange(n)
                candidate = (min(u, w), max(u, w))
                if w != u and candidate not in edges and candidate not in rewired:
                    rewired.add(candidate)
                    break
            else:
                rewired.add((u, v))
        else:
            rewired.add((u, v))
    return Graph(n, sorted(rewired))


def planted_independent_set_graph(
    n: int,
    planted_size: int,
    p: float,
    rng: Random,
    return_planted: bool = False,
):
    """``G(n, p)`` conditioned on vertices ``0..planted_size-1`` being
    independent (edges inside the planted set are simply removed).

    Useful for tests that need a graph with a known large independent set.
    When ``return_planted`` is true, returns ``(graph, planted_vertices)``.
    """
    if not 0 <= planted_size <= n:
        raise ValueError(
            f"planted_size must be in [0, {n}], got {planted_size}"
        )
    _require_probability(p)
    # One draw per pair (u, v), u < v, in row-major order, skipping the
    # pairs inside the planted set.
    u, v = np.triu_indices(n, 1)
    eligible = v >= planted_size
    u, v = u[eligible], v[eligible]
    hit = _uniforms(rng, u.size) < p
    graph = Graph(n, np.stack((u[hit], v[hit]), axis=1))
    if return_planted:
        return graph, list(range(planted_size))
    return graph
