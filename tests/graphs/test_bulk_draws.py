"""The bulk-drawing random generators against their scalar oracles.

``gnp_random_graph``, ``random_bipartite_graph`` and
``planted_independent_set_graph`` draw their uniforms in bulk from the
Mersenne Twister's raw words.  The one-``rng.random()``-at-a-time loops
they replaced live on here, unchanged, as the reference: both must give
the same edge set and leave the generator in the same state.
"""

from __future__ import annotations

import math
from random import Random

import numpy as np
import pytest

from repro.graphs import random_graphs
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import (
    _uniforms,
    gnp_random_graph,
    planted_independent_set_graph,
    random_bipartite_graph,
)


def scalar_gnp(n, p, rng):
    """Batagelj–Brandes geometric skipping, one draw per step."""
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        return Graph(n, [(u, v) for v in range(n) for u in range(v)])
    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        return Graph(n)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(n, edges)


def scalar_bipartite(left, right, p, rng):
    edges = [
        (u, left + v)
        for u in range(left)
        for v in range(right)
        if rng.random() < p
    ]
    return Graph(left + right, edges)


def scalar_planted(n, planted_size, p, rng):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if v < planted_size:
                continue
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def assert_same(bulk, scalar, bulk_rng, scalar_rng):
    assert bulk.num_vertices == scalar.num_vertices
    assert np.array_equal(bulk.indptr, scalar.indptr)
    assert np.array_equal(bulk.indices, scalar.indices)
    assert bulk_rng.random() == scalar_rng.random()


GNP_PROBABILITIES = [1e-17, 1e-4, 0.3, 0.5, 0.999, 1.0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 1000])
@pytest.mark.parametrize("p", GNP_PROBABILITIES)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_gnp_matches_scalar_loop(n, p, seed):
    bulk_rng, scalar_rng = Random(seed), Random(seed)
    assert_same(
        gnp_random_graph(n, p, bulk_rng),
        scalar_gnp(n, p, scalar_rng),
        bulk_rng,
        scalar_rng,
    )


@pytest.mark.parametrize("n, p", [(20_000, 8 / 20_000), (300, 1e-6), (5, 0.9)])
@pytest.mark.parametrize("seed", range(3))
def test_gnp_matches_scalar_loop_sparse_and_tiny(n, p, seed):
    bulk_rng, scalar_rng = Random(seed), Random(seed)
    assert_same(
        gnp_random_graph(n, p, bulk_rng),
        scalar_gnp(n, p, scalar_rng),
        bulk_rng,
        scalar_rng,
    )


def test_gnp_survives_a_short_chunk(monkeypatch):
    # Force every chunk to be too short to reach the last pair, so the
    # draw continues over many chunks and rewinds across all of them.
    real = random_graphs._geometric_skips
    monkeypatch.setattr(
        random_graphs,
        "_geometric_skips",
        lambda rng, count, log_q, cap: real(rng, min(count, 3), log_q, cap),
    )
    bulk_rng, scalar_rng = Random(5), Random(5)
    assert_same(
        gnp_random_graph(60, 0.2, bulk_rng),
        scalar_gnp(60, 0.2, scalar_rng),
        bulk_rng,
        scalar_rng,
    )


def test_uniforms_match_scalar_random():
    bulk_rng, scalar_rng = Random(11), Random(11)
    drawn = _uniforms(bulk_rng, 1000)
    assert drawn.tolist() == [scalar_rng.random() for _ in range(1000)]
    assert bulk_rng.getstate() == scalar_rng.getstate()
    assert _uniforms(bulk_rng, 0).size == 0
    assert bulk_rng.getstate() == scalar_rng.getstate()


def test_near_integer_quotients_use_math_log(monkeypatch):
    # At p = 1/2, log_q = -log 2, so a uniform with 1 - r = 2**-k has the
    # exact quotient k.  Poison numpy's log by one ulp on those inputs:
    # the math.log fix-up must restore the truncation to k, not k - 1.
    uniforms = np.array([1.0 - 2.0 ** -k for k in (1, 3, 10, 40)] + [0.25])
    monkeypatch.setattr(
        random_graphs, "_uniforms", lambda rng, count: uniforms[:count]
    )
    real_log = np.log
    monkeypatch.setattr(
        random_graphs.np,
        "log",
        lambda x: np.nextafter(real_log(x), 0.0),
    )
    skips = random_graphs._geometric_skips(Random(0), 5, math.log(0.5), 10**9)
    assert skips.tolist() == [1, 3, 10, 40, int(math.log(0.75) / math.log(0.5))]


@pytest.mark.parametrize(
    "left, right, p",
    [(0, 0, 0.5), (0, 7, 0.5), (5, 0, 0.5), (8, 12, 0.7), (30, 50, 0.1),
     (3, 4, 1.0), (6, 6, 0.0)],
)
@pytest.mark.parametrize("seed", [1, 2, 17])
def test_bipartite_matches_scalar_loop(left, right, p, seed):
    bulk_rng, scalar_rng = Random(seed), Random(seed)
    assert_same(
        random_bipartite_graph(left, right, p, bulk_rng),
        scalar_bipartite(left, right, p, scalar_rng),
        bulk_rng,
        scalar_rng,
    )


@pytest.mark.parametrize(
    "n, planted_size, p",
    [(0, 0, 0.5), (1, 1, 0.5), (10, 4, 0.5), (24, 9, 0.7), (30, 0, 0.5),
     (12, 12, 0.5), (60, 15, 0.2), (40, 39, 1.0), (20, 5, 0.0)],
)
@pytest.mark.parametrize("seed", [1, 3, 8])
def test_planted_matches_scalar_loop(n, planted_size, p, seed):
    bulk_rng, scalar_rng = Random(seed), Random(seed)
    assert_same(
        planted_independent_set_graph(n, planted_size, p, bulk_rng),
        scalar_planted(n, planted_size, p, scalar_rng),
        bulk_rng,
        scalar_rng,
    )
