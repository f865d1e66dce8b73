"""Edge-set guardrail: pinned sha256 hashes of generated edge lists.

Every golden CSV and trace, and every benchmark digest, depends on the
exact edge sets the generators draw.  This file pins a hash of the edge
list of each graph that the ``repro paper`` registry (at the goldens'
``trials=3``) and the ``perfbench`` cells (master seed 0, their warm-up
cells included) construct, plus the structured families, so a change to
``Graph`` or to a generator that alters any edge set fails here first,
with the generator named, instead of as a golden drift far downstream.

The hashes were taken from the code before ``Graph`` stored CSR arrays;
the per-pair families' (``PER_PAIR_PINS``) from their scalar
``rng.random() < p`` loops, before those drew their uniforms in bulk.
A mismatch is a behaviour change, never a reason to re-pin.

Seeded entries give the master seed and derivation path passed to
:func:`repro.beeping.rng.spawn_rng`; graph ``g`` of a cell is drawn on
path ``(g, 0)`` (see :func:`repro.experiments.runner.run_fleet_trials`).
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from repro.beeping.rng import spawn_rng
from repro.graphs.cliques import disjoint_cliques, theorem1_family
from repro.graphs.random_graphs import (
    gnp_random_graph,
    planted_independent_set_graph,
    random_bipartite_graph,
)
from repro.graphs.structured import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hex_lattice_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    torus_grid_graph,
)


def edge_list_hash(graph) -> str:
    """sha256 over ``n`` then ``;u,v`` for each edge in ``edges()`` order."""
    digest = hashlib.sha256(str(graph.num_vertices).encode())
    for u, v in graph.edges():
        digest.update(f";{u},{v}".encode())
    return digest.hexdigest()


#: (n, p, master_seed, path) -> edge-list hash of gnp_random_graph.
GNP_PINS = {
    # The `repro paper` registry at trials=3.
    (50, 0.5, 3452995381334347061, (0, 0)):
        "deeedf669053990fbf6e57a6854014cf5813e087a669e62d283f6dae79c96078",
    (50, 0.5, 3452995381334347061, (1, 0)):
        "75d256897aaf3fa53a9f17feaae3408e444e6c30e690d7393d1182727488fcf0",
    (100, 0.5, 15080832815037132864, (0, 0)):
        "11152f8222a70b40cd2972d18c24f67a22e23d993a0f74ba386bfa199693e40f",
    (100, 0.5, 15080832815037132864, (1, 0)):
        "682f1753d83685c07ac9dc01470af7cbbbf079e84bffdbb85fdd451c741adc23",
    (200, 0.5, 3416717317728893726, (0, 0)):
        "5335a1010d0044ac815c73d40ebee59858318a1ebb096dda55b25954fb87a494",
    (200, 0.5, 3416717317728893726, (1, 0)):
        "1657193003bb41362d9cffce531664bc652d2e334165bb88dd722e8245c7a52a",
    (10, 0.5, 6512847888915675502, (0, 0)):
        "8b27304eea59022864ea02415424d52650ad601c9f8ac5c36a0cba41e1d1fc89",
    (10, 0.5, 6512847888915675502, (1, 0)):
        "8bb1aeea1c1cf8a3f8c8301e551b45f6481ebdd89ab62ed83649039a95becd52",
    (50, 0.5, 6145451126947910299, (0, 0)):
        "1accf32f4d638b141e5ed7521d066fe079a1a7ab59d01a30df53b662fa4511d1",
    (50, 0.5, 6145451126947910299, (1, 0)):
        "488aead935667f1d52d322b87724a26d34673763d82029333937c354712a7344",
    (100, 0.5, 8660203165853458586, (0, 0)):
        "a33007827a3320efbc9a8b75e2dfad1fb766c4f185975eb86922f4c2d3051471",
    (100, 0.5, 8660203165853458586, (1, 0)):
        "2bbe17e91313c709983cf7f3105109ac2c2e299e55695c7f1ad27d2a11b76a6a",
    (30, 0.3, 1701, (0, 0)):
        "a8a8d1bfdcd3545954c76babf9f44604828131e115512cb55948c149fde2081b",
    (30, 0.3, 1701, (1, 0)):
        "e4689536f55bd6fc0bd4be6b4bc30920914ffe64403e5774b1abd64006717d00",
    (30, 0.3, 1701, (2, 0)):
        "8f5d7035318d3dbd56753390d1e7378508ed796d8c99d4b0f12c0b72b31d4c7f",
    (40, 0.5, 1603, (0, 0)):
        "953affac2e509c5915e7431317250eebf09ca77e68771b8c43d53d69290e65af",
    (30, 0.5, 501488742625448418, (0, 0)):
        "1dbb96fb4d169f5327a6c75cbbcd607e6c646aa7f67ce7991d5ab554be88657d",
    (60, 0.5, 9846687017389527058, (0, 0)):
        "85059a29dfaf04d99e55d15ff84c36c6455da536a42f3fd026c52d80f2b117cf",
    # perfbench cells at master seed 0, and their 64-vertex warm-up cells.
    (1000, 0.5, 0, (0, 0)):
        "bb4d9b1495e7540a1289d6f85985015d2267e19fc26be3c9d712d5a55d2b09de",
    (64, 0.5, 0, (0, 0)):
        "810993e9e78c664428e67dfd4145eb08f0aafc5af7dccb120cf1765d42d6d341",
    (100_000, 8 / 100_000, 0, (0, 0)):
        "b98948005a0151835e012f1f21d510b9963ba579a7ca64eaa8003bf0513b7a09",
    (64, 8 / 64, 0, (0, 0)):
        "184280006f5622cd41a4a3ad527f2865e4f8f678b5daa5f06f8dbcbb6a5658f1",
}

#: Deterministic families: (name, builder) -> edge-list hash.
STRUCTURED_PINS = {
    "grid_graph(5, 5)": (
        lambda: grid_graph(5, 5),
        "e376532d22db1ed2912075f5c811f111cc8211fdd99d2daae4fce6233b26e2b8",
    ),
    "grid_graph(8, 8)": (
        lambda: grid_graph(8, 8),
        "a29ebada9f43005ea584e0b7ce755c31b2291141c9e0eac9806376651f50509a",
    ),
    "grid_graph(3, 7)": (
        lambda: grid_graph(3, 7),
        "22627a197ad7d8d64e3812723ffdcef5df10f9d3c4e80a13e9889d6cb4bc3e1f",
    ),
    "theorem1_family(3)": (
        lambda: theorem1_family(3),
        "d795e317ca54c653dd32e9cf727ad581b3e80ea603239f1a13ded49effcd9a91",
    ),
    "theorem1_family(5)": (
        lambda: theorem1_family(5),
        "a7dd4e62ec6be25f9fb430ba5df9132646de3dab792b7c8590f151502c20c8a6",
    ),
    "theorem1_family(7)": (
        lambda: theorem1_family(7),
        "904bf2beb6dbf35a5c1ad3098e263ad78689c3721856ff56b90e4b30acaecd42",
    ),
    "hex_lattice_graph(5, 5)": (
        lambda: hex_lattice_graph(5, 5),
        "6c29930b9cd66de550873e9875a52cf7486b2dd9af8876e85e49ff644087fde8",
    ),
    "hex_lattice_graph(4, 7)": (
        lambda: hex_lattice_graph(4, 7),
        "084f45b8f8d75cfcaeb8edfdae593789c1b944655efdfe35e0d0149f8d8064bb",
    ),
    "complete_graph(6)": (
        lambda: complete_graph(6),
        "8923be3a40d86a14a634461050fd56786bef7f7f1153982e706ca99816339050",
    ),
    "path_graph(7)": (
        lambda: path_graph(7),
        "174b577f0543f6c195e681396d95c4703ad112a3925a9b5ce152f254888f80b6",
    ),
    "cycle_graph(7)": (
        lambda: cycle_graph(7),
        "fb235784d5a6897b69bb61ae5082e4b81c01ac776f41b628a6858d2cdf7f76dc",
    ),
    "star_graph(5)": (
        lambda: star_graph(5),
        "421176529a5abf1fa6ca8675ab9314d8021b068b51ff6bc2a96ae9590acdb04d",
    ),
    "complete_bipartite_graph(3, 4)": (
        lambda: complete_bipartite_graph(3, 4),
        "2279223b0a510fd19742f2800f35bfac6067d07236bd24759b7a736c70113c42",
    ),
    "torus_grid_graph(4, 5)": (
        lambda: torus_grid_graph(4, 5),
        "36dcb1635f517bdba11f6d6647aff9c1a2c296aa265061592e4a4b1ef8dcc099",
    ),
    "hypercube_graph(4)": (
        lambda: hypercube_graph(4),
        "235fb416baa98fc5a56801bdc5e72584311a355f8cd0c6921d023f8f49f22996",
    ),
    "disjoint_cliques([3, 1, 4, 2])": (
        lambda: disjoint_cliques([3, 1, 4, 2]),
        "4dae82d335c130ebd55c171ce5511cb562d4bef0fdc9510b7f7950c769e5f833",
    ),
}

#: Per-pair random families: (name, builder) -> edge-list hash.
PER_PAIR_PINS = {
    "random_bipartite_graph(8, 12, 0.7, Random(2))": (
        lambda: random_bipartite_graph(8, 12, 0.7, Random(2)),
        "bc0c878b5196f05c4aaf5e51e592a8de322bc24c45cd61e577e0a32b08a9460a",
    ),
    "random_bipartite_graph(3, 4, 1.0, Random(1))": (
        lambda: random_bipartite_graph(3, 4, 1.0, Random(1)),
        "2279223b0a510fd19742f2800f35bfac6067d07236bd24759b7a736c70113c42",
    ),
    "random_bipartite_graph(30, 50, 0.1, Random(5))": (
        lambda: random_bipartite_graph(30, 50, 0.1, Random(5)),
        "0abb82d98e1f6d24ba8650f826f068bd055c508754641ed51f9c114dbf5ba36f",
    ),
    "random_bipartite_graph(0, 7, 0.5, Random(1))": (
        lambda: random_bipartite_graph(0, 7, 0.5, Random(1)),
        "7902699be42c8a8e46fbbb4501726517e86b22c56a189f7625a6da49081b2451",
    ),
    "random_bipartite_graph(40, 25, 0.5, Random(17))": (
        lambda: random_bipartite_graph(40, 25, 0.5, Random(17)),
        "507fc68a285a605433fbe4fed07a376b39a2318faff9a0fb37c4bf7c3e9814cd",
    ),
    "planted_independent_set_graph(24, 9, 0.7, Random(1))": (
        lambda: planted_independent_set_graph(24, 9, 0.7, Random(1)),
        "0d7776793ffb76d6f731bc63565b4294fbe6d5b7ab6eac822aba5c0b1168ed5b",
    ),
    "planted_independent_set_graph(10, 4, 0.5, Random(3))": (
        lambda: planted_independent_set_graph(10, 4, 0.5, Random(3)),
        "0ab3e4d228b8dc9255b2ed10c254fa6825308cb03162ebee34be06b562c419b9",
    ),
    "planted_independent_set_graph(60, 15, 0.2, Random(8))": (
        lambda: planted_independent_set_graph(60, 15, 0.2, Random(8)),
        "167f35586f5f160aa0c7ae655ec79403d756386eba7649aa23ac2bb4a3549dfb",
    ),
    "planted_independent_set_graph(30, 0, 0.5, Random(4))": (
        lambda: planted_independent_set_graph(30, 0, 0.5, Random(4)),
        "892e86d139da0f203cc3f2f2771311849b166c2dd6399f01d0e4bae039eba20e",
    ),
    "planted_independent_set_graph(12, 12, 0.5, Random(6))": (
        lambda: planted_independent_set_graph(12, 12, 0.5, Random(6)),
        "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
    ),
    "planted_independent_set_graph(80, 79, 0.9, Random(9))": (
        lambda: planted_independent_set_graph(80, 79, 0.9, Random(9)),
        "0a3c2f525fd3c15ccfc7bdd03b3116c6d196dcb2e47511d5411edaeaa914ebdd",
    ),
}


@pytest.mark.parametrize(
    "n, p, master_seed, path", sorted(GNP_PINS, key=repr), ids=repr
)
def test_gnp_edge_sets_are_pinned(n, p, master_seed, path):
    graph = gnp_random_graph(n, p, spawn_rng(master_seed, *path))
    assert edge_list_hash(graph) == GNP_PINS[(n, p, master_seed, path)]


@pytest.mark.parametrize("name", sorted(STRUCTURED_PINS))
def test_structured_edge_sets_are_pinned(name):
    build, expected = STRUCTURED_PINS[name]
    assert edge_list_hash(build()) == expected


@pytest.mark.parametrize("name", sorted(PER_PAIR_PINS))
def test_per_pair_edge_sets_are_pinned(name):
    build, expected = PER_PAIR_PINS[name]
    assert edge_list_hash(build()) == expected
