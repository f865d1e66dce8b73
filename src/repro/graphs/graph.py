"""Core undirected graph data structure.

The whole reproduction works with a single, deliberately small graph type:
an immutable, undirected, simple graph over vertices ``0..n-1`` stored in
compressed-sparse-row (CSR) form — ``indptr`` (n + 1 segment offsets) and
``indices`` (each vertex's sorted neighbour list, concatenated), both
read-only ``int64`` arrays.  Immutability means a :class:`Graph` can be
shared freely between trials, algorithms and engines without defensive
copies.  The vectorised engines read the CSR arrays directly; the
per-vertex tuples and frozensets that the per-node reference code scans
(:meth:`Graph.neighbors`, :meth:`Graph.neighbor_set`) are built lazily on
first use, so large graphs that never touch them never pay for them.

Mutable construction goes through :class:`GraphBuilder`.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

Edge = Tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An immutable undirected simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    num_vertices:
        The number of vertices ``n``.  Vertices are the integers
        ``0..n-1``; isolated vertices are permitted and occur naturally in
        sparse random graphs.
    edges:
        An iterable of ``(u, v)`` pairs of ``int``, or an ``(m, 2)``
        integer array.  Self-loops are rejected; duplicate edges (in
        either orientation) are collapsed.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.neighbors(1)
    (0, 2)
    >>> g.indptr.tolist(), g.indices.tolist()
    ([0, 1, 3, 4], [1, 0, 2, 1])
    """

    __slots__ = ("_indptr", "_indices", "_adjacency", "_neighbor_sets")

    def __init__(
        self, num_vertices: int, edges: Union[Iterable[Edge], np.ndarray] = ()
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        n = num_vertices
        pairs = _edge_pairs(edges, n)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * n + hi
        keys.sort()
        # Sort-and-mask dedupe: np.unique's hash path is ~40x slower here.
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # Both orientations of every edge, sorted: row-major (u, v) order
        # is exactly CSR order with sorted neighbour lists.
        both = np.concatenate((keys, (keys % n) * n + keys // n))
        both.sort()
        rows, indices = np.divmod(both, n) if n else (both, both)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        self._adjacency: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._neighbor_sets: Optional[Tuple[frozenset, ...]] = None

    @staticmethod
    def _check_vertex(v: int, num_vertices: int) -> None:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex must be an int, got {v!r}")
        if not 0 <= v < num_vertices:
            raise ValueError(
                f"vertex {v} out of range for graph with {num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    # Canonical CSR arrays and the lazy per-vertex views
    # ------------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """CSR offsets: ``indices[indptr[v]:indptr[v + 1]]`` are ``v``'s
        neighbours.  Read-only ``int64``, length ``n + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Every vertex's sorted neighbour list, concatenated in vertex
        order.  Read-only ``int64``, length ``2 m``."""
        return self._indices

    def _rows(self) -> np.ndarray:
        """The source vertex of each ``indices`` entry."""
        n = self.num_vertices
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))

    def _neighbor_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        if self._adjacency is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            self._adjacency = tuple(
                tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])
            )
        return self._adjacency

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges ``m``."""
        return self._indices.size // 2

    def vertices(self) -> range:
        """The vertex set as a ``range`` object."""
        return range(self.num_vertices)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted tuple of neighbours of ``v``."""
        return self._neighbor_tuples()[v]

    def neighbor_set(self, v: int) -> frozenset:
        """The neighbours of ``v`` as a frozenset (O(1) membership)."""
        if self._neighbor_sets is None:
            self._neighbor_sets = tuple(map(frozenset, self._neighbor_tuples()))
        return self._neighbor_sets[v]

    def degree(self, v: int) -> int:
        """The degree of vertex ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> Tuple[int, ...]:
        """Degrees of all vertices, indexed by vertex."""
        return tuple(np.diff(self._indptr).tolist())

    def max_degree(self) -> int:
        """The maximum degree, 0 for the empty graph."""
        if self.num_vertices == 0:
            return 0
        return int(np.diff(self._indptr).max())

    def min_degree(self) -> int:
        """The minimum degree, 0 for the empty graph."""
        if self.num_vertices == 0:
            return 0
        return int(np.diff(self._indptr).min())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        self._check_vertex(u, self.num_vertices)
        self._check_vertex(v, self.num_vertices)
        return v in self.neighbor_set(u)

    def edge_array(self) -> np.ndarray:
        """The edges as an ``(m, 2)`` ``int64`` array, in :meth:`edges` order."""
        rows = self._rows()
        once = rows < self._indices
        return np.stack((rows[once], self._indices[once]), axis=1)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in canonical ``(u, v)`` with ``u < v`` order."""
        return map(tuple, self.edge_array().tolist())

    def density(self) -> float:
        """Edge density ``m / C(n, 2)``; 0.0 for graphs with < 2 vertices."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return self.num_edges / (n * (n - 1) / 2)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """The induced subgraph, with vertices relabelled to ``0..k-1``.

        The relabelling follows the order of ``vertices``; duplicates are
        rejected.
        """
        index: Dict[int, int] = {}
        for i, v in enumerate(vertices):
            self._check_vertex(v, self.num_vertices)
            if v in index:
                raise ValueError(f"duplicate vertex {v} in subgraph selection")
            index[v] = i
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in index and v in index
        ]
        return Graph(len(index), edges)

    def complement(self) -> "Graph":
        """The complement graph (quadratic; meant for small graphs)."""
        missing = ~self.adjacency_matrix()
        return Graph(self.num_vertices, np.argwhere(np.triu(missing, 1)))

    def disjoint_union(self, other: "Graph") -> "Graph":
        """The disjoint union; ``other``'s vertices are shifted by ``n``."""
        offset = self.num_vertices
        edges = np.concatenate((self.edge_array(), other.edge_array() + offset))
        return Graph(offset + other.num_vertices, edges)

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Apply a vertex permutation: new graph has edge (p[u], p[v])."""
        n = self.num_vertices
        if sorted(permutation) != list(range(n)):
            raise ValueError("permutation must be a bijection on 0..n-1")
        return Graph(n, [(permutation[u], permutation[v]) for u, v in self.edges()])

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists, in discovery order."""
        adjacency = self._neighbor_tuples()
        seen = [False] * self.num_vertices
        components: List[List[int]] = []
        for root in self.vertices():
            if seen[root]:
                continue
            stack = [root]
            seen[root] = True
            component = []
            while stack:
                u = stack.pop()
                component.append(u)
                for w in adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        if self.num_vertices == 0:
            return True
        return len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # Matrix view
    # ------------------------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """The boolean adjacency matrix as a numpy array (n x n)."""
        n = self.num_vertices
        matrix = np.zeros((n, n), dtype=bool)
        matrix[self._rows(), self._indices] = True
        return matrix

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and 0 <= v < self.num_vertices

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


def _check_pairs(pairs: Iterable, num_vertices: int) -> None:
    """Raise the error the first invalid pair of ``pairs`` earns.

    The per-pair contract, in order: both endpoints are ``int`` (not
    ``bool``) and in range, and the pair is not a self-loop.
    """
    for u, v in pairs:
        Graph._check_vertex(u, num_vertices)
        Graph._check_vertex(v, num_vertices)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")


def _edge_pairs(edges: Union[Iterable[Edge], np.ndarray], n: int) -> np.ndarray:
    """``edges`` as a validated ``(m, 2)`` ``int64`` array.

    An integer array is checked vectorised, and only its first bad row
    goes through the per-pair check, so the error raised is the one a
    pair-by-pair scan would raise.  Any other iterable is scanned pair by
    pair.
    """
    if isinstance(edges, np.ndarray):
        if edges.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edge array must have shape (m, 2), got {edges.shape}")
        if not np.issubdtype(edges.dtype, np.integer):
            raise TypeError(f"vertex must be an int, got {edges.dtype} array")
        bad = ((edges < 0) | (edges >= n)).any(axis=1)
        bad |= edges[:, 0] == edges[:, 1]
        if bad.any():
            first = int(np.argmax(bad))
            _check_pairs([tuple(edges[first].tolist())], n)
        return edges.astype(np.int64, copy=False)
    pairs = [tuple(pair) for pair in edges]
    _check_pairs(pairs, n)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


class GraphBuilder:
    """Mutable helper for incremental graph construction.

    >>> builder = GraphBuilder()
    >>> a, b = builder.add_vertex(), builder.add_vertex()
    >>> builder.add_edge(a, b)
    >>> builder.build().num_edges
    1
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self._num_vertices = num_vertices
        self._edges: Set[Edge] = set()

    @property
    def num_vertices(self) -> int:
        """Current number of vertices."""
        return self._num_vertices

    def add_vertex(self) -> int:
        """Add one vertex and return its id."""
        v = self._num_vertices
        self._num_vertices += 1
        return v

    def add_vertices(self, count: int) -> List[int]:
        """Add ``count`` vertices and return their ids."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.add_vertex() for _ in range(count)]

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``; idempotent."""
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        for w in (u, v):
            if not 0 <= w < self._num_vertices:
                raise ValueError(f"vertex {w} has not been added")
        self._edges.add(_normalise_edge(u, v))

    def add_clique(self, vertices: Sequence[int]) -> None:
        """Add all C(k, 2) edges among ``vertices``."""
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                self.add_edge(u, v)

    def add_path(self, vertices: Sequence[int]) -> None:
        """Add consecutive edges along ``vertices``."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_edge(u, v)

    def build(self) -> Graph:
        """Freeze the builder into an immutable :class:`Graph`."""
        return Graph(self._num_vertices, self._edges)
