"""Undirected simple labeled graphs: construction, parsing, and local structure.

The edge-list text format understood by :func:`parse_edge_list`:

* first data line: ``<node_count> <edge_count>``, with ``node_count`` at
  most :data:`MAX_NODE_COUNT`
* then ``edge_count`` lines ``<u> <v>`` with 0-based node ids
* optional label section: a line ``labels`` followed by ``node_count``
  lines ``<v> <label_id>``
* lines starting with ``#`` are comments; blank lines are ignored;
  LF and CRLF both accepted

Graphs are immutable after construction and safe to share across threads.
Each graph's neighbor-edge index (the edges inside every node's
neighborhood, one per triangle corner) is computed lazily on first use,
once, and cached on the graph as read-only numpy arrays
(:func:`neighbor_edge_arrays`); every later reader shares that copy. So are
the read-only arrays of the adjacency (:func:`adjacency_arrays`), which
the index is built from, and the tuple-of-tuples view of the index
(:func:`neighbor_edge_lists`), derived from its arrays only when asked
for. Concurrent first calls compute equal values.

The index comes from compact-forward triangle listing: nodes ranked by
(degree, id), each edge oriented towards the higher rank, and the wedges
inside each out-list closed by an oriented edge, tested in blocks of a
fixed wedge budget. Its time is O(m sqrt(m)) whatever the largest degree.
Graphs below :data:`_FORWARD_MIN_NODES` nodes use a merge loop instead,
whose cost there is below numpy's fixed cost per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

#: Largest node count a graph may have. Checked before anything is allocated
#: for it, so a two-line file cannot ask for billions of adjacency lists.
#: At the limit, ``ncwl stats`` on the file ``4194304 0`` peaks at 425 MB
#: RSS and ``ncwl refine`` at 514 MB.
MAX_NODE_COUNT = 2**22


class GraphFormatError(ValueError):
    """Malformed edge-list input. ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class _InvalidEdge(ValueError):
    """A rejected edge; ``index`` is its 0-based position in the edge sequence."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


def _checked_adjacency(node_count: int, edges: Iterable[tuple[int, int]]):
    """Sorted adjacency and canonical edge set of ``edges`` on ``node_count`` nodes.

    Raises :class:`_InvalidEdge` for an out-of-range endpoint, a self-loop or
    a repeated edge (in either orientation).
    """
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        # every earlier edge was accepted, so len(seen) is this edge's index
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise _InvalidEdge(f"edge ({u},{v}) out of range for {node_count} nodes", len(seen))
        if u == v:
            raise _InvalidEdge(f"self-loop at node {u}", len(seen))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise _InvalidEdge(f"duplicate edge ({key[0]},{key[1]})", len(seen))
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nb)) for nb in adj), frozenset(seen)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with one non-negative integer label per node.

    Invariants (enforced by :meth:`build` and the parser):

    * adjacency lists are strictly increasing, so there are no self-loops
      and no parallel edges;
    * adjacency is symmetric and describes exactly ``edge_set``;
    * ``edge_set`` stores each edge once as ``(u, v)`` with ``u < v``.

    The arrays of :func:`adjacency_arrays` and :func:`neighbor_edge_arrays`
    and the view of :func:`neighbor_edge_lists` are computed on first use
    and cached on the instance; they are not fields, so they take no part
    in equality or hashing.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_set: frozenset[tuple[int, int]]
    labels: tuple[int, ...]

    @classmethod
    def build(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
    ) -> "Graph":
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        if node_count > MAX_NODE_COUNT:
            raise ValueError(f"node_count {node_count} exceeds the limit of {MAX_NODE_COUNT}")
        adjacency, edge_set = _checked_adjacency(node_count, edges)
        if labels is None:
            labels = [0] * node_count
        else:
            labels = list(labels)
            if len(labels) != node_count:
                raise ValueError("labels length must equal node_count")
            if any(l < 0 for l in labels):
                raise ValueError("labels must be non-negative")
        return cls(node_count, adjacency, edge_set, tuple(labels))

    @property
    def edge_count(self) -> int:
        return len(self.edge_set)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        return sorted(self.edge_set)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    @cached_property
    def _adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        adj = self.adjacency
        degrees = _frozen(np.fromiter(map(len, adj), dtype=np.intp, count=self.node_count))
        neighbors = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=2 * self.edge_count)
        return degrees, _frozen(neighbors)

    @cached_property
    def _neighbor_edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        counts, u1s, u2s = _list_neighbor_edges(self)
        return _frozen(counts), _frozen(u1s), _frozen(u2s)

    @cached_property
    def _neighbor_edge_lists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        counts, u1s, u2s = self._neighbor_edge_arrays
        pairs = zip(u1s.tolist(), u2s.tolist())
        return tuple(tuple(islice(pairs, c)) for c in counts.tolist())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NeighborEdge:
    """An edge whose two endpoints are both neighbors of ``center``.

    ``endpoints`` is canonically oriented: ``endpoints[0] < endpoints[1]``.
    """

    center: int
    endpoints: tuple[int, int]


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    triangle_count: int
    messages_nc_per_node: tuple[int, ...]
    avg_messages_nc: Fraction
    max_messages_nc: int
    max_degree: int
    memory_bound: int


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Raises :class:`GraphFormatError` with a 1-based line number for malformed
    lines, self-loops, duplicate edges, and out-of-range node ids.
    """
    # (line_number, stripped_content) for non-comment, non-blank lines
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data.append((lineno, line))

    if not data:
        raise GraphFormatError("empty input: missing header line")

    lineno, header = data[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("header must be '<node_count> <edge_count>'", lineno)
    try:
        node_count, edge_count = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", lineno) from None
    if node_count < 0 or edge_count < 0:
        raise GraphFormatError("header counts must be non-negative", lineno)
    if node_count > MAX_NODE_COUNT:
        raise GraphFormatError(
            f"node count {node_count} exceeds the limit of {MAX_NODE_COUNT}", lineno
        )

    def edge_lines():
        for i in range(edge_count):
            if 1 + i >= len(data):
                raise GraphFormatError(f"expected {edge_count} edge lines, got {i}", data[-1][0])
            lineno, line = data[1 + i]
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError("edge line must be '<u> <v>'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("edge line must contain two integers", lineno) from None
            yield u, v

    try:
        adjacency, edge_set = _checked_adjacency(node_count, edge_lines())
    except _InvalidEdge as exc:
        raise GraphFormatError(str(exc), data[1 + exc.index][0]) from None
    pos = 1 + edge_count

    labels = [0] * node_count
    if pos < len(data):
        lineno, line = data[pos]
        pos += 1
        if line != "labels":
            raise GraphFormatError("expected 'labels' section or end of input", lineno)
        assigned = [False] * node_count
        for _ in range(node_count):
            if pos >= len(data):
                raise GraphFormatError(
                    f"label section must list all {node_count} nodes", data[-1][0]
                )
            lineno, line = data[pos]
            pos += 1
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError("label line must be '<v> <label_id>'", lineno)
            try:
                v, lab = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("label line must contain two integers", lineno) from None
            if not 0 <= v < node_count:
                raise GraphFormatError(f"node id out of range: {v}", lineno)
            if lab < 0:
                raise GraphFormatError("label id must be non-negative", lineno)
            if assigned[v]:
                raise GraphFormatError(f"duplicate label for node {v}", lineno)
            assigned[v] = True
            labels[v] = lab
        if pos < len(data):
            raise GraphFormatError("unexpected content after label section", data[pos][0])
    return Graph(node_count, adjacency, edge_set, tuple(labels))


def serialize_edge_list(g: Graph) -> str:
    """Edge-list text for ``g``; ``parse_edge_list`` round-trips it exactly."""
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    if any(l != 0 for l in g.labels):
        lines.append("labels")
        lines.extend(f"{v} {lab}" for v, lab in enumerate(g.labels))
    return "\n".join(lines) + "\n"


def neighbor_edges(g: Graph, v: int) -> list[NeighborEdge]:
    """All edges with both endpoints in N(v), ascending by (u1, u2).

    Reads the graph's neighbor-edge index, so the first call on a graph
    lists the neighbor-edges of every node.
    """
    if not 0 <= v < g.node_count:
        raise ValueError(f"node id out of range: {v}")
    return [NeighborEdge(center=v, endpoints=pair) for pair in neighbor_edge_lists(g)[v]]


def neighbor_edge_lists(g: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For every node v, the (u1, u2) pairs of edges inside N(v), ascending.

    A tuple view of :func:`neighbor_edge_arrays`, built from them on first
    use. Cached; every call returns the same object.
    """
    return g._neighbor_edge_lists


def adjacency_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (degrees, neighbors): every node's sorted adjacency list, concatenated.

    Node v's neighbors are ``neighbors[s : s + degrees[v]]`` with ``s`` the
    sum of the degrees before v (CSR). Computed once per graph and cached.
    """
    return g._adjacency_arrays


def neighbor_edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (counts, u1s, u2s): the neighbor-edge index as flat arrays.

    ``counts[v]`` is the number of neighbor-edges of v, and ``(u1s[i],
    u2s[i])`` with ``u1s[i] < u2s[i]`` run over all of them in (v, u1, u2)
    order. Computed once per graph and cached.
    """
    return g._neighbor_edge_arrays


#: Graphs below this many nodes list their neighbor-edges with the merge
#: loop, larger ones by compact-forward, whose fixed cost is some 40 numpy
#: calls. Median CPU time per call over 40 G(n, p), p = 0.15 / 0.3 / 0.5,
#: merge vs compact-forward, 2 vCPUs: n = 10 10/18/45 vs 57/67/96 us;
#: n = 16 25/63/135 vs 88/97/125 us; n = 20 42/109/247 vs 79/106/167 us;
#: n = 24 40/122/294 vs 55/86/162 us; n = 32 75/255/699 vs 56/119/433 us.
_FORWARD_MIN_NODES = 24

#: Wedges compact-forward makes and tests at a time, which bounds its
#: scratch arrays whatever the graph's wedge count. On G(2000, 100000)
#: (3.1M wedges, 7.6 MB of output) the lister's numpy allocations peak at
#: 27 MB in blocks of 2**16 and at 121 MB unblocked.
_WEDGE_BLOCK = 2**16


def _list_neighbor_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one triangle lister: the arrays behind :func:`neighbor_edge_arrays`.

    Graphs below :data:`_FORWARD_MIN_NODES` nodes use the merge lister,
    the one the tests hold :func:`_compact_forward` to.
    """
    if g.node_count >= _FORWARD_MIN_NODES:
        return _compact_forward(g)
    out = _merge_neighbor_edges(g)
    counts = np.fromiter(map(len, out), dtype=np.intp, count=g.node_count)
    total = int(counts.sum())
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(out)), dtype=np.intp, count=2 * total
    ).reshape(total, 2)
    return counts, flat[:, 0], flat[:, 1]


def _merge_neighbor_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """For every node w, the edges (u1, u2) inside N(w), ascending.

    An edge (u1, u2) belongs to the list of every common neighbor of u1 and
    u2, which merging their sorted adjacency lists finds; taking edges in
    sorted order keeps every list ascending. Quadratic in the largest degree.
    """
    adj = g.adjacency
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for u1, u2 in g.edges():
        a, b = adj[u1], adj[u2]
        i = j = 0
        la, lb = len(a), len(b)
        pair = (u1, u2)
        while i < la and j < lb:
            x, y = a[i], b[j]
            if x == y:
                out[x].append(pair)
                i += 1
                j += 1
            elif x < y:
                i += 1
            else:
                j += 1
    return out


def _compact_forward(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor-edge arrays of ``g`` from its triangles (:func:`_forward_triangles`).

    A triangle x < y < z gives one row (center, u1, u2) per corner: (x, y,
    z), (y, x, z) and (z, x, y). One lexsort puts the rows in (v, u1, u2)
    order. The triangle search is a function of its own so that its scratch
    arrays are freed before the rows are built.
    """
    x, y, z = np.sort(_forward_triangles(*adjacency_arrays(g)), axis=0)
    centers = np.concatenate((x, y, z))
    u1s = np.concatenate((y, x, x))
    u2s = np.concatenate((z, z, y))
    by_node = np.lexsort((u2s, u1s, centers))
    return np.bincount(centers, minlength=g.node_count), u1s[by_node], u2s[by_node]


def _forward_triangles(degrees: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Every triangle of the CSR graph once, as the columns of a (3, T) array.

    Compact-forward (Chiba and Nishizeki 1985; Latapy 2008): nodes are
    ranked by (degree, id), and every edge is oriented from its lower-ranked
    end to its higher one. A triangle then shows up once, at its
    lowest-ranked corner a, as a wedge: two out-neighbors b < c of a (in
    rank) closed by the oriented edge b -> c. No out-list is longer than
    sqrt(2m), so there are O(m sqrt(m)) wedges, where merging a hub's
    adjacency once per hub edge is quadratic in its degree. Wedges are made
    and tested in blocks of about :data:`_WEDGE_BLOCK`.
    """
    n = len(degrees)
    order = np.argsort(degrees, kind="stable")  # rank -> node id
    # int64, so the edge keys below (up to n**2) cannot overflow where intp is 32 bits
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tails = rank[np.repeat(np.arange(n), degrees)]
    heads = rank[neighbors]
    forward = tails < heads
    # the oriented edges as sorted keys tail * n + head, in rank space
    keys = np.sort(tails[forward] * n + heads[forward])
    tails, heads = np.divmod(keys, n)
    m = len(keys)
    # edge e is the first arm of one wedge per later edge of its tail's out-list
    later = np.cumsum(np.bincount(tails, minlength=n))[tails] - np.arange(1, m + 1)
    wedge_ends = np.cumsum(later)
    # wedge w, numbered over all edges, pairs first arm e with edge w + shift[e]
    shift = np.arange(1, m + 1) - wedge_ends + later
    found = [np.empty((3, 0), dtype=np.intp)]
    start = 0
    while start < m:
        done = wedge_ends[start] - later[start]
        stop = max(start + 1, int(np.searchsorted(wedge_ends, done + _WEDGE_BLOCK, "right")))
        arms = later[start:stop]
        first = np.repeat(np.arange(start, stop), arms)
        second = np.repeat(shift[start:stop], arms) + np.arange(done, done + len(first))
        closing = heads[first] * n + heads[second]
        closed = keys[np.minimum(np.searchsorted(keys, closing), m - 1)] == closing
        first, second = first[closed], second[closed]
        found.append(np.stack((tails[first], heads[first], heads[second])))
        start = stop
    return order[np.concatenate(found, axis=1)]


def stats(g: Graph) -> GraphStats:
    """Structural counts; each triangle contributes one pair to each corner."""
    counts = neighbor_edge_arrays(g)[0]
    per_node = tuple(counts.tolist())
    total = sum(per_node)
    # total == 3 * triangle_count by construction
    triangles = total // 3
    n = g.node_count
    m = g.edge_count
    return GraphStats(
        node_count=n,
        edge_count=m,
        triangle_count=triangles,
        messages_nc_per_node=per_node,
        avg_messages_nc=Fraction(total, n) if n else Fraction(0),
        max_messages_nc=max(per_node, default=0),
        max_degree=int(adjacency_arrays(g)[0].max(initial=0)),
        memory_bound=min(m, 3 * triangles),
    )


def disjoint_union(g1: Graph, g2: Graph) -> tuple[Graph, int]:
    """Union with g2's node ids shifted by g1.node_count; returns (graph, offset)."""
    offset = g1.node_count
    edges = list(g1.edges())
    edges.extend((u + offset, v + offset) for u, v in g2.edges())
    labels = list(g1.labels) + list(g2.labels)
    return Graph.build(offset + g2.node_count, edges, labels), offset


def permute_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node v becomes perm[v]. ``perm`` must be a permutation."""
    if sorted(perm) != list(range(g.node_count)):
        raise ValueError("perm is not a permutation of the node ids")
    labels = [0] * g.node_count
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    edges = [(perm[u], perm[v]) for u, v in g.edge_set]
    return Graph.build(g.node_count, edges, labels)


# Small named constructions used throughout the tests and the corpus.

def empty_graph(n: int, labels: Sequence[int] | None = None) -> Graph:
    return Graph.build(n, [], labels)


def path_graph(n: int, labels: Sequence[int] | None = None) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)], labels)


def cycle_graph(n: int, labels: Sequence[int] | None = None) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.build(n, edges, labels)


def complete_graph(n: int, labels: Sequence[int] | None = None) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.build(n, edges, labels)


def star_graph(leaves: int, labels: Sequence[int] | None = None) -> Graph:
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)], labels)


def wheel_graph(rim: int, labels: Sequence[int] | None = None) -> Graph:
    """Hub node 0 joined to every node of the cycle 1..rim."""
    if rim < 3:
        raise ValueError("wheel rim needs at least 3 nodes")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges.extend((i, i + 1) for i in range(1, rim))
    edges.append((1, rim))
    return Graph.build(rim + 1, edges, labels)


def random_gnp(rng: random.Random, n: int, p: float, num_labels: int = 1) -> Graph:
    """Erdos-Renyi G(n, p) with labels drawn uniformly from range(num_labels)."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    labels = [rng.randrange(num_labels) for _ in range(n)] if num_labels > 1 else None
    return Graph.build(n, edges, labels)


def random_gnm(rng: random.Random, n: int, m: int, num_labels: int = 1) -> Graph:
    """Uniform random graph with exactly m distinct edges (m capped at C(n,2))."""
    limit = n * (n - 1) // 2
    m = min(m, limit)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        chosen.add((u, v) if u < v else (v, u))
    labels = [rng.randrange(num_labels) for _ in range(n)] if num_labels > 1 else None
    return Graph.build(n, sorted(chosen), labels)
