"""Undirected simple labeled graphs: construction, parsing, and local structure.

The edge-list text format understood by :func:`parse_edge_list`:

* first data line: ``<node_count> <edge_count>``, with ``node_count`` at
  most :data:`MAX_NODE_COUNT`
* then ``edge_count`` lines ``<u> <v>`` with 0-based node ids
* optional label section: a line ``labels`` followed by ``node_count``
  lines ``<v> <label_id>``
* lines starting with ``#`` are comments; blank lines are ignored;
  LF and CRLF both accepted

The parser has two tokenizers, chosen by the text's bytes. Plain text
holds only ASCII digits, spaces, tabs, LF and CR, two ids of at most 18
digits on each line that is not blank, and exactly the header's edge count
of edge lines (no comment, no label section); numpy reads it from its bytes
(:func:`_plain_edge_list`), as ``int`` would. Every other text, and plain
text whose edges the arrays refuse, is read line by line, and only that
path names an error's line: each edge line is split once and read by
``int`` up to the first malformed one, and the pairs read go through
:func:`_edge_csr`, as :meth:`Graph.build`'s do, before that line's error.

A graph stores its adjacency as two read-only intp arrays in CSR form,
``degrees`` and ``neighbors`` (every node's sorted neighbor list,
concatenated; :func:`adjacency_arrays`), next to ``node_count`` and the
labels, which stay Python ints of any size. :meth:`Graph.build`,
:func:`parse_edge_list` and :func:`permute_graph` make the arrays by one
sort of the edge keys, which also finds every out-of-range id, self-loop
and repeated edge; an edge list the arrays refuse is then run through the
edge-by-edge validator, which names the first bad edge in input order
(:func:`_edge_csr`).
:func:`disjoint_union` concatenates the graphs' arrays.

Graphs are immutable after construction and safe to share across threads.
What is derived from the arrays is computed lazily on first use, once, and
cached on the graph; every later reader shares that copy:

* the tuple views ``Graph.adjacency`` and ``Graph.edge_set``;
* the neighbor-edge index (the edges inside every node's neighborhood, one
  edge id per triangle corner), as read-only arrays (:func:`neighbor_edge_arrays`);
* the tuple-of-tuples view of the index (:func:`neighbor_edge_lists`).

Concurrent first calls compute equal values.

The index comes from compact-forward triangle listing: nodes ranked by
(degree, id), each edge oriented towards the higher rank, and the wedges
inside each out-list closed by an oriented edge, tested in blocks of a
fixed wedge budget; a bool table of the edge keys' hash slots turns away
most open wedges before the binary search. Its time is O(m sqrt(m))
whatever the largest degree. One in-place sort of int64 corner codes
orders it, then each code becomes its row's edge id, in 16.5 bytes per
row: about 12 ms for G(700, 19600), 0.6-0.7 s for K_300 (13.4M rows) on 2
vCPUs. Above :data:`MAX_NEIGHBOR_EDGES` rows it raises ValueError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest node count a graph may have. Checked before anything is allocated
#: for it, so a two-line file cannot ask for billions of adjacency lists.
#: At the limit, ``ncwl stats`` on the file ``4194304 0`` takes 0.5-0.6 s
#: and peaks at 189 MiB RSS, ``ncwl refine`` 0.9-1.1 s and 354 MiB (2 vCPUs,
#: Python 3.11, numpy 2.4); when graphs were built as Python lists, 3.9 s and
#: 361 MiB, 5.7 s and 460 MiB.
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
    a repeated edge (in either orientation), at the first such edge.
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


def _int_pairs(edges: list) -> np.ndarray | None:
    """``edges`` as an (m, 2) int64 array, or None where numpy makes no such array."""
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    try:
        pairs = np.array(edges)
    except (ValueError, TypeError, OverflowError):
        return None
    # ids of 2**63 and up come out as float or object arrays, other types as their own
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind != "i":
        return None
    return pairs.astype(np.int64, copy=False)


#: The byte tokenizer's classes (:func:`_plain_edge_list`): 1 for an ASCII
#: digit, 2 for a space or tab, 3 for a line break (LF or CR), 0 for any
#: other byte (``#`` of a comment among them), which sends the text to the
#: line path.
_BYTE_KINDS = np.zeros(256, dtype=np.uint8)
_BYTE_KINDS[list(b"0123456789")] = 1
_BYTE_KINDS[list(b" \t")] = 2
_BYTE_KINDS[list(b"\n\r")] = 3

#: Most digits of an id the byte tokenizer reads: 10**18 - 1 fits in int64.
_PLAIN_DIGITS = 18


def _plain_edge_list(text: str) -> tuple[int, np.ndarray] | None:
    """(node_count, (m, 2) int64 edge pairs) of a plain edge list, from its bytes.

    Plain text holds only ASCII digits, spaces, tabs and line breaks (LF,
    CR); each line that is not blank holds two tokens of at most
    :data:`_PLAIN_DIGITS` digits; and those lines are the header, with a
    node count of at most :data:`MAX_NODE_COUNT`, plus exactly its edge
    count of edge lines. ``int`` reads such a token as the decimal value of
    its digits, which is the value computed here, so the pairs are the
    ones the line path reads. None for any other text.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    kinds = _BYTE_KINDS[buf]
    if not kinds.all():
        return None
    # a token starts where a digit follows a non-digit and ends where a non-digit
    # follows one, with a non-digit before and after the text (np.diff's prepend
    # and append cost more than the rest of a ten-line file's tokenizing)
    digit = np.zeros(len(kinds) + 2, dtype=bool)
    np.equal(kinds, 1, out=digit[1:-1])
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    lengths = ends - starts
    if len(starts) < 2 or len(starts) % 2:
        return None
    width = int(lengths.max())
    if width > _PLAIN_DIGITS:
        return None
    # each token's line, as the number of line breaks before it: two tokens a line
    lines = np.searchsorted(np.flatnonzero(kinds == 3), starts).reshape(-1, 2)
    if (lines[:, 0] != lines[:, 1]).any() or (lines[1:, 0] == lines[:-1, 1]).any():
        return None
    # Horner over the digit positions, aligned at each token's end; positions
    # before a token's first digit add nothing to its value of 0
    digits = buf - ord("0")
    values = np.zeros(len(starts), dtype=np.int64)
    for j in range(width, 0, -1):
        values *= 10
        values += np.where(lengths >= j, digits.take(ends - j, mode="clip"), 0)
    node_count, edge_count = int(values[0]), int(values[1])
    if node_count > MAX_NODE_COUNT or edge_count != len(lines) - 1:
        return None
    return node_count, values[2:].reshape(-1, 2)


def _validated_csr(node_count: int, pairs: np.ndarray | None):
    """CSR arrays (degrees, neighbors) of the edges ``pairs`` on ``node_count`` nodes.

    None if ``pairs`` is None or holds an out-of-range id, a self-loop or a
    repeated edge. Each edge {u, v} gives the keys ``u * n + v`` and ``v * n
    + u``, so one sort of the keys both orders the CSR rows and finds every
    self-loop and repeat (in either orientation) as two equal neighbors.
    """
    if pairs is None:
        return None
    n = node_count
    u, v = pairs[:, 0], pairs[:, 1]
    if len(pairs) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        return None
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    if (keys[1:] == keys[:-1]).any():
        return None
    return _csr(n, keys)


def _edge_csr(node_count: int, edges: list) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (degrees, neighbors) of ``edges`` on ``node_count`` nodes.

    Made by :func:`_validated_csr` where it accepts the edges. Otherwise
    the edge-by-edge validator raises :class:`_InvalidEdge` at the first bad
    edge, or accepts ids the arrays refuse (numpy unsigned ints, bools),
    whose arrays are then made from its adjacency.
    """
    csr = _validated_csr(node_count, _int_pairs(edges))
    if csr is not None:
        return csr
    adjacency, edge_set = _checked_adjacency(node_count, edges)
    degrees = np.fromiter(map(len, adjacency), dtype=np.intp, count=node_count)
    neighbors = np.fromiter(chain.from_iterable(adjacency), dtype=np.intp, count=2 * len(edge_set))
    return _frozen(degrees), _frozen(neighbors)


def _csr(node_count: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR arrays of the directed edges with the sorted int64 keys ``tail * n + head``."""
    tails, heads = np.divmod(keys, node_count)
    degrees = np.bincount(tails, minlength=node_count).astype(np.intp, copy=False)
    return _frozen(degrees), _frozen(heads.astype(np.intp, copy=False))


def _checked_labels(node_count: int, labels: Sequence[int] | None) -> tuple[int, ...]:
    """``labels`` (all 0 when None) as a tuple; ValueError unless one per node, non-negative."""
    if labels is None:
        return (0,) * node_count
    labels = tuple(labels)
    if len(labels) != node_count:
        raise ValueError("labels length must equal node_count")
    if any(l < 0 for l in labels):
        raise ValueError("labels must be non-negative")
    return labels


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with one non-negative integer label per node.

    Node v's neighbors are ``neighbors[s : s + degrees[v]]`` with ``s`` the
    sum of the degrees before v (CSR); both arrays are intp and read-only.
    Invariants (enforced by :meth:`build` and the parser):

    * every neighbor list is strictly increasing, so there are no
      self-loops and no parallel edges;
    * adjacency is symmetric: u lists v exactly when v lists u.

    ``adjacency`` (each node's sorted neighbor tuple) and ``edge_set``
    (each edge once as ``(u, v)`` with ``u < v``) are views derived from the
    arrays on first use and cached, as are the arrays of
    :func:`neighbor_edge_arrays` and the view of
    :func:`neighbor_edge_lists`. Two graphs are equal when their node
    counts, labels and adjacency are; neither ``==`` nor ``hash`` builds a
    view.
    """

    node_count: int
    labels: tuple[int, ...]
    degrees: np.ndarray
    neighbors: np.ndarray

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
        csr = _edge_csr(node_count, list(edges))
        return cls(node_count, _checked_labels(node_count, labels), *csr)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.node_count == other.node_count
            and self.labels == other.labels
            and np.array_equal(self.degrees, other.degrees)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __hash__(self) -> int:
        arrays = (self.degrees.tobytes(), self.neighbors.tobytes())
        return hash((self.node_count, self.labels, arrays))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every node's sorted neighbors, as a tuple per node."""
        flat = iter(self.neighbors.tolist())
        return tuple(tuple(islice(flat, d)) for d in self.degrees.tolist())

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Every edge once as (u, v) with u < v."""
        return frozenset(self.edges())

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        us, vs = _upper_half(self.degrees, self.neighbors)
        return list(zip(us.tolist(), vs.tolist()))

    def degree(self, v: int) -> int:
        if not 0 <= v < self.node_count:
            raise ValueError(f"node id out of range: {v}")
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge; builds the ``edge_set`` view on first use."""
        return ((u, v) if u < v else (v, u)) in self.edge_set

    @cached_property
    def _neighbor_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_frozen, _compact_forward(self)))

    @cached_property
    def _neighbor_edge_lists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        counts, edges = self._neighbor_edge_arrays
        pairs = map(self.edges().__getitem__, edges.tolist())
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

    Plain text (:func:`_plain_edge_list`) whose edges the arrays accept is
    read from its bytes; all other text line by line, which is the only
    path that names an error's line.
    """
    plain = _plain_edge_list(text)
    if plain is not None:
        node_count, pairs = plain
        csr = _validated_csr(node_count, pairs)
        if csr is not None:
            return Graph(node_count, (0,) * node_count, *csr)

    stripped = list(map(str.strip, text.splitlines()))
    keep = [bool(line) and line[0] != "#" for line in stripped]
    # the non-comment, non-blank lines, stripped, and their 1-based line numbers
    data = list(compress(stripped, keep))
    numbers = list(compress(count(1), keep))

    if not data:
        raise GraphFormatError("empty input: missing header line")

    parts = data[0].split()
    if len(parts) != 2:
        raise GraphFormatError("header must be '<node_count> <edge_count>'", numbers[0])
    try:
        node_count, edge_count = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("header must contain two integers", numbers[0]) from None
    if node_count < 0 or edge_count < 0:
        raise GraphFormatError("header counts must be non-negative", numbers[0])
    if node_count > MAX_NODE_COUNT:
        raise GraphFormatError(
            f"node count {node_count} exceeds the limit of {MAX_NODE_COUNT}", numbers[0]
        )

    # the edge lines up to the first malformed or missing one, whose error
    # waits until the lines before it are known to hold no bad edge
    pairs, fault = [], None
    for i in range(1, 1 + edge_count):
        if i >= len(data):
            fault = GraphFormatError(f"expected {edge_count} edge lines, got {i - 1}", numbers[-1])
            break
        parts = data[i].split()
        if len(parts) != 2:
            fault = GraphFormatError("edge line must be '<u> <v>'", numbers[i])
            break
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            fault = GraphFormatError("edge line must contain two integers", numbers[i])
            break
    try:
        csr = _edge_csr(node_count, pairs)
    except _InvalidEdge as exc:
        raise GraphFormatError(str(exc), numbers[1 + exc.index]) from None
    if fault is not None:
        raise fault
    pos = 1 + edge_count

    labels = (0,) * node_count
    if pos < len(data):
        lineno, line = numbers[pos], data[pos]
        pos += 1
        if line != "labels":
            raise GraphFormatError("expected 'labels' section or end of input", lineno)
        labels = [0] * node_count
        assigned = [False] * node_count
        for _ in range(node_count):
            if pos >= len(data):
                raise GraphFormatError(
                    f"label section must list all {node_count} nodes", numbers[-1]
                )
            lineno, line = numbers[pos], data[pos]
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
            raise GraphFormatError("unexpected content after label section", numbers[pos])
        labels = tuple(labels)
    return Graph(node_count, labels, *csr)


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
    sum of the degrees before v (CSR). The stored form of the graph.
    """
    return g.degrees, g.neighbors


def neighbor_edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp (counts, edges): the neighbor-edge index as flat arrays.

    ``counts[v]`` is the number of neighbor-edges of v, and ``edges`` holds
    each one's edge id, its position in ``g.edges()``, for every v in turn,
    ascending. Computed once per graph and cached.
    """
    return g._neighbor_edge_arrays


#: Wedges compact-forward makes and tests at a time, which bounds its
#: scratch arrays whatever the graph's wedge count. On G(2000, 100000)
#: (3.1M wedges, 7.7 MiB of output) the lister's numpy allocations peak at
#: 13.3 MiB in blocks of 2**16 and at 127 MiB unblocked.
_WEDGE_BLOCK = 2**16

#: Fewest wedges for which compact-forward builds its hash table of the
#: edge keys. Below this the table's numpy calls cost more than the binary
#: searches they save: per G(n, p), 68 vs 61 us at 19 wedges (n = 10),
#: 103 vs 101 us at 282 (n = 30), 126 vs 132 us at 629 (n = 50).
_TABLE_MIN_WEDGES = 512

#: Largest neighbor-edge index (3T rows, one per triangle corner) a graph
#: may have. nc1wl ``refine`` holds about 27 bytes per row: 368 MiB peak on
#: K_300 (3T = 13.4M), so about 460 MiB at the limit.
MAX_NEIGHBOR_EDGES = 2**24


def _compact_forward(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The arrays behind :func:`neighbor_edge_arrays`, from the triangles of ``g``.

    One in-place sort of the corner codes of :func:`_forward_triangles` puts
    the rows in (v, edge) order, which is (v, u1, u2) order; code // m is
    the row's v, and code % m, kept in place, its edge id. Raises ValueError
    as soon as the rows found pass :data:`MAX_NEIGHBOR_EDGES`.
    """
    n, m = g.node_count, g.edge_count
    blocks, total = [np.empty(0, dtype=np.int64)], 0
    for block in _forward_triangles(*adjacency_arrays(g)):
        total += len(block)
        if total > MAX_NEIGHBOR_EDGES:
            raise ValueError(
                f"the neighbor-edge index (nodes={n}, edges={m}) "
                f"exceeds the limit of {MAX_NEIGHBOR_EDGES} rows"
            )
        blocks.append(block)
    codes = np.concatenate(blocks)
    del blocks
    codes.sort()
    counts = np.bincount((codes // m).astype(np.intp, copy=False), minlength=n)
    codes %= m
    return counts, codes.astype(np.intp, copy=False)


def _upper_half(degrees: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of the CSR graph once as (u, v), u < v, in (u, v) order."""
    owners = np.repeat(np.arange(len(degrees)), degrees)
    upper = owners < neighbors
    return owners[upper], neighbors[upper]


def _forward_triangles(degrees: np.ndarray, neighbors: np.ndarray) -> Iterator[np.ndarray]:
    """Every triangle of the CSR graph once, as blocks of int64 corner codes.

    Compact-forward (Chiba and Nishizeki 1985; Latapy 2008): nodes are
    ranked by (degree, id), and every edge is oriented from its lower-ranked
    end to its higher one. A triangle then shows up once, at its
    lowest-ranked corner a, as a wedge: two out-neighbors b < c of a (in
    rank) closed by the oriented edge b -> c. No out-list is longer than
    sqrt(2m), so there are O(m sqrt(m)) wedges, where merging a hub's
    adjacency once per hub edge is quadratic in its degree. Wedges are made
    and tested in blocks of about :data:`_WEDGE_BLOCK`; each block yields
    a code ``center * m + e`` per corner of the triangles it closed, e the
    opposite edge's index in :func:`_upper_half` (exact: n * m < 2**63 for
    any graph that fits in memory).

    A wedge closes when its closing key b * n + c is an edge key, which a
    binary search over the sorted keys decides. Most wedges of a sparse
    graph stay open (91 % in G(700, 19600)), so a block's closing keys are
    first looked up in a bool table holding the :func:`_key_slots` of the
    edge keys, and only the wedges whose slot is set are searched. A graph
    of fewer than :data:`_TABLE_MIN_WEDGES` wedges has no table, and a
    block that follows one which closed more than half its wedges skips it.
    """
    n = len(degrees)
    order = np.argsort(degrees, kind="stable")  # rank -> node id
    # int64, so the edge keys below (up to n**2) cannot overflow where intp is 32 bits
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tails, heads = (rank[ends] for ends in _upper_half(degrees, neighbors))
    # the edges oriented by rank as keys tail * n + head; sorted, key i is edge ids[i]
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    ids = np.argsort(keys)
    keys = keys[ids]
    tails, heads = np.divmod(keys, n)
    m = len(keys)
    # where the codes of key i's tail and of its head as a center start
    centers = np.multiply(order, m, dtype=np.int64)
    tail_codes, head_codes = centers[tails], centers[heads]
    # edge e is the first arm of one wedge per later edge of its tail's out-list
    later = np.cumsum(np.bincount(tails, minlength=n))[tails] - np.arange(1, m + 1)
    wedge_ends = np.cumsum(later)
    # wedge w, numbered over all edges, pairs first arm e with edge w + shift[e]
    shift = np.arange(1, m + 1) - wedge_ends + later
    # the keys' slots in a table of 8 to 16 per edge: a closing key whose
    # slot is unset is no edge, so only the wedges with a set slot are searched
    use_table = m > 0 and wedge_ends[-1] >= _TABLE_MIN_WEDGES
    if use_table:
        slot_shift = 61 - m.bit_length()
        table = np.zeros(1 << (64 - slot_shift), dtype=bool)
        table[_key_slots(keys, slot_shift)] = True
    start, filtered = 0, use_table
    while start < m:
        done = wedge_ends[start] - later[start]
        stop = max(start + 1, int(np.searchsorted(wedge_ends, done + _WEDGE_BLOCK, "right")))
        arms = later[start:stop]
        first = np.repeat(np.arange(start, stop), arms)
        second = np.repeat(shift[start:stop], arms) + np.arange(done, done + len(first))
        closing = heads[first] * n + heads[second]
        wedges = len(closing)
        if filtered:
            maybe = np.flatnonzero(table[_key_slots(closing, slot_shift)])
            first, second, closing = first[maybe], second[maybe], closing[maybe]
        at = np.searchsorted(keys, closing)
        closed = keys.take(at, mode="clip") == closing
        first, second, at = first[closed], second[closed], at[closed]
        # where most wedges close (as in a clique) the filter passes nearly
        # all of them, so the next block skips it
        filtered = use_table and 2 * len(first) <= wedges
        yield np.concatenate((
            tail_codes[first] + ids[at],
            head_codes[first] + ids[second],
            head_codes[second] + ids[first],
        ))
        start = stop


def _key_slots(keys: np.ndarray, shift: int) -> np.ndarray:
    """Multiplicative hashes of the int64 ``keys``: the top ``64 - shift`` bits
    of each key times 2**64 / golden ratio, modulo 2**64."""
    slots = keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    slots >>= np.uint64(shift)
    return slots


def _neighbor_edge_total(g: Graph, cap: int) -> int:
    """3T, the length of the neighbor-edge index, where it may exceed ``cap``.

    An edge lies in at most min(d_u, d_v) - 1 triangles, so 3T is at most
    the sum of that over the edges. A bound within ``cap`` is returned as
    it is; above it, the triangles are counted block by block without
    storing them.
    """
    degrees, neighbors = adjacency_arrays(g)
    us, vs = _upper_half(degrees, neighbors)
    bound = int(np.minimum(degrees[us], degrees[vs]).sum()) - g.edge_count
    if bound <= cap:
        return bound
    return sum(len(block) for block in _forward_triangles(degrees, neighbors))


def stats(g: Graph) -> GraphStats:
    """Structural counts; each triangle contributes one pair to each corner."""
    # imported here, so that only a caller of stats loads fractions and decimal
    from fractions import Fraction

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
        max_degree=int(g.degrees.max(initial=0)),
        memory_bound=min(m, 3 * triangles),
    )


def disjoint_union(g1: Graph, g2: Graph) -> tuple[Graph, int]:
    """Union with g2's node ids shifted by g1.node_count; returns (graph, offset)."""
    return _union((g1, g2)), g1.node_count


def _union(graphs: Sequence[Graph]) -> Graph:
    """The disjoint union of ``graphs``, each shifted past the earlier ones.

    The union of no graphs is the empty graph.
    """
    sizes = [g.node_count for g in graphs]
    n = sum(sizes)
    if n > MAX_NODE_COUNT:
        raise ValueError(f"node_count {n} exceeds the limit of {MAX_NODE_COUNT}")
    starts = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
    # the inputs are valid graphs, so the concatenated arrays are one
    degrees = np.concatenate([np.zeros(0, np.intp), *(g.degrees for g in graphs)])
    neighbors = np.concatenate([np.zeros(0, np.intp), *(g.neighbors for g in graphs)])
    neighbors += np.repeat(starts, [len(g.neighbors) for g in graphs])
    labels = tuple(chain.from_iterable(g.labels for g in graphs))
    return Graph(n, labels, _frozen(degrees), _frozen(neighbors))


def permute_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel nodes: node v becomes perm[v]. ``perm`` must be a permutation."""
    if sorted(perm) != list(range(g.node_count)):
        raise ValueError("perm is not a permutation of the node ids")
    n = g.node_count
    labels = [0] * n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    p = np.array(perm, dtype=np.int64)
    tails = p[np.repeat(np.arange(n), g.degrees)]
    return Graph(n, tuple(labels), *_csr(n, np.sort(tails * n + p[g.neighbors])))


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
