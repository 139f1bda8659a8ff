"""Color-refinement engines and pairwise graph comparison.

Three refinement families over a shared core:

* ``1wl``    -- node colors refined by (own color, multiset of neighbor colors);
* ``nc1wl``  -- additionally the multiset of color pairs for edges joining two
  neighbors of the node ("neighbor communication");
* ``2wl``/``3wl`` -- colors on ordered k-tuples of nodes, refined by the k
  multisets obtained by substituting each tuple position.

All four methods relabel by sorting (the sorted-signature compression of
Shervashidze et al. 2011), and where they hash they check every hash
group, so "injective hash" holds exactly, whatever the hash's collisions.
Each round assigns dense ids 0..num_classes-1 in first-appearance order
over the fixed entity order; since signatures embed the previous round's
colors, reusing small ids across rounds cannot merge classes.

* The node methods gather every node's neighbor colors, and for nc1wl the
  codes of its neighbor-edges' color pairs (one per edge and round), into
  padded rows (:func:`_width_classes`, built once per run), sort each row,
  and give equal rows equal ids by one sort per width class. A width class
  holds the nodes whose row lengths have one bit length, so the padded rows
  hold under four times the gathered entries plus two slots per node.
* The tuple methods use that the multiset for position i depends only on
  the other k-1 coordinates: each round sorts the colors of every fiber
  (the n tuples differing only at one position), gives equal sorted fibers
  equal ids by one sort, and then relabels the (k+1)-integer rows of own
  color and fiber id per position the same way. Round 0 takes graphs of any
  node counts, which is all that ``compare`` of an unequal pair needs. A
  later round takes graphs of one node count, a stack of tuple cubes, and
  sorts each position's fibers of the whole stack in one call
  (:func:`_sort_round`).

"One sort" gives each entity one int64 code and groups equal codes by one
``np.argsort``. The wide keys, a node's row and a fiber, are matrices with
one row per entity. :func:`_row_ids` hashes each row by one matrix-vector
product with fixed odd 64-bit multipliers, compares every pair of sorted
rows with equal codes, and hands the rows to :func:`_dense_ids` on a
collision, so the ids are exact whatever the rows hold. The narrow keys,
round 0 of the tuple methods and their (k+1)-integer rows, go to
:func:`_dense_ids`, which packs them exactly, one key row at a time
(ranking the code so far where the next digit would overflow). On the
benchmark's seed-0 ``compare`` unions (2 vCPUs) the row codes take nc1wl
rounds of tri-dense in about half the time of :func:`_dense_ids` on the
same rows (11-15 vs 23-32 ms), and of mesh-rounds in about three quarters
(22 vs 30 ms). No hash collided in the 1157 :func:`_row_ids` calls of one
in-process seed-0 pass of the four workloads.

The ids equal those a fresh interner gives the canonical signature tuples
(multisets sorted, pairs as (min, max)), bit for bit. The node methods
still intern on graphs below :data:`_SORT_MIN_NODES` nodes, where the sort
engine's fixed numpy cost outweighs its gain: :class:`_NodeUniverse` under
:func:`_intern_round`, which is also the reference the tests hold the node
sort engine to. The tuple methods always sort; their interning reference,
a tuple universe under the same :func:`_intern_round`, lives with the
tests.

Every round step takes and returns one int64 color array over the entity
order. :func:`_counted_rounds` is the one round loop: it yields each round's
colors with a bincount of every graph's colors, after checking that they are
dense ids. Four consumers read it: :func:`refine` builds its
:class:`Coloring` objects (Python ints) from it and :func:`compare` its
:class:`RefinementReport`, while the CLI's ``refine`` prints each round as
it comes, its histogram rendered by :func:`_histogram_line`, and its
``compare`` stops at the first round whose counts differ, keeping neither
colorings nor histograms. A run that reaches a discrete partition ends
without a confirmation step (:func:`_rounds`).

Pairwise comparison interleaves the two graphs in one joint run (the node
methods on their disjoint union, the tuple methods in the same sorts),
comparing the color histograms before every refinement round and
reporting the first differing round, exactly as an isomorphism-test loop.
Where only the verdicts of many pairs are wanted, as in the self-check
suite, :func:`_verdicts` judges every method in joint runs over many pairs
and reads each pair's verdict off the final colors: the node methods over
the union of every graph of a chunk of pairs, the tuple methods in one run
per node count. The suite's triangle-free check likewise refines one union
of all its graphs per method and compares each graph's slices of the two
runs as partitions, round by round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, groupby
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from . import METHODS  # defined numpy-free in the package; re-exported here
from .graph import (
    Graph,
    _union,
    _upper_half,
    adjacency_arrays,
    disjoint_union,
    neighbor_edge_arrays,
    neighbor_edge_lists,
)

#: Default node-count caps keeping the tuple universe at ~32k entities.
#: Both tuple methods relabel by sorting, exactly; a caller may raise the cap
#: up to :data:`MAX_TUPLE_ENTITIES`.
KWL_NODE_CAPS = {2: 181, 3: 32}

#: Largest tuple universe (node_count**k) of one graph, checked before any
#: allocation whatever the node cap. Near the limit (3wl on G(101, 0.3)) the
#: rounds alone peak at about 160 MiB RSS for one graph and 260 MiB for a
#: joint run of two. The library functions keep more: :func:`refine` with
#: its colorings peaks at about 570 MiB and :func:`compare` with its
#: histograms at about 760 MiB. The CLI commands keep neither: ``ncwl
#: refine`` peaks at about 240 MiB and ``ncwl compare`` at about 280 MiB.
#: A joint verdict run (:func:`_verdicts`) holds at most this many tuples
#: unless it holds a single pair.
MAX_TUPLE_ENTITIES = 2**20

VERDICT_DISTINGUISHED = "distinguished"
VERDICT_NOT_DISTINGUISHED = "not-distinguished"

Histogram = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Coloring:
    """Dense colors over a fixed entity order plus the class histogram."""

    colors: tuple[int, ...]
    num_classes: int
    histogram: Histogram

    @classmethod
    def from_colors(cls, colors: Sequence[int]) -> "Coloring":
        """The coloring of dense ids: every color in 0..len(colors)-1.

        Raises ValueError for any other color, before counting.
        """
        colors = tuple(colors)
        if colors and not 0 <= min(colors) <= max(colors) < len(colors):
            raise ValueError(f"colors must be dense ids in 0..{len(colors) - 1}")
        hist = _histogram(colors)
        return cls(colors, len(hist), hist)


def _histogram(colors: Sequence[int]) -> Histogram:
    """Sorted (color, count) pairs of non-negative colors.

    Counts by ``np.bincount``, so the colors must be dense ids: the count
    array spans every value up to the largest color.
    """
    return _nonzero_counts(np.bincount(np.asarray(colors, dtype=np.int64)))


def _nonzero_counts(counts: np.ndarray) -> Histogram:
    """The (color, count) pairs of the nonzero entries of a bincount."""
    present = np.flatnonzero(counts)
    return tuple(zip(present.tolist(), counts[present].tolist()))


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0..9999, zero-padded, one uint32 per number."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.empty((10,) * 4 + (4,), dtype=np.uint8)
    for j in range(4):
        # digit j of the number (i0, i1, i2, i3) is i_j
        table[..., j] = ascii_digits.reshape((10,) + (1,) * (3 - j))
    return table.view(np.uint32).reshape(-1)


_DIGITS4 = _digit_table()
#: 10**1 .. 10**18: a non-negative int64 has one digit more than the powers it reaches.
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)


def _histogram_line(counts: np.ndarray) -> str:
    """``",".join(f"{c}:{k}" for c, k in enumerate(counts.tolist()))`` for
    the non-negative int64 ``counts``, rendered by numpy.

    The ids and counts are interleaved, and each number is written as
    right-aligned 4-digit chunks from :data:`_DIGITS4` into a fixed-width
    field, followed by its separator byte: ":" after an id and "," after a
    count. One index then gathers each field's significant digits and its
    separator, but not the last separator. On 17576 classes this takes
    about 0.9 ms against 3.5 ms for the f-strings (2 vCPUs); keeping the
    bytes by a boolean mask over the fields took 1.2-1.4 ms.
    """
    m = len(counts)
    if not m:
        return ""
    values = np.empty(2 * m, dtype=np.int64)
    values[0::2] = np.arange(m)
    values[1::2] = counts
    digits = np.searchsorted(_TENS, values, side="right")
    digits += 1
    chunks = (int(digits.max()) + 3) // 4
    fields = np.empty((2 * m, chunks + 1), dtype=np.uint32)
    for j in range(chunks - 1, -1, -1):
        # a scalar floor-divide, far faster here than np.divmod
        high = values // 10000
        fields[:, j] = _DIGITS4[values - high * 10000]
        values = high
    text = fields.view(np.uint8)
    text[0::2, 4 * chunks] = ord(":")
    text[1::2, 4 * chunks] = ord(",")
    # field i takes the digits[i] bytes before its separator and the
    # separator; output byte p of field i is text byte starts[i] + p
    length = digits + 1
    length[-1] -= 1
    ends = np.cumsum(length)
    width = text.shape[1]
    starts = np.arange(4 * chunks, 2 * m * width, width) - digits
    starts -= ends - length
    index = np.repeat(starts, length) + np.arange(int(ends[-1]))
    return text.reshape(-1)[index].tobytes().decode("ascii")


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of one joint comparison run.

    ``histograms[i]`` holds the two graphs' histograms at iteration i
    (iteration 0 is the initial coloring). When distinguished, the
    histograms differ exactly at ``distinguishing_iteration`` and agree at
    every earlier iteration.
    """

    method: str
    verdict: str
    iterations_run: int
    distinguishing_iteration: int | None
    histograms: tuple[tuple[Histogram, Histogram], ...]

    @property
    def distinguished(self) -> bool:
        return self.verdict == VERDICT_DISTINGUISHED


class _NodeUniverse:
    """Entities are the nodes of one graph; supports 1wl and nc1wl signatures.

    Interns each node's signature; the node engine below
    :data:`_SORT_MIN_NODES` nodes and the reference that the sorting engine
    (:func:`_node_round`) is tested against.
    """

    def __init__(self, g: Graph, with_neighbor_edges: bool):
        self.graph = g
        self.size = g.node_count
        self._pairs = neighbor_edge_lists(g) if with_neighbor_edges else None

    def initial_signatures(self) -> list:
        return list(self.graph.labels)

    def iteration_signatures(self, colors: Sequence[int]) -> list:
        adj = self.graph.adjacency
        pairs = self._pairs
        out = []
        if pairs is None:
            for v in range(self.size):
                out.append((colors[v], tuple(sorted([colors[u] for u in adj[v]]))))
            return out
        for v in range(self.size):
            neigh = tuple(sorted([colors[u] for u in adj[v]]))
            pv = pairs[v]
            if pv:
                pc = sorted(
                    (colors[a], colors[b]) if colors[a] <= colors[b] else (colors[b], colors[a])
                    for a, b in pv
                )
                out.append((colors[v], neigh, tuple(pc)))
            else:
                out.append((colors[v], neigh, ()))
        return out


def _intern_round(universes, colors: np.ndarray | None) -> np.ndarray:
    """One synchronized round over all universes, interned in one shared dict:
    a signature's id is the number of distinct signatures before it."""
    ids: dict = {}
    new: list[int] = []
    if colors is None:
        for u in universes:
            new.extend(ids.setdefault(s, len(ids)) for s in u.initial_signatures())
        return np.array(new, dtype=np.int64)
    colors = colors.tolist()  # Python ints index and hash faster than numpy scalars
    off = 0
    for u in universes:
        part = colors[off : off + u.size]
        new.extend(ids.setdefault(s, len(ids)) for s in u.iteration_signatures(part))
        off += u.size
    return np.array(new, dtype=np.int64)


_INT64_MAX = 2**63 - 1


def _groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.argsort`` of the (non-empty) int64 ``values`` and, per sorted
    position, whether a run of equal values starts there and the run's index."""
    order = np.argsort(values)
    ranked = values[order]
    starts = np.empty(len(values), dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    del ranked
    group = np.cumsum(starts, dtype=np.int64)
    group -= 1
    return order, starts, group


def _ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The dense rank of each of the (non-empty) int64 ``values``, and the rank count."""
    order, _, group = _groups(values)
    ranks = np.empty_like(group)
    ranks[order] = group
    return ranks, int(group[-1]) + 1


def _first_occurrence_ids(order, starts, group) -> tuple[np.ndarray, np.ndarray]:
    """The ids of :func:`_groups`' values numbered by first occurrence, and
    the position where each id first occurs."""
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    by_first = first.argsort()
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[group]
    return ids, first[by_first]


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the columns of the int64 ``keys`` (one row per key component).

    Equal columns get equal ids and distinct columns distinct ids, numbered
    0, 1, ... in the order of their first occurrence: the ids a fresh
    interner gives when fed the columns in order. Also returns the column
    where each id first occurs.

    Each column is packed into one int64 code, one mixed-radix digit per
    row in the radix of the row's span. When the next digit would overflow,
    the code so far is replaced by its dense rank (and a row too wide for
    even that by its own ranks), which keeps the codes exact for any int64
    keys. One ``np.argsort`` of the codes then groups equal columns. It
    costs a few numpy calls per key row, so it serves the narrow keys:
    round 0 of the tuple methods, their (k+1)-row keys of own color and
    fiber ids, and the rows where :func:`_row_ids` finds a hash collision.
    Hashing the narrow keys by :func:`_row_ids` instead, which must copy
    them into rows and check every repeated one, took the 3wl rounds of a
    G(101, 0.3) and a permuted twin from 1.2-1.7 to 2.4-2.5 s (2 vCPUs).
    """
    m = keys.shape[1]
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
    code, bound = np.zeros(m, dtype=np.int64), 1
    for row, lo, hi in zip(keys, keys.min(axis=1).tolist(), keys.max(axis=1).tolist()):
        span = hi - lo + 1
        if span == 1:
            # a constant row adds the same digit to every code
            continue
        if bound * span > _INT64_MAX:
            code, bound = _ranks(code)
            if bound * span > _INT64_MAX:
                row, span = _ranks(row)
        # The codes lie in a window of bound consecutive integers modulo
        # 2**64 and the row in one of span, so code * span + row is
        # injective on them however int64 wraps: no shift by the minimum.
        code *= span
        code += row
        bound *= span
    order, starts, group = _groups(code)
    del code
    return _first_occurrence_ids(order, starts, group)


def _splitmix64(count: int) -> np.ndarray:
    """The first ``count`` outputs of SplitMix64 seeded with 0, made odd, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31) | np.uint64(1)


#: The hash multipliers of :func:`_row_ids`' first columns. Column j of a
#: wider row takes ``_HASH_TABLE[j % L] * _HASH_STRIDE**(j // L)``, L the
#: table's length.
_HASH_TABLE = _splitmix64(1024)
_HASH_STRIDE = np.uint64(0x9E3779B97F4A7C15)

#: Bytes of sorted rows :func:`_row_ids` compares at a time when it checks
#: a hash's groups.
_CHECK_BYTES = 1 << 18


def _multipliers(width: int) -> np.ndarray:
    """The uint64 hash multipliers of ``width`` columns (:data:`_HASH_TABLE`)."""
    table = _HASH_TABLE
    if width <= len(table):
        return table[:width]
    column = np.arange(width, dtype=np.uint64)
    length = np.uint64(len(table))
    return table[column % length] * np.power(_HASH_STRIDE, column // length)


def _row_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids :func:`_dense_ids` gives ``rows.T``, from one code per row.

    ``rows`` is a C-contiguous int64 matrix with one row per entity. Each
    row gets the hash code ``rows @ mult`` modulo 2**64 (:func:`_multipliers`),
    and one ``np.argsort`` groups equal codes. Every sorted row whose code
    equals its predecessor's is then compared with that row
    (:func:`_hash_collides`); on a mismatch the rows go to
    :func:`_dense_ids`. So the ids are exact whatever the multipliers.
    """
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
    order, starts, group = _groups(rows.view(np.uint64) @ _multipliers(rows.shape[1]))
    if _hash_collides(rows, order, starts):
        return _dense_ids(rows.T)
    return _first_occurrence_ids(order, starts, group)


def _hash_collides(rows: np.ndarray, order: np.ndarray, starts: np.ndarray) -> bool:
    """Whether some row of ``rows`` in the sorted ``order`` differs from its
    predecessor although :func:`_groups` put them in one group.

    The repeats are found one window of ``_CHECK_BYTES // 8`` positions at
    a time, so their indices take at most one block. The rows and their
    predecessors are gathered and compared :data:`_CHECK_BYTES` at a time,
    or one pair at a time where a row is wider than that, so the check
    copies at most two blocks or two rows.
    """
    window = max(1, _CHECK_BYTES // 8)
    step = max(1, _CHECK_BYTES // max(1, rows.strides[0]))
    for first in range(0, len(starts), window):
        repeats = np.flatnonzero(~starts[first : first + window])
        repeats += first
        for i in range(0, len(repeats), step):
            at = repeats[i : i + step]
            if (rows[order[at]] != rows[order[at - 1]]).any():
                return True
    return False


@dataclass(frozen=True)
class _WidthClass:
    """Nodes whose signature rows are padded to one width.

    ``nodes`` ascend. ``index`` holds one row of gather indices per node
    into :func:`_node_round`'s source: its ``pairs`` neighbor-edge slots
    (edge codes), then its neighbor slots (colors), then the node itself.
    Sentinels fill the slots a shorter row does not use. The members of a
    class are those :func:`_class_members` gives: nodes whose rows have
    lengths of one bit length, or every node of the graph.
    """

    nodes: np.ndarray
    pairs: int
    index: np.ndarray


def _width_classes(g: Graph, with_neighbor_edges: bool) -> tuple[list[_WidthClass], tuple]:
    """The padded gather matrices of ``g``'s nodes, built once per run: one
    :class:`_WidthClass` per member list of :func:`_class_members`, and the
    endpoint arrays of the edges that their neighbor-edge slots name."""
    n = g.node_count
    degrees, neighbors = adjacency_arrays(g)
    counts, edges, ends = np.zeros_like(degrees), neighbors[:0], (neighbors[:0],) * 2
    if with_neighbor_edges:
        (counts, edges), ends = neighbor_edge_arrays(g), _upper_half(degrees, neighbors)
    if n == 0:
        return [], ends
    classes = []
    for nodes in _class_members(degrees, counts):
        # edge e's code sits at n + 1 + e, after the colors and their sentinel
        pair = _padded(counts, nodes, g.edge_count, edges) + (n + 1)
        nbr = _padded(degrees, nodes, n, neighbors)
        index = np.concatenate([pair, nbr, nodes[:, None]], axis=1)
        classes.append(_WidthClass(nodes, pair.shape[1], index))
    return classes, ends


def _class_members(degrees: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """The ascending nodes of each width class.

    A node's index row has ``s = degree + count`` gather slots besides its
    own. Nodes whose ``s`` have the same bit length b form one class: its
    widest degree and widest count are each below 2**b, so its padded rows
    have under 2**(b + 1) slots, under four times each member's ``s``.
    Equal signatures have equal degree and count, so they never fall in
    different classes. All nodes form one class when padding every row to
    the widest takes at most four times all the slots, plus one per node.
    """
    n = len(degrees)
    slots = degrees + counts
    if n * (int(degrees.max()) + int(counts.max())) <= 4 * int(slots.sum()) + n:
        return [np.arange(n)]
    # frexp's exponent of a non-negative integer is its bit length; the
    # stable sort keeps each class's nodes ascending
    bits = np.frexp(slots)[1]
    order = np.argsort(bits, kind="stable")
    by_bits = bits[order]
    return np.split(order, np.flatnonzero(by_bits[1:] != by_bits[:-1]) + 1)


def _padded(widths: np.ndarray, nodes: np.ndarray, sentinel: int, flat: np.ndarray) -> np.ndarray:
    """The rows of the ascending ``nodes`` in the CSR array ``flat``, where row
    v holds ``widths[v]`` entries, padded with ``sentinel`` to the widest."""
    w = widths[nodes]
    mask = np.arange(w.max()) < w[:, None]
    member = np.zeros(len(widths), dtype=bool)
    member[nodes] = True
    rows = np.full(mask.shape, sentinel, dtype=np.intp)
    # the entries of the members, in node order: the row-major order of mask
    rows[mask] = flat[np.repeat(member, widths)]
    return rows


def _node_round(
    classes: list[_WidthClass], ends: tuple, labels: Sequence[int], colors: np.ndarray | None
) -> np.ndarray:
    """One 1wl or nc1wl round over the nodes of one graph by sorting.

    ``ends`` holds the endpoint arrays of the edges (empty for 1wl). Each
    edge's pair (a, b) of colors, dense ids below the round's class count
    K, is coded ``min * K + max`` once: injective, ordered as the pairs
    (min, max), and spanning K**2 values rather than n**2. Each class
    gathers its rows [pair codes, neighbor colors, own color], sorts the
    codes and the neighbor colors of each row, and relabels the rows with
    one :func:`_row_ids`. Padding slots hold -1, which no real entry takes,
    so equal rows have equal degree and pair count. The classes, holding
    disjoint signatures, merge into global ids by the rank of each group's
    first node. The ids equal :func:`_intern_round`'s
    over one :class:`_NodeUniverse`.
    """
    if colors is None:
        ids = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        return np.array([ids[lab] for lab in labels], dtype=np.int64)
    n = len(colors)
    k = int(colors.max(initial=-1)) + 1
    a, b = colors[ends[0]], colors[ends[1]]
    # the colors, their sentinel, each edge's pair code, then the codes' sentinel
    source = np.concatenate((colors, [-1], np.minimum(a, b) * k + np.maximum(a, b), [-1]))
    parts = []
    for cls in classes:
        rows = source[cls.index]
        rows[:, : cls.pairs].sort(axis=1)
        rows[:, cls.pairs : -1].sort(axis=1)
        parts.append(_row_ids(rows))
    firsts = np.concatenate([cls.nodes[first] for cls, (_, first) in zip(classes, parts)])
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    new = np.empty(n, dtype=np.int64)
    offset = 0
    for cls, (ids, first) in zip(classes, parts):
        new[cls.nodes] = rank[offset + ids]
        offset += len(first)
    return new


#: Per k, the axis orders of a stack of k-tuple cubes that keep the stack
#: axis first and move tuple position i last, for i = 0..k-1.
_FIBER_AXES = {
    k: [(0,) + tuple(1 + j for j in range(k) if j != i) + (1 + i,) for i in range(k)]
    for k in (2, 3)
}


def _stacks(graphs: Sequence[Graph]) -> list[tuple[int, list[Graph]]]:
    """The runs of consecutive ``graphs`` with equal node counts, as (node count, graphs)."""
    return [(n, list(run)) for n, run in groupby(graphs, key=attrgetter("node_count"))]


def _sort_round(graphs: Sequence[Graph], k: int, colors: np.ndarray | None) -> np.ndarray:
    """One synchronized k-tuple round over all graphs by sorting.

    Entities are each graph's node_count**k tuples in row-major order,
    graphs concatenated. Round 0 (``colors`` None) takes graphs of any node
    counts. A later round takes graphs of one node count n: one stack, a
    (graphs, n, ..., n) array, whose fibers along one tuple position are
    sorted by one ``np.sort``; it raises ValueError for mixed node counts.
    The k positions' sorted fibers, one contiguous row of n colors each,
    get their ids from one :func:`_row_ids`, and the (k+1)-integer rows of
    own color and fiber ids theirs from :func:`_dense_ids`. The ids equal :func:`_intern_round`'s over one
    interning tuple universe (kept with the tests) per graph.
    """
    if colors is None:
        return _dense_ids(_atomic_type_keys(graphs, k))[0]
    n = graphs[0].node_count
    if any(g.node_count != n for g in graphs):
        raise ValueError("a k-tuple round after round 0 takes graphs of one node count")
    if n == 0:
        return colors
    cube = colors.reshape((len(graphs),) + (n,) * k)
    fibers = [np.sort(cube.transpose(axes).reshape(-1, n), axis=-1) for axes in _FIBER_AXES[k]]
    fiber_ids = _row_ids(np.concatenate(fibers))[0].reshape((k,) + cube.shape[:-1])
    rows = np.empty((k + 1,) + cube.shape, dtype=np.int64)
    rows[0] = cube
    for i in range(k):
        # fiber i's ids broadcast along position i
        rows[1 + i] = np.expand_dims(fiber_ids[i], 1 + i)
    return _dense_ids(rows.reshape(k + 1, -1))[0]


def _atomic_type_keys(graphs: Sequence[Graph], k: int) -> np.ndarray:
    """Round-0 keys of every tuple, one row per key component.

    The rows are the label rank of each position, then one code per
    position pair: 2 for the same node, 1 for adjacent nodes, 0 otherwise.
    Labels are ranked over all graphs in Python, so labels of any size
    compare exactly. Each stack of graphs with equal node counts sets its
    adjacency codes by one scatter.
    """
    rank = {lab: r for r, lab in enumerate(sorted({lab for g in graphs for lab in g.labels}))}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    blocks = []
    for n, run in _stacks(graphs):
        count = len(run)
        labels = np.array([rank[lab] for g in run for lab in g.labels], dtype=np.int64)
        labels = labels.reshape(count, n)
        degrees = np.concatenate([adjacency_arrays(g)[0] for g in run])
        neighbors = np.concatenate([adjacency_arrays(g)[1] for g in run])
        code = np.zeros((count, n, n), dtype=np.int64)
        # row (graph, node) of the stack's adjacency, then the neighbor's column
        code.reshape(-1)[np.repeat(np.arange(count * n), degrees) * n + neighbors] = 1
        code[:, np.arange(n), np.arange(n)] = 2
        pos = np.indices((n,) * k, sparse=True)
        block = np.empty((k + len(pairs), count) + (n,) * k, dtype=np.int64)
        for i in range(k):
            block[i] = labels[:, pos[i]]
        for r, (i, j) in enumerate(pairs, start=k):
            block[r] = code[:, pos[i], pos[j]]
        blocks.append(block.reshape(k + len(pairs), count * n**k))
    # one stack's block is returned as it is, without a copy
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def _rounds(step: Callable[[np.ndarray | None], np.ndarray]) -> Iterator[np.ndarray]:
    """Dense int64 color arrays per iteration, ending with the first repeated partition.

    ``step(None)`` is the initial coloring and ``step(colors)`` the next
    round; every step takes and returns int64 arrays. Dense ids are assigned
    by first appearance in entity order, which makes two equal partitions
    literally equal as arrays; convergence is therefore plain array
    equality. The number of rounds is bounded by the entity count since
    every non-final round strictly splits some class.

    A discrete partition, one class per entity, has the ids 0..n-1 in
    entity order, so its last entity has id n - 1, and no other partition
    does. It is its own next round, since every signature holds the
    entity's own color: it is yielded once more, without calling the step,
    and the run ends.
    """
    colors = step(None)
    yield colors
    for _ in range(len(colors)):
        if colors[-1] == len(colors) - 1:
            yield colors
            return
        new = step(colors)
        yield new
        if np.array_equal(new, colors):
            return
        colors = new
    if len(colors):
        raise AssertionError("refinement failed to stabilize within the entity bound")


#: Smallest graph (the union in ``compare``) whose node methods relabel by
#: sorting; smaller ones intern. The sort engine's fixed numpy cost per run
#: outweighs interning on tiny graphs. What still reaches the interning
#: engine: the suite's corpus check (one ``compare`` per entry and method),
#: :func:`_verdicts` chunks of under 32 nodes (``ncwl suite --random-pairs
#: 1``) and library calls on tiny graphs. CPU time per joint run of two
#: G(n/2, p), interning vs sorting, 2 vCPUs (the rounds of one union, its
#: index built once; median of 30 seeded unions, 20 runs each, then of 3
#: runs), with every row code hashed and checked by :func:`_row_ids`:
#: unions of 10 nodes 52-94 vs 165-269 us, 20 nodes 155-246 vs 240-357 us,
#: 40 nodes 295-1064 vs 258-371 us, 80 nodes 452-6383 vs 185-466 us, over p
#: in {0.15, 0.5} and both methods. The machine's speed swung up to 2x
#: between runs, so compare the two engines within a size.
_SORT_MIN_NODES = 32


def _universes(method: str, graphs: Sequence[Graph], node_cap: int | None):
    """The round step of one joint run over ``graphs`` by ``method``.

    Returns the step for :func:`_rounds` and each graph's entity count, in
    the order of ``graphs``, which is their order in the colors. Every
    method relabels by sorting: the node methods over the width classes of
    the disjoint union (:func:`_node_round`), the tuple methods over each
    graph's tuples (:func:`_sort_round`), after checking the node cap
    (default ``KWL_NODE_CAPS[k]``) and :data:`MAX_TUPLE_ENTITIES` on every
    graph before allocating anything.
    Node-method runs on fewer than :data:`_SORT_MIN_NODES` nodes intern
    instead, which is faster there; otherwise the interning steps serve only
    as the tests' reference.
    """
    if method in ("1wl", "nc1wl"):
        g = graphs[0] if len(graphs) == 1 else disjoint_union(*graphs)[0]
        with_neighbor_edges = method == "nc1wl"
        if g.node_count < _SORT_MIN_NODES:
            step = partial(_intern_round, [_NodeUniverse(g, with_neighbor_edges)])
        else:
            step = partial(_node_round, *_width_classes(g, with_neighbor_edges), g.labels)
        return step, [g.node_count for g in graphs]
    if method not in ("2wl", "3wl"):
        raise ValueError(f"unknown method {method!r}")
    k = int(method[0])
    cap = KWL_NODE_CAPS[k] if node_cap is None else node_cap
    for g in graphs:
        if g.node_count > cap:
            raise ValueError(
                f"node count {g.node_count} exceeds the {k}-tuple cap of {cap} nodes"
            )
        if g.node_count**k > MAX_TUPLE_ENTITIES:
            raise ValueError(
                f"{g.node_count}**{k} = {g.node_count**k} tuples exceed the limit of "
                f"{MAX_TUPLE_ENTITIES}"
            )
    return partial(_sort_round, graphs, k), [g.node_count**k for g in graphs]


def _counted_rounds(
    method: str, graphs: Sequence[Graph], node_cap: int | None
) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """The rounds of one joint run, each with every graph's color counts.

    Yields per iteration the int64 colors over all graphs' entities (see
    :func:`_universes`) and, per graph, ``np.bincount`` of its own colors
    with ``minlength`` the round's class count, so two graphs' histograms
    are equal iff their counts are equal arrays. Raises ValueError for a
    round whose colors are not the dense ids 0..num_classes-1, as
    :meth:`Coloring.from_colors` does: bincount refuses a negative color,
    and a gap or a color past the entity count leaves a class empty.
    """
    step, sizes = _universes(method, graphs, node_cap)
    bounds = list(accumulate(sizes, initial=0))
    for colors in _rounds(step):
        rest = np.bincount(colors)
        if not rest.all():
            raise ValueError(f"colors must be dense ids in 0..{len(rest) - 1}")
        # every graph's counts but the last's; the last's are what remains
        counts = []
        for lo, hi in zip(bounds, bounds[1:-1]):
            counts.append(np.bincount(colors[lo:hi], minlength=len(rest)))
            rest -= counts[-1]
        counts.append(rest)
        # the list holds the only references, so a consumer can free each array
        del rest
        yield colors, counts


def refine(g: Graph, method: str, node_cap: int | None = None) -> list[Coloring]:
    """Per-iteration colorings (initial included) until the partition stabilizes.

    ``method`` is one of :data:`METHODS`; ``node_cap`` bounds the node count
    of the tuple methods (default ``KWL_NODE_CAPS[k]``) and raises
    ValueError above it. Tuple colors are reported over all node_count**k
    tuples in row-major order. Colorings hold Python ints.
    """
    return [
        Coloring(tuple(colors.tolist()), len(counts), tuple(enumerate(counts.tolist())))
        for colors, (counts,) in _counted_rounds(method, [g], node_cap)
    ]


def refine_1wl(g: Graph) -> list[Coloring]:
    """Node colors refined by (own color, multiset of neighbor colors)."""
    return refine(g, "1wl")


def refine_nc1wl(g: Graph) -> list[Coloring]:
    """Like :func:`refine_1wl` with the neighbor-edge color-pair multiset added.

    On triangle-free graphs every pair multiset is empty, so the produced
    coloring sequence coincides with the plain one.
    """
    return refine(g, "nc1wl")


def refine_kwl(g: Graph, k: int, node_cap: int | None = None) -> list[Coloring]:
    """Refinement over ordered k-tuples, k in {2, 3}; see :func:`refine`."""
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    return refine(g, f"{k}wl", node_cap)


def compare(g1: Graph, g2: Graph, method: str, node_cap: int | None = None) -> RefinementReport:
    """Joint refinement of two graphs with the verdict of the first histogram gap.

    The node methods run on the disjoint union (one shared sort per width
    class by construction); the tuple methods relabel both graphs' tuples
    in the same sorts. Histograms are compared before every refinement
    round, so graphs with different node counts are distinguished at
    iteration 0.
    """
    hists = []
    for it, (_, counts) in enumerate(_counted_rounds(method, [g1, g2], node_cap)):
        # each count array is freed as soon as its histogram exists
        pair = (_nonzero_counts(counts.pop(0)), _nonzero_counts(counts.pop()))
        hists.append(pair)
        if pair[0] != pair[1]:
            return RefinementReport(method, VERDICT_DISTINGUISHED, it, it, tuple(hists))
    return RefinementReport(method, VERDICT_NOT_DISTINGUISHED, len(hists) - 1, None, tuple(hists))


#: Pairs per chunk of :func:`_verdicts`, which bounds a joint run's size
#: whatever the number of pairs. CPU time of the suite's 400 pairs, best of
#: 5, 2 vCPUs, in chunks of 16/64/128/256 pairs against one ``compare`` per
#: pair: 1wl 18/12/9/8 vs 57 ms, nc1wl 41/27/21/18 vs 99 ms, 2wl
#: 75/56/34/26 vs 142 ms, 3wl 152/93/105/118 vs 293 ms. A 3wl chunk of the
#: suite holds at most 256 graphs of 10 nodes, 256000 tuples.
_VERDICT_CHUNK = 128


def _verdicts(pairs: Sequence[tuple[Graph, Graph]], method: str) -> list[bool]:
    """``[compare(g1, g2, method).distinguished for g1, g2 in pairs]``.

    A pair whose graphs differ in node count is split at iteration 0, as
    ``compare`` reports it, without a run. The other pairs of each
    :data:`_VERDICT_CHUNK` are refined in joint runs: the node methods over
    the union of all their graphs, the tuple methods in one run per node
    count, as :func:`_sort_round` requires past round 0, each holding at
    most :data:`MAX_TUPLE_ENTITIES` tuples unless it holds a single pair.
    In a joint run each graph's colors at every round partition its
    entities as the pair's own run does. Later colors refine
    earlier ones, so a histogram gap persists, and a pair whose own run has
    stabilised never splits later: a pair is split iff its graphs' sorted
    final colors differ. The tuple node caps are checked on the graphs of
    each run only.
    """
    k = 1 if method in ("1wl", "nc1wl") else int(method[0])
    split = [g1.node_count != g2.node_count for g1, g2 in pairs]
    for run in _joint_runs(pairs, k):
        for i, differ in zip(run, _final_colors_differ(method, k, [pairs[i] for i in run])):
            split[i] = differ
    return split


def _joint_runs(pairs: Sequence[tuple[Graph, Graph]], k: int) -> Iterator[list[int]]:
    """The indices of the pairs of equal node counts judged in each joint run.

    ``k`` is 1 for the node methods, whose run is a whole chunk.
    """
    for start in range(0, len(pairs), _VERDICT_CHUNK):
        by_size: dict[int, list[int]] = {}
        for i in range(start, min(start + _VERDICT_CHUNK, len(pairs))):
            n = pairs[i][0].node_count
            if n == pairs[i][1].node_count:
                by_size.setdefault(0 if k == 1 else n, []).append(i)
        for n, members in by_size.items():
            per_run = len(members) if k == 1 else max(1, MAX_TUPLE_ENTITIES // max(1, 2 * n**k))
            for s in range(0, len(members), per_run):
                yield members[s : s + per_run]


def _final_colors_differ(method: str, k: int, pairs: list[tuple[Graph, Graph]]) -> list[bool]:
    """Per pair of equal node counts, whether its graphs' sorted final colors
    differ after one joint run of ``method`` over every graph of ``pairs``."""
    graphs = [g for pair in pairs for g in pair]
    step, _ = _universes(method, [_union(graphs)] if k == 1 else graphs, None)
    for colors in _rounds(step):
        pass
    sizes = [g.node_count**k for g in graphs]
    # each graph's final colors, sorted, in the place of its entities
    shift = np.repeat(np.arange(len(graphs)) * len(colors), sizes)
    colors = np.sort(colors + shift) - shift
    bounds = list(accumulate(sizes, initial=0))
    return [
        not np.array_equal(colors[lo:mid], colors[mid:hi])
        for lo, mid, hi in zip(bounds[::2], bounds[1::2], bounds[2::2])
    ]


def brute_force_isomorphic(g1: Graph, g2: Graph, node_cap: int = 10) -> bool:
    """Exhaustive label- and edge-preserving bijection search.

    Backtracks over candidate images pruned by label and degree; intended as
    an independent oracle for small graphs. Raises ValueError above
    ``node_cap`` nodes.
    """
    if max(g1.node_count, g2.node_count) > node_cap:
        raise ValueError(f"node count exceeds the brute-force cap of {node_cap}")
    n = g1.node_count
    if n != g2.node_count:
        return False
    if sorted(g1.labels) != sorted(g2.labels):
        return False
    if sorted(map(len, g1.adjacency)) != sorted(map(len, g2.adjacency)):
        return False

    candidates = [
        [
            p
            for p in range(n)
            if g2.labels[p] == g1.labels[v] and len(g2.adjacency[p]) == len(g1.adjacency[v])
        ]
        for v in range(n)
    ]
    mapping = [-1] * n
    used = [False] * n
    e1, e2 = g1.edge_set, g2.edge_set

    def extend(v: int) -> bool:
        if v == n:
            return True
        for p in candidates[v]:
            if used[p]:
                continue
            ok = True
            for u in range(v):
                a = ((u, v) if u < v else (v, u)) in e1
                q = mapping[u]
                b = ((q, p) if q < p else (p, q)) in e2
                if a != b:
                    ok = False
                    break
            if ok:
                mapping[v] = p
                used[p] = True
                if extend(v + 1):
                    return True
                used[p] = False
                mapping[v] = -1
        return False

    return extend(0)
