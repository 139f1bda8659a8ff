"""Color-refinement engines and pairwise graph comparison.

Three refinement families over a shared core:

* ``1wl``    -- node colors refined by (own color, multiset of neighbor colors);
* ``nc1wl``  -- additionally the multiset of color pairs for edges joining two
  neighbors of the node ("neighbor communication");
* ``2wl``/``3wl`` -- colors on ordered k-tuples of nodes, refined by the k
  multisets obtained by substituting each tuple position.

All four methods relabel by sorting (the sorted-signature compression of
Shervashidze et al. 2011, without hashing), so "injective hash" holds
exactly, with no collisions to analyze. Each round assigns dense ids
0..num_classes-1 in first-appearance order over the fixed entity order;
since signatures embed the previous round's colors, reusing small ids
across rounds cannot merge classes.

* The node methods gather every node's neighbor colors, and for nc1wl the
  color pairs of its neighbor-edges coded as one integer, into padded rows
  (:func:`_width_classes`, built once per run), sort each row, and give
  equal rows equal ids by one sort per width class.
* The tuple methods use that the multiset for position i depends only on
  the other k-1 coordinates: each round sorts the colors of every fiber
  (the n tuples differing only at one position), gives equal sorted fibers
  equal ids by one sort, and then relabels the (k+1)-integer rows of own
  color and fiber id per position the same way.

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
it comes and its ``compare`` stops at the first round whose counts differ,
keeping neither colorings nor histograms.

Pairwise comparison interleaves the two graphs in one joint run (the node
methods on their disjoint union, the tuple methods in the same sorts),
comparing the color histograms before every refinement round and
reporting the first differing round, exactly as an isomorphism-test loop.
Where only the verdicts of many pairs are wanted, as in the self-check
suite, :func:`_verdicts` gives the node methods one joint run over the
union of every graph of a chunk of pairs and reads each pair's verdict
off the final colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from . import METHODS  # defined numpy-free in the package; re-exported here
from .graph import (
    Graph,
    _union,
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
#: rounds alone peak at about 200 MiB RSS for one graph and 330 MiB for a
#: joint run of two. The library functions keep more: :func:`refine` with
#: its colorings peaks at about 610 MiB and :func:`compare` with its
#: histograms at about 850 MiB. The CLI commands keep neither: ``ncwl
#: refine`` peaks at about 280 MiB and ``ncwl compare`` at about 360 MiB.
MAX_TUPLE_ENTITIES = 2**20

VERDICT_DISTINGUISHED = "distinguished"
VERDICT_NOT_DISTINGUISHED = "not-distinguished"

Histogram = tuple[tuple[int, int], ...]


class SignatureInterner:
    """Injective map from canonical signatures to dense color ids.

    Shared across both graphs of a joint run so equal signatures receive
    equal ids. Not thread-safe while interning.
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict = {}

    def intern(self, sig) -> int:
        table = self.table
        cid = table.get(sig)
        if cid is None:
            cid = len(table)
            table[sig] = cid
        return cid

    def __len__(self) -> int:
        return len(self.table)


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
    """One synchronized round over all universes with a fresh shared interner."""
    interner = SignatureInterner()
    new: list[int] = []
    if colors is None:
        for u in universes:
            new.extend(interner.intern(s) for s in u.initial_signatures())
        return np.array(new, dtype=np.int64)
    colors = colors.tolist()  # Python ints index and hash faster than numpy scalars
    off = 0
    for u in universes:
        part = colors[off : off + u.size]
        new.extend(interner.intern(s) for s in u.iteration_signatures(part))
        off += u.size
    return np.array(new, dtype=np.int64)


def _dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the columns of the int64 ``keys`` (one row per key component).

    Equal columns get equal ids and distinct columns distinct ids, numbered
    0, 1, ... in the order of their first occurrence: the ids a fresh
    interner gives when fed the columns in order. Also returns the column
    where each id first occurs.
    """
    m = keys.shape[1]
    order = np.lexsort(keys)
    # one sorted key row at a time: a copy of all the keys would double them
    starts = np.zeros(m, dtype=bool)
    starts[:1] = True
    for row in keys:
        ranked = row[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    # lexsort is stable, so each group's first sorted column is its first occurrence
    first = order[starts]
    by_first = first.argsort()
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    ids = np.empty(m, dtype=np.int64)
    ids[order] = rank[starts.cumsum() - 1]
    return ids, first[by_first]


@dataclass(frozen=True)
class _WidthClass:
    """Nodes whose signature rows are padded to one width.

    ``nodes`` ascend. ``index`` holds one row of gather indices per node:
    the first endpoints of its ``pairs`` neighbor-edge slots, then their
    second endpoints, then its neighbor slots, then the node itself.
    Indices point into the colors extended by one sentinel of color -1,
    which fills the slots a shorter row does not use.
    """

    nodes: np.ndarray
    pairs: int
    index: np.ndarray


#: A width class takes in the next group of nodes while its padded area
#: stays within _PAD_FACTOR * (entries + rows) + _PAD_SLACK, so a graph's
#: padded rows stay within a constant factor of its entries plus nodes.
#: Every benchmark graph is one class; a star or a wheel is two.
_PAD_FACTOR, _PAD_SLACK = 2, 64


def _width_classes(g: Graph, with_neighbor_edges: bool) -> list[_WidthClass]:
    """The padded gather matrices of ``g``'s nodes, built once per run."""
    n = g.node_count
    if n == 0:
        return []
    degrees, neighbors = adjacency_arrays(g)
    if with_neighbor_edges:
        counts, u1s, u2s = neighbor_edge_arrays(g)
    else:
        counts, u1s, u2s = np.zeros_like(degrees), neighbors[:0], neighbors[:0]
    classes = []
    for nodes in _class_members(degrees, counts):
        u1, u2 = _padded(counts, nodes, n, u1s, u2s)
        (nbr,) = _padded(degrees, nodes, n, neighbors)
        index = np.concatenate([u1, u2, nbr, nodes[:, None]], axis=1)
        classes.append(_WidthClass(nodes, u1.shape[1], index))
    return classes


def _class_members(degrees: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """The ascending nodes of each width class.

    All nodes form one class when they fit the padding budget. Otherwise
    nodes are grouped by (degree, neighbor-edge count), whose signatures
    always differ between groups, and the groups, taken by row length, are
    merged greedily into classes under the budget.
    """
    n = len(degrees)
    lengths = degrees + counts
    budget = _PAD_FACTOR * (int(lengths.sum()) + n) + _PAD_SLACK
    if n * (int(degrees.max()) + int(counts.max())) <= budget:
        return [np.arange(n)]
    order = np.lexsort((degrees, lengths))
    by_len, by_deg = lengths[order], degrees[order]
    starts = np.flatnonzero(np.r_[True, (by_len[1:] != by_len[:-1]) | (by_deg[1:] != by_deg[:-1])])
    sizes = np.diff(np.r_[starts, n]).tolist()
    cuts = []
    rows = entries = max_deg = max_count = 0
    for start, size, length, deg in zip(
        starts.tolist(), sizes, by_len[starts].tolist(), by_deg[starts].tolist()
    ):
        wide_deg, wide_count = max(max_deg, deg), max(max_count, length - deg)
        area = (rows + size) * (wide_deg + wide_count)
        if rows and area > _PAD_FACTOR * (entries + size * length + rows + size) + _PAD_SLACK:
            cuts.append(start)
            rows = entries = 0
            wide_deg, wide_count = deg, length - deg
        rows += size
        entries += size * length
        max_deg, max_count = wide_deg, wide_count
    return [np.sort(members) for members in np.split(order, cuts)]


def _padded(widths: np.ndarray, nodes: np.ndarray, sentinel: int, *flat: np.ndarray) -> list:
    """The rows of the ascending ``nodes`` in each CSR array of ``flat``.

    Row v of a CSR array holds ``widths[v]`` entries; shorter rows are
    padded with ``sentinel`` to the widest row of ``nodes``. One matrix per
    array.
    """
    w = widths[nodes]
    mask = np.arange(w.max()) < w[:, None]
    member = np.zeros(len(widths), dtype=bool)
    member[nodes] = True
    # the entries of the members, in node order: the row-major order of mask
    src = np.repeat(member, widths)
    out = []
    for values in flat:
        rows = np.full(mask.shape, sentinel, dtype=np.intp)
        rows[mask] = values[src]
        out.append(rows)
    return out


def _node_round(
    classes: list[_WidthClass], labels: Sequence[int], colors: np.ndarray | None
) -> np.ndarray:
    """One 1wl or nc1wl round over the nodes of one graph by sorting.

    Each class relabels its rows [sorted pair codes, sorted neighbor colors,
    own color] with one :func:`_dense_ids`; a pair (a, b) of colors, both
    below the node count n, is coded ``min * n + max``. Padding slots hold
    the sentinel's -1 or its code -n - 1, which no real entry takes, so
    equal rows have equal degree and pair count. The classes, holding
    disjoint signatures, merge into global ids by the rank of each group's
    first node. The ids equal :func:`_intern_round`'s over one
    :class:`_NodeUniverse`.
    """
    if colors is None:
        ids = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        return np.array([ids[lab] for lab in labels], dtype=np.int64)
    n = len(colors)
    ext = np.empty(n + 1, dtype=np.int64)
    ext[:n] = colors
    ext[n] = -1
    parts = []
    for cls in classes:
        p = cls.pairs
        rows = ext[cls.index]
        if p:
            a, b = rows[:, :p], rows[:, p : 2 * p]
            codes = np.minimum(a, b) * n + np.maximum(a, b)
            codes.sort(axis=1)
            rows[:, p : 2 * p] = codes
        rows[:, 2 * p : -1].sort(axis=1)
        # keys: sorted pair codes, sorted neighbor colors, own color
        parts.append(_dense_ids(rows[:, p:].T))
    firsts = np.concatenate([cls.nodes[first] for cls, (_, first) in zip(classes, parts)])
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    new = np.empty(n, dtype=np.int64)
    offset = 0
    for cls, (ids, first) in zip(classes, parts):
        new[cls.nodes] = rank[offset + ids]
        offset += len(first)
    return new


#: Per k, the axis orders that move tuple position i last, for i = 0..k-1.
_FIBER_AXES = {
    k: [tuple(j for j in range(k) if j != i) + (i,) for i in range(k)] for k in (2, 3)
}


def _sort_round(graphs: Sequence[Graph], k: int, colors: np.ndarray | None) -> np.ndarray:
    """One synchronized k-tuple round over all graphs by sorting.

    Entities are each graph's node_count**k tuples in row-major order,
    graphs concatenated; the ids equal :func:`_intern_round`'s over one
    interning tuple universe (kept with the tests) per graph.
    """
    if colors is None:
        return _dense_ids(_atomic_type_keys(graphs, k))[0]
    width = max(g.node_count for g in graphs)
    cubes, fibers = [], []
    off = 0
    for g in graphs:
        n = g.node_count
        if n == 0:
            continue
        cube = colors[off : off + n**k].reshape((n,) * k)
        off += n**k
        cubes.append(cube)
        for axes in _FIBER_AXES[k]:
            fiber = np.full((n ** (k - 1), width), -1, dtype=np.int64)
            # colors are non-negative, so fibers of different lengths never match
            fiber[:, width - n :] = np.sort(cube.transpose(axes).reshape(-1, n), axis=1)
            fibers.append(fiber)
    if not cubes:
        return colors
    fiber_ids = _dense_ids(np.concatenate(fibers).T)[0]
    rows, start = [], 0
    for cube in cubes:
        n = cube.shape[0]
        row = np.empty((k + 1,) + cube.shape, dtype=np.int64)
        row[0] = cube
        for i in range(k):
            # fiber i's ids broadcast along axis i
            shape = (n,) * i + (1,) + (n,) * (k - 1 - i)
            row[1 + i] = fiber_ids[start : start + n ** (k - 1)].reshape(shape)
            start += n ** (k - 1)
        rows.append(row.reshape(k + 1, -1))
    return _dense_ids(np.concatenate(rows, axis=1))[0]


def _atomic_type_keys(graphs: Sequence[Graph], k: int) -> np.ndarray:
    """Round-0 keys of every tuple, one row per key component.

    The rows are the label rank of each position, then one code per
    position pair: 2 for the same node, 1 for adjacent nodes, 0 otherwise.
    Labels are ranked over all graphs in Python, so labels of any size
    compare exactly.
    """
    rank = {lab: r for r, lab in enumerate(sorted({lab for g in graphs for lab in g.labels}))}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    blocks = []
    for g in graphs:
        n = g.node_count
        labels = np.array([rank[lab] for lab in g.labels], dtype=np.int64)
        code = np.zeros((n, n), dtype=np.int64)
        degrees, neighbors = adjacency_arrays(g)
        code[np.repeat(np.arange(n), degrees), neighbors] = 1
        np.fill_diagonal(code, 2)
        pos = np.indices((n,) * k, sparse=True)
        block = np.empty((k + len(pairs),) + (n,) * k, dtype=np.int64)
        for i in range(k):
            block[i] = labels[pos[i]]
        for r, (i, j) in enumerate(pairs, start=k):
            block[r] = code[pos[i], pos[j]]
        blocks.append(block.reshape(k + len(pairs), n**k))
    return np.concatenate(blocks, axis=1)


def _rounds(step: Callable[[np.ndarray | None], np.ndarray]) -> Iterator[np.ndarray]:
    """Dense int64 color arrays per iteration, ending with the first repeated partition.

    ``step(None)`` is the initial coloring and ``step(colors)`` the next
    round; every step takes and returns int64 arrays. Dense ids are assigned
    by first appearance in entity order, which makes two equal partitions
    literally equal as arrays; convergence is therefore plain array
    equality. The number of rounds is bounded by the entity count since
    every non-final round strictly splits some class.
    """
    colors = step(None)
    yield colors
    for _ in range(len(colors)):
        new = step(colors)
        yield new
        if np.array_equal(new, colors):
            return
        colors = new
    if len(colors):
        raise AssertionError("refinement failed to stabilize within the entity bound")


#: Smallest graph (the union in ``compare``) whose node methods relabel by
#: sorting; smaller ones intern. The sort engine's fixed numpy cost per run
#: outweighs interning on tiny graphs. CPU time per joint run of two G(n, p),
#: interning vs sorting, 2 vCPUs: unions of 10 nodes 27-69 vs 97-191 us, 20
#: nodes 97-215 vs 206-272 us, 40 nodes 231-814 vs 242-403 us, 80 nodes
#: 390-7866 vs 320-2084 us, over p in {0.15, 0.5} and both methods.
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
            step = partial(_node_round, _width_classes(g, with_neighbor_edges), g.labels)
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
        yield colors, [*counts, rest]


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
        pair = (_nonzero_counts(counts[0]), _nonzero_counts(counts[1]))
        hists.append(pair)
        if pair[0] != pair[1]:
            return RefinementReport(method, VERDICT_DISTINGUISHED, it, it, tuple(hists))
    return RefinementReport(method, VERDICT_NOT_DISTINGUISHED, len(hists) - 1, None, tuple(hists))


#: Pairs per joint run of :func:`_verdicts`, which bounds the union's node
#: count whatever the number of pairs. CPU time of the suite's 400 pairs
#: under 1wl and nc1wl, 2 vCPUs: chunks of 16/64/128/256 pairs took
#: 66/46/39/36 ms, one ``compare`` per pair 94 ms.
_VERDICT_CHUNK = 128


def _verdicts(pairs: Sequence[tuple[Graph, Graph]], method: str) -> list[bool]:
    """``[compare(g1, g2, method).distinguished for g1, g2 in pairs]``.

    The tuple methods compare pair by pair. The node methods refine the
    union of every graph of :data:`_VERDICT_CHUNK` pairs in one run, where
    each graph's colors at every round partition its nodes as the pair's
    own joint run does. Later colors refine earlier ones, so a histogram
    gap persists, and a pair whose own run has stabilised never splits
    later: a pair is split iff its graphs' final color multisets differ.
    """
    if method not in ("1wl", "nc1wl"):
        return [compare(g1, g2, method).distinguished for g1, g2 in pairs]
    split = []
    for start in range(0, len(pairs), _VERDICT_CHUNK):
        graphs = [g for pair in pairs[start : start + _VERDICT_CHUNK] for g in pair]
        step, _ = _universes(method, [_union(graphs)], None)
        for colors in _rounds(step):
            pass
        sizes = [g.node_count for g in graphs]
        owners = np.repeat(np.arange(len(graphs)), sizes)
        # each graph's final colors, sorted, in the place of its nodes
        colors = colors[np.lexsort((colors, owners))]
        bounds = np.cumsum([0] + sizes).tolist()
        for i in range(0, len(graphs), 2):
            first, second = colors[bounds[i] : bounds[i + 1]], colors[bounds[i + 1] : bounds[i + 2]]
            split.append(not np.array_equal(first, second))
    return split


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
