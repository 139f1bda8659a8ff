"""The references that the sorting engines, the array graph core and the codec are tested against.

:class:`TupleUniverse`, under ``ncwl.refine._intern_round``, is the
package's earlier pure-Python k-tuple engine, kept here unchanged in
behaviour. :func:`parse_edge_list` and :func:`build` are the package's
earlier tuple-built parser and ``Graph.build``, returning a graph's tuple
form ``(node_count, adjacency, edge_set, labels)``.
:func:`lexsort_dense_ids` is the package's earlier ``_dense_ids``, which
groups equal key columns by one ``np.lexsort`` of the key rows.
:func:`merge_neighbor_edges` is the package's earlier neighbor-edge lister,
the one the compact-forward lister is held to. :func:`check_soundness` and
:func:`check_hierarchy` are the package's earlier self-checks, which judge
every pair by its own ``compare`` calls. :func:`backward_input_gradient` is
the package's earlier input gradient of the layer backward, summed in order.
:func:`encode_multiset`, :func:`encode_pairwise`, :func:`encode_centered`
and :func:`decode_multiset` are the package's earlier codec, which sums
one ``Fraction`` per term and decodes by a ``Fraction`` divmod per
exponent. The node sort engine's
reference, ``ncwl.refine._NodeUniverse``, lives in the package, where it
also serves runs on small graphs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Sequence

import numpy as np

from ncwl import (
    METHODS,
    CodecContext,
    CodecError,
    EpsilonValue,
    Graph,
    GraphFormatError,
    compare,
    permute_graph,
    random_gnp,
)
from ncwl.graph import MAX_NODE_COUNT, _upper_half, adjacency_arrays
from ncwl.nn import _layer_internals
from ncwl.suite import CheckResult, named_stream, run_hierarchy_trial

TupleGraph = tuple[int, tuple[tuple[int, ...], ...], frozenset[tuple[int, int]], tuple[int, ...]]


def tuple_form(g: Graph) -> TupleGraph:
    return g.node_count, g.adjacency, g.edge_set, g.labels


class _InvalidEdge(ValueError):
    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


def _checked_adjacency(node_count: int, edges: Iterable[tuple[int, int]]):
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
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


def build(
    node_count: int, edges: Iterable[tuple[int, int]], labels: Sequence[int] | None = None
) -> TupleGraph:
    """The earlier ``Graph.build``; raises the same ValueErrors."""
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
    return node_count, adjacency, edge_set, tuple(labels)


def parse_edge_list(text: str) -> TupleGraph:
    """The earlier line-by-line parser; raises the same GraphFormatErrors."""
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
    return node_count, adjacency, edge_set, tuple(labels)


def merge_neighbor_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """For every node w, the edges (u1, u2) inside N(w), ascending.

    An edge (u1, u2) belongs to the list of every common neighbor of u1 and
    u2, which merging their sorted adjacency lists finds; taking edges in
    sorted order keeps every list ascending. Quadratic in the largest degree.
    """
    adj = g.adjacency
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    for u1, a in enumerate(adj):
        la = len(a)
        for u2 in a:
            if u2 < u1:
                continue
            b = adj[u2]
            i = j = 0
            lb = len(b)
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


def check_soundness(seed: int, trials: int) -> CheckResult:
    """The earlier ``suite.check_soundness``: one ``compare`` per trial and method."""
    rng = named_stream(seed, "soundness")
    failures = []
    for t in range(trials):
        n = rng.randint(1, 10)
        g = random_gnp(rng, n, rng.uniform(0.1, 0.9), num_labels=rng.choice([1, 1, 2]))
        perm = list(range(n))
        rng.shuffle(perm)
        h = permute_graph(g, perm)
        for method in METHODS:
            report = compare(g, h, method)
            if report.distinguished:
                failures.append(f"trial {t}: {method} split a permuted copy")
    detail = "; ".join(failures[:5]) if failures else f"{trials} permuted pairs, all methods agree"
    return CheckResult("soundness", not failures, detail)


def check_hierarchy(seed: int, pairs: int) -> CheckResult:
    """The earlier ``suite.check_hierarchy``: one ``run_hierarchy_trial`` per pair."""
    rng = named_stream(seed, "hierarchy")
    failures = []
    for t in range(pairs):
        for problem in run_hierarchy_trial(rng):
            failures.append(f"pair {t}: {problem}")
    detail = "; ".join(failures[:5]) if failures else f"{pairs} random pairs, no violations"
    return CheckResult("hierarchy", not failures, detail)


def _ordered_input_gradient(g: Graph, d_self, d_base, u1s, u2s, d_Y):
    d_H = d_self.copy()
    degrees, neighbors = adjacency_arrays(g)
    ends = np.cumsum(degrees).tolist()
    for u, d in enumerate(degrees.tolist()):
        if d:
            d_H[u] += d_base[neighbors[ends[u] - d : ends[u]]].sum(axis=0)
    np.add.at(d_H, u1s, d_Y)
    np.add.at(d_H, u2s, d_Y)
    return d_H


def backward_input_gradient(g: Graph, H: np.ndarray, layer, upstream: np.ndarray):
    """The earlier input gradient of ``nn.nc_gnn_layer_backward``, summed in
    order by a loop over nodes and two ``np.add.at``, and the same sums over
    every summand's absolute value, which bound both versions' rounding."""
    _, (counts, edges, mlp2_cache, mlp1_cache) = _layer_internals(
        g, H, layer.mlp1, layer.epsilon, layer.mlp2
    )
    us, vs = _upper_half(*adjacency_arrays(g))
    u1s, u2s = us[edges], vs[edges]
    d_base, _ = layer.mlp1._backward(mlp1_cache, upstream)
    d_Y = np.zeros((0, H.shape[1]))
    if len(u1s):
        d_Y = layer.mlp2._backward(mlp2_cache, np.repeat(d_base, counts, axis=0))[0]
    d_self = (1.0 + layer.epsilon) * d_base
    return (
        _ordered_input_gradient(g, d_self, d_base, u1s, u2s, d_Y),
        _ordered_input_gradient(g, np.abs(d_self), np.abs(d_base), u1s, u2s, np.abs(d_Y)),
    )


def lexsort_dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The earlier ``ncwl.refine._dense_ids``: ids of the columns of ``keys``
    numbered by first occurrence, and the column where each id first occurs."""
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


class TupleUniverse:
    """Entities are all node_count**k ordered tuples in row-major order."""

    def __init__(self, g: Graph, k: int):
        self.graph = g
        self.k = k
        n = g.node_count
        self.size = n**k
        self._tuples = list(product(range(n), repeat=k))
        self._strides = [n ** (k - 1 - i) for i in range(k)]

    def initial_signatures(self) -> list:
        """Atomic types: position labels, pairwise adjacency, equality pattern.

        Tuples with repeated nodes must not be conflated with adjacent pairs,
        hence the three-way code per position pair.
        """
        g = self.graph
        labels = g.labels
        eset = g.edge_set
        k = self.k
        sigs = []
        for tup in self._tuples:
            lab = tuple(labels[v] for v in tup)
            pat = []
            for i in range(k):
                vi = tup[i]
                for j in range(i + 1, k):
                    vj = tup[j]
                    if vi == vj:
                        pat.append(2)
                    elif ((vi, vj) if vi < vj else (vj, vi)) in eset:
                        pat.append(1)
                    else:
                        pat.append(0)
            sigs.append((lab, tuple(pat)))
        return sigs

    def iteration_signatures(self, colors: Sequence[int]) -> list:
        n = self.graph.node_count
        k = self.k
        strides = self._strides
        out = []
        for idx, tup in enumerate(self._tuples):
            sig = [colors[idx]]
            for i in range(k):
                st = strides[i]
                base = idx - tup[i] * st
                sig.append(tuple(sorted(colors[base : base + n * st : st])))
            out.append(tuple(sig))
        return out


def encode_multiset(ctx: CodecContext, naturals: Iterable[int]) -> Fraction:
    """The earlier ``codec.encode_multiset``: one Fraction per term."""
    xs = list(naturals)
    if len(xs) >= ctx.base:
        raise CodecError(f"multiset cardinality {len(xs)} must be below the base {ctx.base}")
    total = Fraction(0)
    for z in xs:
        if not isinstance(z, int) or z < 0:
            raise CodecError(f"multiset elements must be natural numbers, got {z!r}")
        total += Fraction(1, ctx.base**z)
    return total


def _max_exponent(value: Fraction, base: int) -> int:
    den = value.denominator
    power = 1
    e = 0
    while power % den != 0:
        power *= base
        e += 1
        if e > den.bit_length() + 1:
            raise CodecError(
                f"value {value} is not decodable under base {base}: "
                "the residual never terminates"
            )
    return e


def decode_multiset(value: Fraction | int, base: int) -> tuple[int, ...]:
    """The earlier ``codec.decode_multiset``: a Fraction divmod per exponent."""
    if base < 3:
        raise CodecError(f"base must be at least 3, got {base}")
    value = Fraction(value)
    if value < 0:
        raise CodecError("encoded values are non-negative")
    if value == 0:
        return ()
    bound = _max_exponent(value, base)
    out: list[int] = []
    remainder = value
    for i in range(bound + 1):
        if remainder == 0:
            break
        q, remainder = divmod(remainder, Fraction(1, base**i))
        out.extend([i] * int(q))
    if remainder != 0:
        raise CodecError(f"value {value} is not decodable under base {base}")
    return tuple(out)


def encode_pairwise(ctx: CodecContext, elements: Iterable[Hashable], pairs: Iterable) -> Fraction:
    """The earlier ``codec.encode_pairwise``: pair values interned through ``ctx.f2``."""
    xs = list(elements)
    ws = list(pairs)
    if len(xs) + len(ws) >= ctx.base:
        raise CodecError(
            f"total cardinality {len(xs) + len(ws)} must be below the base {ctx.base}"
        )
    total = Fraction(0)
    for x in xs:
        total += ctx.f1(x)
    values = []
    for pair in ws:
        w1, w2 = pair
        values.append(ctx.f1(w1) + ctx.f1(w2))
    for y in values:
        total += ctx.f2(y)
    return total


def encode_centered(
    ctx: CodecContext, center: Hashable, elements: Iterable[Hashable], pairs: Iterable
) -> EpsilonValue:
    """The earlier ``codec.encode_centered``."""
    f1c = ctx.f1(center)
    return EpsilonValue(rational=f1c + encode_pairwise(ctx, elements, pairs), epsilon_coeff=f1c)
