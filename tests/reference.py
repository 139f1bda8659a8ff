"""Reference implementations that the package's fast engines are tested against.

Both are the package's earlier pure-Python code, kept here unchanged in
behaviour: :func:`merge_neighbor_edges` for the compact-forward triangle
lister of ``ncwl.graph``, :class:`TupleUniverse` (under
``ncwl.refine._intern_round``) for the sorting 2wl/3wl engine.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from ncwl import Graph


def merge_neighbor_edges(g: Graph) -> list[list[tuple[int, int]]]:
    """For every node w, the edges (u1, u2) inside N(w), ascending.

    An edge-centric pass over the sorted adjacency: edge (u1, u2) belongs
    to w's list iff w is a common neighbor of u1 and u2, which
    merge-intersecting the two sorted adjacency lists finds. Iterating the
    edges in sorted order leaves every list ascending. Quadratic in the
    largest degree.
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


class TupleUniverse:
    """Entities are all node_count**k ordered tuples in row-major order.

    Interns each tuple's signature under ``ncwl.refine._intern_round``; the
    reference that the sorting engine ``ncwl.refine._sort_round`` is tested
    against.
    """

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
        if not isinstance(colors, list):
            colors = list(colors)
        out = []
        for idx, tup in enumerate(self._tuples):
            sig = [colors[idx]]
            for i in range(k):
                st = strides[i]
                base = idx - tup[i] * st
                sig.append(tuple(sorted(colors[base : base + n * st : st])))
            out.append(tuple(sig))
        return out
