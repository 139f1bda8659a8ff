"""The reference that the sorting 2wl/3wl engine is tested against.

:class:`TupleUniverse`, under ``ncwl.refine._intern_round``, is the
package's earlier pure-Python k-tuple engine, kept here unchanged in
behaviour. The other references live in the package, where they also
serve small inputs: ``ncwl.refine._NodeUniverse`` for the node sort engine
and ``ncwl.graph._merge_neighbor_edges`` for the compact-forward triangle
lister.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from ncwl import Graph


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
