"""Empirical embedding separation for graph pairs, grounded in refinement.

For a pair of graphs the harness draws shared random layer parameters and
compares the two readout vectors, embedding each graph as it is given.
Every aggregation is exactly rounded, so after layer t nodes that share an
nc1wl color at round min(t, last) (gin: 1wl) carry bit-identical rows; this
is the paper's bound of NC-GNN by NC-1-WL, node by node. Equal rows also
need equal products: a row's bits may depend on how many rows its matrix
product has (numpy sends a one-row product down another BLAS path). When
the matching refinement does not split the pair, both graphs have the same
node count and, under nc1wl, the same number of neighbor-edges, so every
product has as many rows in one graph as in the other and the two readouts
agree bit-exactly. When refinement does split the pair, random parameters
separate the readouts with high probability, checked over several seeds.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .nn import embed_graph, seeded_rng, stack_layers


def shared_label_width(g1: Graph, g2: Graph) -> int:
    """One-hot width covering both graphs' label ranges."""
    return max([0, *g1.labels, *g2.labels]) + 1


def embedding_gap(
    g1: Graph,
    g2: Graph,
    seed: int,
    layers: int = 2,
    dim: int = 8,
    variant: str = "nc",
) -> float:
    """L-infinity distance between the two readouts under shared parameters."""
    num_labels = shared_label_width(g1, g2)
    params = stack_layers(seeded_rng(seed, "layers"), num_labels, dim, layers)
    e1 = embed_graph(g1, params, num_labels, variant=variant)
    e2 = embed_graph(g2, params, num_labels, variant=variant)
    return float(np.max(np.abs(e1 - e2))) if e1.size else 0.0


def separation_count(
    g1: Graph,
    g2: Graph,
    seeds: range | list[int],
    threshold: float = 1e-6,
    layers: int = 2,
    dim: int = 8,
    variant: str = "nc",
) -> int:
    """How many seeds produce an embedding gap above ``threshold``."""
    return sum(
        1
        for s in seeds
        if embedding_gap(g1, g2, s, layers=layers, dim=dim, variant=variant) > threshold
    )
