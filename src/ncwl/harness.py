"""Empirical embedding separation for graph pairs, grounded in refinement.

For a pair of graphs the harness draws shared random layer parameters and
compares the two readout vectors. When the matching refinement does not
split the pair, every refinement class carries a single embedding value and
the aggregations are order-independent, so the two readouts must agree
bit-exactly; when refinement does split the pair, random parameters
separate the readouts with high probability, checked over several seeds.

Graphs are preprocessed to a canonical node order derived from the joint
converged coloring (sort by final color, ties by original id). With exactly
rounded aggregation this is not required for equality, but it keeps every
per-node summand sequence aligned between the two graphs.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, permute_graph
from .nn import embed_graph, seeded_rng, stack_layers
from .refine import _counted_rounds

_VARIANT_METHOD = {"nc": "nc1wl", "gin": "1wl"}


def canonical_pair(g1: Graph, g2: Graph, method: str = "nc1wl") -> tuple[Graph, Graph]:
    """Reorder both graphs by the final colors of a joint refinement run."""
    for colors, _ in _counted_rounds(method, [g1, g2], None):
        pass
    n = g1.node_count
    # node v moves to its rank in (final color, v) order
    return tuple(
        permute_graph(g, np.argsort(np.argsort(c, kind="stable")).tolist())
        for g, c in ((g1, colors[:n]), (g2, colors[n:]))
    )


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
    if variant not in _VARIANT_METHOD:
        raise ValueError(f"unknown variant {variant!r}")
    c1, c2 = canonical_pair(g1, g2, _VARIANT_METHOD[variant])
    num_labels = shared_label_width(g1, g2)
    params = stack_layers(seeded_rng(seed, "layers"), num_labels, dim, layers)
    e1 = embed_graph(c1, params, num_labels, variant=variant)
    e2 = embed_graph(c2, params, num_labels, variant=variant)
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
