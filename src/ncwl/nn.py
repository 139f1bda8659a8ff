"""Dense GIN-style layers with an extra term for edges among neighbors.

One layer maps node embeddings H (numpy float64, one row per node) to

    MLP1((1 + eps) * H[v] + sum of neighbor rows
                          + sum over neighbor-edges (u1, u2) of MLP2(H[u1] + H[u2]))

dropping the last term yields the plain GIN update, so on triangle-free
graphs the two forwards are literally the same computation. Edge-featured
variants apply a rectifier to (neighbor + edge feature) messages and add
the edge feature into the pair term.

All row aggregations (neighbor sums, pair-term sums, readout) use exactly
rounded summation (math.fsum per column), which makes them independent of
summand order: layer forwards are bit-exactly permutation-equivariant and
the readout is bit-exactly permutation-invariant. Everything is pure and
deterministic given its inputs; nothing here trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, adjacency_arrays, neighbor_edge_arrays


@dataclass(eq=False)
class Mlp:
    """Two affine layers with a rectifier between them."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden dimensions of the two affine layers disagree")
        if self.b1.shape != (self.w1.shape[1],) or self.b2.shape != (self.w2.shape[1],):
            raise ValueError("bias shapes do not match the weight shapes")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._forward_cached(x)[0]

    def _forward_cached(self, x: np.ndarray):
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dim {x.shape[1]} != mlp input dim {self.in_dim}")
        z1 = x @ self.w1 + self.b1
        r = np.maximum(z1, 0.0)
        out = r @ self.w2 + self.b2
        return out, (x, z1, r)

    def _backward(self, cache, d_out: np.ndarray):
        x, z1, r = cache
        d_w2 = r.T @ d_out
        d_b2 = d_out.sum(axis=0)
        d_r = d_out @ self.w2.T
        d_z1 = d_r * (z1 > 0.0)
        d_w1 = x.T @ d_z1
        d_b1 = d_z1.sum(axis=0)
        d_x = d_z1 @ self.w1.T
        return d_x, MlpGrads(d_w1, d_b1, d_w2, d_b2)

    def zero_grads(self) -> "MlpGrads":
        return MlpGrads(
            np.zeros_like(self.w1),
            np.zeros_like(self.b1),
            np.zeros_like(self.w2),
            np.zeros_like(self.b2),
        )


@dataclass(eq=False)
class MlpGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(eq=False)
class NcGnnLayer:
    """Layer parameters: mlp2 must map the input dim back to the input dim."""

    mlp1: Mlp
    mlp2: Mlp
    epsilon: float

    def __post_init__(self):
        if self.mlp2.in_dim != self.mlp1.in_dim or self.mlp2.out_dim != self.mlp1.in_dim:
            raise ValueError("mlp2 must map the layer input dimension to itself")


@dataclass(eq=False)
class NcGnnLayerGrads:
    mlp1: MlpGrads
    mlp2: MlpGrads
    epsilon: float


def init_mlp(rng: np.random.Generator, in_dim: int, hidden_dim: int, out_dim: int) -> Mlp:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases."""
    s1 = 1.0 / math.sqrt(in_dim)
    s2 = 1.0 / math.sqrt(hidden_dim)
    return Mlp(
        w1=rng.uniform(-s1, s1, size=(in_dim, hidden_dim)),
        b1=rng.uniform(-s1, s1, size=hidden_dim),
        w2=rng.uniform(-s2, s2, size=(hidden_dim, out_dim)),
        b2=rng.uniform(-s2, s2, size=out_dim),
    )


def init_layer(rng: np.random.Generator, in_dim: int, out_dim: int) -> NcGnnLayer:
    """mlp1: in -> out (hidden = out), mlp2: in -> in (hidden = in), epsilon 0."""
    return NcGnnLayer(
        mlp1=init_mlp(rng, in_dim, out_dim, out_dim),
        mlp2=init_mlp(rng, in_dim, in_dim, in_dim),
        epsilon=0.0,
    )


def stack_layers(rng: np.random.Generator, num_labels: int, dim: int, count: int) -> list[NcGnnLayer]:
    """`count` layers chained from one-hot inputs of width num_labels."""
    layers = []
    in_dim = num_labels
    for _ in range(count):
        layers.append(init_layer(rng, in_dim, dim))
        in_dim = dim
    return layers


def one_hot_features(g: Graph, num_labels: int) -> np.ndarray:
    """Row v is the one-hot encoding of g.labels[v]."""
    out = np.zeros((g.node_count, num_labels))
    for v, lab in enumerate(g.labels):
        if lab >= num_labels:
            raise ValueError(f"label {lab} out of range for num_labels={num_labels}")
        out[v, lab] = 1.0
    return out


def _exact_colsums(rows: np.ndarray, dim: int) -> np.ndarray:
    # exactly rounded, hence summand-order independent
    if rows.shape[0] == 0:
        return np.zeros(dim)
    return np.array([math.fsum(rows[:, j]) for j in range(dim)])


def _grouped_exact_sums(rows: np.ndarray, counts: np.ndarray, dim: int, dtype=float) -> np.ndarray:
    """Row v is the exact column sums of the next ``counts[v]`` rows of ``rows``."""
    out = np.zeros((len(counts), dim), dtype=dtype)
    start = 0
    for v, c in enumerate(counts.tolist()):
        if c:
            out[v] = _exact_colsums(rows[start : start + c], dim)
            start += c
    return out


def _neighbor_sums(g: Graph, H: np.ndarray, feats: EdgeFeatures | None = None) -> np.ndarray:
    """Exact per-node sums of neighbor rows, or of ReLU(H[u] + e_uv) with ``feats``."""
    degrees, neighbors = adjacency_arrays(g)
    rows = H[neighbors]
    if feats is not None:
        edge_rows = [feats.row(v, u) for v, nb in enumerate(g.adjacency) for u in nb]
        rows = np.maximum(rows + feats.values[edge_rows], 0.0)
    return _grouped_exact_sums(rows, degrees, H.shape[1], H.dtype)


class EdgeFeatures:
    """One feature vector per unordered edge, rows aligned with g.edges()."""

    def __init__(self, graph: Graph, values: np.ndarray):
        edges = graph.edges()
        if values.ndim != 2 or values.shape[0] != len(edges):
            raise ValueError(
                f"expected one feature row per edge ({len(edges)}), got shape {values.shape}"
            )
        self.values = values
        self._index = {e: i for i, e in enumerate(edges)}

    @classmethod
    def zeros(cls, graph: Graph, dim: int) -> "EdgeFeatures":
        return cls(graph, np.zeros((graph.edge_count, dim)))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def row(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        idx = self._index.get(key)
        if idx is None:
            raise ValueError(f"missing edge feature for edge {key}")
        return idx

    def vector(self, u: int, v: int) -> np.ndarray:
        return self.values[self.row(u, v)]


def _layer_internals(
    g: Graph,
    H: np.ndarray,
    mlp1: Mlp,
    epsilon: float,
    mlp2: Mlp | None = None,
    feats: EdgeFeatures | None = None,
):
    """The one layer update: MLP1((1 + eps) * H + neighbor sums [+ pair term]).

    Without ``mlp2`` the pair term is dropped (and no neighbor-edge index is
    built); with ``feats`` neighbor messages are rectified and the edge
    feature joins each pair message. Returns the output and the caches the
    backward pass needs.
    """
    if H.ndim != 2 or H.shape[0] != g.node_count:
        raise ValueError(f"feature matrix must have one row per node, got shape {H.shape}")
    if feats is not None and feats.dim != H.shape[1]:
        raise ValueError(f"edge feature dim {feats.dim} must equal node embedding dim {H.shape[1]}")
    base = (1.0 + epsilon) * H + _neighbor_sums(g, H, feats)
    counts = u1s = u2s = mlp2_cache = None
    if mlp2 is not None:
        counts, u1s, u2s = neighbor_edge_arrays(g)
        if len(u1s):
            Y = H[u1s] + H[u2s]
            if feats is not None:
                Y = Y + feats.values[[feats.row(a, b) for a, b in zip(u1s, u2s)]]
            M, mlp2_cache = mlp2._forward_cached(Y)
            base = base + _grouped_exact_sums(M, counts, H.shape[1])
    out, mlp1_cache = mlp1._forward_cached(base)
    return out, (counts, u1s, u2s, mlp2_cache, mlp1_cache)


def nc_gnn_layer_forward(g: Graph, H: np.ndarray, layer: NcGnnLayer) -> np.ndarray:
    """Full layer update including the neighbor-edge term."""
    return _layer_internals(g, H, layer.mlp1, layer.epsilon, layer.mlp2)[0]


def gin_layer_forward(g: Graph, H: np.ndarray, mlp1: Mlp, epsilon: float) -> np.ndarray:
    """Plain update: MLP1((1 + eps) * H[v] + neighbor sum)."""
    return _layer_internals(g, H, mlp1, epsilon)[0]


def nc_gnn_layer_forward_edgefeat(
    g: Graph, H: np.ndarray, feats: EdgeFeatures, layer: NcGnnLayer
) -> np.ndarray:
    """Edge-featured update: rectified neighbor messages plus the pair term.

    The pair message for the neighbor-edge (u1, u2) is
    MLP2(H[u1] + H[u2] + e_{u1 u2}).
    """
    return _layer_internals(g, H, layer.mlp1, layer.epsilon, layer.mlp2, feats)[0]


def gin_layer_forward_edgefeat(
    g: Graph, H: np.ndarray, feats: EdgeFeatures, mlp1: Mlp, epsilon: float
) -> np.ndarray:
    """Edge-featured plain update: MLP1((1 + eps) * H[v] + sum ReLU(H[u] + e_uv))."""
    return _layer_internals(g, H, mlp1, epsilon, feats=feats)[0]


def readout_sum(H: np.ndarray) -> np.ndarray:
    """Column sums over all rows; exactly rounded, hence row-order invariant."""
    return _exact_colsums(H, H.shape[1])


def nc_gnn_layer_backward(
    g: Graph, H: np.ndarray, layer: NcGnnLayer, upstream: np.ndarray
) -> tuple[np.ndarray, NcGnnLayerGrads]:
    """Exact reverse-mode gradients of the layer output against ``upstream``.

    ``upstream`` is dLoss/dOutput with the output's shape; for the scalar
    loss "sum of all outputs" pass a matrix of ones. Returns dLoss/dH and
    the parameter gradients; on graphs without neighbor-edges the mlp2
    gradients are exactly zero.
    """
    out, (counts, u1s, u2s, mlp2_cache, mlp1_cache) = _layer_internals(
        g, H, layer.mlp1, layer.epsilon, layer.mlp2
    )
    if upstream.shape != out.shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {out.shape}")

    d_base, mlp1_grads = layer.mlp1._backward(mlp1_cache, upstream)
    d_eps = float((d_base * H).sum())
    d_H = (1.0 + layer.epsilon) * d_base
    # neighbor-sum term is symmetric: node u receives d_base from each v in N(u)
    for u, nb in enumerate(g.adjacency):
        if nb:
            d_H[u] += d_base[list(nb)].sum(axis=0)
    if len(u1s):
        d_M = np.repeat(d_base, counts, axis=0)
        d_Y, mlp2_grads = layer.mlp2._backward(mlp2_cache, d_M)
        np.add.at(d_H, u1s, d_Y)
        np.add.at(d_H, u2s, d_Y)
    else:
        mlp2_grads = layer.mlp2.zero_grads()
    return d_H, NcGnnLayerGrads(mlp1=mlp1_grads, mlp2=mlp2_grads, epsilon=d_eps)


def embed_graph(
    g: Graph, layers: list[NcGnnLayer], num_labels: int, variant: str = "nc"
) -> np.ndarray:
    """One-hot features, `variant` layer forwards, then the sum readout.

    variant "nc" uses the full update, "gin" drops the neighbor-edge term
    (using each layer's mlp1 and epsilon only). Zero layers reduce to the
    label histogram.
    """
    if variant not in ("nc", "gin"):
        raise ValueError(f"unknown variant {variant!r}")
    H = one_hot_features(g, num_labels)
    for layer in layers:
        if variant == "nc":
            H = nc_gnn_layer_forward(g, H, layer)
        else:
            H = gin_layer_forward(g, H, layer.mlp1, layer.epsilon)
    return readout_sum(H)
