"""Dense GIN-style layers with an extra term for edges among neighbors.

One layer maps node embeddings H (numpy float64, one row per node) to

    MLP1((1 + eps) * H[v] + sum of neighbor rows
                          + sum over neighbor-edges (u1, u2) of MLP2(H[u1] + H[u2]))

dropping the last term yields the plain GIN update, so on triangle-free
graphs the two forwards are literally the same computation. Edge-featured
variants apply a rectifier to (neighbor + edge feature) messages and add
the edge feature into the pair term.

All row aggregations (neighbor sums, pair-term sums, readout, and the
backward's gradient sums over neighbors and neighbor-edges) go through one
helper that returns the exactly rounded column sum of every group of rows,
the value ``math.fsum`` returns, so they are independent of summand order:
layer forwards and the backward's input gradient are bit-exactly
permutation-equivariant and the readout is bit-exactly
permutation-invariant. The helper sums all groups at once by a vectorised
TwoSum cascade that certifies each result, and calls ``math.fsum`` only for
entries it cannot certify (zero sums, inf, nan, magnitudes that could
overflow) and for groups too long to be worth a cascade step per row.
Everything is pure and deterministic given its inputs; nothing here trains.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _upper_half, adjacency_arrays, neighbor_edge_arrays


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


def seeded_rng(seed: int, name: str) -> np.random.Generator:
    """A named, platform-independent child stream of ``seed``."""
    digest = hashlib.blake2b(f"{seed}/{name}".encode(), digest_size=8).digest()
    return np.random.default_rng([seed & 0xFFFFFFFF, int.from_bytes(digest, "big")])


def _check_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")


def init_mlp(rng: np.random.Generator, in_dim: int, hidden_dim: int, out_dim: int) -> Mlp:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases."""
    _check_sizes(in_dim=in_dim, hidden_dim=hidden_dim, out_dim=out_dim)
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
    _check_sizes(num_labels=num_labels, dim=dim)
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
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


#: One cascade step (some 20 numpy calls) costs about as much as this many
#: ``math.fsum`` calls on a short group. On 2 vCPUs, dim 16: a step over
#: 1-10 groups of 10 rows took 28-31 us, one call on a column of 6-10 rows
#: 2.1-2.8 us.
_STEP_COST = 12


def _cascade_length(counts: np.ndarray, dim: int) -> int:
    """The group length L up to which the TwoSum cascade sums a group.

    The cascade costs one vectorised step per slot up to the longest group
    it takes, a longer group ``dim`` ``math.fsum`` calls; L minimises
    ``_STEP_COST * L + dim * #(counts > L)``, so one hub does not cost a
    step per leaf and a few tiny groups skip the cascade.
    """
    lengths = np.concatenate(([0], np.sort(counts)))
    longer = len(counts) - np.searchsorted(lengths[1:], lengths, side="right")
    return int(lengths[np.argmin(_STEP_COST * lengths + dim * longer)])


def _two_sum(a: np.ndarray, b: np.ndarray, t: np.ndarray, z: np.ndarray) -> None:
    """In place TwoSum: ``a`` becomes fl(a + b) and ``b`` its rounding error.

    Without overflow the new a + b equals the old a + b exactly (Knuth's
    branch-free TwoSum). ``t`` and ``z`` are scratch arrays of a's shape.
    """
    np.add(a, b, out=t)
    np.subtract(t, a, out=z)
    np.subtract(b, z, out=b)
    np.subtract(t, z, out=z)
    np.subtract(a, z, out=a)
    np.add(a, b, out=b)
    np.copyto(a, t)


def _sum2_cascade(rows: np.ndarray, first: np.ndarray, widths: np.ndarray):
    """Column sums of the groups ``rows[first[i] : first[i] + widths[i]]``, widths descending.

    All groups advance together, one slot per step: TwoSum folds the slot
    into the sum s and its rounding error e into the correction sigma, and a
    second TwoSum flags every entry whose sigma did not stay exact (Sum2;
    Ogita, Rump, Oishi 2005). Returns fl(s + sigma) and where it is certified
    to be the correctly rounded exact sum: sigma stayed exact, so s + sigma
    is the exact sum; every row is finite and below 2**1020 / width in
    magnitude, so neither this cascade nor ``math.fsum`` can overflow; and
    the sum is non-zero, since a zero's sign follows ``math.fsum``'s rule.
    """
    # inf, nan and overflow surface as non-finite values, which fail the certificate
    with np.errstate(over="ignore", invalid="ignore"):
        s = rows[first]
        sigma = np.zeros_like(s)
        top, bottom = s.copy(), s.copy()
        inexact = np.zeros(s.shape, dtype=bool)
        t, z = np.empty_like(s), np.empty_like(s)
        # the groups with more than j rows are the first `active` ones
        running = np.searchsorted(-widths, -np.arange(1, widths[0]), side="left")
        for j, active in enumerate(running.tolist(), start=1):
            x = rows[first[:active] + j]
            np.maximum(top[:active], x, out=top[:active])
            np.minimum(bottom[:active], x, out=bottom[:active])
            _two_sum(s[:active], x, t[:active], z[:active])
            _two_sum(sigma[:active], x, t[:active], z[:active])
            np.logical_or(inexact[:active], x, out=inexact[:active])
        hi = s + sigma
        bounded = np.maximum(top, -bottom) * widths[:, None] < 2.0**1020
    return hi, bounded & ~inexact & (hi != 0.0)


def _grouped_exact_sums(rows: np.ndarray, counts: np.ndarray, dim: int, dtype=float) -> np.ndarray:
    """Row v is the exactly rounded column sums of the next ``counts[v]`` rows of ``rows``.

    Every entry equals ``math.fsum`` of its column, bit for bit, and the
    same OverflowError or ValueError comes out. Groups up to
    :func:`_cascade_length` rows go through :func:`_sum2_cascade` at once;
    the entries it cannot certify, and every longer group, get
    ``math.fsum``, in (row, column) order.
    """
    counts = np.asarray(counts, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.float64)
    starts = np.cumsum(counts) - counts
    out = np.zeros((len(counts), dim), dtype=dtype)
    slow = np.zeros(out.shape, dtype=bool)
    length = _cascade_length(counts, dim)
    slow[counts > length] = True
    short = np.flatnonzero((counts > 0) & (counts <= length))
    if len(short):
        order = short[np.argsort(-counts[short], kind="stable")]
        hi, exact = _sum2_cascade(rows, starts[order], counts[order])
        out[order] = np.where(exact, hi, 0.0)
        slow[order] = ~exact
    for v, j in zip(*np.nonzero(slow)):
        out[v, j] = math.fsum(rows[starts[v] : starts[v] + counts[v], j].tolist())
    return out


def _neighbor_sums(g: Graph, H: np.ndarray, feats: EdgeFeatures | None = None) -> np.ndarray:
    """Exact per-node sums of neighbor rows, or of ReLU(H[u] + e_uv) with ``feats``."""
    degrees, neighbors = adjacency_arrays(g)
    rows = H[neighbors]
    if feats is not None:
        owners = np.repeat(np.arange(g.node_count), degrees)
        rows = np.maximum(rows + feats.values[feats._rows(owners, neighbors)], 0.0)
    return _grouped_exact_sums(rows, degrees, H.shape[1], H.dtype)


#: Edge keys are ``u * _KEY_BASE + v`` with u < v; node ids stay below it.
_KEY_BASE = 2**32


class EdgeFeatures:
    """One feature vector per unordered edge, rows aligned with g.edges()."""

    def __init__(self, graph: Graph, values: np.ndarray):
        if values.ndim != 2 or values.shape[0] != graph.edge_count:
            raise ValueError(
                f"expected one feature row per edge ({graph.edge_count}), got shape {values.shape}"
            )
        self.values = values
        us, vs = _upper_half(*adjacency_arrays(graph))
        # the keys of g.edges(), in its sorted order and in int64 (intp may
        # hold only 32 bits), then a sentinel no key equals, so a search
        # never runs off the end
        self._keys = np.append(us.astype(np.int64) * _KEY_BASE + vs, np.iinfo(np.int64).max)

    @classmethod
    def zeros(cls, graph: Graph, dim: int) -> "EdgeFeatures":
        return cls(graph, np.zeros((graph.edge_count, dim)))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Feature row of each edge {us[i], vs[i]}; ValueError names the first one missing.

        Node ids must lie in [0, 2**32), as every graph's do.
        """
        lo = np.minimum(us, vs).astype(np.int64)
        hi = np.maximum(us, vs).astype(np.int64)
        keys = lo * _KEY_BASE + hi
        found = np.searchsorted(self._keys, keys)
        missing = self._keys[found] != keys
        if missing.any():
            i = int(np.argmax(missing))
            raise ValueError(f"missing edge feature for edge {(int(lo[i]), int(hi[i]))}")
        return found

    def row(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        if not (0 <= key[0] and key[1] < _KEY_BASE):
            raise ValueError(f"missing edge feature for edge {key}")
        return int(self._rows(np.array([u]), np.array([v]))[0])

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
    counts = edges = mlp2_cache = None
    if mlp2 is not None:
        counts, edges = neighbor_edge_arrays(g)
        if len(edges):
            us, vs = _upper_half(*adjacency_arrays(g))
            Y = H[us] + H[vs]
            if feats is not None:
                Y = Y + feats.values  # the neighbor sums found every edge's row
            Y = Y[edges]  # a row per neighbor-edge; frees the per-edge rows first
            M, mlp2_cache = mlp2._forward_cached(Y)
            base = base + _grouped_exact_sums(M, counts, H.shape[1])
    out, mlp1_cache = mlp1._forward_cached(base)
    return out, (counts, edges, mlp2_cache, mlp1_cache)


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
    return _grouped_exact_sums(H, np.array([H.shape[0]]), H.shape[1])[0]


def nc_gnn_layer_backward(
    g: Graph, H: np.ndarray, layer: NcGnnLayer, upstream: np.ndarray
) -> tuple[np.ndarray, NcGnnLayerGrads]:
    """Exact reverse-mode gradients of the layer output against ``upstream``.

    ``upstream`` is dLoss/dOutput with the output's shape; for the scalar
    loss "sum of all outputs" pass a matrix of ones. Returns dLoss/dH and
    the parameter gradients; on graphs without neighbor-edges the mlp2
    gradients are exactly zero.
    """
    out, (counts, edges, mlp2_cache, mlp1_cache) = _layer_internals(
        g, H, layer.mlp1, layer.epsilon, layer.mlp2
    )
    if upstream.shape != out.shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {out.shape}")

    d_base, mlp1_grads = layer.mlp1._backward(mlp1_cache, upstream)
    d_eps = float((d_base * H).sum())
    # the neighbor-sum term is symmetric: node u receives d_base from each v in N(u)
    d_H = (1.0 + layer.epsilon) * d_base + _neighbor_sums(g, d_base)
    if len(edges):
        d_M = np.repeat(d_base, counts, axis=0)
        d_Y, mlp2_grads = layer.mlp2._backward(mlp2_cache, d_M)
        # node w receives d_Y of every neighbor-edge (u1, u2) with w in {u1, u2}
        ends = np.concatenate([side[edges] for side in _upper_half(*adjacency_arrays(g))])
        order = np.argsort(ends, kind="stable")
        d_H = d_H + _grouped_exact_sums(
            np.concatenate((d_Y, d_Y))[order], np.bincount(ends, minlength=len(H)), H.shape[1]
        )
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
