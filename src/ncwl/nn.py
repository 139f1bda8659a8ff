"""Dense GIN-style layers with an extra term for edges among neighbors.

One layer maps node embeddings H (numpy float64, one row per node) to

    MLP1((1 + eps) * H[v] + sum of neighbor rows
                          + sum over neighbor-edges (u1, u2) of MLP2(H[u1] + H[u2]))

dropping the last term yields the plain GIN update, so on triangle-free
graphs the two forwards are literally the same computation. The pair
message MLP2(H[u1] + H[u2]) depends on the edge alone, not on the center,
so MLP2 runs once per edge in a triangle, and each node's pair term sums
those rows through an index of its neighbor-edges. Edge-featured
variants apply a rectifier to (neighbor + edge feature) messages and add
the edge feature into the pair term.

All row aggregations (neighbor sums, pair-term sums, readout, and the
backward's gradient sums over neighbors and neighbor-edges) go through one
helper that returns the exactly rounded column sum of every group of rows,
the value ``math.fsum`` returns, so they are independent of summand order:
layer forwards and the backward's input gradient are bit-exactly
permutation-equivariant and the readout is bit-exactly
permutation-invariant. The helper splits every entry error-free against a
power of two chosen per group and column (Rump, Ogita and Oishi, 2008), so
that both parts sum exactly in any order, and one rounding of the two part
sums gives fsum's value. It calls ``math.fsum`` only for entries outside
the split's bounds (zero sums, inf, nan, subnormals, magnitudes that could
overflow, columns whose exponents spread too far for the group's size).
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
    if g.labels and max(g.labels) >= num_labels:
        lab = next(lab for lab in g.labels if lab >= num_labels)
        raise ValueError(f"label {lab} out of range for num_labels={num_labels}")
    out[np.arange(g.node_count), np.fromiter(g.labels, dtype=np.intp, count=g.node_count)] = 1.0
    return out


#: Entries per block of :func:`_grouped_exact_sums` (rows times columns):
#: 256 KiB per float64 temporary. On 2 vCPUs, dim 16, random rows, blocks
#: of 2**12 / 2**14 / 2**15 / 2**16 / 2**17 entries summed the tri-dense
#: pair term in 12.3 / 7.3 / 6.7 / 7.8 / 8.9 ms, and the mesh neighbor
#: sums in 2.6 / 1.7 / 1.6 / 2.4 / 2.4 ms.
_BLOCK_ENTRIES = 2**15


#: Rows per slab of :func:`_column_extremes`.
_SLAB_ROWS = 32


def _slab_reduce(ufunc: np.ufunc, a: np.ndarray, identity) -> np.ndarray:
    """``ufunc.reduce(a, axis=0)`` for the C-contiguous matrix ``a`` and a
    ufunc whose reduction ignores order, such as ``np.maximum``; ``identity``
    where ``a`` has no rows.

    numpy reduces axis 0 of a narrow matrix one short row at a time, so
    the whole slabs of :data:`_SLAB_ROWS` rows are reduced as single long
    rows, then folded to one row, with the rows past them.
    """
    n, dim = a.shape
    whole = n - n % _SLAB_ROWS
    slabs = a[:whole].reshape(whole // _SLAB_ROWS, _SLAB_ROWS * dim)
    folded = ufunc.reduce(ufunc.reduce(slabs, axis=0, initial=identity).reshape(_SLAB_ROWS, dim))
    return ufunc(folded, ufunc.reduce(a[whole:], axis=0, initial=identity))


def _column_extremes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the float64 matrix ``rows``, the largest magnitude and
    the smallest non-zero one: 0 and inf where there is none, and nan for
    both where the column holds a nan.

    The bits of a non-negative float order as the float does, so less one,
    as uint64, they still do, and 0.0 wraps to the largest: the smallest
    non-zero magnitude is one uint64 minimum, with no mask of the zeros.
    Both reductions run by :func:`_slab_reduce`. On 200001 x 8 random
    rows, a fifth of them zero (the rows of a 200000-leaf star at dim 8),
    this took 3 against 17 ms for ``max(axis=0)`` and ``min(axis=0)``
    after writing inf over the zeros (2 vCPUs).
    """
    mag = np.abs(rows)
    top = _slab_reduce(np.maximum, mag, 0.0)
    bits = mag.view(np.uint64)
    bits -= np.uint64(1)
    least = _slab_reduce(np.minimum, bits, np.iinfo(np.uint64).max)
    least += np.uint64(1)
    low = least.view(np.float64)
    # a column of only zeros wrapped back to 0.0; a nan sorts above inf as bits
    low[least == 0] = np.inf
    low[np.isnan(top)] = np.nan
    return top, low


def _grouped_exact_sums(
    rows: np.ndarray, counts: np.ndarray, dim: int, dtype=float, at: np.ndarray | None = None
) -> np.ndarray:
    """Row v is the exactly rounded column sums of the next ``counts[v]`` rows of ``rows``.

    With a gather index ``at`` the rows summed are ``rows[at]``, taken in
    the same groups, without that copy being made. Every entry equals
    ``math.fsum`` of its column, bit for bit, and the same OverflowError or
    ValueError comes out.

    The split (Rump, Ogita and Oishi, "Accurate floating-point summation,
    Part I", SISC 2008): let E be the exponent, floor(log2), of the
    column's largest magnitude over all of ``rows``, e that of its smallest
    non-zero magnitude, and b the bit length of the group's row count c.
    With sigma = 2**k, k = E + b + 1, each x of the group splits into
    q = (sigma + x) - sigma and r = x - q, both exact.

    - Every q is a multiple of 2**(k - 53) and at most 2**(E + 1) in
      magnitude, so every partial sum of the group's q's is at most
      c * 2**(E + 1) < sigma: exact, in any order.
    - Every r is a multiple of 2**(e - 52) and at most 2**(k - 53) in
      magnitude, so every partial sum of the r's is below
      2**(E + 2b - 52), which holds 53 bits of that grid when
      (E - e) + 2b <= 53: exact, in any order.

    So the sum of the q's and the sum of the r's are exact, and their one
    rounded sum is the exactly rounded group sum, which is fsum's. Both are
    summed by ``np.add.reduceat`` over blocks of about ``_BLOCK_ENTRIES``
    entries gathered through ``at``; a group cut by a block edge adds its
    exact partial sums.

    An entry goes to ``math.fsum`` instead, in (row, column) order, when
    (E - e) + 2b > 53, when its column holds inf, nan or a subnormal, when
    k > 1020 (fsum may overflow there, so its error must come out), or when
    its sum is an exact zero (whose sign follows fsum's rule).
    """
    counts = np.asarray(counts, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.float64)
    out = np.zeros((len(counts), dim), dtype=dtype)
    groups = np.flatnonzero(counts)
    if not len(groups):
        return out
    top, low = _column_extremes(rows)
    sizes = counts[groups]
    bits = np.frexp(sizes)[1][:, None]
    # frexp's exponent is floor(log2) + 1, so this k is E + b + 1
    top_exp = np.frexp(top)[1]
    k = top_exp + bits
    fits = (k <= 1020) & (top_exp - np.frexp(low)[1] + 2 * bits <= 53)
    fits &= np.isfinite(top) & (low >= 2.0**-1022)
    sigma = np.ldexp(1.0, np.where(fits, k, 0))
    ends = np.cumsum(sizes)
    sums = np.zeros((2, len(groups), dim))
    step = max(1, _BLOCK_ENTRIES // dim)
    # the entries that do not fit may be inf or nan; they are not used
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, int(ends[-1]), step):
            hi = min(lo + step, int(ends[-1]))
            a, z = np.searchsorted(ends, [lo, hi - 1], side="right")
            cut = np.minimum(ends[a : z + 1], hi) - lo
            offsets = np.concatenate(([0], cut[:-1]))
            x = rows[lo:hi] if at is None else rows.take(at[lo:hi], axis=0)
            s = np.repeat(sigma[a : z + 1], np.diff(cut, prepend=0), axis=0)
            q = s + x
            q -= s
            sums[0, a : z + 1] += np.add.reduceat(q, offsets)
            sums[1, a : z + 1] += np.add.reduceat(np.subtract(x, q, out=s), offsets)
        total = sums[0] + sums[1]
    slow = ~fits | (total == 0.0)
    out[groups] = np.where(slow, 0.0, total)
    for g, j in zip(*np.nonzero(slow)):
        group = slice(ends[g] - sizes[g], ends[g])
        out[groups[g], j] = math.fsum(rows[group if at is None else at[group], j].tolist())
    return out


def _neighbor_sums(g: Graph, H: np.ndarray, feats: EdgeFeatures | None = None) -> np.ndarray:
    """Exact per-node sums of neighbor rows, or of ReLU(H[u] + e_uv) with ``feats``."""
    degrees, neighbors = adjacency_arrays(g)
    if feats is None:
        return _grouped_exact_sums(H, degrees, H.shape[1], H.dtype, at=neighbors)
    owners = np.repeat(np.arange(g.node_count), degrees)
    rows = np.maximum(H[neighbors] + feats.values[feats._rows(owners, neighbors)], 0.0)
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
    feature joins each pair message. MLP2 runs once per edge in a triangle,
    and each node sums its neighbor-edges' rows through their local ids
    among those edges. Returns the output and the caches the backward pass
    needs; the mlp2 cache holds a row per edge in a triangle, plus the
    local ids that gather it to a row per neighbor-edge.
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
            in_triangle = np.zeros(len(us), dtype=bool)
            in_triangle[edges] = True
            tri = np.flatnonzero(in_triangle)
            Y = H[us[tri]] + H[vs[tri]]
            if feats is not None:
                Y = Y + feats.values[tri]  # the neighbor sums found every edge's row
            M, cache = mlp2._forward_cached(Y)
            # each neighbor-edge row's position among the edges in a triangle
            local = (np.cumsum(in_triangle) - 1)[edges]
            mlp2_cache = cache, local
            base = base + _grouped_exact_sums(M, counts, H.shape[1], at=local)
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
        cache, local = mlp2_cache
        d_Y, mlp2_grads = layer.mlp2._backward(tuple(a[local] for a in cache), d_M)
        # node w receives d_Y of every neighbor-edge (u1, u2) with w in {u1, u2}
        ends = np.concatenate([side[edges] for side in _upper_half(*adjacency_arrays(g))])
        # row i of either half of ends is row i of d_Y
        at = np.argsort(ends, kind="stable") % len(edges)
        d_H = d_H + _grouped_exact_sums(d_Y, np.bincount(ends, minlength=len(H)), H.shape[1], at=at)
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
