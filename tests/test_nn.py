from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from ncwl import (
    EdgeFeatures,
    Graph,
    Mlp,
    NcGnnLayer,
    complete_graph,
    cycle_graph,
    disjoint_union,
    embed_graph,
    embedding_gap,
    gin_layer_forward,
    gin_layer_forward_edgefeat,
    init_layer,
    init_mlp,
    load_corpus,
    neighbor_edge_lists,
    nc_gnn_layer_backward,
    nc_gnn_layer_forward,
    nc_gnn_layer_forward_edgefeat,
    one_hot_features,
    path_graph,
    permute_graph,
    random_gnm,
    random_gnp,
    readout_sum,
    refine,
    separation_count,
    stack_layers,
    stats,
)
from ncwl.graph import neighbor_edge_arrays
from ncwl.harness import seeded_rng
from ncwl.nn import _SLAB_ROWS, _column_extremes, _grouped_exact_sums


def identity_mlp(dim: int) -> Mlp:
    return Mlp(w1=np.eye(dim), b1=np.zeros(dim), w2=np.eye(dim), b2=np.zeros(dim))


def identity_layer(dim: int, epsilon: float = 0.0) -> NcGnnLayer:
    return NcGnnLayer(mlp1=identity_mlp(dim), mlp2=identity_mlp(dim), epsilon=epsilon)


def random_bipartite(rng: random.Random, n: int) -> Graph:
    left = rng.randint(1, max(1, n - 1))
    edges = [(i, j) for i in range(left) for j in range(left, n) if rng.random() < 0.5]
    return Graph.build(n, edges)


class TestOneHot:
    def test_uniform_labels(self):
        H = one_hot_features(complete_graph(3), 1)
        assert H.shape == (3, 1)
        assert np.array_equal(H, np.ones((3, 1)))

    def test_two_labels(self):
        H = one_hot_features(path_graph(3, [0, 1, 0]), 2)
        assert np.array_equal(H, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))

    def test_rows_sum_to_one(self):
        rng = random.Random("onehot")
        g = random_gnp(rng, 9, 0.4, num_labels=3)
        H = one_hot_features(g, 3)
        assert np.array_equal(H.sum(axis=1), np.ones(9))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot_features(path_graph(2, [0, 2]), 2)

    def test_names_the_first_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"^label 3 out of range for num_labels=2$"):
            one_hot_features(path_graph(4, [0, 3, 2**70, 5]), 2)


class TestForward:
    def test_k3_identity_params(self):
        out = nc_gnn_layer_forward(complete_graph(3), np.eye(3), identity_layer(3))
        expected = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
        assert np.array_equal(out, expected)

    def test_triangle_free_reduces_to_plain(self):
        rng = random.Random("tf-forward")
        gen = np.random.default_rng(5)
        for _ in range(20):
            g = random_bipartite(rng, rng.randint(2, 10))
            layer = init_layer(gen, 3, 4)
            H = gen.normal(size=(g.node_count, 3))
            nc = nc_gnn_layer_forward(g, H, layer)
            plain = gin_layer_forward(g, H, layer.mlp1, layer.epsilon)
            assert np.array_equal(nc, plain)

    def test_permutation_equivariance_bit_exact(self):
        rng = random.Random("equivariance")
        gen = np.random.default_rng(11)
        for _ in range(10):
            n = rng.randint(2, 9)
            g = random_gnp(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            h = permute_graph(g, perm)
            layer = init_layer(gen, 2, 3)
            H = gen.normal(size=(n, 2))
            Hp = np.empty_like(H)
            for v in range(n):
                Hp[perm[v]] = H[v]
            out = nc_gnn_layer_forward(g, H, layer)
            outp = nc_gnn_layer_forward(h, Hp, layer)
            for v in range(n):
                assert np.array_equal(outp[perm[v]], out[v])

    def test_gin_isolated_node(self):
        g = Graph.build(1, [])
        mlp = init_mlp(np.random.default_rng(0), 2, 3, 2)
        H = np.array([[0.5, -1.0]])
        out = gin_layer_forward(g, H, mlp, 0.25)
        assert np.array_equal(out, mlp.forward(1.25 * H))

    def test_gin_k2_identity(self):
        out = gin_layer_forward(complete_graph(2), np.eye(2), identity_mlp(2), 0.0)
        assert np.array_equal(out, np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="row per node"):
            nc_gnn_layer_forward(complete_graph(3), np.eye(2), identity_layer(2))

    def test_gin_forwards_build_no_neighbor_edge_index(self, monkeypatch):
        import ncwl.graph

        def refuse(g):
            raise AssertionError("neighbor-edge index built on the plain path")

        monkeypatch.setattr(ncwl.graph, "_compact_forward", refuse)
        g = complete_graph(3)
        H = np.eye(3)
        assert np.array_equal(gin_layer_forward(g, H, identity_mlp(3), 0.0), np.ones((3, 3)))
        feats = EdgeFeatures.zeros(g, 3)
        gin_layer_forward_edgefeat(g, H, feats, identity_mlp(3), 0.0)
        layers = stack_layers(seeded_rng(0, "gin-index"), 1, 2, 2)
        embed_graph(g, layers, 1, variant="gin")
        with pytest.raises(AssertionError, match="index built"):
            nc_gnn_layer_forward(g, H, identity_layer(3))

    def test_epsilon_scales_self_term(self):
        g = Graph.build(1, [])
        out = nc_gnn_layer_forward(g, np.array([[2.0]]), identity_layer(1, epsilon=0.5))
        assert np.array_equal(out, np.array([[3.0]]))


    def test_forward_holds_no_array_of_a_row_per_neighbor_edge(self):
        # MLP2 and its caches take a row per edge in a triangle, and the pair
        # sums read them through an index. About 13 MiB at the time of writing,
        # 55 MiB while the layer copied a pair row per neighbor-edge.
        g = random_gnm(random.Random("pair-term-memory"), 700, 19600)
        dim = 16
        layer = init_layer(seeded_rng(0, "pair-term-memory"), dim, dim)
        H = seeded_rng(1, "pair-term-memory").normal(size=(g.node_count, dim))
        tracemalloc.start()
        try:
            nc_gnn_layer_forward(g, H, layer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_array = len(neighbor_edge_arrays(g)[1]) * dim * 8
        assert peak < 2 * one_array


class TestEdgeFeatured:
    def test_zero_features_match_plain_on_nonnegative_inputs(self):
        g = complete_graph(4)
        gen = np.random.default_rng(3)
        layer = init_layer(gen, 3, 3)
        H = gen.uniform(0.0, 1.0, size=(4, 3))
        feats = EdgeFeatures.zeros(g, 3)
        assert np.array_equal(
            nc_gnn_layer_forward_edgefeat(g, H, feats, layer),
            nc_gnn_layer_forward(g, H, layer),
        )
        assert np.array_equal(
            gin_layer_forward_edgefeat(g, H, feats, layer.mlp1, layer.epsilon),
            gin_layer_forward(g, H, layer.mlp1, layer.epsilon),
        )

    def test_k3_one_hot_identity(self):
        g = complete_graph(3)
        out = nc_gnn_layer_forward_edgefeat(g, np.eye(3), EdgeFeatures.zeros(g, 3), identity_layer(3))
        assert np.array_equal(out, nc_gnn_layer_forward(g, np.eye(3), identity_layer(3)))

    def test_isolated_node(self):
        g = Graph.build(1, [])
        layer = identity_layer(2, epsilon=1.0)
        H = np.array([[1.0, 2.0]])
        out = nc_gnn_layer_forward_edgefeat(g, H, EdgeFeatures.zeros(g, 2), layer)
        assert np.array_equal(out, 2.0 * H)

    def test_rectifier_applies_to_neighbor_messages(self):
        g = complete_graph(2)
        feats = EdgeFeatures(g, np.array([[-2.0]]))
        out = gin_layer_forward_edgefeat(g, np.array([[1.0], [1.0]]), feats, identity_mlp(1), 0.0)
        # message relu(1 - 2) = 0, so each row is just its own embedding
        assert np.array_equal(out, np.array([[1.0], [1.0]]))

    def test_dimension_mismatch(self):
        g = complete_graph(2)
        with pytest.raises(ValueError, match="edge feature dim"):
            nc_gnn_layer_forward_edgefeat(
                g, np.ones((2, 2)), EdgeFeatures.zeros(g, 1), identity_layer(2)
            )

    def test_feature_rows_follow_edge_order(self):
        g = random_gnp(random.Random("feat-rows"), 12, 0.4)
        feats = EdgeFeatures.zeros(g, 1)
        for i, (u, v) in enumerate(g.edges()):
            assert feats.row(u, v) == feats.row(v, u) == i

    def test_each_message_gets_its_edge_feature(self):
        # identity mlps: out[v] = ReLU(H[v] + sum ReLU(H[u] + e_vu) + sum ReLU(H[a] + H[b] + e_ab))
        g = random_gnp(random.Random("feat-messages"), 30, 0.3)
        gen = np.random.default_rng(4)
        H = gen.normal(size=(30, 3))
        feats = EdgeFeatures(g, gen.normal(size=(g.edge_count, 3)))
        expected = np.zeros_like(H)
        for v in range(30):
            messages = [np.maximum(H[u] + feats.vector(v, u), 0.0) for u in g.adjacency[v]]
            pairs = [
                np.maximum(H[a] + H[b] + feats.vector(a, b), 0.0)
                for a, b in neighbor_edge_lists(g)[v]
            ]
            base = H[v] + np.array([math.fsum(col) for col in zip(*messages)] or [0.0] * 3)
            if pairs:
                base = base + np.array([math.fsum(col) for col in zip(*pairs)])
            expected[v] = np.maximum(base, 0.0)
        out = nc_gnn_layer_forward_edgefeat(g, H, feats, identity_layer(3))
        assert out.tobytes() == expected.tobytes()

    def test_forward_names_first_unfeatured_edge(self):
        feats = EdgeFeatures.zeros(path_graph(4), 1)
        with pytest.raises(ValueError, match=r"missing edge feature for edge \(0, 3\)"):
            gin_layer_forward_edgefeat(cycle_graph(4), np.ones((4, 1)), feats, identity_mlp(1), 0.0)

    def test_missing_edge_feature(self):
        g = complete_graph(2)
        feats = EdgeFeatures.zeros(g, 1)
        with pytest.raises(ValueError, match="missing edge feature"):
            feats.vector(0, 5)

    def test_wrong_row_count(self):
        with pytest.raises(ValueError, match="one feature row per edge"):
            EdgeFeatures(complete_graph(3), np.zeros((2, 4)))


class TestReadout:
    def test_ones(self):
        assert np.array_equal(readout_sum(np.ones((3, 2))), np.array([3.0, 3.0]))

    def test_empty_graph(self):
        assert np.array_equal(readout_sum(np.zeros((0, 4))), np.zeros(4))

    def test_row_order_invariant_bit_exact(self):
        gen = np.random.default_rng(9)
        H = gen.normal(size=(17, 5))
        shuffled = H[gen.permutation(17)]
        assert np.array_equal(readout_sum(H), readout_sum(shuffled))


def fsum_reference(rows: np.ndarray, counts, dim: int) -> np.ndarray:
    """Per-node, per-column math.fsum: the exact group sums the helper must match."""
    out = np.zeros((len(counts), dim))
    start = 0
    for v, c in enumerate(counts):
        if c:
            out[v] = [math.fsum(rows[start : start + c, j]) for j in range(dim)]
            start += c
    return out


def assert_matches_fsum(rows, counts, dim: int, at=None) -> None:
    """Same bytes as fsum_reference, or the same exception type.

    With a gather index ``at`` the sums read ``rows[at]`` through it, and
    must also equal the call on that copy.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, dim)
    counts = np.array(counts, dtype=np.intp)
    calls = [lambda: _grouped_exact_sums(rows, counts, dim)]
    if at is not None:
        at = np.array(at, dtype=np.intp)
        calls = [
            lambda: _grouped_exact_sums(rows, counts, dim, at=at),
            lambda: _grouped_exact_sums(rows[at], counts, dim),
        ]
    try:
        expected = fsum_reference(rows if at is None else rows[at], counts.tolist(), dim)
    except (OverflowError, ValueError) as exc:
        for call in calls:
            with pytest.raises(type(exc)):
                call()
        return
    for call in calls:
        got = call()
        assert got.tobytes() == expected.tobytes(), (got, expected)


def sums_and_fsum_calls(rows, counts, dim: int, at=None) -> tuple[np.ndarray, int]:
    """The helper's sums, and how many ``math.fsum`` calls it made."""
    calls = []
    fsum = math.fsum
    with mock.patch.object(math, "fsum", lambda xs: calls.append(1) or fsum(xs)):
        got = _grouped_exact_sums(np.asarray(rows, dtype=float), np.array(counts), dim, at=at)
    return got, len(calls)


BIG = float(np.finfo(float).max)
TINY = 2.0**-1074
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0**-53, -(2.0**-53), TINY, -TINY, 2.0**-1022, 1e300, -1e300]
SPECIAL += [BIG, -BIG, 2.0**969, math.inf, -math.inf, math.nan]


def row_extremes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the largest magnitude and the smallest non-zero one (inf
    where none), reduced over all rows at once."""
    mag = np.abs(rows)
    top = mag.max(axis=0, initial=0.0)
    mag[mag == 0.0] = np.inf
    return top, mag.min(axis=0, initial=np.inf)


#: Columns of every kind the extremes treat apart, one per column.
EXTREME_COLUMNS = {
    "zeros": [0.0, -0.0],
    "inf": [1.0, -math.inf, 0.0],
    "nan": [math.nan, 1.0, 0.0],
    "nan-and-inf": [math.inf, math.nan, -0.0],
    "subnormal": [TINY, -(2.0**-1030), 0.0, 2.0**-1022],
    "wide": [BIG, -1e-300, 0.0, 1.0],
    "one-value": [-3.0],
}


@pytest.mark.parametrize(
    "n", [0, 1, 2, _SLAB_ROWS - 1, _SLAB_ROWS, _SLAB_ROWS + 1, 3 * _SLAB_ROWS + 7, 200]
)
@pytest.mark.parametrize("spot", ["head", "tail", "spread"])
def test_column_extremes_equal_the_reductions_over_all_rows(n, spot):
    # each column's values sit in the first rows, the last rows (past the
    # whole slabs) or spread over all, the other entries zero
    gen = np.random.default_rng(n)
    rows = np.zeros((n, len(EXTREME_COLUMNS)))
    places = {"head": np.arange(n), "tail": np.arange(n)[::-1], "spread": gen.permutation(n)}
    for j, values in enumerate(EXTREME_COLUMNS.values()):
        for i, value in zip(places[spot], values):
            rows[i, j] = value
    got = _column_extremes(rows)
    for a, b in zip(got, row_extremes(rows)):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes(), (got, row_extremes(rows))
    # and random rows of every magnitude, a third of them zero
    rows = gen.normal(size=(n, 5)) * 10.0 ** gen.integers(-320, 300, size=(n, 5))
    rows[gen.random((n, 5)) < 1 / 3] = 0.0
    for a, b in zip(_column_extremes(rows), row_extremes(rows)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, _SLAB_ROWS - 1, _SLAB_ROWS + 1, 2 * _SLAB_ROWS + 5])
@pytest.mark.parametrize("column", EXTREME_COLUMNS, ids=str)
def test_exact_sums_around_whole_slabs(n, column):
    # one group of every row and groups of one row: the special values in
    # the last rows, past the whole slabs, and then in the first ones
    values = EXTREME_COLUMNS[column]
    base = np.random.default_rng(n).normal(size=n)
    for place in (slice(max(0, n - len(values)), n), slice(0, min(n, len(values)))):
        rows = base.copy()
        rows[place] = values[: place.stop - place.start]
        for counts in ([n], [1] * n, [0, n - 1, 1]):
            assert_matches_fsum(rows[:, None], counts, 1)
            assert_matches_fsum(np.stack([rows, rows[::-1]], axis=1), counts, 2)


class TestGroupedExactSums:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, data):
        dim = data.draw(st.integers(1, 6))
        counts = data.draw(st.lists(st.integers(0, 7), max_size=8))
        values = st.one_of(st.floats(), st.sampled_from(SPECIAL))
        flat = data.draw(st.lists(values, min_size=sum(counts) * dim, max_size=sum(counts) * dim))
        # and the groups of rows[at], read through a gather index with repeats
        stored = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(values, min_size=stored * dim, max_size=stored * dim))
        at = data.draw(st.lists(st.integers(0, stored - 1), min_size=sum(counts), max_size=sum(counts)))
        assert_matches_fsum(flat, counts, dim)
        assert_matches_fsum(rows, counts, dim, at)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_narrow_windows_need_fsum_only_for_zero_sums(self, data):
        # exponents within a window of width w, groups of up to 300 rows
        # (bit length 9): w + 2 * 9 <= 53 fits the split, and the largest
        # exponent keeps k = E + 9 + 1 <= 1020
        dim = data.draw(st.integers(1, 3))
        counts = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
        width = data.draw(st.integers(0, 35))
        low = data.draw(st.integers(-1022, 1010 - width))
        # few mantissa bits make ties and exact cancellations common
        bits = data.draw(st.integers(1, 53))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def window(n: int) -> np.ndarray:
            mantissas = gen.integers(2 ** (bits - 1), 2**bits, size=(n, dim)) / 2.0 ** (bits - 1)
            signs = gen.choice([-1.0, 1.0], size=(n, dim))
            return signs * np.ldexp(mantissas, gen.integers(low, low + width + 1, size=(n, dim)))

        rows = window(sum(counts))
        stored = window(data.draw(st.integers(1, 40)))
        at = gen.integers(0, len(stored), size=sum(counts))
        for got, expected in (
            (sums_and_fsum_calls(rows, counts, dim), fsum_reference(rows, counts, dim)),
            (sums_and_fsum_calls(stored, counts, dim, at), fsum_reference(stored[at], counts, dim)),
        ):
            assert got[0].tobytes() == expected.tobytes()
            # an exact zero sum takes fsum's sign rule; nothing else needs fsum
            zeros = np.count_nonzero((expected == 0.0) & (np.array(counts) > 0)[:, None])
            assert got[1] == zeros

    @pytest.mark.parametrize(
        "groups, fsum_calls",
        [
            # exponents 0 and -49: 49 + 2 * 2 <= 53 fits the pair, 49 + 2 * 9 not the 300 rows
            ([[1.5, 1.25 * 2.0**-49], [1.0 + i / 300 for i in range(300)]], 1),
            # the same for a hub and its leaves, each leaf by its own row count
            ([[1.5 + 2.0**-40] * 500] + [[1.0 + i / 64] for i in range(50)] + [[2.0**-40]], 1),
            # (E - e) + 2b = 48 + 6 = 54: the r's of the six large rows sum to
            # 21 * 2**-51, where the last r, 2**-100, is half an ulp and would
            # be lost, and the sum is one ulp-half from 6 + 2**-46
            ([[1.0 + 2.0**-49] * 5 + [1.0 + 2.0**-51, 2.0**-48 + 2.0**-100]], 1),
            # (E - e) + 2b = 47 + 6 = 53 for 7 such rows: the split, no fsum
            ([[1.0 + 2.0**-49] * 5 + [1.0 + 2.0**-51, 2.0**-47 + 2.0**-99]], 0),
            # seven rows with E = 0 need sigma = 2**4: at 2**3 the q's pass
            # 8 and the q of the last row loses its 2**-50
            ([[1.75] * 4 + [1.0 - 2.0**-53, 0.75, -(2.0**-47 + 2.0**-50)]], 0),
            # k = E + b + 1 for E = 1016: 1018, 1019, 1020 and 1021, which fsum takes
            ([[1.5 * 2.0**1016] * c for c in (1, 3, 7, 8)], 1),
            # ties to even after a carry, and exact zero sums, which fsum takes
            ([[1.5, 1.5, 1.0 + 2.0**-51], [1.5, 1.5, 1.0 + 3 * 2.0**-51], [-1.5, -1.5, -1.0 - 2.0**-51]], 0),
            ([[-0.0, -0.0], [1.0, -1.0], [-1.0, 0.0, 1.0, -0.0], [1.5, 1.5, 1.0 + 2.0**-51]], 3),
            # a subnormal, an inf or a nan anywhere sends its whole column to fsum
            ([[1.0, 2.0], [3.0, TINY], [5.0]], 3),
            ([[1.0, 2.0], [math.inf, 4.0], [5.0]], 3),
            ([[math.nan], [1.0, 2.0]], 2),
        ],
        ids=[
            "bound-2-rows-not-300",
            "hub-plus-leaves",
            "past-the-r-bound",
            "at-the-r-bound",
            "q-sums-need-sigma",
            "k-limit",
            "exact-ties",
            "signed-and-exact-zeros",
            "subnormal",
            "inf",
            "nan",
        ],
    )
    def test_split_boundaries(self, groups, fsum_calls):
        counts = [len(group) for group in groups]
        rows = np.concatenate(groups)[:, None]
        expected = fsum_reference(rows, counts, 1)
        got, calls = sums_and_fsum_calls(rows, counts, 1)
        assert got.tobytes() == expected.tobytes(), (got, expected)
        assert calls == fsum_calls

    @pytest.mark.parametrize(
        "groups",
        [
            [[1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-106]],
            [[-1.0, -(2.0**-53)], [3.0, 2.0**-52, -(2.0**-105)], [2.0**-53, 1.0, 2.0**-53]],
            [[-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-1.0, 1.0, -0.0]],
            [[TINY, TINY], [TINY, -TINY], [2.0**-1022, -TINY, TINY], [-(2.0**-1023)] * 2],
            [[1e300, 1.0, -1e300], [1e300, TINY, -1e300], [-1e300, 1e-300, 1e300]],
            [[1e300, -1e300, -0.0], [1e300, 1e300, -1e300, -1e300, 2.0**-1022]],
            [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 2.0], [math.inf, math.nan]],
            [[BIG, BIG, -BIG]],
            [[BIG, 2.0**969, 2.0**969, -BIG]],
            [[math.inf, 1.0, -math.inf]],
        ],
        ids=[
            "ties-2^-53",
            "ties-negative",
            "signed-zeros",
            "subnormals",
            "near-cancelling-1e300",
            "cancelling-1e300",
            "nan-and-inf",
            "overflow",
            "overflow-with-finite-sum",
            "inf-minus-inf",
        ],
    )
    def test_hand_picked_groups(self, groups):
        # column j holds each group rotated by j, so every order is summed
        dim = 64
        counts = [len(group) for group in groups]
        rows = np.concatenate([np.array([np.roll(g, j) for j in range(dim)]).T for g in groups])
        assert_matches_fsum(rows, counts, dim)

    @pytest.mark.parametrize("counts, dim", [([], 2), ([0, 0, 0], 3), ([0, 2, 0], 1)])
    def test_empty_groups(self, counts, dim):
        assert_matches_fsum(np.arange(sum(counts) * dim), counts, dim)

    def test_hub_plus_short_groups(self):
        gen = np.random.default_rng(3)
        dim = 4
        counts = np.concatenate(([500, 2, 2], gen.integers(0, 5, size=200)))
        rows = gen.normal(size=(int(counts.sum()), dim))
        expected = fsum_reference(rows, counts.tolist(), dim)
        got, calls = sums_and_fsum_calls(rows, counts, dim)
        assert got.tobytes() == expected.tobytes()
        # the hub's 500 rows fit the split as the short groups do
        assert calls == 0

    @pytest.mark.parametrize("n", [0, 3, 40])
    def test_readout_matches_fsum(self, n):
        H = np.random.default_rng(n).normal(size=(n, 64)) * 10.0 ** np.linspace(-8, 8, 64)
        expected = np.array([math.fsum(H[:, j]) for j in range(64)])
        assert readout_sum(H).tobytes() == expected.tobytes()


def central_difference_gradients(loss, array, step=1e-5):
    """Finite-difference oracle: perturb each entry of `array` in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss()
        flat[i] = orig - step
        down = loss()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(g: Graph, H: np.ndarray, layer: NcGnnLayer, upstream: np.ndarray) -> float:
    def loss() -> float:
        return float((upstream * nc_gnn_layer_forward(g, H, layer)).sum())

    d_H, grads = nc_gnn_layer_backward(g, H, layer, upstream)
    worst = relative_error(d_H, central_difference_gradients(loss, H))
    for mlp, mg in ((layer.mlp1, grads.mlp1), (layer.mlp2, grads.mlp2)):
        for name in ("w1", "b1", "w2", "b2"):
            numeric = central_difference_gradients(loss, getattr(mlp, name))
            worst = max(worst, relative_error(getattr(mg, name), numeric))
    eps_holder = np.array([layer.epsilon])

    def eps_loss() -> float:
        layer.epsilon = float(eps_holder[0])
        return loss()

    numeric_eps = central_difference_gradients(eps_loss, eps_holder)
    layer.epsilon = float(eps_holder[0])
    worst = max(worst, relative_error(np.array([grads.epsilon]), numeric_eps))
    return worst


class TestBackward:
    def test_k3_matches_finite_differences(self):
        gen = np.random.default_rng(21)
        layer = init_layer(gen, 3, 2)
        H = gen.normal(size=(3, 3))
        upstream = np.ones((3, 2))
        assert check_gradients(complete_graph(3), H, layer, upstream) < 1e-4

    def test_zero_upstream_gives_zero_gradients(self):
        gen = np.random.default_rng(2)
        layer = init_layer(gen, 2, 3)
        g = complete_graph(3)
        H = gen.normal(size=(3, 2))
        d_H, grads = nc_gnn_layer_backward(g, H, layer, np.zeros((3, 3)))
        assert not d_H.any()
        assert grads.epsilon == 0.0
        for mg in (grads.mlp1, grads.mlp2):
            assert not mg.w1.any() and not mg.b1.any() and not mg.w2.any() and not mg.b2.any()

    def test_triangle_free_mlp2_gradients_exactly_zero(self):
        rng = random.Random("tf-grads")
        gen = np.random.default_rng(4)
        g = random_bipartite(rng, 7)
        assert stats(g).triangle_count == 0
        layer = init_layer(gen, 2, 2)
        H = gen.normal(size=(7, 2))
        _, grads = nc_gnn_layer_backward(g, H, layer, gen.normal(size=(7, 2)))
        assert not grads.mlp2.w1.any() and not grads.mlp2.b1.any()
        assert not grads.mlp2.w2.any() and not grads.mlp2.b2.any()

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_permutation_equivariance_bit_exact(self, dim):
        # the neighbor and pair gradients are exactly rounded group sums, so
        # relabeling the graph, H and upstream relabels dH bit for bit
        rng = random.Random(f"backward-equivariance/{dim}")
        gen = np.random.default_rng(dim)
        for t in range(60):
            n = rng.randint(2, 24)
            g = random_gnp(rng, n, rng.uniform(0.2, 0.9)) if t % 2 else random_bipartite(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            layer = init_layer(gen, dim, dim)
            H = gen.normal(size=(n, dim))
            upstream = gen.normal(size=(n, dim))
            Hp, upstream_p = np.empty_like(H), np.empty_like(upstream)
            Hp[perm], upstream_p[perm] = H, upstream
            d_H, _ = nc_gnn_layer_backward(g, H, layer, upstream)
            d_Hp, _ = nc_gnn_layer_backward(permute_graph(g, perm), Hp, layer, upstream_p)
            assert np.array_equal(d_Hp[perm], d_H), (t, n)

    def test_input_gradient_is_the_ordered_sums_up_to_rounding(self):
        rng = random.Random("backward-reference")
        gen = np.random.default_rng(9)
        for t in range(40):
            n = rng.randint(1, 30)
            g = random_gnp(rng, n, rng.uniform(0.1, 0.9))
            dim = rng.choice([1, 3, 8])
            layer = init_layer(gen, dim, dim)
            H = gen.normal(size=(n, dim))
            upstream = gen.normal(size=(n, dim))
            d_H, _ = nc_gnn_layer_backward(g, H, layer, upstream)
            ordered, magnitude = reference.backward_input_gradient(g, H, layer, upstream)
            # a node sums at most `terms` summands; each version rounds each
            # partial sum once, so each is within terms * eps of the exact sum
            s = stats(g)
            terms = 1 + s.max_degree + 2 * s.triangle_count
            bound = 2 * terms * np.finfo(float).eps * magnitude
            assert np.all(np.abs(d_H - ordered) <= bound), t

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 16]))
    @settings(max_examples=60, deadline=None)
    def test_pair_term_matches_a_row_per_neighbor_edge_bit_for_bit(self, seed, dim):
        # MLP2 runs once per edge in a triangle; the earlier layer ran it on
        # a copy of the pair row per neighbor-edge. A pendant path keeps some
        # edges out of every triangle, and relabeling spreads them among the
        # edge ids.
        rng = random.Random(seed)
        gen = seeded_rng(seed, "pair-term")
        g, _ = disjoint_union(
            random_gnp(rng, rng.randint(3, 30), rng.uniform(0.2, 0.9)), path_graph(rng.randint(2, 5))
        )
        perm = list(range(g.node_count))
        rng.shuffle(perm)
        g = permute_graph(g, perm)
        assert len(np.unique(neighbor_edge_arrays(g)[1])) < g.edge_count
        layer = init_layer(gen, dim, dim)
        layer.epsilon = float(gen.uniform(-0.5, 0.5))
        H = gen.normal(size=(g.node_count, dim))
        feats = EdgeFeatures(g, gen.normal(size=(g.edge_count, dim)))
        upstream = gen.normal(size=(g.node_count, dim))

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        assert same(nc_gnn_layer_forward(g, H, layer), reference.pair_term_forward(g, H, layer))
        assert same(
            nc_gnn_layer_forward_edgefeat(g, H, feats, layer),
            reference.pair_term_forward(g, H, layer, feats),
        )
        d_H, grads = nc_gnn_layer_backward(g, H, layer, upstream)
        ref_d_H, ref_grads = reference.pair_term_backward(g, H, layer, upstream)
        assert same(d_H, ref_d_H)
        assert same(grads.epsilon, ref_grads.epsilon)
        for mine, theirs in ((grads.mlp1, ref_grads.mlp1), (grads.mlp2, ref_grads.mlp2)):
            for name in ("w1", "b1", "w2", "b2"):
                assert same(getattr(mine, name), getattr(theirs, name)), name

    def test_upstream_shape_checked(self):
        gen = np.random.default_rng(1)
        layer = init_layer(gen, 2, 3)
        with pytest.raises(ValueError, match="upstream shape"):
            nc_gnn_layer_backward(complete_graph(2), np.ones((2, 2)), layer, np.ones((2, 2)))


class TestEmbed:
    def test_zero_layers_is_label_histogram(self):
        g = path_graph(4, [0, 1, 1, 2])
        vec = embed_graph(g, [], 3)
        assert np.array_equal(vec, np.array([1.0, 2.0, 1.0]))

    def test_isomorphic_inputs_identical_embedding(self):
        rng = random.Random("embed-perm")
        gen = np.random.default_rng(33)
        g = random_gnp(rng, 8, 0.5, num_labels=2)
        perm = list(range(8))
        rng.shuffle(perm)
        layers = stack_layers(gen, 2, 5, 2)
        assert np.array_equal(
            embed_graph(g, layers, 2), embed_graph(permute_graph(g, perm), layers, 2)
        )

    def test_hexagon_vs_triangles_separated_in_every_seed(self):
        c6 = cycle_graph(6)
        t2, _ = disjoint_union(complete_graph(3), complete_graph(3))
        assert separation_count(c6, t2, range(10)) == 10

    def test_gin_blind_to_plain_refinement_ties(self):
        c6 = cycle_graph(6)
        t2, _ = disjoint_union(complete_graph(3), complete_graph(3))
        for seed in range(10):
            assert embedding_gap(c6, t2, seed, variant="gin") == 0.0

    def test_nc_equivalent_pair_embeds_identically(self):
        c8 = cycle_graph(8)
        s2, _ = disjoint_union(cycle_graph(4), cycle_graph(4))
        for seed in range(5):
            assert embedding_gap(c8, s2, seed, variant="nc") == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'mean'"):
            embed_graph(path_graph(2), [], 1, variant="mean")
        with pytest.raises(ValueError, match="unknown variant 'mean'"):
            embedding_gap(path_graph(2), path_graph(2), 0, variant="mean")

    def test_corpus_wide_expressiveness_consistency(self):
        # pairs the neighbor-edge refinement cannot split must embed
        # identically; pairs it splits must separate for >= 9 of 10 seeds
        from ncwl import compare, load_corpus

        for entry in load_corpus():
            g1, g2 = entry.graphs()
            if compare(g1, g2, "nc1wl").distinguished:
                assert separation_count(g1, g2, range(10)) >= 9, entry.name
            else:
                for seed in range(3):
                    assert embedding_gap(g1, g2, seed) == 0.0, entry.name


class TestHarness:
    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: embedding_gap(path_graph(3), path_graph(3), 0, dim=0), "dim must be"),
            (lambda: embedding_gap(path_graph(3), path_graph(3), 0, dim=-2), "dim must be"),
            (lambda: embedding_gap(path_graph(3), path_graph(3), 0, layers=-1), "count must be"),
            (lambda: stack_layers(seeded_rng(0, "sizes"), 0, 4, 1), "num_labels must be"),
            (lambda: init_mlp(seeded_rng(0, "sizes"), 0, 2, 2), "in_dim must be"),
            (lambda: init_mlp(seeded_rng(0, "sizes"), 2, 0, 2), "hidden_dim must be"),
            (lambda: init_mlp(seeded_rng(0, "sizes"), 2, 2, -1), "out_dim must be"),
        ],
        ids=["dim-0", "dim-negative", "layers-negative", "labels-0", "in-0", "hidden-0", "out-neg"],
    )
    def test_bad_sizes_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(("variant", "method"), [("nc", "nc1wl"), ("gin", "1wl")])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_layers_are_constant_on_refinement_classes(self, variant, method, seed):
        # The paper bounds NC-GNN by NC-1-WL (GIN by 1-WL). Every aggregation
        # is exactly rounded, so the bound holds bit for bit: after layer t the
        # nodes of one class at round min(t, last) carry identical rows. The
        # pair is embedded as one union, so each matrix product has as many
        # rows for the one graph's nodes as for the other's.
        rng = random.Random(seed)
        num_labels = rng.randint(1, 3)
        g1 = random_gnp(rng, rng.randint(0, 30), rng.random(), num_labels)
        if rng.random() < 0.5:
            perm = list(range(g1.node_count))
            rng.shuffle(perm)
            g2 = permute_graph(g1, perm)
        else:
            g2 = random_gnp(rng, rng.randint(0, 30), rng.random(), num_labels)
        union, _ = disjoint_union(g1, g2)
        rounds = [np.array(c.colors, dtype=np.intp) for c in refine(union, method)]
        H = one_hot_features(union, num_labels)
        layers = stack_layers(seeded_rng(seed, "per-node"), num_labels, 8, len(rounds) + 3)
        for t, layer in enumerate(layers, start=1):
            if variant == "nc":
                H = nc_gnn_layer_forward(union, H, layer)
            else:
                H = gin_layer_forward(union, H, layer.mlp1, layer.epsilon)
            colors = rounds[min(t, len(rounds) - 1)]
            _, first, inverse = np.unique(colors, return_index=True, return_inverse=True)
            assert np.array_equal(H.view(np.uint64), H[first[inverse]].view(np.uint64)), t

    def test_seeded_rng_streams_differ_and_repeat(self):
        a = seeded_rng(7, "x").normal(size=3)
        b = seeded_rng(7, "x").normal(size=3)
        c = seeded_rng(7, "y").normal(size=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
