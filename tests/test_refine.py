from __future__ import annotations

import random
import sys
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncwl import (
    METHODS,
    Coloring,
    Graph,
    brute_force_isomorphic,
    complete_graph,
    compare,
    cycle_graph,
    disjoint_union,
    load_corpus,
    neighbor_edge_lists,
    path_graph,
    permute_graph,
    random_gnm,
    random_gnp,
    refine,
    refine_1wl,
    refine_kwl,
    refine_nc1wl,
    star_graph,
    wheel_graph,
)
from ncwl.graph import _union, neighbor_edge_arrays
from ncwl.refine import (
    _SORT_MIN_NODES,
    _dense_ids,
    _hash_collides,
    _histogram,
    _histogram_line,
    _intern_round,
    _multipliers,
    _node_round,
    _NodeUniverse,
    _row_ids,
    _rounds,
    _sort_round,
    _universes,
    _width_classes,
)

from conftest import graphs, permutations_of
from reference import TupleUniverse, histogram_line, lexsort_dense_ids
from reference import rounds as reference_rounds


def classes_of(coloring):
    """Partition as a set of frozensets of entity ids."""
    by_color: dict[int, set[int]] = {}
    for v, c in enumerate(coloring.colors):
        by_color.setdefault(c, set()).add(v)
    return {frozenset(s) for s in by_color.values()}


def two_triangles() -> Graph:
    g, _ = disjoint_union(complete_graph(3), complete_graph(3))
    return g


def two_squares() -> Graph:
    g, _ = disjoint_union(cycle_graph(4), cycle_graph(4))
    return g


class TestRefine1wl:
    def test_c6_converges_immediately(self):
        seq = refine_1wl(cycle_graph(6))
        assert [c.num_classes for c in seq] == [1, 1]

    def test_p3_splits_endpoints_from_middle(self):
        seq = refine_1wl(path_graph(3))
        assert [c.num_classes for c in seq] == [1, 2, 2]
        final = seq[-1].colors
        assert final[0] == final[2] != final[1]

    def test_star_splits_hub_from_leaves(self):
        seq = refine_1wl(star_graph(3))
        assert [c.num_classes for c in seq] == [1, 2, 2]
        final = seq[-1].colors
        assert final[1] == final[2] == final[3] != final[0]

    def test_initial_coloring_follows_labels(self):
        g = path_graph(3, [7, 7, 9])
        first = refine_1wl(g)[0]
        assert first.colors[0] == first.colors[1] != first.colors[2]

    def test_empty_graph(self):
        seq = refine_1wl(Graph.build(0, []))
        assert len(seq) == 1
        assert seq[0].num_classes == 0

    @given(graphs(max_nodes=10, max_labels=2))
    @settings(max_examples=80)
    def test_iteration_bound_and_density(self, g):
        seq = refine_1wl(g)
        assert len(seq) - 1 <= max(1, g.node_count)
        for coloring in seq:
            assert sorted(set(coloring.colors)) == list(range(coloring.num_classes))
            assert sum(k for _, k in coloring.histogram) == g.node_count


class TestRefineNc1wl:
    @given(graphs(max_nodes=10))
    @settings(max_examples=60)
    def test_triangle_free_degenerates_to_plain(self, g):
        # strip one edge from every triangle to make the graph triangle-free
        edges = set(g.edge_set)
        for a, b in sorted(edges):
            for w in range(g.node_count):
                if w != a and w != b and g.has_edge(a, w) and g.has_edge(b, w):
                    edges.discard((a, b))
        tf = Graph.build(g.node_count, sorted(edges), g.labels)
        plain = refine_1wl(tf)
        nc = refine_nc1wl(tf)
        assert [c.colors for c in plain] == [c.colors for c in nc]

    def test_triangle_plus_cycle_splits_in_one_round(self):
        g, _ = disjoint_union(complete_graph(3), cycle_graph(6))
        seq = refine_nc1wl(g)
        assert seq[1].num_classes == 2
        final = seq[-1].colors
        assert len({final[v] for v in range(3)}) == 1
        assert len({final[v] for v in range(3, 9)}) == 1
        assert final[0] != final[3]

    def test_execution_pair_snapshots(self):
        # hexagon vs two triangles: plain refinement never splits the joint
        # run, the neighbor-edge variant separates the graphs in round one
        union, _ = disjoint_union(cycle_graph(6), two_triangles())
        plain = refine_1wl(union)
        assert [c.num_classes for c in plain] == [1, 1]
        nc = refine_nc1wl(union)
        assert [c.num_classes for c in nc] == [1, 2, 2]
        final = nc[-1].colors
        assert len(set(final[:6])) == 1
        assert len(set(final[6:])) == 1
        assert final[0] != final[6]


class TestRefineKwl:
    def test_k2_pairs_atomic_types(self):
        seq = refine_kwl(complete_graph(2), 2)
        first = seq[0]
        assert first.num_classes == 2
        colors = first.colors  # row-major: (0,0), (0,1), (1,0), (1,1)
        assert colors[0] == colors[3]
        assert colors[1] == colors[2]
        assert colors[0] != colors[1]
        assert seq[-1].num_classes == 2

    def test_row_major_size(self):
        seq = refine_kwl(path_graph(3), 3)
        assert len(seq[0].colors) == 27

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be 2 or 3"):
            refine_kwl(path_graph(2), 4)

    def test_cap_enforced(self):
        g = Graph.build(33, [])
        with pytest.raises(ValueError, match="cap"):
            refine_kwl(g, 3)
        refine_kwl(g, 3, node_cap=33)  # explicit override

    @pytest.mark.parametrize("k", [2, 3])
    def test_monotone_refinement(self, k):
        rng = random.Random(f"kwl-monotone-{k}")
        for _ in range(10):
            g = random_gnp(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            seq = refine_kwl(g, k)
            for earlier, later in zip(seq, seq[1:]):
                assert later.num_classes >= earlier.num_classes
                for cls in classes_of(later):
                    assert len({earlier.colors[v] for v in cls}) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_soundness_on_permuted_copies(self, k):
        rng = random.Random(f"kwl-sound-{k}")
        for _ in range(20):
            n = rng.randint(1, 6)
            g = random_gnp(rng, n, rng.uniform(0.2, 0.8))
            perm = list(range(n))
            rng.shuffle(perm)
            report = compare(g, permute_graph(g, perm), f"{k}wl")
            assert not report.distinguished


class TestCompare:
    def test_c6_vs_two_triangles(self):
        c6, t2 = cycle_graph(6), two_triangles()
        assert compare(c6, t2, "1wl").verdict == "not-distinguished"
        nc = compare(c6, t2, "nc1wl")
        assert nc.verdict == "distinguished"
        assert nc.distinguishing_iteration == 1
        assert not brute_force_isomorphic(c6, t2)

    def test_c8_vs_two_squares(self):
        c8, s2 = cycle_graph(8), two_squares()
        assert compare(c8, s2, "nc1wl").verdict == "not-distinguished"
        assert compare(c8, s2, "3wl").verdict == "distinguished"
        assert not brute_force_isomorphic(c8, s2)

    def test_isomorphic_pair_3wl(self):
        k3 = complete_graph(3, [0, 1, 2])
        k3p = permute_graph(k3, [1, 2, 0])
        assert compare(k3, k3p, "3wl").verdict == "not-distinguished"

    def test_different_node_counts_distinguished_immediately(self):
        for method in METHODS:
            report = compare(path_graph(2), path_graph(3), method)
            assert report.distinguished
            assert report.distinguishing_iteration == 0

    def test_histograms_in_argument_order(self):
        for method in METHODS:
            (first, second), = compare(path_graph(2), path_graph(3), method).histograms
            k = 1 if method in ("1wl", "nc1wl") else int(method[0])
            assert [sum(count for _, count in h) for h in (first, second)] == [2**k, 3**k]

    def test_label_multiset_gap_distinguished_at_zero(self):
        report = compare(path_graph(2, [0, 0]), path_graph(2, [0, 1]), "1wl")
        assert report.distinguishing_iteration == 0

    def test_empty_graphs(self):
        g = Graph.build(0, [])
        report = compare(g, g, "1wl")
        assert report.verdict == "not-distinguished"
        assert report.iterations_run == 0

    def test_empty_vs_nonempty(self):
        for method in METHODS:
            report = compare(Graph.build(0, []), path_graph(2), method)
            assert report.distinguished
            assert report.distinguishing_iteration == 0

    def test_histogram_trace_invariant(self):
        report = compare(cycle_graph(6), two_triangles(), "nc1wl")
        k = report.distinguishing_iteration
        assert report.histograms[k][0] != report.histograms[k][1]
        for i in range(k):
            assert report.histograms[i][0] == report.histograms[i][1]

    def test_report_fields(self):
        report = compare(cycle_graph(6), two_triangles(), "1wl")
        assert report.method == "1wl"
        assert report.distinguishing_iteration is None
        assert report.iterations_run == len(report.histograms) - 1

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            compare(path_graph(2), path_graph(2), "4wl")

    def test_self_compare_observes_exactly_the_refine_rounds(self):
        """compare is the refinement loop plus a histogram observer."""
        rng = random.Random("compare-observer")
        corpus = [g for entry in load_corpus() for g in entry.graphs()]
        randoms = [
            random_gnp(rng, rng.randint(0, 12), rng.choice([0.2, 0.5]), rng.choice([1, 2]))
            for _ in range(30)
        ]
        for g in corpus + randoms:
            for method in METHODS:
                if method == "3wl" and g.node_count > 32:
                    continue
                seq = refine(g, method)
                report = compare(g, g, method)
                assert report.histograms == tuple((c.histogram, c.histogram) for c in seq)
                assert report.iterations_run == len(seq) - 1

    def test_colorings_and_histograms_hold_python_ints(self):
        """The rounds pass int64 arrays; what refine and compare return holds Python ints."""
        for entry in load_corpus():
            pair = list(entry.graphs())
            # eight copies lift every union past _SORT_MIN_NODES, into the node sort engine
            wide = pair
            for _ in range(3):
                wide = [disjoint_union(g, g)[0] for g in wide]
            assert wide[0].node_count + wide[1].node_count >= _SORT_MIN_NODES
            runs = [(pair, method) for method in METHODS]
            runs += [(wide, method) for method in ("1wl", "nc1wl")]
            for (g1, g2), method in runs:
                colorings = refine(g1, method)
                hists = [c.histogram for c in colorings]
                hists += [h for both in compare(g1, g2, method).histograms for h in both]
                values = [x for c in colorings for x in (c.num_classes, *c.colors)]
                values += [x for h in hists for color_count in h for x in color_count]
                assert all(type(x) is int for x in values)


def assert_rounds_equal(step, reference):
    """Both steps give the same int64 color arrays, round by round; returns them."""
    rounds = list(_rounds(step))
    expected = list(_rounds(reference))
    assert len(rounds) == len(expected)
    for got, want in zip(rounds, expected):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    return rounds


def assert_sorting_matches_interning(graph_list, k):
    """The dispatched k-tuple engine equals the interning reference: in every
    round over graphs of one node count, and at round 0 over mixed node counts,
    the only round the engine runs for them."""
    step, _ = _universes(f"{k}wl", graph_list, None)
    assert step.func is _sort_round
    reference = partial(_intern_round, [TupleUniverse(g, k) for g in graph_list])
    if len({g.node_count for g in graph_list}) == 1:
        assert_rounds_equal(step, reference)
    else:
        got, want = step(None), reference(None)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


class TestSortedTupleEngine:
    """The sorting k-tuple engine against the interning reference, round by round."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_corpus(self, k):
        for entry in load_corpus():
            pair = list(entry.graphs())
            for g in pair:
                assert_sorting_matches_interning([g], k)
            assert_sorting_matches_interning(pair, k)

    @given(
        graphs(max_nodes=8, max_labels=3),
        graphs(max_nodes=8, max_labels=3),
        st.sampled_from([2, 3]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_graphs_with_permuted_and_random_partners(self, g, other, k, data):
        n = g.node_count
        h = permute_graph(g, data.draw(permutations_of(n)))
        partner = data.draw(graphs(max_nodes=n, max_labels=3, min_nodes=n))
        assert_sorting_matches_interning([g], k)
        assert_sorting_matches_interning([g, h], k)
        assert_sorting_matches_interning([g, partner], k)
        # one stack of several equal-size graphs, copies among them
        assert_sorting_matches_interning([g, h, g, partner, partner, h], k)
        # other's node count may differ, which is compared at round 0 only
        assert_sorting_matches_interning([g, other], k)
        assert_sorting_matches_interning([g, h, other, other, g], k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_and_one_nodes(self, k):
        empty, single = Graph.build(0, []), Graph.build(1, [], [5])
        for graph_list in (
            [empty],
            [single],
            [empty, empty],
            [single, single],
            [empty, single],
            [single, empty],
        ):
            assert_sorting_matches_interning(graph_list, k)
        no_colors = np.zeros(0, dtype=np.int64)
        assert _sort_round([empty, empty], k, no_colors) is no_colors
        assert refine(empty, f"{k}wl")[0].colors == ()
        assert compare(single, single, f"{k}wl").iterations_run == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_labels_beyond_int64(self, k):
        huge = path_graph(4, [2**63, 10**30, 2**63, 2**64 + 1])
        small = path_graph(4, [1, 2, 1, 3])
        assert_sorting_matches_interning([huge], k)
        assert_sorting_matches_interning([huge, small], k)
        assert [c.colors for c in refine(huge, f"{k}wl")] == [
            c.colors for c in refine(small, f"{k}wl")
        ]

    @pytest.mark.parametrize("k", [2, 3])
    def test_joint_run_of_different_sizes_past_round_zero(self, k):
        # compare stops at round 0 for such pairs; a later round refuses
        # them, also when the first graph has no tuples to refine
        empty = Graph.build(0, [])
        for pair in (
            [complete_graph(3), complete_graph(4)],
            [path_graph(3), star_graph(3)],
            [empty, path_graph(3)],
        ):
            assert compare(*pair, f"{k}wl").distinguishing_iteration == 0
            step, _ = _universes(f"{k}wl", pair, None)
            with pytest.raises(ValueError, match="one node count"):
                list(_rounds(step))

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_discrete_joint_run_of_different_sizes_stops_without_a_step(self, k):
        # one tuple over both graphs is a discrete partition at round 0, so
        # the round that would refuse the mixed node counts is never run
        single, empty = path_graph(1), Graph.build(0, [])
        for pair in ([single, empty], [empty, single]):
            step, _ = _universes(f"{k}wl", pair, None)
            assert [c.tolist() for c in _rounds(step)] == [[0], [0]]
            with pytest.raises(ValueError, match="one node count"):
                reference_rounds(step)


INT64 = np.iinfo(np.int64)


def is_discrete(colors: np.ndarray) -> bool:
    return len(np.unique(colors)) == len(colors)


def discrete_and_not_runs():
    """(method, graphs) runs that end at a discrete partition, in every
    engine, and runs that end at a coarser one."""
    rng = random.Random("discrete exit")
    asym = random_gnp(rng, 26, 0.3)
    sorted_asym = random_gnp(rng, 40, 0.15, num_labels=3)
    runs = [(m, [asym]) for m in METHODS]
    runs += [(m, [asym, permute_graph(asym, list(range(26))[::-1])]) for m in METHODS[:3]]
    runs += [(m, [sorted_asym]) for m in ("1wl", "nc1wl", "2wl")]
    coarse = (complete_graph(4), path_graph(5), Graph.build(0, []))
    runs += [(m, [g]) for m in METHODS for g in coarse]
    runs += [(m, [path_graph(1)]) for m in METHODS]
    runs += [(m, [wheel_graph(40)]) for m in ("1wl", "nc1wl")]
    return runs


@pytest.mark.parametrize("method, graph_list", discrete_and_not_runs())
def test_rounds_never_step_a_discrete_partition(method, graph_list):
    step, _ = _universes(method, graph_list, None)
    stepped = []

    def recording(colors):
        stepped.append(colors is not None and is_discrete(colors))
        return step(colors)

    got = list(_rounds(recording))
    want = reference_rounds(step)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    assert not any(stepped)
    # one step fewer than the earlier loop exactly when the run ends discrete
    ends_discrete = len(got[-1]) > 0 and is_discrete(got[-1])
    assert len(stepped) == len(want) - ends_discrete


#: The digit boundaries of the renderer's 4-digit chunks and int64 extremes.
DIGIT_BOUNDARIES = [
    0, 1, 9, 10, 11, 99, 100, 999, 1000, 9999, 10000, 10001, 99999999, 10**8, 10**8 + 1,
    10**12, 10**16 - 1, 10**16, 10**18, INT64.max - 1, INT64.max,
]


@st.composite
def count_arrays(draw):
    """Non-negative int64 counts: a few drawn values, then up to a few
    thousand seeded ones below a drawn power of ten or int64 max."""
    value = st.one_of(st.sampled_from(DIGIT_BOUNDARIES), st.integers(0, INT64.max))
    values = draw(st.lists(value, max_size=30))
    if draw(st.booleans()):
        n, seed = draw(st.integers(0, 3000)), draw(st.integers(0, 2**32 - 1))
        top = draw(st.sampled_from([0, 9, 10**4, 10**8, INT64.max]))
        values += np.random.default_rng(seed).integers(0, top, n, endpoint=True).tolist()
    return np.array(values, dtype=np.int64)


@given(count_arrays())
@settings(max_examples=200, deadline=None)
@example(np.zeros(0, dtype=np.int64))
@example(np.zeros(10001, dtype=np.int64))
@example(np.array(DIGIT_BOUNDARIES, dtype=np.int64))
@example(np.full(3, INT64.max, dtype=np.int64))
def test_histogram_line_equals_the_f_string_join(counts):
    before = counts.copy()
    assert _histogram_line(counts) == histogram_line(counts.tolist())
    assert np.array_equal(counts, before)


@st.composite
def key_matrices(draw):
    """int64 keys of 1-6 rows and 0-24 columns, each row drawn from one pool."""
    m = draw(st.integers(0, 24))
    pools = [
        st.just(5),  # an all-equal row
        st.sampled_from([-1, 0, 1, 2]),  # the padding sentinel of fibers and rows
        st.sampled_from([-m - 1, -1, 0, m * m]),  # and the pair-code sentinel -n - 1
        st.sampled_from([INT64.min, INT64.min + 1, -1, 0, INT64.max]),  # spans past int64
        st.sampled_from([0, 1, 2**31, 2**40, 2**62]),  # spans whose product forces rank steps
        st.integers(INT64.min, INT64.max),
    ]
    rows = [
        draw(st.lists(draw(st.sampled_from(pools)), min_size=m, max_size=m))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), m)


@given(key_matrices())
@example(np.zeros((1, 0), dtype=np.int64))
@example(np.array([[INT64.min, INT64.max, INT64.min], [INT64.max, INT64.min, INT64.max]]))
@example(np.array([[0, 2**40, 0, 2**40], [2**40, 0, 2**40, 0], [0, 0, 2**40, 2**40]] * 3))
# constant rows between varying ones, some of whose spans force rank steps
@example(
    np.array(
        [[7] * 4, [0, 2**40, 0, 2**40], [INT64.min] * 4, [2**40, 0, 2**40, 0]]
        + [[INT64.max] * 4, [0, 0, 2**40, 2**40], [-1] * 4, [1, 2, 1, 3], [5] * 4]
    )
)
# a hub's width class: one column over many key rows
@example(np.arange(200_000, dtype=np.int64).reshape(-1, 1))
@settings(max_examples=300, deadline=None)
def test_packed_dense_ids_equal_the_lexsort_ids(keys):
    before = keys.copy()
    ids, first = _dense_ids(keys)
    want_ids, want_first = lexsort_dense_ids(keys)
    assert ids.dtype == np.int64 and first.dtype == want_first.dtype
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(first, want_first)
    assert np.array_equal(keys, before)


#: Hash tables :func:`_row_ids` may be given in place of its own: its first
#: entries, which wider rows outrun, and tables whose codes collide.
TABLES = {
    "own": None,
    "one-entry": lambda table: table[:1],
    "two-entries": lambda table: table[:2],
    "ones": lambda table: np.ones(2, dtype=np.uint64),
    "zeros": lambda table: np.zeros(3, dtype=np.uint64),
}


@st.composite
def row_matrices(draw):
    """0-40 int64 rows of 1-12 columns, drawn from a pool of 1-6 distinct
    rows, whose entries are often the int64 extremes or near 0 and the
    padding sentinel -1."""
    width = draw(st.integers(1, 12))
    extremes = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1, INT64.max])
    row = st.lists(extremes | st.integers(INT64.min, INT64.max), min_size=width, max_size=width)
    pool = [draw(row) for _ in range(draw(st.integers(1, 6)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), width)


@given(row_matrices(), st.sampled_from(sorted(TABLES)), st.sampled_from((None, 1, 8, 24)))
@example(np.zeros((3, 0), dtype=np.int64), "own", None)
# the duplicates of a row straddle blocks of one to three rows
@example(np.array([[5, -1]] * 7 + [[4, 9]] * 2 + [[5, -1]], dtype=np.int64), "own", 8)
@example(np.array([[0, 1], [1, 0], [0, 1]] * 3, dtype=np.int64), "ones", 24)
# widths past the table: three rows of 1100 columns, two of them equal
@example(np.array([[0] * 1100, [1] + [0] * 1099, [0] * 1100], dtype=np.int64), "own", None)
@settings(max_examples=300, deadline=None)
def test_row_ids_equal_the_lexsort_ids(rows, table, check_bytes):
    before = rows.copy()
    refine_module = sys.modules["ncwl.refine"]
    with pytest.MonkeyPatch.context() as mp:
        if TABLES[table]:
            mp.setattr(refine_module, "_HASH_TABLE", TABLES[table](refine_module._HASH_TABLE))
        if check_bytes:
            mp.setattr(refine_module, "_CHECK_BYTES", check_bytes)
        ids, first = _row_ids(rows)
    if rows.shape[1]:
        want_ids, want_first = lexsort_dense_ids(rows.T)
    else:
        # rows of no columns are all equal
        want_ids, want_first = np.zeros(len(rows), dtype=np.int64), np.arange(min(1, len(rows)))
    assert ids.dtype == np.int64 and first.dtype == want_first.dtype
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(first, want_first)
    assert np.array_equal(rows, before)


def test_row_ids_fall_back_on_a_collision_only(monkeypatch):
    refine_module = sys.modules["ncwl.refine"]
    calls = []
    monkeypatch.setattr(refine_module, "_dense_ids", lambda keys: calls.append(keys) or _dense_ids(keys))
    rows = np.array([[1, 2], [3, 4], [1, 2]], dtype=np.int64)
    same = np.array([[1, 2]] * 3, dtype=np.int64)
    for table, fallbacks in (("own", 0), ("zeros", 1)):
        if TABLES[table]:
            monkeypatch.setattr(refine_module, "_HASH_TABLE", TABLES[table](refine_module._HASH_TABLE))
        calls.clear()
        assert _row_ids(rows)[0].tolist() == [0, 1, 0]
        assert len(calls) == fallbacks
        # equal rows with equal codes are no collision
        assert _row_ids(same)[0].tolist() == [0, 0, 0]
        assert len(calls) == fallbacks


def test_hash_check_finds_a_mismatch_in_every_window(monkeypatch):
    # windows of 8 positions and blocks of 4 two-column rows: groups of
    # positions 0-12 and 13-29 span four windows, and 29 is in the last one
    monkeypatch.setattr(sys.modules["ncwl.refine"], "_CHECK_BYTES", 64)
    order = np.arange(30)[::-1].copy()
    starts = np.zeros(30, dtype=bool)
    starts[[0, 13]] = True
    rows = np.zeros((30, 2), dtype=np.int64)
    rows[order[13:]] = 5
    assert not _hash_collides(rows, order, starts)
    for position in range(1, 30):
        changed = rows.copy()
        changed[order[position], 1] += 1
        # a row that starts a group has no predecessor to match, but the
        # one after it then differs from it
        assert _hash_collides(changed, order, starts), position


def test_row_ids_take_a_collision_of_the_shipped_table():
    # m1 * m0 + (-m0) * m1 is 0 modulo 2**64: the middle row codes as the zero rows do
    m0, m1 = (int(m) for m in _multipliers(2))
    rows = np.array([[0, 0], [m1, -m0 % 2**64], [0, 0]], dtype=np.uint64).view(np.int64)
    assert (rows.view(np.uint64) @ _multipliers(2)).tolist() == [0, 0, 0]
    ids, first = _row_ids(rows)
    assert ids.tolist() == [0, 1, 0] and first.tolist() == [0, 1]


@pytest.fixture
def colliding_row_codes(monkeypatch):
    """Every :func:`_row_ids` call of a round codes its rows all to 0, so
    each call with two different rows takes the fallback; yields the list
    of the calls' fallback flags."""
    refine_module = sys.modules["ncwl.refine"]
    real, fallbacks = refine_module._row_ids, []

    def recorded(rows):
        fallbacks.append(bool((rows != rows[:1]).any()))
        return real(rows)

    monkeypatch.setattr(refine_module, "_row_ids", recorded)
    monkeypatch.setattr(refine_module, "_HASH_TABLE", np.zeros(3, dtype=np.uint64))
    yield fallbacks


class TestRoundsWithCollidingRowCodes:
    """Both sort engines equal the interning reference when every row code collides."""

    def test_node_rounds(self, colliding_row_codes):
        rng = random.Random("colliding node rounds")
        for method in NODE_METHODS:
            for entry in load_corpus():
                pair = list(entry.graphs())
                assert_node_sorting_matches_interning(pair, method)
            for n in (6, 12, 40):
                g = random_gnp(rng, n, 0.4, num_labels=2)
                assert_node_sorting_matches_interning([g, permute_graph(g, list(range(n))[::-1])], method)
            assert_node_sorting_matches_interning([star_graph(30), wheel_graph(30)], method)
        assert sum(colliding_row_codes) > 20

    @pytest.mark.parametrize("k", [2, 3])
    def test_tuple_rounds(self, colliding_row_codes, k):
        rng = random.Random(f"colliding {k}-tuple rounds")
        for entry in load_corpus():
            assert_sorting_matches_interning(list(entry.graphs()), k)
        for n in (5, 8):
            g = random_gnp(rng, n, 0.5, num_labels=2)
            h = permute_graph(g, list(range(n))[::-1])
            assert_sorting_matches_interning([g, h, random_gnp(rng, n, 0.5)], k)
        assert sum(colliding_row_codes) > 10


def test_row_ids_never_copy_the_rows():
    # the nc1wl rows of a G(700, 19600) and a permuted twin past round 1:
    # 1400 rows of a few hundred columns that hash, half of them repeated
    g = random_gnm(random.Random("row memory"), 700, 19600)
    union = disjoint_union(g, permute_graph(g, list(range(700))[::-1]))[0]
    (cls,), ends = _width_classes(union, True)
    step = partial(_node_round, [cls], ends, union.labels)
    colors = step(step(None))
    k = int(colors.max()) + 1
    a, b = colors[ends[0]], colors[ends[1]]
    source = np.concatenate((colors, [-1], np.minimum(a, b) * k + np.maximum(a, b), [-1]))
    rows = source[cls.index]
    rows[:, : cls.pairs].sort(axis=1)
    rows[:, cls.pairs : -1].sort(axis=1)
    assert rows.shape[0] == 1400 and rows.shape[1] > 300
    tracemalloc.start()
    try:
        ids, _ = _row_ids(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the twin lists the nodes in reverse
    assert np.array_equal(ids[700:], ids[699::-1]) and int(ids.max()) + 1 == 700
    # a dozen arrays of one entry per row, and a quarter of the rows beyond them
    assert peak < 12 * 8 * len(rows) + rows.nbytes // 4


def assert_node_sorting_matches_interning(graph_list, method):
    """Every round of the sorting node engine equals the interning reference."""
    g = graph_list[0] if len(graph_list) == 1 else disjoint_union(*graph_list)[0]
    with_neighbor_edges = method == "nc1wl"
    step = partial(_node_round, *_width_classes(g, with_neighbor_edges), g.labels)
    reference = partial(_intern_round, [_NodeUniverse(g, with_neighbor_edges)])
    return assert_rounds_equal(step, reference)


NODE_METHODS = ("1wl", "nc1wl")


class TestSortedNodeEngine:
    """The sorting 1wl/nc1wl engine against the interning reference, round by round."""

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_dispatch_sorts_from_the_size_threshold_on(self, method):
        below, at = path_graph(_SORT_MIN_NODES - 1), path_graph(_SORT_MIN_NODES)
        assert _universes(method, [below], None)[0].func is _intern_round
        assert _universes(method, [at], None)[0].func is _node_round
        # a joint run is judged by its union
        half = path_graph(_SORT_MIN_NODES // 2)
        assert _universes(method, [half, half], None)[0].func is _node_round
        assert _universes(method, [half, path_graph(1)], None)[0].func is _intern_round

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_corpus(self, method):
        for entry in load_corpus():
            pair = list(entry.graphs())
            for g in pair:
                assert_node_sorting_matches_interning([g], method)
            assert_node_sorting_matches_interning(pair, method)

    @given(
        graphs(max_nodes=12, max_labels=3),
        graphs(max_nodes=12, max_labels=3),
        st.sampled_from(NODE_METHODS),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_graphs_with_permuted_and_random_partners(self, g, other, method, data):
        h = permute_graph(g, data.draw(permutations_of(g.node_count)))
        assert_node_sorting_matches_interning([g], method)
        assert_node_sorting_matches_interning([g, h], method)
        assert_node_sorting_matches_interning([g, other], method)

    def test_every_color_pair_has_its_own_code(self):
        # one center per pair (a, b) of k colors, each with private neighbors
        # colored 0, 0, 1, 1, ..., k-1, k-1 and one edge among them joining
        # colors a and b: the centers differ in that pair alone
        k = 4
        pairs = [(a, b) for a in range(k) for b in range(a, k)]
        centers, colors, edges = [], [], []
        for a, b in pairs:
            centers.append(len(colors))
            colors.append(0)
            first = len(colors)
            colors.extend(c for c in range(k) for _ in range(2))
            edges += [(centers[-1], first + i) for i in range(2 * k)]
            edges.append((first + 2 * a, first + 2 * b + 1))
        g = Graph.build(len(colors), edges)
        colors = np.array(colors, dtype=np.int64)
        new = _node_round(*_width_classes(g, True), g.labels, colors)
        assert len(set(new[centers].tolist())) == len(pairs)
        assert np.array_equal(new, _intern_round([_NodeUniverse(g, True)], colors))

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_zero_one_and_isolated_nodes(self, method):
        empty, single = Graph.build(0, []), Graph.build(1, [], [5])
        isolated = Graph.build(7, [(1, 2), (2, 3), (1, 3)], [0, 1, 0, 0, 1, 1, 0])
        for graph_list in (
            [empty],
            [single],
            [isolated],
            [empty, empty],
            [empty, single],
            [single, isolated],
            [isolated, empty],
        ):
            assert_node_sorting_matches_interning(graph_list, method)
        assert refine(empty, method)[0].colors == ()
        assert compare(single, single, method).iterations_run == 1

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_labels_beyond_int64(self, method):
        huge = complete_graph(4, [2**63, 10**30, 2**63, 2**64 + 1])
        small = complete_graph(4, [1, 2, 1, 3])
        assert_node_sorting_matches_interning([huge], method)
        assert_node_sorting_matches_interning([huge, small], method)
        assert [c.colors for c in refine(huge, method)] == [
            c.colors for c in refine(small, method)
        ]

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_joint_run_of_different_sizes_past_round_zero(self, method):
        # compare stops at round 0 for such pairs, so the generator is driven directly
        for pair in ([complete_graph(3), complete_graph(4)], [path_graph(3), star_graph(5)]):
            rounds = assert_node_sorting_matches_interning(pair, method)
            assert len(rounds) > 2

    @pytest.mark.parametrize("method", NODE_METHODS)
    def test_stars_and_wheels_need_more_than_one_width_class(self, method):
        star, wheel = star_graph(300), wheel_graph(300)
        labeled = star_graph(200, [v % 3 for v in range(201)])
        path = path_graph(5, [0, 1, 2, 1, 0])
        for g in (star, wheel, labeled, disjoint_union(path, wheel)[0]):
            assert len(_width_classes(g, method == "nc1wl")[0]) > 1
        for graph_list in (
            [star],
            [wheel],
            [labeled],
            [star, wheel],
            [labeled, star],
            [path, wheel],
            [wheel, path],
        ):
            assert_node_sorting_matches_interning(graph_list, method)

    def test_padding_stays_within_a_constant_factor_of_the_entries(self):
        for g in (star_graph(300), wheel_graph(300), complete_graph(9), path_graph(40)):
            counts = neighbor_edge_arrays(g)[0]
            entries = 2 * g.edge_count + int(counts.sum()) + g.node_count
            classes, _ = _width_classes(g, with_neighbor_edges=True)
            # an index row has one slot per neighbor and per neighbor-edge,
            # padded to under four times their number, plus the node's own
            padded = sum(cls.index.size for cls in classes)
            assert padded <= 4 * entries + 128 * len(classes) + g.node_count

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 300).map(star_graph),
                st.integers(3, 300).map(wheel_graph),
                st.integers(0, 12).map(complete_graph),
                graphs(max_nodes=12, max_labels=2),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(NODE_METHODS),
    )
    # rows that bucketing by degree, or by degree + count, would pad to four times their slots
    @example(
        [star_graph(300), complete_graph(4), path_graph(5), star_graph(8), star_graph(15)]
        + [complete_graph(6)],
        "nc1wl",
    )
    @settings(max_examples=80, deadline=None)
    def test_width_classes_pad_under_four_times_the_slots(self, parts, method):
        g = _union(parts)
        with_neighbor_edges = method == "nc1wl"
        counts = neighbor_edge_arrays(g)[0] if with_neighbor_edges else np.zeros_like(g.degrees)
        classes, _ = _width_classes(g, with_neighbor_edges)
        slots = 2 * g.edge_count + int(counts.sum())
        assert sum(cls.index.size for cls in classes) <= 4 * slots + 2 * g.node_count
        if len(classes) > 1:
            # each class pads every member's gather slots to under four times their number
            row_slots = g.degrees + counts
            for cls in classes:
                width = cls.index.shape[1] - 1
                assert width == 0 or (width < 4 * row_slots[cls.nodes]).all()
        # the classes partition the nodes, each in ascending order
        nodes = [cls.nodes for cls in classes]
        assert all((np.diff(members) > 0).all() for members in nodes)
        assert sorted(np.concatenate(nodes + [np.zeros(0, np.intp)]).tolist()) == list(
            range(g.node_count)
        )
        assert_node_sorting_matches_interning([g], method)

    def test_star_memory_is_linear_in_its_entries(self):
        # a star padded to its widest row would need 200_001 x 200_000 slots
        star = star_graph(200_000)
        entries = 2 * star.edge_count + star.node_count
        neighbor_edge_lists(star)
        tracemalloc.start()
        try:
            seq = refine(star, "nc1wl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.num_classes for c in seq] == [1, 2, 2]
        assert peak < 256 * entries


def test_histogram_counts_dense_colors_like_a_counter():
    rng = random.Random("histogram")
    for n in (0, 1, 5, 300):
        colors = [rng.randrange(max(1, n // 3)) for _ in range(n)]
        hist = _histogram(colors)
        assert hist == tuple(sorted(Counter(colors).items()))
        assert all(type(x) is int for pair in hist for x in pair)


@pytest.mark.parametrize("colors", [[-1], [0, 2], [10**9], [2**63], [0, 1, 5]])
def test_from_colors_rejects_colors_that_are_not_dense_ids(colors):
    # bincount would allocate one slot per value up to the largest color
    with pytest.raises(ValueError, match="dense ids"):
        Coloring.from_colors(colors)


@pytest.mark.parametrize(
    "colors, message",
    [([0, 2, 0], "dense ids"), ([-1, 0, 0], "negative"), ([0, 3, 1], "dense ids")],
)
def test_a_round_that_is_not_dense_ids_raises(monkeypatch, colors, message):
    """The stream under refine, compare and the CLI checks every round's ids.

    Doubled for compare, [0, 3, 1] is below the entity count and leaves
    class 2 empty in the joint run.
    """

    def universes(method, graph_list, node_cap):
        joint = np.array(colors * len(graph_list), dtype=np.int64)
        return (lambda _: joint), [3] * len(graph_list)

    monkeypatch.setattr(sys.modules["ncwl.refine"], "_universes", universes)
    with pytest.raises(ValueError, match=message):
        refine(path_graph(3), "1wl")
    with pytest.raises(ValueError, match=message):
        compare(path_graph(3), path_graph(3), "1wl")


def test_from_colors_keeps_dense_ids():
    c = Coloring.from_colors([2, 0, 2, 1])
    assert c == Coloring((2, 0, 2, 1), 3, ((0, 1), (1, 1), (2, 2)))
    assert Coloring.from_colors([]) == Coloring((), 0, ())


class TestVf2Oracle:
    """Verdicts above the brute-force cap (n = 11..26) against networkx's VF2."""

    @staticmethod
    def to_networkx(nx, g):
        h = nx.Graph()
        h.add_nodes_from((v, {"label": lab}) for v, lab in enumerate(g.labels))
        h.add_edges_from(g.edges())
        return h

    def test_verdicts_agree_with_vf2(self):
        nx = pytest.importorskip("networkx")

        def isomorphic(a, b):
            return nx.is_isomorphic(
                self.to_networkx(nx, a),
                self.to_networkx(nx, b),
                node_match=lambda x, y: x["label"] == y["label"],
            )

        rng = random.Random("vf2-oracle")
        for trial in range(16):
            n = rng.randint(11, 26)
            g = random_gnp(rng, n, rng.uniform(0.15, 0.5), num_labels=rng.choice([1, 2]))
            perm = list(range(n))
            rng.shuffle(perm)
            twin = permute_graph(g, perm)
            if trial % 2 and g.edge_count >= 4:
                # a degree-preserving edge swap: 1wl cannot tell it from g
                swapped = nx.double_edge_swap(self.to_networkx(nx, g), nswap=1, seed=trial)
                other = Graph.build(n, list(swapped.edges()), g.labels)
            else:
                other = random_gnp(rng, n, rng.uniform(0.15, 0.5), num_labels=2)
            iso = isomorphic(g, other)
            for method in METHODS:
                if compare(g, other, method).distinguished:
                    assert not iso, (method, trial)
            assert isomorphic(g, twin)
            for method in ("2wl", "3wl"):
                assert not compare(g, twin, method).distinguished, (method, trial)


class TestBruteForce:
    def test_relabeled_triangle(self):
        k3 = complete_graph(3, [0, 1, 2])
        assert brute_force_isomorphic(k3, permute_graph(k3, [2, 0, 1]))

    def test_triangles_vs_hexagon(self):
        assert not brute_force_isomorphic(cycle_graph(6), two_triangles())

    def test_path_is_a_star(self):
        assert brute_force_isomorphic(path_graph(3), star_graph(2))

    def test_labels_matter(self):
        assert not brute_force_isomorphic(path_graph(3, [0, 0, 0]), path_graph(3, [0, 1, 0]))

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_isomorphic(Graph.build(11, []), Graph.build(11, []))


class TestProperties:
    @given(graphs(max_nodes=9, max_labels=2))
    @settings(max_examples=60)
    def test_monotone_refinement(self, g):
        for method, runner in (("1wl", refine_1wl), ("nc1wl", refine_nc1wl)):
            seq = runner(g)
            for earlier, later in zip(seq, seq[1:]):
                assert later.num_classes >= earlier.num_classes
                # every later class sits inside one earlier class
                for cls in classes_of(later):
                    assert len({earlier.colors[v] for v in cls}) == 1

    def test_soundness_200_trials_all_methods(self):
        rng = random.Random("soundness-trials")
        for _ in range(200):
            n = rng.randint(1, 10)
            g = random_gnp(rng, n, rng.uniform(0.1, 0.9), num_labels=rng.choice([1, 1, 2]))
            perm = list(range(n))
            rng.shuffle(perm)
            h = permute_graph(g, perm)
            for method in METHODS:
                assert not compare(g, h, method).distinguished, (method, g, perm)

    @given(graphs(max_nodes=8, max_labels=2), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_permutation_equivariance(self, g, seed):
        perm = list(range(g.node_count))
        random.Random(seed).shuffle(perm)
        h = permute_graph(g, perm)
        for runner in (refine_1wl, refine_nc1wl):
            seq_g, seq_h = runner(g), runner(h)
            assert len(seq_g) == len(seq_h)
            for cg, ch in zip(seq_g, seq_h):
                # same class sizes (ids are run-local), and matched nodes
                # always land in matched classes
                assert sorted(k for _, k in cg.histogram) == sorted(
                    k for _, k in ch.histogram
                )
                pairing = {}
                for v in range(g.node_count):
                    pairing.setdefault(cg.colors[v], set()).add(ch.colors[perm[v]])
                assert all(len(s) == 1 for s in pairing.values())
                assert len({next(iter(s)) for s in pairing.values()}) == len(pairing)

    def test_hierarchy_on_random_pairs(self):
        rng = random.Random("hierarchy-local")
        for _ in range(120):
            n = rng.randint(2, 8)
            g1 = random_gnp(rng, n, rng.uniform(0.2, 0.8))
            g2 = random_gnp(rng, n, rng.uniform(0.2, 0.8))
            verdicts = {m: compare(g1, g2, m).distinguished for m in METHODS}
            if verdicts["1wl"]:
                assert verdicts["nc1wl"]
            if verdicts["nc1wl"]:
                assert verdicts["3wl"]
            assert verdicts["2wl"] == verdicts["1wl"]
            if brute_force_isomorphic(g1, g2):
                assert not any(verdicts.values())

    def test_hierarchy_on_random_labeled_pairs(self):
        # labels flow into the initial colors of every method, including the
        # tuple atomic types
        rng = random.Random("hierarchy-labeled")
        for _ in range(60):
            n = rng.randint(2, 6)
            g1 = random_gnp(rng, n, rng.uniform(0.2, 0.8), num_labels=2)
            g2 = random_gnp(rng, n, rng.uniform(0.2, 0.8), num_labels=2)
            verdicts = {m: compare(g1, g2, m).distinguished for m in METHODS}
            if verdicts["1wl"]:
                assert verdicts["nc1wl"]
            if verdicts["nc1wl"]:
                assert verdicts["3wl"]
            assert verdicts["2wl"] == verdicts["1wl"]
            if brute_force_isomorphic(g1, g2):
                assert not any(verdicts.values())

    def test_refine_dispatch(self):
        g = path_graph(3)
        assert refine(g, "1wl")[-1].colors == refine_1wl(g)[-1].colors
        assert refine(g, "2wl")[-1].colors == refine_kwl(g, 2)[-1].colors
        with pytest.raises(ValueError):
            refine(g, "bogus")
