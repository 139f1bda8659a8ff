from __future__ import annotations

import contextlib
import io
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.graph
from ncwl import (
    Graph,
    GraphFormatError,
    complete_graph,
    compare,
    cycle_graph,
    disjoint_union,
    embed_graph,
    empty_graph,
    load_corpus,
    nc_gnn_layer_backward,
    neighbor_edge_lists,
    neighbor_edges,
    one_hot_features,
    parse_edge_list,
    path_graph,
    permute_graph,
    random_gnm,
    random_gnp,
    refine,
    refine_nc1wl,
    serialize_edge_list,
    stack_layers,
    star_graph,
    stats,
    wheel_graph,
)
from ncwl.cli import main as cli_main
from ncwl.graph import (
    MAX_NODE_COUNT,
    _compact_forward,
    adjacency_arrays,
    neighbor_edge_arrays,
)
from ncwl.harness import seeded_rng
from ncwl.suite import check_stats_identity

from conftest import graphs
from reference import merge_neighbor_edges


def brute_force_neighbor_edges(g: Graph, v: int) -> list[tuple[int, int]]:
    """Oracle: iterate all unordered pairs of neighbors, keep the adjacent ones."""
    nv = g.adjacency[v]
    return [(a, b) for a, b in combinations(nv, 2) if g.has_edge(a, b)]


def brute_force_triangles(g: Graph) -> int:
    """Oracle: enumerate all node triples."""
    count = 0
    for a, b, c in combinations(range(g.node_count), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            count += 1
    return count


class TestParse:
    def test_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]
        assert g.labels == (0, 0, 0)

    def test_isolated_nodes(self):
        g = parse_edge_list("2 0")
        assert g.node_count == 2
        assert g.edge_count == 0

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate edge"):
            parse_edge_list("3 2\n0 1\n0 1")

    def test_duplicate_edge_reversed(self):
        with pytest.raises(GraphFormatError, match="duplicate edge"):
            parse_edge_list("3 2\n0 1\n1 0")

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            parse_edge_list("3 1\n1 1")

    def test_node_id_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2.*out of range"):
            parse_edge_list("3 1\n0 3")

    def test_malformed_edge_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("3 1\n0 x")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_edge_list("banana")

    def test_node_count_over_limit_rejected_at_the_header(self):
        text = f"# huge\n{MAX_NODE_COUNT + 1} 0\n"
        with pytest.raises(GraphFormatError, match="exceeds the limit") as exc:
            parse_edge_list(text)
        assert exc.value.line == 2
        with pytest.raises(GraphFormatError, match="line 1: node count 3000000000"):
            parse_edge_list("3000000000 0\n")

    def test_missing_edges(self):
        with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1")

    def test_comments_blank_lines_and_crlf(self):
        g = parse_edge_list("# a triangle\r\n3 3\r\n\r\n0 1\r\n1 2\r\n# middle\r\n0 2\r\n")
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_labels_section(self):
        g = parse_edge_list("2 1\n0 1\nlabels\n0 5\n1 0")
        assert g.labels == (5, 0)

    def test_labels_section_incomplete(self):
        with pytest.raises(GraphFormatError, match="label"):
            parse_edge_list("2 1\n0 1\nlabels\n0 5")

    def test_label_node_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_edge_list("2 1\n0 1\nlabels\n0 1\n2 1")

    def test_duplicate_label(self):
        with pytest.raises(GraphFormatError, match="duplicate label"):
            parse_edge_list("2 1\n0 1\nlabels\n0 1\n0 2")

    def test_trailing_junk(self):
        with pytest.raises(GraphFormatError, match="expected 'labels'"):
            parse_edge_list("2 1\n0 1\n0 1 2")

    @given(graphs(max_nodes=9, max_labels=3))
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestBuild:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.build(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.build(2, [(0, 1), (1, 0)])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Graph.build(2, [], [1])

    def test_rejects_node_count_over_limit(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            Graph.build(MAX_NODE_COUNT + 1, [])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph.build(4, [(3, 0), (2, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        for u in range(4):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]


class TestSharedEdgeValidation:
    @pytest.mark.parametrize(
        "edges, reason",
        [
            ([(0, 1), (0, 3)], "out of range"),
            ([(0, 1), (-1, 2)], "out of range"),
            ([(0, 1), (2, 2)], "self-loop"),
            ([(0, 1), (1, 2), (0, 1)], "duplicate edge"),
            ([(0, 1), (1, 2), (1, 0)], "duplicate edge"),
        ],
    )
    def test_build_and_parser_reject_alike(self, edges, reason):
        with pytest.raises(ValueError, match=reason) as built:
            Graph.build(3, edges)
        text = f"# comment\n3 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        with pytest.raises(GraphFormatError) as parsed:
            parse_edge_list(text)
        # comment, header, then the edge lines; the last edge is the bad one
        line = 2 + len(edges)
        assert parsed.value.line == line
        assert str(parsed.value) == f"line {line}: {built.value}"


class TestNeighborEdges:
    def test_k4_center(self):
        got = [e.endpoints for e in neighbor_edges(complete_graph(4), 0)]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_c6_locally_triangle_free(self):
        c6 = cycle_graph(6)
        for v in range(6):
            assert neighbor_edges(c6, v) == []

    def test_wheel_hub(self):
        w5 = wheel_graph(5)
        got = [e.endpoints for e in neighbor_edges(w5, 0)]
        expected = brute_force_neighbor_edges(w5, 0)
        assert got == sorted(expected)
        assert len(got) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            neighbor_edges(cycle_graph(3), 3)

    def test_fields(self):
        e = neighbor_edges(complete_graph(3), 0)[0]
        assert e.center == 0
        assert e.endpoints == (1, 2)

    @given(graphs(max_nodes=12))
    def test_matches_brute_force(self, g):
        lists = neighbor_edge_lists(g)
        assert isinstance(lists, tuple) and all(isinstance(p, tuple) for p in lists)
        assert neighbor_edge_lists(g) is lists
        for v in range(g.node_count):
            expected = sorted(brute_force_neighbor_edges(g, v))
            assert list(lists[v]) == expected
            assert [e.endpoints for e in neighbor_edges(g, v)] == expected


@given(graphs(max_nodes=12))
def test_array_views_flatten_the_adjacency_and_the_index(g):
    degrees, neighbors = adjacency_arrays(g)
    counts, edges = neighbor_edge_arrays(g)
    assert degrees.tolist() == [len(nb) for nb in g.adjacency]
    assert neighbors.tolist() == [u for nb in g.adjacency for u in nb]
    expected = merge_neighbor_edges(g)
    assert counts.tolist() == [len(pairs) for pairs in expected]
    # one edge id per row, an index into g.edges()
    edge_list = g.edges()
    assert [edge_list[e] for e in edges.tolist()] == [p for pairs in expected for p in pairs]
    views = (degrees, neighbors, counts, edges)
    assert all(a.dtype == np.intp for a in views)
    assert not any(a.flags.writeable for a in views)
    assert adjacency_arrays(g)[1] is neighbors
    assert neighbor_edge_arrays(g)[0] is counts and neighbor_edge_arrays(g)[1] is edges


def test_neighbor_edge_index_is_built_once_per_graph(monkeypatch):
    import ncwl.graph

    builds = []
    original = ncwl.graph._compact_forward

    def counting(g):
        builds.append(g)
        return original(g)

    monkeypatch.setattr(ncwl.graph, "_compact_forward", counting)
    g = random_gnp(random.Random("one-build"), 12, 0.5)
    layers = stack_layers(seeded_rng(0, "one-build"), 1, 4, 3)
    embed_graph(g, layers, 1)
    nc_gnn_layer_backward(g, one_hot_features(g, 1), layers[0], np.ones((12, 4)))
    refine_nc1wl(g)
    stats(g)
    assert len(builds) == 1
    twin = Graph.build(g.node_count, g.edges(), g.labels)
    assert twin == g and hash(twin) == hash(g)
    assert stats(twin) == stats(g)
    assert len(builds) == 2


def assert_lister_matches_reference(g: Graph):
    """The cached index, a fresh listing and the tuple view equal the merge reference on ``g``."""
    expected = merge_neighbor_edges(g)
    edge_list = g.edges()
    for counts, edges in (neighbor_edge_arrays(g), _compact_forward(g)):
        assert all(a.dtype == np.intp for a in (counts, edges))
        assert counts.tolist() == [len(pairs) for pairs in expected]
        assert [edge_list[e] for e in edges.tolist()] == [p for pairs in expected for p in pairs]
    cached = neighbor_edge_arrays(g)
    assert not any(a.flags.writeable for a in cached)
    assert all(a is b for a, b in zip(neighbor_edge_arrays(g), cached))
    lists = neighbor_edge_lists(g)
    assert lists == tuple(map(tuple, expected))
    assert neighbor_edge_lists(g) is lists


class TestNeighborEdgeLister:
    """The compact-forward lister against the merge lister."""

    def test_corpus(self):
        for entry in load_corpus():
            for g in entry.graphs():
                assert_lister_matches_reference(g)
            assert_lister_matches_reference(disjoint_union(*entry.graphs())[0])

    @given(graphs(max_nodes=32))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs(self, g):
        assert_lister_matches_reference(g)

    def test_empty_and_edgeless(self):
        for n in (0, 1, 2, 23, 24, 300):
            assert_lister_matches_reference(empty_graph(n))

    def test_stars_wheels_and_complete_graphs(self):
        for n in (3, 4, 22, 23, 24, 60):
            for g in (star_graph(n), wheel_graph(n), complete_graph(n)):
                assert_lister_matches_reference(g)

    def test_random_graphs_past_one_wedge_block(self):
        rng = random.Random("lister")
        for g in (random_gnm(rng, 300, 4000), random_gnp(rng, 120, 0.5)):
            assert_lister_matches_reference(g)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_tiny_wedge_blocks(self, monkeypatch, block):
        monkeypatch.setattr(ncwl.graph, "_WEDGE_BLOCK", block)
        rng = random.Random(block)
        for _ in range(20):
            n = rng.randrange(2, 48)
            assert_lister_matches_reference(random_gnp(rng, n, rng.random()))

    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    def test_blocks_that_close_no_triangle(self, monkeypatch, block):
        # K_{a,b} has a * b * (a + b - 2) / 2 wedges and no triangle, so m > 0
        # while every block is empty; isolated top ids end the counts
        if block is not None:
            monkeypatch.setattr(ncwl.graph, "_WEDGE_BLOCK", block)
        for a, b in ((1, 1), (1, 5), (2, 2), (3, 3), (4, 9), (12, 13)):
            bipartite = [(u, a + v) for u in range(a) for v in range(b)]
            for extra in (0, 1, 5):
                assert_lister_matches_reference(Graph.build(a + b + extra, bipartite))
        rng = random.Random("isolated-tail")
        for _ in range(10):
            g = random_gnp(rng, rng.randrange(3, 30), rng.random())
            padded = Graph.build(g.node_count + rng.randrange(1, 6), g.edges())
            assert_lister_matches_reference(padded)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("slots", ["hashed", "one-slot"])
    def test_the_closure_filter_on_graphs_of_any_size(self, monkeypatch, slots, block):
        # every graph here gets the table; with one slot for every key and
        # every closing key each wedge is searched, so the filter only
        # narrows the search and never decides it
        monkeypatch.setattr(ncwl.graph, "_TABLE_MIN_WEDGES", 0)
        if slots == "one-slot":
            monkeypatch.setattr(
                ncwl.graph, "_key_slots", lambda keys, shift: np.zeros(len(keys), dtype=np.intp)
            )
        if block is not None:
            monkeypatch.setattr(ncwl.graph, "_WEDGE_BLOCK", block)
        rng = random.Random("pass-through")
        cases = [random_gnp(rng, rng.randrange(2, 60), rng.random()) for _ in range(10)]
        cases += [complete_graph(n) for n in (3, 4, 23)] + [star_graph(n) for n in (3, 60)]
        if block is None:
            cases.append(random_gnm(rng, 700, 19600))
        for g in cases:
            assert_lister_matches_reference(g)

    def test_hub_of_a_large_wheel_is_not_quadratic(self):
        # the merge lister took 2.7 s on wheel_graph(8000) and did not
        # finish on this one within minutes; compact-forward takes 0.06 s
        wheel = wheel_graph(100_000)
        start = time.perf_counter()
        seq = refine_nc1wl(wheel)
        assert time.perf_counter() - start < 20
        assert [c.num_classes for c in seq] == [1, 2, 2]
        counts = neighbor_edge_arrays(wheel)[0]
        assert counts[0] == 100_000 and (counts[1:] == 2).all()

    def test_peak_memory_stays_bounded_by_the_wedge_blocks(self):
        # the output is about 7.7 MiB; the blocked lister peaks near 13.3 MiB
        # (30.6 MiB while it lexsorted 64-byte rows), an unblocked one (all
        # 3.1M wedges at once) near 127 MiB
        g = random_gnm(random.Random("lister-memory"), 2000, 100_000)
        adjacency_arrays(g)
        tracemalloc.start()
        try:
            counts, _ = _compact_forward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts.sum()) % 3 == 0
        assert peak < 64 * 2**20

    def test_peak_memory_per_row_of_a_dense_index(self):
        # one int64 code per row, sorted in place and kept as the row's edge
        # id: about 16.5 bytes per row (24.7 while it also gathered both
        # endpoint columns, 64 while it lexsorted the rows)
        g = complete_graph(120)
        adjacency_arrays(g)
        tracemalloc.start()
        try:
            counts, _ = _compact_forward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = int(counts.sum())
        assert rows == 120 * 119 * 118 // 2
        assert peak < 20 * rows

    def test_an_index_over_the_limit_is_refused(self, monkeypatch):
        # K_6 has 3T = 60 rows: built at a limit of 60, refused at 59 by every reader
        g = complete_graph(6)
        monkeypatch.setattr(ncwl.graph, "MAX_NEIGHBOR_EDGES", 60)
        assert int(_compact_forward(g)[0].sum()) == 60
        monkeypatch.setattr(ncwl.graph, "MAX_NEIGHBOR_EDGES", 59)
        layers = stack_layers(seeded_rng(0, "index-limit"), 1, 4, 1)
        calls = (lambda: stats(g), lambda: refine_nc1wl(g), lambda: embed_graph(g, layers, 1))
        for call in calls:
            with pytest.raises(ValueError, match=r"\(nodes=6, edges=15\) exceeds the limit of 59"):
                call()
        # compare indexes the union of the pair
        with pytest.raises(ValueError, match=r"\(nodes=12, edges=30\) exceeds the limit of 59"):
            compare(g, complete_graph(6), "nc1wl")


def test_no_tuple_view_is_built_on_graphs_the_engines_sort(monkeypatch, tmp_path):
    rng = random.Random("no-view")
    g = random_gnp(rng, 40, 0.3)
    twin = permute_graph(g, rng.sample(range(40), 40))
    # counted on a copy: the oracle reads edge_set, which g must never build
    triangles = brute_force_triangles(Graph.build(40, g.edges()))
    first, second = tmp_path / "g.txt", tmp_path / "twin.txt"
    first.write_text(serialize_edge_list(g))
    second.write_text(serialize_edge_list(twin))

    def refuse(g):
        raise AssertionError("tuple view built")

    # the views, including those of the graphs the CLI reads, refuse to be built
    for view in ("_neighbor_edge_lists", "adjacency", "edge_set"):
        monkeypatch.setattr(Graph, view, property(refuse))
    layers = stack_layers(seeded_rng(0, "no-view"), 1, 4, 2)
    assert stats(g).triangle_count == triangles
    assert refine_nc1wl(g)[-1].num_classes >= 1
    assert refine(g, "2wl")[-1].num_classes >= 1
    assert not compare(g, twin, "nc1wl").distinguished
    assert not compare(g, twin, "1wl").distinguished
    embed_graph(g, layers, 1)
    embed_graph(g, layers, 1, variant="gin")
    nc_gnn_layer_backward(g, one_hot_features(g, 1), layers[0], np.ones((40, 4)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["stats", str(first)]) == 0
        assert cli_main(["refine", str(first), "--method", "nc1wl"]) == 0
        assert cli_main(["compare", str(first), str(second), "--method", "nc1wl"]) == 0
        assert cli_main(["gnn-embed", str(first), "--layers", "2", "--dim", "4"]) == 0
    for h in (g, twin):
        assert "adjacency" not in h.__dict__ and "edge_set" not in h.__dict__


class TestStats:
    def test_k4(self):
        s = stats(complete_graph(4))
        assert s.triangle_count == 4
        assert s.messages_nc_per_node == (3, 3, 3, 3)
        assert s.memory_bound == min(6, 12) == 6
        assert s.avg_messages_nc == Fraction(3)

    def test_c6(self):
        s = stats(cycle_graph(6))
        assert s.triangle_count == 0
        assert s.avg_messages_nc == 0
        assert s.memory_bound == 0

    def test_w5(self):
        w5 = wheel_graph(5)
        s = stats(w5)
        assert s.triangle_count == brute_force_triangles(w5) == 5
        assert s.messages_nc_per_node == (5, 2, 2, 2, 2, 2)
        assert sum(s.messages_nc_per_node) == 15 == 3 * s.triangle_count
        assert s.avg_messages_nc == Fraction(15, 6)

    def test_empty_graph(self):
        s = stats(empty_graph(0))
        assert s.node_count == 0
        assert s.avg_messages_nc == 0
        assert s.max_degree == 0

    @given(graphs(max_nodes=12))
    def test_triangle_count_matches_brute_force(self, g):
        assert stats(g).triangle_count == brute_force_triangles(g)

    def test_message_identity_on_100_random_graphs(self):
        rng = random.Random("stats-identity")
        for _ in range(100):
            g = random_gnp(rng, rng.randint(1, 14), rng.uniform(0.1, 0.9))
            s = stats(g)
            assert sum(s.messages_nc_per_node) == 3 * s.triangle_count
            assert s.memory_bound == min(s.edge_count, 3 * s.triangle_count)

    def test_suite_check_fails_on_wrong_stats(self, monkeypatch):
        assert check_stats_identity(0).passed

        def no_triangles(g):
            # consistent with itself: zero messages, zero triangles, zero bound
            return replace(
                stats(g),
                triangle_count=0,
                messages_nc_per_node=(0,) * g.node_count,
                memory_bound=0,
            )

        monkeypatch.setattr("ncwl.suite.stats", no_triangles)
        result = check_stats_identity(0)
        assert not result.passed
        assert "differ from the adjacency's" in result.detail

    @given(graphs(max_nodes=10), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_permutation_invariance(self, g, seed):
        perm = list(range(g.node_count))
        random.Random(seed).shuffle(perm)
        s1, s2 = stats(g), stats(permute_graph(g, perm))
        assert (s1.node_count, s1.edge_count, s1.triangle_count) == (
            s2.node_count,
            s2.edge_count,
            s2.triangle_count,
        )
        assert sorted(s1.messages_nc_per_node) == sorted(s2.messages_nc_per_node)
        assert s1.avg_messages_nc == s2.avg_messages_nc
        assert s1.max_messages_nc == s2.max_messages_nc
        assert s1.max_degree == s2.max_degree
        assert s1.memory_bound == s2.memory_bound


class TestUnion:
    def test_two_triangles(self):
        k3 = complete_graph(3)
        g, offset = disjoint_union(k3, k3)
        assert offset == 3
        assert g.node_count == 6
        assert g.edge_count == 6

    def test_empty_left_identity(self):
        g = cycle_graph(5)
        got, offset = disjoint_union(empty_graph(0), g)
        assert offset == 0
        assert got == g

    def test_triangle_free_preserved(self):
        c4 = cycle_graph(4)
        g, _ = disjoint_union(c4, c4)
        assert g.node_count == 8
        assert g.edge_count == 8
        assert stats(g).triangle_count == 0

    def test_labels_preserved(self):
        g1 = path_graph(2, [1, 2])
        g2 = star_graph(2, [3, 4, 5])
        g, offset = disjoint_union(g1, g2)
        assert offset == 2
        assert g.labels == (1, 2, 3, 4, 5)
