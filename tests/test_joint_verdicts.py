"""The suite's joint runs against one ``compare`` or ``refine`` per graph.

``ncwl.refine._verdicts`` refines the graphs of many pairs in joint runs
under every method; every verdict must equal the pair's own ``compare``,
and the suite checks built on it must return what the earlier per-pair
checks in ``reference`` return, failures included. The triangle-free check
refines one union of its graphs per method and must return what the
earlier per-graph check returns.
"""

from __future__ import annotations

import itertools
import random
from importlib import import_module
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.suite
import reference
from ncwl import METHODS, Graph, compare, permute_graph, random_gnp, stats
from ncwl.refine import _VERDICT_CHUNK, _verdicts
from ncwl.suite import CheckResult, check_hierarchy, check_soundness, check_triangle_free_degeneracy

from conftest import graphs, permutations_of

# ``ncwl.refine`` is the function the package exports under that name
refine_module = import_module("ncwl.refine")


@st.composite
def pair_lists(draw, max_nodes=7):
    """0-40 pairs of labeled graphs of 0-``max_nodes`` nodes: permuted copies,
    unrelated pairs of equal node counts and unrelated pairs of any sizes."""
    pairs = []
    for _ in range(draw(st.integers(0, 40))):
        g = draw(graphs(max_nodes=max_nodes, max_labels=3))
        kind = draw(st.sampled_from(("permuted", "same-size", "any")))
        if kind == "permuted":
            h = permute_graph(g, draw(permutations_of(g.node_count)))
        else:
            h = draw(graphs(max_nodes=max_nodes, max_labels=3))
            if kind == "same-size":
                h = Graph.build(g.node_count, [(u, v) for u, v in h.edges() if v < g.node_count])
        pairs.append((g, h))
    return pairs


@given(
    pair_lists(),
    st.sampled_from(METHODS),
    st.sampled_from((1, 2, 3, 7, _VERDICT_CHUNK)),
)
@settings(max_examples=120, deadline=None)
def test_verdicts_equal_one_compare_per_pair(pairs, method, chunk):
    expected = [compare(g1, g2, method).distinguished for g1, g2 in pairs]
    with (
        mock.patch.object(refine_module, "_VERDICT_CHUNK", chunk),
        mock.patch.object(refine_module, "compare", side_effect=AssertionError("compare")),
    ):
        assert _verdicts(pairs, method) == expected


def test_verdicts_of_empty_and_one_node_graphs():
    empty, single, labeled = Graph.build(0, []), Graph.build(1, []), Graph.build(1, [], [2])
    pairs = [(empty, empty), (empty, single), (single, single), (single, labeled), (empty, empty)]
    for method in METHODS:
        assert _verdicts(pairs, method) == [False, True, False, True, False]


@pytest.mark.parametrize(
    "k, limit, pairs_per_run",
    [
        # 3wl: four pairs of 3-node graphs (54 tuples each) fit 216 tuples,
        # and a pair of 4-node graphs (128 tuples) runs alone
        (3, 216, [4, 4, 2] + [1] * 10),
        # 2wl: two pairs of 3-node graphs (18 tuples each) fit 40 tuples
        (2, 40, [2] * 5 + [1] * 10),
    ],
)
def test_a_node_count_group_over_the_tuple_limit_is_split(monkeypatch, k, limit, pairs_per_run):
    rng = random.Random(f"tuple-limit-{k}")
    pairs = []
    for n in (3, 4) * 10:
        g = random_gnp(rng, n, 0.5, 2)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((g, permute_graph(g, perm)))
        else:
            pairs.append((g, random_gnp(rng, n, 0.5, 2)))
    expected = [compare(g1, g2, f"{k}wl").distinguished for g1, g2 in pairs]
    runs = []
    universes = refine_module._universes

    def recording(method, graphs, node_cap):
        runs.append(len(graphs) // 2)
        return universes(method, graphs, node_cap)

    monkeypatch.setattr(refine_module, "MAX_TUPLE_ENTITIES", limit)
    monkeypatch.setattr(refine_module, "_universes", recording)
    assert _verdicts(pairs, f"{k}wl") == expected
    assert sorted(runs, reverse=True) == pairs_per_run


def drop_first_edge(g: Graph, perm) -> Graph:
    """A faulty ``permute_graph``: ``g`` without its first edge, not relabeled."""
    return Graph.build(g.node_count, g.edges()[1:], g.labels)


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chunk", [2, 8])
def test_suite_checks_equal_the_per_pair_checks(monkeypatch, chunk, seed, faulty):
    for module in (ncwl.suite, refine_module):
        monkeypatch.setattr(module, "_VERDICT_CHUNK", chunk)
    if faulty:
        # permuted copies that differ, and an oracle that calls every pair
        # isomorphic; with chunks of 2 the five failures shown span chunks
        for module in (ncwl.suite, reference):
            monkeypatch.setattr(module, "permute_graph", drop_first_edge)
        monkeypatch.setattr(ncwl.suite, "brute_force_isomorphic", lambda g1, g2: True)
    for count in (1, chunk - 1, chunk, chunk + 1, 20):
        soundness = check_soundness(seed, count)
        hierarchy = check_hierarchy(seed, count)
        assert soundness == reference.check_soundness(seed, count)
        assert hierarchy == reference.check_hierarchy(seed, count)
        if faulty and count > 1:
            assert not soundness.passed and not hierarchy.passed


def test_suite_checks_across_one_full_chunk():
    count = _VERDICT_CHUNK + 1
    assert check_soundness(0, count) == reference.check_soundness(0, count)
    assert check_hierarchy(0, count) == reference.check_hierarchy(0, count)


def add_triangles(monkeypatch, picked) -> list[Graph]:
    """Make ``Graph.build`` in the suite and in ``reference`` add the triangle
    0-1-2 to every graph of 3 or more nodes whose draw index, counted from 0
    in each module, ``picked`` accepts; returns the suite's graphs as built."""
    built = []
    for module in (ncwl.suite, reference):
        draws = itertools.count()

        def build(n, edges, labels=None, draws=draws, module=module):
            if picked(next(draws)) and n >= 3:
                edges = sorted({*edges, (0, 1), (1, 2), (0, 2)})
            g = Graph.build(n, edges, labels)
            if module is ncwl.suite:
                built.append(g)
            return g

        monkeypatch.setattr(module, "Graph", SimpleNamespace(build=build))
    return built


@pytest.mark.parametrize("sort_min_nodes", [32, 0])
@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty"])
@pytest.mark.parametrize("seed", range(4))
def test_triangle_free_check_equals_the_per_graph_check(monkeypatch, seed, faulty, sort_min_nodes):
    # at 0 the per-graph runs sort too; the union of 25 graphs sorts either way
    monkeypatch.setattr(refine_module, "_SORT_MIN_NODES", sort_min_nodes)
    if faulty:
        # both modules draw the same graphs, so their draw counts stay equal
        add_triangles(monkeypatch, lambda t: t % 3 == 0)
    for graphs in (0, 1, 2, 25):
        result = check_triangle_free_degeneracy(seed, graphs)
        assert result == reference.check_triangle_free_degeneracy(seed, graphs)
    assert result.passed is not faulty


@pytest.mark.parametrize("sort_min_nodes", [32, 0])
def test_a_triangle_that_splits_no_partition_is_not_flagged(monkeypatch, sort_min_nodes):
    # graph 3 of the seed-0 draw has 4 nodes; with the triangle, its own 1wl and
    # nc1wl runs give equal partitions, although its slices of the union's 1wl
    # and nc1wl colors hold different ids
    monkeypatch.setattr(refine_module, "_SORT_MIN_NODES", sort_min_nodes)
    built = add_triangles(monkeypatch, lambda t: t == 3)
    passed = CheckResult("triangle-free-degeneracy", True, "25 triangle-free graphs")
    assert check_triangle_free_degeneracy(0) == passed
    assert reference.check_triangle_free_degeneracy(0) == passed
    assert [t for t, g in enumerate(built) if stats(g).triangle_count] == [3]
