"""The suite's joint verdict runs against one ``compare`` per pair.

``ncwl.refine._verdicts`` refines the graphs of many pairs in joint runs
under every method; every verdict must equal the pair's own ``compare``,
and the suite checks built on it must return what the earlier per-pair
checks in ``reference`` return, failures included.
"""

from __future__ import annotations

import random
from importlib import import_module
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.suite
import reference
from ncwl import METHODS, Graph, compare, permute_graph, random_gnp
from ncwl.refine import _VERDICT_CHUNK, _verdicts
from ncwl.suite import check_hierarchy, check_soundness

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
