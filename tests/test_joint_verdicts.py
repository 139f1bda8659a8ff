"""The suite's joint verdict runs against one ``compare`` per pair.

``ncwl.refine._verdicts`` refines the graphs of many pairs in one run per
node method; every verdict must equal the pair's own ``compare``, and the
suite checks built on it must return what the earlier per-pair checks in
``reference`` return, failures included.
"""

from __future__ import annotations

from importlib import import_module
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.suite
import reference
from ncwl import Graph, compare, permute_graph
from ncwl.refine import _VERDICT_CHUNK, _verdicts
from ncwl.suite import check_hierarchy, check_soundness

from conftest import graphs, permutations_of

# ``ncwl.refine`` is the function the package exports under that name
refine_module = import_module("ncwl.refine")


@st.composite
def pair_lists(draw):
    """0-40 pairs of labeled graphs of 0-7 nodes: permuted copies and unrelated pairs."""
    pairs = []
    for _ in range(draw(st.integers(0, 40))):
        g = draw(graphs(max_nodes=7, max_labels=3))
        if draw(st.booleans()):
            h = permute_graph(g, draw(permutations_of(g.node_count)))
        else:
            h = draw(graphs(max_nodes=7, max_labels=3))
        pairs.append((g, h))
    return pairs


@given(
    pair_lists(),
    st.sampled_from(("1wl", "nc1wl")),
    st.sampled_from((1, 2, 3, 7, _VERDICT_CHUNK)),
)
@settings(max_examples=80, deadline=None)
def test_verdicts_equal_one_compare_per_pair(pairs, method, chunk):
    expected = [compare(g1, g2, method).distinguished for g1, g2 in pairs]
    with mock.patch.object(refine_module, "_VERDICT_CHUNK", chunk):
        assert _verdicts(pairs, method) == expected


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
