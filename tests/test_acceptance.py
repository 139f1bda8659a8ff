"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines as they complete. Tolerances and time bounds are stated inline.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from ncwl import (
    CodecContext,
    Graph,
    brute_force_isomorphic,
    complete_graph,
    compare,
    cycle_graph,
    decode_multiset,
    disjoint_union,
    embedding_gap,
    encode_multiset,
    gin_layer_forward,
    init_layer,
    injectivity_sweep,
    load_corpus,
    nc_gnn_layer_forward,
    random_gnm,
    random_gnp,
    refine_kwl,
    refine_nc1wl,
    stats,
)
from ncwl.suite import named_stream, run_hierarchy_trial

from test_nn import check_gradients


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def corpus_by_name():
    return {e.name: e for e in load_corpus()}


FIG1A_NAMES = (
    "fig1a-hexagon-vs-two-triangles",
    "fig1a-prism-vs-k33",
    "fig1a-labeled-ring-vs-triangles",
)


def test_01_fact1_fixture_exact():
    # zero tolerance: exact rational equality
    ctx = CodecContext(base=4)
    value = encode_multiset(ctx, [0, 2, 2])
    assert value == Fraction(9, 8)
    assert decode_multiset(Fraction(9, 8), 4) == (0, 2, 2)
    report(1, "multiset encode/decode fixture 9/8")


def test_02_one_wl_strictness_witnesses():
    start = time.perf_counter()
    entries = corpus_by_name()
    pairs = [entries[name] for name in FIG1A_NAMES] + [entries["c6-vs-2c3"]]
    for entry in pairs:
        g1, g2 = entry.graphs()
        assert compare(g1, g2, "1wl").verdict == "not-distinguished", entry.name
        assert compare(g1, g2, "nc1wl").verdict == "distinguished", entry.name
        if max(g1.node_count, g2.node_count) <= 10:
            assert not brute_force_isomorphic(g1, g2), entry.name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, bound 1s"
    report(2, f"plain-refinement blind spots split by neighbor edges ({elapsed:.3f}s)")


def test_03_three_wl_strictness_witnesses():
    start = time.perf_counter()
    entries = corpus_by_name()
    for name in ("fig3-pair", "c8-vs-2c4"):
        g1, g2 = entries[name].graphs()
        assert compare(g1, g2, "nc1wl").verdict == "not-distinguished", name
        assert compare(g1, g2, "3wl").verdict == "distinguished", name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s, bound 10s"
    report(3, f"neighbor-edge blind spots split by 3-tuple refinement ({elapsed:.3f}s)")


def test_04_hierarchy_sweep_500_pairs():
    start = time.perf_counter()
    rng = named_stream(2024, "acceptance-hierarchy")
    violations = []
    for t in range(500):
        for problem in run_hierarchy_trial(rng):
            violations.append(f"pair {t}: {problem}")
    elapsed = time.perf_counter() - start
    assert not violations, violations[:5]
    assert elapsed < 60.0, f"took {elapsed:.1f}s, bound 60s"
    report(4, f"hierarchy sweep over 500 random pairs, zero violations ({elapsed:.1f}s)")


def test_05_codec_injectivity_exhaustive():
    start = time.perf_counter()
    assert injectivity_sweep(CodecContext(), ("x1", "x2", "x3"), 2) == (280, 840)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, bound 5s"
    report(5, f"exhaustive codec injectivity, 280 + 840 encodings distinct ({elapsed:.3f}s)")


def test_06_plain_reduction_on_triangle_free_graphs():
    rng = named_stream(6, "acceptance-trianglefree")
    gen = np.random.default_rng(6)
    for trial in range(50):
        n = rng.randint(2, 12)
        left = rng.randint(1, n - 1)
        edges = [(i, j) for i in range(left) for j in range(left, n) if rng.random() < 0.5]
        g = Graph.build(n, edges)
        assert stats(g).triangle_count == 0
        dim = rng.choice([1, 2, 4])
        layer = init_layer(gen, dim, 3)
        H = gen.normal(size=(n, dim))
        nc = nc_gnn_layer_forward(g, H, layer)
        plain = gin_layer_forward(g, H, layer.mlp1, layer.epsilon)
        assert np.array_equal(nc, plain), f"trial {trial}: outputs differ"
    report(6, "neighbor-edge layer reduces bit-exactly to the plain layer on 50 triangle-free graphs")


def test_07_gradient_check_20_random_configurations():
    # central differences with step 1e-5; max relative error < 1e-4
    rng = named_stream(7, "acceptance-grads")
    worst = 0.0
    for trial in range(20):
        n = rng.randint(2, 6)
        g = random_gnp(rng, n, rng.uniform(0.3, 0.9))
        gen = np.random.default_rng(1000 + trial)
        in_dim = rng.choice([1, 2, 3])
        out_dim = rng.choice([1, 2, 4])
        layer = init_layer(gen, in_dim, out_dim)
        H = gen.normal(size=(n, in_dim))
        upstream = gen.normal(size=(n, out_dim))
        worst = max(worst, check_gradients(g, H, layer, upstream))
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    report(7, f"backward matches central differences, max rel err {worst:.2e}")


def test_08_embedding_distinguishability_harness():
    entries = corpus_by_name()
    pairs = [entries[name].graphs() for name in FIG1A_NAMES]
    pairs.append((cycle_graph(6), disjoint_union(complete_graph(3), complete_graph(3))[0]))
    for g1, g2 in pairs:
        nc_hits = sum(
            1 for seed in range(10) if embedding_gap(g1, g2, seed, variant="nc") > 1e-6
        )
        assert nc_hits >= 9, f"only {nc_hits}/10 seeds separated the pair"
        for seed in range(10):
            gap = embedding_gap(g1, g2, seed, variant="gin")
            assert gap < 1e-9, f"plain layers leaked a gap of {gap:.2e}"
    report(8, "2-layer embeddings split the witness pairs; plain layers never do")


def test_09_performance_sanity():
    g = random_gnm(named_stream(9, "acceptance-perf"), 10_000, 50_000)
    start = time.perf_counter()
    refine_nc1wl(g)
    big = time.perf_counter() - start
    assert big < 1.0, f"10k-node refinement took {big:.3f}s, bound 1s"

    g16 = random_gnp(named_stream(9, "acceptance-perf3"), 16, 0.4)
    start = time.perf_counter()
    refine_kwl(g16, 3)
    small = time.perf_counter() - start
    assert small < 5.0, f"3-tuple refinement on 16 nodes took {small:.3f}s, bound 5s"
    report(9, f"10k-node refinement {big:.3f}s (<1s); 3-tuple n=16 {small:.3f}s (<5s)")


def test_10_statistics_identity_100_graphs():
    rng = named_stream(10, "acceptance-stats")
    for _ in range(100):
        g = random_gnp(rng, rng.randint(1, 14), rng.uniform(0.1, 0.9))
        s = stats(g)
        assert sum(s.messages_nc_per_node) == 3 * s.triangle_count
        assert s.memory_bound == min(s.edge_count, 3 * s.triangle_count)
    report(10, "per-node neighbor-edge totals equal 3T on 100 random graphs")
