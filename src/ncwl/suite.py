"""Self-check suites: corpus verdicts plus seeded random-graph properties.

Every check draws its randomness from a named stream derived from one seed,
so a failing run can be reproduced exactly from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import named_stream
from .corpus import _hierarchy_violations, load_corpus
from .graph import Graph, permute_graph, random_gnp, stats
from .refine import METHODS, brute_force_isomorphic, compare, refine_1wl, refine_nc1wl
from .refine import _VERDICT_CHUNK, _verdicts


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_corpus_verdicts(corpus_root=None) -> CheckResult:
    failures = []
    entries = load_corpus(corpus_root)
    for entry in entries:
        g1, g2 = entry.graphs()
        for method, expected in entry.verdicts.items():
            got = compare(g1, g2, method).verdict
            if got != expected:
                failures.append(f"{entry.name}/{method}: expected {expected}, got {got}")
    detail = "; ".join(failures) if failures else f"{len(entries)} entries reproduced"
    return CheckResult("corpus-verdicts", not failures, detail)


def check_corpus_oracle(corpus_root=None) -> CheckResult:
    failures = []
    checked = 0
    for entry in load_corpus(corpus_root):
        g1, g2 = entry.graphs()
        if entry.oracle_isomorphic is None or max(g1.node_count, g2.node_count) > 10:
            continue
        checked += 1
        if brute_force_isomorphic(g1, g2) != entry.oracle_isomorphic:
            failures.append(entry.name)
    detail = "; ".join(failures) if failures else f"{checked} entries oracle-checked"
    return CheckResult("corpus-oracle", not failures, detail)


def _judged_pairs(draw, rng: random.Random, count: int):
    """(index, pair, verdict per method) of ``count`` pairs of ``draw(rng)``, in draw order.

    Pairs are drawn and judged :data:`_VERDICT_CHUNK` at a time, so that a
    node method judges a chunk in one run.
    """
    for start in range(0, count, _VERDICT_CHUNK):
        chunk = [draw(rng) for _ in range(min(_VERDICT_CHUNK, count - start))]
        split = [_verdicts(chunk, m) for m in METHODS]
        for i, pair in enumerate(chunk):
            yield start + i, pair, {m: verdicts[i] for m, verdicts in zip(METHODS, split)}


def _permuted_pair(rng: random.Random) -> tuple[Graph, Graph]:
    n = rng.randint(1, 10)
    g = random_gnp(rng, n, rng.uniform(0.1, 0.9), num_labels=rng.choice([1, 1, 2]))
    perm = list(range(n))
    rng.shuffle(perm)
    return g, permute_graph(g, perm)


def check_soundness(seed: int, trials: int) -> CheckResult:
    """No method may distinguish a graph from a random relabeling of itself."""
    rng = named_stream(seed, "soundness")
    failures = []
    for t, _, verdicts in _judged_pairs(_permuted_pair, rng, trials):
        for method in METHODS:
            if verdicts[method]:
                failures.append(f"trial {t}: {method} split a permuted copy")
    detail = "; ".join(failures[:5]) if failures else f"{trials} permuted pairs, all methods agree"
    return CheckResult("soundness", not failures, detail)


def _hierarchy_pair(rng: random.Random) -> tuple[Graph, Graph]:
    n = rng.randint(2, 8)
    g1 = random_gnp(rng, n, rng.uniform(0.2, 0.8))
    kind = rng.random()
    if kind < 0.3:
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = permute_graph(g1, perm)
    elif kind < 0.9:
        g2 = random_gnp(rng, n, rng.uniform(0.2, 0.8))
    else:
        g2 = random_gnp(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
    return g1, g2


def _hierarchy_problems(g1: Graph, g2: Graph, verdicts: dict[str, bool]) -> list[str]:
    """The hierarchy violations of one pair's verdicts, checked against the oracle."""
    return _hierarchy_violations(verdicts, brute_force_isomorphic(g1, g2))


def run_hierarchy_trial(rng: random.Random) -> list[str]:
    """One random pair, all methods plus the oracle; returns violations."""
    g1, g2 = _hierarchy_pair(rng)
    return _hierarchy_problems(g1, g2, {m: compare(g1, g2, m).distinguished for m in METHODS})


def check_hierarchy(seed: int, pairs: int) -> CheckResult:
    rng = named_stream(seed, "hierarchy")
    failures = []
    for t, (g1, g2), verdicts in _judged_pairs(_hierarchy_pair, rng, pairs):
        for problem in _hierarchy_problems(g1, g2, verdicts):
            failures.append(f"pair {t}: {problem}")
    detail = "; ".join(failures[:5]) if failures else f"{pairs} random pairs, no violations"
    return CheckResult("hierarchy", not failures, detail)


def check_stats_identity(seed: int, graphs: int = 100) -> CheckResult:
    """Sum of per-node neighbor-edge counts is three times the triangle count."""
    rng = named_stream(seed, "stats")
    failures = []
    for t in range(graphs):
        g = random_gnp(rng, rng.randint(1, 14), rng.uniform(0.1, 0.9))
        s = stats(g)
        if sum(s.messages_nc_per_node) != 3 * s.triangle_count:
            failures.append(f"graph {t}: message total != 3T")
        if s.memory_bound != min(s.edge_count, 3 * s.triangle_count):
            failures.append(f"graph {t}: memory bound mismatch")
    detail = "; ".join(failures[:5]) if failures else f"{graphs} random graphs"
    return CheckResult("stats-identity", not failures, detail)


def check_triangle_free_degeneracy(seed: int, graphs: int = 25) -> CheckResult:
    """On bipartite (hence triangle-free) graphs both node refinements coincide."""
    rng = named_stream(seed, "triangle-free")
    failures = []
    for t in range(graphs):
        n = rng.randint(2, 12)
        left = rng.randint(1, n - 1)
        edges = [
            (i, j) for i in range(left) for j in range(left, n) if rng.random() < 0.5
        ]
        g = Graph.build(n, edges)
        plain = refine_1wl(g)
        nc = refine_nc1wl(g)
        if [c.colors for c in plain] != [c.colors for c in nc]:
            failures.append(f"graph {t}: sequences diverge")
    detail = "; ".join(failures[:5]) if failures else f"{graphs} triangle-free graphs"
    return CheckResult("triangle-free-degeneracy", not failures, detail)


def run_suite(seed: int = 0, random_pairs: int = 200, corpus_root=None) -> list[CheckResult]:
    return [
        check_corpus_verdicts(corpus_root),
        check_corpus_oracle(corpus_root),
        check_soundness(seed, max(1, random_pairs)),
        check_hierarchy(seed, max(1, random_pairs)),
        check_stats_identity(seed),
        check_triangle_free_degeneracy(seed),
    ]
