"""Seeded inputs for the benchmark's four workloads.

Every input comes from the benchmark's own generators, seeded by
``(workload, seed, purpose)``, so the same seed gives the same files and no
input depends on the code under test. ``ncwl`` only ever sees the text
files this module writes.

Each workload runs the same six CLI commands and the same in-process pass;
what changes is the input each command gets. A workload's focus commands
get large inputs; the others get small ones, so every metric exists on
every workload and stays flat there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("tri-dense", "mesh-rounds", "kwl-tuples", "small-pairs")

#: Sizes of the focus inputs (see README.md for why each was chosen).
TRI_DENSE_NM = (700, 19600)
#: Mesh width of mesh-rounds; the final nc1wl class count is w(w+2)/4.
MESH_WIDTH = 50
KWL_N, KWL_2WL_N, KWL_P = 26, 181, 0.3
SMALL_SUITE_PAIRS = 100


@dataclass(frozen=True)
class Graph:
    """Plain edge-list graph as the benchmark writes it; ids 0..n-1, u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def permuted(self, rng: random.Random) -> "Graph":
        perm = list(range(self.n))
        rng.shuffle(perm)
        return Graph(self.n, _canon((perm[u], perm[v]) for u, v in self.edges))


@dataclass(frozen=True)
class Plan:
    """Everything one workload feeds the program, generated from the seed.

    ``graph``/``twin`` (a seeded permutation of ``graph``) drive refine,
    compare, stats and gnn-embed under ``method``; ``k2``/``k3`` feed the
    2wl/3wl engines in the in-process pass; ``pairs`` are the small
    (graph, other) pairs the in-process pass compares under every method
    and checks with the brute-force oracle; ``suite_pairs`` and ``codec``
    (alphabet, max cardinality) parameterise the suite and codec-check
    commands.
    """

    workload: str
    seed: int
    method: str
    graph: Graph
    twin: Graph
    k2: Graph
    k3: Graph
    pairs: tuple[tuple[Graph, Graph], ...]
    suite_pairs: int
    codec: tuple[int, int]


def _canon(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def gnm(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform graph with exactly m distinct edges."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(chosen)))


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p))


def triangulated_grid(rng: random.Random, w: int) -> Graph:
    """w x w grid plus one diagonal per cell, node ids shuffled by ``rng``."""
    ids = list(range(w * w))
    rng.shuffle(ids)

    def node(i: int, j: int) -> int:
        return ids[i * w + j]

    edges = []
    for i in range(w):
        for j in range(w):
            if j + 1 < w:
                edges.append((node(i, j), node(i, j + 1)))
            if i + 1 < w:
                edges.append((node(i, j), node(i + 1, j)))
            if i + 1 < w and j + 1 < w:
                edges.append((node(i, j), node(i + 1, j + 1)))
    return Graph(w * w, _canon(edges))


def small_pairs(rng: random.Random, count: int) -> tuple[tuple[Graph, Graph], ...]:
    """``count`` permuted pairs (n <= 10) then ``count`` random pairs (n <= 8)."""
    out = []
    for _ in range(count):
        g = gnp(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        out.append((g, g.permuted(rng)))
    for _ in range(count):
        n = rng.randint(2, 8)
        out.append((gnp(rng, n, rng.uniform(0.2, 0.8)), gnp(rng, n, rng.uniform(0.2, 0.8))))
    return tuple(out)


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

    def rng(purpose: str) -> random.Random:
        return random.Random(f"perfbench/{workload}/{seed}/{purpose}")

    method = "nc1wl"
    k2 = gnp(rng("k2"), 16, 0.3)
    k3 = gnp(rng("k3"), 8, 0.3)
    pair_count, suite_pairs, codec = 5, 1, (2, 1)
    if workload == "tri-dense":
        graph = gnm(rng("graph"), *TRI_DENSE_NM)
    elif workload == "mesh-rounds":
        graph = triangulated_grid(rng("graph"), MESH_WIDTH)
    elif workload == "kwl-tuples":
        method = "3wl"
        graph = k3 = gnp(rng("graph"), KWL_N, KWL_P)
        k2 = gnp(rng("k2"), KWL_2WL_N, KWL_P)
    else:
        graph = gnp(rng("graph"), 10, 0.5)
        pair_count, suite_pairs, codec = 200, SMALL_SUITE_PAIRS, (4, 2)
    return Plan(
        workload=workload,
        seed=seed,
        method=method,
        graph=graph,
        twin=graph.permuted(rng("twin")),
        k2=k2,
        k3=k3,
        pairs=small_pairs(rng("pairs"), pair_count),
        suite_pairs=suite_pairs,
        codec=codec,
    )


def write_inputs(plan: Plan, root: Path) -> dict[str, str]:
    """Write the CLI's graph files under ``root``; returns name -> path."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, g in (("graph", plan.graph), ("twin", plan.twin)):
        path = root / f"{plan.workload}-{name}.txt"
        path.write_text(g.text(), encoding="utf-8")
        paths[name] = str(path)
    return paths
