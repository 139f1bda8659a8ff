"""Fixed reference launch that measures how fast the machine is right now.

The end-to-end run launches this script right before every CLI launch and
reports each CLI wall time divided by the wall time of the calibration
launch before it, scaled by ``REFERENCE_S``. On a shared host the speed of
the cores drifts by a fifth or more over minutes, and it moves the
calibration and the CLI launch together, so the ratio stays put while both
wall times move.

The work mirrors a CLI launch without touching ``ncwl``: a fresh
interpreter that imports numpy, builds a seeded random graph in pure
Python, refines its colors with dicts and sorted tuples, and sorts integer
arrays with numpy. It is the same on every workload and seed. The script
prints one checksum, which the benchmark compares with ``CHECKSUM`` so a
calibration launch that did not do its work fails the run.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import random

import numpy as np

#: Wall seconds a calibration launch takes on the machine the benchmark was
#: tuned on (2 vCPUs of an Intel Xeon); calibrated times read as seconds there.
REFERENCE_S = 0.25
#: What ``main`` prints.
CHECKSUM = 32000


def colors_after_refinement(n: int = 2000, m: int = 10000, rounds: int = 3) -> int:
    rng = random.Random("perfbench/calibration")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    while len(seen) < m:
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
    colors = [0] * n
    for _ in range(rounds):
        table: dict = {}
        colors = [
            table.setdefault((colors[v], tuple(sorted(colors[w] for w in adj[v]))), len(table))
            for v in range(n)
        ]
    return len(table)


def distinct_after_mixing(size: int = 30_000, rounds: int = 2) -> int:
    a = np.arange(size, dtype=np.int64)
    for _ in range(rounds):
        a = (a * 40503 + 12345) % 65521
        values = np.unique(a)
    return int(values.size)


def main() -> int:
    print(colors_after_refinement() + distinct_after_mixing())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
