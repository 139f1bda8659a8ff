"""Output checks for CLI launches and in-process results.

Every check is independent of the engine under test: it compares a result
with one from an isomorphic copy, with a count made by scipy, with an
automorphism-orbit count, with the brute-force oracle, or with a stdout
digest recorded earlier. Each returns an error message, or ``None`` when the
output is right.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import csr_matrix

from launch import Launch

#: Seed at which recorded stdout digests are compared.
DEFAULT_SEED = 0


def triangle_count(n: int, edges) -> int:
    """Triangles of an undirected graph: trace(A^3) / 6 with scipy."""
    if not edges:
        return 0
    u, v = np.array(edges, dtype=np.int64).T
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    a = csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
    return int((a @ a).multiply(a).sum()) // 6


def mesh_orbits(w: int) -> int:
    """Automorphism orbits of the w x w grid with one diagonal per cell (w even).

    The automorphism group has order 4 (the two diagonal reflections and
    their product); Burnside gives (w^2 + 2w) / 4 orbits.
    """
    return w * (w + 2) // 4


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_launch(launch: Launch) -> str | None:
    if launch.timed_out:
        return f"timed out: {' '.join(launch.argv[2:])}"
    if "Traceback (most recent call last)" in launch.stderr:
        return f"traceback: {launch.stderr.strip().splitlines()[-1]}"
    if launch.exit_code != 0:
        return f"exit {launch.exit_code}, expected 0"
    return None


def class_size_profile(refine_tsv: str) -> tuple[tuple[int, ...], ...]:
    """Per round, the sorted class sizes of ``refine --format tsv`` output."""
    rounds = []
    for line in refine_tsv.splitlines():
        _, classes, hist = line.split("\t")
        sizes = () if hist == "-" else tuple(sorted(int(x.split(":")[1]) for x in hist.split(",")))
        if len(sizes) != int(classes):
            raise ValueError(f"round with {classes} classes lists {len(sizes)} sizes")
        rounds.append(sizes)
    return tuple(rounds)


def check_refine(stdout: str, reference: tuple | None, orbits: int | None) -> str | None:
    """Same class sizes per round as the isomorphic copy; orbit count at the end."""
    try:
        profile = class_size_profile(stdout)
    except (ValueError, IndexError) as exc:
        return f"unparsable refine output: {exc!r}"
    if not profile:
        return "refine printed no rounds"
    if reference is not None and profile != reference:
        return "class sizes per round differ from the isomorphic copy"
    if orbits is not None and len(profile[-1]) != orbits:
        return f"final classes {len(profile[-1])}, expected {orbits} orbits"
    return None


def check_compare(stdout: str) -> str | None:
    """The pair is isomorphic, so the verdict must be NOT-DISTINGUISHED."""
    if not stdout.startswith("NOT-DISTINGUISHED "):
        return f"isomorphic pair reported as {stdout.strip()[:60]!r}"
    return None


def check_stats(stdout: str, nodes: int, edges: int, triangles: int) -> str | None:
    fields = dict(f.split("=", 1) for f in stdout.split() if "=" in f)
    want = {"nodes": nodes, "edges": edges, "T": triangles, "sum_nc": 3 * triangles}
    for key, value in want.items():
        if fields.get(key) != str(value):
            return f"stats {key}={fields.get(key)}, expected {value}"
    return None


def check_same(stdout: str, reference: str | None, what: str) -> str | None:
    if reference is not None and stdout != reference:
        return f"{what} output differs from the isomorphic copy"
    return None


def check_suite(stdout: str) -> str | None:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    done, _, total = last.partition(" ")[0].partition("/")
    if not done or done != total:
        return f"suite summary {last!r}"
    return None


def check_codec(stdout: str) -> str | None:
    if "all distinct" not in stdout:
        return "codec-check reported no injectivity result"
    return None


def check_digest(stdout: str, expected: str | None) -> str | None:
    if expected is not None and digest(stdout) != expected:
        return "stdout differs from the digest recorded at the default seed"
    return None
