"""Tests of the benchmark's own code: counters, output checks, spans, inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from counters import split_members, work_counters  # noqa: E402
from inprocess import Inputs, run_pass  # noqa: E402
from launch import Launch  # noqa: E402
from run import OutputChecks, check_calibration, cli_ops, import_ncwl  # noqa: E402
from spans import Tracer, installed  # noqa: E402


@pytest.fixture(scope="module")
def nc():
    return import_ncwl(HERE.parent / "src")


def launch(stdout: str = "", stderr: str = "", exit_code: int = 0, timed_out: bool = False) -> Launch:
    return Launch(("python3", "-m", "ncwl"), 0.1, exit_code, stdout, stderr, 30.0, timed_out)


# counters


def test_p4_under_1wl_hand_computed(nc):
    # round 1 splits the single class (4 useful entity-rounds), round 2 splits nothing
    c = work_counters(nc.refine.refine_1wl(nc.graph.path_graph(4)))
    assert (c.rounds, c.classes, c.entity_rounds, c.useful_entity_rounds) == (2, 2, 8, 4)
    assert c.useful_share == 4 / 8


def test_split_members_counts_only_classes_that_split():
    assert split_members([0, 0, 0, 0], [0, 1, 1, 0]) == 4
    assert split_members([0, 1, 1, 0], [0, 1, 1, 0]) == 0
    assert split_members([0, 0, 1, 1, 1], [0, 0, 1, 2, 1]) == 3
    assert split_members([], []) == 0


# output checks: each fires on a wrong expected value and passes on the right one


def test_triangle_count_matches_brute_force():
    g = workloads.gnp(workloads.random.Random(3), 12, 0.5)
    edges = set(g.edges)
    brute = sum(
        1
        for a in range(g.n)
        for b in range(a + 1, g.n)
        for c in range(b + 1, g.n)
        if {(a, b), (a, c), (b, c)} <= edges
    )
    assert checks.triangle_count(g.n, list(g.edges)) == brute


def test_mesh_orbits_match_refinement_on_a_small_mesh(nc):
    g = workloads.triangulated_grid(workloads.random.Random(0), 6)
    final = nc.refine.refine_nc1wl(nc.graph.parse_edge_list(g.text()))[-1]
    assert final.num_classes == checks.mesh_orbits(6) == 12
    assert checks.mesh_orbits(70) == 1260


def test_check_launch_fires_on_exit_traceback_and_timeout():
    assert checks.check_launch(launch()) is None
    assert "exit 1" in checks.check_launch(launch(exit_code=1))
    assert "traceback" in checks.check_launch(
        launch(stderr="Traceback (most recent call last):\n  ...\nZeroDivisionError: x")
    )
    assert "timed out" in checks.check_launch(launch(exit_code=-9, timed_out=True))


REFINE_TSV = "0\t1\t0:4\n1\t2\t0:2,1:2\n2\t2\t0:2,1:2\n"


def test_check_refine():
    profile = checks.class_size_profile(REFINE_TSV)
    assert profile == ((4,), (2, 2), (2, 2))
    assert checks.check_refine(REFINE_TSV, profile, orbits=2) is None
    assert "differ" in checks.check_refine(REFINE_TSV, ((4,), (1, 3), (1, 3)), None)
    assert "orbits" in checks.check_refine(REFINE_TSV, None, orbits=3)
    assert "unparsable" in checks.check_refine("0\t2\t0:4\n", None, None)


def test_check_compare():
    assert checks.check_compare("NOT-DISTINGUISHED iters=3\n") is None
    assert checks.check_compare("DISTINGUISHED iter=1\n") is not None


def test_check_stats():
    out = "nodes=4 edges=5 T=2 sum_nc=6 avg_nc=3/2 max_nc=2 max_degree=3 membound=5\n"
    assert checks.check_stats(out, 4, 5, 2) is None
    assert "T=2" in checks.check_stats(out, 4, 5, 3)
    assert "edges" in checks.check_stats(out, 4, 6, 2)
    bad_sum = out.replace("sum_nc=6", "sum_nc=5")
    assert "sum_nc" in checks.check_stats(bad_sum, 4, 5, 2)


def test_check_same_suite_codec_digest():
    assert checks.check_same("1 2\n", "1 2\n", "gnn-embed") is None
    assert checks.check_same("1 2\n", "1 3\n", "gnn-embed") is not None
    assert checks.check_suite("PASS x\n6/6 checks passed\n") is None
    assert checks.check_suite("FAIL x\n5/6 checks passed\n") is not None
    assert checks.check_suite("") is not None
    assert checks.check_codec("injectivity: 12 pairwise and 24 centered encodings, all distinct") is None
    assert checks.check_codec("error") is not None
    assert checks.check_digest("abc", checks.digest("abc")) is None
    assert checks.check_digest("abc", checks.digest("abd")) is not None
    assert checks.check_digest("abc", None) is None


def test_output_checks_compare_against_the_first_launch():
    plan = workloads.make_plan("small-pairs", 1)
    g = plan.graph
    triangles = checks.triangle_count(g.n, list(g.edges))
    out = OutputChecks(plan, triangles, digests={"compare_s/0": checks.digest("x")})
    assert out.check("embed_s", 0, launch("1 2\n")) is None
    assert out.check("embed_s", 1, launch("1 2\n")) is None
    assert out.check("embed_s", 1, launch("1 2.5\n")) is not None
    assert out.check("refine_s", 0, launch(REFINE_TSV)) is None
    assert out.check("refine_s", 1, launch("0\t1\t0:4\n1\t1\t0:4\n")) is not None
    assert "digest" in out.check("compare_s", 0, launch("NOT-DISTINGUISHED iters=2\n"))
    stats = f"nodes={g.n} edges={len(g.edges)} T={triangles} sum_nc={3 * triangles}\n"
    assert out.check("stats_s", 0, launch(stats)) is None
    assert out.check("stats_s", 0, launch(stats.replace(f"T={triangles}", "T=0"))) is not None


def test_calibration_prints_its_checksum():
    assert calibrate.colors_after_refinement() + calibrate.distinct_after_mixing() == calibrate.CHECKSUM
    assert check_calibration(launch(f"{calibrate.CHECKSUM}\n")) is None
    assert check_calibration(launch(f"{calibrate.CHECKSUM + 1}\n")) is not None
    assert check_calibration(launch(f"{calibrate.CHECKSUM}\n", exit_code=1)) is not None


def test_suite_draws_are_the_same_for_every_run_seed():
    paths = {"graph": "g.txt", "twin": "h.txt"}

    def suite_args(seed: int, index: int) -> list[str]:
        return dict(cli_ops(workloads.make_plan("small-pairs", seed), paths, index))["suite_s"]

    assert suite_args(1, 3) == suite_args(2, 3)
    assert suite_args(1, 3) != suite_args(1, 4)


def test_in_process_checks_fire_on_wrong_expected_values(nc, tmp_path):
    plan = dataclasses.replace(workloads.make_plan("small-pairs", 2), codec=(2, 1))
    plan = dataclasses.replace(plan, pairs=plan.pairs[:3] + plan.pairs[-3:])
    paths = workloads.write_inputs(plan, tmp_path)
    triangles = checks.triangle_count(plan.graph.n, list(plan.graph.edges))
    good = run_pass(nc, plan, Inputs.build(nc, plan, paths["graph"], triangles))
    assert good.errors == {}
    bad = run_pass(nc, plan, Inputs.build(nc, plan, paths["graph"], triangles + 1))
    assert list(bad.errors) == ["stats"]
    # a non-isomorphic "permuted" pair must be flagged by the oracle check
    a, b = plan.pairs[-1]
    swapped = dataclasses.replace(plan, pairs=((a, workloads.Graph(a.n + 1, ())),) * 2)
    inputs = Inputs.build(nc, swapped, paths["graph"], triangles)
    assert "pairs" in run_pass(nc, swapped, inputs).errors


# spans


def test_self_time_is_span_minus_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("child"):
            pass
        with tr.span("other"):
            with tr.span("child"):
                pass
    outer, first, other, nested = tr.spans
    assert first.parent == 0 and nested.parent == 2
    assert tr.child_seconds("outer") == pytest.approx(first.seconds + other.seconds)
    assert tr.child_seconds("outer", "child") == pytest.approx(first.seconds)
    assert tr.count("child") == 2


def test_installed_wrappers_record_children_and_are_removed(nc):
    original = nc.refine.neighbor_edge_lists
    g = nc.graph.complete_graph(4)
    tr = Tracer()
    with installed(tr, nc):
        with tr.span("refine.compare"):
            nc.refine.compare(g, g, "nc1wl")
    assert nc.refine.neighbor_edge_lists is original
    names = [s.name for s in tr.spans]
    assert names == ["refine.compare", "graph.disjoint_union", "graph.neighbor_edge_lists"]
    assert all(s.parent == 0 for s in tr.spans[1:])


# inputs


def test_plans_are_seeded_and_twins_are_permutations():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_plan(name, 5), workloads.make_plan(name, 5)
        assert a == b
        assert a.graph != workloads.make_plan(name, 6).graph
        assert len(a.twin.edges) == len(a.graph.edges)
        degrees = lambda g: sorted(sum(1 for e in g.edges if v in e) for v in range(g.n))  # noqa: E731
        assert degrees(a.twin) == degrees(a.graph)


def test_workload_sizes():
    tri = workloads.make_plan("tri-dense", 1).graph
    assert (tri.n, len(tri.edges)) == (700, 19600)
    mesh = workloads.make_plan("mesh-rounds", 1).graph
    assert (mesh.n, len(mesh.edges)) == (2500, 7301)
    assert checks.triangle_count(mesh.n, list(mesh.edges)) == 4802
    kwl = workloads.make_plan("kwl-tuples", 1)
    assert (kwl.graph.n, kwl.k2.n, kwl.method) == (26, 181, "3wl")
    small = workloads.make_plan("small-pairs", 1)
    assert (len(small.pairs), small.suite_pairs, small.codec) == (400, 100, (4, 2))
