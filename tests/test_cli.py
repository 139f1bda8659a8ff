from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncwl.cli
import ncwl.codec
import ncwl.graph
from ncwl import (
    METHODS,
    complete_graph,
    cycle_graph,
    disjoint_union,
    parse_edge_list,
    path_graph,
    permute_graph,
    random_gnp,
    serialize_edge_list,
    stats,
    wheel_graph,
)
from ncwl import compare as ncwl_compare
from ncwl import refine as ncwl_refine
from ncwl.cli import main
from ncwl.graph import MAX_NEIGHBOR_EDGES, MAX_NODE_COUNT
from ncwl.refine import MAX_TUPLE_ENTITIES

from conftest import graphs, permutations_of
from reference import refine_stdout


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "ncwl", *args], capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    named = {
        "c6": cycle_graph(6),
        "2c3": disjoint_union(complete_graph(3), complete_graph(3))[0],
        "p3": path_graph(3),
        "k3": complete_graph(3),
        "k4": complete_graph(4),
        "w5": wheel_graph(5),
    }
    paths = {}
    for name, g in named.items():
        path = root / f"{name}.txt"
        path.write_text(serialize_edge_list(g))
        paths[name] = str(path)
    return paths


class TestRefineCommand:
    def test_c6_one_class(self, files):
        res = run_cli("refine", files["c6"], "--method", "1wl")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "iteration 0: classes=1 histogram=0:6"
        assert lines[-1] == "converged after 1 iterations"

    def test_p3_two_classes(self, files):
        res = run_cli("refine", files["p3"], "--method", "1wl")
        assert res.returncode == 0
        assert "iteration 1: classes=2" in res.stdout

    def test_k3_nc_one_class(self, files):
        res = run_cli("refine", files["k3"], "--method", "nc1wl")
        assert res.returncode == 0
        assert "iteration 1: classes=1" in res.stdout

    def test_parse_error_exit_2(self, files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\n0 1\n")
        res = run_cli("refine", str(bad))
        assert res.returncode == 2
        assert "line 3" in res.stderr

    def test_tsv_records(self, files):
        res = run_cli("refine", files["p3"], "--method", "1wl", "--format", "tsv")
        rows = [line.split("\t") for line in res.stdout.strip().splitlines()]
        assert rows[0] == ["0", "1", "0:3"]
        assert rows[1][1] == "2"


class TestCompareCommand:
    def test_distinguished_exit_1(self, files):
        res = run_cli("compare", files["c6"], files["2c3"], "--method", "nc1wl")
        assert res.returncode == 1
        assert res.stdout.strip() == "DISTINGUISHED iter=1"

    def test_not_distinguished_exit_0(self, files):
        res = run_cli("compare", files["c6"], files["2c3"], "--method", "1wl")
        assert res.returncode == 0
        assert res.stdout.startswith("NOT-DISTINGUISHED")

    def test_isomorphic_pair_under_3wl_exit_0(self, tmp_path):
        k3 = complete_graph(3, [0, 1, 2])
        a, b = tmp_path / "k3.txt", tmp_path / "k3p.txt"
        a.write_text(serialize_edge_list(k3))
        b.write_text(serialize_edge_list(permute_graph(k3, [1, 2, 0])))
        res = run_cli("compare", str(a), str(b), "--method", "3wl")
        assert res.returncode == 0
        assert res.stdout.startswith("NOT-DISTINGUISHED")

    def test_missing_file_exit_2(self, files):
        res = run_cli("compare", files["c6"], "no-such-file.txt")
        assert res.returncode == 2
        assert "error:" in res.stderr


class TestStatsCommand:
    def test_k4(self, files):
        res = run_cli("stats", files["k4"])
        assert res.returncode == 0
        out = res.stdout.strip()
        for token in ("T=4", "avg_nc=3", "max_nc=3", "membound=6"):
            assert token in out

    def test_c6(self, files):
        out = run_cli("stats", files["c6"]).stdout
        assert "T=0" in out and "avg_nc=0" in out

    def test_w5(self, files):
        out = run_cli("stats", files["w5"]).stdout
        assert "T=5" in out and "sum_nc=15" in out

    def test_tsv_single_tab_separated_record(self, files):
        out = run_cli("stats", files["w5"], "--format", "tsv").stdout
        lines = out.strip().splitlines()
        assert len(lines) == 1
        fields = lines[0].split("\t")
        assert "avg_nc=5/2" in fields


class TestUnionCommand:
    def test_round_trips(self, files):
        res = run_cli("union", files["k3"], files["c6"])
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "# offset=3"
        g = parse_edge_list(res.stdout)
        assert g.node_count == 9
        assert g.edge_count == 9


class TestSuiteCommand:
    def test_passes(self, files):
        res = run_cli("suite", "--seed", "7", "--random-pairs", "20")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "checks passed" in res.stdout
        assert "FAIL" not in res.stdout

    def test_corpus_pair_over_the_3wl_cap_exits_2(self, tmp_path, capsys):
        # the corpus check compares every pair; a verdict run (which checks
        # no cap on pairs of unequal size) would call this pair split, exit 0
        (tmp_path / "a.txt").write_text(serialize_edge_list(path_graph(33)))
        (tmp_path / "b.txt").write_text(serialize_edge_list(path_graph(34)))
        (tmp_path / "manifest.txt").write_text(
            "p33-p34 | a.txt | b.txt | 1wl=d | nc1wl=d | 2wl=d | 3wl=d | iso=f | prov=derived\n"
        )
        assert main(["suite", "--corpus", str(tmp_path), "--random-pairs", "1"]) == 2
        assert "node count 33 exceeds the 3-tuple cap of 32 nodes" in capsys.readouterr().err

    def test_corrupt_corpus_exit_2(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("broken manifest\n")
        res = run_cli("suite", "--corpus", str(tmp_path))
        assert res.returncode == 2
        assert "error:" in res.stderr


class TestGnnEmbedCommand:
    def test_zero_layers_label_histogram(self, files, tmp_path):
        labeled = tmp_path / "labeled.txt"
        labeled.write_text("3 2\n0 1\n1 2\nlabels\n0 0\n1 1\n2 1\n")
        res = run_cli("gnn-embed", str(labeled), "--layers", "0")
        assert res.returncode == 0
        assert res.stdout.split() == ["1", "2"]

    def test_deterministic_given_seed(self, files):
        a = run_cli("gnn-embed", files["c6"], "--seed", "3")
        b = run_cli("gnn-embed", files["c6"], "--seed", "3")
        assert a.stdout == b.stdout

    def test_separates_hexagon_from_triangles(self, files):
        a = run_cli("gnn-embed", files["c6"], "--layers", "2", "--seed", "0")
        b = run_cli("gnn-embed", files["2c3"], "--layers", "2", "--seed", "0")
        va = [float(x) for x in a.stdout.split()]
        vb = [float(x) for x in b.stdout.split()]
        assert max(abs(x - y) for x, y in zip(va, vb)) > 1e-6

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("1 0\nlabels\n0 5000000000\n", ()),
            ("2 1\n0 1\n", ("--dim", "100000")),
            (serialize_edge_list(complete_graph(120)), ("--dim", "40")),
        ],
        ids=["label-5e9", "dim-1e5", "k120-pairs-dim-40"],
    )
    def test_oversized_arrays_exit_2(self, tmp_path, text, flags):
        path = tmp_path / "g.txt"
        path.write_text(text)
        res = run_cli("gnn-embed", str(path), *flags)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "exceeds the limit" in res.stderr
        assert "Traceback" not in res.stderr

    def test_pair_rows_over_the_limit_are_refused_without_an_index(
        self, tmp_path, monkeypatch, capsys
    ):
        # K_200 has 3T = 3940200 pair rows, 35461800 entries at dim 9; the
        # triangles are counted block by block, never stored
        path = tmp_path / "k200.txt"
        path.write_text(serialize_edge_list(complete_graph(200)))

        def refuse(g):
            raise AssertionError("neighbor-edge index built")

        monkeypatch.setattr(ncwl.graph, "_compact_forward", refuse)
        tracemalloc.start()
        try:
            assert main(["gnn-embed", str(path), "--dim", "9"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "error: an array of 35461800 entries (nodes=200, edges=19900, labels=1, dim=9) "
            "exceeds the limit of 33554432\n"
        )
        # the index alone would take 63 MB
        assert peak < 24 * 2**20

    def test_triangles_are_not_counted_when_another_size_is_over_the_limit(
        self, tmp_path, monkeypatch, capsys
    ):
        # dim * dim = 36000000 passes the limit, so 3T * dim (616 M entries
        # on K_60) is never counted, and the message names the largest
        # size that was computed
        path = tmp_path / "k60.txt"
        path.write_text(serialize_edge_list(complete_graph(60)))

        def refuse(g, cap):
            raise AssertionError("triangles counted")

        monkeypatch.setattr(ncwl.cli, "_neighbor_edge_total", refuse, raising=False)
        assert main(["gnn-embed", str(path), "--dim", "6000"]) == 2
        assert capsys.readouterr().err == (
            "error: an array of 36000000 entries (nodes=60, edges=1770, labels=1, dim=6000) "
            "exceeds the limit of 33554432\n"
        )

    @pytest.mark.parametrize("layers, code", [("40", 2), ("2", 0)])
    def test_the_layers_parameters_are_bounded_together(self, files, layers, code):
        # at dim 512 each layer after the first holds about 1.05M entries,
        # under the limit alone; the count is that of any unlabeled graph
        res = run_cli("gnn-embed", files["c6"], "--layers", layers, "--dim", "512")
        assert res.returncode == code, res.stderr
        if code == 2:
            assert res.stdout == ""
            assert res.stderr == (
                "error: the layers' 41238020 parameter entries (layers=40, labels=1, "
                "dim=512) exceed the limit of 33554432\n"
            )
        else:
            assert len(res.stdout.split()) == 512


class TestCodecCheckCommand:
    def test_defaults_pass(self):
        res = run_cli("codec-check")
        assert res.returncode == 0
        assert "9/8" in res.stdout
        assert "280 pairwise" in res.stdout
        assert "840 centered" in res.stdout

    def test_base_too_small_exit_2(self):
        res = run_cli("codec-check", "--max-card", "4", "--base", "5")
        assert res.returncode == 2
        assert "need base > 8" in res.stderr

    @pytest.mark.parametrize(
        "alphabet, max_card", [("100", "4"), ("100000", "0")], ids=["card-4", "pairs-5e9"]
    )
    def test_oversized_sweep_exit_2(self, alphabet, max_card):
        res = run_cli("codec-check", "--alphabet", alphabet, "--max-card", max_card)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "over the limit" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_the_sweep_is_counted_exactly_up_to_the_ceiling(self):
        ceiling = ncwl.cli._COUNT_CEILING
        for alphabet in range(1, 40):
            for max_card in range(0, 12):
                pairs = alphabet * (alphabet + 1) // 2
                exact = pairs + (alphabet + 1) * math.comb(
                    alphabet + max_card, max_card
                ) * math.comb(pairs + max_card, max_card)
                assert ncwl.cli._sweep_size(alphabet, max_card) == min(exact, ceiling + 1)

    def test_benchmark_sweep_passes(self):
        res = run_cli("codec-check", "--alphabet", "4", "--max-card", "2")
        assert res.returncode == 0
        assert "990 pairwise" in res.stdout

    @pytest.mark.parametrize(
        ("encoder", "message"),
        [
            ("encode_multiset", "error: fixture: encode {0,2,2} base 4 gave 0, not 9/8\n"),
            ("encode_pairwise", "error: pairwise collision ([], []) vs ([], [('x0', 'x0')])\n"),
            ("encode_centered", "error: centered encodings collided\n"),
        ],
        ids=["wrong-fixture", "pairwise-collision", "centered-collision"],
    )
    def test_failed_check_exit_1(self, monkeypatch, capsys, encoder, message):
        monkeypatch.setattr(ncwl.codec, encoder, lambda *args: Fraction(0))
        assert main(["codec-check"]) == 1
        assert capsys.readouterr().err == message


class TestCodecCheckOutput:
    @pytest.mark.parametrize(
        ("flags", "injectivity"),
        [
            ((), "280 pairwise and 840 centered"),
            (
                ("--alphabet", "4", "--max-card", "2", "--seed", "3"),
                "990 pairwise and 3960 centered",
            ),
        ],
        ids=["defaults", "alphabet-4-card-2-seed-3"],
    )
    def test_stdout_is_pinned(self, flags, injectivity):
        res = run_cli("codec-check", *flags)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            "fixture: encode {{0,2,2}} base 4 == 9/8 and decodes back: ok\n"
            "round-trip: 500 random multisets: ok\n"
            f"injectivity: {injectivity} encodings, all distinct\n"
        )

    @pytest.mark.parametrize(("alphabet", "max_card"), [(1, 0), (2, 1), (3, 2), (4, 2)])
    def test_size_guard_counts_what_the_sweep_builds(self, monkeypatch, capsys, alphabet, max_card):
        # the pair universe plus every pairwise and centered encoding
        symbols = [f"x{i}" for i in range(alphabet)]
        base = 2 * max(2 * max_card, 2) + 3
        built = alphabet * (alphabet + 1) // 2 + sum(
            ncwl.codec.injectivity_sweep(ncwl.codec.CodecContext(base=base), symbols, max_card)
        )
        argv = ["codec-check", "--alphabet", str(alphabet), "--max-card", str(max_card)]
        monkeypatch.setattr(ncwl.cli, "MAX_CODEC_SWEEP", built - 1)
        assert main(argv) == 2
        assert f"sweep builds {built} objects, over the limit of {built - 1}\n" in (
            capsys.readouterr().err
        )
        monkeypatch.setattr(ncwl.cli, "MAX_CODEC_SWEEP", built)
        assert main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("gnn-embed", "GRAPH", "--dim", "0"),
        ("gnn-embed", "GRAPH", "--dim", "two"),
        ("gnn-embed", "GRAPH", "--layers", "-1"),
        ("gnn-embed", "GRAPH", "--seed", "-1"),
        ("suite", "--random-pairs", "-3"),
        ("codec-check", "--max-card", "-1"),
        ("codec-check", "--alphabet", "0"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_flag_values_exit_2(files, argv):
    res = run_cli(*(files["c6"] if arg == "GRAPH" else arg for arg in argv))
    assert res.returncode == 2, res.stdout + res.stderr
    assert "Traceback" not in res.stderr
    assert argv[-2] in res.stderr


_HUGE = "9" * 2200
_MORE = "more than 1000000000000000000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("codec-check", "--alphabet", "1000000", "--max-card", "1000000"),
            f"--alphabet 1000000 --max-card 1000000 sweep builds {_MORE} objects, "
            "over the limit of 300000",
        ),
        (
            ("codec-check", "--alphabet", "100000", "--max-card", "100000"),
            f"--alphabet 100000 --max-card 100000 sweep builds {_MORE} objects, "
            "over the limit of 300000",
        ),
        (
            ("codec-check", "--alphabet", "1000", "--max-card", "1000"),
            f"--alphabet 1000 --max-card 1000 sweep builds {_MORE} objects, "
            "over the limit of 300000",
        ),
        (
            ("gnn-embed", "GRAPH", "--dim", _HUGE),
            f"an array of {_MORE} entries (nodes=3, edges=2, labels=1, dim={_MORE}) "
            "exceeds the limit of 33554432",
        ),
        (
            ("gnn-embed", "GRAPH", "--layers", _HUGE),
            f"the layers' {_MORE} parameter entries (layers={_MORE}, labels=1, dim=8) "
            "exceed the limit of 33554432",
        ),
    ],
    ids=["codec-1e6", "codec-1e5", "codec-1e3", "embed-dim", "embed-layers"],
)
def test_guards_refuse_huge_flags_quickly_by_name(files, argv, message):
    # the sweep size was once computed in full: the 1e6 flags ran for minutes,
    # and the 1e5 flags and a 2200-digit dim failed in Python's int-to-str limit
    start = time.perf_counter()
    res = run_cli(*(files["p3"] if arg == "GRAPH" else arg for arg in argv))
    elapsed = time.perf_counter() - start
    assert res.returncode == 2, res.stderr
    assert (res.stdout, res.stderr) == ("", f"error: {message}\n")
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ("refine", "GRAPH", "--method", "3wl", "--k-cap", "100000"),
        ("compare", "GRAPH", "GRAPH", "--method", "2wl", "--k-cap", "100000"),
    ],
    ids=["refine-3wl", "compare-2wl"],
)
def test_tuple_universe_over_limit_exits_2_before_allocating(tmp_path, capsys, argv):
    path = tmp_path / "g.txt"
    path.write_text("5000 0\n")
    start = time.perf_counter()
    code = main([str(path) if arg == "GRAPH" else arg for arg in argv])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert elapsed < 1.0
    assert f"exceed the limit of {MAX_TUPLE_ENTITIES}" in capsys.readouterr().err


def test_header_node_count_over_limit_exits_2(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3000000000 0\n")
    res = run_cli("refine", str(path))
    assert res.returncode == 2, res.stdout + res.stderr
    assert "line 1: node count 3000000000 exceeds the limit" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv", [["stats", "k4"], ["compare", "k4", "c6"], ["refine", "w5"]], ids=lambda a: a[0]
)
def test_a_reader_that_closed_gets_exit_2_and_a_quiet_stderr(files, argv):
    # buffered stdout, as behind any pipe unless PYTHONUNBUFFERED is set, fails
    # only when flushed; at the interpreter's exit that was code 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        res = subprocess.run(
            [sys.executable, "-m", "ncwl", argv[0], *(files[name] for name in argv[1:])],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (2, b"")


@pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
@pytest.mark.parametrize(
    "argv, code", [(["stats", "k4"], 0), (["compare", "k4", "c6"], 1), (["union", "k3", "k4"], 0)]
)
def test_a_launch_without_stdout_keeps_its_exit_code(files, argv, code):
    command = [sys.executable, "-m", "ncwl", argv[0], *(files[name] for name in argv[1:])]
    res = subprocess.run(
        f"{shlex.join(command)} >&-", shell=True, stderr=subprocess.PIPE, timeout=120
    )
    assert (res.returncode, res.stderr) == (code, b"")


#: Starts the command in its arguments and prints its exit code and peak RSS.
#: A child's peak RSS starts at the high-water mark of the process that
#: started it, so the CLI is started from this small process, not from
#: pytest, whose own peak would otherwise be read after any earlier test
#: that took hundreds of MiB.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss_mib(tmp_path, *args: str) -> tuple[int, str, float]:
    """Exit code, stderr and peak RSS in MiB of one CLI launch (Linux units)."""
    err = tmp_path / "stderr.txt"
    with err.open("w") as sink:
        launcher = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "ncwl", *args],
            stdout=subprocess.PIPE,
            stderr=sink,
            text=True,
            timeout=300,
        )
    assert launcher.returncode == 0, err.read_text()
    code, peak_kib = map(int, launcher.stdout.split())
    return code, err.read_text(), peak_kib / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("command, bound_mib", [("stats", 256), ("refine", 384)])
def test_two_line_file_at_the_node_limit(tmp_path, command, bound_mib):
    # about 195 and 359 MiB at the time of writing; refine peaked at 391 MiB
    # while it kept every round as a Coloring
    path = tmp_path / "g.txt"
    path.write_text(f"{MAX_NODE_COUNT} 0\n")
    code, err, peak = peak_rss_mib(tmp_path, command, str(path))
    assert code == 0, err
    assert peak < bound_mib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize(
    "argv, n, code, bound_mib",
    [
        (["stats"], 300, 0, 400),
        (["stats"], 330, 2, 256),
        (["refine", "--method", "nc1wl"], 330, 2, 256),
        (["refine", "--method", "nc1wl"], 300, 0, 512),
    ],
)
def test_dense_graphs_below_and_above_the_neighbor_edge_limit(tmp_path, argv, n, code, bound_mib):
    # K_300 has 3T = 13.4M neighbor-edges, within the limit, and K_330 17.8M.
    # At the time of writing, on K_300, stats peaked near 245 MiB (866 MiB
    # while the index lexsorted its rows) and nc1wl refine near 370 MiB (853
    # MiB while the rounds gathered both endpoints of every row), and K_330
    # was refused after about 0.6 s near 171 MiB
    rows = n * (n - 1) * (n - 2) // 2
    assert (rows > MAX_NEIGHBOR_EDGES) == (code == 2)
    path = tmp_path / "k.txt"
    path.write_text(serialize_edge_list(complete_graph(n)))
    exit_code, err, peak = peak_rss_mib(tmp_path, argv[0], str(path), *argv[1:])
    assert exit_code == code, err
    if code == 2:
        assert err == (
            f"error: the neighbor-edge index (nodes={n}, edges={n * (n - 1) // 2}) "
            f"exceeds the limit of {MAX_NEIGHBOR_EDGES} rows\n"
        )
    assert peak < bound_mib


def without_blas_setting(**env: str) -> dict[str, str]:
    """This process's environment without OPENBLAS_NUM_THREADS, plus ``env``."""
    return {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}, **env}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_the_cli_starts_numpy_without_a_blas_worker_unless_asked(files, env, threads):
    if threads > min(os.cpu_count() or 1, len(os.sched_getaffinity(0))):
        pytest.skip("OpenBLAS starts no more threads than there are CPUs")
    script = (
        "import os, sys\n"
        "from ncwl.cli import main\n"
        "main(['stats', sys.argv[1]])\n"
        "assert 'numpy' in sys.modules\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", script, files["k4"]],
        env=without_blas_setting(**env),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) == threads


def test_gnn_embed_prints_the_same_bytes_with_one_and_two_blas_threads(tmp_path):
    # MLP2 takes one pair row per edge in a triangle; past about 1024 rows
    # at dim 16, OpenBLAS splits that product over its threads
    g = random_gnp(random.Random("blas-threads"), 70, 0.5, 2)
    assert len(set(ncwl.graph.neighbor_edge_arrays(g)[1].tolist())) >= 1100
    path = tmp_path / "g.txt"
    path.write_text(serialize_edge_list(g))
    outputs = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-m", "ncwl", "gnn-embed", str(path), "--dim", "16"],
            env=without_blas_setting(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            timeout=120,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_3wl_compare_at_the_tuple_limit_keeps_no_histograms(tmp_path):
    # about 360 MiB at the time of writing, 822 MiB while the command kept
    # every round's histograms in a RefinementReport
    rng = random.Random("3wl-compare-peak")
    g = random_gnp(rng, 101, 0.3, 1)
    perm = list(range(101))
    rng.shuffle(perm)
    paths = [tmp_path / "g.txt", tmp_path / "twin.txt"]
    for path, graph in zip(paths, (g, permute_graph(g, perm))):
        path.write_text(serialize_edge_list(graph))
    argv = ["compare", *map(str, paths), "--method", "3wl", "--k-cap", "101"]
    code, err, peak = peak_rss_mib(tmp_path, *argv)
    assert code == 0, err
    assert peak < 512


def report_stdout(report, fmt: str) -> tuple[int, str]:
    """The ``compare`` exit code and output formatted from a RefinementReport."""
    sep = "\t" if fmt == "tsv" else " "
    if report.distinguished:
        return 1, f"DISTINGUISHED{sep}iter={report.distinguishing_iteration}\n"
    return 0, f"NOT-DISTINGUISHED{sep}iters={report.iterations_run}\n"


def assert_cli_matches_library(g1, g2, method: str) -> str:
    """The streamed ``refine`` of g1 and ``compare`` of (g1, g2) print what the
    library's Colorings and RefinementReport give; returns the verdict line."""
    colorings, report = ncwl_refine(g1, method), ncwl_compare(g1, g2, method)
    with tempfile.TemporaryDirectory() as root:
        paths = [str(Path(root) / "a.txt"), str(Path(root) / "b.txt")]
        for path, g in zip(paths, (g1, g2)):
            Path(path).write_text(serialize_edge_list(g))
        for fmt in ("human", "tsv"):
            for argv, expected in (
                (["refine", paths[0]], (0, refine_stdout(colorings, fmt))),
                (["compare", *paths], report_stdout(report, fmt)),
            ):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main([*argv, "--method", method, "--format", fmt])
                assert (code, out.getvalue()) == expected, argv
    return report_stdout(report, "tsv")[1].strip()


def wide(g):
    """Eight copies of g: past the node count where 1wl and nc1wl sort."""
    for _ in range(3):
        g = disjoint_union(g, g)[0]
    return g


TWO_TRIANGLES = disjoint_union(complete_graph(3), complete_graph(3))[0]
# the degrees of P6; 1wl tells them apart by the neighbors' degrees
TRIANGLE_AND_P3 = disjoint_union(complete_graph(3), path_graph(3))[0]


@pytest.mark.parametrize(
    "g1, g2, method, verdict",
    [
        *((path_graph(0), path_graph(0), m, "NOT-DISTINGUISHED\titers=0") for m in METHODS),
        *((path_graph(2), path_graph(3), m, "DISTINGUISHED\titer=0") for m in METHODS),
        (cycle_graph(6), TWO_TRIANGLES, "1wl", "NOT-DISTINGUISHED\titers=1"),
        (cycle_graph(6), TWO_TRIANGLES, "nc1wl", "DISTINGUISHED\titer=1"),
        (path_graph(6), TRIANGLE_AND_P3, "1wl", "DISTINGUISHED\titer=2"),
        (wide(cycle_graph(6)), wide(TWO_TRIANGLES), "nc1wl", "DISTINGUISHED\titer=1"),
        (wide(path_graph(5)), wide(path_graph(5)), "1wl", "NOT-DISTINGUISHED\titers=3"),
    ],
)
def test_streamed_cli_on_pairs_split_at_each_round(g1, g2, method, verdict):
    assert assert_cli_matches_library(g1, g2, method) == verdict


@given(graphs(max_nodes=7, max_labels=2), st.data(), st.sampled_from(METHODS))
@settings(max_examples=60, deadline=None)
def test_streamed_cli_matches_the_library(g1, data, method):
    twin = permutations_of(g1.node_count).map(lambda perm: permute_graph(g1, perm))
    g2 = data.draw(st.one_of(twin, graphs(max_nodes=7, max_labels=2)))
    assert_cli_matches_library(g1, g2, method)


def triangulated_grid(w: int, rng: random.Random) -> ncwl.graph.Graph:
    """The w x w grid plus one diagonal per cell, node ids shuffled by ``rng``."""
    ids = list(range(w * w))
    rng.shuffle(ids)
    edges = []
    for i in range(w):
        for j in range(w):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                if i + di < w and j + dj < w:
                    edges.append((ids[i * w + j], ids[(i + di) * w + j + dj]))
    return ncwl.graph.Graph.build(w * w, edges)


CORPUS_FILES = sorted(
    path for path in (Path(ncwl.__file__).parent / "corpus_data").glob("*.txt")
    if path.name != "manifest.txt"
)


@pytest.mark.parametrize(
    "name, text, methods",
    [
        *((path.stem, path.read_text(), METHODS) for path in CORPUS_FILES),
        # 3wl: 17576 tuples, discrete at round 2, ids of five digits
        ("gnp26", serialize_edge_list(random_gnp(random.Random(0), 26, 0.3)), METHODS),
        (
            "gnp40-labeled",
            serialize_edge_list(random_gnp(random.Random(1), 40, 0.15, 3)),
            METHODS[:3],
        ),
        ("mesh12", serialize_edge_list(triangulated_grid(12, random.Random(2))), METHODS[:3]),
    ],
)
def test_refine_prints_the_reference_rendering(tmp_path, name, text, methods):
    """``refine`` prints, byte for byte, the f-string rendering of the
    library's colorings: the numpy renderer and the reused final line."""
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    g = parse_edge_list(text)
    for method in methods:
        colorings = ncwl_refine(g, method)
        for fmt in ("human", "tsv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["refine", str(path), "--method", method, "--format", fmt])
            assert (code, out.getvalue()) == (0, refine_stdout(colorings, fmt)), (method, fmt)


@st.composite
def edge_list_texts(draw):
    """A small edge-list file, valid or corrupted in one way."""
    g = draw(graphs(max_nodes=6, max_labels=3))
    n, edges = g.node_count, g.edges()
    lines = serialize_edge_list(g).splitlines()
    fault = draw(
        st.sampled_from(
            ["none", "header", "out-of-range", "duplicate", "huge-label", "drop-line", "comment"]
        )
    )
    if fault == "header":
        lines[0] = draw(
            st.sampled_from(["", "x y", "-1 0", f"{n}", f"{n} 1 2", f"{2**70} 0"])
        )
    elif fault == "out-of-range":
        lines[1 : 1 + len(edges)] = [f"{u} {v}" for u, v in edges] + [f"0 {n}"]
        lines[0] = f"{n} {len(edges) + 1}"
    elif fault == "duplicate":
        extra = f"{edges[0][1]} {edges[0][0]}" if edges else "0 0"
        lines.insert(1, extra)
        lines[0] = f"{n} {len(edges) + 1}"
    elif fault == "huge-label":
        huge = draw(st.sampled_from([2**63, 2**64 + 1, 10**30]))
        lines = lines[: 1 + len(edges)] + ["labels"]
        lines += [f"{v} {huge if v == 0 else lab}" for v, lab in enumerate(g.labels)]
    elif fault == "drop-line" and len(lines) > 1:
        del lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))]
    elif fault == "comment":
        # a comment line anywhere is skipped; one after a line's tokens is not
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        if at < len(lines) and draw(st.booleans()):
            lines[at] += " # after the tokens"
        else:
            lines.insert(at, draw(st.sampled_from(["# a comment", "\t#0 1", "#"])))
    return "\n".join(lines) + "\n"


#: Every command that reads a graph file, with the number of files it reads.
FILE_COMMANDS = {"refine": 1, "compare": 2, "stats": 1, "union": 2, "gnn-embed": 1}


@st.composite
def command_flags(draw, command: str) -> list[str]:
    """The flags a fuzzed launch of ``command`` passes besides its files."""
    if command in ("refine", "compare"):
        k_cap = draw(st.sampled_from([None, "-1", "0", "3", "40"]))
        method = ["--method", draw(st.sampled_from(METHODS))]
        return method + ([] if k_cap is None else ["--k-cap", k_cap])
    if command == "gnn-embed":
        return [
            "--variant", draw(st.sampled_from(["nc", "gin"])),
            "--dim", draw(st.sampled_from(["1", "2", "4"])),
            "--layers", draw(st.sampled_from(["0", "1", "2"])),
        ]
    return []


@given(st.sampled_from(sorted(FILE_COMMANDS)), st.data(), edge_list_texts(), edge_list_texts())
@settings(max_examples=250, deadline=None)
def test_fuzzed_files_keep_the_exit_code_contract(command, data, text1, text2):
    flags = data.draw(command_flags(command))
    with tempfile.TemporaryDirectory() as root:
        paths = [Path(root) / "a.txt", Path(root) / "b.txt"]
        for path, text in zip(paths, (text1, text2)):
            path.write_text(text)
        argv = [command, *map(str, paths[: FILE_COMMANDS[command]]), *flags]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flag values
                code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or command == "compare"
    assert "Traceback" not in err.getvalue()
