"""What each import and command loads: the package's names resolve on first
use, and the CLI loads only the modules the command runs."""

from __future__ import annotations

import contextlib
import importlib
import os
import subprocess
import sys

import pytest

import ncwl
import ncwl.cli
from ncwl.cli import main

# The public names ``dir(ncwl)`` listed when ``import ncwl`` imported every
# submodule, by defining submodule, less ``SignatureInterner``, which a plain
# dict replaced, and ``canonical_pair``, which the harness no longer needs
# since it embeds each pair as given; the submodules' own names were there too.
EXPORTED = {
    "codec": (
        "CodecContext CodecError EpsilonValue ExactRational decode_multiset encode_centered "
        "encode_multiset encode_pairwise injectivity_sweep"
    ),
    "corpus": "CorpusEntry CorpusError load_corpus",
    "graph": (
        "Graph GraphFormatError GraphStats NeighborEdge complete_graph cycle_graph "
        "disjoint_union empty_graph neighbor_edge_lists neighbor_edges parse_edge_list "
        "path_graph permute_graph random_gnm random_gnp serialize_edge_list star_graph stats "
        "wheel_graph"
    ),
    "harness": "embedding_gap separation_count",
    "nn": (
        "EdgeFeatures Mlp NcGnnLayer NcGnnLayerGrads embed_graph gin_layer_forward "
        "gin_layer_forward_edgefeat init_layer init_mlp nc_gnn_layer_backward "
        "nc_gnn_layer_forward nc_gnn_layer_forward_edgefeat one_hot_features readout_sum "
        "stack_layers"
    ),
    "refine": (
        "KWL_NODE_CAPS METHODS Coloring RefinementReport brute_force_isomorphic compare "
        "refine refine_1wl refine_kwl refine_nc1wl"
    ),
}
SUBMODULES = ("codec", "corpus", "graph", "harness", "nn")


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    # COLUMNS fixes argparse's help width, here and in the tests' own process
    env = {**os.environ, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_pinned_names_are_the_submodules_objects():
    names = [name for names in EXPORTED.values() for name in names.split()] + list(SUBMODULES)
    assert len(names) == 63
    assert set(names) <= set(dir(ncwl))
    for module, exported in EXPORTED.items():
        home = importlib.import_module(f"ncwl.{module}")
        for name in exported.split():
            assert getattr(ncwl, name) is getattr(home, name), name
    for module in SUBMODULES:
        assert getattr(ncwl, module) is sys.modules[f"ncwl.{module}"]
    assert ncwl.METHODS is sys.modules["ncwl.refine"].METHODS
    assert ncwl.named_stream is importlib.import_module("ncwl.suite").named_stream


def test_unknown_names_raise_attribute_error():
    for module in (ncwl, ncwl.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
        assert not hasattr(module, "no_such_name")


def test_method_choices_are_the_package_tuple():
    parser = ncwl.cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("refine", "compare"):
        method = next(a for a in subparsers[command]._actions if a.dest == "method")
        assert method.choices is ncwl.METHODS


# Each list of steps runs in a fresh interpreter; only then does the test
# read ``ncwl.refine``, since reading it earlier would load the submodule
# through the package's own lookup.
REFINE = "sys.modules['ncwl.refine'].refine"
IMPORT_ORDERS = {
    "import ncwl.refine": ["import ncwl.refine"],
    "import as": [f"import ncwl.refine as r; assert r is {REFINE}, r"],
    "import ncwl.cli": ["import ncwl.cli"],
    "main refine": ["import ncwl.cli", "ncwl.cli.main(['refine', sys.argv[1]])"],
    "cli, then ncwl.refine": ["import ncwl.cli", "import ncwl.refine"],
    "another refine name": ["from ncwl import compare"],
}


@pytest.mark.parametrize("steps", IMPORT_ORDERS.values(), ids=IMPORT_ORDERS)
def test_refine_and_stats_stay_functions(tmp_path, steps):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    script = [
        "import contextlib, io, sys, types",
        "import ncwl",
        "with contextlib.redirect_stdout(io.StringIO()):",
        *(f"    {step}" for step in steps),
        "for name in ('refine', 'stats'):",
        "    assert isinstance(getattr(ncwl, name), types.FunctionType), getattr(ncwl, name)",
        f"assert ncwl.refine is {REFINE}",
    ]
    res = python("\n".join(script), str(path))
    assert res.returncode == 0, res.stderr


def test_harness_does_not_load_refine():
    res = python("import sys, ncwl.harness; assert 'ncwl.refine' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_cli_hooks_resolve_after_importing_the_cli_alone(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    script = """
import contextlib, io, sys
import ncwl.cli
hooks = {"parse_edge_list": "ncwl.graph", "_counted_rounds": "ncwl.refine"}
for name, home in hooks.items():
    assert getattr(ncwl.cli, name) is getattr(sys.modules[home], name), name
calls = []
def wrap(name, fn):
    return lambda *args: calls.append(name) or fn(*args)
for name in hooks:
    setattr(ncwl.cli, name, wrap(name, getattr(ncwl.cli, name)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert ncwl.cli.main(["refine", sys.argv[1], "--method", "nc1wl"]) == 0
    assert calls == ["parse_edge_list", "_counted_rounds"], calls
    assert ncwl.cli.main(["compare", sys.argv[1], sys.argv[1], "--method", "3wl"]) == 0
assert calls[2:] == ["parse_edge_list", "parse_edge_list", "_counted_rounds"], calls
lines = out.getvalue().splitlines()
assert lines[0] == "iteration 0: classes=1 histogram=0:3", lines
assert lines[-1] == "NOT-DISTINGUISHED iters=1", lines
"""
    res = python(script, str(path))
    assert res.returncode == 0, res.stderr


# Runs ``python -m ncwl`` as runpy does for ``-m``, then reports at exit
# whether numpy was ever imported.
NO_NUMPY_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(f"numpy imported: {'numpy' in sys.modules}\\n"))
sys.argv[0] = "ncwl"
runpy.run_module("ncwl", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    ("argv", "exit_code"),
    [
        (["--help"], 0),
        (["codec-check"], 0),
        (["codec-check", "--alphabet", "4", "--max-card", "2"], 0),
        (["codec-check", "--base", "3"], 2),
    ],
    ids=["help", "codec-check", "alphabet-4-card-2", "base-3"],
)
def test_help_and_codec_check_never_import_numpy(monkeypatch, capsys, argv, exit_code):
    monkeypatch.setenv("COLUMNS", "80")
    res = python(NO_NUMPY_PROBE, *argv)
    assert res.returncode == exit_code, res.stderr
    assert res.stderr.endswith("numpy imported: False\n")
    # the same bytes as the CLI run in this process, where numpy is loaded
    with contextlib.suppress(SystemExit):
        assert main(argv) == exit_code
    assert res.stdout == capsys.readouterr().out


def imported_modules(*argv: str) -> set[str]:
    """The modules a fresh ``python -X importtime -m ncwl`` run of ``argv`` imports."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ncwl", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    lines = [line for line in res.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_commands_import_only_what_they_run():
    # fresh processes: this one holds dataclasses and fractions already. The
    # log omits the submodules, which import_module loads, not their imports.
    codec_check = imported_modules("codec-check", "--alphabet", "4", "--max-card", "2")
    assert "fractions" in codec_check
    assert not {"numpy", "dataclasses"} & codec_check
    corpus_file = os.path.join(os.path.dirname(ncwl.__file__), "corpus_data", "prism.txt")
    refine = imported_modules("refine", "--method", "nc1wl", corpus_file)
    assert "numpy" in refine
    assert "fractions" not in refine
