"""Seeded benchmark of the ncwl CLI (end to end) and of its layers (traced).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tri-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` launches every CLI command of the workload as a fresh
process, one at a time, in passes until ``--seconds`` have gone by, checks
each launch's output, and reports per-command median times calibrated
against a fixed reference launch (calibrate.py), the set-up time of a no-op
launch measured the same way, and the peak RSS of the children.
``--trace 1`` runs the same workload's calls in process, once untraced and
once with spans around each layer, and reports the per-layer metrics.
Human-readable lines go first; the last line of stdout is one JSON object.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import checks
from checks import DEFAULT_SEED
from inprocess import Inputs, run_pass
from launch import cli_env, run_cli, run_python
from spans import Tracer, installed
from workloads import MESH_WIDTH, WORKLOADS, make_plan, write_inputs

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
CALIBRATE = HERE / "calibrate.py"
TIMEOUT_S = 120.0
EMBED_ARGS = ["--variant", "nc", "--dim", "16", "--layers", "2"]


class Run:
    """Counts attempted and failed ops and remembers why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.errors.append(f"{what}: {error}")


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"n={n} median={statistics.median(values):.4f}"
    if n >= 20:
        p = 100 * (1 - 10 / n)
        rank = min(n - 1, int(p / 100 * n))
        note += f" p{p:.0f}={sorted(values)[rank]:.4f}"
    else:
        note += " (no percentile above the median has 10 samples beyond it)"
    return note


def check_setup(launch) -> str | None:
    error = checks.check_launch(launch)
    if error is None and not launch.stdout.startswith("usage: ncwl"):
        error = "no usage text"
    return error


def cli_ops(plan, paths: dict[str, str], index: int) -> list[tuple[str, list[str]]]:
    """(metric, argv) of pass ``index``.

    Even passes use the graph, odd passes its permuted twin. ``suite`` gets
    seed ``index`` in pass ``index``, on every workload and run seed: the
    brute-force cost of its random pairs varies several-fold from draw to
    draw, so run seeds that drew other pairs would measure other work.
    """
    g, other = (paths["graph"], paths["twin"]) if index % 2 == 0 else (paths["twin"], paths["graph"])
    alphabet, max_card = plan.codec
    return [
        ("setup_s", ["--help"]),
        ("refine_s", ["refine", g, "--method", plan.method, "--format", "tsv"]),
        ("compare_s", ["compare", g, other, "--method", plan.method]),
        ("stats_s", ["stats", g]),
        ("embed_s", ["gnn-embed", g, *EMBED_ARGS]),
        ("suite_s", ["suite", "--seed", str(index), "--random-pairs", str(plan.suite_pairs)]),
        ("codec_check_s", ["codec-check", "--alphabet", str(alphabet), "--max-card", str(max_card)]),
    ]


class OutputChecks:
    """Per-metric output checks; references come from the first launch of each kind."""

    def __init__(self, plan, triangles: int, digests: dict[str, str] | None):
        self.plan = plan
        self.triangles = triangles
        self.digests = digests
        self.refine_profile = None
        self.embed_stdout = None

    def check(self, metric: str, index: int, launch) -> str | None:
        if metric == "setup_s":
            return check_setup(launch)
        error = checks.check_launch(launch)
        if error:
            return error
        out = launch.stdout
        if self.digests is not None:
            error = checks.check_digest(out, self.digests.get(f"{metric}/{index}"))
            if error:
                return error
        if metric == "refine_s":
            orbits = checks.mesh_orbits(MESH_WIDTH) if self.plan.workload == "mesh-rounds" else None
            error = checks.check_refine(out, self.refine_profile, orbits)
            if error is None and self.refine_profile is None:
                self.refine_profile = checks.class_size_profile(out)
            return error
        if metric == "compare_s":
            return checks.check_compare(out)
        if metric == "stats_s":
            g = self.plan.graph
            return checks.check_stats(out, g.n, len(g.edges), self.triangles)
        if metric == "embed_s":
            if self.embed_stdout is None:
                self.embed_stdout = out
            return checks.check_same(out, self.embed_stdout, "gnn-embed")
        if metric == "suite_s":
            return checks.check_suite(out)
        return checks.check_codec(out)


def check_calibration(launch) -> str | None:
    error = checks.check_launch(launch)
    if error is None and launch.stdout.strip() != str(calibrate.CHECKSUM):
        error = f"calibration printed {launch.stdout.strip()[:40]!r}, expected {calibrate.CHECKSUM}"
    return error


def end_to_end(plan, paths, env, work: Path, seconds: float, run: Run, digests) -> dict:
    """Calibrated seconds per CLI command, and the peak RSS of the run.

    Calibration launches (calibrate.py) alternate with the CLI launches, so
    each CLI launch has one right before and one right after it. Its sample
    is its wall time over the mean wall time of those two, times
    ``calibrate.REFERENCE_S``. Passes repeat until ``seconds`` have gone by,
    at least two whole ones; after that the run stops between launches.
    Raw wall medians are printed alongside; every launch goes to
    ``launches.json`` in the work directory.
    """
    outputs = OutputChecks(plan, checks.triangle_count(plan.graph.n, plan.graph.edges), digests)
    launches: list[dict] = []
    calibrations: list[float] = []
    peak = 0.0

    def calibration() -> None:
        cal = run_python([str(CALIBRATE)], env, work, TIMEOUT_S)
        run.record(f"calibration/{len(calibrations)}", check_calibration(cal))
        calibrations.append(cal.wall_s)

    def time_left() -> bool:
        return time.perf_counter() - start < seconds

    calibration()
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time_left():
        for metric, args in cli_ops(plan, paths, passes):
            if passes >= 2 and not time_left():
                break
            launch = run_cli(args, env, work, TIMEOUT_S)
            run.record(f"{metric}/{passes}", outputs.check(metric, passes, launch))
            launches.append({"metric": metric, "pass": passes, "wall_s": launch.wall_s})
            peak = max(peak, launch.peak_rss_mb)
            calibration()
        passes += 1

    walls: dict[str, list[float]] = {"calibration": calibrations}
    calibrated: dict[str, list[float]] = {}
    for i, launch in enumerate(launches):
        launch["calibration_s"] = (calibrations[i] + calibrations[i + 1]) / 2
        walls.setdefault(launch["metric"], []).append(launch["wall_s"])
        ratio = launch["wall_s"] / launch["calibration_s"]
        calibrated.setdefault(launch["metric"], []).append(ratio * calibrate.REFERENCE_S)
    (work / "launches.json").write_text(json.dumps(launches), encoding="utf-8")
    for name, values in walls.items():
        print(f"  wall {name:23s} {statistics.median(values):14.6g} s      {percentile_note(values)}")
    metrics = {metric: (values, "s") for metric, values in calibrated.items()}
    metrics["peak_rss_mb"] = ([peak], "MB")
    return metrics


def import_ncwl(src: Path) -> SimpleNamespace:
    """The checkout's ncwl submodules by name (the package re-exports ``refine``
    and ``stats`` as functions, which hide the submodules of those names)."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("ncwl")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ncwl imported from {package.__file__}, not from {src}")
    subs = ("graph", "refine", "nn", "codec", "harness", "cli")
    return SimpleNamespace(**{sub: importlib.import_module(f"ncwl.{sub}") for sub in subs})


def layer_metrics(tr: Tracer, res, plan, inputs: Inputs) -> dict[str, tuple[float, str]]:
    c = res.values["counters"]
    main_s = tr.total(f"refine.{plan.method}")
    pairs_s = tr.total("pairs.compare") + tr.total("refine.brute_force_isomorphic")
    index = "graph.neighbor_edge_lists"
    nc1wl_s, compare_s = tr.total("refine.nc1wl"), tr.total("refine.compare")
    return {
        "graph.parse_s": (tr.total("graph.parse_edge_list"), "s"),
        "graph.edges": (len(plan.graph.edges), "count"),
        "graph.nbr_index_s": (tr.total(index), "s"),
        "graph.triangles": (res.values["triangles"], "count"),
        "graph.nc_messages": (res.values["nc_messages"], "count"),
        "graph.union_s": (tr.total("graph.disjoint_union"), "s"),
        "graph.index_calls": (tr.count(index), "count"),
        "refine.1wl_s": (tr.total("refine.1wl"), "s"),
        "refine.nc1wl_s": (nc1wl_s, "s"),
        "refine.nc1wl_index_share": (tr.child_seconds("refine.nc1wl", index) / nc1wl_s, "ratio"),
        "refine.2wl_s": (tr.total("refine.2wl"), "s"),
        "refine.3wl_s": (tr.total("refine.3wl"), "s"),
        "refine.compare_s": (compare_s, "s"),
        "refine.compare_self_s": (compare_s - tr.child_seconds("refine.compare", "graph."), "s"),
        "refine.rounds": (c.rounds, "count"),
        "refine.classes": (c.classes, "count"),
        "refine.entity_rounds": (c.entity_rounds, "count"),
        "refine.entity_rounds_per_s": (c.entity_rounds / main_s, "1/s"),
        "refine.useful_share": (c.useful_share, "ratio"),
        "refine.pairs_per_s": (len(inputs.pairs) / pairs_s, "1/s"),
        "refine.oracle_s": (tr.total("refine.brute_force_isomorphic"), "s"),
        "nn.embed_s": (tr.total("nn.embed_graph_nc"), "s"),
        "nn.nc_forward_s": (tr.total("nn.nc_gnn_layer_forward"), "s"),
        "nn.mlp2_s": (tr.total("nn.mlp2"), "s"),
        "nn.pair_rows": (sum(s.rows for s in tr.spans if s.name == "nn.mlp2"), "count"),
        "nn.gin_forward_s": (tr.total("nn.gin_layer_forward"), "s"),
        "nn.mlp1_s": (tr.total("nn.mlp1"), "s"),
        "nn.readout_s": (tr.total("nn.readout_sum"), "s"),
        "codec.sweep_s": (tr.total("codec.sweep"), "s"),
        "codec.encodings": (res.values["encodings"], "count"),
        "cli.overhead_s": (tr.total("cli.main") - tr.child_seconds("cli.main"), "s"),
    }


def traced(plan, paths, work: Path, src: Path, seconds: float, run: Run) -> dict:
    nc = import_ncwl(src)
    triangles = checks.triangle_count(plan.graph.n, plan.graph.edges)
    inputs = Inputs.build(nc, plan, paths["graph"], triangles)
    samples: dict[str, tuple[list[float], str]] = {}
    tracers = []
    run_pass(nc, plan, inputs)  # warm-up: first-call and allocator costs stay out of the figures
    start = time.perf_counter()
    last = 0.0
    while not tracers or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain = run_pass(nc, plan, inputs)
        tr = Tracer()
        with installed(tr, nc) as roles:
            res = run_pass(nc, plan, inputs, tr, roles)
        tracers.append(tr)
        last = time.perf_counter() - began
        for label, result in (("untraced", plain), ("traced", res)):
            for op in result.seconds:
                run.record(f"{label} {op}", result.errors.get(op))
        if res.errors or plain.errors:
            continue
        values = layer_metrics(tr, res, plan, inputs)
        values["trace.overhead_share"] = ((res.total_s - plain.total_s) / plain.total_s, "ratio")
        for name, (value, unit) in values.items():
            samples.setdefault(name, ([], unit))[0].append(value)
    spans = [vars(s) | {"iteration": i} for i, tr in enumerate(tracers) for s in tr.spans]
    (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return samples


def load_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


def record_digests(plan, paths, env, work: Path) -> None:
    """Write the stdout digests of the first two passes (graph, twin) at the default seed."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table[plan.workload] = {
        f"{metric}/{index}": checks.digest(run_cli(args, env, work, TIMEOUT_S).stdout)
        for index in (0, 1)
        for metric, args in cli_ops(plan, paths, index)
        if metric != "setup_s"
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests",
        action="store_true",
        help=f"rewrite this workload's stdout digests (seed must be {DEFAULT_SEED})",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "ncwl" / "__init__.py").is_file():
        print(f"error: no ncwl sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / args.workload
    plan = make_plan(args.workload, args.seed)
    paths = write_inputs(plan, work)
    env = cli_env(src)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            print(f"error: digests are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        record_digests(plan, paths, env, work)
        return 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    run = Run()
    if args.trace:
        samples = traced(plan, paths, work, src, args.seconds, run)
    else:
        digests = load_digests(args.workload, args.seed)
        samples = end_to_end(plan, paths, env, work, args.seconds, run, digests)

    metrics = {}
    for name, (values, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:28s} {value:14.6g} {unit:6s} {percentile_note(values)}")
    failed = len(run.errors)
    rate = failed / max(run.attempted, 1)
    print(f"  {'error_rate':28s} {rate:14.6g} ratio  ({failed} of {run.attempted} ops failed)")
    for error in run.errors:
        print(f"  FAILED {error}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
