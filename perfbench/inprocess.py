"""One in-process pass over a workload's calls, traced or not.

The same ops run in both modes; with a tracer every public call gets a
span, so (traced - untraced) / untraced is the tracing overhead. Each op
checks its own result and never raises: an exception or a failed check is
recorded as that op's error.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from counters import work_counters
from spans import Tracer, codec_sweep
from workloads import MESH_WIDTH, Plan
from checks import mesh_orbits

EMBED_DIM, EMBED_LAYERS = 16, 2


@dataclass
class Inputs:
    """Parsed copies of the plan's side inputs, built once before any pass."""

    path: str
    text: str
    twin_text: str
    k2: object
    k3: object
    pairs: list
    triangles: int

    @classmethod
    def build(cls, nc, plan: Plan, path: str, triangles: int) -> "Inputs":
        parse = nc.graph.parse_edge_list
        return cls(
            path=path,
            text=plan.graph.text(),
            twin_text=plan.twin.text(),
            k2=parse(plan.k2.text()),
            k3=parse(plan.k3.text()),
            pairs=[(parse(a.text()), parse(b.text())) for a, b in plan.pairs],
            triangles=triangles,
        )


@dataclass
class PassResult:
    seconds: dict[str, float] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # op -> error
    values: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


def run_pass(nc, plan: Plan, inputs: Inputs, tracer: Tracer | None = None, roles=None) -> PassResult:
    result = PassResult()
    state: dict = {}

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    def parse_graph():
        state["g"] = call("graph.parse_edge_list", nc.graph.parse_edge_list, inputs.text)
        if state["g"].edge_count != len(plan.graph.edges):
            return "parsed edge count differs from the input"

    def parse_twin():
        state["h"] = call("graph.parse_edge_list", nc.graph.parse_edge_list, inputs.twin_text)

    def stats():
        s = call("graph.stats", nc.graph.stats, state["g"])
        result.values["triangles"] = s.triangle_count
        result.values["nc_messages"] = sum(s.messages_nc_per_node)
        if s.triangle_count != inputs.triangles or result.values["nc_messages"] != 3 * inputs.triangles:
            return f"stats T={s.triangle_count}, expected {inputs.triangles} (sum_nc = 3T)"

    def refine(name, fn, graph, *args):
        def op():
            state[name] = call(f"refine.{name}", fn, graph(), *args)
        return op

    def compare():
        report = call("refine.compare", nc.refine.compare, state["g"], state["h"], plan.method)
        if report.distinguished:
            return "isomorphic pair distinguished"

    def pairs():
        permuted = len(inputs.pairs) // 2
        for i, (a, b) in enumerate(inputs.pairs):
            split = [
                call("pairs.compare", nc.refine.compare, a, b, m).distinguished
                for m in nc.refine.METHODS
            ]
            iso = call("refine.brute_force_isomorphic", nc.refine.brute_force_isomorphic, a, b)
            if (i < permuted and not iso) or (iso and any(split)):
                return f"pair {i}: oracle {iso}, verdicts {split}"

    def embed(variant):
        def op():
            g = state["g"]
            num_labels = max(g.labels, default=0) + 1
            layers = nc.nn.stack_layers(
                nc.harness.seeded_rng(0, "gnn-embed"), num_labels, EMBED_DIM, EMBED_LAYERS
            )
            if roles is not None:
                for layer in layers:
                    roles[id(layer.mlp1)], roles[id(layer.mlp2)] = "mlp1", "mlp2"
            vec = call(f"nn.embed_graph_{variant}", nc.nn.embed_graph, g, layers, num_labels, variant=variant)
            if vec.shape != (EMBED_DIM,) or not np.isfinite(vec).all():
                return f"embedding of shape {vec.shape} with non-finite entries"
        return op

    def cli_refine():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["refine", inputs.path, "--method", plan.method, "--format", "tsv"]
            code = call("cli.main", nc.cli.main, argv)
        if code != 0 or not out.getvalue():
            return f"exit {code}"

    def codec():
        alphabet, max_card = plan.codec
        result.values["encodings"] = call("codec.sweep", codec_sweep, nc, alphabet, max_card, call)

    ops = [
        ("parse_graph", parse_graph),
        ("parse_twin", parse_twin),
        ("stats", stats),
        ("refine_1wl", refine("1wl", nc.refine.refine_1wl, lambda: state["g"])),
        ("refine_nc1wl", refine("nc1wl", nc.refine.refine_nc1wl, lambda: state["g"])),
        ("refine_2wl", refine("2wl", nc.refine.refine_kwl, lambda: inputs.k2, 2)),
        ("refine_3wl", refine("3wl", nc.refine.refine_kwl, lambda: inputs.k3, 3)),
        ("compare", compare),
        ("pairs", pairs),
        ("embed_nc", embed("nc")),
        ("embed_gin", embed("gin")),
        ("codec", codec),
        ("cli_refine", cli_refine),
    ]
    for name, op in ops:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            error = op()
        except Exception as exc:  # an op that raises fails; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        result.seconds[name] = time.perf_counter() - start
        if error:
            result.errors[name] = error

    main = state.get(plan.method)
    if main is not None:
        result.values["counters"] = work_counters(main)
        if plan.workload == "mesh-rounds" and main[-1].num_classes != mesh_orbits(MESH_WIDTH):
            result.errors[f"refine_{plan.method}"] = f"final classes {main[-1].num_classes} != orbits"
    return result
