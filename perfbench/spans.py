"""Spans around the calls into each ``ncwl`` layer, and the in-process pass.

The benchmark's traced run records one span per call to a public ``ncwl``
function: name, start, end, parent span and op id. Spans stay in memory and
are written out when the run ends. To see the index and union work inside
``compare`` and ``embed_graph``, the traced run (and only it) replaces the
``graph`` functions at the names where ``ncwl.graph``, ``ncwl.refine`` and
``ncwl.nn`` look them up, the ``nn`` layer forwards, readout and ``Mlp``
forward, and the library calls ``ncwl.cli`` makes for ``refine``, and
restores them afterwards. A span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations_with_replacement


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    rows: int = 0  # input rows, recorded for Mlp spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def child_seconds(self, name: str, child_prefix: str = "") -> float:
        """Time of direct children (optionally by name prefix) of spans called ``name``."""
        ids = {i for i, s in enumerate(self.spans) if s.name == name}
        return sum(
            s.seconds for s in self.spans if s.parent in ids and s.name.startswith(child_prefix)
        )


@contextmanager
def installed(tracer: Tracer, nc):
    """Wrap the package's internal call sites; restore them on exit.

    ``Mlp`` spans are named by role (mlp1/mlp2) from the layer objects the
    pass creates; the method wrapped is the one the layer forwards call.
    """
    index, union = "graph.neighbor_edge_lists", "graph.disjoint_union"
    sites = [
        (nc.graph, "neighbor_edge_lists", index),
        (nc.refine, "neighbor_edge_lists", index),
        (nc.refine, "disjoint_union", union),
        (nc.nn, "neighbor_edge_lists", index),
        (nc.nn, "nc_gnn_layer_forward", "nn.nc_gnn_layer_forward"),
        (nc.nn, "gin_layer_forward", "nn.gin_layer_forward"),
        (nc.nn, "readout_sum", "nn.readout_sum"),
        (nc.cli, "parse_edge_list", "graph.parse_edge_list"),
        (nc.cli, "refine", "refine.refine"),
    ]
    # a name a later version no longer imports is skipped, not an error
    saved = [
        (module, attr, name, getattr(module, attr))
        for module, attr, name in sites
        if hasattr(module, attr)
    ]
    # the layer forwards call Mlp._forward_cached; fall back to the public
    # forward so the trace keeps working if that private helper goes away
    mlp_attr = "_forward_cached" if hasattr(nc.nn.Mlp, "_forward_cached") else "forward"
    mlp_original = getattr(nc.nn.Mlp, mlp_attr)
    roles: dict[int, str] = {}

    def mlp_traced(self, x, *args, **kwargs):
        with tracer.span(f"nn.{roles.get(id(self), 'mlp')}") as record:
            record.rows = x.shape[0]
            return mlp_original(self, x, *args, **kwargs)

    for module, attr, name, fn in saved:
        setattr(module, attr, tracer.wrap(name, fn))
    setattr(nc.nn.Mlp, mlp_attr, mlp_traced)
    try:
        yield roles
    finally:
        setattr(nc.nn.Mlp, mlp_attr, mlp_original)
        for module, attr, _, fn in saved:
            setattr(module, attr, fn)


def codec_sweep(nc, alphabet: int, max_card: int, call) -> int:
    """The codec-check injectivity sweep through the public codec API.

    Returns the number of encodings made; raises ``AssertionError`` on a
    collision.
    """
    symbols = [f"x{i}" for i in range(alphabet)]
    pair_universe = list(combinations_with_replacement(symbols, 2))
    multisets = [
        list(c) for size in range(max_card + 1) for c in combinations_with_replacement(symbols, size)
    ]
    pair_multisets = [
        list(c)
        for size in range(max_card + 1)
        for c in combinations_with_replacement(pair_universe, size)
    ]
    ctx = nc.codec.CodecContext(base=2 * max(2 * max_card, 2) + 3)
    ctx.seed_elements(symbols)
    pairwise = {
        call("codec.encode_pairwise", nc.codec.encode_pairwise, ctx, xs, ws)
        for xs in multisets
        for ws in pair_multisets
    }
    centered = {
        call("codec.encode_centered", nc.codec.encode_centered, ctx, c, xs, ws)
        for c in symbols
        for xs in multisets
        for ws in pair_multisets
    }
    expected = len(multisets) * len(pair_multisets)
    if len(pairwise) != expected or len(centered) != alphabet * expected:
        raise AssertionError("codec encodings collided")
    return len(pairwise) + len(centered)
