"""Command-line front end.

Exit codes: 0 success (for ``compare``: not distinguished), 1 the graphs
were distinguished (``compare``) or a suite check failed, 2 usage or input
errors. All commands are deterministic given identical flags, inputs, and
seed. The engines are sequential. :func:`main` sets
``OPENBLAS_NUM_THREADS=1`` unless the variable is set, before any command
loads numpy, so OpenBLAS starts no worker thread to compete with them;
``gnn-embed`` prints the same bytes at one and two.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path

from . import METHODS, named_stream

#: The library names the commands call, by defining submodule. None is
#: loaded with this module: each command binds its own (:func:`_bind`), so
#: ``--help`` and ``codec-check`` never load numpy.
_LIBRARY = {
    name: module
    for module, names in {
        "graph": "_neighbor_edge_total disjoint_union parse_edge_list serialize_edge_list stats",
        "nn": "embed_graph seeded_rng stack_layers",
        "refine": "_counted_rounds _histogram_line",
        "suite": "run_suite",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LIBRARY[name]}", __package__), name)
    return value


def _bind(*names: str) -> None:
    """Bind each of ``names`` not bound yet; one bound already, such as a
    wrapper set on this module, stays."""
    for name in names:
        if name not in globals():
            __getattr__(name)


#: Largest array ``gnn-embed`` may allocate (one-hot input, layer weights,
#: node embeddings, neighbor rows, which bound MLP2's pair rows too), largest
#: per-layer work of the nc pair-term sums (3T * dim entries read), and
#: largest sum of all its layers' parameters, in float64 entries: 2**25
#: entries is 256 MiB.
MAX_EMBED_ARRAY_ENTRIES = 2**25
#: Largest injectivity sweep ``codec-check`` may run, in objects built:
#: the pair universe plus every pairwise and centered encoding.
MAX_CODEC_SWEEP = 300_000
#: Largest count a guard message prints in full. A guard counts no further
#: and prints a larger count as "more than" this, so no flag value makes it
#: compute or print a number of thousands of digits.
_COUNT_CEILING = 10**18


def _count(value: int) -> str:
    """``value`` in digits, or "more than" :data:`_COUNT_CEILING` above it."""
    return str(value) if value <= _COUNT_CEILING else f"more than {_COUNT_CEILING}"


def _capped_comb(n: int, k: int) -> int:
    """``math.comb(n, k)``, or ``_COUNT_CEILING + 1`` if that is larger."""
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        # comb(n - k + i, i), which grows with i
        value = value * (n - k + i) // i
        if value > _COUNT_CEILING:
            return _COUNT_CEILING + 1
    return value


def _sweep_size(alphabet: int, max_card: int) -> int:
    """The objects the injectivity sweep builds (the pair universe plus every
    pairwise and centered encoding), or ``_COUNT_CEILING + 1`` if more."""
    cap = _COUNT_CEILING + 1
    pairs = alphabet * (alphabet + 1) // 2
    # every factor is at least 1, so a product past the ceiling stays past it
    encodings = min(alphabet + 1, cap)
    for n in (alphabet + max_card, pairs + max_card):
        encodings = min(encodings * _capped_comb(n, max_card), cap)
    return min(pairs + encodings, cap)


def _read_graph(path: str):
    _bind("parse_edge_list")
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _emit(fields: list[str], fmt: str) -> None:
    print("\t".join(fields) if fmt == "tsv" else " ".join(fields))


def cmd_refine(args) -> int:
    _bind("_counted_rounds", "_histogram_line")
    g = _read_graph(args.graph)
    last = None
    # each round as it comes; its ids are dense, so entry c of counts is class c
    for it, (_, (counts,)) in enumerate(_counted_rounds(args.method, [g], args.k_cap)):
        # only the final round repeats the counts before it, and reuses their line
        if last is None or len(counts) != len(last) or (counts != last).any():
            hist = _histogram_line(counts) or "-"
        last = counts
        if args.format == "tsv":
            print(f"{it}\t{len(counts)}\t{hist}")
        else:
            print(f"iteration {it}: classes={len(counts)} histogram={hist}")
    if args.format != "tsv":
        print(f"converged after {it} iterations")
    return 0


def cmd_compare(args) -> int:
    _bind("_counted_rounds")
    g1 = _read_graph(args.graph1)
    g2 = _read_graph(args.graph2)
    rounds = _counted_rounds(args.method, [g1, g2], args.k_cap)
    # both counts of a round have the class count as length
    for it, (_, (counts1, counts2)) in enumerate(rounds):
        if (counts1 != counts2).any():
            _emit(["DISTINGUISHED", f"iter={it}"], args.format)
            return 1
    _emit(["NOT-DISTINGUISHED", f"iters={it}"], args.format)
    return 0


def cmd_stats(args) -> int:
    _bind("stats")
    s = stats(_read_graph(args.graph))
    fields = [
        f"nodes={s.node_count}",
        f"edges={s.edge_count}",
        f"T={s.triangle_count}",
        f"sum_nc={sum(s.messages_nc_per_node)}",
        f"avg_nc={s.avg_messages_nc}",
        f"max_nc={s.max_messages_nc}",
        f"max_degree={s.max_degree}",
        f"membound={s.memory_bound}",
    ]
    _emit(fields, args.format)
    return 0


def cmd_union(args) -> int:
    _bind("disjoint_union", "serialize_edge_list")
    g1 = _read_graph(args.graph1)
    g2 = _read_graph(args.graph2)
    union, offset = disjoint_union(g1, g2)
    print(f"# offset={offset}")
    print(serialize_edge_list(union), end="")
    return 0


def cmd_suite(args) -> int:
    _bind("run_suite")
    root = Path(args.corpus) if args.corpus else None
    results = run_suite(seed=args.seed, random_pairs=args.random_pairs, corpus_root=root)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        _emit([status, r.name, f"({r.detail})"], args.format)
    _emit([f"{len(results) - failed}/{len(results)}", "checks passed"], args.format)
    return 0 if failed == 0 else 1


def cmd_gnn_embed(args) -> int:
    _bind("_neighbor_edge_total", "seeded_rng", "stack_layers", "embed_graph")
    g = _read_graph(args.graph)
    num_labels = max(g.labels, default=0) + 1
    n, dim = g.node_count, args.dim
    # one-hot input, then (with layers) mlp weights, node embeddings and one
    # row per neighbor (2m), which also bounds MLP2's rows (at most one per
    # edge); for nc the guard also bounds 3T * dim, the per-layer work of the
    # pair-term sums, which read one MLP2 row per neighbor-edge through 3T ids
    sizes = [n * num_labels]
    if args.layers:
        sizes += [num_labels * dim, n * dim, dim * dim, 2 * g.edge_count * dim]
        # 3T is counted only when every other size fits, so a refusal they
        # settle counts no triangle; exact wherever it could exceed the
        # limit, so the message names it
        if args.variant == "nc" and max(sizes) <= MAX_EMBED_ARRAY_ENTRIES:
            sizes.append(_neighbor_edge_total(g, MAX_EMBED_ARRAY_ENTRIES // dim) * dim)
    if max(sizes) > MAX_EMBED_ARRAY_ENTRIES:
        raise ValueError(
            f"an array of {_count(max(sizes))} entries (nodes={_count(n)}, "
            f"edges={_count(g.edge_count)}, labels={_count(num_labels)}, dim={_count(dim)}) "
            f"exceeds the limit of {MAX_EMBED_ARRAY_ENTRIES}"
        )
    # a layer from width w holds mlp1 (w -> dim -> dim) and mlp2 (w -> w -> w)
    per_layer = [w * dim + dim * dim + 2 * dim + 2 * w * w + 2 * w for w in (num_labels, dim)]
    params = per_layer[0] + (args.layers - 1) * per_layer[1] if args.layers else 0
    if params > MAX_EMBED_ARRAY_ENTRIES:
        raise ValueError(
            f"the layers' {_count(params)} parameter entries (layers={_count(args.layers)}, "
            f"labels={_count(num_labels)}, dim={_count(dim)}) exceed the limit of "
            f"{MAX_EMBED_ARRAY_ENTRIES}"
        )
    layers = stack_layers(seeded_rng(args.seed, "gnn-embed"), num_labels, args.dim, args.layers)
    vec = embed_graph(g, layers, num_labels, variant=args.variant)
    values = [f"{x:.17g}" for x in vec]
    _emit(values, args.format)
    return 0


def cmd_codec_check(args) -> int:
    from fractions import Fraction

    from . import codec

    required = max(2 * args.max_card, 2)
    base = args.base if args.base is not None else 2 * required + 3
    if base <= required:
        print(
            f"error: base {_count(base)} too small: need base > {_count(required)} "
            f"for multisets of cardinality up to {_count(args.max_card)}",
            file=sys.stderr,
        )
        return 2
    sweep = _sweep_size(args.alphabet, args.max_card)
    if sweep > MAX_CODEC_SWEEP:
        print(
            f"error: --alphabet {_count(args.alphabet)} --max-card {_count(args.max_card)} "
            f"sweep builds {_count(sweep)} objects, over the limit of {MAX_CODEC_SWEEP}",
            file=sys.stderr,
        )
        return 2

    # fixed decoding fixture: 1/1 + 1/16 + 1/16 under base 4
    fixture_ctx = codec.CodecContext(base=4)
    value = codec.encode_multiset(fixture_ctx, [0, 2, 2])
    # decoded only once the value is right, so a wrong one fails the check
    if value != Fraction(9, 8) or codec.decode_multiset(value, 4) != (0, 2, 2):
        print(f"error: fixture: encode {{0,2,2}} base 4 gave {value}, not 9/8", file=sys.stderr)
        return 1
    print("fixture: encode {{0,2,2}} base 4 == 9/8 and decodes back: ok")

    rng = named_stream(args.seed, "codec-roundtrip")
    roundtrip_ctx = codec.CodecContext(base=64)
    for _ in range(500):
        xs = sorted(rng.randrange(20) for _ in range(rng.randint(0, 12)))
        if codec.decode_multiset(codec.encode_multiset(roundtrip_ctx, xs), 64) != tuple(xs):
            print("error: round-trip mismatch", file=sys.stderr)
            return 1
    print("round-trip: 500 random multisets: ok")

    symbols = [f"x{i}" for i in range(args.alphabet)]
    try:
        # base > 2 * max_card was checked above, so a CodecError is a collision
        pairwise, centered = codec.injectivity_sweep(
            codec.CodecContext(base=base), symbols, args.max_card
        )
    except codec.CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"injectivity: {pairwise} pairwise and {centered} centered encodings, all distinct")
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("human", "tsv"),
        default="human",
        help="human-readable or tab-separated records (default: human)",
    )


def _bounded_int(low: int, high: int | None = None):
    """argparse type: an integer in [low, high] (no upper bound when high is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {value}")
        return value

    return parse


_seed_type = _bounded_int(0, 2**64 - 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncwl",
        description=(
            "Color refinement (plain, neighbor-communication, and k-tuple variants), "
            "graph statistics, exact multiset codecs, and small graph neural layers."
        ),
        epilog=(
            "exit codes: 0 success / not distinguished; 1 distinguished (compare) "
            "or failed checks (suite); 2 errors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="print per-iteration color histograms of one graph")
    p.add_argument("graph")
    p.add_argument("--method", choices=METHODS, default="1wl")
    p.add_argument(
        "--k-cap", type=_bounded_int(0), default=None, help="node cap for the 2wl/3wl methods"
    )
    _add_format(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("compare", help="joint refinement verdict for a graph pair")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--method", choices=METHODS, default="nc1wl")
    p.add_argument("--k-cap", type=_bounded_int(0), default=None)
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="triangle and neighbor-edge statistics of one graph")
    p.add_argument("graph")
    _add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("union", help="print the disjoint union of two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("suite", help="run the corpus and random property checks")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--random-pairs", type=_bounded_int(0), default=200)
    p.add_argument("--corpus", default=None, help="directory overriding the packaged corpus")
    _add_format(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("gnn-embed", help="print a graph embedding from seeded random layers")
    p.add_argument("graph")
    p.add_argument("--layers", type=_bounded_int(0), default=2)
    p.add_argument("--dim", type=_bounded_int(1), default=8)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--variant", choices=("nc", "gin"), default="nc")
    _add_format(p)
    p.set_defaults(func=cmd_gnn_embed)

    p = sub.add_parser("codec-check", help="run the exact-codec fixtures and injectivity sweep")
    p.add_argument(
        "--alphabet", type=_bounded_int(1), default=3, help="number of distinct symbols"
    )
    p.add_argument(
        "--max-card", type=_bounded_int(0), default=2, help="max cardinality of each multiset"
    )
    p.add_argument("--base", type=int, default=None, help="override the encoding base")
    p.add_argument("--seed", type=_seed_type, default=0)
    p.set_defaults(func=cmd_codec_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    # The engines are sequential, so OpenBLAS's worker thread only spins
    # against them; numpy reads this once, when the first command loads it.
    # A value the user set stays.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that has gone away shows here, not in the flush at exit;
        # launched with stdout closed, there is no stdout and print drops output
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nothing more can reach the reader: the exit's flush of what is
        # still buffered goes to the null device, and stderr stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    # GraphFormatError, CorpusError and CodecError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
