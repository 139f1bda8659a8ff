"""Color refinement with neighbor communication.

Graph isomorphism heuristics (plain color refinement, a variant that also
hashes the edges among each node's neighbors, and refinement over ordered
2- and 3-tuples), exact injective multiset encodings over the rationals,
and small GIN-style neural layers with a neighbor-edge term.

``import ncwl`` loads no submodule and not numpy: each exported name loads
the submodule that defines it on first access (PEP 562).
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

#: The refinement methods, weakest first. Defined here, not in the numpy
#: module :mod:`ncwl.refine` that runs them, so the CLI can offer them as
#: choices without loading numpy.
METHODS = ("1wl", "nc1wl", "2wl", "3wl")


def named_stream(seed: int, name: str):
    """The ``random.Random`` stream ``name`` of ``seed``: the suite's checks and
    ``codec-check`` draw their randomness from these."""
    import random

    # str seeding hashes via sha512 internally: deterministic across runs
    return random.Random(f"{seed}/{name}")


# The exported names of each submodule. The submodule names themselves are
# exported too, and ``refine`` names the function, not its submodule.
_EXPORTS = {
    "codec": """CodecContext CodecError EpsilonValue ExactRational decode_multiset
        encode_centered encode_multiset encode_pairwise injectivity_sweep""",
    "corpus": "CorpusEntry CorpusError load_corpus",
    "graph": """Graph GraphFormatError GraphStats NeighborEdge complete_graph cycle_graph
        disjoint_union empty_graph neighbor_edge_lists neighbor_edges parse_edge_list
        path_graph permute_graph random_gnm random_gnp serialize_edge_list star_graph stats
        wheel_graph""",
    "harness": "embedding_gap separation_count",
    "nn": """EdgeFeatures Mlp NcGnnLayer NcGnnLayerGrads embed_graph gin_layer_forward
        gin_layer_forward_edgefeat init_layer init_mlp nc_gnn_layer_backward
        nc_gnn_layer_forward nc_gnn_layer_forward_edgefeat one_hot_features readout_sum
        stack_layers""",
    "refine": """KWL_NODE_CAPS Coloring RefinementReport brute_force_isomorphic compare
        refine refine_1wl refine_kwl refine_nc1wl""",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted({"METHODS", "named_stream", *_EXPORTS, *_HOMES})


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule ncwl.refine binds it here under its own
        # name; the package keeps exporting the function instead
        if name == "refine" and isinstance(value, _ModuleType):
            value = value.refine
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
