"""Color refinement with neighbor communication.

Graph isomorphism heuristics (plain color refinement, a variant that also
hashes the edges among each node's neighbors, and refinement over ordered
2- and 3-tuples), exact injective multiset encodings over the rationals,
and small GIN-style neural layers with a neighbor-edge term.
"""

from .codec import (
    CodecContext,
    CodecError,
    EpsilonValue,
    ExactRational,
    decode_multiset,
    encode_centered,
    encode_multiset,
    encode_pairwise,
    injectivity_sweep,
)
from .corpus import CorpusEntry, CorpusError, load_corpus
from .graph import (
    Graph,
    GraphFormatError,
    GraphStats,
    NeighborEdge,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    neighbor_edge_lists,
    neighbor_edges,
    parse_edge_list,
    path_graph,
    permute_graph,
    random_gnm,
    random_gnp,
    serialize_edge_list,
    star_graph,
    stats,
    wheel_graph,
)
from .harness import canonical_pair, embedding_gap, separation_count
from .nn import (
    EdgeFeatures,
    Mlp,
    NcGnnLayer,
    NcGnnLayerGrads,
    embed_graph,
    gin_layer_forward,
    gin_layer_forward_edgefeat,
    init_layer,
    init_mlp,
    nc_gnn_layer_backward,
    nc_gnn_layer_forward,
    nc_gnn_layer_forward_edgefeat,
    one_hot_features,
    readout_sum,
    stack_layers,
)
from .refine import (
    KWL_NODE_CAPS,
    METHODS,
    Coloring,
    RefinementReport,
    SignatureInterner,
    brute_force_isomorphic,
    compare,
    refine,
    refine_1wl,
    refine_kwl,
    refine_nc1wl,
)

__version__ = "0.1.0"
