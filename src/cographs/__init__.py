"""Cographs: recognition, connectivity invariants, and keeping trees.

A cograph is built from single vertices by disjoint union and join
(equivalently, it contains no induced P4).  This library recognizes
cographs, computes their connectivity invariants in closed form from the
cotree, classifies maximal / super / ideal connectedness, and constructively
extracts connectivity-keeping trees: subtree copies whose vertex or edge
deletion provably preserves a connectivity property.  A brute-force oracle
independently verifies every construction at desk scale.
"""

from .analysis import (
    AnalysisReport,
    analyze,
    degrees,
    is_connected_cograph,
    is_ideally_connected,
    is_k_connected_cograph,
    is_k_edge_connected_cograph,
    is_maximally_connected,
    is_super_edge_connected,
    kappa_cograph,
    lambda_cograph,
)
from .cotree import (
    Cotree,
    RecognitionResult,
    cocomponents,
    components,
    cotree_from_graph,
    find_induced_p4,
    format_expression,
    materialize,
    parse_expression,
)
from .embed import (
    embed_across,
    extend_embedding,
    greedy_embed,
    keep_connectivity_edge_delete,
    keep_connectivity_edge_delete_two,
    keep_edge_connectivity_edge_delete,
    keep_edge_connectivity_vertex_delete,
    keep_maximal_connectedness,
    keep_super_edge_connectivity,
    keep_vertex_connectivity,
    keep_vertex_connectivity_bound,
    keep_vertex_connectivity_two,
)
from .embedding import DeleteMode, DisjointPair, Embedding, Preserved
from .errors import (
    ArityError,
    BadSpecError,
    BoundViolatedError,
    CographError,
    DegreeTooLowError,
    DisconnectedError,
    EdgeListSyntaxError,
    EmptySetError,
    ExpressionSyntaxError,
    IsKmError,
    MissingCrossEdgeError,
    NotACographError,
    NotKConnectedError,
    NotKEdgeConnectedError,
    NotMaximallyConnectedError,
    NotSuperError,
    ParamViolationError,
    PartTooSmallError,
    PostconditionFailedError,
    TooLargeError,
    UnknownEdgeError,
    UnknownVertexError,
    WouldBeEmptyError,
)
from .generators import (
    TightExample,
    enumerate_cotrees,
    named_tree,
    random_cotree,
    random_tree,
    tight_example,
)
from .graph import (
    Graph,
    TreeShape,
    delete_edges,
    delete_vertices,
    edge_connectivity_flow,
    format_edge_list,
    induced_subgraph,
    internally_disjoint_paths,
    is_k_connected,
    is_k_edge_connected,
    read_edge_list,
    vertex_connectivity_flow,
)
from .oracle import (
    CutRecord,
    ProvenNone,
    enumerate_subtree_embeddings,
    exhaustive_keeping_search,
    has_induced_2k2,
    min_edge_cuts,
)

__version__ = "0.1.0"
