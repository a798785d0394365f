"""The ROCK core: links-based agglomerative clustering.

Public surface:

* :class:`~repro.core.pipeline.RockPipeline` -- the full Figure 2
  pipeline (sample, prune, cluster, weed, label);
* :func:`~repro.core.rock.rock` -- one-shot clustering of an in-memory
  point set;
* the building blocks (similarities, neighbor graphs, link tables,
  goodness measures, heaps, sampling, outlier handling, labeling) for
  callers who want to recombine them.
"""

from repro.core.components import UnionFind, connected_components, qrock
from repro.core.dendrogram import Dendrogram
from repro.core.encoding import (
    attribute_item,
    dataset_to_boolean_matrix,
    dataset_to_transactions,
    record_to_transaction,
)
from repro.core.goodness import (
    constant_f,
    criterion_value,
    default_f,
    expected_cross_links,
    expected_intra_links,
    goodness,
    naive_goodness,
)
from repro.core.heaps import AddressableMaxHeap
from repro.core.labeling import (
    ClusterLabeler,
    LabelingIndex,
    compute_normalisers,
    draw_labeling_sets,
    labels_from_clusters,
)
from repro.core.links import (
    LinkTable,
    compute_links,
    dense_link_matrix,
    path_link_matrix,
    sparse_link_table,
    weighted_link_matrix,
)
from repro.core.merge import (
    MERGE_METHODS,
    fast_cluster_with_links,
    resolve_merge_method,
)
from repro.core.neighbors import (
    DEFAULT_MEMORY_BUDGET,
    NeighborGraph,
    adjacency_from_similarity_matrix,
    blocked_neighbor_graph,
    compute_neighbor_graph,
    similarity_matrix,
    supports_blocked,
)
from repro.core.outliers import prune_sparse_points, weed_small_clusters
from repro.core.pipeline import PipelineResult, RockPipeline
from repro.core.plan import FitPlan, resolve_fit_plan
from repro.core.reference import naive_cluster_with_links
from repro.core.rock import (
    FIT_MODES,
    MergeStep,
    RockResult,
    cluster_with_links,
    resolve_fit_mode,
    rock,
)
from repro.core.serialization import load_result, save_result
from repro.core.tuning import ThetaSuggestion, similarity_profile, suggest_theta
from repro.core.sampling import reservoir_sample, reservoir_sample_skip, sample_indices
from repro.core.similarity import (
    JaccardSimilarity,
    LpSimilarity,
    MissingAwareJaccard,
    OverlapSimilarity,
    SimilarityFunction,
    SimilarityTable,
    similarity_from_dict,
    similarity_levels,
    similarity_to_dict,
)

__all__ = [
    "AddressableMaxHeap",
    "Dendrogram",
    "UnionFind",
    "connected_components",
    "qrock",
    "ClusterLabeler",
    "LabelingIndex",
    "compute_normalisers",
    "load_result",
    "similarity_from_dict",
    "similarity_to_dict",
    "naive_cluster_with_links",
    "save_result",
    "similarity_levels",
    "ThetaSuggestion",
    "similarity_profile",
    "suggest_theta",
    "JaccardSimilarity",
    "LinkTable",
    "LpSimilarity",
    "MergeStep",
    "MissingAwareJaccard",
    "NeighborGraph",
    "OverlapSimilarity",
    "PipelineResult",
    "RockPipeline",
    "RockResult",
    "SimilarityFunction",
    "SimilarityTable",
    "DEFAULT_MEMORY_BUDGET",
    "FIT_MODES",
    "FitPlan",
    "MERGE_METHODS",
    "attribute_item",
    "blocked_neighbor_graph",
    "resolve_fit_mode",
    "resolve_fit_plan",
    "cluster_with_links",
    "compute_links",
    "compute_neighbor_graph",
    "constant_f",
    "criterion_value",
    "dataset_to_boolean_matrix",
    "dataset_to_transactions",
    "default_f",
    "dense_link_matrix",
    "draw_labeling_sets",
    "expected_cross_links",
    "expected_intra_links",
    "fast_cluster_with_links",
    "goodness",
    "labels_from_clusters",
    "resolve_merge_method",
    "naive_goodness",
    "path_link_matrix",
    "prune_sparse_points",
    "record_to_transaction",
    "reservoir_sample",
    "reservoir_sample_skip",
    "rock",
    "sample_indices",
    "sparse_link_table",
    "weighted_link_matrix",
    "similarity_matrix",
    "supports_blocked",
    "adjacency_from_similarity_matrix",
    "weed_small_clusters",
]
