"""Role extraction for directed graphs via low-rank similarity factors."""

from .clustering import (ClusterModel, ClusterValidation, DegenerateDataError,
                         EstimateConfig, cluster_validated, kmeans,
                         kmeans_pp_init, normalize_rows, validate,
                         within_bound)
from .graph import (BenchmarkSpec, DirectedGraph, EdgeListParseError,
                    ReducedGraph, RolePartition, degrees, extract_reduced,
                    generate_planted, load_edge_list, load_partition,
                    save_edge_list, save_partition)
from .kestimate import (KEstimateResult, hierarchical_estimate, k_moving,
                        svd_estimate)
from .metrics import contingency, entropy, nmi
from .similarity import (DivergenceError, SimilarityConfig, SimilarityFactor,
                         SpectralGapError, beta_estimate, browet_factor,
                         initial_factor, salton_factor)

__version__ = "0.8.0"
