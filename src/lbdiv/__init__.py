"""Lovasz-Bregman divergences: distortions between score vectors and
permutations, with rank aggregation, clustering, ranking measures, and
Mallows-style models built on top."""

from .permutation import (Permutation, TieError, TieRule, all_permutations,
                          induced_ordering, kendall_tau, rank_correlation,
                          relabel_scores, spearman_footrule)
from .submodular import (CardinalityConcave, ExplicitTable, GraphCut,
                         Modular, SetFunction, Sum, from_descriptor,
                         is_monotone, is_submodular)
from .lovasz import (averaged_subgradient, extreme_subgradient,
                     has_distinct_extreme_points, lovasz_extension)
from .divergence import (DiscountProfile, PartialOrder, auc_loss,
                         confidence_bound, lb_cardinality, lb_cut,
                         lb_divergence, lb_divergence_batch, ndcg_loss,
                         partial_order_distortion)
from .aggregate import (ClusteringResult, ScoreMatrix, aggregation_objective,
                        brute_force_mean, feature_inference, lb_kmeans,
                        mean_ordering)
from .mallows import (ExtendedDensity, ExtendedLovaszMallows, LovaszMallows,
                      estimate_log_Z, extended_log_density,
                      log_density_unnormalized, map_permutation)

__version__ = "0.1.0"
