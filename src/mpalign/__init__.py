"""Multiparallel word alignment toolkit.

Builds per-sentence alignment graphs from bilingual links, detects concept
communities, trains a graph-attention link predictor over rich node features,
and induces symmetrized alignments, with evaluation and POS projection.
"""

__version__ = "0.1.0"

from .communities import Partition, cd_stats, gmc, lpc, modularity, refine_edges
from .corpus import (
    BilingualAlignmentSet,
    GoldAlignment,
    MultiParallelCorpus,
    load_corpus,
    load_gold,
    load_pharaoh,
    write_pharaoh,
)
from .evaluation import EvalReport, community_alignment_eval, frequency_bins, score
from .features import FeatureStandardizer, centralities, featurize
from .gnn import TrainConfig, gradient_check, train_model
from .graph import AlignmentGraph, TokenNode, build_graph, connected_components
from .inference import gdfa, score_matrix, threshold_directional, threshold_gdfa
from .projection import ProjectedSentence, filter_x, project

__all__ = [
    "AlignmentGraph",
    "BilingualAlignmentSet",
    "EvalReport",
    "FeatureStandardizer",
    "GoldAlignment",
    "MultiParallelCorpus",
    "Partition",
    "ProjectedSentence",
    "TokenNode",
    "TrainConfig",
    "build_graph",
    "cd_stats",
    "centralities",
    "community_alignment_eval",
    "connected_components",
    "featurize",
    "filter_x",
    "frequency_bins",
    "gdfa",
    "gmc",
    "gradient_check",
    "load_corpus",
    "load_gold",
    "load_pharaoh",
    "lpc",
    "modularity",
    "project",
    "refine_edges",
    "score",
    "score_matrix",
    "threshold_directional",
    "threshold_gdfa",
    "train_model",
    "write_pharaoh",
]
