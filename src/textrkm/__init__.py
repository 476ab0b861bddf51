"""Semi-supervised text categorization via recursive seeded k-means.

Label a large pool of unlabeled documents from a small labeled seed set:
documents are embedded into one dimension per class, the mixed collection is
partitioned by k-means recursively until each partition's labeled members
agree, and unseen documents are classified by nearest cluster centroid.
"""
from .classifier import Prediction, classify_batch
from .corpus import (
    Corpus,
    Document,
    TokenizerConfig,
    load_directory_corpus,
    make_training_collection,
    mask_labels,
    split_train_test,
)
from .errors import DataError, InvariantError, TextRkmError
from .evaluation import EvalReport, align_labels, confusion, format_report, score
from .harness import (
    SweepConfig,
    SweepTable,
    emit_results,
    fit,
    replay_trial,
    run_sweep,
    run_trial,
)
from .representation import (
    TermClassWeights,
    embed_corpus,
    fit_term_weights,
)
from .rkmeans import (
    ClusterModel,
    FinalCluster,
    KMeansConfig,
    RecursiveConfig,
    build_model,
    choose_initial_seeds,
    kmeans,
    recursive_kmeans,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterModel",
    "Corpus",
    "DataError",
    "Document",
    "EvalReport",
    "FinalCluster",
    "InvariantError",
    "KMeansConfig",
    "Prediction",
    "RecursiveConfig",
    "SweepConfig",
    "SweepTable",
    "TermClassWeights",
    "TextRkmError",
    "TokenizerConfig",
    "align_labels",
    "build_model",
    "choose_initial_seeds",
    "classify_batch",
    "confusion",
    "embed_corpus",
    "emit_results",
    "fit",
    "fit_term_weights",
    "format_report",
    "kmeans",
    "load_directory_corpus",
    "make_training_collection",
    "mask_labels",
    "recursive_kmeans",
    "replay_trial",
    "run_sweep",
    "run_trial",
    "score",
    "split_train_test",
]
