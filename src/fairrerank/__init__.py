"""fairrerank: provider-fairness re-ranking and beyond-accuracy evaluation
for top-K recommenders.

The pipeline: parse interaction logs, build seeded train/valid/test splits
and the short-head/long-tail catalog partition, score with a built-in or
imported model, re-rank each user's top-K under a tunable fairness
trade-off (exact solver, verified against a brute-force oracle), and
evaluate accuracy, beyond-accuracy, and item-exposure metrics into
table-style reports.
"""

__version__ = "0.1.0"

from .config import ConfigError, ExperimentConfig, build_config, config_snapshot, load_config
from .dataset import (
    DataError, Dataset, InputFormat, InteractionLog, Interactions, PopularityPartition, SplitTriple,
    build_dataset, parse_interactions, partition_popularity, read_interactions, split,
)
from .metrics import EvalContext, EvaluationReport, eval_context, evaluate, judgments_from_interactions
from .rerank import RecommendationLists, RerankConfig, lambda_sweep, rerank_oracle, rerank_path
from .scorers import MASKED, MFConfig, ScoreMatrix, load_scores, mask_seen, mf_scorer, popularity_scorer

__all__ = [
    "__version__",
    "ConfigError", "ExperimentConfig", "build_config", "config_snapshot", "load_config",
    "DataError", "Dataset", "InputFormat", "InteractionLog", "Interactions", "PopularityPartition", "SplitTriple",
    "build_dataset", "parse_interactions", "partition_popularity", "read_interactions", "split",
    "EvalContext", "EvaluationReport", "eval_context", "evaluate", "judgments_from_interactions",
    "RecommendationLists", "RerankConfig", "lambda_sweep", "rerank_oracle", "rerank_path",
    "MASKED", "MFConfig", "ScoreMatrix", "load_scores", "mask_seen", "mf_scorer", "popularity_scorer",
]
