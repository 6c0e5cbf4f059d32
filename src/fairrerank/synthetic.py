"""Seeded synthetic inputs: random re-ranking instances for the
verification battery and Zipf-popularity interaction logs for trend tests
and demos."""

from __future__ import annotations

import numpy as np

from .dataset import PopularityPartition, top_count_mask
from .scorers import ScoreMatrix

__all__ = ["RerankInstance", "random_rerank_instance", "zipf_interaction_lines", "write_zipf_dataset"]


class RerankInstance:
    """One random instance of the selection problem: scores, partition, k."""

    def __init__(self, scores: ScoreMatrix, part: PopularityPartition, k: int):
        self.scores = scores
        self.part = part
        self.k = k

    @property
    def saturating_lambda(self) -> float:
        """A trade-off weight beyond which every selection is long-tail
        (strictly greater than num_users * score range)."""
        values = self.scores.values
        span = float(values.max() - values.min())
        return self.scores.num_users * span + 1.0


def random_rerank_instance(
    rng: np.random.Generator,
    max_users: int = 5,
    max_items: int = 12,
    max_k: int = 4,
    quantized: bool = False,
    min_k: int = 1,
    min_users: int = 1,
) -> RerankInstance:
    """Draw a small random instance. `quantized` snaps scores to a coarse
    0.05 grid so exact score ties occur and tie-break rules get exercised.
    Every instance keeps at least k long-tail items so a large enough
    trade-off weight can drive the short-head count to zero."""
    k = int(rng.integers(min_k, max_k + 1))
    m = int(rng.integers(min_users, max_users + 1))
    n = int(rng.integers(max(k + 1, 5), max_items + 1))
    values = rng.random((m, n))
    if quantized:
        values = np.round(values * 20.0) / 20.0
    n_short = int(rng.integers(1, n - k + 1))
    counts = rng.integers(0, 50, size=n).astype(np.int64)
    part = PopularityPartition(short_head=top_count_mask(counts, n_short), popularity_count=counts)
    return RerankInstance(ScoreMatrix(values), part, k)


def zipf_interaction_lines(
    num_users: int,
    num_items: int,
    exponent: float = 1.0,
    per_user: int = 30,
    seed: int = 0,
) -> list[str]:
    """Tab-separated interaction log lines (user u{u}, item i{i}, weight 1.0)
    whose item popularity follows a Zipf law: each user consumes `per_user`
    distinct items drawn without replacement with probability proportional
    to 1/rank^exponent."""
    if per_user > num_items:
        raise ValueError("per_user cannot exceed num_items")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_items + 1) ** exponent
    probs = weights / weights.sum()
    lines: list[str] = []
    for u in range(num_users):
        items = rng.choice(num_items, size=per_user, replace=False, p=probs)
        lines.extend(f"u{u}\ti{i}\t1.0" for i in items.tolist())
    return lines


def write_zipf_dataset(path, num_users: int, num_items: int, exponent: float = 1.0, per_user: int = 30, seed: int = 0):
    """Write a Zipf interaction log as tab-separated text; returns the path."""
    from .util import atomic_write_text

    lines = zipf_interaction_lines(num_users, num_items, exponent, per_user, seed)
    return atomic_write_text(path, ("\n".join(lines) + "\n",))
