"""Accuracy, beyond-accuracy, and item-exposure metrics over top-K lists.

Relevance is binary: an item is relevant to a user iff it appears in that
user's held-out judgment set. Users with empty judgment sets are skipped by
precision/recall/NDCG but still count for the list-quality metrics
(novelty, diversity, coverage, personalization, serendipity) and for the
exposure tallies. All metrics consume the first k entries of each list, so
anything below rank k cannot change them.

Formulas:
  precision_u = hits/k, recall_u = hits/|judgments_u|
  NDCG_u      = sum(1/log2(r+1) over hit ranks) / sum over the first
                min(k, |judgments_u|) ranks
  novelty     = mean over recommended slots of -log2(max(count_j, 1)/m),
                counts from the train split
  diversity   = mean over users of 1 - mean pairwise cosine similarity of
                the list items' binary train-interaction columns
  coverage    = distinct recommended items / catalog size
  personalization = 1 - mean pairwise list overlap/k (exact over all user
                pairs up to 5000 users, sampled above)
  serendipity = mean fraction of each list outside the global top-k
                most-popular train items
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import Interactions, PopularityPartition, distinct_user_counts
from .rerank import RecommendationLists, fairness_gap

__all__ = [
    "EvaluationReport",
    "judgments_from_interactions",
    "precision_recall_at_k",
    "ndcg_at_k",
    "novelty",
    "diversity",
    "coverage",
    "personalization",
    "serendipity",
    "exposure_counts",
    "evaluate_all",
]

PERSONALIZATION_EXACT_LIMIT = 5000
PERSONALIZATION_SAMPLE_PAIRS = 100_000


def judgments_from_interactions(inter: Interactions) -> list[set[int]]:
    """Per-user relevant-item sets from a held-out interaction split."""
    out: list[set[int]] = [set() for _ in range(inter.num_users)]
    for u, i in zip(inter.users.tolist(), inter.items.tolist()):
        out[u].add(i)
    return out


def _truncate(lists: RecommendationLists, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("k must be >= 1")
    if lists.k < k:
        raise ValueError(f"lists have {lists.k} entries but k={k} requested")
    return lists.items[:, :k]


def precision_recall_at_k(
    lists: RecommendationLists, judgments: list[set[int]], k: int
) -> tuple[float, float]:
    """Mean precision and recall over users with at least one judgment."""
    items = _truncate(lists, k)
    precisions: list[float] = []
    recalls: list[float] = []
    for u in range(lists.num_users):
        judged = judgments[u]
        if not judged:
            continue
        hits = sum(1 for item in items[u].tolist() if item in judged)
        precisions.append(hits / k)
        recalls.append(hits / len(judged))
    if not precisions:
        raise ValueError("no user has relevance judgments")
    return float(np.mean(precisions)), float(np.mean(recalls))


def ndcg_at_k(lists: RecommendationLists, judgments: list[set[int]], k: int) -> float:
    items = _truncate(lists, k)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    scores: list[float] = []
    for u in range(lists.num_users):
        judged = judgments[u]
        if not judged:
            continue
        rel = np.array([1.0 if item in judged else 0.0 for item in items[u].tolist()])
        dcg = float(np.sum(rel * discounts))
        idcg = float(np.sum(discounts[: min(k, len(judged))]))
        scores.append(dcg / idcg)
    if not scores:
        raise ValueError("no user has relevance judgments")
    return float(np.mean(scores))


def novelty(lists: RecommendationLists, train: Interactions, num_users: int) -> float:
    """Mean self-information (bits) of recommended items under their
    train-split popularity; a count floor of 1 keeps unseen items finite."""
    counts = distinct_user_counts(train, lists.num_items)
    probed = np.maximum(counts[lists.items.ravel()], 1) / float(num_users)
    return float(np.mean(-np.log2(probed)))


def diversity(lists: RecommendationLists, train: Interactions) -> float:
    """Mean intra-list dissimilarity of item co-interaction patterns."""
    if lists.k < 2:
        raise ValueError("diversity needs lists of at least 2 items")
    item_user = np.zeros((lists.num_items, train.num_users), dtype=np.float64)
    item_user[train.items, train.users] = 1.0
    norm_sq = item_user.sum(axis=1)  # binary vectors: squared norm = count
    per_user: list[float] = []
    k = lists.k
    pair_count = k * (k - 1) / 2
    for u in range(lists.num_users):
        vectors = item_user[lists.items[u]]
        gram = vectors @ vectors.T
        # sqrt of the product of squared norms keeps cosines of identical
        # integer-count columns exactly 1
        denom = np.sqrt(np.outer(norm_sq[lists.items[u]], norm_sq[lists.items[u]]))
        sim = np.where(denom > 0, gram / np.where(denom > 0, denom, 1.0), 0.0)
        upper = sim[np.triu_indices(k, 1)]
        per_user.append(1.0 - float(upper.sum()) / pair_count)
    return float(np.mean(per_user))


def coverage(lists: RecommendationLists, num_items: int) -> float:
    """Fraction of the catalog appearing in at least one list."""
    if num_items < 1:
        raise ValueError("num_items must be >= 1")
    return len(np.unique(lists.items)) / num_items


def personalization(lists: RecommendationLists, method: str = "auto", seed: int = 0) -> float:
    """One minus the mean pairwise list overlap. Exact over all user pairs
    while feasible; above PERSONALIZATION_EXACT_LIMIT users, estimated over
    seeded sampled pairs."""
    m, k = lists.num_users, lists.k
    if m < 2:
        raise ValueError("personalization needs at least 2 users")
    if method == "auto":
        method = "exact" if m <= PERSONALIZATION_EXACT_LIMIT else "sampled"
    if method == "exact":
        # total pairwise intersection = sum over items of C(lists containing it, 2)
        counts = np.bincount(lists.items.ravel(), minlength=lists.num_items)
        inter_total = float(np.sum(counts * (counts - 1) // 2))
        pairs = m * (m - 1) / 2
        return 1.0 - inter_total / (pairs * k)
    if method == "sampled":
        rng = np.random.default_rng(seed)
        rows = [frozenset(lists.items[u].tolist()) for u in range(m)]
        overlap_sum = 0.0
        remaining = PERSONALIZATION_SAMPLE_PAIRS
        while remaining > 0:
            us = rng.integers(0, m, size=2 * remaining)
            vs = rng.integers(0, m, size=2 * remaining)
            keep = us != vs
            us, vs = us[keep][:remaining], vs[keep][:remaining]
            for u, v in zip(us.tolist(), vs.tolist()):
                overlap_sum += len(rows[u] & rows[v]) / k
            remaining -= len(us)
        return 1.0 - overlap_sum / PERSONALIZATION_SAMPLE_PAIRS
    raise ValueError(f"unknown method {method!r}")


def _popular_topk(train: Interactions, num_items: int, k: int) -> set[int]:
    counts = distinct_user_counts(train, num_items)
    order = np.lexsort((np.arange(num_items), -counts))
    return set(order[:k].tolist())


def serendipity(lists: RecommendationLists, train: Interactions, k: int) -> float:
    """Mean unexpectedness: the fraction of each user's list that a primitive
    global-popularity recommender would not have shown."""
    items = _truncate(lists, k)
    primitive = _popular_topk(train, lists.num_items, k)
    per_user = [
        sum(1 for item in items[u].tolist() if item not in primitive) / k
        for u in range(lists.num_users)
    ]
    return float(np.mean(per_user))


def exposure_counts(
    lists: RecommendationLists, judgments: list[set[int]], part: PopularityPartition
) -> tuple[int, int, int, int]:
    """Slot tallies over all lists: (short_count, rel_short, long_count,
    rel_long), where the rel_* subcounts require the slot's item to be in
    that user's judgments."""
    if part.num_items != lists.num_items:
        raise ValueError("partition length does not match lists")
    short_count = long_count = rel_short = rel_long = 0
    for u in range(lists.num_users):
        judged = judgments[u]
        for item in lists.items[u].tolist():
            if part.short_head[item]:
                short_count += 1
                rel_short += item in judged
            else:
                long_count += 1
                rel_long += item in judged
    return short_count, rel_short, long_count, rel_long


@dataclass(frozen=True)
class EvaluationReport:
    """One results-table row: accuracy, beyond-accuracy, exposure, fairness."""

    ndcg: float
    precision: float
    recall: float
    novelty: float
    diversity: float
    coverage: float
    personalization: float
    serendipity: float
    short_count: int
    rel_short: int
    long_count: int
    rel_long: int
    fairness_gap: float
    k: int
    evaluated_users: int

    _UNIT_FIELDS = (
        "ndcg",
        "precision",
        "recall",
        "diversity",
        "coverage",
        "personalization",
        "serendipity",
    )

    def validate(self) -> None:
        for name in self._UNIT_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(f"{name}={value} out of [0, 1]")
        if self.novelty < 0:
            raise ValueError(f"novelty={self.novelty} must be >= 0")
        if self.short_count + self.long_count != self.evaluated_users * self.k:
            raise ValueError("exposure counts do not sum to list slots")
        if self.rel_short > self.short_count or self.rel_long > self.long_count:
            raise ValueError("relevant exposure subcounts exceed their totals")
        if not -self.k <= self.fairness_gap <= self.k:
            raise ValueError(f"fairness gap {self.fairness_gap} out of [-k, k]")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def evaluate_all(
    lists: RecommendationLists,
    judgments: list[set[int]],
    train: Interactions,
    part: PopularityPartition,
    k: int,
) -> EvaluationReport:
    """Compute the full metric suite for one set of lists.

    evaluated_users counts the lists evaluated (all of them); accuracy
    metrics internally average over the subset of users with judgments.
    """
    if lists.k > k:
        lists = RecommendationLists(items=lists.items[:, :k].copy(), num_items=lists.num_items)
    precision, recall = precision_recall_at_k(lists, judgments, k)
    ndcg = ndcg_at_k(lists, judgments, k)
    short_count, rel_short, long_count, rel_long = exposure_counts(lists, judgments, part)
    fairness = fairness_gap(lists, part)
    report = EvaluationReport(
        ndcg=ndcg,
        precision=precision,
        recall=recall,
        novelty=novelty(lists, train, train.num_users),
        diversity=diversity(lists, train),
        coverage=coverage(lists, part.num_items),
        personalization=personalization(lists),
        serendipity=serendipity(lists, train, k),
        short_count=short_count,
        rel_short=rel_short,
        long_count=long_count,
        rel_long=rel_long,
        fairness_gap=fairness.gap,
        k=k,
        evaluated_users=lists.num_users,
    )
    report.validate()
    return report
