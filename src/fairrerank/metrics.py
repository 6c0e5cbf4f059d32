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
  personalization = 1 - mean pairwise list overlap/k, exact over all user
                pairs
  serendipity = mean fraction of each list outside the global top-k
                most-popular train items
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import Interactions, PopularityPartition, distinct_user_counts
from .rerank import RecommendationLists

__all__ = [
    "EvaluationReport",
    "judgments_from_interactions",
    "EvalContext",
    "eval_context",
    "evaluate",
]

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


def _keys(users: np.ndarray, items: np.ndarray, num_items: int) -> np.ndarray:
    """Sorted user * num_items + item keys, closed by a sentinel that no
    key equals, so a lookup never runs off the end."""
    return np.append(np.sort(users * num_items + items), np.iinfo(np.int64).max)


def _hits(items: np.ndarray, keys: np.ndarray, num_items: int) -> np.ndarray:
    """True where (row r, items[r, c]) is among `keys`: for lists and the
    judgments, the m x k hit matrix."""
    wanted = np.arange(len(items))[:, None] * num_items + items
    return keys[np.searchsorted(keys, wanted)] == wanted


def _judgment_keys(judgments: list[set[int]], num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """The judgments as `_keys`, and the number of judged items per user."""
    sizes = np.fromiter(map(len, judgments), dtype=np.int64, count=len(judgments))
    items = np.fromiter((item for judged in judgments for item in judged), dtype=np.int64, count=int(sizes.sum()))
    return _keys(np.repeat(np.arange(len(judgments)), sizes), items, num_items), sizes


def _discounts(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank discounts 1/log2(r+1) for r = 1..k, and the ideal DCG of c
    relevant items for c = 0..k."""
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    return discounts, np.array([float(np.sum(discounts[:c])) for c in range(k + 1)])


def _accuracy(hits: np.ndarray, sizes: np.ndarray, discounts: np.ndarray, idcg: np.ndarray) -> tuple[float, float, float]:
    """Mean precision, recall and NDCG over the users with judgments."""
    sizes = sizes[: len(hits)]
    judged = sizes > 0
    if not judged.any():
        raise ValueError("no user has relevance judgments")
    count = hits.sum(axis=1)[judged]
    # a C-ordered product makes each row sum the same pairwise sum as one
    # list's np.sum
    dcg = np.ascontiguousarray(hits * discounts).sum(axis=1)[judged]
    ndcg = dcg / idcg[np.minimum(sizes, hits.shape[1])][judged]
    return float(np.mean(count / hits.shape[1])), float(np.mean(count / sizes[judged])), float(np.mean(ndcg))


def _novelty(items: np.ndarray, counts: np.ndarray, num_users: int) -> float:
    probed = np.maximum(counts[items.ravel()], 1) / float(num_users)
    return float(np.mean(-np.log2(probed)))


def _diversity(items: np.ndarray, train: Interactions, counts: np.ndarray) -> float:
    k = items.shape[1]
    if k < 2:
        raise ValueError("diversity needs lists of at least 2 items")
    # co-interaction Gram matrix of the recommended items only; its entries
    # are exact integer counts, as the per-list dot products were
    recommended, slot = np.unique(items, return_inverse=True)
    row_of = np.full(len(counts), -1, dtype=np.int64)
    row_of[recommended] = np.arange(len(recommended))
    rows = row_of[train.items]
    vectors = np.zeros((len(recommended), train.num_users), dtype=np.float64)
    vectors[rows[rows >= 0], train.users[rows >= 0]] = 1.0
    gram = vectors @ vectors.T
    first, second = np.triu_indices(k, 1)
    slot, norm_sq = slot.reshape(items.shape), counts[items].astype(np.float64)
    # sqrt of the product of squared norms keeps cosines of identical
    # integer-count columns exactly 1
    denom = np.sqrt(norm_sq[:, first] * norm_sq[:, second])
    sim = np.where(denom > 0, gram[slot[:, first], slot[:, second]] / np.where(denom > 0, denom, 1.0), 0.0)
    # column gathers come out in Fortran order; a C-ordered copy makes each
    # row sum the same pairwise sum as one list's np.sum
    return float(np.mean(1.0 - np.ascontiguousarray(sim).sum(axis=1) / (k * (k - 1) / 2)))


def _popular_mask(counts: np.ndarray, k: int) -> np.ndarray:
    """The global top-k items by train count (ties by lower index)."""
    popular = np.zeros(len(counts), dtype=bool)
    popular[np.lexsort((np.arange(len(counts)), -counts))[:k]] = True
    return popular


def _serendipity(items: np.ndarray, popular: np.ndarray) -> float:
    return float(np.mean((~popular[items]).sum(axis=1) / items.shape[1]))


def _exposure(items: np.ndarray, hits: np.ndarray, short_head: np.ndarray) -> tuple[int, int, int, int]:
    short = short_head[items]
    short_count, rel_short = int(np.count_nonzero(short)), int(np.count_nonzero(hits & short))
    return short_count, rel_short, items.size - short_count, int(np.count_nonzero(hits)) - rel_short


def _personalization(items: np.ndarray, num_items: int) -> float:
    """One minus the mean pairwise list overlap, exact over all user pairs."""
    m, k = items.shape
    if m < 2:
        raise ValueError("personalization needs at least 2 users")
    # total pairwise intersection = sum over items of C(lists containing it, 2)
    counts = np.bincount(items.ravel(), minlength=num_items)
    inter_total = float(np.sum(counts * (counts - 1) // 2))
    pairs = m * (m - 1) / 2
    return 1.0 - inter_total / (pairs * k)


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

    _UNIT_FIELDS = ("ndcg", "precision", "recall", "diversity", "coverage", "personalization", "serendipity")

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


@dataclass(frozen=True)
class EvalContext:
    """What the metrics need from one split, computed once and shared by
    every list set scored against it."""

    judged: np.ndarray  # the judgments as sorted user * num_items + item keys
    judged_sizes: np.ndarray  # judged items per user
    counts: np.ndarray  # distinct train users per item
    popular: np.ndarray  # the global top-k items by train count, as a mask
    discounts: np.ndarray  # 1/log2(r+1) for ranks r = 1..k
    idcg: np.ndarray  # ideal DCG of c relevant items, c = 0..k
    train: Interactions  # the train incidence, as (user, item) pairs
    part: PopularityPartition
    k: int


def eval_context(
    judgments: list[set[int]], train: Interactions, part: PopularityPartition, k: int
) -> EvalContext:
    """Build the shared evaluation context of one split for top-k lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    judged, sizes = _judgment_keys(judgments, part.num_items)
    counts = distinct_user_counts(train, part.num_items)
    discounts, idcg = _discounts(k)
    return EvalContext(judged, sizes, counts, _popular_mask(counts, k), discounts, idcg, train, part, k)


def evaluate(ctx: EvalContext, lists: RecommendationLists) -> EvaluationReport:
    """Compute the full metric suite for one set of lists against a
    context: every metric comes from one m x k hit matrix and the context.

    evaluated_users counts the lists evaluated (all of them); accuracy
    metrics internally average over the subset of users with judgments.
    """
    k, part = ctx.k, ctx.part
    if part.num_items != lists.num_items:
        raise ValueError("partition length does not match lists")
    if lists.k != k:
        lists = RecommendationLists(items=_truncate(lists, k).copy(), num_items=lists.num_items)
    items = lists.items
    hits = _hits(items, ctx.judged, lists.num_items)
    precision, recall, ndcg = _accuracy(hits, ctx.judged_sizes, ctx.discounts, ctx.idcg)
    short_count, rel_short, long_count, rel_long = _exposure(items, hits, part.short_head)
    report = EvaluationReport(
        ndcg=ndcg,
        precision=precision,
        recall=recall,
        novelty=_novelty(items, ctx.counts, ctx.train.num_users),
        diversity=_diversity(items, ctx.train, ctx.counts),
        coverage=len(np.unique(items)) / part.num_items,
        personalization=_personalization(items, lists.num_items),
        serendipity=_serendipity(items, ctx.popular),
        short_count=short_count,
        rel_short=rel_short,
        long_count=long_count,
        rel_long=rel_long,
        fairness_gap=(short_count - long_count) / lists.num_users,
        k=k,
        evaluated_users=lists.num_users,
    )
    report.validate()
    return report
