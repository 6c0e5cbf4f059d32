"""Accuracy, beyond-accuracy, and item-exposure metrics over top-K lists.

Relevance is binary: an item is relevant to a user iff the held-out test
split pairs it with that user. Users with no test pairs are skipped by
precision/recall/NDCG but still count for the list-quality metrics
(novelty, diversity, coverage, personalization, serendipity) and for the
exposure tallies. All metrics consume the first k entries of each list, so
anything below rank k cannot change them.

Formulas:
  precision_u = hits/k, recall_u = hits/|judgments_u|
  NDCG_u      = sum(1/log2(r+1) over hit ranks) / sum over the first
                min(k, |judgments_u|) ranks
  novelty     = mean over recommended slots of -log2(max(count_j, 1)/m),
                count_j the partition's distinct train users of item j
  diversity   = mean over users of 1 - mean pairwise cosine similarity of
                the list items' binary train-interaction columns; the dot
                products are co-interaction counts, added up in place from
                each train user's pairs of listed items, so they are exact
                integers
  coverage    = distinct recommended items / catalog size
  personalization = 1 - mean pairwise list overlap/k, exact over all user
                pairs
  serendipity = mean fraction of each list outside the global top-k
                most-popular train items
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .dataset import Interactions, PopularityPartition, top_count_mask
from .rerank import RecommendationLists

__all__ = [
    "EvaluationReport",
    "judgments_from_interactions",
    "EvalContext",
    "eval_context",
    "evaluate",
]

_PAIR_CODES = 1 << 20  # item-pair codes added to the Gram per block in _union_gram


def judgments_from_interactions(inter: Interactions) -> list[set[int]]:
    """Per-user relevant-item sets from a held-out interaction split. A run
    reads the split itself (`eval_context`); this list-of-sets form stays
    for the benchmark harness and goes with ROADMAP item 5."""
    out: list[set[int]] = [set() for _ in range(inter.num_users)]
    for u, i in zip(inter.users.tolist(), inter.items.tolist()):
        out[u].add(i)
    return out


def _hits(items: np.ndarray, keys: np.ndarray, num_items: int) -> np.ndarray:
    """True where (row r, items[r, c]) is among the sorted `keys`, which a
    sentinel that no key equals closes: for lists and the judged keys, the
    m x k hit matrix."""
    wanted = np.arange(len(items))[:, None] * num_items + items
    return keys[np.searchsorted(keys, wanted)] == wanted


def _discounts(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank discounts 1/log2(r+1) for r = 1..k, and the ideal DCG of c
    relevant items for c = 0..k."""
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    return discounts, np.array([float(np.sum(discounts[:c])) for c in range(k + 1)])


def _accuracy(hits: np.ndarray, sizes: np.ndarray, discounts: np.ndarray, idcg: np.ndarray) -> tuple[float, float, float]:
    """Mean precision, recall and NDCG over the users with judgments."""
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


def _union_gram(point_items: list[np.ndarray], train: Interactions, num_items: int) -> tuple[np.ndarray, np.ndarray]:
    """The co-interaction Gram of the items any list set recommends (entry
    [a, b]: the number of train users of both a and b), and each item's row
    in it (-1 for the others). Each user's pairs of such items are added to
    it in place, users grouped by how many such items they hold, at most
    _PAIR_CODES pairs per block, so memory follows the union, not the
    number of sets or users; the entries are exact integers."""
    row_of = np.full(num_items, -1, dtype=np.int64)
    for items in point_items:
        row_of[items] = 0
    recommended = np.flatnonzero(row_of == 0)
    size = len(recommended)
    row_of[recommended] = np.arange(size)
    rows = row_of[train.items]
    held = rows >= 0
    # pairs come sorted by (user, item) and rows rise with items, so each
    # user's rows are distinct and ascending
    rows, owned = rows[held], np.bincount(train.users[held], minlength=train.num_users)
    starts = np.cumsum(owned) - owned
    gram = np.zeros(size * size, dtype=np.int64)
    for count in sorted(set(owned.tolist()) - {0}):
        group = np.flatnonzero(owned == count)
        step = max(1, _PAIR_CODES // count**2)
        for at in range(0, len(group), step):
            block = rows[starts[group[at : at + step], None] + np.arange(count)]
            np.add.at(gram, (block[:, :, None] * size + block[:, None, :]).ravel(), 1)
    return gram.reshape(size, size), row_of


def _diversity(items: np.ndarray, gram: np.ndarray, row_of: np.ndarray, counts: np.ndarray) -> float:
    k = items.shape[1]
    if k < 2:
        raise ValueError("diversity needs lists of at least 2 items")
    first, second = np.triu_indices(k, 1)
    slot, norm_sq = row_of[items], counts[items].astype(np.float64)
    # sqrt of the product of squared norms keeps cosines of identical
    # integer-count columns exactly 1
    denom = np.sqrt(norm_sq[:, first] * norm_sq[:, second])
    sim = np.where(denom > 0, gram[slot[:, first], slot[:, second]] / np.where(denom > 0, denom, 1.0), 0.0)
    # column gathers come out in Fortran order; a C-ordered copy makes each
    # row sum the same pairwise sum as one list's np.sum
    return float(np.mean(1.0 - np.ascontiguousarray(sim).sum(axis=1) / (k * (k - 1) / 2)))


def _serendipity(items: np.ndarray, popular: np.ndarray) -> float:
    return float(np.mean((~popular[items]).sum(axis=1) / items.shape[1]))


def _personalization(listed: np.ndarray, m: int, k: int) -> float:
    """One minus the mean pairwise list overlap, exact over all user pairs,
    from how many of the m lists of k items hold each item (`listed`)."""
    if m < 2:
        raise ValueError("personalization needs at least 2 users")
    # total pairwise intersection = sum over items of C(lists containing it, 2)
    inter_total = float(np.sum(listed * (listed - 1) // 2))
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

    judged: np.ndarray  # the test pairs as sorted user * num_items + item keys, then a sentinel
    judged_sizes: np.ndarray  # test pairs per user
    popular: np.ndarray  # the global top-k items by train count, as a mask
    discounts: np.ndarray  # 1/log2(r+1) for ranks r = 1..k
    idcg: np.ndarray  # ideal DCG of c relevant items, c = 0..k
    train: Interactions  # the train incidence, as (user, item) pairs
    part: PopularityPartition  # of train: its popularity_count is the distinct train users per item
    k: int


def eval_context(test: Interactions, train: Interactions, part: PopularityPartition, k: int) -> EvalContext:
    """Build the shared evaluation context of one split for top-k lists:
    `test`'s pairs are the relevance judgments. `part` must be `train`'s
    partition: novelty, diversity and the popular top-k read its counts,
    not `train`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = part.num_items
    if (test.num_users, test.num_items) != (train.num_users, train.num_items) or train.num_items != n:
        raise ValueError(f"test ({test.num_users} x {test.num_items}), train ({train.num_users} x "
                         f"{train.num_items}) and partition ({n} items) do not share one user x item universe")
    # the pairs are sorted and unique, so their keys are too
    judged = np.append(test.users.astype(np.int64) * n + test.items, np.iinfo(np.int64).max)
    discounts, idcg = _discounts(k)
    return EvalContext(judged, np.bincount(test.users, minlength=test.num_users),
                       top_count_mask(part.popularity_count, k), discounts, idcg, train, part, k)


def evaluate(ctx: EvalContext, point_lists: Sequence[RecommendationLists]) -> list[EvaluationReport]:
    """Compute the full metric suite for each list set of a λ grid against a
    context, one validated report per set: pass the sets rerank_path
    returns, or [lists] and take [0] for one set. Lists longer than ctx.k
    are cut to it. Diversity reads every set's item pairs from one Gram over
    the union of the sets' items; every other metric comes from the set's
    own m x k hit matrix and the context.

    evaluated_users counts the lists evaluated (all of them); accuracy
    metrics internally average over the subset of users with judgments.
    """
    k, part, users = ctx.k, ctx.part, len(ctx.judged_sizes)
    for lists in point_lists:
        if part.num_items != lists.num_items:
            raise ValueError("partition length does not match lists")
        if lists.num_users != users:
            raise ValueError(f"lists cover {lists.num_users} users but the context has {users} judgment sets")
        if lists.k < k:
            raise ValueError(f"lists have {lists.k} entries but k={k} requested")
    point_items = [lists.items[:, :k] for lists in point_lists]
    gram, row_of = _union_gram(point_items, ctx.train, part.num_items)
    reports = []
    for items in point_items:
        hits = _hits(items, ctx.judged, part.num_items)
        precision, recall, ndcg = _accuracy(hits, ctx.judged_sizes, ctx.discounts, ctx.idcg)
        short = part.short_head[items]
        short_count, rel_short = int(np.count_nonzero(short)), int(np.count_nonzero(hits & short))
        long_count, rel_long = items.size - short_count, int(np.count_nonzero(hits)) - rel_short
        listed = np.bincount(items.ravel(), minlength=part.num_items)  # lists holding each item
        reports.append(EvaluationReport(
            ndcg=ndcg, precision=precision, recall=recall,
            novelty=_novelty(items, part.popularity_count, ctx.train.num_users),
            diversity=_diversity(items, gram, row_of, part.popularity_count),
            coverage=int(np.count_nonzero(listed)) / part.num_items,
            personalization=_personalization(listed, *items.shape),
            serendipity=_serendipity(items, ctx.popular),
            short_count=short_count, rel_short=rel_short, long_count=long_count, rel_long=rel_long,
            fairness_gap=(short_count - long_count) / users, k=k, evaluated_users=users,
        ))
        reports[-1].validate()
    return reports
