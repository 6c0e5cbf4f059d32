"""Fairness-controlled top-K re-ranking with an exact solver and a
brute-force oracle.

The optimization selects exactly K items per user to maximize the total
predicted score minus lam times the popularity-exposure gap (the per-user
mean of short-head minus long-tail selections). Because that gap is a sum
of independent per-(user, item) terms, the whole program decomposes: adding
-lam/m to every short-head score and +lam/m to every long-tail score turns
it into a per-user top-K selection over adjusted scores, which the exact
solver performs directly. The oracle re-solves each user's selection by
exhaustive subset enumeration and exists solely to certify that reduction
and the tie-break rules.

Tie-breaks are fully specified so solver and oracle can be compared
set-for-set: higher adjusted score, then higher original score, then lower
item index. Within a selected list, items are displayed by original score
descending (ties by index) so the scorer's relevance order is preserved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataset import Dataset, Interactions, PopularityPartition
from .scorers import ScoreMatrix
from .util import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import EvaluationReport

__all__ = [
    "RerankConfig",
    "RecommendationLists",
    "FairnessValue",
    "fairness_gap",
    "adjusted_scores",
    "rerank_exact",
    "rerank_oracle",
    "plain_topk",
    "lambda_sweep",
    "write_lists",
]

ORACLE_SUBSET_LIMIT = 10**6


@dataclass(frozen=True)
class RerankConfig:
    """Selection size, fairness trade-off, and optional sweep grid.

    With per_user_lambda=False (the default) the per-item score adjustment
    is lam/num_users, matching a trade-off stated against the user-averaged
    exposure gap; with True it is lam per item, independent of user count.
    pool_size > 0 restricts each user's candidates to their top pool_size
    items by original score before re-ranking (0 means the full catalog).
    """

    k: int = 10
    lam: float = 0.0
    lambda_grid: tuple[float, ...] | None = None
    per_user_lambda: bool = False
    pool_size: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.pool_size < 0:
            raise ValueError("pool_size must be >= 0")
        if self.pool_size and self.pool_size < self.k:
            raise ValueError("pool_size must be 0 (unlimited) or >= k")
        if self.lambda_grid is not None:
            grid = tuple(self.lambda_grid)
            if not grid:
                raise ValueError("lambda_grid must be nonempty when present")
            if any(g < 0 for g in grid):
                raise ValueError("lambda_grid values must be >= 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("lambda_grid must be strictly ascending")
            object.__setattr__(self, "lambda_grid", grid)

    def lambda_points(self) -> tuple[float, ...]:
        """The λ values a run evaluates: the grid, or the single `lam` when
        there is none, with the 0.0 fairness-unaware baseline prepended when
        it is not already first."""
        grid = self.lambda_grid if self.lambda_grid is not None else (self.lam,)
        return grid if grid[0] == 0.0 else (0.0, *grid)


@dataclass(frozen=True)
class RecommendationLists:
    """Per-user ordered top-K selections (item indices, display order)."""

    items: np.ndarray  # (num_users, k) int64
    num_items: int
    objective: float | None = None

    def __post_init__(self):
        if self.items.ndim != 2:
            raise ValueError("lists must be a (num_users, k) array")

    @property
    def num_users(self) -> int:
        return int(self.items.shape[0])

    @property
    def k(self) -> int:
        return int(self.items.shape[1])

    def selection_matrix(self) -> np.ndarray:
        """The implied binary selection matrix: True where an item is in
        that user's list."""
        sel = np.zeros((self.num_users, self.num_items), dtype=bool)
        rows = np.repeat(np.arange(self.num_users), self.k)
        sel[rows, self.items.ravel()] = True
        return sel

    def validate(self, scores: ScoreMatrix | None = None) -> None:
        """Check the structural constraints: exactly k distinct selectable
        items per list, indices within the catalog."""
        if self.items.size and (self.items.min() < 0 or self.items.max() >= self.num_items):
            raise ValueError("list contains an out-of-catalog item index")
        for u in range(self.num_users):
            row = self.items[u]
            if len(set(row.tolist())) != self.k:
                raise ValueError(f"user {u}: list has duplicate items")
            if scores is not None and not np.isfinite(scores.values[u, row]).all():
                raise ValueError(f"user {u}: list contains a masked item")


@dataclass(frozen=True)
class FairnessValue:
    """Exposure gap between short-head and long-tail selections."""

    gap: float
    short_count: int
    long_count: int


def fairness_gap(lists: RecommendationLists, part: PopularityPartition) -> FairnessValue:
    """Mean per-user difference between short-head and long-tail items in the
    lists; 0 means equal exposure, k means all-short-head lists."""
    if part.num_items != lists.num_items:
        raise ValueError(
            f"partition covers {part.num_items} items but lists cover {lists.num_items}"
        )
    short_count = int(np.count_nonzero(part.short_head[lists.items]))
    total = lists.num_users * lists.k
    long_count = total - short_count
    gap = (short_count - long_count) / lists.num_users
    return FairnessValue(gap=gap, short_count=short_count, long_count=long_count)


def adjusted_scores(
    matrix: ScoreMatrix, part: PopularityPartition, lam: float, per_user_lambda: bool = False
) -> ScoreMatrix:
    """Shift short-head scores down and long-tail scores up by the per-item
    fairness penalty. Masked cells stay masked (-inf shifted by a finite
    amount is still -inf); lam == 0 returns the scores bit-for-bit."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    if lam == 0.0:
        return ScoreMatrix(matrix.values.copy(), masked_seen=matrix.masked_seen)
    shift = _fairness_shift(part, lam, matrix.num_users, per_user_lambda)
    return ScoreMatrix(matrix.values + shift, masked_seen=matrix.masked_seen)


def _fairness_shift(part: PopularityPartition, lam: float, num_users: int, per_user_lambda: bool) -> np.ndarray:
    """Per-item score shift: -delta for short-head items, +delta for long-tail."""
    delta = lam if per_user_lambda else lam / num_users
    return np.where(part.short_head, -delta, delta)


def _selection_order(s_row: np.ndarray, r_row: np.ndarray, tie_break: str) -> np.ndarray:
    # lexsort: last key is primary. Masked cells (-inf) sort to the end
    # under either rule because the primary key is the adjusted score.
    idx = np.arange(len(s_row))
    if tie_break == "default":
        return np.lexsort((idx, -r_row, -s_row))
    if tie_break == "inverted":
        # test hook: flips the secondary/tertiary tie directions only, so a
        # correct equivalence battery must catch it via set comparison
        return np.lexsort((-idx, r_row, -s_row))
    raise ValueError(f"unknown tie_break {tie_break!r}")


def _display_order(selection: np.ndarray, r_row: np.ndarray) -> np.ndarray:
    order = np.lexsort((selection, -r_row[selection]))
    return selection[order]


def rerank_exact(
    matrix: ScoreMatrix,
    part: PopularityPartition,
    cfg: RerankConfig,
    tie_break: str = "default",
) -> RecommendationLists:
    """Solve the fairness-adjusted selection exactly: per user, the k items
    with the largest adjusted scores. Returns display-ordered lists with the
    achieved objective (total selected adjusted score)."""
    adjusted = adjusted_scores(matrix, part, cfg.lam, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds catalog size {n}")
    out = np.empty((m, cfg.k), dtype=np.int64)
    objective = 0.0
    for u in range(m):
        s_row = adjusted.values[u]
        r_row = matrix.values[u]
        if cfg.pool_size and cfg.pool_size < n:
            pool = np.lexsort((np.arange(n), -r_row))[: cfg.pool_size]
            candidates = pool
        else:
            candidates = np.arange(n)
        order = candidates[_selection_order(s_row[candidates], r_row[candidates], tie_break)]
        top = order[: cfg.k]
        if len(top) < cfg.k or not np.isfinite(s_row[top]).all():
            selectable = int(np.count_nonzero(np.isfinite(s_row[candidates])))
            raise ValueError(f"user {u} has only {selectable} selectable items; need {cfg.k}")
        # canonical ascending-index summation keeps the objective reproducible
        objective += float(np.sum(s_row[np.sort(top)]))
        out[u] = _display_order(top, r_row)
    lists = RecommendationLists(items=out, num_items=n, objective=objective)
    lists.validate(matrix)
    return lists


_COMBINATION_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combinations(count: int, k: int) -> np.ndarray:
    key = (count, k)
    if key not in _COMBINATION_CACHE:
        combos = np.array(list(itertools.combinations(range(count), k)), dtype=np.int64)
        _COMBINATION_CACHE[key] = combos.reshape(-1, k)
    return _COMBINATION_CACHE[key]


def rerank_oracle(
    matrix: ScoreMatrix, part: PopularityPartition, cfg: RerankConfig
) -> RecommendationLists:
    """Reference solver by exhaustive enumeration of every k-subset per user.

    Subset sums are refined with exact (correctly rounded) summation before
    comparison, and ties are resolved toward the subset whose items come
    first in the documented selection order, so a correct exact solver must
    match it set-for-set.
    """
    adjusted = adjusted_scores(matrix, part, cfg.lam, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    out = np.empty((m, cfg.k), dtype=np.int64)
    objective_terms: list[float] = []
    for u in range(m):
        s_row = adjusted.values[u]
        r_row = matrix.values[u]
        candidates = np.flatnonzero(np.isfinite(s_row))
        if len(candidates) < cfg.k:
            raise ValueError(f"user {u} has only {len(candidates)} selectable items; need {cfg.k}")
        n_subsets = math.comb(len(candidates), cfg.k)
        if n_subsets > ORACLE_SUBSET_LIMIT:
            raise ValueError(
                f"user {u}: {n_subsets} subsets exceed the oracle limit {ORACLE_SUBSET_LIMIT}"
            )
        combos = _combinations(len(candidates), cfg.k)
        subset_items = candidates[combos]
        sums = s_row[subset_items].sum(axis=1)
        near = np.flatnonzero(sums >= sums.max() - 1e-9)
        exact_sums = [math.fsum(s_row[subset_items[i]].tolist()) for i in near]
        best_sum = max(exact_sums)
        finalists = [near[i] for i, v in enumerate(exact_sums) if v == best_sum]
        if len(finalists) == 1:
            chosen = subset_items[finalists[0]]
        else:
            rank_of = np.empty(n, dtype=np.int64)
            order = _selection_order(s_row, r_row, "default")
            rank_of[order] = np.arange(n)
            chosen = min(
                (subset_items[i] for i in finalists),
                key=lambda items: tuple(sorted(rank_of[items].tolist())),
            )
        objective_terms.append(best_sum)
        out[u] = _display_order(np.asarray(chosen), r_row)
    lists = RecommendationLists(items=out, num_items=n, objective=math.fsum(objective_terms))
    lists.validate(matrix)
    return lists


def plain_topk(matrix: ScoreMatrix, k: int) -> RecommendationLists:
    """Fairness-unaware per-user top-k of the raw scores (ties by index)."""
    part = PopularityPartition(
        short_head=np.zeros(matrix.num_items, dtype=bool),
        popularity_count=np.zeros(matrix.num_items, dtype=np.int64),
    )
    return rerank_exact(matrix, part, RerankConfig(k=k, lam=0.0))


def lambda_sweep(
    matrix: ScoreMatrix,
    part: PopularityPartition,
    cfg: RerankConfig,
    judgments: list[set[int]],
    train: Interactions,
) -> list[tuple[float, "EvaluationReport"]]:
    """Re-rank and fully evaluate at every grid point, prepending the 0.0
    fairness-unaware baseline if the grid does not already start with it."""
    from .metrics import evaluate_all  # deferred: metrics imports fairness_gap from here

    if cfg.lambda_grid is None:
        raise ValueError("lambda_sweep requires cfg.lambda_grid")
    results: list[tuple[float, "EvaluationReport"]] = []
    for lam in cfg.lambda_points():
        lists = rerank_exact(matrix, part, replace(cfg, lam=lam, lambda_grid=None))
        report = evaluate_all(lists, judgments, train, part, cfg.k)
        results.append((lam, report))
    return results


def write_lists(
    path: Path | str,
    lists: RecommendationLists,
    ds: Dataset,
    part: PopularityPartition,
    original: ScoreMatrix,
    lam: float,
    per_user_lambda: bool,
) -> Path:
    """Write per-user list lines:
    user_key<TAB>rank<TAB>item_key<TAB>original_score<TAB>adjusted_score<TAB>{short|long}.
    The adjusted score is the original plus the shift `adjusted_scores`
    applies, bit for bit, and the original itself at lam 0 (so -0.0 stays)."""
    items = lists.items
    scores = np.take_along_axis(original.values, items, axis=1)
    adjusted = scores + _fairness_shift(part, lam, original.num_users, per_user_lambda)[items] if lam else scores
    flat = items.ravel()
    keys = np.asarray(ds.item_keys, dtype=object)[flat].tolist()
    groups = np.where(part.short_head[flat], "short", "long").tolist()
    prefixes = [f"{user}\t{rank}\t" for user in ds.user_keys[: lists.num_users] for rank in range(1, lists.k + 1)]
    line = "{}{}\t{:.10g}\t{:.10g}\t{}".format
    lines = map(line, prefixes, keys, scores.ravel().tolist(), adjusted.ravel().tolist(), groups)
    return atomic_write_text(path, "\n".join(lines) + "\n")
