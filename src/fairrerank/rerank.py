"""Fairness-controlled top-K re-ranking with an exact solver and a
brute-force oracle.

The optimization selects exactly K items per user to maximize the total
predicted score minus lam times the popularity-exposure gap (the per-user
mean of short-head minus long-tail selections). Because that gap is a sum
of independent per-(user, item) terms, the whole program decomposes: adding
-lam/m to every short-head score and +lam/m to every long-tail score turns
it into a per-user top-K selection over adjusted scores, which the exact
solver performs directly, for a whole λ grid at once (`rerank_path`). The
oracle re-solves each user's selection by
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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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
    "rerank_path",
    "rerank_oracle",
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

    def validate(self, scores: ScoreMatrix | None = None) -> None:
        """Check the structural constraints: exactly k distinct selectable
        items per list, indices within the catalog."""
        if self.items.size and (self.items.min() < 0 or self.items.max() >= self.num_items):
            raise ValueError("list contains an out-of-catalog item index")
        ordered = np.sort(self.items, axis=1)
        duplicate = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        masked = np.zeros_like(duplicate)
        if scores is not None:
            masked = ~np.isfinite(scores.values[np.arange(self.num_users)[:, None], self.items]).all(axis=1)
        if (duplicate | masked).any():
            u = int(np.argmax(duplicate | masked))
            problem = "list has duplicate items" if duplicate[u] else "list contains a masked item"
            raise ValueError(f"user {u}: {problem}")


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
        return ScoreMatrix(matrix.values.copy())
    shift = _fairness_shift(part, lam, matrix.num_users, per_user_lambda)
    return ScoreMatrix(matrix.values + shift)


def _fairness_shift(part: PopularityPartition, lam: float, num_users: int, per_user_lambda: bool) -> np.ndarray:
    """Per-item score shift: -delta for short-head items, +delta for long-tail."""
    delta = lam if per_user_lambda else lam / num_users
    return np.where(part.short_head, -delta, delta)


# Step 1 of the λ path works on blocks of users of about this many cells,
# so its temporaries stay small next to the score matrix.
_BLOCK_CELLS = 1 << 16


def _top_mask(block: np.ndarray, count: int, lowest_first: bool = True) -> np.ndarray:
    """Mark each row's `count` largest values; ties at the boundary go to
    the lower column index (the higher one when not `lowest_first`)."""
    kth = np.partition(block, -count, axis=1)[:, -count, None]
    above = block > kth
    tied = block == kth if lowest_first else (block == kth)[:, ::-1]
    tied &= np.cumsum(tied, axis=1) <= count - above.sum(axis=1, keepdims=True)
    return above | (tied if lowest_first else tied[:, ::-1])


def _pooled(block: np.ndarray, pool_size: int) -> np.ndarray:
    """The scores with every cell outside each user's top-`pool_size` pool
    (by original score, ties by lower index) made unselectable."""
    if not pool_size or pool_size >= block.shape[1]:
        return block
    return np.where(_top_mask(block, pool_size), block, -np.inf)


def _group_candidates(
    values: np.ndarray, part: PopularityPartition, cfg: RerankConfig, lowest_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Step 1 of the λ path: each user's top-k items of each group by
    original score. A group's shift is one constant, and fl(r + c) is
    monotone in r, so no λ reorders a group and every λ's selection lies
    among these candidates. Returns the (m, C) candidate items and their
    pooled original scores."""
    m, n = values.shape
    groups = [cols for cols in (np.flatnonzero(part.short_head), np.flatnonzero(~part.short_head)) if len(cols)]
    takes = [min(cfg.k, len(cols)) for cols in groups]
    items = np.empty((m, sum(takes)), dtype=np.int64)
    scores = np.empty((m, sum(takes)), dtype=np.float64)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, m, step):
        block = _pooled(values[lo : lo + step], cfg.pool_size)
        at = 0
        for cols, take in zip(groups, takes):
            sub = block[:, cols]
            keep = _top_mask(sub, take, lowest_first) if take < len(cols) else np.ones(sub.shape, dtype=bool)
            rows = len(sub)
            items[lo : lo + rows, at : at + take] = cols[np.nonzero(keep)[1]].reshape(rows, take)
            scores[lo : lo + rows, at : at + take] = sub[keep].reshape(rows, take)
            at += take
    return items, scores


def rerank_path(
    matrix: ScoreMatrix,
    part: PopularityPartition,
    cfg: RerankConfig,
    lambdas: Sequence[float],
    tie_break: str = "default",
) -> list[RecommendationLists]:
    """Solve the fairness-adjusted selection exactly at every λ in `lambdas`
    (cfg.lam and cfg.lambda_grid are not read): per user, the k items with
    the largest adjusted scores. The per-group candidates are picked once
    (step 1); each λ then sorts only those (step 2). Returns one
    display-ordered list set per λ, each with its objective (the selected
    adjusted scores, summed per user in ascending item order and added user
    by user). `tie_break="inverted"` is a test hook that flips the original
    score and index tie directions, in both steps."""
    if tie_break not in ("default", "inverted"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if any(lam < 0 for lam in lambdas):
        raise ValueError("lam must be >= 0")
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    m, n = matrix.num_users, matrix.num_items
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds catalog size {n}")
    default = tie_break == "default"
    cand, original = _group_candidates(matrix.values, part, cfg, lowest_first=default)
    rows = np.arange(m)[:, None]
    out: list[RecommendationLists] = []
    for lam in lambdas:
        shift = _fairness_shift(part, lam, m, cfg.per_user_lambda) if lam else None
        adjusted = original + shift[cand] if lam else original
        keys = (cand, -original, -adjusted) if default else (-cand, original, -adjusted)
        pick = np.lexsort(keys, axis=1)[:, : cfg.k]
        top, top_adjusted = cand[rows, pick], adjusted[rows, pick]
        infeasible = ~np.isfinite(top_adjusted).all(axis=1)
        if infeasible.any():
            u = int(np.argmax(infeasible))
            row = _pooled(matrix.values[u : u + 1], cfg.pool_size)[0]
            selectable = int(np.count_nonzero(np.isfinite(row + shift if lam else row)))
            raise ValueError(f"user {u} has only {selectable} selectable items; need {cfg.k}")
        # canonical ascending-index summation keeps the objective reproducible
        sums = top_adjusted[rows, np.argsort(top, axis=1)].sum(axis=1)
        objective = float(np.cumsum(np.concatenate(([0.0], sums)))[-1])
        display = np.lexsort((top, -original[rows, pick]), axis=1)
        lists = RecommendationLists(items=top[rows, display], num_items=n, objective=objective)
        lists.validate(matrix)
        out.append(lists)
    return out


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
            rank_of[np.lexsort((np.arange(n), -r_row, -s_row))] = np.arange(n)
            chosen = min(
                (subset_items[i] for i in finalists),
                key=lambda items: tuple(sorted(rank_of[items].tolist())),
            )
        objective_terms.append(best_sum)
        chosen = np.asarray(chosen)
        out[u] = chosen[np.lexsort((chosen, -r_row[chosen]))]
    lists = RecommendationLists(items=out, num_items=n, objective=math.fsum(objective_terms))
    lists.validate(matrix)
    return lists


def lambda_sweep(
    matrix: ScoreMatrix,
    part: PopularityPartition,
    cfg: RerankConfig,
    judgments: list[set[int]],
    train: Interactions,
) -> list[tuple[float, "EvaluationReport"]]:
    """Re-rank and fully evaluate at every grid point, prepending the 0.0
    fairness-unaware baseline if the grid does not already start with it."""
    from .metrics import eval_context, evaluate  # deferred: metrics imports fairness_gap from here

    if cfg.lambda_grid is None:
        raise ValueError("lambda_sweep requires cfg.lambda_grid")
    lambdas = cfg.lambda_points()
    ctx = eval_context(judgments, train, part, cfg.k)
    return [(lam, evaluate(ctx, lists)) for lam, lists in zip(lambdas, rerank_path(matrix, part, cfg, lambdas))]


def write_lists(
    path: Path | str,
    lists: RecommendationLists,
    ds: Dataset,
    part: PopularityPartition,
    listed: np.ndarray,
    lam: float,
    per_user_lambda: bool,
) -> Path:
    """Write per-user list lines:
    user_key<TAB>rank<TAB>item_key<TAB>original_score<TAB>adjusted_score<TAB>{short|long}.
    `listed` holds the original scores of the listed items, shaped like
    `lists.items`. The adjusted score is the original plus the shift
    `adjusted_scores` applies, bit for bit, and the original itself at lam 0
    (so -0.0 stays)."""
    flat = lists.items.ravel()
    scores = listed.ravel()
    adjusted = scores + _fairness_shift(part, lam, lists.num_users, per_user_lambda)[flat] if lam else scores
    # each distinct bit pattern is formatted once; keyed on the bytes, not
    # the value, so -0.0 still prints "-0"
    bits, slot = np.unique((np.concatenate((scores, adjusted)) if lam else scores).view(np.int64), return_inverse=True)
    text = list(map("{:.10g}".format, bits.view(np.float64).tolist()))
    cells = list(map(text.__getitem__, slot.tolist()))
    keys = np.asarray(ds.item_keys, dtype=object)[flat].tolist()
    groups = np.where(part.short_head[flat], "short", "long").tolist()
    users = [user for user in ds.user_keys[: lists.num_users] for _ in range(lists.k)]
    ranks = [str(rank) for rank in range(1, lists.k + 1)] * lists.num_users
    rows = zip(users, ranks, keys, cells, cells[flat.size :] if lam else cells, groups)
    return atomic_write_text(path, ("\n".join([f"{u}\t{r}\t{key}\t{s}\t{a}\t{g}" for u, r, key, s, a, g in rows]) + "\n",))
