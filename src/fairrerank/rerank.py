"""Fairness-controlled top-K re-ranking with an exact solver and a
brute-force oracle.

The optimization selects exactly K items per user to maximize the total
predicted score minus lam times the popularity-exposure gap (the per-user
mean of short-head minus long-tail selections). Because that gap is a sum
of independent per-(user, item) terms, the whole program decomposes: adding
-lam/m to every short-head score and +lam/m to every long-tail score turns
it into a per-user top-K selection over adjusted scores, which the exact
solver performs directly, for a whole λ grid at once (`rerank_path`). The
oracle re-solves each user's selection by exhaustive subset enumeration,
also for a whole grid per call (`rerank_oracle`: each user's subsets are
enumerated once and summed at every λ), and exists solely to certify that
reduction and the tie-break rules.

Tie-breaks are fully specified so solver and oracle can be compared
set-for-set: higher adjusted score, then higher original score, then lower
item index. Within a selected list, items are displayed by original score
descending (ties by index) so the scorer's relevance order is preserved.
"""

from __future__ import annotations

import functools
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
    """Selection size, λ grid, and how λ scales.

    With per_user_lambda=False (the default) the per-item score adjustment
    is lam/num_users, matching a trade-off stated against the user-averaged
    exposure gap; with True it is lam per item, independent of user count.
    pool_size > 0 restricts each user's candidates to their top pool_size
    items by original score before re-ranking (0 means the full catalog).
    """

    k: int = 10
    lambda_grid: tuple[float, ...] | None = None
    per_user_lambda: bool = False
    pool_size: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.pool_size < 0:
            raise ValueError("pool_size must be >= 0")
        if self.pool_size and self.pool_size < self.k:
            raise ValueError("pool_size must be 0 (unlimited) or >= k")
        if self.lambda_grid is not None:
            grid = tuple(self.lambda_grid)
            if not grid:
                raise ValueError("lambda_grid must be nonempty when present")
            if not all(g >= 0 and math.isfinite(g) for g in grid):
                raise ValueError("lambda_grid values must be finite and >= 0")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("lambda_grid must be strictly ascending")
            object.__setattr__(self, "lambda_grid", grid)

    def lambda_points(self) -> tuple[float, ...]:
        """The λ values a run evaluates: the grid (0.0 when there is none),
        with the 0.0 fairness-unaware baseline prepended when it is not
        already first."""
        grid = self.lambda_grid or (0.0,)
        return grid if grid[0] == 0.0 else (0.0, *grid)


@dataclass(frozen=True)
class RecommendationLists:
    """Per-user ordered top-K selections (item indices, display order)."""

    items: np.ndarray  # (num_users, k) int64
    num_items: int
    objective: float | None = None
    scores: np.ndarray | None = None  # the listed items' original scores, from the solver
    adjusted: np.ndarray | None = None  # and their fairness-adjusted scores

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
        _check_lists(self.items, self.num_items, None if scores is None else scores.values)


def _check_lists(items: np.ndarray, num_items: int, values: np.ndarray | None = None) -> None:
    """Validate a (…, m, k) stack of list sets in one call: indices within
    the catalog, no duplicate in a list and, given the score values, no
    masked cell. The first bad list in stack order names its user."""
    if items.size and (items.min() < 0 or items.max() >= num_items):
        raise ValueError("list contains an out-of-catalog item index")
    ordered = np.sort(items, axis=-1)
    duplicate = (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
    masked = np.zeros_like(duplicate)
    if values is not None:
        masked = ~np.isfinite(values[np.arange(items.shape[-2])[:, None], items]).all(axis=-1)
    if (duplicate | masked).any():
        at = np.unravel_index(np.argmax(duplicate | masked), duplicate.shape)
        problem = "list has duplicate items" if duplicate[at] else "list contains a masked item"
        raise ValueError(f"user {at[-1]}: {problem}")


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
    _check_lam(lam)
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    if lam == 0.0:
        return ScoreMatrix(matrix.values.copy())
    return ScoreMatrix(matrix.values + _fairness_shifts(part, (lam,), matrix.num_users, per_user_lambda)[0])


def _check_lam(lam: float) -> None:
    if not (lam >= 0 and math.isfinite(lam)):
        raise ValueError(f"lam must be >= 0 and finite, got {lam!r}")


def _fairness_shifts(
    part: PopularityPartition, lambdas: Sequence[float], num_users: int, per_user_lambda: bool
) -> np.ndarray:
    """Per-λ, per-item score shifts, (L, n): -delta for short-head items,
    +delta for long-tail."""
    delta = np.asarray(lambdas, dtype=np.float64)[:, None]
    delta = delta if per_user_lambda else delta / max(num_users, 1)  # no users, no cells to shift
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
    (cfg.lambda_grid is not read): per user, the k items with the largest
    adjusted scores. The per-group candidates are picked once (step 1);
    each λ then sorts only those (step 2), as many λ points per sort as fit
    in a step-1 block of cells. Returns one display-ordered list set per λ,
    with the listed items' original and adjusted scores and the objective
    (the selected adjusted scores, summed per user in ascending item order
    and added user by user). `tie_break="inverted"` is a test hook that
    flips the original score and index tie directions, in both steps."""
    if tie_break not in ("default", "inverted"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    for lam in lambdas:
        _check_lam(lam)
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    m, n = matrix.num_users, matrix.num_items
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds catalog size {n}")
    default = tie_break == "default"
    cand, original = _group_candidates(matrix.values, part, cfg, lowest_first=default)
    lams = np.asarray(lambdas, dtype=np.float64)
    shifts = _fairness_shifts(part, lams, m, cfg.per_user_lambda)
    rows = np.arange(m)[:, None]
    out: list[RecommendationLists] = []
    # step 2 sorts as many λ points at once as fit in a step-1 block
    step = max(1, _BLOCK_CELLS // max(cand.size, 1))
    shape = (min(step, len(lams)), *cand.shape)
    ties = [np.broadcast_to(key, shape) for key in ((cand, -original) if default else (-cand, original))]
    for lo in range(0, len(lams), step):
        chunk = lams[lo : lo + step]
        at = np.arange(len(chunk))[:, None, None]
        adjusted = original + shifts[lo : lo + step, cand]
        adjusted[chunk == 0] = original  # λ = 0 keeps the original bits, -0.0 included
        pick = np.lexsort((*(key[: len(chunk)] for key in ties), -adjusted), axis=-1)[..., : cfg.k]
        # in display order: original score descending, ties by lower index
        pick = pick[at, rows, np.lexsort((cand[rows, pick], -original[rows, pick]), axis=-1)]
        top, top_original, top_adjusted = cand[rows, pick], original[rows, pick], adjusted[at, rows, pick]
        infeasible = ~np.isfinite(top_adjusted).all(axis=-1)
        if infeasible.any():
            point, u = np.unravel_index(np.argmax(infeasible), infeasible.shape)
            row = _pooled(matrix.values[u : u + 1], cfg.pool_size)[0]
            selectable = int(np.count_nonzero(np.isfinite(row + shifts[lo + point] if chunk[point] else row)))
            raise ValueError(f"user {u} has only {selectable} selectable items; need {cfg.k}")
        _check_lists(top, n, matrix.values)
        # canonical ascending-index summation keeps the objective reproducible
        sums = top_adjusted[at, rows, np.argsort(top, axis=-1)].sum(axis=-1)
        totals = np.cumsum(np.concatenate((np.zeros((len(chunk), 1)), sums), axis=1), axis=1)[:, -1]
        out += [
            RecommendationLists(top[i], n, float(totals[i]), scores=top_original[i], adjusted=top_adjusted[i])
            for i in range(len(chunk))
        ]
    return out


@functools.cache
def _combinations(count: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(count), k)), dtype=np.int64).reshape(-1, k)


def rerank_oracle(
    matrix: ScoreMatrix, part: PopularityPartition, cfg: RerankConfig, lambdas: Sequence[float]
) -> list[RecommendationLists]:
    """Reference solver at every λ in `lambdas` (cfg.lambda_grid is not
    read) by exhaustive enumeration of every k-subset per user.

    A user's candidates at one λ are the cells of their pool (the top
    cfg.pool_size items by original score, ties to the lower index) that
    stay finite after that λ's shift. Subset sums are refined with exact
    (correctly rounded) summation before comparison, and ties are resolved
    toward the subset whose items come first in the documented selection
    order, so a correct exact solver must match it set-for-set. Returns one
    display-ordered list set per λ with its objective, as `rerank_path`
    does; on bad input it raises what the first failing λ would raise.
    """
    for lam in lambdas:
        _check_lam(lam)
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    values = matrix.values
    m, n = values.shape
    lams = np.asarray(lambdas, dtype=np.float64)
    shifts = _fairness_shifts(part, lams, m, cfg.per_user_lambda)
    # fl(r + c) is monotone in r, so a λ overflows some cell iff it
    # overflows the column maximum
    overflow = np.isposinf(values.max(axis=0, initial=-np.inf) + shifts).any(axis=1)
    failures = [(at, -1, "score matrix contains NaN or +inf entries") for at in np.flatnonzero(overflow)]
    outside = np.zeros(values.shape, dtype=bool)
    if 0 < cfg.pool_size < n:
        order = np.lexsort((np.broadcast_to(np.arange(n), values.shape), -values), axis=1)
        np.put_along_axis(outside, order[:, cfg.pool_size :], True, axis=1)
    items = np.empty((len(lams), m, cfg.k), dtype=np.int64)
    terms = np.empty((len(lams), m))
    zero, live = lams == 0, ~overflow
    for u in range(m):
        r_row = values[u]
        rows = r_row + shifts
        rows[zero] = r_row
        rows[:, outside[u]] = -np.inf
        finite = np.isfinite(rows)
        counts = finite.sum(axis=1)
        # a shift moves each group's cells one way, so λ points with equal
        # candidate counts have equal candidate sets
        for count in set(counts[live].tolist()):
            points = np.flatnonzero((counts == count) & live)
            n_subsets = math.comb(count, cfg.k)
            if count < cfg.k:
                failures.append((points[0], u, f"user {u} has only {count} selectable items; need {cfg.k}"))
            elif n_subsets > ORACLE_SUBSET_LIMIT:
                message = f"user {u}: {n_subsets} subsets exceed the oracle limit {ORACLE_SUBSET_LIMIT}"
                failures.append((points[0], u, message))
            else:
                subsets = np.flatnonzero(finite[points[0]])[_combinations(count, cfg.k)]
                step = max(1, ORACLE_SUBSET_LIMIT // n_subsets)
                for lo in range(0, len(points), step):
                    _best_subsets(rows, r_row, subsets, points[lo : lo + step], items[:, u], terms[:, u])
    if failures:
        raise ValueError(min(failures)[2])
    users = np.arange(m)[:, None]
    items = items[np.arange(len(lams))[:, None, None], users, np.lexsort((items, -values[users, items]), axis=-1)]
    _check_lists(items, n, values)
    return [RecommendationLists(items[at], n, math.fsum(terms[at].tolist())) for at in range(len(lams))]


def _best_subsets(
    rows: np.ndarray, r_row: np.ndarray, subsets: np.ndarray, points: np.ndarray, items: np.ndarray, terms: np.ndarray
) -> None:
    """One user's best subset and its exact sum at each of `points`, the
    rows of `rows` (the user's adjusted rows, one per λ) whose candidates
    `subsets` enumerates; written to items[points] and terms[points]."""
    sums = rows[points][:, subsets].sum(axis=2)
    near = sums >= sums.max(axis=1, keepdims=True) - 1e-9
    chosen = subsets[sums.argmax(axis=1)]
    exact = [math.fsum(row) for row in rows[points[:, None], chosen].tolist()]
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        s_row, candidates = rows[points[i]], np.flatnonzero(near[i])
        exact_sums = [math.fsum(s_row[subsets[c]].tolist()) for c in candidates]
        exact[i] = max(exact_sums)
        rank_of = np.empty(len(s_row), dtype=np.int64)
        rank_of[np.lexsort((np.arange(len(s_row)), -r_row, -s_row))] = np.arange(len(s_row))
        finalists = [subsets[c] for c, v in zip(candidates, exact_sums) if v == exact[i]]
        chosen[i] = min(finalists, key=lambda subset: tuple(sorted(rank_of[subset].tolist())))
    items[points] = chosen
    terms[points] = exact


def lambda_sweep(
    matrix: ScoreMatrix,
    part: PopularityPartition,
    cfg: RerankConfig,
    judgments: list[set[int]],
    train: Interactions,
) -> list[tuple[float, "EvaluationReport"]]:
    """Re-rank and fully evaluate at every grid point, prepending the 0.0
    fairness-unaware baseline if the grid does not already start with it."""
    from .metrics import eval_context, evaluate  # deferred: metrics imports RecommendationLists from here

    if cfg.lambda_grid is None:
        raise ValueError("lambda_sweep requires cfg.lambda_grid")
    lambdas = cfg.lambda_points()
    ctx = eval_context(judgments, train, part, cfg.k)
    return [(lam, evaluate(ctx, lists)) for lam, lists in zip(lambdas, rerank_path(matrix, part, cfg, lambdas))]


def write_lists(path: Path | str, lists: RecommendationLists, ds: Dataset, part: PopularityPartition) -> Path:
    """Write per-user list lines:
    user_key<TAB>rank<TAB>item_key<TAB>original_score<TAB>adjusted_score<TAB>{short|long},
    the two scores as the solver kept them on `lists` (at λ = 0 the adjusted
    score is the original, bit for bit, so -0.0 stays)."""
    if lists.scores is None or lists.adjusted is None:
        raise ValueError("lists carry no scores; write the lists rerank_path returns")
    flat = lists.items.ravel()
    # each distinct bit pattern is formatted once; keyed on the bytes, not
    # the value, so -0.0 still prints "-0"
    both = np.concatenate((lists.scores.ravel(), lists.adjusted.ravel()))
    bits, slot = np.unique(both.view(np.int64), return_inverse=True)
    text = list(map("{:.10g}".format, bits.view(np.float64).tolist()))
    cells = list(map(text.__getitem__, slot.tolist()))
    keys = np.asarray(ds.item_keys, dtype=object)[flat].tolist()
    groups = np.where(part.short_head[flat], "short", "long").tolist()
    users = [user for user in ds.user_keys[: lists.num_users] for _ in range(lists.k)]
    ranks = [str(rank) for rank in range(1, lists.k + 1)] * lists.num_users
    rows = zip(users, ranks, keys, cells, cells[flat.size :], groups)
    return atomic_write_text(path, ("\n".join([f"{u}\t{r}\t{key}\t{s}\t{a}\t{g}" for u, r, key, s, a, g in rows]) + "\n",))
