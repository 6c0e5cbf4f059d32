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
The exact solver puts each user's candidates in that original-score order
once; a stable sort by adjusted score then gives each λ's selection, and
the selected positions in candidate order are its display order.
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
from .numtext import LINES, float_fields, lines, text_fields
from .scorers import ScoreBlocks, block_rows
from .util import atomic_write_text, check_integer

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import EvaluationReport

__all__ = [
    "RerankConfig",
    "RecommendationLists",
    "lambda_label",
    "rerank_path",
    "rerank_oracle",
    "lambda_sweep",
    "write_lists",
]

ORACLE_SUBSET_LIMIT = 10**6


@dataclass(frozen=True)
class RerankConfig:
    """Selection size, λ grid, and how λ scales.

    lambda_grid holds the λ points a run evaluates: finite, >= 0 and
    strictly ascending, with the 0.0 fairness-unaware baseline prepended
    when the given grid does not start with it. Each point is stored as
    g + 0.0, so a -0.0 is kept as 0.0. With per_user_lambda=False (the
    default) the per-item score adjustment is lam/num_users, matching a
    trade-off stated against the user-averaged exposure gap; with True it is
    lam per item, independent of user count. pool_size > 0 restricts each
    user's candidates to their top pool_size items by original score before
    re-ranking (0 means the full catalog).
    """

    k: int = 10
    lambda_grid: tuple[float, ...] = (0.0,)
    per_user_lambda: bool = False
    pool_size: int = 0

    def __post_init__(self):
        check_integer("k", self.k, 1)
        check_integer("pool_size", self.pool_size, 0)
        if self.pool_size and self.pool_size < self.k:
            raise ValueError("pool_size must be 0 (unlimited) or >= k")
        grid = tuple(g + 0.0 for g in self.lambda_grid)
        if not grid:
            raise ValueError("lambda_grid must be nonempty")
        if not all(g >= 0 and math.isfinite(g) for g in grid):
            raise ValueError("lambda_grid values must be finite and >= 0")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly ascending")
        object.__setattr__(self, "lambda_grid", grid if grid[0] == 0.0 else (0.0, *grid))


def lambda_label(lam: float) -> str:
    """The text that names a λ point in list file names, stage keys and
    report cells."""
    return format(lam, "g")


@dataclass(frozen=True)
class RecommendationLists:
    """A λ grid's per-user top-K lists: items[at, u] is user u's at point
    `at` (item indices, display order); one list set is `items[None]`."""

    items: np.ndarray  # (points, num_users, k) int64
    num_items: int
    objective: np.ndarray | None = None  # (points,) float64, from the solver
    scores: np.ndarray | None = None  # the listed items' original scores, from the solver, shaped as items
    adjusted: np.ndarray | None = None  # and their fairness-adjusted scores

    def __post_init__(self):
        if self.items.ndim != 3:
            raise ValueError("lists must be a (points, num_users, k) array")

    @property
    def num_users(self) -> int:
        return int(self.items.shape[-2])

    @property
    def k(self) -> int:
        return int(self.items.shape[-1])


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


def _fairness_shifts(matrix: ScoreBlocks, part: PopularityPartition, lambdas: Sequence[float],
                     per_user_lambda: bool) -> np.ndarray:
    """Both solvers' prologue: check every λ, then the partition width, and
    return the per-λ, per-item score shifts, (L, n): -delta for short-head
    items, +delta for long-tail. Every shift of a λ = 0 point is -0.0, and
    x + -0.0 is x bit for bit for every x (-0.0 and -inf included), so
    λ = 0 keeps the original scores."""
    for lam in lambdas:
        if not (lam >= 0 and math.isfinite(lam)):
            raise ValueError(f"lam must be >= 0 and finite, got {lam!r}")
    if part.num_items != matrix.num_items:
        raise ValueError("partition length does not match score matrix width")
    lams = np.asarray(lambdas, dtype=np.float64)[:, None]
    delta = lams if per_user_lambda else lams / max(matrix.num_users, 1)  # no users, no cells to shift
    return np.where(part.short_head | (lams == 0), -delta, delta)


def _top_mask(block: np.ndarray, count: int) -> np.ndarray:
    """Mark each row's `count` largest values; ties at the boundary go to
    the lower column index."""
    kth = np.partition(block, -count, axis=1)[:, -count, None]
    above = block > kth
    tied = block == kth
    tied &= np.cumsum(tied, axis=1) <= count - above.sum(axis=1, keepdims=True)
    return above | tied


def _group_candidates(matrix: ScoreBlocks, part: PopularityPartition,
                      cfg: RerankConfig) -> tuple[np.ndarray, np.ndarray]:
    """Step 1 of the λ path, in one pass over the score blocks: each user's
    top-k items of each group by original score, within the user's
    top-pool_size pool (ties to the lower index). A group's shift is one
    constant, and fl(r + c) is monotone in r, so no λ reorders a group and
    every λ's selection lies among these candidates. Returns the (m, C)
    candidate items and their pooled original scores."""
    m, n = matrix.num_users, matrix.num_items
    groups = [cols for cols in (np.flatnonzero(part.short_head), np.flatnonzero(~part.short_head)) if len(cols)]
    takes = [min(cfg.k, len(cols)) for cols in groups]
    items = np.empty((m, sum(takes)), dtype=np.int64)
    scores = np.empty((m, sum(takes)), dtype=np.float64)
    step = block_rows(n)
    for lo in range(0, m, step):
        block = matrix.rows(lo, lo + step)
        if 0 < cfg.pool_size < n:
            block = np.where(_top_mask(block, cfg.pool_size), block, -np.inf)
        at = 0
        for cols, take in zip(groups, takes):
            sub = block[:, cols]
            keep = _top_mask(sub, take) if take < len(cols) else np.ones(sub.shape, dtype=bool)
            rows = len(sub)
            items[lo : lo + rows, at : at + take] = cols[np.nonzero(keep)[1]].reshape(rows, take)
            scores[lo : lo + rows, at : at + take] = sub[keep].reshape(rows, take)
            at += take
    return items, scores


def rerank_path(matrix: ScoreBlocks, part: PopularityPartition, cfg: RerankConfig,
                lambdas: Sequence[float]) -> RecommendationLists:
    """Solve the fairness-adjusted selection exactly at every λ in `lambdas`
    (cfg.lambda_grid is not read): per user, the k items with the largest
    adjusted scores. The per-group candidates are picked once, in one pass
    over the score blocks (step 1) and put in tie order; each λ then
    stable-sorts only those by adjusted score (step 2), as many λ points
    per sort as fit in a block of cells. Returns one grid, point `at` for
    lambdas[at], with the listed items' original and adjusted scores and
    each point's objective (the selected adjusted scores, summed per user
    in ascending item order and added user by user)."""
    shifts = _fairness_shifts(matrix, part, lambdas, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds catalog size {n}")
    cand, original = _group_candidates(matrix, part, cfg)
    rows = np.arange(m)[:, None]
    # tie order, once: original score descending, then lower index
    order = np.lexsort((cand, -original), axis=-1)
    cand, original = cand[rows, order], original[rows, order]
    items = np.empty((len(shifts), m, cfg.k), dtype=np.int64)
    scores, adjusted, objective = np.empty(items.shape), np.empty(items.shape), np.empty(len(shifts))
    step = block_rows(cand.size)  # λ points per sort
    for lo in range(0, len(shifts), step):
        with np.errstate(over="ignore"):  # a cell past the float maximum fails below, naming itself
            block = original + shifts[lo : lo + step, cand]
        at, hi = np.arange(len(block))[:, None, None], lo + len(block)
        # a stable sort keeps tie order, so the first k picks in position
        # order are display order
        pick = np.sort(np.argsort(-block, axis=-1, kind="stable")[..., : cfg.k], axis=-1)
        items[lo:hi], scores[lo:hi], adjusted[lo:hi] = cand[rows, pick], original[rows, pick], block[at, rows, pick]
        infeasible = ~np.isfinite(adjusted[lo:hi]).all(axis=-1)
        if infeasible.any():
            # a +inf adjusted score is always picked; otherwise an infeasible
            # user has fewer than k finite pooled cells in each group, so the
            # candidates hold all of them
            point, u = np.unravel_index(np.argmax(infeasible), infeasible.shape)
            over = np.flatnonzero(np.isposinf(block[point, u]))
            if len(over):
                raise ValueError(f"lam={lambdas[lo + point]!r} shifts user {u}'s score {float(original[u, over[0]])!r} "
                                 f"of item {cand[u, over[0]]} past the float maximum")
            selectable = int(np.count_nonzero(np.isfinite(block[point, u])))
            raise ValueError(f"user {u} has only {selectable} selectable items; need {cfg.k}")
        # canonical ascending-index summation keeps the objective reproducible;
        # a λ near the float maximum sums to ±inf (or NaN) without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sums = adjusted[lo:hi][at, rows, np.argsort(items[lo:hi], axis=-1)].sum(axis=-1)
            objective[lo:hi] = np.cumsum(np.concatenate((np.zeros((len(block), 1)), sums), axis=1), axis=1)[:, -1]
    _check_lists(items, n)  # a finite adjusted score has a finite original
    return RecommendationLists(items, n, objective, scores, adjusted)


@functools.cache
def _combinations(count: int, k: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(count), k)), dtype=np.int64).reshape(-1, k)


def rerank_oracle(matrix: ScoreBlocks, part: PopularityPartition, cfg: RerankConfig,
                  lambdas: Sequence[float]) -> RecommendationLists:
    """Reference solver at every λ in `lambdas` (cfg.lambda_grid is not
    read) by exhaustive enumeration of every k-subset per user.

    A user's candidates at one λ are the cells of their pool (the top
    cfg.pool_size items by original score, ties to the lower index) that
    stay finite after that λ's shift. Subset sums are refined with exact
    (correctly rounded) summation before comparison, and ties are resolved
    toward the subset whose items come first in the documented selection
    order, so a correct exact solver must match it set-for-set. Returns the
    grid and its objectives as `rerank_path` does, without the scores; on
    bad input it raises what the first failing λ would raise. It reads all
    users as one block, `matrix.rows(0, m)`.
    """
    shifts = _fairness_shifts(matrix, part, lambdas, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    values = matrix.rows(0, m)
    # fl(r + c) is monotone in r, so a λ overflows some cell iff it
    # overflows the column maximum
    overflow = np.isposinf(values.max(axis=0, initial=-np.inf) + shifts).any(axis=1)
    failures = [(at, -1, "score matrix contains NaN or +inf entries") for at in np.flatnonzero(overflow)]
    outside = np.zeros(values.shape, dtype=bool)
    if 0 < cfg.pool_size < n:
        order = np.lexsort((np.broadcast_to(np.arange(n), values.shape), -values), axis=1)
        np.put_along_axis(outside, order[:, cfg.pool_size :], True, axis=1)
    items = np.empty((len(shifts), m, cfg.k), dtype=np.int64)
    terms = np.empty((len(shifts), m))
    for u in range(m):
        r_row = values[u]
        rows = r_row + shifts
        rows[:, outside[u]] = -np.inf
        finite = np.isfinite(rows)
        counts = finite.sum(axis=1)
        # a shift moves each group's cells one way, so λ points with equal
        # candidate counts have equal candidate sets
        for count in set(counts[~overflow].tolist()):
            points = np.flatnonzero((counts == count) & ~overflow)
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
    items = items[np.arange(len(shifts))[:, None, None], users, np.lexsort((items, -values[users, items]), axis=-1)]
    _check_lists(items, n, values)
    return RecommendationLists(items, n, np.array([math.fsum(point) for point in terms.tolist()]))


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


def lambda_sweep(matrix: ScoreBlocks, part: PopularityPartition, cfg: RerankConfig, judgments: list[set[int]],
                 train: Interactions) -> list[tuple[float, "EvaluationReport"]]:
    """Re-rank and fully evaluate at every point of cfg.lambda_grid, which
    starts at the 0.0 fairness-unaware baseline: one path, one evaluation.
    `judgments[u]` is user u's set of held-out items, made into the test
    split here. A run calls `rerank_path` and `evaluate` itself; this
    entry point stays for the benchmark harness and goes with ROADMAP
    item 5."""
    from .metrics import eval_context, evaluate  # deferred: metrics imports RecommendationLists from here

    users = np.repeat(np.arange(len(judgments)), [len(judged) for judged in judgments])
    items = np.fromiter((item for judged in judgments for item in sorted(judged)), dtype=np.int64, count=len(users))
    test = Interactions(users, items, np.ones(len(users)), len(judgments), part.num_items)
    lists = rerank_path(matrix, part, cfg, cfg.lambda_grid)
    return list(zip(cfg.lambda_grid, evaluate(eval_context(test, train, part, cfg.k), lists)))


def write_lists(path: Path | str, lists: RecommendationLists, at: int, ds: Dataset,
                part: PopularityPartition) -> tuple[Path, str]:
    """Write the per-user list lines of the grid's point `at`:
    user_key<TAB>rank<TAB>item_key<TAB>original_score<TAB>adjusted_score<TAB>{short|long},
    the two scores in `.10g` as the solver kept them on `lists` (at λ = 0
    the adjusted score is the original, bit for bit, so -0.0 stays), LINES
    lines at a time (`numtext`). Returns the path and digest."""
    if lists.scores is None or lists.adjusted is None:
        raise ValueError("lists carry no scores; write the lists rerank_path returns")
    flat, k, size = lists.items[at].ravel(), lists.k, lists.items[at].size
    cells = float_fields(np.concatenate((lists.scores[at].ravel(), lists.adjusted[at].ravel())), ".10g", "\t")
    users, ranks = text_fields(ds.user_keys[: lists.num_users]), text_fields(map(str, range(1, k + 1)))
    items, groups = text_fields(ds.item_keys), text_fields(("long", "short"), "\n")

    def text():
        for lo in range(0, size, LINES):
            at = np.arange(lo, min(lo + LINES, size))
            yield lines(users.take(at // k, axis=0), ranks.take(at % k, axis=0), items.take(flat[at], axis=0),
                        cells[at], cells[size + at], groups.take(part.short_head[flat[at]], axis=0))
        if not size:
            yield b"\n"

    return atomic_write_text(path, text())
