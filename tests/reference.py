"""Per-user reference implementations of the fairness shift, of the exact
re-ranker, of the one-λ oracle, of the list metrics, of the ALS half-step,
of seen-cell masking and of the split, and a top-k sorted without the
solver, kept for the tests only.

These are the straightforward one-user-at-a-time loops the vectorized
library code replaced. The property tests in `test_vectorized.py` check
that the library gives the same lists, the same objective and the same
report fields, bit for bit, on seeded random inputs; `test_scorers.py`
checks that the library's ALS factors equal these, bit for bit, and
`test_dataset.py` that the library's split gives these arrays. The ALS
half-step solves a row with 0 < L < d pairs through its L x L system
(`solve_row_ll`), as the library does, and every other row with pairs
through its d x d one (`solve_row_dd`); `train_mf_factors(...,
push_through=False)` solves every row through the d x d system, which
the library's factors must match within rounding. `mf_objective` sums the
ALS objective over the dense m x n cells, which the library's O(pairs*d)
sum must match within rounding.
"""

from __future__ import annotations

import math

import numpy as np

from fairrerank.dataset import Interactions, SplitTriple, _floor_exact
from fairrerank.metrics import EvaluationReport
from fairrerank.rerank import ORACLE_SUBSET_LIMIT, RecommendationLists, _check_lists, _combinations
from fairrerank.scorers import ScoreMatrix


def adjusted_scores(matrix, part, lam, per_user_lambda=False):
    """The scores at one λ, shifted by hand: delta = lam (per item) or
    lam / num_users, subtracted in short-head columns and added in
    long-tail ones; at λ = 0 a copy of the scores. A shift that leaves the
    finite range fails ScoreMatrix's NaN/+inf check."""
    if lam == 0:
        return ScoreMatrix(matrix.values.copy())
    delta = lam if per_user_lambda else lam / max(matrix.num_users, 1)
    return ScoreMatrix(np.where(part.short_head, matrix.values - delta, matrix.values + delta))


def _selection_order(s_row, r_row, tie_break):
    """Candidates by adjusted score descending, ties by the library's rule
    ("default": original score descending, then lower index) or by its
    mutation ("inverted": original ascending, then higher index), which the
    battery's mutation check in `test_acceptance.py` must catch."""
    idx = np.arange(len(s_row))
    if tie_break == "default":
        return np.lexsort((idx, -r_row, -s_row))
    if tie_break == "inverted":
        return np.lexsort((-idx, r_row, -s_row))
    raise ValueError(f"unknown tie_break {tie_break!r}")


def rerank_exact(matrix, part, cfg, lam, tie_break="default"):
    """At one λ, per user: sort the candidates by (adjusted desc, original desc,
    index asc), keep the first k, add their adjusted scores in ascending
    index order to the objective, display by (original desc, index asc)."""
    adjusted = adjusted_scores(matrix, part, lam, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds catalog size {n}")
    out = np.empty((m, cfg.k), dtype=np.int64)
    objective = 0.0
    for u in range(m):
        s_row = adjusted.values[u]
        r_row = matrix.values[u]
        if cfg.pool_size and cfg.pool_size < n:
            candidates = np.lexsort((np.arange(n), -r_row))[: cfg.pool_size]
        else:
            candidates = np.arange(n)
        order = candidates[_selection_order(s_row[candidates], r_row[candidates], tie_break)]
        top = order[: cfg.k]
        if len(top) < cfg.k or not np.isfinite(s_row[top]).all():
            selectable = int(np.count_nonzero(np.isfinite(s_row[candidates])))
            raise ValueError(f"user {u} has only {selectable} selectable items; need {cfg.k}")
        objective += float(np.sum(s_row[np.sort(top)]))
        out[u] = top[np.lexsort((top, -r_row[top]))]
    return RecommendationLists(items=out, num_items=n, objective=objective)


def rerank_oracle(matrix, part, cfg, lam):
    """The exhaustive oracle at one λ, one user at a time: enumerate every
    k-subset of the user's finite pooled cells, refine the near-best sums
    with math.fsum and break exact ties by the selection order."""
    adjusted = adjusted_scores(matrix, part, lam, cfg.per_user_lambda)
    m, n = matrix.num_users, matrix.num_items
    out = np.empty((m, cfg.k), dtype=np.int64)
    objective_terms = []
    for u in range(m):
        s_row = adjusted.values[u]
        r_row = matrix.values[u]
        pool = np.lexsort((np.arange(n), -r_row))[: cfg.pool_size] if 0 < cfg.pool_size < n else np.arange(n)
        candidates = np.sort(pool[np.isfinite(s_row[pool])])
        if len(candidates) < cfg.k:
            raise ValueError(f"user {u} has only {len(candidates)} selectable items; need {cfg.k}")
        n_subsets = math.comb(len(candidates), cfg.k)
        if n_subsets > ORACLE_SUBSET_LIMIT:
            raise ValueError(f"user {u}: {n_subsets} subsets exceed the oracle limit {ORACLE_SUBSET_LIMIT}")
        subset_items = candidates[_combinations(len(candidates), cfg.k)]
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
        out[u] = chosen[np.lexsort((chosen, -r_row[chosen]))]
    lists = RecommendationLists(items=out, num_items=n, objective=math.fsum(objective_terms))
    _check_lists(out, n, matrix.values)
    return lists


def precision_recall_at_k(lists, judgments, k):
    items = lists.items[:, :k]
    precisions, recalls = [], []
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


def ndcg_at_k(lists, judgments, k):
    items = lists.items[:, :k]
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    scores = []
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


def user_counts(train, num_items):
    """Each item's distinct train users, counted from a dense items x users
    0/1 incidence, so repeated pairs count once."""
    incidence = np.zeros((num_items, train.num_users), dtype=bool)
    incidence[train.items, train.users] = True
    return incidence.sum(axis=1)


def novelty(lists, train, num_users):
    counts = user_counts(train, lists.num_items)
    probed = np.maximum(counts[lists.items.ravel()], 1) / float(num_users)
    return float(np.mean(-np.log2(probed)))


def diversity(lists, train):
    item_user = np.zeros((lists.num_items, train.num_users), dtype=np.float64)
    item_user[train.items, train.users] = 1.0
    norm_sq = item_user.sum(axis=1)
    per_user = []
    k = lists.k
    pair_count = k * (k - 1) / 2
    for u in range(lists.num_users):
        vectors = item_user[lists.items[u]]
        gram = vectors @ vectors.T
        denom = np.sqrt(np.outer(norm_sq[lists.items[u]], norm_sq[lists.items[u]]))
        sim = np.where(denom > 0, gram / np.where(denom > 0, denom, 1.0), 0.0)
        upper = sim[np.triu_indices(k, 1)]
        per_user.append(1.0 - float(upper.sum()) / pair_count)
    return float(np.mean(per_user))


def union_gram(point_items, train, num_items):
    """The co-interaction Gram over the items any set lists, from a dense
    items x users 0/1 incidence and one product: entry [a, b] counts the
    train users of both a and b. Returns it and the listed items, in the
    order of its rows."""
    recommended = np.unique(np.concatenate([items.ravel() for items in point_items]))
    incidence = np.zeros((num_items, train.num_users), dtype=np.float64)
    incidence[train.items, train.users] = 1.0
    vectors = incidence[recommended]
    return vectors @ vectors.T, recommended


def coverage(lists, num_items):
    return len(np.unique(lists.items)) / num_items


def personalization_exact(lists):
    m, k = lists.num_users, lists.k
    counts = np.bincount(lists.items.ravel(), minlength=lists.num_items)
    inter_total = float(np.sum(counts * (counts - 1) // 2))
    return 1.0 - inter_total / (m * (m - 1) / 2 * k)


def serendipity(lists, train, k):
    items = lists.items[:, :k]
    counts = user_counts(train, lists.num_items)
    order = np.lexsort((np.arange(lists.num_items), -counts))
    primitive = set(order[:k].tolist())
    per_user = [
        sum(1 for item in items[u].tolist() if item not in primitive) / k for u in range(lists.num_users)
    ]
    return float(np.mean(per_user))


def exposure_counts(lists, judgments, part):
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


def fairness_gap(lists, part):
    """The lists' short-head and long-tail slot counts, and the gap: their
    difference per user (0 is equal exposure, k all-short-head lists)."""
    short_count, _, long_count, _ = exposure_counts(lists, [set()] * lists.num_users, part)
    return short_count, long_count, (short_count - long_count) / lists.num_users


def evaluate_all(lists, judgments, train, part, k):
    if lists.k > k:
        lists = RecommendationLists(items=lists.items[:, :k].copy(), num_items=lists.num_items)
    precision, recall = precision_recall_at_k(lists, judgments, k)
    short_count, rel_short, long_count, rel_long = exposure_counts(lists, judgments, part)
    return EvaluationReport(
        ndcg=ndcg_at_k(lists, judgments, k),
        precision=precision,
        recall=recall,
        novelty=novelty(lists, train, train.num_users),
        diversity=diversity(lists, train),
        coverage=coverage(lists, part.num_items),
        personalization=personalization_exact(lists),
        serendipity=serendipity(lists, train, k),
        short_count=short_count,
        rel_short=rel_short,
        long_count=long_count,
        rel_long=rel_long,
        fairness_gap=(short_count - long_count) / lists.num_users,
        k=k,
        evaluated_users=lists.num_users,
    )


def _group_by(index, companion, weights, size):
    """Per index value 0..size-1, the arrays of its companions and weights."""
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    starts = np.searchsorted(sorted_index, np.arange(size), side="left")
    stops = np.searchsorted(sorted_index, np.arange(size), side="right")
    comp_sorted = companion[order]
    w_sorted = weights[order]
    return (
        [comp_sorted[a:b] for a, b in zip(starts, stops)],
        [w_sorted[a:b] for a, b in zip(starts, stops)],
    )


def solve_row_dd(gram, factors, conf_minus_one):
    """One row's d x d system (G + Y_r^T D Y_r) x = Y_r^T c."""
    a = gram + (factors.T * conf_minus_one) @ factors
    return np.linalg.solve(a, factors.T @ (1.0 + conf_minus_one))


def solve_row_ll(z_rows, factors, conf_minus_one):
    """The same row's solution through its L x L system: x = Z_r^T s with
    (I + D Y_r Z_r^T) s = c, the 1.0 added to the diagonal in place."""
    a = conf_minus_one[:, None] * (factors @ z_rows.T)
    a.reshape(-1)[:: len(a) + 1] += 1.0
    return z_rows.T @ np.linalg.solve(a, 1.0 + conf_minus_one)


def _solve_half(this, other, seen, seen_w, reg, alpha, push_through):
    dim = other.shape[1]
    gram = other.T @ other + reg * np.eye(dim)
    z = np.linalg.solve(gram, other.T).T
    for r in range(this.shape[0]):
        cols = seen[r]
        if len(cols) == 0:
            this[r] = 0.0
        elif push_through and len(cols) < dim:
            this[r] = solve_row_ll(z[cols], other[cols], alpha * seen_w[r])
        else:
            this[r] = solve_row_dd(gram, other[cols], alpha * seen_w[r])


def train_mf_factors(train, cfg, push_through=True):
    """ALS with one list of (columns, weights) arrays per row, solved one
    row at a time: a row with 0 < L < d pairs through its L x L system, as
    the library does, unless `push_through` is false; every other row with
    pairs through its d x d system."""
    m, n = train.num_users, train.num_items
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.standard_normal((m, cfg.latent_dim)) * 0.01
    item_factors = rng.standard_normal((n, cfg.latent_dim)) * 0.01
    user_seen, user_w = _group_by(train.users, train.items, train.weights, m)
    item_seen, item_w = _group_by(train.items, train.users, train.weights, n)
    for _ in range(cfg.iterations):
        _solve_half(user_factors, item_factors, user_seen, user_w, cfg.regularization, cfg.confidence_alpha,
                    push_through)
        _solve_half(item_factors, user_factors, item_seen, item_w, cfg.regularization, cfg.confidence_alpha,
                    push_through)
    return user_factors, item_factors


def mf_objective(train, user_factors, item_factors, cfg):
    """The ALS objective over the dense m x n cells: confidence 1 + alpha*w
    and preference 1 on the train pairs, confidence 1 and preference 0
    elsewhere, plus the L2 penalty."""
    pred = user_factors @ item_factors.T
    pref = np.zeros_like(pred)
    conf = np.ones_like(pred)
    pref[train.users, train.items] = 1.0
    conf[train.users, train.items] += cfg.confidence_alpha * train.weights
    loss = float(np.sum(conf * (pref - pred) ** 2))
    return loss + cfg.regularization * (float(np.sum(user_factors**2)) + float(np.sum(item_factors**2)))


def mask_seen(values, train):
    """A copy of `values` with each train pair's cell set to -inf, one pair
    at a time."""
    masked = values.copy()
    for u, i in zip(train.users.tolist(), train.items.tolist()):
        masked[u, i] = -math.inf
    return masked


def plain_topk(values, k):
    """Each row's k best items by score descending, ties by lower index: the
    fairness-unaware top-k in display order, sorted without the solver."""
    index = np.broadcast_to(np.arange(values.shape[1]), values.shape)
    return np.lexsort((index, -values), axis=1)[:, :k]


def split(ds, ratios=(0.7, 0.1, 0.2), seed=42):
    """Per user in index order, shuffle the user's pairs with one seeded
    generator and cut them into train/valid/test buckets (users with fewer
    than 3 pairs keep all in train); then concatenate each split's buckets
    and sort it by (user, item)."""
    inter = ds.interactions
    rng = np.random.default_rng(seed)
    order = np.argsort(inter.users, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(inter.users[order])) + 1)
    buckets = ([], [], [])
    for grp in groups:
        c = len(grp)
        if c < 3:
            buckets[0].append(grp)
            continue
        shuffled = grp[rng.permutation(c)]
        cut1 = _floor_exact(ratios[0] * c)
        cut2 = _floor_exact((ratios[0] + ratios[1]) * c)
        buckets[0].append(shuffled[:cut1])
        buckets[1].append(shuffled[cut1:cut2])
        buckets[2].append(shuffled[cut2:])

    def collect(parts):
        idx = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
        idx = idx[np.lexsort((inter.items[idx], inter.users[idx]))]
        return Interactions(inter.users[idx].copy(), inter.items[idx].copy(), inter.weights[idx].copy(),
                            inter.num_users, inter.num_items)

    return SplitTriple(*map(collect, buckets), seed)
