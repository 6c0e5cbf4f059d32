"""Seeded property tests: the λ-path re-ranker and the context-based
metrics give exactly what the per-user reference loops in `reference.py`
give. Lists and objectives must be equal (the objective with ==), and every
report field equal by repr, so no changed bit goes unnoticed."""

import numpy as np
import pytest

import reference
from fairrerank.dataset import Interactions, PopularityPartition
from fairrerank.metrics import eval_context, evaluate
from fairrerank.rerank import RecommendationLists, RerankConfig, adjusted_scores, rerank_path
from fairrerank.scorers import MASKED, ScoreMatrix

LAMBDAS = (0.0, 0.01, 0.05, 0.2, 0.5, 1.0, 3.0, 100.0)
KINDS = ("continuous", "quantized", "popularity", "signed_zeros")


def _instance(rng, kind):
    """Scores of one kind (ties, identical rows, ±0.0), masked cells on
    about half the instances, a random partition, k, pool size and λ mode."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(2, 30))
    values = rng.random((m, n))
    if kind == "quantized":
        values = np.round(values * 4) / 4
    elif kind == "popularity":
        values = np.tile(np.round(rng.random(n) * 3) / 3, (m, 1))
    elif kind == "signed_zeros":
        values = np.round(values * 10) / 10 - 0.5
        values[values == 0] = rng.choice([0.0, -0.0], size=int(np.count_nonzero(values == 0)))
    if rng.random() < 0.5:
        values[rng.random((m, n)) < 0.3] = MASKED
    short = rng.random(n) < rng.random()
    part = PopularityPartition(short_head=short, popularity_count=np.zeros(n, dtype=np.int64))
    k = int(rng.integers(1, n + 1))
    pool = int(rng.integers(k, n + 2)) if rng.random() < 0.4 else 0
    cfg = RerankConfig(k=k, pool_size=pool, per_user_lambda=bool(rng.random() < 0.5))
    return ScoreMatrix(values), part, cfg


def _reference_path(matrix, part, cfg, tie_break):
    """Reference lists per λ, stopping at the first λ that raises, with its
    message."""
    out = []
    for lam in LAMBDAS:
        try:
            out.append(reference.rerank_exact(matrix, part, cfg, lam, tie_break))
        except ValueError as exc:
            return out, str(exc)
    return out, None


@pytest.mark.parametrize("tie_break", ["default", "inverted"])
@pytest.mark.parametrize("kind", KINDS)
def test_rerank_path_matches_per_user_reference(kind, tie_break):
    rng = np.random.default_rng(sum(map(ord, kind + tie_break)))
    compared = errors = 0
    for _ in range(120):
        matrix, part, cfg = _instance(rng, kind)
        expected, error = _reference_path(matrix, part, cfg, tie_break)
        if error is not None:
            with pytest.raises(ValueError) as caught:
                rerank_path(matrix, part, cfg, LAMBDAS, tie_break)
            assert str(caught.value) == error
            errors += 1
            continue
        for lam, got, want in zip(LAMBDAS, rerank_path(matrix, part, cfg, LAMBDAS, tie_break), expected):
            assert np.array_equal(got.items, want.items)
            assert got.objective == want.objective and repr(got.objective) == repr(want.objective)
            # the kept scores are the matrix's and adjusted_scores' cells, bit for bit
            adjusted = adjusted_scores(matrix, part, lam, cfg.per_user_lambda)
            assert got.scores.tobytes() == np.take_along_axis(matrix.values, got.items, axis=1).tobytes()
            assert got.adjusted.tobytes() == np.take_along_axis(adjusted.values, got.items, axis=1).tobytes()
            compared += 1
    assert compared > 250 and errors > 5


def test_one_point_path_equals_its_grid_point():
    rng = np.random.default_rng(11)
    for _ in range(50):
        matrix, part, cfg = _instance(rng, "quantized")
        matrix = ScoreMatrix(np.where(np.isfinite(matrix.values), matrix.values, 0.5))
        path = rerank_path(matrix, part, cfg, LAMBDAS[::-1])
        for lam, lists in zip(LAMBDAS[::-1], path):
            (one,) = rerank_path(matrix, part, cfg, (lam,))
            assert np.array_equal(one.items, lists.items) and one.objective == lists.objective


def test_rerank_path_rejects_bad_arguments():
    matrix = ScoreMatrix(np.array([[0.3, 0.1, 0.2]]))
    part = PopularityPartition(short_head=np.array([True, False, False]), popularity_count=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="lam must be >= 0"):
        rerank_path(matrix, part, RerankConfig(k=2), (0.0, -1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"lam must be >= 0 and finite, got {bad}"):
            rerank_path(matrix, part, RerankConfig(k=2), (0.0, bad))
    with pytest.raises(ValueError, match="unknown tie_break"):
        rerank_path(matrix, part, RerankConfig(k=2), (0.0,), tie_break="sideways")
    with pytest.raises(ValueError, match="exceeds catalog size"):
        rerank_path(matrix, part, RerankConfig(k=4), (0.0,))
    assert rerank_path(matrix, part, RerankConfig(k=2), ()) == []


def test_validate_reports_the_first_bad_user():
    values = np.array([[0.1, 0.2, 0.3], [0.1, MASKED, 0.3], [0.1, 0.2, 0.3]])
    lists = RecommendationLists(items=np.array([[0, 1], [1, 2], [2, 2]]), num_items=3)
    with pytest.raises(ValueError, match="user 1: list contains a masked item"):
        lists.validate(ScoreMatrix(values))
    with pytest.raises(ValueError, match="user 2: list has duplicate items"):
        lists.validate()


def _evaluation(rng):
    """A random train split, partition, judgments (some users without any)
    and lists: reranked ones, identical ones, or random ones."""
    m, n = int(rng.integers(2, 40)), int(rng.integers(6, 40))
    k = int(rng.integers(2, min(12, n) + 1))
    size = int(rng.integers(m, 6 * m))
    pairs = np.unique(rng.integers(0, m, size) * n + rng.integers(0, n, size))
    train = Interactions(pairs // n, pairs % n, np.ones(len(pairs)), m, n)
    counts = np.bincount(train.items, minlength=n)
    short = np.zeros(n, dtype=bool)
    short[np.lexsort((np.arange(n), -counts))[: max(1, n // 5)]] = True
    part = PopularityPartition(short_head=short, popularity_count=counts)
    judgments = [set(rng.choice(n, size=int(rng.integers(0, min(n, 15))), replace=False).tolist()) for _ in range(m)]
    judgments[0] = judgments[0] or {0}
    mode = rng.integers(3)
    if mode == 0:
        matrix = ScoreMatrix(np.round(rng.random((m, n)) * 8) / 8)
        items = rerank_path(matrix, part, RerankConfig(k=k), (float(rng.choice(LAMBDAS)),))[0].items
    elif mode == 1:
        items = np.tile(rng.choice(n, size=k, replace=False), (m, 1))
    else:
        items = np.stack([rng.choice(n, size=k, replace=False) for _ in range(m)])
    return RecommendationLists(items=items.astype(np.int64), num_items=n), judgments, train, part, k


def _same(a, b):
    return repr(a) == repr(b)


def test_metrics_match_per_user_reference():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        lists, judgments, train, part, k = _evaluation(rng)
        got = evaluate(eval_context(judgments, train, part, k), lists)
        want = reference.evaluate_all(lists, judgments, train, part, k)
        for field, value in got.as_dict().items():
            assert _same(value, getattr(want, field)), field


def test_one_context_serves_every_list_set():
    rng = np.random.default_rng(77)
    lists, judgments, train, part, k = _evaluation(rng)
    ctx = eval_context(judgments, train, part, k)
    for lam in LAMBDAS:
        matrix = ScoreMatrix(rng.random((lists.num_users, lists.num_items)))
        (point,) = rerank_path(matrix, part, RerankConfig(k=k), (lam,))
        assert evaluate(ctx, point) == evaluate(eval_context(judgments, train, part, k), point)
    longer = RecommendationLists(items=np.argsort(-rng.random((lists.num_users, lists.num_items)), axis=1), num_items=lists.num_items)
    assert evaluate(ctx, longer) == reference.evaluate_all(longer, judgments, train, part, k)
