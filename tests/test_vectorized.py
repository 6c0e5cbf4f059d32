"""Seeded property tests: the λ-path re-ranker and the context-based
metrics give exactly what the per-user reference loops in `reference.py`
give. Lists and objectives must be equal (the objective with ==), and every
report field equal by repr, so no changed bit goes unnoticed."""

import numpy as np
import pytest

import reference
from conftest import judged_split
from fairrerank import metrics, rerank, scorers
from fairrerank.dataset import Interactions, PopularityPartition
from fairrerank.metrics import eval_context, evaluate
from fairrerank.rerank import RecommendationLists, RerankConfig, rerank_oracle, rerank_path
from fairrerank.scorers import MASKED, ScoreMatrix
from fairrerank.synthetic import random_rerank_instance

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


def _reference_path(matrix, part, cfg):
    """Reference lists per λ, stopping at the first λ that raises, with its
    message."""
    out = []
    for lam in LAMBDAS:
        try:
            out.append(reference.rerank_exact(matrix, part, cfg, lam))
        except ValueError as exc:
            return out, str(exc)
    return out, None


def _check_against_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind + "default")))
    compared = errors = 0
    for _ in range(120):
        matrix, part, cfg = _instance(rng, kind)
        expected, error = _reference_path(matrix, part, cfg)
        if error is not None:
            with pytest.raises(ValueError) as caught:
                rerank_path(matrix, part, cfg, LAMBDAS)
            assert str(caught.value) == error
            errors += 1
            continue
        for lam, got, want in zip(LAMBDAS, rerank_path(matrix, part, cfg, LAMBDAS), expected):
            assert np.array_equal(got.items, want.items)
            assert got.objective == want.objective and repr(got.objective) == repr(want.objective)
            # the kept scores are the matrix's and the reference shift's cells, bit for bit
            adjusted = reference.adjusted_scores(matrix, part, lam, cfg.per_user_lambda)
            assert got.scores.tobytes() == np.take_along_axis(matrix.values, got.items, axis=1).tobytes()
            assert got.adjusted.tobytes() == np.take_along_axis(adjusted.values, got.items, axis=1).tobytes()
            compared += 1
    assert compared > 250 and errors > 5


# the ids name the one tie rule; the inverted rule is the battery's mutation
# check in test_acceptance.py
@pytest.mark.parametrize("kind", KINDS, ids=[f"{kind}-default" for kind in KINDS])
def test_rerank_path_matches_per_user_reference(kind):
    _check_against_reference(kind)


@pytest.mark.parametrize("block", [1, scorers._BLOCK_CELLS, 10**9], ids=["one-cell", "default", "unbounded"])
def test_rerank_path_does_not_depend_on_the_block_size(monkeypatch, block):
    """Step 1 takes users and step 2 takes λ points in blocks of
    _BLOCK_CELLS cells: one λ at a time, the default, or the whole grid."""
    monkeypatch.setattr(scorers, "_BLOCK_CELLS", block)
    for kind in KINDS:
        _check_against_reference(kind)


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
    with pytest.raises(ValueError, match="exceeds catalog size"):
        rerank_path(matrix, part, RerankConfig(k=4), (0.0,))
    assert rerank_path(matrix, part, RerankConfig(k=2), ()) == []


def test_an_empty_matrix_gives_empty_lists():
    part = PopularityPartition(short_head=np.array([True, False, False]), popularity_count=np.zeros(3, dtype=np.int64))
    for solver in (rerank_path, rerank_oracle):
        lists = solver(ScoreMatrix(np.zeros((0, 3))), part, RerankConfig(k=2), (0.0, 1.0))
        assert [point.items.shape for point in lists] == [(0, 2), (0, 2)]


def test_validate_reports_the_first_bad_user():
    values = np.array([[0.1, 0.2, 0.3], [0.1, MASKED, 0.3], [0.1, 0.2, 0.3]])
    items = np.array([[0, 1], [1, 2], [2, 2]])
    with pytest.raises(ValueError, match="user 1: list contains a masked item"):
        rerank._check_lists(items, 3, values)
    with pytest.raises(ValueError, match="user 2: list has duplicate items"):
        rerank._check_lists(items, 3)
    # a stack of list sets names the first bad user of its first bad set
    stack = np.array([[[0, 1], [0, 2], [2, 2]], [[0, 1], [1, 1], [0, 2]]])
    with pytest.raises(ValueError, match="user 2: list has duplicate items"):
        rerank._check_lists(stack, 3)
    with pytest.raises(ValueError, match="user 1: list contains a masked item"):
        rerank._check_lists(np.array([[[0, 1], [0, 1], [0, 2]], [[1, 1], [0, 2], [0, 2]]]), 3, values)
    rerank._check_lists(stack[:, :1], 3, values)


ORACLE_LAMBDAS = (0.0, 0.1, 0.5, 1.0, 3.0)
ORACLE_CASES = ("continuous", "quantized", "masked", "per_user", "pooled", "no_zero", "to_minus_inf", "to_plus_inf")
LARGEST = np.finfo(np.float64).max


def _oracle_case(rng, case):
    """A small instance of one case and its λ grid. The two overflow cases
    end the grid with a per-item λ of 1e300 and, on about half the
    instances, put ∓LARGEST in one user's short-head (long-tail) cell, which
    that λ shifts to -inf (+inf); no other cell leaves the range."""
    inst = random_rerank_instance(rng, quantized=case == "quantized")
    values, short = inst.scores.values.copy(), inst.part.short_head
    lambdas = ORACLE_LAMBDAS[1:] if case == "no_zero" else ORACLE_LAMBDAS
    if case == "masked":
        values[rng.random(values.shape) < 0.3] = MASKED
    elif case in ("to_minus_inf", "to_plus_inf"):
        minus = case == "to_minus_inf"
        column = rng.choice(np.flatnonzero(short if minus else ~short))
        if rng.random() < 0.5:
            values[rng.integers(len(values)), column] = -LARGEST if minus else LARGEST
        lambdas = (*ORACLE_LAMBDAS, 1e300)
    pool = int(rng.integers(inst.k, values.shape[1] + 1)) if case == "pooled" else 0
    per_user = case in ("per_user", "to_minus_inf", "to_plus_inf")
    return ScoreMatrix(values), inst.part, RerankConfig(k=inst.k, pool_size=pool, per_user_lambda=per_user), lambdas


def _one_point_oracles(matrix, part, cfg, lambdas):
    """The reference oracle at each λ in turn, up to the first that raises,
    with its message."""
    out = []
    for lam in lambdas:
        try:
            out.append(reference.rerank_oracle(matrix, part, cfg, lam))
        except ValueError as exc:
            return out, str(exc)
    return out, None


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_grid_oracle_matches_the_one_point_reference(case):
    """Lists in display order and objectives equal the one-λ reference
    oracle's at every point; bad input raises what the reference raises at
    the first λ that fails."""
    rng = np.random.default_rng(sum(map(ord, case)))
    compared = errors = 0
    for _ in range(60):
        matrix, part, cfg, lambdas = _oracle_case(rng, case)
        with np.errstate(over="ignore"):  # both oracles add past LARGEST in the overflow cases
            expected, error = _one_point_oracles(matrix, part, cfg, lambdas)
            if error is not None:
                with pytest.raises(ValueError) as caught:
                    rerank_oracle(matrix, part, cfg, lambdas)
                assert str(caught.value) == error
                errors += 1
                continue
            got = rerank_oracle(matrix, part, cfg, lambdas)
        assert len(got) == len(expected)
        for point, want in zip(got, expected):
            assert np.array_equal(point.items, want.items)
            assert point.objective == want.objective
        compared += 1
    assert compared > 10
    assert (errors > 0) == (case in ("masked", "to_plus_inf"))


def test_solvers_report_the_first_failing_lambda():
    # λ = 1e300 sends user 0's -LARGEST cell to -inf and LARGEST to +inf
    part = PopularityPartition(short_head=np.array([False, True, True]), popularity_count=np.zeros(3, dtype=np.int64))
    cfg, lambdas = RerankConfig(k=2, per_user_lambda=True), (0.0, 1e300)
    short_at_the_last_point = [0.5, -LARGEST, MASKED]
    cases = [
        ([short_at_the_last_point, [0.75, MASKED, MASKED]], "user 1 has only 1 selectable items; need 2"),
        ([short_at_the_last_point], "user 0 has only 1 selectable items; need 2"),
        ([short_at_the_last_point, [LARGEST, 0.5, 0.25]], "score matrix contains NaN or +inf entries"),
    ]
    for rows, message in cases:
        # rerank_path does not build the shifted matrix, so it has no +inf check
        for solver in (rerank_oracle, rerank_path) if "+inf" not in message else (rerank_oracle,):
            with np.errstate(over="ignore"), pytest.raises(ValueError) as caught:
                solver(ScoreMatrix(np.array(rows)), part, cfg, lambdas)
            assert str(caught.value) == message
    assert rerank_oracle(ScoreMatrix(np.array(cases[0][0])), part, cfg, ()) == []


def test_path_names_the_cell_a_lambda_shifts_past_the_float_maximum():
    # the oracle reports this matrix as "score matrix contains NaN or +inf
    # entries"; a warning would fail the test, as the suite makes it an error
    part = PopularityPartition(short_head=np.array([False, True, True]), popularity_count=np.zeros(3, dtype=np.int64))
    rows = [[0.5, 0.25, 0.125], [0.75, LARGEST, 0.5], [LARGEST, 0.5, 0.25]]
    with pytest.raises(ValueError) as caught:
        rerank_path(ScoreMatrix(np.array(rows)), part, RerankConfig(k=2, per_user_lambda=True), (0.0, 1.0, 1e300))
    assert str(caught.value) == "lam=1e+300 shifts user 2's score 1.7976931348623157e+308 of item 0 past the float maximum"


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


def _assert_grid_matches_reference(point_lists, judgments, train, part, k):
    got = evaluate(eval_context(judged_split(judgments, part.num_items), train, part, k), point_lists)
    assert len(got) == len(point_lists)
    for report, lists in zip(got, point_lists):
        want = reference.evaluate_all(lists, judgments, train, part, k)
        for field, value in report.as_dict().items():
            assert _same(value, getattr(want, field)), field


def test_metrics_match_per_user_reference():
    rng = np.random.default_rng(2024)
    for _ in range(150):
        lists, judgments, train, part, k = _evaluation(rng)
        _assert_grid_matches_reference([lists], judgments, train, part, k)


def test_one_context_serves_every_list_set():
    rng = np.random.default_rng(77)
    lists, judgments, train, part, k = _evaluation(rng)
    test = judged_split(judgments, part.num_items)
    ctx = eval_context(test, train, part, k)
    for lam in LAMBDAS:
        matrix = ScoreMatrix(rng.random((lists.num_users, lists.num_items)))
        (point,) = rerank_path(matrix, part, RerankConfig(k=k), (lam,))
        assert evaluate(ctx, [point])[0] == evaluate(eval_context(test, train, part, k), [point])[0]
    longer = RecommendationLists(items=np.argsort(-rng.random((lists.num_users, lists.num_items)), axis=1), num_items=lists.num_items)
    assert evaluate(ctx, [longer])[0] == reference.evaluate_all(longer, judgments, train, part, k)


def test_grid_whose_sets_share_items_matches_per_point_reference():
    rng = np.random.default_rng(91)
    for _ in range(40):
        lists, judgments, train, part, k = _evaluation(rng)
        matrix = ScoreMatrix(np.round(rng.random((lists.num_users, lists.num_items)) * 8) / 8)
        point_lists = rerank_path(matrix, part, RerankConfig(k=k), LAMBDAS)
        _assert_grid_matches_reference([*point_lists, lists], judgments, train, part, k)


def test_grid_of_sets_with_disjoint_items_matches_per_point_reference():
    rng = np.random.default_rng(92)
    for _ in range(40):
        lists, judgments, train, part, k = _evaluation(rng)
        n = lists.num_items
        wide = n + n  # every set's items sit in a catalog half of their own
        train = Interactions(train.users, train.items + n * (train.items % 2), train.weights, train.num_users, wide)
        short = np.concatenate((part.short_head, part.short_head[::-1]))
        part = PopularityPartition(short_head=short, popularity_count=np.bincount(train.items, minlength=wide))
        low = RecommendationLists(items=lists.items, num_items=wide)
        high = RecommendationLists(items=lists.items[::-1] + n, num_items=wide)
        assert not set(low.items.ravel().tolist()) & set(high.items.ravel().tolist())
        _assert_grid_matches_reference([low, high], judgments, train, part, k)


def test_grid_of_lists_longer_than_k_is_truncated_like_the_reference():
    rng = np.random.default_rng(94)
    for _ in range(40):
        lists, judgments, train, part, k = _evaluation(rng)
        m, n = lists.num_users, lists.num_items
        full = RecommendationLists(items=np.argsort(-rng.random((m, n)), axis=1), num_items=n)
        longer = rerank_path(ScoreMatrix(rng.random((m, n))), part, RerankConfig(k=n), LAMBDAS[:3])
        _assert_grid_matches_reference([lists, full, *longer], judgments, train, part, k)


@pytest.mark.parametrize("bound", [1, 7, metrics._PAIR_CODES], ids=["one-pair", "seven", "default"])
def test_union_gram_equals_the_dense_incidence_product(monkeypatch, bound):
    # pairs counted a few at a time, across users with equal item counts;
    # the random train repeats some (user, item) pairs, which count once
    monkeypatch.setattr(metrics, "_PAIR_CODES", bound)
    rng = np.random.default_rng(bound)
    for _ in range(30):
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 40))
        size = int(rng.integers(0, 3 * m * n // 2))
        train = Interactions(rng.integers(0, m, size), rng.integers(0, n, size), np.ones(size), m, n)
        k = int(rng.integers(1, n + 1))
        point_items = [np.argsort(rng.random((m, n)), axis=1)[:, :k] for _ in range(int(rng.integers(1, 4)))]
        gram, row_of = metrics._union_gram(point_items, train, n)
        expected, recommended = reference.union_gram(point_items, train, n)
        assert np.array_equal(row_of[recommended], np.arange(len(recommended)))
        assert np.count_nonzero(row_of >= 0) == len(recommended)
        assert np.array_equal(gram, expected)
