import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

import reference
from conftest import interactions, judged_split, make_partition, raises_exactly
from fairrerank.dataset import build_dataset, parse_interactions
from fairrerank.metrics import eval_context, evaluate
from fairrerank.rerank import (
    RecommendationLists,
    RerankConfig,
    _check_lists,
    lambda_label,
    lambda_sweep,
    rerank_oracle,
    rerank_path,
    write_lists,
)
from fairrerank.scorers import MASKED, ScoreMatrix, random_blocks
from fairrerank.synthetic import random_rerank_instance


def lists_of(rows):
    arr = np.asarray(rows, dtype=np.int64)
    return RecommendationLists(items=arr, num_items=int(arr.max()) + 1, objective=None)


class TestAdjustedScores:
    """The fairness shift, checked by number on the adjusted scores that
    rerank_path keeps on its lists."""

    @staticmethod
    def _adjusted(values, short_flags, lam, per_user_lambda=False):
        """rerank_path's adjusted scores at one λ with k = n, so every cell
        is listed, put back in item order."""
        matrix = ScoreMatrix(np.asarray(values, dtype=np.float64))
        cfg = RerankConfig(k=matrix.num_items, per_user_lambda=per_user_lambda)
        (lists,) = rerank_path(matrix, make_partition(short_flags), cfg, (lam,))
        out = np.empty_like(matrix.values)
        np.put_along_axis(out, lists.items, lists.adjusted, axis=1)
        return out

    def test_lambda_zero_is_bitwise_identity(self):
        rng = np.random.default_rng(1)
        values = rng.random((4, 6))
        values[1, 3] = values[2, 0] = -0.0
        adjusted = self._adjusted(values, [True, False, True, False, False, False], 0.0)
        assert adjusted.tobytes() == values.tobytes()

    def test_short_head_cell_arithmetic(self):
        adjusted = self._adjusted(np.full((2, 1), 0.5), [True], 0.8)
        assert adjusted[0, 0] == approx(0.1)

    def test_long_tail_cell_arithmetic(self):
        adjusted = self._adjusted(np.full((2, 1), 0.5), [False], 0.8)
        assert adjusted[0, 0] == approx(0.9)

    def test_per_user_mode_skips_user_normalization(self):
        adjusted = self._adjusted(np.full((2, 1), 0.5), [True], 0.3, per_user_lambda=True)
        assert adjusted[0, 0] == approx(0.2)

    def test_masked_cells_stay_masked(self):
        # shifted up by 1.0, the masked cell is still unselectable
        with pytest.raises(ValueError, match="user 0 has only 1 selectable items; need 2"):
            self._adjusted([[0.5, MASKED]], [False, False], 1.0)


class TestRerankExact:
    def test_lambda_zero_equals_plain_topk(self):
        rng = np.random.default_rng(2)
        for index in range(20):
            inst = random_rerank_instance(rng, quantized=(index % 2 == 1))
            fair = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (0.0,))[0]
            assert np.array_equal(fair.items, reference.plain_topk(inst.scores.values, inst.k))

    def test_two_user_example_matches_enumeration(self):
        # independent oracle: exhaustive C(4,2) enumeration per user
        matrix = ScoreMatrix(np.array([[0.9, 0.8, 0.3, 0.2], [0.7, 0.6, 0.5, 0.1]]))
        part = make_partition([True, True, False, False])
        lam, m, k = 0.8, 2, 2
        expected = []
        for u in range(m):
            best = max(
                itertools.combinations(range(4), k),
                key=lambda subset: sum(matrix.values[u, j] for j in subset)
                - (lam / m) * sum(1 if part.short_head[j] else -1 for j in subset),
            )
            expected.append(set(best))
        assert expected == [{2, 3}, {2, 3}]
        lists = rerank_path(matrix, part, RerankConfig(k=k), (lam,))[0]
        assert [set(row.tolist()) for row in lists.items] == expected

    def test_saturating_lambda_forces_all_long_tail(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_rerank_instance(rng)
            lists = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (inst.saturating_lambda,))[0]
            short_count, _, gap = reference.fairness_gap(lists, inst.part)
            assert short_count == 0
            assert gap == -inst.k

    def test_user_with_too_few_selectable_items_errors(self):
        values = np.array([[0.5, MASKED, MASKED], [0.1, 0.2, 0.3]])
        matrix = ScoreMatrix(values)
        part = make_partition([False, False, False])
        with pytest.raises(ValueError, match="user 0"):
            rerank_path(matrix, part, RerankConfig(k=2), (0.0,))

    def test_never_selects_masked_cells(self):
        rng = np.random.default_rng(4)
        values = rng.random((5, 8))
        values[:, :3] = MASKED  # best columns masked away
        matrix = ScoreMatrix(values)
        part = make_partition([True, False] * 4)
        lists = rerank_path(matrix, part, RerankConfig(k=3), (0.5,))[0]
        assert np.all(lists.items >= 3)

    def test_display_order_follows_original_scores(self):
        matrix = ScoreMatrix(np.array([[0.1, 0.9, 0.5, 0.7]]))
        part = make_partition([False, True, False, False])
        # large lambda selects the three long-tail items; display by R desc
        lists = rerank_path(matrix, part, RerankConfig(k=3), (10.0,))[0]
        assert lists.items[0].tolist() == [3, 2, 0]

    def test_objective_is_total_adjusted_score(self):
        matrix = ScoreMatrix(np.array([[0.6, 0.4], [0.2, 0.8]]))
        part = make_partition([True, False])
        lists = rerank_path(matrix, part, RerankConfig(k=1), (0.5,))[0]
        # per-slot shift 0.25: user0 max(0.35, 0.65)=0.65, user1 max(-0.05, 1.05)=1.05
        assert lists.items[:, 0].tolist() == [1, 1]
        assert lists.objective == approx(1.7)

    def test_pool_size_restricts_candidates(self):
        matrix = ScoreMatrix(np.array([[0.9, 0.8, 0.2, 0.1]]))
        part = make_partition([True, True, False, False])
        wide = rerank_path(matrix, part, RerankConfig(k=2), (8.0,))[0]
        pooled = rerank_path(matrix, part, RerankConfig(k=2, pool_size=2), (8.0,))[0]
        assert set(wide.items[0].tolist()) == {2, 3}
        assert set(pooled.items[0].tolist()) == {0, 1}


class TestRerankOracle:
    def test_forced_selection_when_catalog_equals_k(self):
        matrix = ScoreMatrix(np.array([[0.3, 0.1, 0.2]]))
        part = make_partition([True, False, False])
        lists = rerank_oracle(matrix, part, RerankConfig(k=3), (1.0,))[0]
        assert set(lists.items[0].tolist()) == {0, 1, 2}

    def test_tie_on_adjusted_breaks_by_index_among_equal_originals(self):
        matrix = ScoreMatrix(np.array([[0.2, 0.2, 0.2]]))
        part = make_partition([True, False, False])
        lists = rerank_oracle(matrix, part, RerankConfig(k=1), (0.3,))[0]
        # items 1 and 2 tie at adjusted 0.5 and original 0.2; lower index wins
        assert lists.items[0].tolist() == [1]
        exact = rerank_path(matrix, part, RerankConfig(k=1), (0.3,))[0]
        assert exact.items[0].tolist() == [1]

    def test_blocks_give_the_lists_of_their_dense_matrix(self):
        # the oracle reads any ScoreBlocks as one block of all users
        source = random_blocks(4, 7, seed=3)
        part = make_partition([True, True, False, False, True, False, False])
        cfg, lambdas = RerankConfig(k=3, pool_size=5), (0.0, 0.5, 2.0, 8.0)
        on_blocks = rerank_oracle(source, part, cfg, lambdas)
        on_dense = rerank_oracle(ScoreMatrix(source.rows(0, 4)), part, cfg, lambdas)
        assert [lists.items.tolist() for lists in on_blocks] == [lists.items.tolist() for lists in on_dense]
        assert [lists.objective for lists in on_blocks] == [lists.objective for lists in on_dense]

    def test_instance_too_large_rejected(self):
        matrix = ScoreMatrix(np.zeros((1, 60)))
        part = make_partition([False] * 60)
        with pytest.raises(ValueError, match="oracle limit"):
            rerank_oracle(matrix, part, RerankConfig(k=8), (0.0,))

    @given(seed=st.integers(min_value=0, max_value=10_000), lam_tenths=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_solver(self, seed, lam_tenths):
        rng = np.random.default_rng(seed)
        inst = random_rerank_instance(rng, quantized=bool(seed % 2))
        cfg, lam = RerankConfig(k=inst.k), lam_tenths / 10
        fast = rerank_path(inst.scores, inst.part, cfg, (lam,))[0]
        slow = rerank_oracle(inst.scores, inst.part, cfg, (lam,))[0]
        assert fast.objective == approx(slow.objective, abs=1e-9)
        for u in range(fast.num_users):
            assert set(fast.items[u].tolist()) == set(slow.items[u].tolist())
            assert fast.items[u].tolist() == slow.items[u].tolist()  # same display order

    @pytest.mark.parametrize("pool", ["k", "k+1", "n"])
    def test_honours_the_pool_size(self, pool):
        """Candidates are each user's top pool_size items by original score,
        ties to the lower index, as in rerank_path."""
        rng = np.random.default_rng(0)
        for index in range(100):
            inst = random_rerank_instance(rng, quantized=(index % 2 == 1))
            size = {"k": inst.k, "k+1": inst.k + 1, "n": inst.scores.num_items}[pool]
            cfg, lambdas = RerankConfig(k=inst.k, pool_size=size), (0.0, 1.0, 3.0)
            path = rerank_path(inst.scores, inst.part, cfg, lambdas)
            for fast, slow in zip(path, rerank_oracle(inst.scores, inst.part, cfg, lambdas)):
                assert np.array_equal(fast.items, slow.items)
                assert fast.objective == approx(slow.objective, abs=1e-9)

    def test_respects_masked_cells(self):
        values = np.array([[MASKED, 0.4, 0.6, 0.1]])
        matrix = ScoreMatrix(values)
        part = make_partition([True, True, False, False])
        lists = rerank_oracle(matrix, part, RerankConfig(k=2), (0.0,))[0]
        assert 0 not in lists.items[0].tolist()


def _sweep_inputs():
    rng = np.random.default_rng(9)
    inst = random_rerank_instance(rng, max_users=4, max_items=10, max_k=3, min_k=2, min_users=2)
    m, n = inst.scores.num_users, inst.scores.num_items
    train = interactions(
        [(u, int(rng.integers(0, n)), 1.0) for u in range(m)], m, n
    )
    judgments = [{int(rng.integers(0, n))} for _ in range(m)]
    inst.part = make_partition(inst.part.short_head, train)  # a partition of the train split, as eval_context needs
    return inst, train, judgments


class TestLambdaSweep:
    def test_grid_zero_only_yields_baseline_report(self):
        inst, train, judgments = _sweep_inputs()
        cfg = RerankConfig(k=inst.k, lambda_grid=(0.0,))
        results = lambda_sweep(inst.scores, inst.part, cfg, judgments, train)
        assert len(results) == 1
        assert results[0][0] == 0.0

    def test_zero_prepended_when_absent(self):
        inst, train, judgments = _sweep_inputs()
        cfg = RerankConfig(k=inst.k, lambda_grid=(0.5, 1.0))
        results = lambda_sweep(inst.scores, inst.part, cfg, judgments, train)
        assert [lam for lam, _ in results] == [0.0, 0.5, 1.0]

    def test_short_count_non_increasing_and_gap_endpoints(self):
        rng = np.random.default_rng(10)
        grid = tuple(i / 4 for i in range(9))
        for _ in range(10):
            inst = random_rerank_instance(rng, max_users=4, max_items=10, max_k=3, min_k=2, min_users=2)
            m, n = inst.scores.num_users, inst.scores.num_items
            train = interactions([(0, 0, 1.0)], m, n)
            judgments = [{0} for _ in range(m)]
            cfg = RerankConfig(k=inst.k, lambda_grid=grid)
            results = lambda_sweep(inst.scores, make_partition(inst.part.short_head, train), cfg, judgments, train)
            shorts = [rep.short_count for _, rep in results]
            assert all(b <= a for a, b in zip(shorts, shorts[1:]))
            assert results[0][1].fairness_gap >= results[-1][1].fairness_gap

    def test_default_grid_yields_the_baseline_row(self):
        inst, train, judgments = _sweep_inputs()
        results = lambda_sweep(inst.scores, inst.part, RerankConfig(k=inst.k), judgments, train)
        (lists,) = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (0.0,))
        test = judged_split(judgments, inst.part.num_items)
        assert results == [(0.0, evaluate(eval_context(test, train, inst.part, inst.k), [lists])[0])]


class TestRerankConfigValidation:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(lambda_grid=(0.5, 0.25))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(lambda_grid=(-0.1,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ValueError, match="lambda_grid values must be finite"):
            RerankConfig(lambda_grid=(0.0, bad))
        with pytest.raises(ValueError, match="lam must be >= 0 and finite"):
            rerank_path(ScoreMatrix(np.zeros((1, 2))), make_partition([True, False]), RerankConfig(k=1), (bad,))

    def test_lambda_points_default_to_the_baseline(self):
        assert RerankConfig().lambda_grid == (0.0,)
        assert RerankConfig(lambda_grid=(2.5,)).lambda_grid == (0.0, 2.5)
        assert RerankConfig(lambda_grid=(0.0, 2.5)).lambda_grid == (0.0, 2.5)

    def test_negative_zero_is_stored_as_zero(self):
        grid = RerankConfig(lambda_grid=(-0.0, 2.0)).lambda_grid
        assert grid == (0.0, 2.0) and math.copysign(1.0, grid[0]) == 1.0
        assert [lambda_label(lam) for lam in grid] == ["0", "2"]

    def test_labels_are_the_g_text(self):
        assert [lambda_label(lam) for lam in (0.0, 0.5, 40.0, 1.0000001, 1e-07)] == ["0", "0.5", "40", "1", "1e-07"]

    def test_pool_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(k=5, pool_size=3)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            RerankConfig(lambda_grid=())


def _scored(lists, matrix, part, lam, per_user=False):
    """Hand-picked lists with the scores the solver would keep on them: the
    listed cells of the matrix and of the reference shift."""
    adjusted = reference.adjusted_scores(matrix, part, lam, per_user)
    scores, shifted = (np.take_along_axis(m.values, lists.items, axis=1) for m in (matrix, adjusted))
    return replace(lists, scores=scores, adjusted=shifted)


class TestWriteLists:
    """Golden bytes: scores print with .10g, the adjusted score is the
    original plus the group's shift, and at lam 0 a -0.0 stays -0."""

    @pytest.fixture
    def inputs(self):
        ds = build_dataset(parse_interactions([f"{u}\t{i}" for u in ("a", "b") for i in ("w", "x", "y", "z")]))
        scores = ScoreMatrix(np.array([[0.5, -0.0, 0.25, 0.125], [0.0, 1.0, -0.0, 1 / 3]]))
        part = make_partition([True, False, True, False])
        lists = RecommendationLists(items=np.array([[0, 1], [3, 2]]), num_items=4)
        return ds, scores, part, lists

    def test_lists_without_scores_rejected(self, inputs, tmp_path):
        ds, _, part, lists = inputs
        with pytest.raises(ValueError, match="lists carry no scores"):
            write_lists(tmp_path / "l.tsv", lists, ds, part)
        assert not (tmp_path / "l.tsv").exists()

    def test_lambda_zero_golden(self, inputs, tmp_path):
        ds, scores, part, lists = inputs
        path, _ = write_lists(tmp_path / "l.tsv", _scored(lists, scores, part, 0.0), ds, part)
        assert path.read_bytes() == (
            b"a\t1\tw\t0.5\t0.5\tshort\n"
            b"a\t2\tx\t-0\t-0\tlong\n"
            b"b\t1\tz\t0.3333333333\t0.3333333333\tlong\n"
            b"b\t2\ty\t-0\t-0\tshort\n"
        )

    def test_positive_lambda_golden(self, inputs, tmp_path):
        # delta = lam / num_users = 0.25
        ds, scores, part, lists = inputs
        path, _ = write_lists(tmp_path / "l.tsv", _scored(lists, scores, part, 0.5), ds, part)
        assert path.read_bytes() == (
            b"a\t1\tw\t0.5\t0.25\tshort\n"
            b"a\t2\tx\t-0\t0.25\tlong\n"
            b"b\t1\tz\t0.3333333333\t0.5833333333\tlong\n"
            b"b\t2\ty\t-0\t-0.25\tshort\n"
        )

    def test_per_user_lambda_golden(self, inputs, tmp_path):
        ds, scores, part, lists = inputs
        path, _ = write_lists(tmp_path / "l.tsv", _scored(lists, scores, part, 0.1, per_user=True), ds, part)
        assert path.read_bytes() == (
            b"a\t1\tw\t0.5\t0.4\tshort\n"
            b"a\t2\tx\t-0\t0.1\tlong\n"
            b"b\t1\tz\t0.3333333333\t0.4333333333\tlong\n"
            b"b\t2\ty\t-0\t-0.1\tshort\n"
        )

    @pytest.fixture
    def repeated(self):
        # users a and b have bitwise-identical rows; 0.0 and -0.0 both appear
        ds = build_dataset(parse_interactions([f"{u}\t{i}" for u in ("a", "b", "c") for i in ("w", "x", "y", "z")]))
        scores = ScoreMatrix(np.array([[0.0, -0.0, 0.5, 0.5], [0.0, -0.0, 0.5, 0.5], [-0.0, 0.0, 0.5, 0.25]]))
        part = make_partition([True, False, True, False])
        lists = RecommendationLists(items=np.array([[2, 0, 1], [2, 1, 0], [3, 0, 1]]), num_items=4)
        return ds, scores, part, lists

    def test_repeated_values_and_signed_zeros_lambda_zero(self, repeated, tmp_path):
        ds, scores, part, lists = repeated
        path, _ = write_lists(tmp_path / "l.tsv", _scored(lists, scores, part, 0.0), ds, part)
        assert path.read_bytes() == (
            b"a\t1\ty\t0.5\t0.5\tshort\n"
            b"a\t2\tw\t0\t0\tshort\n"
            b"a\t3\tx\t-0\t-0\tlong\n"
            b"b\t1\ty\t0.5\t0.5\tshort\n"
            b"b\t2\tx\t-0\t-0\tlong\n"
            b"b\t3\tw\t0\t0\tshort\n"
            b"c\t1\tz\t0.25\t0.25\tlong\n"
            b"c\t2\tw\t-0\t-0\tshort\n"
            b"c\t3\tx\t0\t0\tlong\n"
        )

    def test_repeated_values_and_signed_zeros_positive_lambda(self, repeated, tmp_path):
        # delta = 0.75 / 3 users = 0.25
        ds, scores, part, lists = repeated
        path, _ = write_lists(tmp_path / "l.tsv", _scored(lists, scores, part, 0.75), ds, part)
        assert path.read_bytes() == (
            b"a\t1\ty\t0.5\t0.25\tshort\n"
            b"a\t2\tw\t0\t-0.25\tshort\n"
            b"a\t3\tx\t-0\t0.25\tlong\n"
            b"b\t1\ty\t0.5\t0.25\tshort\n"
            b"b\t2\tx\t-0\t0.25\tlong\n"
            b"b\t3\tw\t0\t-0.25\tshort\n"
            b"c\t1\tz\t0.25\t0.5\tlong\n"
            b"c\t2\tw\t-0\t-0.25\tshort\n"
            b"c\t3\tx\t0\t0.25\tlong\n"
        )

    @pytest.mark.parametrize("lam, per_user", [(0.0, False), (0.7, False), (0.03, True)])
    def test_adjusted_column_matches_adjusted_scores(self, tmp_path, lam, per_user):
        rng = np.random.default_rng(5)
        inst = random_rerank_instance(rng)
        m, n = inst.scores.num_users, inst.scores.num_items
        ds = build_dataset(parse_interactions([f"u{u}\ti{i}" for u in range(m) for i in range(n)]))
        lists = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k, per_user_lambda=per_user), (lam,))[0]
        path, _ = write_lists(tmp_path / "l.tsv", lists, ds, inst.part)
        adjusted = reference.adjusted_scores(inst.scores, inst.part, lam, per_user)
        expected = [
            f"u{u}\t{rank}\ti{item}\t{inst.scores.values[u, item]:.10g}\t{adjusted.values[u, item]:.10g}"
            f"\t{'short' if inst.part.short_head[item] else 'long'}"
            for u in range(m)
            for rank, item in enumerate(lists.items[u].tolist(), start=1)
        ]
        assert path.read_text().splitlines() == expected


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: RerankConfig(k=0), "k must be >= 1"),
        (lambda: RerankConfig(pool_size=-1), "pool_size must be >= 0"),
        (lambda: RecommendationLists(items=np.arange(3, dtype=np.int64), num_items=3),
         "lists must be a (num_users, k) array"),
        (lambda: _check_lists(np.array([[0, 2]]), 2), "list contains an out-of-catalog item index"),
        (lambda: rerank_path(ScoreMatrix(np.zeros((1, 2))), make_partition([True, False, False]), RerankConfig(k=1),
                             (0.0,)), "partition length does not match score matrix width"),
    ],
    ids=["k", "pool", "shape", "catalog", "partition"],
)
def test_each_input_check_raises_its_message(check, message):
    raises_exactly(ValueError, message, check)
