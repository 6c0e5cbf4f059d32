import itertools
import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

import reference
from conftest import evaluated, interactions, judged_split, make_partition, raises_exactly
from fairrerank.dataset import Interactions, PopularityPartition
from fairrerank.metrics import EvaluationReport, eval_context, evaluate, judgments_from_interactions
from fairrerank.rerank import RecommendationLists, RerankConfig, rerank_path
from fairrerank.synthetic import random_rerank_instance


def lists_of(rows, num_items):
    return RecommendationLists(items=np.asarray(rows, dtype=np.int64)[None], num_items=num_items)


class TestPrecisionRecall:
    def test_perfect_list(self):
        lists = lists_of([[0, 1, 2]], 5)
        report = evaluated(lists, [{0, 1, 2}], k=3)
        assert (report.precision, report.recall) == (1.0, 1.0)

    def test_zero_hits(self):
        lists = lists_of([[0, 1], [2, 3]], 6)
        report = evaluated(lists, [{4}, {5}], k=2)
        assert (report.precision, report.recall) == (0.0, 0.0)

    def test_hand_case_two_hits_of_four_judged(self):
        lists = lists_of([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]], 20)
        report = evaluated(lists, [{0, 1, 15, 16}], k=10)
        assert report.precision == approx(0.2)
        assert report.recall == approx(0.5)

    def test_users_without_judgments_skipped(self):
        lists = lists_of([[0, 1], [0, 1]], 4)
        report = evaluated(lists, [{0, 1}, set()], k=2)
        assert (report.precision, report.recall) == (1.0, 1.0)

    def test_no_judged_user_errors(self):
        lists = lists_of([[0, 1]], 4)
        with pytest.raises(ValueError, match="no user has relevance judgments"):
            evaluated(lists, [set()], k=2)


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        lists = lists_of([[3, 0, 1]], 5)
        assert evaluated(lists, [{3}], k=3).ndcg == approx(1.0)

    def test_single_relevant_at_rank_two(self):
        lists = lists_of([[0, 3, 1]], 5)
        assert evaluated(lists, [{3}], k=3).ndcg == approx(1.0 / math.log2(3), abs=1e-12)

    def test_no_hits_is_zero(self):
        lists = lists_of([[0, 1, 2]], 5)
        assert evaluated(lists, [{4}], k=3).ndcg == 0.0

    def test_truncated_ideal_normalizer(self):
        # 2 judged items, both in the list at ranks 1-2: ideal order, so 1.0
        lists = lists_of([[0, 1, 2]], 5)
        assert evaluated(lists, [{0, 1}], k=3).ndcg == approx(1.0)

    def test_ranks_below_k_are_ignored(self):
        a = lists_of([[0, 1, 2, 3]], 8)
        b = lists_of([[0, 1, 6, 7]], 8)
        judged = [{0, 6}]
        report_a, report_b = evaluated(a, judged, k=2), evaluated(b, judged, k=2)
        assert report_a.ndcg == report_b.ndcg
        assert (report_a.precision, report_a.recall) == (report_b.precision, report_b.recall)


class TestNovelty:
    def test_item_seen_by_everyone_contributes_zero_bits(self):
        train = interactions([(u, i, 1.0) for u in range(4) for i in range(2)], 4, 2)
        lists = lists_of([[0, 1], [0, 1], [0, 1], [0, 1]], 2)
        assert evaluated(lists, train=train).novelty == 0.0

    def test_rare_item_bits(self):
        train = interactions([(0, 0, 1.0), (1, 1, 1.0)], 1024, 2)
        lists = lists_of([[0, 1]], 2)
        assert evaluated(lists, train=train).novelty == approx(10.0)

    def test_counts_come_from_the_partition_not_the_train_split(self):
        train = interactions([(0, 0, 1.0), (1, 1, 1.0)], 1024, 2)
        lists = lists_of([[0, 1]], 2)
        part = PopularityPartition(short_head=np.zeros(2, dtype=bool), popularity_count=np.array([1024, 1024]))
        assert evaluated(lists, train=train, part=part).novelty == 0.0

    def test_unseen_item_uses_count_floor_of_one(self):
        train = interactions([(0, 0, 1.0)], 8, 3)
        lists = lists_of([[1, 2]], 3)
        assert evaluated(lists, train=train).novelty == approx(3.0)  # -log2(1/8)

    def test_most_popular_lists_minimize_novelty(self):
        # toy 5-item catalog with distinct popularities 5,4,3,2,1
        triples = [(u, i, 1.0) for i in range(5) for u in range(5 - i)]
        train = interactions(triples, 5, 5)
        popular = evaluated(lists_of([[0, 1]], 5), train=train).novelty
        for pair in itertools.combinations(range(5), 2):
            assert evaluated(lists_of([list(pair)], 5), train=train).novelty >= popular


class TestDiversity:
    def test_identical_columns_give_zero(self):
        train = interactions(
            [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)], 3, 3
        )
        lists = lists_of([[0, 1]], 3)
        assert evaluated(lists, train=train).diversity == 0.0

    def test_disjoint_user_sets_give_one(self):
        train = interactions([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        lists = lists_of([[0, 1]], 2)
        assert evaluated(lists, train=train).diversity == 1.0

    def test_three_item_hand_case(self):
        # items 0,1 identical (users {0,1}); item 2 disjoint (user {2})
        train = interactions(
            [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)], 3, 3
        )
        lists = lists_of([[0, 1, 2]], 3)
        assert evaluated(lists, train=train).diversity == approx(2.0 / 3.0)

    def test_zero_vector_similarity_defined_as_zero(self):
        train = interactions([(0, 0, 1.0)], 2, 3)
        lists = lists_of([[0, 2]], 3)  # item 2 never interacted
        assert evaluated(lists, train=train).diversity == 1.0

    def test_k1_rejected(self):
        train = interactions([(0, 0, 1.0)], 1, 2)
        with pytest.raises(ValueError, match="at least 2 items"):
            evaluated(lists_of([[0]], 2), train=train)


class TestCoverage:
    def test_identical_lists_cover_k_over_n(self):
        lists = lists_of([[0, 1, 2]] * 7, 12)
        assert evaluated(lists).coverage == approx(3 / 12)

    def test_full_catalog_coverage(self):
        lists = lists_of([[0, 1], [2, 3]], 4)
        assert evaluated(lists).coverage == 1.0

    def test_reference_fraction(self):
        rows = [[2 * j, 2 * j + 1] for j in range(206)]
        assert evaluated(lists_of(rows, 2060)).coverage == approx(0.2)

    def test_monotone_under_new_distinct_item(self):
        base = lists_of([[0, 1], [0, 1]], 6)
        widened = lists_of([[0, 1], [0, 5]], 6)
        assert evaluated(widened).coverage >= evaluated(base).coverage


class TestPersonalization:
    def test_identical_lists_score_zero(self):
        lists = lists_of([[0, 1, 2]] * 4, 6)
        assert evaluated(lists).personalization == 0.0

    def test_disjoint_lists_score_one(self):
        lists = lists_of([[0, 1], [2, 3], [4, 5]], 6)
        assert evaluated(lists).personalization == 1.0

    def test_half_overlap_pair(self):
        a = list(range(10))
        b = list(range(5, 15))
        lists = lists_of([a, b], 15)
        assert evaluated(lists).personalization == approx(0.5)

    def test_single_user_rejected(self):
        ctx = eval_context(judged_split([{0}], 3), interactions([], 1, 3), make_partition([False] * 3), 2)
        with pytest.raises(ValueError, match="at least 2 users"):
            evaluate(ctx, lists_of([[0, 1]], 3))

    def test_exact_above_5000_users(self):
        # two groups of g users with disjoint lists, identical within a
        # group: a pair overlaps fully iff both users are in one group
        g, k = 2600, 10
        rows = [list(range(k))] * g + [list(range(k, 2 * k))] * g
        expected = 1.0 - 2 * math.comb(g, 2) / math.comb(2 * g, 2)
        assert evaluated(lists_of(rows, 2 * k)).personalization == approx(expected, rel=1e-12)


class TestSerendipity:
    def _train(self):
        # popularity order: item0 (3 users) > item1 (2) > item2 (1); k=2 primitive = {0,1}
        triples = [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)]
        return interactions(triples, 3, 5)

    def test_primitive_list_scores_zero(self):
        train = self._train()
        assert evaluated(lists_of([[0, 1]], 5), train=train, k=2).serendipity == 0.0

    def test_disjoint_from_primitive_scores_one(self):
        train = self._train()
        assert evaluated(lists_of([[3, 4]], 5), train=train, k=2).serendipity == 1.0

    def test_one_of_ten_from_primitive(self):
        triples = [(u, i, 1.0) for i in range(10) for u in range(20 - i)]
        train = interactions(triples, 20, 25)
        # primitive top-10 = items 0..9; list keeps item 0 plus 9 outsiders
        lists = lists_of([[0] + list(range(10, 19))], 25)
        assert evaluated(lists, train=train, k=10).serendipity == approx(0.9)


class TestExposureCounts:
    def test_totals_match_slots(self):
        part = make_partition([True, True, False, False, False])
        lists = lists_of([[0, 2], [1, 3], [2, 4]], 5)
        report = evaluated(lists, [{0}, set(), {4}], part=part)
        short, rel_short, long, rel_long = report.short_count, report.rel_short, report.long_count, report.rel_long
        assert short + long == 3 * 2
        assert (short, long) == (2, 4)
        assert (rel_short, rel_long) == (1, 1)

    def test_relevant_subcounts_bounded(self):
        part = make_partition([True, False])
        lists = lists_of([[0, 1]] * 3, 2)
        judgments = [{0, 1}, {0}, set()]
        report = evaluated(lists, judgments, part=part)
        short, rel_short, long, rel_long = report.short_count, report.rel_short, report.long_count, report.rel_long
        assert rel_short <= short
        assert rel_long <= long

    def test_all_long_tail_lists_give_zero_short(self):
        part = make_partition([True, False, False])
        lists = lists_of([[1, 2]] * 4, 3)
        report = evaluated(lists, part=part)
        short, rel_short = report.short_count, report.rel_short
        assert short == 0
        assert rel_short == 0

    def test_reference_scale_identity_arithmetic(self):
        # a reference-scale exposure row: 22,169 + 4,601 = 26,770 = 10 * 2,677
        assert 22_169 + 4_601 == 26_770 == 10 * 2_677

    @pytest.mark.parametrize(
        "short_flags, rows, num_items, expected",
        [
            ([True] * 12, [list(range(10))] * 3, 12, (30, 0, 10.0)),
            ([True] * 5 + [False] * 5, [list(range(10))] * 4, 10, (20, 20, 0.0)),
            # user 0 picks two popular, user 1 two long-tail: ((2-0)+(0-2))/2 = 0
            ([True, True, False, False], [[0, 1], [2, 3]], 4, (2, 2, 0.0)),
            ([True, False], [[0, 1]], 3, "partition length does not match lists"),
        ],
        ids=["all_short_head_hits_upper_bound", "half_and_half_is_zero", "two_user_hand_case",
             "dimension_mismatch_rejected"],
    )
    def test_fairness_gap(self, short_flags, rows, num_items, expected):
        """(short_count, long_count, fairness_gap), or the error evaluate raises."""
        try:
            report = evaluated(lists_of(rows, num_items), part=make_partition(short_flags))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert (report.short_count, report.long_count, report.fairness_gap) == expected

    def test_fairness_gap_bounds_and_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            inst = random_rerank_instance(rng, min_k=2)  # diversity needs lists of 2
            lists = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (float(rng.random()),))
            report = evaluated(lists, part=make_partition(inst.part.short_head))
            m, k = report.evaluated_users, inst.k  # `evaluated` scores a one-user set as two users
            assert report.short_count + report.long_count == m * k
            assert report.fairness_gap == (report.short_count - report.long_count) / m
            assert -k <= report.fairness_gap <= k


def _full_inputs(seed=0, m=8, n=12, k=3):
    rng = np.random.default_rng(seed)
    size = 4 * m
    train = Interactions(
        rng.integers(0, m, size=size), rng.integers(0, n, size=size), np.ones(size), m, n
    )
    part = make_partition([j < 3 for j in range(n)], train)
    rows = np.stack([rng.choice(n, size=k, replace=False) for _ in range(m)])
    lists = RecommendationLists(items=rows.astype(np.int64)[None], num_items=n)
    judgments = [set(rng.choice(n, size=2, replace=False).tolist()) for _ in range(m)]
    return lists, judgments, train, part, k


class TestEvaluateAll:
    def test_composes_component_metrics(self):
        lists, judgments, train, part, k = _full_inputs()
        report = evaluated(lists, judgments, train, part, k)
        assert report.precision == reference.precision_recall_at_k(lists.items[0], judgments, k)[0]
        assert report.ndcg == reference.ndcg_at_k(lists.items[0], judgments, k)
        assert report.coverage == reference.coverage(lists.items[0], part.num_items)
        assert report.short_count + report.long_count == lists.num_users * k
        assert report.k == k
        assert report.evaluated_users == lists.num_users

    def test_user_permutation_invariance(self):
        lists, judgments, train, part, k = _full_inputs()
        perm = np.random.default_rng(1).permutation(lists.num_users)
        shuffled = RecommendationLists(items=lists.items[:, perm], num_items=lists.num_items)
        shuffled_judgments = [judgments[u] for u in perm]
        a = evaluated(lists, judgments, train, part, k)
        b = evaluated(shuffled, shuffled_judgments, train, part, k)
        for field in ("ndcg", "precision", "recall", "novelty", "diversity", "coverage",
                      "personalization", "serendipity", "fairness_gap"):
            assert getattr(a, field) == approx(getattr(b, field))
        assert (a.short_count, a.rel_short, a.long_count, a.rel_long) == (
            b.short_count, b.rel_short, b.long_count, b.rel_long,
        )

    def test_hit_count_consistency_when_all_users_judged(self):
        lists, judgments, train, part, k = _full_inputs(seed=3)
        report = evaluated(lists, judgments, train, part, k)
        hits = report.rel_short + report.rel_long
        assert report.precision * k * report.evaluated_users == approx(hits)

    def test_bounds_validated(self):
        lists, judgments, train, part, k = _full_inputs(seed=5)
        report = evaluated(lists, judgments, train, part, k)
        report.validate()

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            EvaluationReport(
                ndcg=1.5, precision=0, recall=0, novelty=0, diversity=0, coverage=0,
                personalization=0, serendipity=0, short_count=0, rel_short=0,
                long_count=0, rel_long=0, fairness_gap=0, k=1, evaluated_users=0,
            ).validate()

    def test_fewer_judgment_sets_than_lists_rejected(self):
        lists = _full_inputs(m=6)[0]
        _, judgments, train, part, k = _full_inputs(m=4)
        ctx = eval_context(judged_split(judgments, part.num_items), train, part, k)
        with pytest.raises(ValueError, match="lists cover 6 users but the context has 4 judgment sets"):
            evaluate(ctx, lists)

    def test_more_judgment_sets_than_lists_rejected(self):
        lists, judgments, train, part, k = _full_inputs(m=6)
        four = RecommendationLists(items=lists.items[:, :4], num_items=lists.num_items)
        with pytest.raises(ValueError, match="lists cover 4 users but the context has 6 judgment sets"):
            evaluate(eval_context(judged_split(judgments, part.num_items), train, part, k), four)

    def test_no_list_set_gives_no_report(self):
        lists, judgments, train, part, k = _full_inputs()
        none = RecommendationLists(items=lists.items[:0], num_items=lists.num_items)
        assert evaluate(eval_context(judged_split(judgments, part.num_items), train, part, k), none) == []

    def test_judgments_from_interactions(self):
        test_set = interactions([(0, 1, 1.0), (0, 2, 1.0), (2, 0, 1.0)], 3, 4)
        judgments = judgments_from_interactions(test_set)
        assert judgments == [{1, 2}, set(), {0}]


@pytest.mark.parametrize(
    "test_shape, train_shape, part_items",
    [((3, 4), (2, 4), 4), ((2, 5), (2, 4), 4), ((2, 5), (2, 4), 5), ((2, 4), (2, 4), 5)],
    ids=["test-users", "test-items", "train-items", "partition-items"],
)
def test_a_split_of_another_universe_is_rejected(test_shape, train_shape, part_items):
    test = interactions([(0, 1, 1.0)], *test_shape)
    train = interactions([(0, 0, 1.0), (1, 1, 1.0)], *train_shape)
    part = make_partition([False] * part_items)
    message = (f"test ({test_shape[0]} x {test_shape[1]}), train ({train_shape[0]} x {train_shape[1]}) "
               f"and partition ({part_items} items) do not share one user x item universe")
    raises_exactly(ValueError, message, lambda: eval_context(test, train, part, 2))


def _traced_peak(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_memory_follows_the_item_union_not_the_grid_length():
    # 2000 users: the union's (items x users) incidence is 6.4 MB, one set's
    # m x k(k-1)/2 pair arrays 0.72 MB each, so 16 sets' pair arrays held
    # at once would add about 11.5 MB
    rng = np.random.default_rng(17)
    m, n, k = 2000, 400, 10
    size = 20 * m
    train = Interactions(rng.integers(0, m, size=size), rng.integers(0, n, size=size), np.ones(size), m, n)
    part = make_partition([j < n // 5 for j in range(n)], train)
    base = np.argsort(rng.random((m, n)), axis=1)[:, :k]
    # each set lists the same rows for other users, so every set's items are the union
    sets = RecommendationLists(items=np.stack([np.roll(base, shift, axis=0) for shift in range(16)]), num_items=n)
    assert all(len(np.unique(items)) == n for items in sets.items)
    first = RecommendationLists(items=sets.items[:1], num_items=n)
    ctx = eval_context(judged_split([set(row[:2].tolist()) for row in base], n), train, part, k)
    one, grid = _traced_peak(evaluate, ctx, first), _traced_peak(evaluate, ctx, sets)
    assert grid <= one + (one >> 4), f"16 sets peaked at {grid} bytes against {one} for one set"


_VALID = dict(ndcg=0.5, precision=0.5, recall=0.5, novelty=1.0, diversity=0.5, coverage=0.5, personalization=0.5,
              serendipity=0.5, short_count=2, rel_short=1, long_count=2, rel_long=1, fairness_gap=0.0, k=2,
              evaluated_users=2)


def _evaluate_two_item_lists_at_k_3():
    lists = RecommendationLists(items=np.tile(np.arange(2, dtype=np.int64), (1, 2, 1)), num_items=4)
    train = interactions([(0, 0, 1.0), (1, 1, 1.0)], 2, 4)
    evaluate(eval_context(judged_split([{0}, {1}], 4), train, make_partition([True, False, False, False], train), 3), lists)


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: EvaluationReport(**{**_VALID, "novelty": -0.5}).validate(), "novelty=-0.5 must be >= 0"),
        (lambda: EvaluationReport(**{**_VALID, "long_count": 3}).validate(), "exposure counts do not sum to list slots"),
        (lambda: EvaluationReport(**{**_VALID, "rel_long": 3, "long_count": 2}).validate(),
         "relevant exposure subcounts exceed their totals"),
        (lambda: EvaluationReport(**{**_VALID, "fairness_gap": 2.5}).validate(), "fairness gap 2.5 out of [-k, k]"),
        (lambda: eval_context(judged_split([{0}], 4), interactions([(0, 0, 1.0)], 1, 4), make_partition([True, False, False, False]), 0),
         "k must be >= 1"),
        (_evaluate_two_item_lists_at_k_3, "lists have 2 entries but k=3 requested"),
    ],
    ids=["novelty", "slots", "relevant", "gap", "context-k", "short-lists"],
)
def test_each_input_check_raises_its_message(check, message):
    raises_exactly(ValueError, message, check)
