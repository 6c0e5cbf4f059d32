import dataclasses
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from pytest import approx

import fuzz_repr
import reference
from conftest import interactions, pair_set, raises_exactly
from fairrerank import numtext, scorers
from fairrerank.dataset import DataError, Interactions, build_dataset, parse_interactions, partition_popularity
from fairrerank.rerank import RerankConfig, rerank_path
from fairrerank.scorers import (
    MASKED,
    MFConfig,
    ScoreBlocks,
    ScoreMatrix,
    load_scores,
    mask_seen,
    mf_blocks,
    mf_objective,
    mf_scorer,
    popularity_blocks,
    popularity_scorer,
    random_blocks,
    read_scores,
    seen_masked,
    train_mf_factors,
    write_scores,
)


class TestPopularityScorer:
    def test_item_seen_by_every_user_scores_one(self):
        triples = [(u, 0, 1.0) for u in range(4)]
        train = interactions(triples, 4, 2)
        scores = popularity_scorer(train)
        assert np.all(scores.values[:, 0] == 1.0)

    def test_unseen_item_scores_zero(self):
        train = interactions([(0, 0, 1.0)], 2, 3)
        scores = popularity_scorer(train)
        assert np.all(scores.values[:, 1] == 0.0)
        assert np.all(scores.values[:, 2] == 0.0)

    def test_direct_ratio(self):
        triples = [(u, 0, 1.0) for u in range(30)] + [(u, 1, 1.0) for u in range(10)]
        train = interactions(triples, 100, 2)
        scores = popularity_scorer(train)
        assert np.all(scores.values[:, 0] == approx(0.3))
        assert np.all(scores.values[:, 1] == approx(0.1))

    def test_rows_identical(self, tiny_train):
        scores = popularity_scorer(tiny_train)
        assert np.all(scores.values == scores.values[0])

    def test_induced_topk_is_global_popularity_topk(self):
        from fairrerank.dataset import distinct_user_counts

        triples = [(u, i, 1.0) for i in range(6) for u in range(12 - 2 * i)]
        train = interactions(triples, 12, 8)
        counts = distinct_user_counts(train, 8)
        expected = np.lexsort((np.arange(8), -counts))[:3]
        assert np.all(reference.plain_topk(popularity_scorer(train).values, 3) == expected)


def random_matrix(num_users, num_items, seed):
    """The random scorer's dense matrix: its one block of all users."""
    return ScoreMatrix(random_blocks(num_users, num_items, seed).rows(0, num_users))


class TestRandomScorer:
    def test_same_seed_identical(self):
        a = random_blocks(5, 7, seed=42).rows(0, 5)
        b = random_blocks(5, 7, seed=42).rows(0, 5)
        assert np.array_equal(a, b)

    def test_entries_in_unit_interval(self):
        values = random_blocks(20, 30, seed=1).rows(0, 20)
        assert np.all(values >= 0.0)
        assert np.all(values < 1.0)

    def test_different_seeds_differ(self):
        a = random_blocks(5, 7, seed=1).rows(0, 5)
        b = random_blocks(5, 7, seed=2).rows(0, 5)
        assert not np.array_equal(a, b)


def _block_train():
    """Two disjoint user blocks over disjoint item blocks; every user skips
    one in-block item (which their peers consume), so recovering the block
    structure means scoring that held-out item above everything cross-block."""
    triples = []
    for u in range(10):
        for i in range(5):
            if i != u % 5:
                triples.append((u, i, 1.0))
    for u in range(10, 20):
        for i in range(5, 10):
            if i != 5 + u % 5:
                triples.append((u, i, 1.0))
    return interactions(triples, 20, 10)


class TestMFScorer:
    def test_block_structure_recovered(self):
        train = _block_train()
        # rank 2 matches the two-block structure; higher ranks can memorize
        scores = mf_scorer(train, MFConfig(latent_dim=2, iterations=10, seed=3))
        masked = mask_seen(scores, train)
        top_unseen = np.argmax(masked.values, axis=1)
        for u in range(10):
            assert top_unseen[u] == u % 5, f"user {u} escaped its block"
        for u in range(10, 20):
            assert top_unseen[u] == 5 + u % 5, f"user {u} escaped its block"

    def test_zero_iterations_is_pure_seeded_init(self):
        train = _block_train()
        cfg = MFConfig(latent_dim=4, iterations=0, seed=11)
        scores = mf_scorer(train, cfg)
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal((20, 4)) * 0.01
        v0 = rng.standard_normal((10, 4)) * 0.01
        assert np.allclose(scores.values, u0 @ v0.T)

    def test_no_users_score_an_empty_matrix(self):
        assert mf_scorer(interactions([], 0, 5), MFConfig(latent_dim=2, iterations=1)).values.shape == (0, 5)

    def test_objective_non_increasing_over_iterations(self):
        rng = np.random.default_rng(5)
        triples = [
            (u, i, float(rng.integers(1, 5)))
            for u in range(20)
            for i in rng.choice(20, size=6, replace=False).tolist()
        ]
        train = interactions(triples, 20, 20)
        losses = []
        for iters in range(6):
            cfg = MFConfig(latent_dim=6, iterations=iters, regularization=0.1, seed=9)
            factors = train_mf_factors(train, cfg)
            losses.append(mf_objective(train, *factors, cfg))
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-9

    @pytest.mark.parametrize("block", [1, 40, 1 << 14], ids=["one-pair-blocks", "split-blocks", "default"])
    @pytest.mark.parametrize("iterations", [0, 3])
    def test_objective_equals_the_dense_reference(self, monkeypatch, block, iterations):
        # weights from 0.01 to 1e3, and a user and an item with no pair. The
        # sums run in another order than the dense one's, so the bound is
        # relative: 1e-12 (30 seeded cases of up to 80 x 80 cells reached 2.3e-15)
        rng = np.random.default_rng(41)
        m, n = 30, 25
        cells = rng.choice((m - 1) * (n - 1), size=200, replace=False)
        train = Interactions(cells // (n - 1), cells % (n - 1), 10 ** rng.uniform(-2, 3, size=200), m, n)
        monkeypatch.setattr(scorers, "_BLOCK", block)  # blocks of 1, 6 and all 200 pairs
        cfg = MFConfig(latent_dim=6, iterations=iterations, regularization=0.1, confidence_alpha=5.0, seed=2)
        factors = train_mf_factors(train, cfg)
        assert mf_objective(train, *factors, cfg) == approx(reference.mf_objective(train, *factors, cfg), rel=1e-12)

    def test_objective_builds_no_matrix_sized_array(self):
        # 3000 x 2000 cells would be a 48 MB matrix; 5 pairs per user
        m, n, dim = 3000, 2000, 8
        users = np.repeat(np.arange(m), 5)
        items = (users * 7 + np.tile(np.arange(5), m) * 13) % n
        train = Interactions(users, items, np.ones(len(users)), m, n)
        rng = np.random.default_rng(47)
        user_factors, item_factors = rng.standard_normal((m, dim)), rng.standard_normal((n, dim))
        tracemalloc.start()
        try:
            mf_objective(train, user_factors, item_factors, MFConfig(latent_dim=dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes for the objective of {m} x {n} cells"

    def test_fit_memory_does_not_grow_with_iterations(self):
        # the pairs are planned once per fit, and an iteration's
        # temporaries are freed before the next: ten iterations peak where
        # one does
        rng = np.random.default_rng(53)
        m, n, dim = 600, 400, 16
        users = np.repeat(np.arange(m), np.arange(m) % 30)
        items = np.concatenate([rng.choice(n, size=u % 30, replace=False) for u in range(m)])
        train = Interactions(users, items, rng.uniform(0.5, 4.0, size=len(users)), m, n)
        train_mf_factors(train, MFConfig(latent_dim=dim, iterations=1, seed=5))  # numpy's first-call set-up
        peaks = []
        for iterations in (1, 10):
            tracemalloc.start()
            try:
                train_mf_factors(train, MFConfig(latent_dim=dim, iterations=iterations, seed=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4096, f"peaks {peaks} bytes at 1 and 10 iterations"

    def test_deterministic_for_fixed_seed(self):
        train = _block_train()
        cfg = MFConfig(latent_dim=6, iterations=5, seed=21)
        a = mf_scorer(train, cfg)
        b = mf_scorer(train, cfg)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("iterations", [0, 1, 2, 3])
    def test_factors_equal_the_per_row_reference(self, iterations):
        # unsorted pairs, non-unit weights, and users and items with no pair
        rng = np.random.default_rng(17)
        m, n = 30, 24
        pairs = rng.choice((m - 4) * (n - 3), size=140, replace=False)
        users, items = pairs // (n - 3) + 2, pairs % (n - 3) + 1
        train = Interactions(users, items, rng.uniform(0.5, 4.0, size=140), m, n)
        assert np.bincount(users, minlength=m).min() == 0 and np.bincount(items, minlength=n).min() == 0
        cfg = MFConfig(latent_dim=5, iterations=iterations, regularization=0.2, confidence_alpha=7.5, seed=4)
        got, expected = train_mf_factors(train, cfg), reference.train_mf_factors(train, cfg)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("block", [1, 80, 10**9], ids=["one-row-chunks", "split-groups", "whole-groups"])
    def test_stacked_solve_equals_the_per_row_reference(self, monkeypatch, block):
        # user u has u % 7 pairs, so every pair count from 0 to 6 is a group
        # of 6 users; the items get many distinct counts, and 3 get none.
        # _BLOCK = 80 splits the user groups with 4-6 pairs into chunks of
        # 80 // (L * 4) = 5, 4 and 3 rows; the L x L groups (1-3 pairs) fit
        # whole
        rng = np.random.default_rng(23)
        m, n, dim = 42, 30, 4
        users = np.repeat(np.arange(m), np.arange(m) % 7)
        items = np.concatenate([rng.choice(n - 3, size=u % 7, replace=False) for u in range(m)])
        train = Interactions(users, items, rng.uniform(0.5, 4.0, size=len(users)), m, n)
        item_counts = np.bincount(items, minlength=n)
        assert len(np.unique(item_counts)) >= 6 and (item_counts == 0).sum() == 3
        monkeypatch.setattr(scorers, "_BLOCK", block)
        cfg = MFConfig(latent_dim=dim, iterations=3, regularization=0.3, confidence_alpha=5.0, seed=8)
        got, expected = train_mf_factors(train, cfg), reference.train_mf_factors(train, cfg)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
        assert not np.signbit(got[0][np.arange(m) % 7 == 0]).any()
        assert not np.signbit(got[1][item_counts == 0]).any()

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_both_systems_agree_with_the_d_by_d_solve(self, monkeypatch, dim):
        # user u has u pairs, so every count from 0 to 2d is a row of each
        # system, d - 1, d and d + 1 among them; items drawn by 1/rank get
        # counts on both sides of d. A fifth of the weights are 0, the rest
        # log-uniform from 0.01 to 1e4
        rng = np.random.default_rng(37 + dim)
        m, n = 2 * dim + 1, 3 * dim
        users = np.repeat(np.arange(m), np.arange(m))
        popular = 1.0 / np.arange(1, n + 1)
        items = np.concatenate([rng.choice(n, size=u, replace=False, p=popular / popular.sum()) for u in range(m)])
        weights = np.where(rng.random(len(users)) < 0.2, 0.0, 10 ** rng.uniform(-2, 4, size=len(users)))
        train = Interactions(users, items, weights, m, n)
        item_counts = np.bincount(items, minlength=n)
        assert item_counts.min() < dim <= item_counts.max() and weights.max() > 1e3
        cfg = MFConfig(latent_dim=dim, iterations=3, regularization=0.1, seed=6)
        got = train_mf_factors(train, cfg)
        assert all(map(np.array_equal, got, reference.train_mf_factors(train, cfg)))
        monkeypatch.setattr(scorers, "_BLOCK", 5 * dim)  # stacks of 5, 2 and 1 rows for 1, 2 and more pairs
        assert all(map(np.array_equal, got, train_mf_factors(train, cfg)))
        for factors, expected in zip(got, reference.train_mf_factors(train, cfg, push_through=False)):
            assert np.abs(factors - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_stacked_solve_memory_is_chunked(self):
        # every user has 2 pairs: one group of 4000 users, whose unchunked
        # stack of d x d systems alone is the 8.2 MB bound
        rng = np.random.default_rng(29)
        m, n, dim = 4000, 500, 16
        users = np.repeat(np.arange(m), 2)
        items = np.concatenate([rng.choice(n, size=2, replace=False) for _ in range(m)])
        train = Interactions(users, items, np.ones(len(users)), m, n)
        cfg = MFConfig(latent_dim=dim, iterations=1, seed=2)
        tracemalloc.start()
        try:
            train_mf_factors(train, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = m * dim * dim * 8
        assert peak < stack, f"peak {peak} bytes against a {stack}-byte stack of systems"

    def test_stacked_solve_temporaries_stay_below_the_mmap_threshold(self):
        # 600 users of 12 pairs at dim 32: stacks of 16 systems (128 KiB
        # each) peak at about 1.4 MiB in one iteration, with the factors and
        # the fit's plan of the pairs; stacks of 64 systems would peak at 2.5 MiB
        rng = np.random.default_rng(31)
        m, n, dim = 600, 500, 32
        users = np.repeat(np.arange(m), 12)
        items = np.concatenate([rng.choice(n, size=12, replace=False) for _ in range(m)])
        train = Interactions(users, items, np.ones(len(users)), m, n)
        tracemalloc.start()
        try:
            train_mf_factors(train, MFConfig(latent_dim=dim, iterations=1, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, f"peak {peak} bytes in one ALS iteration"

    def test_a_confidence_that_overflows_raises_a_data_error_and_warns_nothing(self):
        # mf.alpha * w is inf for the pair of weight 1e300, in the plan made
        # before the first iteration
        train = Interactions(np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([10.0, 1e300, 2.0]), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raises_exactly(DataError, "non-finite factor values at ALS iteration 0: mf.alpha = 1e+308 with the "
                           "largest train weight 1e+300 and mf.reg = 0.05",
                           lambda: train_mf_factors(train, MFConfig(latent_dim=2, iterations=2, confidence_alpha=1e308)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MFConfig(latent_dim=0)
        with pytest.raises(ValueError):
            MFConfig(regularization=0.0)
        with pytest.raises(ValueError):
            MFConfig(confidence_alpha=-1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="regularization must be positive"):
                MFConfig(regularization=bad)
            with pytest.raises(ValueError, match="confidence_alpha must be positive"):
                MFConfig(confidence_alpha=bad)


@pytest.fixture
def small_ds():
    return build_dataset(parse_interactions(["a\tx", "a\ty", "b\tx"]))


class TestLoadScores:
    def test_full_matrix_round_trip(self, small_ds, tmp_path):
        values = np.arange(4, dtype=np.float64).reshape(2, 2) / 10.0
        path, _ = write_scores(tmp_path / "scores.tsv", ScoreMatrix(values), small_ds)
        with open(path) as fh:
            loaded = load_scores(fh, small_ds)
        assert np.array_equal(loaded.values, values)
        assert loaded.import_coverage == 1.0

    def test_a_leading_byte_order_mark_is_dropped(self, small_ds, tmp_path):
        text = "a\tx\t0.5\nb\ty\t0.7\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        loaded = read_scores(marked, small_ds)
        assert loaded.values[0, 0] == 0.5
        assert loaded.values.tobytes() == read_scores(plain, small_ds).values.tobytes()

    def test_unknown_item_key_reports_line(self, small_ds):
        with pytest.raises(DataError, match="line 2"):
            load_scores(["a\tx\t0.5", "a\tzzz\t0.5"], small_ds)

    def test_single_triple_with_fill_zero(self, small_ds):
        loaded = load_scores(["b\ty\t0.7"], small_ds)
        assert loaded.values[1, 1] == 0.7
        assert np.count_nonzero(loaded.values) == 1
        assert loaded.import_coverage == approx(0.25)

    def test_non_finite_score_rejected(self, small_ds):
        with pytest.raises(DataError, match="non-finite"):
            load_scores(["a\tx\tnan"], small_ds)

    def test_sentinel_fill_masks_missing_cells(self, small_ds):
        loaded = load_scores(["a\tx\t0.5"], small_ds, fill=MASKED)
        assert loaded.values[0, 0] == 0.5
        assert np.count_nonzero(np.isfinite(loaded.values)) == 1


def _user_key(u):
    """A user key of 2 to 13 UTF-8 bytes by u % 4, some multi-byte, some
    with inner spaces: equal rows of consecutive users go under keys of
    unequal length."""
    return ("u", "ü ", "用户 名", "a b ")[u % 4] + str(u)


class TestWriteScores:
    """Golden bytes: one line per finite cell, scores in repr."""

    @pytest.fixture
    def ds(self):
        return build_dataset(parse_interactions([f"{u}\t{i}" for u in ("a", "b", "c") for i in ("x", "y")]))

    def _written(self, tmp_path, ds, rows):
        return write_scores(tmp_path / "s.tsv", ScoreMatrix(np.array(rows, dtype=np.float64)), ds)[0].read_bytes()

    def test_identical_rows(self, tmp_path, ds):
        assert self._written(tmp_path, ds, [[0.5, 0.25]] * 3) == (
            b"a\tx\t0.5\na\ty\t0.25\nb\tx\t0.5\nb\ty\t0.25\nc\tx\t0.5\nc\ty\t0.25\n"
        )

    def test_negative_zero_after_zero_row(self, tmp_path, ds):
        assert self._written(tmp_path, ds, [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]) == (
            b"a\tx\t0.0\na\ty\t1.0\nb\tx\t-0.0\nb\ty\t1.0\nc\tx\t0.0\nc\ty\t1.0\n"
        )

    def test_masked_cells_skipped(self, tmp_path, ds):
        rows = [[MASKED, 0.5], [0.25, MASKED], [MASKED, MASKED]]
        assert self._written(tmp_path, ds, rows) == b"a\ty\t0.5\nb\tx\t0.25\n"

    def test_all_masked_writes_newline(self, tmp_path, ds):
        assert self._written(tmp_path, ds, [[MASKED, MASKED]] * 3) == b"\n"

    def test_exponent_form(self, tmp_path, ds):
        assert self._written(tmp_path, ds, [[1e-05, 1e16], [-2.5e-300, 0.1], [1e16, 1e-05]]) == (
            b"a\tx\t1e-05\na\ty\t1e+16\nb\tx\t-2.5e-300\nb\ty\t0.1\nc\tx\t1e+16\nc\ty\t1e-05\n"
        )

    def test_matches_cell_by_cell_reference(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.choice([0.0, -0.0, 0.5, 1e-05, 1e16, MASKED], size=(12, 5))
        values[3] = values[2]
        values[7:10] = rng.random(5)
        ds = build_dataset(parse_interactions([f"u{u}\ti{i}" for u in range(12) for i in range(5)]))
        path, _ = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        expected = [
            f"u{u}\ti{i}\t{float(values[u, i])!r}" for u in range(12) for i in range(5) if np.isfinite(values[u, i])
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("users", [1, 63, 64, 65, 70, 130, 200])
    def test_row_chunks_match_cell_by_cell_reference(self, tmp_path, monkeypatch, users):
        # the export reads blocks of 64 users here: identical rows under
        # keys of unequal length and an all-masked run span block
        # boundaries, and with 70 users the last 6 rows are masked, so the
        # file ends right after a full block
        monkeypatch.setattr(scorers, "_BLOCK_CELLS", 64 * 4)
        rng = np.random.default_rng(users)
        values = rng.choice([0.0, -0.0, 0.5, 1e-05, 1e16, MASKED], size=(users, 4))
        values[60:70] = values[59 % users]
        values[120:136] = MASKED
        values[136:140] = values[119 % users]
        if users == 70:
            values[64:] = MASKED
        ds = build_dataset(parse_interactions([f"{_user_key(u)}\ti{i}" for u in range(users) for i in range(4)]))
        path, _ = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        expected = [
            f"{_user_key(u)}\ti{i}\t{float(values[u, i])!r}"
            for u in range(users) for i in range(4) if np.isfinite(values[u, i])
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("block_users", [1, 2, 3, 10**6])
    def test_blocks_match_cell_by_cell_reference(self, tmp_path, monkeypatch, block_users):
        # a block source read a few users at a time: equal rows (the
        # popularity case) under keys of unequal length and a 0.0 row next
        # to a -0.0 row across block boundaries, masked cells, and equal
        # rows right after all-masked rows
        monkeypatch.setattr(scorers, "_BLOCK_CELLS", block_users * 3)
        values = np.array(
            [[0.5, 0.25, MASKED]] * 4 + [[0.0, 1.0, MASKED], [-0.0, 1.0, MASKED], [0.0, 1.0, 0.5]] * 2
            + [[MASKED] * 3] * 2 + [[0.5, 0.25, MASKED]] * 3 + [[-0.0, -0.0, -0.0]]
        )
        source = ScoreBlocks(len(values), 3, lambda lo, hi: values[lo:hi].copy())
        ds = build_dataset(parse_interactions(
            [f"{_user_key(u)}\ti{i}" for u in range(len(values)) for i in range(3)]
        ))
        path, _ = write_scores(tmp_path / "s.tsv", source, ds)
        expected = [
            f"{_user_key(u)}\ti{i}\t{float(values[u, i])!r}"
            for u in range(len(values)) for i in range(3) if np.isfinite(values[u, i])
        ]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_peak_memory_is_a_small_fraction_of_the_export(self, tmp_path):
        # streamed in row chunks: formatting the export never holds the
        # whole file (as one joined string and its encoding, about 2x)
        users, items = 2400, 100
        values = np.random.default_rng(2).random((users, items))
        ds = build_dataset(parse_interactions(
            [f"user{u:08d}\titem{u % items:08d}" for u in range(users)]
            + [f"user00000000\titem{i:08d}" for i in range(items)]
        ))
        tracemalloc.start()
        try:
            path, _ = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 10_000_000
        assert peak < size / 4, f"peak {peak} bytes for a {size}-byte export"

    def test_round_trip_through_read_scores(self, tmp_path, ds):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((3, 2)) * 10.0 ** rng.integers(-20, 20, (3, 2))
        values[1] = [-0.0, MASKED]
        values[2] = values[0]
        path, _ = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        loaded = read_scores(path, ds, fill=MASKED)
        assert loaded.values.tobytes() == values.tobytes()
        assert loaded.import_coverage == 5 / 6


class TestReprFields:
    """The toolkit's numpy float text is Python's, byte for byte: `repr`
    and `.10g` (`fairrerank.numtext`)."""

    def test_differential_against_repr(self):
        out = io.StringIO()
        assert fuzz_repr.fuzz(10**6, seed=20, out=out) == 0, out.getvalue()

    @pytest.mark.parametrize("value", [
        0.0, 5e-324, 2.0**-20, 1e-05, 9.999999999999999e-05, 0.0001, 1e15, 1e16, 0.1 + 0.2,
        9007199254740993.0, 623686950246838.75, 99999999999999.99,
    ])
    def test_edge_values(self, value):
        for layout in fuzz_repr.LAYOUTS:
            assert fuzz_repr.mismatches(np.array([value, -value]), layout) == [], layout

    @pytest.mark.parametrize("values, layout, end, distinct", [
        (np.ones(10000), "repr", "\n", 1),  # split weights
        (np.tile(np.random.default_rng(3).standard_normal(3000), 2), ".10g", "\t", 3000),  # each list score twice
    ], ids=["weights", "lists-at-lambda-0"])
    def test_repeated_values_are_formatted_once(self, monkeypatch, values, layout, end, distinct):
        formatted = []
        original = numtext._format
        monkeypatch.setattr(numtext, "_format", lambda x, *args: formatted.append(len(x)) or original(x, *args))
        text = numtext.lines(numtext.float_fields(values, layout, end))
        assert text == "".join(numtext._LAYOUTS[layout][3](v) + end for v in values.tolist()).encode()
        assert sum(formatted) == distinct

    def test_a_batch_of_distinct_values_is_not_sorted_whole(self, monkeypatch):
        # the mf score export: a probe of 64 values finds no repeat
        values = np.random.default_rng(5).random(numtext.LINES)
        sorted_sizes = []
        original = np.sort
        monkeypatch.setattr(np, "sort", lambda x, *args: sorted_sizes.append(len(x)) or original(x, *args))
        text = numtext.lines(numtext.float_fields(values))
        assert text == "".join(repr(v) + "\n" for v in values.tolist()).encode()
        assert sorted_sizes and max(sorted_sizes) <= 64

    def test_the_kernel_decides_ordinary_scores(self):
        # Python formats only what the kernel leaves undecided, so the
        # differential test alone would pass with every cell left to it
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.random(10**5), 0.3 * rng.standard_normal(10**5), np.arange(-2000, 2000) * 0.05])
        for layout, (_, kernel) in fuzz_repr.LAYOUTS.items():
            assert np.count_nonzero(kernel(np.abs(values))[3]) <= 2, layout


class TestMaskSeen:
    def test_seen_cells_become_sentinel(self, tiny_train):
        scores = popularity_scorer(tiny_train)
        masked = mask_seen(scores, tiny_train)
        assert masked.values[0, 0] == MASKED

    def test_unseen_cells_unchanged_bit_for_bit(self, tiny_train):
        scores = random_matrix(6, 5, seed=0)
        original = scores.values.copy()
        masked = mask_seen(scores, tiny_train)
        unseen = np.isfinite(masked.values)
        assert masked.values[unseen].tobytes() == original[unseen].tobytes()
        assert not unseen.all()

    def test_returns_a_masked_copy_and_leaves_its_input_unchanged(self, tiny_train):
        scores = random_matrix(6, 5, seed=0)
        original = scores.values.copy()
        masked = mask_seen(scores, tiny_train)
        assert isinstance(masked, ScoreMatrix) and masked is not scores
        assert not np.shares_memory(masked.values, scores.values)
        assert scores.values.tobytes() == original.tobytes()
        assert masked.values.tobytes() == reference.mask_seen(original, tiny_train).tobytes()

    def test_masking_is_idempotent(self, tiny_train):
        once = mask_seen(random_matrix(6, 5, seed=0), tiny_train)
        twice = mask_seen(once, tiny_train)
        assert twice.values.tobytes() == once.values.tobytes()

    def test_dimension_mismatch_rejected(self, tiny_train):
        with pytest.raises(ValueError):
            mask_seen(random_matrix(3, 3, seed=0), tiny_train)


class TestScoreBlocks:
    """A scorer's blocks of users are its dense matrix's rows, bit for bit."""

    @pytest.mark.parametrize("step", [1, 3, 7, 20, 131, 600])
    def test_blocks_are_the_dense_rows(self, monkeypatch, step):
        train = _block_train()
        cfg = MFConfig(latent_dim=3, iterations=2, seed=5)
        cases = [
            (popularity_blocks(partition_popularity(train, train.num_items).popularity_count, train.num_users),
             popularity_scorer(train)),
            (random_blocks(20, 10, seed=9), random_matrix(20, 10, seed=9)),
            (mf_blocks(train, cfg), mf_scorer(train, cfg)),
        ]
        # mf at a run's shape, 600 users x 500 items x dim 32: products of
        # 32 users, and blocks of 131 users (block_rows(500)) in a pass
        rng = np.random.default_rng(8)
        factors = rng.standard_normal((600, 32)), rng.standard_normal((500, 32))
        monkeypatch.setattr(scorers, "train_mf_factors", lambda train, cfg: factors)
        wide = interactions([(0, 0, 1.0)], 600, 500)
        cases.append((mf_blocks(wide, MFConfig(latent_dim=32)), mf_scorer(wide, MFConfig(latent_dim=32))))
        for source, dense in cases:
            assert (source.num_users, source.num_items) == dense.values.shape
            rows = np.concatenate([source.rows(lo, lo + step) for lo in range(0, source.num_users, step)])
            assert rows.shape == dense.values.shape
            assert rows.tobytes() == dense.values.tobytes()

    def test_random_blocks_are_one_draw(self):
        # one generator's draw, as the random scorer made it before it read blocks
        values = np.random.default_rng(13).random((9, 4))
        source = random_blocks(9, 4, seed=13)
        assert np.concatenate([source.rows(lo, lo + 2) for lo in range(0, 9, 2)]).tobytes() == values.tobytes()

    def test_a_non_finite_mf_block_is_rejected(self, monkeypatch):
        monkeypatch.setattr(scorers, "train_mf_factors", lambda train, cfg: (np.full((2, 1), 1e200), np.full((3, 1), 1e200)))
        source = mf_blocks(interactions([(0, 0, 1.0)], 2, 3), MFConfig(latent_dim=1))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"NaN or \+inf"):
            source.rows(0, 1)

    @pytest.mark.parametrize("per_product", [1, 3, 20])
    def test_mf_products_hold_a_bounded_number_of_users(self, monkeypatch, per_product):
        # fewer than _MF_PRODUCT multiply-adds buy per_product users of 10
        # items x dim 3; products start at multiples of per_product and hold
        # per_product users, the last one clipped at the 20th user, whatever
        # block needs them
        sizes = []

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                sizes.append(len(self))
                return np.asarray(self) @ other

        rng = np.random.default_rng(4)
        user_factors, item_factors = rng.standard_normal((20, 3)), rng.standard_normal((10, 3))
        aligned = range(0, 20, per_product)
        products = np.concatenate([user_factors[at : at + per_product] @ item_factors.T for at in aligned])
        recorded = (user_factors.view(Recorded), item_factors)
        monkeypatch.setattr(scorers, "train_mf_factors", lambda train, cfg: recorded)
        monkeypatch.setattr(scorers, "_MF_PRODUCT", per_product * 30 + 29)
        source = mf_blocks(interactions([(0, 0, 1.0)], 20, 10), MFConfig(latent_dim=3))
        for lo in range(0, 20, 7):
            sizes.clear()
            rows = source.rows(lo, lo + 7)
            assert type(rows) is np.ndarray
            assert rows.tobytes() == products[lo : lo + 7].tobytes()
            starts = range(lo - lo % per_product, min(lo + 7, 20), per_product)
            assert sizes == [min(per_product, 20 - at) for at in starts]

    def test_pairs_given_out_of_user_order_mask_the_same_cells(self, tiny_train):
        # Interactions sorts them on construction
        reverse = Interactions(tiny_train.users[::-1], tiny_train.items[::-1], tiny_train.weights, 6, 5)
        expected = reference.mask_seen(random_blocks(6, 5, seed=0).rows(0, 6), tiny_train)
        source = seen_masked(random_blocks(6, 5, seed=0), reverse)
        assert np.concatenate([source.rows(lo, lo + 2) for lo in range(0, 6, 2)]).tobytes() == expected.tobytes()
        assert mask_seen(random_matrix(6, 5, seed=0), reverse).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", [1, 2, 6])
    def test_seen_masked_blocks_equal_mask_seen(self, tiny_train, step):
        # tiny_train is sorted by user, as a split's train is
        source = seen_masked(random_blocks(6, 5, seed=0), tiny_train)
        rows = np.concatenate([source.rows(lo, lo + step) for lo in range(0, 6, step)])
        assert rows.tobytes() == reference.mask_seen(random_blocks(6, 5, seed=0).rows(0, 6), tiny_train).tobytes()

    def test_masking_and_export_leave_a_held_matrix_unchanged(self, tiny_train, tmp_path):
        # every block is the caller's own copy: seen_masked stamps that, and
        # the re-ranker and the export read it, never the held matrix
        matrix = random_matrix(6, 5, seed=0)
        original = matrix.values.copy()
        ds = build_dataset(parse_interactions([f"u{u}\ti{i}" for u in range(6) for i in range(5)]))
        lists = rerank_path(seen_masked(matrix, tiny_train), partition_popularity(tiny_train, 5), RerankConfig(k=2),
                            (0.0, 1.0))
        write_scores(tmp_path / "s.tsv", matrix, ds)
        assert matrix.values.tobytes() == original.tobytes()
        listed = {(u, item) for point in lists for u, row in enumerate(point.items.tolist()) for item in row}
        assert listed and not listed & pair_set(tiny_train)


class TestScoreMatrixValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.nan, 0.0]]))

    def test_positive_inf_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.inf, 0.0]]))

    def test_sentinel_allowed(self):
        ScoreMatrix(np.array([[MASKED, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_one_bad_cell_among_masked_ones_is_named(self, bad):
        values = np.full((3, 4), MASKED)
        values[2, 1] = bad
        with pytest.raises(ValueError, match=r"^score matrix contains NaN or \+inf entries$"):
            ScoreMatrix(values)

    @pytest.mark.parametrize("shape", [(3, 4), (0, 4), (3, 0)], ids=["all-masked", "no-users", "no-items"])
    def test_masked_and_empty_matrices_accepted(self, shape):
        assert ScoreMatrix(np.full(shape, MASKED)).values.shape == shape

    @pytest.mark.parametrize("dtype", [np.float32, np.int64], ids=["float32", "int64"])
    def test_a_matrix_that_is_not_float64_is_rejected(self, dtype):
        # float32 of odd width failed in write_scores' int64 row view, and
        # int64 in masking's -inf stamp
        raises_exactly(ValueError, f"score matrix must be float64, got {np.dtype(dtype)}",
                       lambda: ScoreMatrix(np.ones((2, 3), dtype=dtype)))

    def test_a_held_matrix_is_score_blocks_of_copies(self):
        values = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        matrix = ScoreMatrix(values)
        assert isinstance(matrix, ScoreBlocks)
        assert (matrix.num_users, matrix.num_items) == (2, 3)
        block = matrix.rows(1, 5)
        assert block.flags.c_contiguous and not np.shares_memory(block, values)
        assert block.tobytes() == np.ascontiguousarray(values[1:]).tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):  # its blocks would still read the old values
            matrix.values = np.zeros((2, 3))

    def test_held_values_are_read_only_and_blocks_are_writable_copies(self):
        values = np.arange(6.0).reshape(2, 3)
        matrix = ScoreMatrix(values)
        with pytest.raises(ValueError, match="read-only"):
            matrix.values[0, 0] = 0.0
        values[0, 0] = 7.0  # the caller's own array stays writable
        block = matrix.rows(0, 2)
        assert block.flags.writeable and not np.shares_memory(block, values)
        block[0, 0] = MASKED
        assert matrix.values[0, 0] == 7.0

    def test_check_builds_no_matrix_sized_temporary(self):
        # 1000 x 1000 floats: an m x n bool mask alone is 1 MB
        values = np.random.default_rng(8).random((1000, 1000))
        values[::7] = MASKED
        tracemalloc.start()
        try:
            ScoreMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: ScoreMatrix(np.zeros(3)), ValueError, "score matrix must be 2-dimensional"),
        (lambda: MFConfig(iterations=-1), ValueError, "iterations must be >= 0"),
        (lambda: popularity_blocks(np.zeros(0, np.int64), 1), ValueError, "empty catalog"),
        (lambda: random_blocks(0, 3, seed=1), ValueError, "num_users and num_items must be >= 1"),
        (lambda: load_scores(["a\tx\t0.5", "a\tx"], build_dataset(parse_interactions(["a\tx"]))), DataError,
         "line 2: expected 3 fields, got 2"),
    ],
    ids=["shape", "iterations", "catalog", "random", "fields"],
)
def test_each_input_check_raises_its_message(check, error, message):
    raises_exactly(error, message, check)
