import tracemalloc

import numpy as np
import pytest
from pytest import approx

import reference
from conftest import interactions
from fairrerank import scorers
from fairrerank.dataset import DataError, InteractionRecord, Interactions, build_dataset
from fairrerank.scorers import (
    MASKED,
    MFConfig,
    ScoreMatrix,
    load_scores,
    mask_seen,
    mf_objective,
    mf_scorer,
    popularity_scorer,
    random_scorer,
    read_scores,
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


class TestRandomScorer:
    def test_same_seed_identical(self):
        a = random_scorer(5, 7, seed=42)
        b = random_scorer(5, 7, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_entries_in_unit_interval(self):
        scores = random_scorer(20, 30, seed=1)
        assert np.all(scores.values >= 0.0)
        assert np.all(scores.values < 1.0)

    def test_different_seeds_differ(self):
        a = random_scorer(5, 7, seed=1)
        b = random_scorer(5, 7, seed=2)
        assert not np.array_equal(a.values, b.values)


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
        # _BLOCK = 80 splits the groups with 1-4 pairs into chunks of
        # 80 // (4 * 4) = 5 rows and 1
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

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MFConfig(latent_dim=0)
        with pytest.raises(ValueError):
            MFConfig(regularization=0.0)
        with pytest.raises(ValueError):
            MFConfig(confidence_alpha=-1.0)


@pytest.fixture
def small_ds():
    return build_dataset(
        [InteractionRecord("a", "x"), InteractionRecord("a", "y"), InteractionRecord("b", "x")]
    )


class TestLoadScores:
    def test_full_matrix_round_trip(self, small_ds, tmp_path):
        values = np.arange(4, dtype=np.float64).reshape(2, 2) / 10.0
        path = write_scores(tmp_path / "scores.tsv", ScoreMatrix(values), small_ds)
        with open(path) as fh:
            loaded = load_scores(fh, small_ds)
        assert np.array_equal(loaded.values, values)
        assert loaded.import_coverage == 1.0

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


class TestWriteScores:
    """Golden bytes: one line per finite cell, scores in repr."""

    @pytest.fixture
    def ds(self):
        return build_dataset([InteractionRecord(u, i) for u in ("a", "b", "c") for i in ("x", "y")])

    def _written(self, tmp_path, ds, rows):
        return write_scores(tmp_path / "s.tsv", ScoreMatrix(np.array(rows, dtype=np.float64)), ds).read_bytes()

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
        ds = build_dataset([InteractionRecord(f"u{u}", f"i{i}") for u in range(12) for i in range(5)])
        path = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        expected = [
            f"u{u}\ti{i}\t{float(values[u, i])!r}" for u in range(12) for i in range(5) if np.isfinite(values[u, i])
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("users", [1, 63, 64, 65, 70, 130, 200])
    def test_row_chunks_match_cell_by_cell_reference(self, tmp_path, users):
        # the export is written in chunks of rows: identical rows and an
        # all-masked run span chunk boundaries, and with 70 users the last
        # 6 rows are masked, so the file ends right after a full chunk
        rng = np.random.default_rng(users)
        values = rng.choice([0.0, -0.0, 0.5, 1e-05, 1e16, MASKED], size=(users, 4))
        values[60:70] = values[59 % users]
        values[120:136] = MASKED
        if users == 70:
            values[64:] = MASKED
        ds = build_dataset([InteractionRecord(f"u{u}", f"i{i}") for u in range(users) for i in range(4)])
        path = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        expected = [
            f"u{u}\ti{i}\t{float(values[u, i])!r}" for u in range(users) for i in range(4) if np.isfinite(values[u, i])
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_peak_memory_is_a_small_fraction_of_the_export(self, tmp_path):
        # streamed in row chunks: formatting the export never holds the
        # whole file (as one joined string and its encoding, about 2x)
        users, items = 2400, 100
        values = np.random.default_rng(2).random((users, items))
        ds = build_dataset(
            [InteractionRecord(f"user{u:08d}", f"item{u % items:08d}") for u in range(users)]
            + [InteractionRecord("user00000000", f"item{i:08d}") for i in range(items)]
        )
        tracemalloc.start()
        try:
            path = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
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
        path = write_scores(tmp_path / "s.tsv", ScoreMatrix(values), ds)
        loaded = read_scores(path, ds, fill=MASKED)
        assert loaded.values.tobytes() == values.tobytes()
        assert loaded.import_coverage == 5 / 6


class TestMaskSeen:
    def test_seen_cells_become_sentinel(self, tiny_train):
        scores = popularity_scorer(tiny_train)
        masked = mask_seen(scores, tiny_train)
        assert masked.values[0, 0] == MASKED

    def test_unseen_cells_unchanged_bit_for_bit(self, tiny_train):
        scores = random_scorer(6, 5, seed=0)
        original = scores.values.copy()
        masked = mask_seen(scores, tiny_train)
        unseen = np.isfinite(masked.values)
        assert masked.values[unseen].tobytes() == original[unseen].tobytes()
        assert not unseen.all()

    def test_masks_in_place_and_returns_the_same_matrix(self, tiny_train):
        scores = random_scorer(6, 5, seed=0)
        values = scores.values
        assert mask_seen(scores, tiny_train) is scores
        assert scores.values is values
        assert (values[tiny_train.users, tiny_train.items] == MASKED).all()

    def test_masking_is_idempotent(self, tiny_train):
        scores = random_scorer(6, 5, seed=0)
        once = mask_seen(scores, tiny_train).values.copy()
        twice = mask_seen(scores, tiny_train)
        assert twice.values.tobytes() == once.tobytes()

    def test_dimension_mismatch_rejected(self, tiny_train):
        with pytest.raises(ValueError):
            mask_seen(random_scorer(3, 3, seed=0), tiny_train)


class TestScoreMatrixValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.nan, 0.0]]))

    def test_positive_inf_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.array([[np.inf, 0.0]]))

    def test_sentinel_allowed(self):
        ScoreMatrix(np.array([[MASKED, 0.0]]))
