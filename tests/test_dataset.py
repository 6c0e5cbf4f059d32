import importlib.util
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import interactions, pair_set, raises_exactly
from fairrerank import dataset
from fairrerank.dataset import (
    DataError,
    Dataset,
    InputFormat,
    Interactions,
    PopularityPartition,
    build_dataset,
    distinct_user_counts,
    parse_interactions,
    partition_popularity,
    read_interactions,
    split,
    write_partition_file,
    write_split_files,
)
from fairrerank.scorers import MFConfig, mf_objective, train_mf_factors
from fairrerank.synthetic import write_zipf_dataset


def _rows(log):
    """The (user_key, item_key, weight) of each parsed line."""
    return [
        (log.user_keys[u], log.item_keys[i], w)
        for u, i, w in zip(log.users.tolist(), log.items.tolist(), log.weights.tolist())
    ]


class TestParseInteractions:
    def test_basic_tab_line(self):
        log = parse_interactions(["u1\ti9\t3.0"])
        assert _rows(log) == [("u1", "i9", 3.0)]

    def test_default_weight_with_comma_format(self):
        log = parse_interactions(["u1,i9"], InputFormat(delimiter=","))
        assert _rows(log) == [("u1", "i9", 1.0)]

    def test_negative_weight_errors_with_line_number(self):
        with pytest.raises(DataError, match="line 1"):
            parse_interactions(["u1\ti9\t-2"])

    def test_timestamp_column(self):
        # checked, then dropped: nothing downstream reads it
        log = parse_interactions(["u1\ti9\t2.0\t1700000000"])
        assert _rows(log) == [("u1", "i9", 2.0)]
        with pytest.raises(DataError, match="line 1: unparseable timestamp 'noon'"):
            parse_interactions(["u1\ti1\t1.0\tnoon"])

    def test_malformed_line_reports_later_line_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_interactions(["u1\ti1", "too\tmany\tfields\there\tnow"])

    def test_header_skipped(self):
        log = parse_interactions(["user\titem", "u1\ti1"], InputFormat(header=True))
        assert len(log) == 1

    def test_blank_lines_skipped(self):
        log = parse_interactions(["u1\ti1", "", "u2\ti2\n"])
        assert len(log) == 2

    def test_empty_key_rejected(self):
        with pytest.raises(DataError, match="empty"):
            parse_interactions(["\ti1"])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            parse_interactions(["u1\ti1\tinf"])

    def test_unparseable_weight_rejected(self):
        with pytest.raises(DataError, match="weight"):
            parse_interactions(["u1\ti1\tabc"])

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = "u0\ti0\nu1\ti1\t2.0\nu0\ti1\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        log = read_interactions(marked)
        assert log.user_keys == ("u0", "u1")
        assert _rows(log) == _rows(read_interactions(plain))

    def test_perfbench_row_count_is_the_number_of_data_lines(self, tmp_path):
        # the benchmark's tracer records len() of this result as dataset.ingest_rows
        tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        path = tmp_path / "log.tsv"
        path.write_text("user\titem\nu1\ti1\n\nu2\ti1\t2.0\n  \nu1\ti1\t3.0\n")
        log = read_interactions(path, InputFormat(header=True))
        assert tracer.HOOKS["dataset.read_interactions"](None, (path,), {}, log, None) == 3


class TestBuildDataset:
    def test_counts_users_and_items(self):
        ds = build_dataset(parse_interactions(["u1\ti1", "u2\ti1"]))
        assert ds.num_users == 2
        assert ds.num_items == 1

    def test_duplicates_merge_by_max(self):
        ds = build_dataset(parse_interactions(["u1\ti1\t2.0", "u1\ti1\t5.0"]))
        assert len(ds.interactions) == 1
        assert ds.interactions.weights[0] == 5.0

    def test_empty_input_errors(self):
        with pytest.raises(DataError):
            build_dataset(parse_interactions([]))

    def test_first_appearance_indexing(self):
        ds = build_dataset(parse_interactions(["b\ty", "a\tx", "b\tx"]))
        assert ds.user_index == {"b": 0, "a": 1}
        assert ds.item_index == {"y": 0, "x": 1}

    def test_first_appearance_indexing_with_users_and_items_interleaved(self):
        ds = build_dataset(parse_interactions(["c\tz", "a\tz", "c\ty", "b\tx", "a\tx", "c\tz"]))
        assert ds.user_keys == ("c", "a", "b")
        assert ds.item_keys == ("z", "y", "x")
        assert ds.user_index == {"c": 0, "a": 1, "b": 2}
        assert ds.item_index == {"z": 0, "y": 1, "x": 2}
        assert list(zip(ds.interactions.users.tolist(), ds.interactions.items.tolist())) == [
            (0, 0), (0, 1), (1, 0), (1, 2), (2, 2)
        ]

    @pytest.mark.parametrize("weights", [("5.0", "2.0", "3.0"), ("2.0", "3.0", "5.0")], ids=["max-first", "max-last"])
    def test_duplicates_merge_to_the_max_wherever_it_is(self, weights):
        a, b, c = (f"u1\ti1\t{w}" for w in weights)
        ds = build_dataset(parse_interactions([a, "u2\ti1\t7.0", b, "u1\ti2\t1.0", c]))
        inter = ds.interactions
        assert inter.users.tolist() == [0, 0, 1]
        assert inter.items.tolist() == [0, 1, 0]
        assert inter.weights.tolist() == [5.0, 1.0, 7.0]

    @pytest.mark.parametrize("first, second", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_equal_weights_keep_the_first_lines_bits(self, tmp_path, first, second):
        ds = build_dataset(parse_interactions([f"u\ti\t{first}", "v\ti\t1.0", f"u\ti\t{second}"]))
        assert ds.interactions.weights.tobytes() == np.array([float(first), 1.0]).tobytes()
        files = write_split_files(split(ds, seed=0), ds, tmp_path)
        assert files["train"][0].read_text() == f"u\ti\t{first}\nv\ti\t1.0\n"

    def test_ingest_memory_holds_no_object_per_line(self, tmp_path):
        path = write_zipf_dataset(tmp_path / "log.tsv", 2000, 1500, 1.0, per_user=40, seed=1)
        tracemalloc.start()
        try:
            build_dataset(read_interactions(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000, f"peak {peak} bytes ingesting 80000 lines"


class TestInteractions:
    @given(triples=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), st.sampled_from([-0.0, 0.0, 0.5, 2.0])), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None, derandomize=True)  # the same examples on every run
    def test_pairs_are_sorted_and_unique_with_the_max_weight(self, triples):
        merged = {}
        for u, i, w in triples:  # in the given order, so a tie keeps the first pair's bits
            if (u, i) not in merged or w > merged[u, i]:
                merged[u, i] = w
        inter = interactions(triples, 4, 5)
        keys = inter.users * 5 + inter.items
        assert (keys[1:] > keys[:-1]).all()
        assert list(zip(inter.users.tolist(), inter.items.tolist())) == sorted(merged)
        assert inter.weights.tobytes() == np.array([merged[pair] for pair in sorted(merged)]).tobytes()
        # ALS and its objective see the pairs once, as they would pre-merged
        premerged = interactions([(u, i, w) for (u, i), w in sorted(merged.items())], 4, 5)
        cfg = MFConfig(latent_dim=2, iterations=3, seed=1)
        factors = train_mf_factors(inter, cfg)
        want = train_mf_factors(premerged, cfg)
        assert all(got.tobytes() == expected.tobytes() for got, expected in zip(factors, want))
        assert np.float64(mf_objective(inter, *factors, cfg)).tobytes() == \
            np.float64(mf_objective(premerged, *want, cfg)).tobytes()

    def test_sorted_unique_pairs_are_kept_as_given(self):
        users, items, weights = np.array([0, 0, 2]), np.array([1, 3, 0]), np.array([1.0, -0.0, 2.0])
        inter = Interactions(users, items, weights, 3, 4)
        assert inter.users is users and inter.items is items and inter.weights is weights


def _log_for_user_counts(counts):
    return parse_interactions([f"u{u}\ti{u}_{j}" for u, c in enumerate(counts) for j in range(c)])


class TestSplit:
    def test_user_with_10_interactions_gets_7_1_2(self):
        ds = build_dataset(_log_for_user_counts([10]))
        triple = split(ds, seed=0)
        assert (len(triple.train), len(triple.valid), len(triple.test)) == (7, 1, 2)

    def test_user_with_2_interactions_keeps_all_in_train(self):
        ds = build_dataset(_log_for_user_counts([2]))
        triple = split(ds, seed=0)
        assert (len(triple.train), len(triple.valid), len(triple.test)) == (2, 0, 0)

    def test_same_seed_is_identical(self):
        ds = build_dataset(_log_for_user_counts([10, 4, 7, 3, 25]))
        a = split(ds, seed=99)
        b = split(ds, seed=99)
        for x, y in ((a.train, b.train), (a.valid, b.valid), (a.test, b.test)):
            assert np.array_equal(x.users, y.users)
            assert np.array_equal(x.items, y.items)
            assert np.array_equal(x.weights, y.weights)

    def test_different_seeds_can_differ(self):
        ds = build_dataset(_log_for_user_counts([40]))
        a = split(ds, seed=1)
        b = split(ds, seed=2)
        assert pair_set(a.test) != pair_set(b.test)

    def test_bad_ratios_rejected(self):
        ds = build_dataset(_log_for_user_counts([5]))
        with pytest.raises(ValueError):
            split(ds, ratios=(0.7, 0.1, 0.1), seed=0)
        with pytest.raises(ValueError):
            split(ds, ratios=(0.9, -0.1, 0.2), seed=0)

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=15),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_is_disjoint_and_complete(self, counts, seed):
        ds = build_dataset(_log_for_user_counts(counts))
        triple = split(ds, seed=seed)
        train, valid, test = pair_set(triple.train), pair_set(triple.valid), pair_set(triple.test)
        assert len(triple.train) + len(triple.valid) + len(triple.test) == len(ds.interactions)
        assert not train & valid
        assert not train & test
        assert not valid & test
        assert train | valid | test == pair_set(ds.interactions)

    @given(c=st.integers(min_value=3, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_cut_positions_follow_floor_rule(self, c):
        # exact rational floors are the oracle here; float 0.7*c can be off
        cut1 = math.floor(Fraction(7, 10) * c)
        cut2 = math.floor(Fraction(8, 10) * c)
        ds = build_dataset(_log_for_user_counts([c]))
        triple = split(ds, seed=0)
        assert len(triple.train) == cut1
        assert len(triple.valid) == cut2 - cut1
        assert len(triple.test) == c - cut2

    @pytest.mark.parametrize("seed", [0, 17])
    @pytest.mark.parametrize("source", ["seeded-log", "three-pairs-each", "hand-built-unsorted"])
    def test_matches_the_bucket_reference(self, source, seed):
        rng = np.random.default_rng(seed)
        if source == "seeded-log":
            # users with 1 to 30 lines over 40 items, duplicates merged
            lines = [f"u{u}\ti{rng.integers(40)}\t{rng.random():.3f}"
                     for u in range(60) for _ in range(rng.integers(1, 31))]
            ds = build_dataset(parse_interactions([lines[j] for j in rng.permutation(len(lines))]))
            assert {1, 2, 3} <= set(np.bincount(ds.interactions.users).tolist())
        elif source == "three-pairs-each":
            ds = build_dataset(_log_for_user_counts([3] * 9))
        else:
            pairs = rng.permutation(30 * 20)[:250]
            inter = Interactions(pairs // 20, pairs % 20, rng.random(250), 30, 20)
            user_keys, item_keys = tuple(f"u{u}" for u in range(30)), tuple(f"i{i}" for i in range(20))
            ds = Dataset(user_keys, item_keys, {k: j for j, k in enumerate(user_keys)},
                         {k: j for j, k in enumerate(item_keys)}, inter)
        got, want = split(ds, seed=seed), reference.split(ds, seed=seed)
        if source == "three-pairs-each":
            assert len(got.valid) == 0
        for name in ("train", "valid", "test"):
            g, w = getattr(got, name), getattr(want, name)
            for column in ("users", "items", "weights"):
                a, b = getattr(g, column), getattr(w, column)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, column)
            assert (g.num_users, g.num_items) == (w.num_users, w.num_items)

    def test_every_user_keeps_a_training_profile(self):
        ds = build_dataset(_log_for_user_counts([1, 2, 3, 4, 5, 50]))
        triple = split(ds, seed=3)
        assert set(np.unique(triple.train.users)) == set(range(ds.num_users))


class TestPartitionPopularity:
    @pytest.mark.parametrize("n,expected", [(2060, 412), (1019, 203), (1189, 237), (1507, 301)])
    def test_reference_catalog_sizes(self, n, expected):
        train = interactions([(0, 0, 1.0)], 1, n)
        part = partition_popularity(train, n)
        assert part.num_short == expected

    def test_most_interacted_items_marked_short(self, tiny_train):
        part = partition_popularity(tiny_train, 5, ratio=0.2)
        # floor(0.2*5)=1 short-head slot; item 0 has 4 distinct users
        assert part.num_short == 1
        assert part.short_head[0]

    def test_boundary_ties_break_by_item_index(self):
        # items 1,2,3 tie at 2 users each; two short-head slots after item 0
        triples = [(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0)]
        for item in (1, 2, 3):
            triples += [(0, item, 1.0), (1, item, 1.0)]
        train = interactions(triples, 3, 10)
        part = partition_popularity(train, 10, ratio=0.3)
        assert part.num_short == 3
        assert list(np.flatnonzero(part.short_head)) == [0, 1, 2]

    def test_counts_are_distinct_users_not_weights(self):
        train = interactions([(0, 0, 100.0), (0, 1, 1.0), (1, 1, 1.0)], 2, 2)
        counts = distinct_user_counts(train, 2)
        assert counts.tolist() == [1, 2]

    def test_counts_ignore_duplicate_pairs(self):
        rng = np.random.default_rng(4)
        users = rng.integers(0, 7, 60)
        items = rng.integers(0, 9, 60)
        inter = Interactions(users, items, np.ones(60), 7, 11)
        expected = [len({u for u, i in zip(users.tolist(), items.tolist()) if i == j}) for j in range(11)]
        assert distinct_user_counts(inter, 11).tolist() == expected

    def test_empty_catalog_errors(self):
        train = interactions([], 1, 0)
        with pytest.raises(ValueError):
            partition_popularity(train, 0)

    def test_bad_ratio_errors(self, tiny_train):
        with pytest.raises(ValueError):
            partition_popularity(tiny_train, 5, ratio=1.0)


class TestArtifactFiles:
    def test_split_files_round_trip_keys(self, tmp_path):
        ds = build_dataset(_log_for_user_counts([6, 4]))
        triple = split(ds, seed=0)
        files = write_split_files(triple, ds, tmp_path)
        written = sum(
            len(files[name][0].read_text().splitlines()) for name in ("train", "valid", "test")
        )
        assert written == len(ds.interactions)
        first = files["train"][0].read_text().splitlines()[0].split("\t")
        assert first[0] in ds.user_index
        assert first[1] in ds.item_index

    @pytest.mark.parametrize("lines", [1, 7, 10**9])
    def test_split_file_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, lines):
        # users of 3 pairs leave valid empty; its file is written empty
        ds = build_dataset(_log_for_user_counts([3] * 8 + [1, 2]))
        triple = split(ds, seed=5)
        monkeypatch.setattr(dataset, "LINES", lines)
        files = write_split_files(triple, ds, tmp_path, InputFormat(","))
        for name in ("train", "valid", "test"):
            inter = getattr(triple, name)
            rows = zip(inter.users.tolist(), inter.items.tolist(), inter.weights.tolist())
            want = "".join(f"{ds.user_keys[u]},{ds.item_keys[i]},{w!r}\n" for u, i, w in rows)
            assert files[name][0].read_bytes() == want.encode()
        assert files["valid"][0].read_bytes() == b""

    def test_a_key_holding_the_delimiter_fails_before_any_write(self, tmp_path):
        # written as "a,b,i1,1.0", the line would read back with weight 'i1'
        ds = build_dataset(parse_interactions(["a,b\ti1\t1.0", "a,b\ti2\t1.0", "a,b\ti3\t1.0", "c\ti1\t1.0"]))
        triple = split(ds, seed=0)
        raises_exactly(ValueError, "text 'a,b' holds the field end ','",
                       lambda: write_split_files(triple, ds, tmp_path, InputFormat(",")))
        assert list(tmp_path.iterdir()) == []

    def test_split_files_are_written_in_chunks(self, tmp_path):
        path = write_zipf_dataset(tmp_path / "log.tsv", 2000, 1500, 1.0, per_user=40, seed=1)
        ds = build_dataset(read_interactions(path))
        triple = split(ds, seed=3)
        tracemalloc.start()
        try:
            write_split_files(triple, ds, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, f"peak {peak} bytes writing {len(ds.interactions)} split lines"

    def test_partition_file_has_one_line_per_item(self, tmp_path, tiny_train):
        ds = build_dataset(parse_interactions([f"u{u}\ti{i}" for u, i in zip(tiny_train.users, tiny_train.items)]))
        part = partition_popularity(ds.interactions, ds.num_items)
        path, _ = write_partition_file(part, ds, tmp_path / "partition.tsv")
        lines = path.read_text().splitlines()
        assert len(lines) == ds.num_items
        assert all(line.split("\t")[2] in ("short", "long") for line in lines)


_ONE = np.zeros(1, dtype=np.int64)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: InputFormat.from_name("semicolon"), DataError,
         "unknown delimiter name 'semicolon'; expected one of ['comma', 'tab']"),
        (lambda: Interactions(_ONE, _ONE, np.ones(2), 1, 1), ValueError, "users, items, weights must have equal length"),
        (lambda: Interactions(_ONE + 1, _ONE, np.ones(1), 1, 2), ValueError, "user index out of range"),
        (lambda: Interactions(_ONE, _ONE - 1, np.ones(1), 1, 2), ValueError, "item index out of range"),
        (lambda: PopularityPartition(np.zeros(3, dtype=bool), np.zeros(2, dtype=np.int64)), ValueError,
         "short_head and popularity_count must have the same length"),
    ],
    ids=["delimiter", "lengths", "user", "item", "partition"],
)
def test_each_input_check_raises_its_message(make, error, message):
    raises_exactly(error, message, make)
