"""Interaction-log ingestion, dense indexing, splitting, and the popularity partition.

Input files are delimiter-separated text (UTF-8), one interaction per line::

    user_key<sep>item_key[<sep>weight[<sep>timestamp]]

Keys are opaque nonempty strings. Weights are nonnegative reals and default
to 1.0 when the column is absent or empty. Timestamps are optional integer
seconds and are carried through parsing but unused by the batch pipeline.

From parsed records the module builds a densely indexed :class:`Dataset`
(users and items numbered in first-appearance order), a seeded per-user
70/10/20 :class:`SplitTriple`, and the short-head/long-tail
:class:`PopularityPartition` over the catalog. All outputs are immutable
after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .util import atomic_write_text

__all__ = [
    "DataError",
    "InputFormat",
    "InteractionRecord",
    "Interactions",
    "Dataset",
    "SplitTriple",
    "PopularityPartition",
    "parse_interactions",
    "read_interactions",
    "build_dataset",
    "split",
    "partition_popularity",
    "distinct_user_counts",
    "check_split",
    "write_split_files",
    "write_partition_file",
]

DELIMITER_NAMES = {"tab": "\t", "comma": ","}


def _floor_exact(x: float) -> int:
    """floor that treats values within 1e-9 of an integer as that integer,
    so decimal ratios times integer counts (e.g. 0.7 * 10) floor exactly."""
    return math.floor(x + 1e-9)


class DataError(ValueError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class InputFormat:
    """Delimiter and header settings for interaction and score files."""

    delimiter: str = "\t"
    header: bool = False

    @staticmethod
    def from_name(name: str, header: bool = False) -> "InputFormat":
        if name not in DELIMITER_NAMES:
            raise DataError(f"unknown delimiter name {name!r}; expected one of {sorted(DELIMITER_NAMES)}")
        return InputFormat(delimiter=DELIMITER_NAMES[name], header=header)


@dataclass(frozen=True)
class InteractionRecord:
    """One raw (user, item, weight) event, prior to indexing."""

    user_key: str
    item_key: str
    weight: float = 1.0
    timestamp: int | None = None


def parse_interactions(source: Iterable[str], fmt: InputFormat = InputFormat()) -> list[InteractionRecord]:
    """Parse delimiter-separated interaction lines into records.

    Args:
        source: an iterable of text lines (an open text file works).
        fmt: delimiter and header settings.

    Raises:
        DataError: on a malformed line, an empty key, or a negative or
            non-finite weight; the error message names the offending line.
    """
    records: list[InteractionRecord] = []
    for lineno, raw in enumerate(source, start=1):
        if fmt.header and lineno == 1:
            continue
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split(fmt.delimiter)
        if not 2 <= len(parts) <= 4:
            raise DataError(f"expected 2-4 fields, got {len(parts)}", lineno)
        user_key = parts[0].strip()
        item_key = parts[1].strip()
        if not user_key or not item_key:
            raise DataError("empty user or item key", lineno)
        weight = 1.0
        if len(parts) >= 3 and parts[2].strip():
            try:
                weight = float(parts[2])
            except ValueError:
                raise DataError(f"unparseable weight {parts[2].strip()!r}", lineno) from None
        if not math.isfinite(weight):
            raise DataError(f"non-finite weight {weight!r}", lineno)
        if weight < 0:
            raise DataError(f"negative weight {weight!r}", lineno)
        timestamp: int | None = None
        if len(parts) == 4 and parts[3].strip():
            try:
                timestamp = int(parts[3].strip())
            except ValueError:
                raise DataError(f"unparseable timestamp {parts[3].strip()!r}", lineno) from None
        records.append(InteractionRecord(user_key, item_key, weight, timestamp))
    return records


def read_interactions(path: Path | str, fmt: InputFormat = InputFormat()) -> list[InteractionRecord]:
    """Read and parse an interaction file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_interactions(fh, fmt)


@dataclass(frozen=True)
class Interactions:
    """An immutable set of (user, item, weight) triples over a fixed
    (num_users, num_items) index universe. Pairs are unique."""

    users: np.ndarray
    items: np.ndarray
    weights: np.ndarray
    num_users: int
    num_items: int

    def __post_init__(self):
        if not (len(self.users) == len(self.items) == len(self.weights)):
            raise ValueError("users, items, weights must have equal length")
        if len(self.users):
            if self.users.min() < 0 or self.users.max() >= self.num_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.num_items:
                raise ValueError("item index out of range")

    def __len__(self) -> int:
        return int(self.users.shape[0])


@dataclass(frozen=True)
class Dataset:
    """Densely indexed interactions: keys numbered in first-appearance order."""

    user_keys: tuple[str, ...]
    item_keys: tuple[str, ...]
    user_index: dict[str, int]
    item_index: dict[str, int]
    interactions: Interactions

    @property
    def num_users(self) -> int:
        return len(self.user_keys)

    @property
    def num_items(self) -> int:
        return len(self.item_keys)


def build_dataset(records: Sequence[InteractionRecord]) -> Dataset:
    """Index users and items in first-appearance order and merge duplicate
    (user, item) pairs into one with the max weight, which makes
    re-ingestion idempotent."""
    if not records:
        raise DataError("no interaction records")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    merged: dict[tuple[int, int], float] = {}
    for rec in records:
        u = user_index.setdefault(rec.user_key, len(user_index))
        i = item_index.setdefault(rec.item_key, len(item_index))
        merged[(u, i)] = max(merged.get((u, i), rec.weight), rec.weight)

    pairs = sorted(merged)
    users = np.array([p[0] for p in pairs], dtype=np.int64)
    items = np.array([p[1] for p in pairs], dtype=np.int64)
    weights = np.array([merged[p] for p in pairs], dtype=np.float64)
    inter = Interactions(users, items, weights, len(user_index), len(item_index))
    return Dataset(
        user_keys=tuple(user_index),
        item_keys=tuple(item_index),
        user_index=user_index,
        item_index=item_index,
        interactions=inter,
    )


@dataclass(frozen=True)
class SplitTriple:
    """Pairwise-disjoint train/valid/test interaction sets whose union is
    the source dataset's interactions."""

    train: Interactions
    valid: Interactions
    test: Interactions
    seed: int


def split(
    ds: Dataset, ratios: tuple[float, float, float] = (0.7, 0.1, 0.2), seed: int = 42
) -> SplitTriple:
    """Seeded per-user split.

    Each user's interactions are shuffled by one seeded generator (users
    visited in index order) and cut at floor(r_train*c) and
    floor((r_train+r_valid)*c) of that user's c interactions. Users with
    fewer than 3 interactions keep everything in train so no training
    profile is empty. Deterministic and byte-identical for a fixed seed.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios!r}")

    inter = ds.interactions
    rng = np.random.default_rng(seed)
    order = np.argsort(inter.users, kind="stable")
    sorted_users = inter.users[order]
    boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
    groups = np.split(order, boundaries)

    buckets: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]] = ([], [], [])
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

    def _collect(parts: list[np.ndarray]) -> Interactions:
        if parts:
            idx = np.concatenate(parts)
        else:
            idx = np.array([], dtype=np.int64)
        pair_order = np.lexsort((inter.items[idx], inter.users[idx]))
        idx = idx[pair_order]
        return Interactions(
            inter.users[idx].copy(),
            inter.items[idx].copy(),
            inter.weights[idx].copy(),
            inter.num_users,
            inter.num_items,
        )

    return SplitTriple(_collect(buckets[0]), _collect(buckets[1]), _collect(buckets[2]), seed)


def distinct_user_counts(inter: Interactions, num_items: int) -> np.ndarray:
    """Number of distinct interacting users per item, as an int array of
    length num_items. Robust to duplicate (user, item) pairs."""
    if len(inter) == 0:
        return np.zeros(num_items, dtype=np.int64)
    pairs = np.unique(inter.items.astype(np.int64) * inter.num_users + inter.users)
    return np.bincount(pairs // inter.num_users, minlength=num_items).astype(np.int64)


def check_split(ds: Dataset, triple: SplitTriple, k: int, mask_seen: bool) -> None:
    """Reject a split that top-k lists cannot be built and scored on: a
    single user (personalization compares pairs of lists), an empty test
    split (no judged user), or users left with fewer than k unseen items
    when seen items are masked. A k above the catalog size is left to the
    re-ranker."""
    if ds.num_users < 2:
        raise DataError(f"a run needs at least 2 users (personalization compares their lists), got "
                        f"{ds.num_users} (first user {ds.user_keys[0]!r})")
    if len(triple.test) == 0:
        raise DataError(f"no user has relevance judgments: all {ds.num_users} users have fewer than "
                        f"3 interactions, so the test split is empty (first user {ds.user_keys[0]!r})")
    selectable = ds.num_items - np.bincount(triple.train.users, minlength=ds.num_users)
    short = np.flatnonzero(selectable < k) if mask_seen and k <= ds.num_items else []
    if len(short):
        raise DataError(f"{len(short)} users have fewer than rerank.k={k} unseen items to select "
                        f"(first user {ds.user_keys[short[0]]!r} has {selectable[short[0]]})")


@dataclass(frozen=True)
class PopularityPartition:
    """Binary short-head marking over the catalog plus the per-item
    distinct-training-user counts that induced it."""

    short_head: np.ndarray
    popularity_count: np.ndarray

    def __post_init__(self):
        if self.short_head.shape != self.popularity_count.shape:
            raise ValueError("short_head and popularity_count must have the same length")

    @property
    def num_items(self) -> int:
        return int(self.short_head.shape[0])

    @property
    def num_short(self) -> int:
        return int(np.count_nonzero(self.short_head))


def partition_popularity(train: Interactions, num_items: int, ratio: float = 0.2) -> PopularityPartition:
    """Mark the top floor(ratio*num_items) items by distinct-training-user
    count as short-head; ties at the boundary break by item index ascending."""
    if num_items <= 0:
        raise ValueError("num_items must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio!r}")
    counts = distinct_user_counts(train, num_items)
    n_short = _floor_exact(ratio * num_items)
    order = np.lexsort((np.arange(num_items), -counts))
    short = np.zeros(num_items, dtype=bool)
    short[order[:n_short]] = True
    return PopularityPartition(short_head=short, popularity_count=counts)


def write_split_files(
    split_triple: SplitTriple, ds: Dataset, out_dir: Path | str, fmt: InputFormat = InputFormat()
) -> dict[str, Path]:
    """Write train/valid/test as delimiter-separated files with the original
    keys, the weight in repr. Returns the mapping from split name to written path."""
    out_dir, sep = Path(out_dir), fmt.delimiter
    written: dict[str, Path] = {}
    for name, inter in (("train", split_triple.train), ("valid", split_triple.valid), ("test", split_triple.test)):
        rows = zip(inter.users.tolist(), inter.items.tolist(), inter.weights.tolist())
        text = "".join([f"{ds.user_keys[u]}{sep}{ds.item_keys[i]}{sep}{w!r}\n" for u, i, w in rows])
        written[name] = atomic_write_text(out_dir / f"{name}.tsv", text)
    return written


def write_partition_file(part: PopularityPartition, ds: Dataset, path: Path | str) -> Path:
    """Write one line per catalog item: item_key<TAB>count<TAB>{short|long}."""
    groups = np.where(part.short_head, "short", "long").tolist()
    lines = map("{}\t{}\t{}".format, ds.item_keys, part.popularity_count.tolist(), groups)
    return atomic_write_text(path, "\n".join(lines) + "\n")
