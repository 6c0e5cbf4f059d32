"""Interaction-log ingestion, dense indexing, splitting, and the popularity partition.

Input files are delimiter-separated text (UTF-8), one interaction per line::

    user_key<sep>item_key[<sep>weight[<sep>timestamp]]

Keys are opaque nonempty strings with no TAB, since every output file is
TAB-separated; a byte that is not UTF-8 fails its line. Weights are
nonnegative reals and default to 1.0 when the column is absent or empty.
Timestamps are optional integer seconds; they are checked, not stored,
since no stage reads them.

From the columnar :class:`InteractionLog` that parsing yields, the module
builds a densely indexed :class:`Dataset`, a seeded per-user 70/10/20
:class:`SplitTriple`, and the short-head/long-tail :class:`PopularityPartition`
over the catalog, and writes the split and partition files. All outputs are
immutable after construction. Whether a run can use a split (enough users,
judged users and items for its top-k lists) is decided by the pipeline.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .numtext import LINES, float_fields, lines, text_fields
from .util import atomic_write_text

__all__ = [
    "DataError",
    "InputFormat",
    "InteractionLog",
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
    "write_split_files",
    "write_partition_file",
]

DELIMITER_NAMES = {"tab": "\t", "comma": ","}
_UNWRITABLE = re.compile("[\t\udc80-\udcff]")  # a TAB, or a non-UTF-8 byte read with surrogateescape


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
class InteractionLog:
    """Parsed lines as columns, in file order, duplicates kept: line j is
    user_keys[users[j]], item_keys[items[j]], weights[j]."""

    user_keys: tuple[str, ...]
    item_keys: tuple[str, ...]
    users: np.ndarray
    items: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return int(self.users.shape[0])


def parse_interactions(source: Iterable[str], fmt: InputFormat = InputFormat()) -> InteractionLog:
    """Parse delimiter-separated interaction lines into a columnar log, keys
    numbered in first-appearance order; a timestamp is checked, not stored.

    Args:
        source: an iterable of text lines (an open text file works).
        fmt: delimiter and header settings.

    Raises:
        DataError: on a malformed line, an empty key, a key holding a TAB
            or a surrogate-escaped byte, a negative or non-finite weight, or
            a bad timestamp; the error message names the line.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users, items, weights = array("q"), array("q"), array("d")
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
        if len(parts) == 4 and parts[3].strip():
            try:
                int(parts[3].strip())
            except ValueError:
                raise DataError(f"unparseable timestamp {parts[3].strip()!r}", lineno) from None
        if user_key not in user_index or item_key not in item_index:
            bad = [key for key in (user_key, item_key) if _UNWRITABLE.search(key)]
            if bad:
                raise DataError(f"key {bad[0]!r} holds a TAB or a byte that is not UTF-8", lineno)
        users.append(user_index.setdefault(user_key, len(user_index)))
        items.append(item_index.setdefault(item_key, len(item_index)))
        weights.append(weight)
    return InteractionLog(tuple(user_index), tuple(item_index), *map(np.asarray, (users, items, weights)))


def read_interactions(path: Path | str, fmt: InputFormat = InputFormat()) -> InteractionLog:
    """Read and parse an interaction file from disk."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        return parse_interactions(fh, fmt)


@dataclass(frozen=True)
class Interactions:
    """An immutable set of (user, item, weight) triples over a fixed
    (num_users, num_items) index universe, held sorted by (user, item) with
    each pair once: repeated pairs merge into one with the max weight, and
    equal weights keep the first pair's bits (-0.0 then 0.0 gives -0.0)."""

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
        pairs = self.users.astype(np.int64) * self.num_items + self.items
        if (pairs[1:] <= pairs[:-1]).any():
            order = np.lexsort((-self.weights, pairs))  # stable: max weight first, ties in given order
            keep = order[np.diff(pairs[order], prepend=-1) != 0]
            for name in ("users", "items", "weights"):
                object.__setattr__(self, name, getattr(self, name)[keep])

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


def build_dataset(log: InteractionLog) -> Dataset:
    """Index a parsed log; `Interactions` merges its duplicate lines, which
    makes re-ingestion idempotent."""
    if not len(log):
        raise DataError("no interaction records")

    inter = Interactions(log.users, log.items, log.weights, len(log.user_keys), len(log.item_keys))
    return Dataset(
        user_keys=log.user_keys,
        item_keys=log.item_keys,
        user_index=dict(zip(log.user_keys, range(len(log.user_keys)))),
        item_index=dict(zip(log.item_keys, range(len(log.item_keys)))),
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
    profile is empty. Each pair gets one split label; a split is its pairs
    sorted by (user, item). Deterministic and byte-identical for a fixed seed.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios!r}")

    inter = ds.interactions
    rng = np.random.default_rng(seed)
    bounds = np.flatnonzero(np.diff(inter.users, prepend=-1, append=-1)).tolist()
    label = np.zeros(len(inter), dtype=np.int8)  # 0 train, 1 valid, 2 test
    for start, end in zip(bounds[:-1], bounds[1:]):
        c = end - start
        if c < 3:
            continue
        shuffled = start + rng.permutation(c)
        label[shuffled[_floor_exact(ratios[0] * c):]] = 1
        label[shuffled[_floor_exact((ratios[0] + ratios[1]) * c):]] = 2

    def _collect(s: int) -> Interactions:
        idx = np.flatnonzero(label == s)
        return Interactions(inter.users[idx], inter.items[idx], inter.weights[idx], inter.num_users, inter.num_items)

    return SplitTriple(_collect(0), _collect(1), _collect(2), seed)


def distinct_user_counts(inter: Interactions, num_items: int) -> np.ndarray:
    """Number of distinct interacting users per item, as an int array of
    length num_items: each pair of `inter` is distinct."""
    return np.bincount(inter.items, minlength=num_items)


def top_count_mask(counts: np.ndarray, size: int) -> np.ndarray:
    """The top `size` items by count as a mask; equal counts go to the lower
    index first."""
    top = np.zeros(len(counts), dtype=bool)
    top[np.lexsort((np.arange(len(counts)), -counts))[:size]] = True
    return top


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
    return PopularityPartition(top_count_mask(counts, _floor_exact(ratio * num_items)), counts)


def write_split_files(
    split_triple: SplitTriple, ds: Dataset, out_dir: Path | str, fmt: InputFormat = InputFormat()
) -> dict[str, tuple[Path, str]]:
    """Write train/valid/test as delimiter-separated files with the original
    keys, the weight in repr (`numtext`), LINES rows at a time, so a
    file's text is never held whole. Returns the mapping from split name to
    written path and SHA-256 digest (`atomic_write_text`)."""
    out_dir = Path(out_dir)
    users, items = text_fields(ds.user_keys, fmt.delimiter), text_fields(ds.item_keys, fmt.delimiter)

    def chunks(inter: Interactions) -> Iterator[bytes]:
        for start in range(0, len(inter), LINES):
            at = slice(start, start + LINES)
            yield lines(users.take(inter.users[at], axis=0), items.take(inter.items[at], axis=0),
                        float_fields(inter.weights[at]))

    triple = {"train": split_triple.train, "valid": split_triple.valid, "test": split_triple.test}
    return {name: atomic_write_text(out_dir / f"{name}.tsv", chunks(inter)) for name, inter in triple.items()}


def write_partition_file(part: PopularityPartition, ds: Dataset, path: Path | str) -> tuple[Path, str]:
    """Write one line per catalog item, item_key<TAB>count<TAB>{short|long}; returns the path and digest."""
    groups = np.where(part.short_head, "short", "long").tolist()
    lines = map("{}\t{}\t{}".format, ds.item_keys, part.popularity_count.tolist(), groups)
    return atomic_write_text(path, ("\n".join(lines) + "\n",))
