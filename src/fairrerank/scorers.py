"""Score-matrix producers: built-in baselines plus an import path for
externally computed scores.

Every scorer returns a dense (num_users x num_items) float64 matrix of
predicted preferences wrapped in :class:`ScoreMatrix`. `mask_seen` stamps
train-seen cells with a -inf sentinel, in place, so downstream top-K
selection can never return an already-consumed item; export a matrix with
`write_scores` before masking it to keep the seen cells in the file. All
scorers are deterministic functions of their inputs and seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import DataError, Dataset, Interactions, distinct_user_counts
from .util import atomic_write_text

__all__ = [
    "MASKED",
    "ScoreMatrix",
    "MFConfig",
    "popularity_scorer",
    "random_scorer",
    "mf_scorer",
    "train_mf_factors",
    "mf_objective",
    "load_scores",
    "read_scores",
    "write_scores",
    "mask_seen",
]

logger = logging.getLogger(__name__)

MASKED = float("-inf")
_EXPORT_ROWS = 64  # users per chunk of the score export
_BLOCK = 1 << 16  # floats per stacked operand of an ALS half-step


@dataclass(frozen=True)
class ScoreMatrix:
    """Dense predicted-preference matrix. Cells equal to MASKED are
    unselectable; every other cell must be finite."""

    values: np.ndarray
    import_coverage: float | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("score matrix must be 2-dimensional")
        # one reduction, no m x n temporaries: NaN propagates through max
        if self.values.size and not self.values.max() < np.inf:
            raise ValueError("score matrix contains NaN or +inf entries")

    @property
    def num_users(self) -> int:
        return int(self.values.shape[0])

    @property
    def num_items(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class MFConfig:
    """Hyperparameters for the confidence-weighted implicit-feedback
    matrix-factorization scorer."""

    latent_dim: int = 32
    regularization: float = 0.05
    iterations: int = 20
    confidence_alpha: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.regularization <= 0:
            raise ValueError("regularization must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.confidence_alpha <= 0:
            raise ValueError("confidence_alpha must be positive")


def popularity_scorer(train: Interactions) -> ScoreMatrix:
    """Score every item by its distinct-training-user fraction, identically
    for all users. Deliberately popularity-biased."""
    if train.num_items < 1:
        raise ValueError("empty catalog")
    counts = distinct_user_counts(train, train.num_items)
    row = counts.astype(np.float64) / float(train.num_users)
    values = np.tile(row, (train.num_users, 1))
    return ScoreMatrix(values)


def random_scorer(num_users: int, num_items: int, seed: int) -> ScoreMatrix:
    """I.i.d. uniform(0,1) scores from a seeded generator; null-model control."""
    if num_users < 1 or num_items < 1:
        raise ValueError("num_users and num_items must be >= 1")
    rng = np.random.default_rng(seed)
    return ScoreMatrix(rng.random((num_users, num_items)))


def _sort_by_row(index: np.ndarray, companion: np.ndarray, weights: np.ndarray, size: int):
    """Stable-sort (companion, weight) pairs by their row in `index`
    (0..size-1). Returns the sorted companions and weights and the size+1
    row bounds: row r's pairs are [bounds[r], bounds[r + 1])."""
    order = np.argsort(index, kind="stable")
    bounds = np.searchsorted(index[order], np.arange(size + 1))
    return companion[order], weights[order], bounds


def _solve_half(this: np.ndarray, other: np.ndarray, seen: np.ndarray, seen_w: np.ndarray,
                bounds: np.ndarray, reg: float, alpha: float) -> None:
    """One ALS half-step: re-solve every row of `this` against the frozen
    `other` factors, row r from its pairs seen[lo:hi], seen_w[lo:hi] with
    lo, hi = bounds[r], bounds[r + 1]. Rows with the same pair count L are
    solved in stacks of B rows, B*max(L, d)*d <= _BLOCK: gather B x L x d
    factors, build B systems, call `np.linalg.solve` once. Each slice keeps
    one row's operand layout, so the result is bit for bit the per-row
    solve. A row with no pairs has all targets 0 and is set to +0.0."""
    dim = other.shape[1]
    gram = other.T @ other + reg * np.eye(dim)
    counts = np.diff(bounds)
    this[counts == 0] = 0.0
    for size in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == size)
        step = max(1, _BLOCK // (max(size, dim) * dim))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            pos = bounds[block, None] + np.arange(size)
            conf_minus_one = alpha * seen_w[pos]
            factors = other[seen[pos]]
            factors_t = factors.transpose(0, 2, 1)
            a = gram + (factors_t * conf_minus_one[:, None, :]) @ factors
            b = factors_t @ (1.0 + conf_minus_one)[:, :, None]  # (B, d, 1): stacked columns in numpy 1.x and 2.x
            this[block] = np.linalg.solve(a, b)[:, :, 0]


def train_mf_factors(train: Interactions, cfg: MFConfig = MFConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Alternating least squares on the implicit-feedback objective with
    confidence 1 + alpha*w on observed cells and binary preference targets.

    Returns the (user_factors, item_factors) pair after cfg.iterations full
    iterations (user half-step then item half-step each). Deterministic for
    a fixed seed; raises RuntimeError naming the iteration if factors go
    non-finite.
    """
    m, n = train.num_users, train.num_items
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.standard_normal((m, cfg.latent_dim)) * 0.01
    item_factors = rng.standard_normal((n, cfg.latent_dim)) * 0.01

    by_user = _sort_by_row(train.users, train.items, train.weights, m)
    by_item = _sort_by_row(train.items, train.users, train.weights, n)

    for it in range(cfg.iterations):
        _solve_half(user_factors, item_factors, *by_user, cfg.regularization, cfg.confidence_alpha)
        _solve_half(item_factors, user_factors, *by_item, cfg.regularization, cfg.confidence_alpha)
        if not (np.isfinite(user_factors).all() and np.isfinite(item_factors).all()):
            raise RuntimeError(f"non-finite factor values at ALS iteration {it}")
    return user_factors, item_factors


def mf_objective(
    train: Interactions, user_factors: np.ndarray, item_factors: np.ndarray, cfg: MFConfig
) -> float:
    """Weighted regularized squared loss of a factor pair: confidence-weighted
    reconstruction error over all (user, item) cells plus the L2 penalty.
    Used as the independent check that ALS iterations never increase it."""
    pred = user_factors @ item_factors.T
    pref = np.zeros_like(pred)
    conf = np.ones_like(pred)
    pref[train.users, train.items] = 1.0
    conf[train.users, train.items] += cfg.confidence_alpha * train.weights
    loss = float(np.sum(conf * (pref - pred) ** 2))
    penalty = cfg.regularization * (float(np.sum(user_factors**2)) + float(np.sum(item_factors**2)))
    return loss + penalty


def mf_scorer(train: Interactions, cfg: MFConfig = MFConfig()) -> ScoreMatrix:
    """Matrix-factorization scorer: R = user_factors @ item_factors.T."""
    user_factors, item_factors = train_mf_factors(train, cfg)
    return ScoreMatrix(user_factors @ item_factors.T)


def load_scores(source: Iterable[str], ds: Dataset, fill: float = 0.0) -> ScoreMatrix:
    """Import externally computed scores from "user_key<TAB>item_key<TAB>score"
    lines; a malformed line raises a DataError naming it. Cells absent from
    the file take `fill` (use -inf to make them unselectable); later
    duplicates overwrite earlier ones. The fraction of cells provided is
    recorded on the result and logged when below 1."""
    m, n = ds.num_users, ds.num_items
    values = np.full((m, n), fill, dtype=np.float64)
    provided = np.zeros((m, n), dtype=bool)
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"expected 3 fields, got {len(parts)}", lineno)
        user_key, item_key, score_text = (p.strip() for p in parts)
        if user_key not in ds.user_index:
            raise DataError(f"unknown user key {user_key!r}", lineno)
        if item_key not in ds.item_index:
            raise DataError(f"unknown item key {item_key!r}", lineno)
        try:
            score = float(score_text)
        except ValueError:
            raise DataError(f"unparseable score {score_text!r}", lineno) from None
        if not math.isfinite(score):
            raise DataError(f"non-finite score {score_text!r}", lineno)
        u, i = ds.user_index[user_key], ds.item_index[item_key]
        values[u, i] = score
        provided[u, i] = True
    coverage = float(provided.sum()) / float(m * n)
    if coverage < 1.0:
        logger.warning(
            "score import covered %.1f%% of cells; missing cells filled with %r", 100.0 * coverage, fill
        )
    return ScoreMatrix(values, import_coverage=coverage)


def read_scores(path: Path | str, ds: Dataset, fill: float = 0.0) -> ScoreMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scores(fh, ds, fill=fill)


def write_scores(path: Path | str, matrix: ScoreMatrix, ds: Dataset) -> Path:
    """Export a score matrix as one "user item score" line per finite cell,
    the score in shortest round-trip repr; masked cells are left out and
    re-import as fill. Written _EXPORT_ROWS users at a time, so its size does
    not add to peak memory. A row bytewise equal to the previous one (0.0 and
    -0.0 compare equal but print differently) reuses its formatted tails."""
    cells = ["\t" + key + "\t" for key in ds.item_keys]

    def text():
        # "\n".join(every row's lines) + "\n", in pieces: after each piece,
        # the "" left in `chunks` puts the "\n" before the next row
        chunks, prev, tails = [], None, []
        for u, row in enumerate(matrix.values):
            raw = row.tobytes()
            if raw != prev:
                prev, keep = raw, np.flatnonzero(np.isfinite(row))
                tails = [cells[i] + r for i, r in zip(keep.tolist(), map(repr, row[keep].tolist()))]
            if tails:
                chunks.append(ds.user_keys[u] + ("\n" + ds.user_keys[u]).join(tails))
            if len(chunks) == _EXPORT_ROWS:
                yield "\n".join(chunks)
                chunks = [""]
        yield "\n".join(chunks) + "\n"

    return atomic_write_text(path, text())


def mask_seen(matrix: ScoreMatrix, train: Interactions) -> ScoreMatrix:
    """Stamp train-seen cells with the MASKED sentinel in `matrix.values`
    and return the same matrix; unseen cells are unchanged bit-for-bit and
    masking is idempotent. Mask a copy to keep the original scores."""
    if matrix.num_users != train.num_users or matrix.num_items != train.num_items:
        raise ValueError(
            f"score matrix is {matrix.num_users}x{matrix.num_items} but train universe is "
            f"{train.num_users}x{train.num_items}"
        )
    matrix.values[train.users, train.items] = MASKED
    return matrix
