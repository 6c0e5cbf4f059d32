"""Score-matrix producers: built-in baselines plus an import path for
externally computed scores.

Every scorer gives its (num_users x num_items) float64 predicted
preferences as :class:`ScoreBlocks`, a block of users at a time, each a
fresh array that its caller owns: a built-in scorer makes each block on
demand, and a :class:`ScoreMatrix` (imported scores, or a scorer's one
block of all users) holds the matrix and hands out copies of its rows.
Every block is bit for bit its slice of the dense form. `seen_masked`
stamps train-seen cells of each block with a -inf sentinel, so downstream
top-K selection can never return an already-consumed item; it never writes
into a held matrix (`mask_seen` does, in place). Train pairs come unique
and sorted by (user, item) (`Interactions`), so neither masking nor ALS
sorts them by user again. `write_scores` formats a run of equal rows once,
and each user's key goes in front of its lines. ALS solves a row with
fewer pairs L than latent dimensions d through an L x L system, by the
push-through form of the Woodbury identity: the d x d system's solution up
to rounding. All scorers are deterministic functions of their inputs and
seed.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dataset import DataError, Dataset, Interactions, distinct_user_counts
from .numtext import LINES, float_fields, lines, text_fields
from .util import atomic_write_text

__all__ = [
    "MASKED",
    "ScoreMatrix",
    "ScoreBlocks",
    "MFConfig",
    "popularity_blocks",
    "popularity_scorer",
    "random_blocks",
    "mf_blocks",
    "mf_scorer",
    "train_mf_factors",
    "mf_objective",
    "load_scores",
    "read_scores",
    "write_scores",
    "mask_seen",
    "seen_masked",
]

logger = logging.getLogger(__name__)

MASKED = float("-inf")
_BLOCK_CELLS = 1 << 16  # cells per block of users in a pass over scores
# OpenBLAS runs a product of fewer multiply-adds on one thread, so mf's
# products stay below it: no pool worker wakes to spin between them.
_MF_PRODUCT = 1 << 19
# floats per stacked operand of an ALS half-step (the factors are the same
# bits at any size): at 128 KiB, glibc's default mmap threshold, stacks
# reuse freed heap pages, not fault in fresh ones
_BLOCK = 1 << 14


@dataclass(frozen=True)
class ScoreBlocks:
    """A scorer's (num_users x num_items) scores: `rows(lo, hi)` makes users
    lo..hi-1 (as a slice would: hi may pass num_users) as a new C-order
    float64 array that the caller owns, each cell MASKED or finite."""

    num_users: int
    num_items: int
    rows: Callable[[int, int], np.ndarray]


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, once no cell is NaN or +inf: one reduction, no m x n
    temporaries (NaN propagates through max)."""
    if values.size and not values.max() < np.inf:
        raise ValueError("score matrix contains NaN or +inf entries")
    return values


@dataclass(frozen=True, init=False, eq=False)
class ScoreMatrix(ScoreBlocks):
    """Held scores: a dense float64 `values` matrix, checked once, at
    construction, whose blocks are copies of its rows. Cells equal to MASKED
    are unselectable; every other cell must be finite."""

    values: np.ndarray
    import_coverage: float | None

    def __init__(self, values: np.ndarray, import_coverage: float | None = None):
        if values.ndim != 2:
            raise ValueError("score matrix must be 2-dimensional")
        if values.dtype != np.float64:
            raise ValueError(f"score matrix must be float64, got {values.dtype}")
        super().__init__(*_finite(values).shape, lambda lo, hi: values[lo:hi].copy())
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "import_coverage", import_coverage)


def block_rows(cells: int) -> int:
    """How many rows of `cells` cells a pass takes per block."""
    return max(1, _BLOCK_CELLS // max(cells, 1))


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
        if not 0 < self.regularization < math.inf:  # NaN fails too
            raise ValueError("regularization must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0 < self.confidence_alpha < math.inf:
            raise ValueError("confidence_alpha must be positive")


def popularity_blocks(counts: np.ndarray, num_users: int) -> ScoreBlocks:
    """The popularity-biased baseline: item j scores counts[j] / m for all m
    users, counts the train split's distinct users per item (`part.popularity_count`)."""
    if len(counts) < 1:
        raise ValueError("empty catalog")
    row = counts.astype(np.float64)[None] / float(num_users)
    return ScoreBlocks(num_users, len(counts), lambda lo, hi: np.repeat(row, min(hi, num_users) - lo, axis=0))


def popularity_scorer(train: Interactions) -> ScoreMatrix:
    """`popularity_blocks` of `train`'s counts as one block of all users."""
    m = train.num_users
    return ScoreMatrix(popularity_blocks(distinct_user_counts(train, train.num_items), m).rows(0, m))


def random_blocks(num_users: int, num_items: int, seed: int) -> ScoreBlocks:
    """I.i.d. uniform(0,1) scores from a seeded generator; null-model
    control. The block of users lo..hi-1 starts its generator lo * num_items
    draws in (one draw per float), so it is that slice of one draw."""
    if num_users < 1 or num_items < 1:
        raise ValueError("num_users and num_items must be >= 1")
    return ScoreBlocks(num_users, num_items, lambda lo, hi: np.random.Generator(
        np.random.PCG64(seed).advance(lo * num_items)).random((min(hi, num_users) - lo, num_items)))


def _plan_half(owners: np.ndarray, seen: np.ndarray, seen_w: np.ndarray, num_rows: int,
               cfg: MFConfig) -> Callable[[np.ndarray, np.ndarray], None]:
    """One ALS half-step, planned once per fit: the returned step re-solves
    each of the num_rows rows of `this` against the frozen `other` factors Y,
    row r from its pairs (seen, seen_w) where the sorted `owners` are r. With
    G = Y^T Y + reg*I, the L pairs' factor rows Y_r, D = diag(alpha*w) and
    c = 1 + alpha*w, the row solves (G + Y_r^T D Y_r) x = Y_r^T c; with L < d,
    through an L x L system (the push-through form of the Woodbury identity):
    with Z = Y G^-1, x = Z_r^T s where (I + D Y_r Z_r^T) s = c. The plan holds
    what the pairs alone decide: stacks of B rows of one L, B*L*d <= _BLOCK,
    with their pair columns, alpha*w and c; the rows with no pairs (all
    targets 0: set to +0.0); whether Z is needed. A step makes G and Z, and
    per stack gathers B x L x d factors, builds B systems and calls
    `np.linalg.solve` once. Each slice keeps one row's operand layout, so the
    result is bit for bit the per-row solve."""
    dim, reg, alpha = cfg.latent_dim, cfg.regularization, cfg.confidence_alpha
    bounds = np.searchsorted(owners, np.arange(num_rows + 1))  # row r's pairs are [bounds[r], bounds[r + 1])
    counts = np.diff(bounds)
    sizes = np.flatnonzero(np.bincount(counts)[1:]) + 1  # each row size, ascending
    empty, needs_z, stacks = counts == 0, bool(len(sizes)) and sizes[0] < dim, []
    for size in sizes:
        rows = np.flatnonzero(counts == size)
        step = max(1, _BLOCK // (size * dim))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            pos = bounds[block, None] + np.arange(size)
            conf_minus_one = alpha * seen_w[pos]  # c is (B, L, 1): stacked columns in numpy 1.x and 2.x
            stacks.append((block, seen[pos], conf_minus_one, (1.0 + conf_minus_one)[:, :, None]))

    def solve_half(this: np.ndarray, other: np.ndarray) -> None:
        gram = other.T @ other + reg * np.eye(dim)
        this[empty] = 0.0
        z = np.linalg.solve(gram, other.T).T if needs_z else None
        for block, cols, conf_minus_one, c in stacks:
            factors = other[cols]
            if cols.shape[1] < dim:
                z_t = z[cols].transpose(0, 2, 1)
                a = conf_minus_one[:, :, None] * (factors @ z_t)
                a.reshape(len(block), -1)[:, :: cols.shape[1] + 1] += 1.0
                this[block] = (z_t @ np.linalg.solve(a, c))[:, :, 0]
            else:
                factors_t = factors.transpose(0, 2, 1)
                a = gram + (factors_t * conf_minus_one[:, None, :]) @ factors
                this[block] = np.linalg.solve(a, factors_t @ c)[:, :, 0]

    return solve_half


def train_mf_factors(train: Interactions, cfg: MFConfig = MFConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Alternating least squares on the implicit-feedback objective with
    confidence 1 + alpha*w on observed cells and binary preference targets.

    Returns the (user_factors, item_factors) pair after cfg.iterations full
    iterations (user half-step then item half-step each). Deterministic for
    a fixed seed. The confidences are fixed, so a half-step is planned once
    per fit (`_plan_half`). Non-finite factors (alpha*w overflows) or a
    singular system (alpha*w swamps mf.reg in a d x d system, or the 1.0 on
    the diagonal of an L x L one) raise a DataError, and warn nothing: the
    message names the iteration, mf.alpha, the largest weight and mf.reg.
    """
    m, n = train.num_users, train.num_items
    rng = np.random.default_rng(cfg.seed)
    user_factors = rng.standard_normal((m, cfg.latent_dim)) * 0.01
    item_factors = rng.standard_normal((n, cfg.latent_dim)) * 0.01

    order = np.argsort(train.items, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        user_half = _plan_half(train.users, train.items, train.weights, m, cfg)
        item_half = _plan_half(train.items[order], train.users[order], train.weights[order], n, cfg)

    for it in range(cfg.iterations):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                user_half(user_factors, item_factors)
                item_half(item_factors, user_factors)
        except np.linalg.LinAlgError:  # an exactly singular system
            failed = "a singular system"
        else:
            finite = np.isfinite(user_factors).all() and np.isfinite(item_factors).all()
            failed = None if finite else "non-finite factor values"
        if failed:
            raise DataError(f"{failed} at ALS iteration {it}: mf.alpha = {cfg.confidence_alpha!r} with the largest "
                            f"train weight {float(np.max(train.weights, initial=0.0))!r} and mf.reg = "
                            f"{cfg.regularization!r}")
    return user_factors, item_factors


def mf_objective(train: Interactions, user_factors: np.ndarray, item_factors: np.ndarray, cfg: MFConfig) -> float:
    """Weighted regularized squared loss of a factor pair: confidence-weighted
    reconstruction error over all (user, item) cells plus the L2 penalty.
    Used as the independent check that ALS iterations never increase it.
    In O(pairs*d), no m x n array: the pred^2 of every cell sum to
    sum(U^T U * V^T V), and each train pair, in blocks of _BLOCK // d, adds
    c(1 - p)^2 - p^2 with c = 1 + alpha*w and p its prediction."""
    loss = float(np.sum((user_factors.T @ user_factors) * (item_factors.T @ item_factors)))
    step = max(1, _BLOCK // user_factors.shape[1])
    for at in (slice(lo, lo + step) for lo in range(0, len(train), step)):
        pred = np.einsum("ij,ij->i", user_factors[train.users[at]], item_factors[train.items[at]])
        loss += float(np.sum((1.0 + cfg.confidence_alpha * train.weights[at]) * (1.0 - pred) ** 2 - pred**2))
    return loss + cfg.regularization * (float(np.sum(user_factors**2)) + float(np.sum(item_factors**2)))


def mf_blocks(train: Interactions, cfg: MFConfig = MFConfig()) -> ScoreBlocks:
    """Matrix-factorization scorer: R = user_factors @ item_factors.T, made
    in products below _MF_PRODUCT multiply-adds (or of one user) and
    checked per block. Every product runs from a multiple of `step` users to
    the next (or to the last user), whatever block needs it, so a user's
    cells are the same bits in every block."""
    user_factors, item_factors = train_mf_factors(train, cfg)
    m, step = train.num_users, max(1, (_MF_PRODUCT - 1) // max(train.num_items * cfg.latent_dim, 1))

    def rows(lo, hi):
        start = lo - lo % step  # with no users, one empty product
        parts = [user_factors[at : at + step] @ item_factors.T for at in range(start, max(min(hi, m), 1), step)]
        return _finite(np.concatenate(parts)[lo - start : hi - start])

    return ScoreBlocks(m, train.num_items, rows)


def mf_scorer(train: Interactions, cfg: MFConfig = MFConfig()) -> ScoreMatrix:
    """`mf_blocks` as one block of all users."""
    return ScoreMatrix(mf_blocks(train, cfg).rows(0, train.num_users))


def load_scores(source: Iterable[str], ds: Dataset, fill: float = 0.0) -> ScoreMatrix:
    """Import externally computed scores from "user_key<TAB>item_key<TAB>score"
    lines; a malformed line raises a DataError naming it. Cells absent from
    the file take `fill` (use -inf to make them unselectable); later
    duplicates overwrite earlier ones. The fraction of cells provided is
    recorded on the result and logged when below 1."""
    m, n = ds.num_users, ds.num_items
    values = np.full((m, n), np.nan)  # every stored score is finite, so NaN marks the cells not given
    for lineno, raw in enumerate(source, start=1):
        try:
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
            values[ds.user_index[user_key], ds.item_index[item_key]] = score
        except DataError:
            byte = re.search("[\udc80-\udcff]", raw)  # read with surrogateescape: a byte that is not UTF-8
            if byte:
                raise DataError(f"byte {ord(byte.group()) - 0xDC00:#04x} is not UTF-8", lineno) from None
            raise
    missing = np.isnan(values)
    values[missing] = fill
    coverage = float(m * n - np.count_nonzero(missing)) / float(m * n)
    if coverage < 1.0:
        logger.warning(
            "score import covered %.1f%% of cells; missing cells filled with %r", 100.0 * coverage, fill
        )
    return ScoreMatrix(values, import_coverage=coverage)


def read_scores(path: Path | str, ds: Dataset, fill: float = 0.0) -> ScoreMatrix:
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:  # a non-UTF-8 byte fails its line
        return load_scores(fh, ds, fill=fill)


def _row_texts(rows: np.ndarray, item_fields: np.ndarray) -> list[bytes]:
    """The "item<TAB>score" lines of each row of `rows`: the fields of
    every finite cell side by side, and the padding dropped."""
    finite = np.isfinite(rows)
    row, item = np.nonzero(finite)
    fields = np.concatenate((item_fields.take(item, axis=0), float_fields(rows[row, item])), axis=1)
    ends = np.cumsum(finite.sum(axis=1)).tolist()
    return [lines(fields[start:end]) for start, end in zip([0] + ends, ends)]


def write_scores(path: Path | str, scores: ScoreBlocks, ds: Dataset) -> tuple[Path, str]:
    """Export scores as one "user item score" line per finite cell, the
    score in shortest round-trip repr; masked cells are left out and
    re-import as fill. Made a block of users at a time, formatted in chunks
    of about LINES cells (`numtext.float_fields`) and written a user at a
    time, so its size does not add to peak memory. A row's "item score"
    lines are made once for it and the equal rows after it (bit for bit:
    -0.0 is not 0.0), and each user's key goes in front of every line.
    Returns the path and digest (`atomic_write_text`)."""
    item_fields = text_fields(ds.item_keys)
    chunk_rows = max(1, LINES // max(scores.num_items, 1))

    def text():
        prev_bits, row_text, wrote = None, b"", False
        step = block_rows(scores.num_items)
        for lo in range(0, scores.num_users, step):
            block = scores.rows(lo, lo + step)
            bits = block.view(np.int64)
            fresh = np.ones(len(block), dtype=bool)
            fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            if prev_bits is not None:
                fresh[0] = (bits[0] != prev_bits).any()
            prev_bits = bits[-1]
            new = np.flatnonzero(fresh)
            made = (row for at in range(0, len(new), chunk_rows)
                    for row in _row_texts(block[new[at : at + chunk_rows]], item_fields))
            for u, is_new in enumerate(fresh.tolist(), start=lo):
                row_text = next(made)[:-1] if is_new else row_text  # without its last line break
                if row_text:  # keys come from lines of text, so hold no line break
                    key = ds.user_keys[u].encode() + b"\t"
                    wrote = True
                    yield key + row_text.replace(b"\n", b"\n" + key) + b"\n"
        if not wrote:
            yield b"\n"

    return atomic_write_text(path, text())


def _check_universe(scores: ScoreBlocks, train: Interactions) -> None:
    if scores.num_users != train.num_users or scores.num_items != train.num_items:
        raise ValueError(f"score matrix is {scores.num_users}x{scores.num_items} but train universe is "
                         f"{train.num_users}x{train.num_items}")


def seen_masked(scores: ScoreBlocks, train: Interactions) -> ScoreBlocks:
    """`scores` with every train-seen cell stamped MASKED in each block as
    it is made. Every block is the caller's own array, so a held matrix is
    never written. The pairs are sorted by user, so a block's pairs are one
    slice of them."""
    _check_universe(scores, train)

    def rows(lo, hi):
        block = scores.rows(lo, hi)
        seen = slice(*np.searchsorted(train.users, (lo, hi)))
        block[train.users[seen] - lo, train.items[seen]] = MASKED
        return block

    return ScoreBlocks(scores.num_users, scores.num_items, rows)


def mask_seen(matrix: ScoreMatrix, train: Interactions) -> ScoreMatrix:
    """Stamp train-seen cells with the MASKED sentinel in `matrix.values`
    and return the same matrix; unseen cells are unchanged bit-for-bit and
    masking is idempotent. Mask a copy to keep the original scores."""
    _check_universe(matrix, train)
    matrix.values[train.users, train.items] = MASKED
    return matrix
