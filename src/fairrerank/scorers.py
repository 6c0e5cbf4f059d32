"""Score-matrix producers: built-in baselines plus an import path for
externally computed scores.

A built-in scorer makes its (num_users x num_items) float64 predicted
preferences a block of users at a time (:class:`ScoreBlocks`); its dense
form, the one block of all users, is a :class:`ScoreMatrix`, as imported
scores are, and every block is bit for bit its slice of that form.
`mask_seen` (`seen_masked` per block) stamps train-seen cells with a -inf
sentinel, so downstream top-K selection can never return an
already-consumed item; export scores with `write_scores` before masking
them to keep the seen cells in the file. All scorers are deterministic
functions of their inputs and seed.
"""

from __future__ import annotations

import functools
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .dataset import DataError, Dataset, Interactions, distinct_user_counts
from .util import atomic_write_text

__all__ = [
    "MASKED",
    "ScoreMatrix",
    "ScoreBlocks",
    "MFConfig",
    "popularity_blocks",
    "popularity_scorer",
    "random_blocks",
    "random_scorer",
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

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Users lo..hi-1 as a view, checked once, at construction."""
        return self.values[lo:hi]


@dataclass(frozen=True)
class ScoreBlocks:
    """A scorer's (num_users x num_items) scores, never held whole:
    `rows(lo, hi)` makes users lo..hi-1 (as a slice would: hi may pass
    num_users) as a new array, each cell MASKED or finite."""

    num_users: int
    num_items: int
    rows: Callable[[int, int], np.ndarray]


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
        if self.regularization <= 0:
            raise ValueError("regularization must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.confidence_alpha <= 0:
            raise ValueError("confidence_alpha must be positive")


def popularity_blocks(train: Interactions) -> ScoreBlocks:
    """Score every item by its distinct-training-user fraction, identically
    for all users. Deliberately popularity-biased."""
    if train.num_items < 1:
        raise ValueError("empty catalog")
    m, counts = train.num_users, distinct_user_counts(train, train.num_items)
    row = counts.astype(np.float64)[None] / float(m)
    return ScoreBlocks(m, train.num_items, lambda lo, hi: np.repeat(row, min(hi, m) - lo, axis=0))


def popularity_scorer(train: Interactions) -> ScoreMatrix:
    """`popularity_blocks` as one block of all users."""
    return ScoreMatrix(popularity_blocks(train).rows(0, train.num_users))


def random_blocks(num_users: int, num_items: int, seed: int) -> ScoreBlocks:
    """I.i.d. uniform(0,1) scores from a seeded generator; null-model
    control. The block of users lo..hi-1 starts its generator lo * num_items
    draws in (one draw per float), so it is that slice of one draw."""
    if num_users < 1 or num_items < 1:
        raise ValueError("num_users and num_items must be >= 1")
    return ScoreBlocks(num_users, num_items, lambda lo, hi: np.random.Generator(
        np.random.PCG64(seed).advance(lo * num_items)).random((min(hi, num_users) - lo, num_items)))


def random_scorer(num_users: int, num_items: int, seed: int) -> ScoreMatrix:
    """`random_blocks` as one block of all users: `default_rng(seed)`'s draw."""
    return ScoreMatrix(random_blocks(num_users, num_items, seed).rows(0, num_users))


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
        return ScoreMatrix(np.concatenate(parts)[lo - start : hi - start]).values

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
    values = np.full((m, n), fill, dtype=np.float64)
    provided = np.zeros((m, n), dtype=bool)
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
            u, i = ds.user_index[user_key], ds.item_index[item_key]
            values[u, i] = score
            provided[u, i] = True
        except DataError:
            byte = re.search("[\udc80-\udcff]", raw)  # read with surrogateescape: a byte that is not UTF-8
            if byte:
                raise DataError(f"byte {ord(byte.group()) - 0xDC00:#04x} is not UTF-8", lineno) from None
            raise
    coverage = float(provided.sum()) / float(m * n)
    if coverage < 1.0:
        logger.warning(
            "score import covered %.1f%% of cells; missing cells filled with %r", 100.0 * coverage, fill
        )
    return ScoreMatrix(values, import_coverage=coverage)


def read_scores(path: Path | str, ds: Dataset, fill: float = 0.0) -> ScoreMatrix:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:  # a non-UTF-8 byte fails its line
        return load_scores(fh, ds, fill=fill)


_PAD = 0xFF  # a byte no UTF-8 text holds: pads text fields, dropped before the write
_EXPORT_CELLS = 1 << 12  # score cells per formatted chunk of rows
_POW10 = np.array([10**k for k in range(23)], dtype=np.float64)  # every one exact
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves of 26 bits
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _template(neg: int, e: int, t: int) -> bytes:
    """The text field of a value with sign `neg`, first digit at 10**e and
    t significant digits, laid out as repr lays it out: 6 prefix bytes
    ("-0.000" at most), 17 (digit, dot) byte pairs, 4 exponent bytes, a
    newline and one more byte. A shown digit byte is 0, for the digit to
    be OR-ed in; every byte the text does not use is _PAD."""
    field = bytearray([_PAD]) * 46
    prefix, shown, dot, suffix = "-" * neg, t, None, ""
    if e < -4 or e >= 16:
        dot, suffix = (0 if t > 1 else None), f"e{'-' if e < 0 else '+'}{abs(e):02d}"
    elif e >= 0:  # integral digits zero-padded up to the dot; ".0" if nothing follows
        shown, dot = max(t, e + 2), e
    else:
        prefix += "0." + "0" * (-e - 1)
    field[: len(prefix)] = prefix.encode()
    field[6 : 6 + 2 * shown : 2] = bytes(shown)
    if dot is not None:
        field[7 + 2 * dot] = ord(".")
    field[40 : 41 + len(suffix)] = (suffix + "\n").encode()
    return bytes(field)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The _template of every (e, t, neg) with -6 <= e <= 16 as rows of one
    table, and the four ASCII digits of 0..9999 as little-endian uint16."""
    templates = b"".join(_template(neg, e, t) for e in range(-6, 17) for t in range(1, 18) for neg in (0, 1))
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    return np.frombuffer(templates, np.uint8).reshape(-1, 46), quads.astype("<u2")


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimal that reads back as each finite a >= 0, as repr
    finds it: (c, k, digits, undecided), a ~ c / 10**k with c in [1e16,
    1e17) ending in 17 - digits zeros (c = 0 for 0.0 and undecided cells). a in [1e-6, 1e17) is
    scaled exactly, X = a * 10**k = big + f in [1e16, 1e17) (Dekker's
    two-product: big an integer, 0 <= f < 1), and a's rounding interval
    becomes X +- half an ulp times 10**k, exact doubles. The shortest
    decimal in it is the multiple of 10**j nearest X for the largest j
    with one inside: the nearer of big and big + 1 (j = 0), of the two
    multiples of 10 around X (j = 1), or the one multiple of 100 (j >= 2:
    the interval is under 23 wide), and its trailing zeros give j. Each
    test compares f with an exact difference. Cells outside that range, on
    an interval bound or at a tie between two candidates are undecided."""
    zero = a == 0
    inside = (a >= 1e-6) & (a < 1e17)
    a = np.where(inside, a, 1.0)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    b, b_hi, b_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * b
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    fl = np.floor(err)
    big = p.astype(np.int64) + fl.astype(np.int64)
    f = err - fl
    bits = a.view(np.int64)
    half_up = ((bits >> 52) - 53 << 52).view(np.float64) * b
    half_down = np.where(bits << 12 == 0, half_up * 0.5, half_up)  # a power of two: the gap below is half
    undecided = ~(inside | zero) | (big < 10**16) | (big >= 10**17)
    tests = []
    for step in (10, 100):
        below = big // step * step
        r = big - below
        down_gap, up_gap = half_down - r, (step - r) - half_up
        down, up = f < down_gap, up_gap < f  # below, below + step inside the interval
        undecided |= (f == down_gap) | (f == up_gap)
        tests.append((down | up, below, down, up, (step - 2 * r) * 0.5))
    (tens, below10, down10, up10, mid10), (hundreds, below100, _, up100, _) = tests
    undecided |= np.where(tens, ~hundreds & down10 & up10 & (f == mid10), f == 0.5)
    nearer10 = below10 + 10 * (up10 & ~(down10 & (f < mid10)))
    cand = np.where(hundreds, below100 + 100 * up100, np.where(tens, nearer10, big + (f > 0.5)))
    undecided |= cand >= 10**17
    cand[zero | undecided] = 0
    digits = 17 - tens - hundreds
    live, scale = np.flatnonzero(hundreds & (cand > 0)), 1000
    while len(live):
        live = live[cand[live] % scale == 0]
        digits[live] -= 1
        scale *= 10
    digits[zero] = 1
    k[zero] = 16
    return cand, k, digits, undecided


def _repr_fields(x: np.ndarray) -> np.ndarray:
    """The bytes of repr(v) and a newline for each finite v of `x`, one
    row of 46 each, padded with _PAD: `_shortest`'s digits laid out by the
    _template of their sign, exponent and length, or repr's own text for
    the cells it leaves undecided."""
    templates, quads = _text_tables()
    cand, k, digits, undecided = _shortest(np.abs(x))
    field = templates.take(((22 - k) * 17 + digits - 1) * 2 + np.signbit(x), axis=0)
    head = cand // 10**16
    hi8 = (cand - head * 10**16) // 10**8
    lo8 = cand - head * 10**16 - hi8 * 10**8
    hi4, lo4 = hi8 // 10**4, lo8 // 10**4
    text = np.empty((len(x), 17), dtype="<u2")
    text[:, 0] = head + 48
    groups = np.stack((hi4, hi8 - hi4 * 10**4, lo4, lo8 - lo4 * 10**4), axis=1)
    text[:, 1:] = quads.take(groups, axis=0).reshape(len(x), 16)
    field.view("<u2")[:, 3:20] |= text
    left = np.flatnonzero(undecided)
    texts = np.array([repr(v) + "\n" for v in x[left].tolist()], dtype="S46").view(np.uint8).reshape(len(left), 46)
    field[left] = np.where(texts == 0, _PAD, texts)
    return field


def _key_fields(keys: Iterable[str]) -> np.ndarray:
    """Each key + TAB as a row of one uint8 table, padded with _PAD."""
    raw = [key.encode() + b"\t" for key in keys]
    width = max(map(len, raw), default=1)
    return np.frombuffer(b"".join(r.ljust(width, bytes([_PAD])) for r in raw), np.uint8).reshape(len(raw), width)


def _row_texts(rows: np.ndarray, user_fields: np.ndarray, item_fields: np.ndarray) -> list[bytes]:
    """The export lines of each row of `rows`, whose users' key fields are
    `user_fields`: the fields of every finite cell side by side, and the
    padding dropped."""
    finite = np.isfinite(rows)
    row, item = np.nonzero(finite)
    lines = np.concatenate(
        (user_fields.take(row, axis=0), item_fields.take(item, axis=0), _repr_fields(rows[row, item])), axis=1
    )
    ends = np.cumsum(finite.sum(axis=1)).tolist()
    return [lines[start:end].tobytes().translate(None, bytes([_PAD])) for start, end in zip([0] + ends, ends)]


def write_scores(path: Path | str, scores: ScoreMatrix | ScoreBlocks, ds: Dataset) -> Path:
    """Export scores as one "user item score" line per finite cell, the
    score in shortest round-trip repr; masked cells are left out and
    re-import as fill. Made a block of users at a time, formatted in chunks
    of about _EXPORT_CELLS cells (`_repr_fields`) and written a user at a
    time, so its size does not add to peak memory. A row bytewise equal to
    the previous one (0.0 and -0.0 compare equal but print differently)
    reuses its text, with the user key swapped."""
    user_fields, item_fields = _key_fields(ds.user_keys), _key_fields(ds.item_keys)
    chunk_rows = max(1, _EXPORT_CELLS // max(scores.num_items, 1))

    def text():
        prev_bits, prev_key, prev, tails, wrote = None, b"", b"", None, False
        step = block_rows(scores.num_items)
        for lo in range(0, scores.num_users, step):
            block = np.ascontiguousarray(scores.rows(lo, lo + step))
            bits = block.view(np.int64)
            fresh = np.ones(len(block), dtype=bool)
            fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            if prev_bits is not None:
                fresh[0] = (bits[0] != prev_bits).any()
            prev_bits = bits[-1]
            new = np.flatnonzero(fresh)
            made = (row for at in range(0, len(new), chunk_rows) for row in _row_texts(
                block[new[at : at + chunk_rows]], user_fields[lo + new[at : at + chunk_rows]], item_fields))
            for u, is_new in enumerate(fresh.tolist(), start=lo):
                key = ds.user_keys[u].encode() + b"\t"
                if is_new:
                    prev, tails = next(made), None
                elif prev:  # keys come from lines of text, so hold no line break
                    tails = tails or [line[len(prev_key) :] for line in prev[:-1].split(b"\n")]
                    prev = key + (b"\n" + key).join(tails) + b"\n"
                prev_key, wrote = key, wrote or bool(prev)
                yield prev
        if not wrote:
            yield b"\n"

    return atomic_write_text(path, text())


def seen_masked(scores: ScoreMatrix | ScoreBlocks, train: Interactions) -> ScoreBlocks:
    """`scores` with every train-seen cell stamped MASKED in each block as
    it is made (a ScoreMatrix's in place). The pairs are stable-sorted by
    user once, so a block's pairs are one slice of them."""
    if scores.num_users != train.num_users or scores.num_items != train.num_items:
        raise ValueError(
            f"score matrix is {scores.num_users}x{scores.num_items} but train universe is "
            f"{train.num_users}x{train.num_items}"
        )
    order = np.argsort(train.users, kind="stable")
    users, items = train.users[order], train.items[order]

    def rows(lo, hi):
        block = scores.rows(lo, hi)
        seen = slice(*np.searchsorted(users, (lo, hi)))
        block[users[seen] - lo, items[seen]] = MASKED
        return block

    return ScoreBlocks(scores.num_users, scores.num_items, rows)


def mask_seen(matrix: ScoreMatrix, train: Interactions) -> ScoreMatrix:
    """Stamp train-seen cells with the MASKED sentinel in `matrix.values`
    and return the same matrix; unseen cells are unchanged bit-for-bit and
    masking is idempotent. Mask a copy to keep the original scores."""
    seen_masked(matrix, train).rows(0, matrix.num_users)
    return matrix
