"""Text output in numpy: the one way the toolkit prints numbers and lines.

A float prints in one of two layouts, each the text Python gives:
`repr` (the shortest decimal that reads back as the same float) and
`.10g` (`format(v, ".10g")`: ten significant digits, round half to
even, trailing zeros dropped). An exact kernel finds each value's digits
a batch at a time (`_shortest`, `_round10`), and one template per
exponent and digit count lays them out after the sign. The few values
the kernel cannot decide are formatted by Python itself, so every byte
is the one a per-value `repr` or `format` writes.

A line is fixed-width fields side by side, one uint8 table per column,
each field padded with PAD, a byte no UTF-8 text holds; `lines` drops the
padding and returns the bytes to write.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

__all__ = ["PAD", "LINES", "float_fields", "text_fields", "lines"]

PAD = 0xFF  # pads text fields, dropped before the write
_DROP = bytes([PAD])
LINES = 4096  # values per formatted batch, and lines per chunk of a list file
_POW10 = np.array([10**k for k in range(23)], dtype=np.float64)  # every one exact
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into halves of 26 bits
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# layout: (digit slots, least exponent printed as e+XX, ".0" after an
# integral value, Python's own text)
_LAYOUTS = {
    "repr": (17, 16, True, repr),
    ".10g": (10, 10, False, lambda v: format(v, ".10g")),
}


def _template(layout: str, end: str, e: int, t: int) -> bytes:
    """The text field of a value with first digit at 10**e and t
    significant digits in `layout`, followed by `end`: a sign byte, 5
    prefix bytes ("0.000" at most), a (digit, dot) byte pair per digit
    slot, 4 exponent bytes, `end`, padded to a multiple of 8 bytes. A
    shown digit byte is 0, for the digit to be OR-ed in; every byte the
    text does not use is PAD, the sign byte too."""
    slots, sci_from, point, _ = _LAYOUTS[layout]
    field = bytearray([PAD]) * (-(-(6 + 2 * slots + 4 + len(end)) // 8) * 8)
    prefix, shown, dot, suffix = "", t, None, ""
    if e < -4 or e >= sci_from:
        dot, suffix = (0 if t > 1 else None), f"e{'-' if e < 0 else '+'}{abs(e):02d}"
    elif e >= 0:  # integral digits zero-padded up to the dot; repr adds ".0" if nothing follows
        shown = max(t, e + 1 + point)
        dot = e if shown > e + 1 else None
    else:
        prefix = "0." + "0" * (-e - 1)
    field[1 : 1 + len(prefix)] = prefix.encode()
    field[6 : 6 + 2 * shown : 2] = bytes(shown)
    if dot is not None:
        field[7 + 2 * dot] = ord(".")
    at = 6 + 2 * slots
    field[at : at + len(suffix) + len(end)] = (suffix + end).encode()
    return bytes(field)


@functools.cache
def _text_tables(layout: str, end: str) -> np.ndarray:
    """The _template of every (e, t) with -6 <= e <= 16 as rows of one
    table."""
    slots = _LAYOUTS[layout][0]
    rows = [_template(layout, end, e, t) for e in range(-6, 17) for t in range(1, slots + 1)]
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), -1)


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0..9999, each the low byte of a
    little-endian uint16, as one uint64 per number."""
    d = np.arange(48, 58, dtype="<u2")
    digits = np.broadcast_arrays(d[:, None, None, None], d[:, None, None], d[:, None], d)
    return np.stack(digits, axis=-1).reshape(10000, 4).view("<u8")[:, 0]


def _scaled(a: np.ndarray):
    """Each finite a >= 0 in [1e-6, 1e17) scaled exactly: X = a * 10**k =
    big + f in [1e16, 1e17), by Dekker's two-product (big an integer,
    0 <= f < 1). Returns (a, k, big, f, zero, undecided), with every other
    a set to 1.0 and undecided unless it is 0.0."""
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
    undecided = ~(inside | zero) | (big < 10**16) | (big >= 10**17)
    return a, k, big, err - fl, zero, undecided


def _drop_zeros(cand: np.ndarray, digits: np.ndarray, live: np.ndarray, scale: int) -> None:
    """Take the trailing zeros of each cand[live] off digits[live]; its
    digits below scale // 10 are zeros already taken off."""
    while len(live):
        live = live[cand[live] % scale == 0]
        digits[live] -= 1
        scale *= 10


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortest decimal that reads back as each finite a >= 0, as repr
    finds it: (c, k, digits, undecided), a ~ c / 10**k with c in [1e16,
    1e17) ending in 17 - digits zeros (for 0.0 and undecided cells, c, k
    and digits mean nothing).
    With X = big + f (`_scaled`), a's rounding interval becomes X +- half
    an ulp times 10**k, exact doubles. The shortest decimal in it is the
    multiple of 10**j nearest X for the largest j with one inside: the
    nearer of big and big + 1 (j = 0), of the two multiples of 10 around
    X (j = 1), or the one multiple of 100 (j >= 2: the interval is under
    23 wide), and its trailing zeros give j. Each test compares f with an
    exact difference. Cells outside [1e-6, 1e17), on an interval bound or
    at a tie between two candidates are undecided."""
    a, k, big, f, zero, undecided = _scaled(a)
    bits = a.view(np.int64)
    half_up = ((bits >> 52) - 53 << 52).view(np.float64) * _POW10.take(k)
    half_down = np.where(bits << 12 == 0, half_up * 0.5, half_up)  # a power of two: the gap below is half
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
    digits = 17 - tens - hundreds
    _drop_zeros(cand, digits, np.flatnonzero(hundreds & ~(zero | undecided)), 1000)
    return cand, k, digits, undecided


def _round10(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each finite a >= 0 rounded to 10 significant digits, as `.10g`
    rounds it, in `_shortest`'s form: X = big + f (`_scaled`) rounded to a
    multiple of 10**7, the remainder r + f against 5 * 10**6 and exact
    ties to the even quotient; a carry to 10**10 moves the first digit up
    one place. Cells outside [1e-6, 1e17), or that round to 1e17, are
    undecided."""
    _, k, big, f, zero, undecided = _scaled(a)
    q, r = np.divmod(big, 10**7)
    q += (r > 5 * 10**6) | ((r == 5 * 10**6) & ((f > 0) | (q % 2 == 1)))
    carry = q == 10**10
    q[carry], k[carry] = 10**9, k[carry] - 1
    undecided |= k < 0
    k[undecided] = 16
    cand = q * 10**7
    digits = np.full(len(cand), 10)
    _drop_zeros(cand, digits, np.flatnonzero(~(zero | undecided)), 10**8)
    return cand, k, digits, undecided


def float_fields(x: np.ndarray, layout: str = "repr", end: str = "\n") -> np.ndarray:
    """The bytes of each float64 of `x` in `layout` ("repr" or ".10g") and
    `end`, one PAD-padded row each, formatted LINES values at a time, which
    keeps a batch's temporaries in cache. When at most half the values are
    distinct bit patterns (so 0.0 and -0.0 apart), each is formatted once,
    and the rows are only as wide as those texts need."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    ordered = np.sort(bits)
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    if 2 * np.count_nonzero(new) <= len(bits):
        slot = np.empty(len(bits), dtype=np.intp)
        slot[np.argsort(bits)] = np.cumsum(new) - 1
        table = float_fields(ordered[new].view(np.float64), layout, end)
        return table[:, (table != PAD).any(axis=0)].take(slot, axis=0)  # without columns no value uses
    values = bits.view(np.float64)
    if len(values) <= LINES:
        return _format(values, layout, end)
    return np.concatenate([_format(values[lo : lo + LINES], layout, end) for lo in range(0, len(values), LINES)])


def _format(x: np.ndarray, layout: str, end: str) -> np.ndarray:
    """`float_fields` of one batch: the sign and the kernel's digits laid
    out by the template of their exponent and length, or Python's own text
    for the cells it leaves undecided."""
    slots, _, _, python_text = _LAYOUTS[layout]
    templates = _text_tables(layout, end)
    cand, k, digits, undecided = (_shortest if layout == "repr" else _round10)(np.abs(x))
    zero = x == 0  # one digit "0" at 10**0
    cand[zero | undecided], digits[zero], k[zero] = 0, 1, 16
    field = templates.take((22 - k) * slots + digits - 1, axis=0)
    field[np.signbit(x), 0] = ord("-")
    # the digits of cand, OR-ed into the digit slots: the first at byte 6,
    # then groups of four at bytes 8, 16, ... as one uint64 each (the last
    # group cut at the last slot)
    head = cand // 10**16
    field[:, 6] |= (head + 48).astype(np.uint8)
    hi8 = (cand - head * 10**16) // 10**8
    lo8 = cand - head * 10**16 - hi8 * 10**8
    hi4, lo4 = hi8 // 10**4, lo8 // 10**4
    words = field.view("<u8")
    for at, group in zip(range(1, slots, 4), (hi4, hi8 - hi4 * 10**4, lo4, lo8 - lo4 * 10**4)):
        text = _quads().take(group)
        words[:, (at + 3) // 4] |= text if at + 4 <= slots else text & (1 << 16 * (slots - at)) - 1
    left = np.flatnonzero(undecided)
    width = field.shape[1]
    texts = np.array([python_text(v) + end for v in x[left].tolist()], dtype=f"S{width}")
    texts = texts.view(np.uint8).reshape(len(left), width)
    field[left] = np.where(texts == 0, PAD, texts)
    return field


def text_fields(texts: Iterable[str], end: str = "\t") -> np.ndarray:
    """Each text + `end`, one ASCII character, as a row of one uint8
    table, padded with PAD."""
    texts = list(texts)
    raw = np.frombuffer((end.join(texts) + end).encode() if texts else b"", np.uint8)
    stops = np.flatnonzero(raw == ord(end)) + 1
    if len(stops) != len(texts):  # a text holds `end` itself, so its line could not be read back
        raise ValueError(f"text {next(text for text in texts if end in text)!r} holds the field end {end!r}")
    sizes = np.diff(stops, prepend=0)
    table = np.full((len(texts), sizes.max(initial=1)), PAD, dtype=np.uint8)
    table[np.arange(table.shape[1]) < sizes[:, None]] = raw
    return table


def lines(*columns: np.ndarray) -> bytes:
    """The text of field tables side by side, row by row, padding dropped."""
    table = np.concatenate(columns, axis=1) if len(columns) > 1 else columns[0]
    return table.tobytes().translate(None, _DROP)
