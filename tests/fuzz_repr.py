"""Differential fuzz of the toolkit's float text against Python's.

    python tests/fuzz_repr.py [--values N] [--seed S]

Draws N seeded float64 values, an equal share from each family in
FAMILIES, and formats them in both layouts of `fairrerank.numtext`
(`float_fields`) a batch at a time: `repr`, checked against `repr(v)`,
and `.10g`, checked against `format(v, ".10g")`. It prints, per family
and layout, the values drawn, the cells the kernel left to Python, and
the mismatches, and exits 1 on any mismatch. The file has no `test_`
prefix, so pytest does not collect it; `tests/test_scorers.py` runs the
same families on 10**6 values.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from fairrerank.numtext import PAD, _round10, _shortest, float_fields

BATCH = 1 << 15

# layout: (Python's text, the kernel that finds its digits)
LAYOUTS = {
    "repr": (repr, _shortest),
    ".10g": (lambda v: format(v, ".10g"), _round10),
}


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _bits(rng, n):
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def _tenth_digit_ties(rng, n):
    """Exact binary values of 11 significant digits ending in 5, which
    `.10g` must round half to even: an integer with d digits of
    odd / 2**d after the point (d = 1..7), or an integer ending in 5
    times 10**0..10**4."""
    d = rng.integers(0, 8, n)
    whole = rng.integers(10 ** (10 - d), 10 ** (11 - d))
    odd = 2 * rng.integers(0, 2 ** np.maximum(d - 1, 0)) + 1
    fives = (whole - whole % 10 + 5) * 10.0 ** rng.integers(0, 5, n)
    return np.where(d == 0, fives, whole + odd / 2.0**d) * _signs(rng, n)


def _exponent_form(rng, n):
    """Magnitudes where `.10g` prints an exponent (>= 1e10, < 1e-4), and
    values just below 1e10 and 1e-4 that round up onto those bounds."""
    below = 1 - 10.0 ** rng.uniform(-16, -8, n)
    families = [10.0 ** rng.uniform(10, 18, n), 10.0 ** rng.uniform(-7, -4, n), 1e10 * below, 1e-4 * below]
    return np.choose(rng.integers(0, 4, n), families) * _signs(rng, n)


def _signed_zeros(rng, n):
    return np.where(rng.random(n) < 0.5, rng.choice([-0.0, 0.0], n), rng.random(n))


FAMILIES = {
    "random bit patterns": _bits,
    "log-uniform 1e-30..1e30": lambda rng, n: 10.0 ** rng.uniform(-30, 30, n) * _signs(rng, n),
    "uniform [0, 1)": lambda rng, n: rng.random(n),
    "0.3 * normal": lambda rng, n: 0.3 * rng.standard_normal(n),
    "0.05 grid": lambda rng, n: rng.integers(-2000, 2000, n) * 0.05,
    "ties at the 10th digit": _tenth_digit_ties,
    "exponent form of .10g": _exponent_form,
    "-0.0 and 0.0 among uniform": _signed_zeros,
}


def mismatches(values: np.ndarray, layout: str = "repr") -> list[tuple[float, str]]:
    """(value, kernel text) for every value whose `layout` text differs
    from Python's."""
    got = float_fields(values, layout).tobytes().translate(None, bytes([PAD])).decode().split("\n")[:-1]
    expected = list(map(LAYOUTS[layout][0], values.tolist()))
    if got == expected:
        return []
    return [(v, g) for v, g, e in zip(values.tolist(), got, expected) if g != e]


def fuzz(total: int, seed: int, out=sys.stdout) -> int:
    """Run the fuzz in both layouts; returns the number of mismatches."""
    rng = np.random.default_rng(seed)
    share = total // len(FAMILIES)
    bad = 0
    for name, draw in FAMILIES.items():
        drawn, undecided, wrong = 0, dict.fromkeys(LAYOUTS, 0), dict.fromkeys(LAYOUTS, 0)
        for start in range(0, share, BATCH):
            values = draw(rng, min(BATCH, share - start))
            drawn += len(values)
            for layout, (_, kernel) in LAYOUTS.items():
                found = mismatches(values, layout)
                for value, text in found[:5]:
                    print(f"  {name} ({layout}): {value!r} formatted as {text!r}", file=out)
                wrong[layout] += len(found)
                undecided[layout] += int(np.count_nonzero(kernel(np.abs(values))[3]))
        for layout in LAYOUTS:
            print(f"{name} ({layout}): {drawn} values, {undecided[layout]} left to Python, "
                  f"{wrong[layout]} mismatches", file=out)
        bad += sum(wrong.values())
    print(f"total mismatches: {bad}", file=out)
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return 1 if fuzz(args.values, args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
