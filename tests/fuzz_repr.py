"""Differential fuzz of the score export's float text against `repr`.

    python tests/fuzz_repr.py [--values N] [--seed S]

Draws N seeded float64 values, a fifth from each family in FAMILIES, and
formats them with the export's kernel (`fairrerank.scorers._repr_fields`)
a batch at a time. It prints, per family, the values drawn, the cells the
kernel left to `repr`, and the mismatches, and exits 1 on any mismatch.
The file has no `test_` prefix, so pytest does not collect it;
`tests/test_scorers.py` runs the same families on 10**6 values.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from fairrerank.scorers import _PAD, _repr_fields, _shortest

BATCH = 1 << 15


def _bits(rng, n):
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


FAMILIES = {
    "random bit patterns": _bits,
    "log-uniform 1e-30..1e30": lambda rng, n: 10.0 ** rng.uniform(-30, 30, n) * rng.choice([-1.0, 1.0], n),
    "uniform [0, 1)": lambda rng, n: rng.random(n),
    "0.3 * normal": lambda rng, n: 0.3 * rng.standard_normal(n),
    "0.05 grid": lambda rng, n: rng.integers(-2000, 2000, n) * 0.05,
}


def mismatches(values: np.ndarray) -> list[tuple[float, str]]:
    """(value, kernel text) for every value whose text differs from repr."""
    got = _repr_fields(values).tobytes().translate(None, bytes([_PAD])).decode().split("\n")[:-1]
    expected = list(map(repr, values.tolist()))
    if got == expected:
        return []
    return [(v, g) for v, g, e in zip(values.tolist(), got, expected) if g != e]


def fuzz(total: int, seed: int, out=sys.stdout) -> int:
    """Run the fuzz; returns the number of mismatches."""
    rng = np.random.default_rng(seed)
    bad = 0
    for name, draw in FAMILIES.items():
        drawn = undecided = wrong = 0
        for start in range(0, total // len(FAMILIES), BATCH):
            values = draw(rng, min(BATCH, total // len(FAMILIES) - start))
            found = mismatches(values)
            for value, text in found[:5]:
                print(f"  {name}: {value!r} formatted as {text!r}", file=out)
            drawn, wrong = drawn + len(values), wrong + len(found)
            undecided += int(np.count_nonzero(_shortest(np.abs(values))[3]))
        print(f"{name}: {drawn} values, {undecided} left to repr, {wrong} mismatches", file=out)
        bad += wrong
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
