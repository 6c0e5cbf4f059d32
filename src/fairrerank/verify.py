"""Self-verification battery: oracle equivalence, exposure monotonicity,
partition fidelity, and metric bound checks on seeded random instances.

The battery is what `fairrerank verify` runs and what the acceptance tests
reuse. Failures are reported as structured results, never raised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dataset import Interactions, partition_popularity
from .metrics import eval_context, evaluate
from .rerank import RecommendationLists, RerankConfig, rerank_oracle, rerank_path
from .synthetic import random_rerank_instance

__all__ = ["CheckOutcome", "run_battery", "DEFAULT_LAMBDA_GRID"]

DEFAULT_LAMBDA_GRID = tuple(i / 10 for i in range(21))  # 0.0, 0.1, ..., 2.0
DEFAULT_INSTANCES, DEFAULT_BATTERY_SEED = 200, 20240  # also the defaults of `fairrerank verify`


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str):
    """Decorator: time a check that returns (passed, detail) and report it
    as a CheckOutcome named `name`."""

    def wrap(check):
        def run(*args) -> CheckOutcome:
            start = time.perf_counter()
            passed, detail = check(*args)
            return CheckOutcome(name, passed, detail, time.perf_counter() - start)

        return run

    return wrap


def _instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for index in range(count):
        yield random_rerank_instance(rng, quantized=(index % 2 == 1))


@_check("oracle_equivalence")
def _check_oracle_equivalence(count: int, seed: int):
    """Exact solver vs exhaustive oracle: objective within 1e-9 and the
    selected sets identical on every (instance, lambda) pair; the lambda=0
    lists must equal the plain top-k of the raw scores, in display order."""
    for idx, inst in enumerate(_instances(count, seed)):
        cfg = RerankConfig(k=inst.k)
        path = rerank_path(inst.scores, inst.part, cfg, DEFAULT_LAMBDA_GRID)
        oracle = rerank_oracle(inst.scores, inst.part, cfg, DEFAULT_LAMBDA_GRID)
        gaps = [abs(fast.objective - slow.objective) for fast, slow in zip(path, oracle)]
        fast_sets, slow_sets = (np.sort([lists.items for lists in sets], axis=-1) for sets in (path, oracle))
        differ = (fast_sets != slow_sets).any(axis=-1)
        bad = (np.array(gaps) > 1e-9) | differ.any(axis=-1)
        if bad.any():
            at = int(np.argmax(bad))
            lam = DEFAULT_LAMBDA_GRID[at]
            if gaps[at] > 1e-9:
                return False, f"instance {idx} lambda={lam:g}: objective gap {gaps[at]:.3e}"
            u = int(np.argmax(differ[at]))
            sets = f"{fast_sets[at, u].tolist()} vs {slow_sets[at, u].tolist()}"
            return False, f"instance {idx} lambda={lam:g} user {u}: sets differ {sets}"
        # the grid starts at 0, so path[0] is the lambda = 0 selection; the
        # plain top-k is sorted here, independently of the solver
        values = inst.scores.values
        plain = np.lexsort((np.broadcast_to(np.arange(values.shape[1]), values.shape), -values), axis=1)[:, : inst.k]
        if not np.array_equal(path[0].items, plain):
            return False, f"instance {idx}: lambda=0 selection differs from plain top-k"
    return True, f"{count} instances x {len(DEFAULT_LAMBDA_GRID)} lambdas ({count * len(DEFAULT_LAMBDA_GRID)} comparisons)"


@_check("monotone_exposure")
def _check_monotone_exposure(count: int, seed: int):
    """Short-head selections never increase along an ascending lambda grid,
    per user and hence in aggregate, and the fairness gap never increases;
    past num_users * score range the short-head count is exactly zero and
    the gap is exactly -k."""
    for idx, inst in enumerate(_instances(count, seed)):
        m, k = inst.scores.num_users, inst.k
        previous_user_short = previous_gap = None
        lambdas = (*DEFAULT_LAMBDA_GRID, inst.saturating_lambda)
        *path, saturated = rerank_path(inst.scores, inst.part, RerankConfig(k=k), lambdas)
        for lam, lists in zip(DEFAULT_LAMBDA_GRID, path):
            user_short = inst.part.short_head[lists.items].sum(axis=1)
            gap = (2 * int(user_short.sum()) - lists.items.size) / m  # short minus long slots, per user
            if lists.items.size != m * k:
                return False, f"instance {idx} lambda={lam:g}: exposure identity violated"
            if not -k <= gap <= k:
                return False, f"instance {idx} lambda={lam:g}: gap {gap} out of bounds"
            if previous_user_short is not None and np.any(user_short > previous_user_short):
                worst = int(np.argmax(user_short - previous_user_short))
                rise = f"{int(previous_user_short[worst])} -> {int(user_short[worst])}"
                return False, f"instance {idx} lambda={lam:g}: user {worst} short count rose {rise}"
            if previous_gap is not None and gap > previous_gap + 1e-12:
                return False, f"instance {idx} lambda={lam:g}: gap rose {previous_gap} -> {gap}"
            previous_user_short = user_short
            previous_gap = gap
        sat_short = int(inst.part.short_head[saturated.items].sum())
        sat_gap = (2 * sat_short - saturated.items.size) / m
        if sat_short != 0 or sat_gap != -k:
            return False, f"instance {idx}: saturation failed (short={sat_short}, gap={sat_gap})"
    return True, f"{count} instances, per-user"


_CATALOG_EXPECTATIONS = ((2060, 412), (1019, 203), (1189, 237), (1507, 301))


@_check("partition_sizes")
def _check_partition_sizes():
    """floor(0.2 * n) short-head items for the four reference catalog sizes."""
    rng = np.random.default_rng(7)
    for n, expected in _CATALOG_EXPECTATIONS:
        users = rng.integers(0, 50, size=3 * n)
        items = rng.integers(0, n, size=3 * n)
        train = Interactions(users, items, np.ones(3 * n), 50, n)
        part = partition_popularity(train, n, ratio=0.2)
        if part.num_short != expected:
            return False, f"n={n}: got {part.num_short} short-head, expected {expected}"
    return True, ", ".join(f"{n}->{s}" for n, s in _CATALOG_EXPECTATIONS)


def _random_evaluation(rng: np.random.Generator):
    m = int(rng.integers(3, 12))
    n = int(rng.integers(8, 25))
    k = int(rng.integers(2, min(5, n // 2) + 1))
    size = int(rng.integers(m, 4 * m))
    train = Interactions(
        rng.integers(0, m, size=size), rng.integers(0, n, size=size), np.ones(size), m, n
    )
    part = partition_popularity(train, n, ratio=0.2)
    lists = np.stack([rng.choice(n, size=k, replace=False) for _ in range(m)])
    judgments = [set(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()) for _ in range(m)]
    return RecommendationLists(items=lists.astype(np.int64), num_items=n), judgments, train, part, k


@_check("metric_bounds")
def _check_metric_bounds(count: int, seed: int):
    """Every bounded report field stays in range over random evaluations
    (evaluate validates each report, the exposure identity included)."""
    rng = np.random.default_rng(seed)
    for idx in range(count):
        lists, judgments, train, part, k = _random_evaluation(rng)
        try:
            report = evaluate(eval_context(judgments, train, part, k), [lists])[0]
        except ValueError as exc:
            return False, f"evaluation {idx}: {exc}"
        if not math.isfinite(report.novelty):
            return False, f"evaluation {idx}: non-finite novelty"
    return True, f"{count} random evaluations"


def run_battery(instances: int = DEFAULT_INSTANCES, seed: int = DEFAULT_BATTERY_SEED) -> list[CheckOutcome]:
    """Run all checks."""
    return [
        _check_oracle_equivalence(instances, seed),
        _check_monotone_exposure(max(instances // 4, 25), seed + 1),
        _check_partition_sizes(),
        _check_metric_bounds(100, seed + 2),
    ]
