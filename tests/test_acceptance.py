"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence once its assertions hold. Run with `pytest -v` (add
-s to see the lines)."""

import math
import time

import numpy as np
import pytest
from pytest import approx

import reference
from conftest import evaluated
from fairrerank import verify
from fairrerank.cli import main
from fairrerank.dataset import Interactions, build_dataset, parse_interactions, partition_popularity, split
from fairrerank.metrics import eval_context, evaluate, judgments_from_interactions
from fairrerank.rerank import RecommendationLists, RerankConfig, rerank_oracle, rerank_path
from fairrerank.scorers import MFConfig, mask_seen, mf_scorer
from fairrerank.synthetic import random_rerank_instance, write_zipf_dataset, zipf_interaction_lines
from fairrerank.verify import DEFAULT_LAMBDA_GRID, run_battery

ORACLE_INSTANCES = 200
BATTERY_SEED = 20240


def test_c1_oracle_equivalence_within_budget():
    """>= 200 seeded instances x lambda in {0, 0.1, ..., 2.0}: objective gap
    <= 1e-9 and identical selected sets, in under 10 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(BATTERY_SEED)
    comparisons = 0
    for index in range(ORACLE_INSTANCES):
        inst = random_rerank_instance(rng, quantized=(index % 2 == 1))
        cfg = RerankConfig(k=inst.k)
        path = rerank_path(inst.scores, inst.part, cfg, DEFAULT_LAMBDA_GRID)
        oracle = rerank_oracle(inst.scores, inst.part, cfg, DEFAULT_LAMBDA_GRID)
        assert len(path) == len(oracle) == len(DEFAULT_LAMBDA_GRID)
        for fast, slow in zip(path, oracle):
            assert abs(fast.objective - slow.objective) <= 1e-9
            for u in range(fast.num_users):
                assert set(fast.items[u].tolist()) == set(slow.items[u].tolist())
            comparisons += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"C1 oracle equivalence: PASS ({comparisons} comparisons in {elapsed:.2f}s)")


def test_c2_lambda_zero_identity():
    """lambda = 0 selections equal the plain top-K of the raw scores."""
    rng = np.random.default_rng(BATTERY_SEED + 1)
    for index in range(ORACLE_INSTANCES):
        inst = random_rerank_instance(rng, quantized=(index % 2 == 1))
        fair = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (0.0,))[0]
        assert np.array_equal(fair.items, reference.plain_topk(inst.scores.values, inst.k))
    print(f"C2 lambda-zero identity: PASS ({ORACLE_INSTANCES} instances)")


def test_c3_monotone_exposure_and_saturation():
    """Short-head selections and the fairness gap are non-increasing along
    the ascending grid; beyond num_users * score range the short count is 0."""
    rng = np.random.default_rng(BATTERY_SEED + 2)
    for _ in range(ORACLE_INSTANCES):
        inst = random_rerank_instance(rng)
        m, k = inst.scores.num_users, inst.k
        shorts, gaps = [], []
        lambdas = (*DEFAULT_LAMBDA_GRID, inst.saturating_lambda)
        *path, saturated = rerank_path(inst.scores, inst.part, RerankConfig(k=k), lambdas)
        assert len(path) == len(DEFAULT_LAMBDA_GRID)
        for lists in path:
            short_count, _, gap = reference.fairness_gap(lists, inst.part)
            shorts.append(short_count)
            gaps.append(gap)
        assert all(b <= a for a, b in zip(shorts, shorts[1:]))
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        sat_short, _, sat_gap = reference.fairness_gap(saturated, inst.part)
        assert sat_short == 0
        assert sat_gap == -k
    print(f"C3 monotone exposure + saturation: PASS ({ORACLE_INSTANCES} instances)")


@pytest.mark.parametrize("n,expected", [(2060, 412), (1019, 203), (1189, 237), (1507, 301)])
def test_c4_partition_fidelity(n, expected):
    """floor(0.2 * n) short-head items, exactly, for the four catalog sizes."""
    rng = np.random.default_rng(9)
    size = 2 * n
    train = Interactions(rng.integers(0, 40, size=size), rng.integers(0, n, size=size), np.ones(size), 40, n)
    part = partition_popularity(train, n, ratio=0.2)
    assert part.num_short == expected
    print(f"C4 partition fidelity: PASS ({n} -> {part.num_short})")


def test_c5_exposure_identity():
    """short + long = lists * K on every run; the reference-scale
    arithmetic (22,169 + 4,601 = 26,770 = 10 * 2,677) holds as stated."""
    assert 22_169 + 4_601 == 26_770 == 10 * 2_677
    rng = np.random.default_rng(BATTERY_SEED + 3)
    for _ in range(50):
        inst = random_rerank_instance(rng)
        lists = rerank_path(inst.scores, inst.part, RerankConfig(k=inst.k), (float(rng.random() * 2),))[0]
        short_count, long_count, _ = reference.fairness_gap(lists, inst.part)
        assert short_count + long_count == lists.num_users * inst.k
    print("C5 exposure identity: PASS (50 runs + reference arithmetic)")


def test_c6_metric_golden_values():
    """NDCG closed-form check at rank 2, the precision/recall hand case, and
    bounded metrics staying in [0, 1] over 100 random evaluations."""
    lists = RecommendationLists(items=np.array([[0, 3, 1]], dtype=np.int64), num_items=5)
    assert evaluated(lists, [{3}], k=3).ndcg == approx(1.0 / math.log2(3), abs=1e-12)

    ten = RecommendationLists(items=np.arange(10, dtype=np.int64).reshape(1, 10), num_items=20)
    report = evaluated(ten, [{0, 1, 15, 16}], k=10)
    assert report.precision == approx(0.2)
    assert report.recall == approx(0.5)

    from fairrerank.verify import _check_metric_bounds

    outcome = _check_metric_bounds(100, BATTERY_SEED + 4)
    assert outcome.passed, outcome.detail
    print("C6 metric golden values: PASS (NDCG@2 = 1/log2(3), hand cases, 100 bounded evals)")


def test_c7_desk_scale_trend_reproduction():
    """Zipf dataset (500 users, 400 items, exponent 1.0), MF scorer, K=10:
    some grid lambda strictly raises coverage, novelty, and long-tail
    exposure while NDCG stays within 20% of the unweighted baseline."""
    start = time.perf_counter()
    ds = build_dataset(parse_interactions(zipf_interaction_lines(500, 400, exponent=1.0, per_user=30, seed=7)))
    triple = split(ds, seed=7)
    part = partition_popularity(triple.train, ds.num_items)
    scores = mask_seen(mf_scorer(triple.train, MFConfig(seed=7)), triple.train)
    ctx = eval_context(judgments_from_interactions(triple.test), triple.train, part, 10)

    def run(lam):
        return evaluate(ctx, [rerank_path(scores, part, RerankConfig(k=10), (lam,))[0]])[0]

    base = run(0.0)
    witnesses = []
    for lam in (1.0, 5.0, 20.0, 50.0, 100.0):
        rep = run(lam)
        if (
            rep.coverage > base.coverage
            and rep.novelty > base.novelty
            and rep.long_count > base.long_count
            and rep.ndcg >= 0.8 * base.ndcg
        ):
            witnesses.append((lam, rep))
    elapsed = time.perf_counter() - start
    assert witnesses, "no grid point reproduced the trend"
    assert elapsed < 120.0
    lam, rep = witnesses[-1]
    print(
        f"C7 desk-scale trend: PASS (lambda={lam:g}: coverage {base.coverage:.4f}->{rep.coverage:.4f}, "
        f"novelty {base.novelty:.4f}->{rep.novelty:.4f}, long {base.long_count}->{rep.long_count}, "
        f"NDCG {base.ndcg:.4f}->{rep.ndcg:.4f}; {elapsed:.1f}s)"
    )


def test_c8_end_to_end_determinism(tmp_path):
    """Two full `run` invocations with identical config produce byte-identical
    CSV reports at any --threads setting."""
    data = tmp_path / "data.tsv"
    write_zipf_dataset(data, 50, 30, 1.0, per_user=10, seed=13)
    config = tmp_path / "exp.cfg"
    config.write_text(
        "\n".join(
            [
                f"input.path = {data}",
                "split.seed = 13",
                "scorer.names = mf,popularity",
                "mf.dim = 8",
                "mf.iters = 4",
                "rerank.k = 5",
                "rerank.lambda_grid = 1.0,4.0",
                "report.formats = csv",
            ]
        )
        + "\n"
    )
    digests = set()
    for run_index, threads in enumerate((1, 1, 2, 4)):
        out = tmp_path / f"run{run_index}"
        code = main(["run", "--config", str(config), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        digests.add((out / "report.csv").read_bytes())
    assert len(digests) == 1
    print("C8 determinism: PASS (4 runs, threads 1/1/2/4, identical CSV bytes)")


def _battery_on_reference(monkeypatch, tie_break):
    """The battery's oracle-equivalence outcome with its solver swapped for
    the per-user reference under `tie_break` (`reference._selection_order`)."""
    monkeypatch.setattr(
        verify,
        "rerank_path",
        lambda matrix, part, cfg, lambdas: [
            reference.rerank_exact(matrix, part, cfg, lam, tie_break) for lam in lambdas
        ],
    )
    outcomes = run_battery(instances=40, seed=BATTERY_SEED)
    return next(o for o in outcomes if o.name == "oracle_equivalence")


def test_battery_mutation_hook_detects_inverted_tie_break(monkeypatch):
    """The verification battery must fail when the solver's tie-break is
    deliberately inverted (development mutation check)."""
    equivalence = _battery_on_reference(monkeypatch, "inverted")
    assert not equivalence.passed
    print(f"battery mutation hook: PASS (inverted tie-break caught: {equivalence.detail})")


def test_battery_passes_the_reference_under_the_default_tie_break(monkeypatch):
    """The mutation check's control: the same swap under the default rule
    passes, so the swap itself is faithful."""
    equivalence = _battery_on_reference(monkeypatch, "default")
    assert equivalence.passed, equivalence.detail
    print(f"battery mutation control: PASS (default tie-break on the reference: {equivalence.detail})")
