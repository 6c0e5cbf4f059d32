"""The library surface: every exported name exists, the README's Library
example runs as written, and the benchmark harness's library calls run."""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fairrerank
from fairrerank.synthetic import write_zipf_dataset

MODULES = ["fairrerank"] + [f"fairrerank.{info.name}" for info in pkgutil.iter_modules(fairrerank.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [export for export in exported if not hasattr(module, export)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert 'read_interactions("demo.tsv")' in example
    write_zipf_dataset(tmp_path / "demo.tsv", 60, 40, 1.0, per_user=12, seed=1)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})

# the report fields the harness's sweep check reads
HARNESS_REPORT_KEYS = {"ndcg", "precision", "recall", "novelty", "diversity", "coverage", "personalization",
                       "serendipity", "short_count", "rel_short", "long_count", "rel_long", "fairness_gap", "k",
                       "evaluated_users"}


def test_the_benchmark_harness_library_calls_run(tmp_path, monkeypatch):
    # the calls of the harness's library workloads (sweep and als), on a
    # tiny log, and what the harness reads of their results
    from fairrerank import config, dataset, metrics, rerank, scorers

    write_zipf_dataset(tmp_path / "log.tsv", 40, 30, 1.0, per_user=8, seed=2)
    (tmp_path / "run.cfg").write_text(f"input.path = {tmp_path / 'log.tsv'}\nscorer.names = mf,popularity\n"
                                      "mf.dim = 4\nmf.iters = 2\nrerank.k = 5\nrerank.lambda_grid = 0,0.1,1.0\n"
                                      "rerank.per_user_lambda = true\n")
    cfg = config.load_config(tmp_path / "run.cfg")
    records = dataset.read_interactions(cfg.input_path, dataset.InputFormat.from_name(cfg.delimiter, cfg.header))
    ds = dataset.build_dataset(records)
    triple = dataset.split(ds, cfg.ratios, cfg.split_seed)
    part = dataset.partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
    judgments = metrics.judgments_from_interactions(triple.test)
    captured = []
    train_mf_factors = scorers.train_mf_factors

    def capture(*args):  # as the als workload wraps it, to read the factors
        captured.append(train_mf_factors(*args))
        return captured[-1]

    monkeypatch.setattr(scorers, "train_mf_factors", capture)
    for raw in (scorers.mf_scorer(triple.train, cfg.mf), scorers.popularity_scorer(triple.train)):
        scored = scorers.mask_seen(raw, triple.train)
        assert scored.values.shape == (ds.num_users, ds.num_items)
        assert np.count_nonzero(~np.isfinite(scored.values)) == len(triple.train)
        rows = rerank.lambda_sweep(scored, part, cfg.rerank, judgments, triple.train)
        assert [lam for lam, _ in rows] == [0.0, 0.1, 1.0]
        assert all(HARNESS_REPORT_KEYS <= report.as_dict().keys() for _, report in rows)
    assert [(u.shape, v.shape) for u, v in captured] == [((ds.num_users, 4), (ds.num_items, 4))]
