"""End-to-end experiment stages: ingest -> split -> score -> re-rank over a
lambda grid -> evaluate -> report, plus the run manifest.

Each stage is deterministic given the config and input bytes, so re-running
a config reproduces every output file byte for byte. Output files are
written atomically (temp file + rename) and hashed as written, for the
manifest: a run reads none of its outputs back. A scorer's whole λ grid is
evaluated in one `evaluate[scorer]` stage, and then its list files are
written; only the report files wait until every stage has succeeded, so a
failed run cannot leave partial reports behind. Every step that computes or
writes runs as a named stage (a list file is `lists_file[scorer,λ]`, a
report `report_file[fmt]`). Each scorer's blocks of users are made
twice, for the export and for the re-ranker, which masks each block (its
own copy: a held import matrix is never written) and keeps only its
candidates, so a built-in scorer's m x n scores are never held. A stage
failure is wrapped in StageError naming the stage, except malformed input
(DataError), which is re-raised as a DataError naming the stage. A run
checks its split in one gate, after the split and before the first file is
written: input it cannot re-rank or score fails there with a DataError (exit
1 at the CLI), not in a later stage. Each scorer is made there, once, in its
`score[name]` stage: the import file is parsed and ALS trained. Inputs are
hashed from disk (`sha256_file`) before the first write.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_snapshot
from .dataset import (
    DataError,
    Dataset,
    InputFormat,
    PopularityPartition,
    SplitTriple,
    build_dataset,
    partition_popularity,
    read_interactions,
    split,
    write_partition_file,
    write_split_files,
)
from .metrics import eval_context, evaluate
from .rerank import _fairness_shifts, lambda_label, rerank_path, write_lists
from .report import ReportRow, render_csv, render_json, render_markdown
from .scorers import (
    ScoreBlocks, ScoreMatrix, mf_blocks, popularity_blocks, random_blocks, read_scores, seen_masked, write_scores,
)
from .util import atomic_write_text, sha256_file

__all__ = ["StageError", "SplitArtifacts", "RunResult", "run_split", "run_experiment"]


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class SplitArtifacts:
    dataset: Dataset
    split: SplitTriple
    partition: PopularityPartition


@dataclass(frozen=True)
class RunResult:
    rows: list[ReportRow]
    files: dict[str, Path]
    manifest_path: Path


class _StageClock:
    def __init__(self):
        self.seconds: dict[str, float] = {}

    def run(self, stage: str, func, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except DataError as exc:  # input the run cannot use, not a runtime failure
            raise DataError(f"stage '{stage}' failed: {exc}") from exc
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self.seconds[stage] = round(time.perf_counter() - start, 6)
        return result


def _ingest(cfg: ExperimentConfig) -> Dataset:
    fmt = InputFormat.from_name(cfg.delimiter, cfg.header)
    return build_dataset(read_interactions(cfg.input_path, fmt))


def _split_stage(cfg: ExperimentConfig, ds: Dataset) -> SplitArtifacts:
    triple = split(ds, cfg.ratios, cfg.split_seed)
    part = partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
    return SplitArtifacts(ds, triple, part)


def _short_users(ds: Dataset, counts: np.ndarray, k: int, what: str) -> None:
    short = np.flatnonzero(counts < k)
    if len(short):
        raise DataError(f"{len(short)} users have fewer than rerank.k={k} {what} "
                        f"(first user {ds.user_keys[short[0]]!r} has {counts[short[0]]})")


def _preflight(cfg: ExperimentConfig, artifacts: SplitArtifacts, clock: _StageClock) -> dict[str, ScoreBlocks]:
    """Reject, with a DataError before any file is written, a split a run
    cannot re-rank and score: one user (personalization compares pairs of
    lists), no judged user, k above the catalog, users with fewer than k
    unseen items under mask_seen, a bad import file, one of whose selectable
    scores a λ shifts out of the float range, or a failed (non-finite or
    singular) ALS run. Returns every scorer of cfg.scorers, each made in its
    score[name] stage, import first: the only import parse and ALS run."""
    ds, train, k = artifacts.dataset, artifacts.split.train, cfg.rerank.k
    if ds.num_users < 2:
        raise DataError(f"a run needs at least 2 users (personalization compares their lists), got "
                        f"{ds.num_users} (first user {ds.user_keys[0]!r})")
    if len(artifacts.split.test) == 0:
        raise DataError(f"no user has relevance judgments: all {ds.num_users} users have fewer than "
                        f"3 interactions, so the test split is empty (first user {ds.user_keys[0]!r})")
    if k > ds.num_items:
        raise DataError(f"rerank.k={k} exceeds the catalog of {ds.num_items} items")
    if cfg.mask_seen:
        unseen = ds.num_items - np.bincount(train.users, minlength=ds.num_users)
        _short_users(ds, unseen, k, "unseen items to select")

    def check_import() -> ScoreMatrix:
        scores = read_scores(cfg.import_path, ds, fill=cfg.fill)
        selectable = np.isfinite(scores.values)
        if cfg.mask_seen:
            selectable[train.users, train.items] = False
        _short_users(ds, selectable.sum(axis=1), k, "selectable imported cells with scorer.fill = sentinel")
        # fl(r + c) is monotone in r, so a λ takes some selectable cell out
        # of the finite range iff it takes its column's max or min out
        shifts = _fairness_shifts(scores, artifacts.partition, cfg.rerank.lambda_grid, cfg.rerank.per_user_lambda)
        top = np.max(scores.values, axis=0, where=selectable, initial=-np.inf)
        bottom = np.min(scores.values, axis=0, where=selectable, initial=np.inf)
        with np.errstate(over="ignore"):
            above, below = np.isposinf(top + shifts), np.isneginf(bottom + shifts)
        if (above | below).any():
            point, item = np.unravel_index(np.argmax(above | below), above.shape)
            score = float(top[item] if above[point, item] else bottom[item])
            raise DataError(f"rerank.lambda_grid point {cfg.rerank.lambda_grid[point]!r} shifts the imported score "
                            f"{score!r} of item {ds.item_keys[item]!r} out of the float range")
        return scores

    makers = {
        "import": check_import,
        "popularity": lambda: popularity_blocks(artifacts.partition.popularity_count, ds.num_users),
        "mf": lambda: mf_blocks(train, cfg.mf),
        "random": lambda: random_blocks(train.num_users, train.num_items, cfg.random_seed),
    }
    order = sorted(cfg.scorers, key=lambda name: name != "import")  # the import matrix is re-ranked and dropped first
    return {name: clock.run(f"score[{name}]", makers[name]) for name in order}


def _write_manifest(
    path: Path,
    cfg: ExperimentConfig,
    inputs: dict[str, str],
    outputs: dict[str, tuple[Path, str]],
    clock: _StageClock,
) -> tuple[Path, str]:
    manifest = {
        "toolkit_version": __version__,
        "config": config_snapshot(cfg),
        "inputs": inputs,
        "outputs": {name: digest for name, (_, digest) in sorted(outputs.items())},
        "stages_seconds": clock.seconds,
    }
    return atomic_write_text(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n",))


def _ingest_split(cfg: ExperimentConfig, clock: _StageClock) -> SplitArtifacts:
    ds = clock.run("ingest", _ingest, cfg)
    return clock.run("split", _split_stage, cfg, ds)


def _write_split(cfg: ExperimentConfig, artifacts: SplitArtifacts, out_dir: Path,
                 clock: _StageClock) -> dict[str, tuple[Path, str]]:
    ds, fmt = artifacts.dataset, InputFormat.from_name(cfg.delimiter, False)
    files = clock.run("split_files", write_split_files, artifacts.split, ds, out_dir, fmt)
    files["partition"] = clock.run(
        "partition_file", write_partition_file, artifacts.partition, ds, out_dir / "partition.tsv"
    )
    return files


def run_split(cfg: ExperimentConfig) -> tuple[SplitArtifacts, dict[str, Path]]:
    """The `split` command: ingest, split, partition, write artifacts to cfg.out_dir."""
    out_dir, clock = Path(cfg.out_dir), _StageClock()
    artifacts = _ingest_split(cfg, clock)
    inputs = {"input": sha256_file(cfg.input_path)}  # before the split files, which may overwrite it
    files = _write_split(cfg, artifacts, out_dir, clock)
    files["manifest"] = clock.run("manifest", _write_manifest, out_dir / "manifest.json", cfg, inputs, files, clock)
    return artifacts, {name: path for name, (path, _) in files.items()}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """The `run` command: the full pipeline over every configured scorer and
    every grid point, emitting list files, reports, and the manifest to
    cfg.out_dir. Each scorer's scores are exported, then masked and
    re-ranked, and dropped before its lists are evaluated and written. The
    gate's import matrix is used first; the report rows keep the order of
    cfg.scorers."""
    out_dir = Path(cfg.out_dir)
    clock = _StageClock()
    artifacts = _ingest_split(cfg, clock)
    made = _preflight(cfg, artifacts, clock)
    inputs = {"input": sha256_file(cfg.input_path)}  # before the first write, which may overwrite an input
    if "import" in cfg.scorers:
        inputs["import"] = sha256_file(cfg.import_path)
    files = _write_split(cfg, artifacts, out_dir, clock)
    ds, part = artifacts.dataset, artifacts.partition

    triple = artifacts.split
    ctx = clock.run("eval_context", eval_context, triple.test, triple.train, part, cfg.rerank.k)
    lambdas = cfg.rerank.lambda_grid
    rows: list[ReportRow] = []

    for name in list(made):
        scores = made.pop(name)
        if cfg.score_export == "tsv":
            files[f"scores_{name}"] = clock.run(
                f"score_file[{name}]", write_scores, out_dir / f"scores_{name}.tsv", scores, ds
            )
        if cfg.mask_seen:
            scores = seen_masked(scores, artifacts.split.train)
        lists = clock.run(f"rerank[{name}]", rerank_path, scores, part, cfg.rerank, lambdas)
        del scores  # the lists carry their scores; the import matrix is not held while they are evaluated
        reports = clock.run(f"evaluate[{name}]", evaluate, ctx, lists)
        for at, lam in enumerate(lambdas):
            label = lambda_label(lam)
            rows.append(ReportRow(model=name, row_type="N" if lam == 0.0 else "P", lam=lam, report=reports[at]))
            path = out_dir / f"lists_{name}_lambda{label}.tsv"
            files[path.stem] = clock.run(f"lists_file[{name},{label}]", write_lists, path, lists, at, ds, part)

    # all stages succeeded; now write the reports
    rows.sort(key=lambda row: cfg.scorers.index(row.model))  # stable: λ order within a scorer
    renderers = {"csv": render_csv, "json": render_json, "md": render_markdown}
    for fmt_name in cfg.formats:
        files[f"report_{fmt_name}"] = clock.run(
            f"report_file[{fmt_name}]", atomic_write_text, out_dir / f"report.{fmt_name}", (renderers[fmt_name](rows),)
        )

    manifest, _ = clock.run("manifest", _write_manifest, out_dir / "manifest.json", cfg, inputs, files, clock)
    return RunResult(rows=rows, files={name: path for name, (path, _) in files.items()}, manifest_path=manifest)
