"""End-to-end experiment stages: ingest -> split -> score -> re-rank over a
lambda grid -> evaluate -> report, plus the run manifest.

Each stage is deterministic given the config and input bytes, so re-running
a config reproduces every output file byte for byte. Output files are
written atomically (temp file + rename). Each list file is written as soon
as its λ point is evaluated; only the report files wait until every stage
has succeeded, so a failed run cannot leave partial reports behind. A
stage failure is wrapped in StageError naming the stage, except malformed
input (DataError), which is re-raised as a DataError naming the stage.
A run checks its split in one gate, after the split and before the first
file is written: input it cannot re-rank or score fails there with a
DataError (exit 1 at the CLI), not in a later stage.
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
from .metrics import eval_context, evaluate, judgments_from_interactions
from .rerank import rerank_path, write_lists
from .report import ReportRow, render_csv, render_json, render_markdown
from .scorers import (
    MASKED, ScoreMatrix, mask_seen, mf_scorer, popularity_scorer, random_scorer, read_scores, score_cells, write_scores,
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


def _score_one(cfg: ExperimentConfig, name: str, artifacts: SplitArtifacts) -> ScoreMatrix:
    train = artifacts.split.train
    if name == "popularity":
        return popularity_scorer(train)
    if name == "mf":
        return mf_scorer(train, cfg.mf)
    if name == "random":
        return random_scorer(train.num_users, train.num_items, cfg.random_seed)
    if name == "import":
        return read_scores(cfg.import_path, artifacts.dataset, fill=cfg.fill)
    raise ValueError(f"unknown scorer {name!r}")


def _short_users(ds: Dataset, counts: np.ndarray, k: int, what: str) -> None:
    short = np.flatnonzero(counts < k)
    if len(short):
        raise DataError(f"{len(short)} users have fewer than rerank.k={k} {what} "
                        f"(first user {ds.user_keys[short[0]]!r} has {counts[short[0]]})")


def _preflight(cfg: ExperimentConfig, artifacts: SplitArtifacts, clock: _StageClock) -> None:
    """Reject, with a DataError before any file is written, a split a run
    cannot re-rank and score: one user (personalization compares pairs of
    lists), no judged user, k above the catalog, users with fewer than k
    unseen items under mask_seen, or a bad import file. The import checks run
    in the score[import] stage and keep nothing: the scorer reads it again."""
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

    def check_import() -> None:
        selectable = np.full((ds.num_users, ds.num_items), cfg.fill != MASKED)
        with open(cfg.import_path, "r", encoding="utf-8") as fh:
            for u, i, _ in score_cells(fh, ds):
                selectable[u, i] = True
        if cfg.mask_seen:
            selectable[train.users, train.items] = False
        _short_users(ds, selectable.sum(axis=1), k, "selectable imported cells with scorer.fill = sentinel")

    if "import" in cfg.scorers:
        clock.run("score[import]", check_import)


def _write_manifest(
    path: Path,
    cfg: ExperimentConfig,
    inputs: dict[str, Path],
    outputs: dict[str, Path],
    clock: _StageClock,
) -> Path:
    manifest = {
        "toolkit_version": __version__,
        "config": config_snapshot(cfg),
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "outputs": {name: sha256_file(p) for name, p in sorted(outputs.items())},
        "stages_seconds": clock.seconds,
    }
    return atomic_write_text(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n",))


def _ingest_split(cfg: ExperimentConfig, clock: _StageClock) -> SplitArtifacts:
    ds = clock.run("ingest", _ingest, cfg)
    return clock.run("split", _split_stage, cfg, ds)


def _write_split(cfg: ExperimentConfig, artifacts: SplitArtifacts, out_dir: Path, clock: _StageClock) -> dict[str, Path]:
    ds, fmt = artifacts.dataset, InputFormat.from_name(cfg.delimiter, False)
    files = clock.run("split_files", write_split_files, artifacts.split, ds, out_dir, fmt)
    files["partition"] = clock.run(
        "partition_file", write_partition_file, artifacts.partition, ds, out_dir / "partition.tsv"
    )
    return files


def run_split(cfg: ExperimentConfig, out_dir: Path | str) -> tuple[SplitArtifacts, dict[str, Path]]:
    """The `split` command: ingest, split, partition, write artifacts."""
    clock = _StageClock()
    artifacts = _ingest_split(cfg, clock)
    files = _write_split(cfg, artifacts, Path(out_dir), clock)
    files["manifest"] = _write_manifest(Path(out_dir) / "manifest.json", cfg, {"input": Path(cfg.input_path)}, files, clock)
    return artifacts, files


def run_experiment(cfg: ExperimentConfig, out_dir: Path | str) -> RunResult:
    """The `run` command: the full pipeline over every configured scorer and
    every grid point, emitting list files, reports, and the manifest. Each
    scorer's matrix is exported, then masked in place and re-ranked, and
    dropped before its lists are evaluated and written."""
    out_dir = Path(out_dir)
    clock = _StageClock()
    artifacts = _ingest_split(cfg, clock)
    _preflight(cfg, artifacts, clock)
    files = _write_split(cfg, artifacts, out_dir, clock)
    ds = artifacts.dataset

    judgments = judgments_from_interactions(artifacts.split.test)
    ctx = clock.run("eval_context", eval_context, judgments, artifacts.split.train, artifacts.partition, cfg.rerank.k)
    lambdas = cfg.rerank.lambda_points()
    rows: list[ReportRow] = []

    for name in cfg.scorers:
        scores = clock.run(f"score[{name}]", _score_one, cfg, name, artifacts)
        files[f"scores_{name}"] = clock.run(
            f"score_file[{name}]", write_scores, out_dir / f"scores_{name}.tsv", scores, ds
        )
        if cfg.mask_seen:  # after the export, which keeps the seen cells
            mask_seen(scores, artifacts.split.train)
        point_lists = clock.run(f"rerank[{name}]", rerank_path, scores, artifacts.partition, cfg.rerank, lambdas)
        del scores  # the lists carry their scores; two m x n matrices are never alive at once
        for lam, lists in zip(lambdas, point_lists):
            report = clock.run(f"evaluate[{name},{lam:g}]", evaluate, ctx, lists)
            rows.append(ReportRow(model=name, row_type="N" if lam == 0.0 else "P", lam=lam, report=report))
            path = out_dir / f"lists_{name}_lambda{lam:g}.tsv"
            files[path.stem] = write_lists(path, lists, ds, artifacts.partition)

    # all stages succeeded; now write the reports
    renderers = {"csv": render_csv, "json": render_json, "md": render_markdown}
    for fmt_name in cfg.formats:
        files[f"report_{fmt_name}"] = atomic_write_text(
            out_dir / f"report.{fmt_name}", (renderers[fmt_name](rows),)
        )

    inputs = {"input": Path(cfg.input_path)}
    if "import" in cfg.scorers:
        inputs["import"] = Path(cfg.import_path)
    manifest = _write_manifest(out_dir / "manifest.json", cfg, inputs, files, clock)
    return RunResult(rows=rows, files=files, manifest_path=manifest)
