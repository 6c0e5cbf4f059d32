"""End-to-end experiment stages: ingest -> split -> score -> re-rank over a
lambda grid -> evaluate -> report, plus the run manifest.

Each stage is deterministic given the config and input bytes, so re-running
a config reproduces every output file byte for byte. Output files are
written atomically (temp file + rename) and the report files are written
only after every stage has succeeded, so a failed run cannot leave partial
reports behind. Any stage failure is wrapped in StageError naming the
stage.
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
    Dataset,
    InputFormat,
    PopularityPartition,
    SplitTriple,
    build_dataset,
    check_split,
    partition_popularity,
    read_interactions,
    split,
    write_partition_file,
    write_split_files,
)
from .metrics import eval_context, evaluate, judgments_from_interactions
from .rerank import RecommendationLists, rerank_path, write_lists
from .report import ReportRow, render_csv, render_json, render_markdown
from .scorers import MASKED, ScoreMatrix, mf_scorer, popularity_scorer, random_scorer, read_scores, write_scores
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
        except Exception as exc:
            raise StageError(stage, exc) from exc
        self.seconds[stage] = round(time.perf_counter() - start, 6)
        return result


def _ingest(cfg: ExperimentConfig) -> Dataset:
    fmt = InputFormat.from_name(cfg.delimiter, cfg.header)
    records = read_interactions(cfg.input_path, fmt)
    return build_dataset(records)


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


def _split_files(
    cfg: ExperimentConfig, out_dir: Path, clock: _StageClock, for_run: bool
) -> tuple[SplitArtifacts, dict[str, Path]]:
    """Ingest, split and partition, then write the split and partition
    files. For a run, a split it cannot use fails first (exit 1)."""
    ds = clock.run("ingest", _ingest, cfg)
    artifacts = clock.run("split", _split_stage, cfg, ds)
    if for_run:
        check_split(ds, artifacts.split, cfg.rerank.k, cfg.mask_seen)
    fmt = InputFormat.from_name(cfg.delimiter, False)
    files = clock.run("split_files", write_split_files, artifacts.split, ds, out_dir, fmt)
    files["partition"] = clock.run(
        "partition_file", write_partition_file, artifacts.partition, ds, out_dir / "partition.tsv"
    )
    return artifacts, files


def run_split(cfg: ExperimentConfig, out_dir: Path | str) -> tuple[SplitArtifacts, dict[str, Path]]:
    """The `split` command: ingest, split, partition, write artifacts."""
    clock = _StageClock()
    artifacts, files = _split_files(cfg, Path(out_dir), clock, for_run=False)
    files["manifest"] = _write_manifest(Path(out_dir) / "manifest.json", cfg, {"input": Path(cfg.input_path)}, files, clock)
    return artifacts, files


def run_experiment(cfg: ExperimentConfig, out_dir: Path | str) -> RunResult:
    """The `run` command: the full pipeline over every configured scorer and
    every grid point, emitting list files, reports, and the manifest."""
    out_dir = Path(out_dir)
    clock = _StageClock()
    artifacts, files = _split_files(cfg, out_dir, clock, for_run=True)
    ds = artifacts.dataset

    judgments = judgments_from_interactions(artifacts.split.test)
    ctx = clock.run("eval_context", eval_context, judgments, artifacts.split.train, artifacts.partition, cfg.rerank.k)
    lambdas = cfg.rerank.lambda_points()
    rows: list[ReportRow] = []
    pending_lists: list[tuple[Path, RecommendationLists, np.ndarray, float]] = []

    for name in cfg.scorers:
        scores = clock.run(f"score[{name}]", _score_one, cfg, name, artifacts)
        files[f"scores_{name}"] = clock.run(
            f"score_file[{name}]", write_scores, out_dir / f"scores_{name}.tsv", scores, ds
        )
        if cfg.mask_seen:  # as mask_seen does, but in place: the export is written
            scores.values[artifacts.split.train.users, artifacts.split.train.items] = MASKED
        point_lists = clock.run(f"rerank[{name}]", rerank_path, scores, artifacts.partition, cfg.rerank, lambdas)
        # keep only the m x K listed original scores, not the m x n matrix
        listed = [np.take_along_axis(scores.values, lists.items, axis=1) for lists in point_lists]
        del scores  # so two m x n matrices are never alive at once
        for lam, lists, top in zip(lambdas, point_lists, listed):
            report = clock.run(f"evaluate[{name},{lam:g}]", evaluate, ctx, lists)
            rows.append(ReportRow(model=name, row_type="N" if lam == 0.0 else "P", lam=lam, report=report))
            pending_lists.append((out_dir / f"lists_{name}_lambda{lam:g}.tsv", lists, top, lam))

    # all stages succeeded; now write the list files and reports
    for path, lists, listed, lam in pending_lists:
        files[path.stem] = write_lists(path, lists, ds, artifacts.partition, listed, lam, cfg.rerank.per_user_lambda)
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
