"""End-to-end experiment stages: ingest -> split -> score -> re-rank over a
lambda grid -> evaluate -> report, plus the run manifest.

Each stage is deterministic given the config and input bytes, so re-running
a config reproduces every output file byte for byte. Output files are
written atomically (temp file + rename). Each list file is written as soon
as its λ point is evaluated; only the report files wait until every stage
has succeeded, so a failed run cannot leave partial reports behind. A
stage failure is wrapped in StageError naming the stage, except malformed
input (DataError), which is re-raised as a DataError naming the stage.
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
    Interactions,
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


def _check_import(cfg: ExperimentConfig, ds: Dataset, train: Interactions) -> None:
    """Check every line of the import file, then count each user's
    selectable cells: the imported ones, and every other one unless
    scorer.fill = sentinel, net of seen cells under mask_seen. Nothing is
    kept: the import scorer reads the file again."""
    selectable = np.full((ds.num_users, ds.num_items), cfg.fill != MASKED)
    with open(cfg.import_path, "r", encoding="utf-8") as fh:
        for u, i, _ in score_cells(fh, ds):
            selectable[u, i] = True
    if cfg.mask_seen:
        selectable[train.users, train.items] = False
    counts = selectable.sum(axis=1)
    short = np.flatnonzero(counts < cfg.rerank.k) if cfg.rerank.k <= ds.num_items else []
    if len(short):
        raise DataError(f"{len(short)} users have fewer than rerank.k={cfg.rerank.k} selectable imported cells "
                        f"with scorer.fill = sentinel (first user {ds.user_keys[short[0]]!r} has {counts[short[0]]})")


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
    files. For a run, an unusable split or import file fails first (exit 1)."""
    ds = clock.run("ingest", _ingest, cfg)
    artifacts = clock.run("split", _split_stage, cfg, ds)
    if for_run:
        check_split(ds, artifacts.split, cfg.rerank.k, cfg.mask_seen)
        if "import" in cfg.scorers:
            clock.run("score[import]", _check_import, cfg, ds, artifacts.split.train)
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
    every grid point, emitting list files, reports, and the manifest. Each
    scorer's matrix is exported, then masked in place and re-ranked, and
    dropped before its lists are evaluated and written."""
    out_dir = Path(out_dir)
    clock = _StageClock()
    artifacts, files = _split_files(cfg, out_dir, clock, for_run=True)
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
