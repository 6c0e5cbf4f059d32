"""One workload iteration, run by run.py in a process of its own.

    python perfbench/child.py <spec.json>

The harness (run.py) puts its spawn time in PERFBENCH_SPAWN (time.monotonic, the
system-wide CLOCK_MONOTONIC on Linux, so both processes read one clock).
Set-up ends when the workload's config is loaded: for the CLI workloads,
when `fairrerank.cli` enters `run_experiment` or `run_battery`. The timed
part runs from there to the end of the workload. Afterwards, outside the
timed part, the child saves what the output check needs and writes
timing.json, plus spans.json when tracing.

The CLI workloads call `fairrerank.cli.main`, which is what
`PYTHONPATH=src python -m fairrerank.cli ...` runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

clock = time.monotonic


class Marks:
    """Timestamps of the timed window and values captured from the workload."""

    def __init__(self):
        self.setup_end: float | None = None
        self.run_end: float | None = None
        self.cpu_start = 0.0
        self.cpu_end = 0.0
        self.captured: dict[str, object] = {}

    def start(self) -> None:
        self.setup_end = clock()
        self.cpu_start = time.process_time()

    def stop(self) -> None:
        self.run_end = clock()
        self.cpu_end = time.process_time()

    def hook(self, module, name: str, *, start: bool = False, capture: str | None = None) -> bool:
        """Wrap `module.name` so its first call starts the timed window
        and/or its return value is kept; False if the name is missing."""
        func = getattr(module, name, None)
        if func is None:
            return False

        def marked(*args, **kwargs):
            if start and self.setup_end is None:
                self.start()
            result = func(*args, **kwargs)
            if capture:
                self.captured[capture] = result
            return result

        setattr(module, name, marked)
        return True


def _digest_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _split_digests(triple, part) -> dict[str, str]:
    out = {
        name: _digest_arrays(inter.users, inter.items, inter.weights)
        for name, inter in (("train", triple.train), ("valid", triple.valid), ("test", triple.test))
    }
    if part is not None:
        out["partition"] = _digest_arrays(part.short_head, part.popularity_count)
    return out


def _ingest_split(cfg, dataset):
    fmt = dataset.InputFormat.from_name(cfg.delimiter, cfg.header)
    records = dataset.read_interactions(cfg.input_path, fmt)
    ds = dataset.build_dataset(records)
    return ds, dataset.split(ds, cfg.ratios, cfg.split_seed)


def run_sweep(cfg, run_dir: Path, marks: Marks) -> None:
    from fairrerank import dataset, metrics, rerank, scorers

    ds, triple = _ingest_split(cfg, dataset)
    part = dataset.partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
    judgments = metrics.judgments_from_interactions(triple.test)
    results = {}
    for name in cfg.scorers:
        if name == "mf":
            raw = scorers.mf_scorer(triple.train, cfg.mf)
        else:
            raw = scorers.popularity_scorer(triple.train)
        scored = scorers.mask_seen(raw, triple.train)
        del raw
        results[name] = rerank.lambda_sweep(scored, part, cfg.rerank, judgments, triple.train)
        del scored
    marks.stop()

    payload = {
        "users": ds.num_users,
        "k": cfg.rerank.k,
        "digests": _split_digests(triple, part),
        "rows": {name: [[lam, report.as_dict()] for lam, report in rows] for name, rows in results.items()},
    }
    (run_dir / "sweep.json").write_text(json.dumps(payload))


def run_als(cfg, run_dir: Path, marks: Marks) -> None:
    from fairrerank import dataset, scorers

    if not marks.hook(scorers, "train_mf_factors", capture="factors"):
        raise RuntimeError("fairrerank.scorers.train_mf_factors is missing; the ALS objective cannot be checked")
    ds, triple = _ingest_split(cfg, dataset)
    raw = scorers.mf_scorer(triple.train, cfg.mf)
    scored = scorers.mask_seen(raw, triple.train)
    del raw
    marks.stop()

    values = scored.values
    masked = 0
    finite_sum = 0.0
    for row in values:  # row by row, so the check adds no m x n temporary
        keep = np.isfinite(row)
        masked += int(row.size - np.count_nonzero(keep))
        finite_sum += float(row[keep].sum())
    user_factors, item_factors = marks.captured["factors"]
    train = triple.train
    np.savez(
        run_dir / "als.npz",
        user_factors=user_factors,
        item_factors=item_factors,
        users=train.users,
        items=train.items,
        weights=train.weights,
    )
    payload = {
        "digests": _split_digests(triple, None),
        "masked": masked,
        "train_pairs": len(train),
        "finite_sum": finite_sum,
        "shape": list(values.shape),
        "mf": {"reg": cfg.mf.regularization, "alpha": cfg.mf.confidence_alpha},
    }
    (run_dir / "als.json").write_text(json.dumps(payload))


def run_cli(spec: dict, run_dir: Path, marks: Marks) -> int:
    import fairrerank.cli as cli

    work = "run_battery" if spec["kind"] == "cli-verify" else "run_experiment"
    if not marks.hook(cli, work, start=True, capture="result"):
        raise RuntimeError(f"fairrerank.cli.{work} is missing; the timed window cannot be marked")
    rc = cli.main(spec["argv"])
    marks.stop()
    result = marks.captured.get("result")
    if spec["kind"] == "cli-verify" and result is not None:
        outcomes = [
            {"name": o.name, "passed": bool(o.passed), "detail": o.detail, "seconds": o.seconds} for o in result
        ]
        (run_dir / "outcomes.json").write_text(json.dumps(outcomes))
    elif result is not None:
        files = {name: str(path) for name, path in result.files.items()}
        (run_dir / "files.json").write_text(json.dumps({"files": files, "manifest": str(result.manifest_path)}))
    return rc


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    run_dir = Path(spec["run_dir"])
    sys.path.insert(0, spec["src"])
    marks = Marks()
    tracer = None
    missing: list[str] = []
    rc = 0
    try:
        if spec["kind"].startswith("cli-"):
            import fairrerank.cli  # noqa: F401 - loaded before the tracer wraps it
        else:
            import fairrerank.config  # noqa: F401
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer(clock)
            missing = tracer.install()
        if spec["kind"].startswith("cli-"):
            rc = run_cli(spec, run_dir, marks)
        else:
            from fairrerank import config

            cfg = config.load_config(spec["config"])
            marks.start()
            (run_sweep if spec["kind"] == "lib-sweep" else run_als)(cfg, run_dir, marks)
    except Exception:  # noqa: BLE001 - the harness counts the failed iteration
        traceback.print_exc()
        rc = 2
    timing = {
        "spawned": spawned,
        "setup_end": marks.setup_end,
        "run_end": marks.run_end,
        "cpu_run_s": marks.cpu_end - marks.cpu_start,
        "rc": rc,
        "missing": missing,
        "fairrerank_file": getattr(sys.modules.get("fairrerank"), "__file__", None),
    }
    if tracer is not None:
        (run_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    (run_dir / "timing.json").write_text(json.dumps(timing))
    return rc


if __name__ == "__main__":
    sys.exit(main())
