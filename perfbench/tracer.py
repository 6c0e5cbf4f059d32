"""Layer tracing for the benchmark: spans recorded around calls into the
fairrerank modules, and the per-layer table computed from them.

The workload process (child.py) creates a Tracer and calls `install()`
after importing fairrerank. Every public module-level function of a layer
module is replaced, in every fairrerank module namespace that holds it, by
a wrapper that records one span: name, start, end, parent span and the
process RSS high-water mark at both ends. Replacing the name where the
caller looks it up (for example `fairrerank.metrics.distinct_user_counts`)
catches calls made from inside the package too. Spans stay in memory and
are written out once, after the timed part.

The harness (run.py) turns spans into metrics with `layer_metrics()`. A
layer's self time is its span time minus the time its child spans cover,
clipped to the timed window, so the self times of all layers add up to the
traced part of `run_s`. The tracer assumes wrapped calls run on one thread,
which holds at `--threads 1`.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import sys
import time
import types

LAYERS = ("config", "dataset", "scorers", "rerank", "metrics", "report", "util", "pipeline", "verify", "cli")

# Functions the per-layer metrics are defined on. A name missing from its
# module (say, renamed by a later change) is reported, not fatal.
EXPECTED = (
    "config.load_config",
    "dataset.read_interactions",
    "dataset.build_dataset",
    "dataset.split",
    "dataset.partition_popularity",
    "dataset.distinct_user_counts",
    "dataset.write_split_files",
    "dataset.write_partition_file",
    "scorers.mf_scorer",
    "scorers.train_mf_factors",
    "scorers.popularity_scorer",
    "scorers.mask_seen",
    "scorers.write_scores",
    "rerank.rerank_exact",
    "rerank.rerank_oracle",
    "rerank.adjusted_scores",
    "rerank.lambda_sweep",
    "rerank.write_lists",
    "metrics.evaluate_all",
    "metrics.judgments_from_interactions",
    "metrics.precision_recall_at_k",
    "metrics.ndcg_at_k",
    "metrics.novelty",
    "metrics.diversity",
    "metrics.coverage",
    "metrics.personalization",
    "metrics.serendipity",
    "metrics.exposure_counts",
    "report.render_csv",
    "report.render_json",
    "report.render_markdown",
    "util.atomic_write_text",
    "util.sha256_file",
    "pipeline.run_experiment",
    "verify.run_battery",
    "cli.main",
)

# Writing and hashing outputs: run-export's dominant part.
WRITERS = (
    "dataset.write_split_files",
    "dataset.write_partition_file",
    "scorers.write_scores",
    "rerank.write_lists",
    "report.render_csv",
    "report.render_json",
    "report.render_markdown",
    "util.atomic_write_text",
    "util.sha256_file",
)

# Span fields, in the order they are stored.
NAME, START, END, PARENT, RSS0, RSS1, INFO = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _first_arg(tracer, args, kwargs, result, rec):
    return str(args[0]) if args else None


def _row_count(tracer, args, kwargs, result, rec):
    return len(result)


def _distinct_input(tracer, args, kwargs, result, rec):
    # keep the argument alive so its id() names one split for the whole run
    tracer.kept.append(args[0])
    return id(args[0])


def _sweep_lists(tracer, args, kwargs, result, rec):
    parent = rec[PARENT]
    if parent >= 0 and tracer.spans[parent][NAME] == "rerank.lambda_sweep":
        tracer.kept.append(result.items)
        return len(tracer.kept) - 1
    return None


# Small facts recorded at a span's end; anything costly is done later from
# what these keep (paths are sized after the run, lists compared after it).
HOOKS = {
    "dataset.read_interactions": _row_count,
    "dataset.distinct_user_counts": _distinct_input,
    "scorers.write_scores": _first_arg,
    "rerank.write_lists": _first_arg,
    "rerank.rerank_exact": _sweep_lists,
    "util.atomic_write_text": _first_arg,
    "util.sha256_file": _first_arg,
}


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[list] = []
        self.kept: list = []
        self._stack: list[int] = []
        self._wrappers: dict[int, types.FunctionType] = {}

    def _wrap(self, func, name):
        spans, stack, clock, hook = self.spans, self._stack, self.clock, HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, _maxrss_kb(), 0, None]
            spans.append(rec)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[RSS1] = _maxrss_kb()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(self, args, kwargs, result, rec)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public layer function in every loaded fairrerank
        module; returns the EXPECTED functions missing from a loaded module."""
        found = set()
        for modname, module in list(sys.modules.items()):
            if modname != "fairrerank" and not modname.startswith("fairrerank."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = (value.__module__ or "").split(".")
                if len(home) != 2 or home[0] != "fairrerank" or home[1] not in LAYERS:
                    continue
                name = f"{home[1]}.{value.__name__}"
                found.add(name)
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    wrapper = self._wrappers[id(value)] = self._wrap(value, name)
                setattr(module, attr, wrapper)
        loaded = {name.split(".", 1)[1] for name in sys.modules if name.startswith("fairrerank.")}
        return [name for name in EXPECTED if name.split(".")[0] in loaded and name not in found]

    def changed_user_shares(self) -> list[float]:
        """Per lambda step inside each lambda_sweep: the share of users whose
        list differs from the one at the previous lambda."""
        by_sweep: dict[int, list] = {}
        for rec in self.spans:
            if rec[NAME] == "rerank.rerank_exact" and rec[INFO] is not None:
                by_sweep.setdefault(rec[PARENT], []).append(self.kept[rec[INFO]])
        shares = []
        for lists in by_sweep.values():
            for before, after in zip(lists, lists[1:]):
                changed = (before != after).any(axis=1)
                shares.append(float(changed.mean()))
        return shares

    def dump(self) -> dict:
        spans = [list(rec) for rec in self.spans]
        for rec in spans:
            if rec[NAME] == "rerank.rerank_exact":
                rec[INFO] = None
        return {"spans": spans, "changed_user_shares": self.changed_user_shares()}


# ---------------------------------------------------------------------------
# analysis, run in the harness process


def _overlap(start, end, window):
    return max(0.0, min(end, window[1]) - max(start, window[0]))


class SpanTable:
    """Derived views of one traced iteration's spans."""

    def __init__(self, spans: list[list], window: tuple[float, float]):
        self.spans = spans
        self.window = window
        self.children: dict[int, list[int]] = {}
        for index, rec in enumerate(spans):
            self.children.setdefault(rec[PARENT], []).append(index)

    def by_name(self, name: str) -> list[list]:
        return [rec for rec in self.spans if rec[NAME] == name]

    def calls(self, name: str) -> int:
        return len(self.by_name(name))

    def inclusive(self, names) -> float:
        """Seconds covered by spans of `names`, counting nested ones once."""
        names = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[NAME] not in names:
                continue
            parent = rec[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                total += rec[END] - rec[START]
        return total

    def inclusive_layers(self, layers) -> float:
        """Seconds covered by spans of any function of `layers`."""
        layers = set(layers)
        return self.inclusive({rec[NAME] for rec in self.spans if rec[NAME].split(".", 1)[0] in layers})

    def layer_self(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds (clipped to the timed window) and self RSS growth in
        MB, per layer."""
        seconds = {layer: 0.0 for layer in LAYERS}
        growth = {layer: 0.0 for layer in LAYERS}
        for index, rec in enumerate(self.spans):
            layer = rec[NAME].split(".", 1)[0]
            kids = [self.spans[k] for k in self.children.get(index, [])]
            own = _overlap(rec[START], rec[END], self.window)
            own -= sum(_overlap(k[START], k[END], self.window) for k in kids)
            rise = (rec[RSS1] - rec[RSS0]) - sum(k[RSS1] - k[RSS0] for k in kids)
            seconds[layer] += own
            growth[layer] += rise / 1024.0
        return seconds, growth


def _quantile_or_zero(values: list[float], q: int) -> float:
    """The q-th percentile when at least ten samples lie beyond it, else 0."""
    if len(values) * (100 - q) / 100 < 10:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _file_mb(paths) -> float:
    total = 0
    for path in paths:
        if path and os.path.exists(path):
            total += os.path.getsize(path)
    return total / 1e6


def layer_metrics(dump: dict, window: tuple[float, float], mf_iterations: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, keyed as in BENCHMARK.json
    (the workload-level ones are added by run.py)."""
    table = SpanTable(dump["spans"], window)
    self_s, growth_mb = table.layer_self()
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.rss_growth_mb"] = growth_mb[layer]

    inc = table.inclusive
    out["config.load_s"] = inc(["config.load_config"])

    out["dataset.ingest_s"] = inc(["dataset.read_interactions", "dataset.build_dataset"])
    out["dataset.ingest_rows"] = float(sum(r[INFO] or 0 for r in table.by_name("dataset.read_interactions")))
    out["dataset.split_s"] = inc(["dataset.split"])
    out["dataset.partition_s"] = inc(["dataset.partition_popularity"])
    out["dataset.write_split_s"] = inc(["dataset.write_split_files", "dataset.write_partition_file"])
    counts = table.by_name("dataset.distinct_user_counts")
    out["dataset.distinct_user_counts_s"] = inc(["dataset.distinct_user_counts"])
    out["dataset.distinct_user_counts.calls"] = float(len(counts))
    distinct = len({r[INFO] for r in counts})
    out["dataset.distinct_user_counts.useful_ratio"] = distinct / len(counts) if counts else 0.0

    train_s = inc(["scorers.train_mf_factors"])
    out["scorers.mf.train_s"] = train_s
    out["scorers.mf.iter_s"] = train_s / mf_iterations if mf_iterations else 0.0
    out["scorers.mf.predict_s"] = max(0.0, inc(["scorers.mf_scorer"]) - train_s)
    out["scorers.popularity_s"] = inc(["scorers.popularity_scorer"])
    out["scorers.mask_seen_s"] = inc(["scorers.mask_seen"])
    score_files = [r[INFO] for r in table.by_name("scorers.write_scores")]
    out["scorers.write_scores_s"] = inc(["scorers.write_scores"])
    out["scorers.write_scores.mb"] = _file_mb(score_files)
    out["scorers.write_scores.lines"] = float(sum(_line_count(p) for p in score_files))

    per_call = [r[END] - r[START] for r in table.by_name("rerank.rerank_exact")]
    out["rerank.rerank_exact_s"] = inc(["rerank.rerank_exact"])
    out["rerank.rerank_exact.calls"] = float(len(per_call))
    out["rerank.rerank_exact.per_call_s"] = statistics.median(per_call) if per_call else 0.0
    out["rerank.rerank_exact.per_call_p90_s"] = _quantile_or_zero(per_call, 90)
    out["rerank.rerank_exact.per_call_p99_s"] = _quantile_or_zero(per_call, 99)
    shares = dump.get("changed_user_shares") or []
    out["rerank.changed_user_share"] = statistics.mean(shares) if shares else 0.0
    out["rerank.adjusted_scores_s"] = inc(["rerank.adjusted_scores"])
    out["rerank.adjusted_scores.calls"] = float(table.calls("rerank.adjusted_scores"))
    out["rerank.write_lists_s"] = inc(["rerank.write_lists"])
    out["rerank.write_lists.mb"] = _file_mb(r[INFO] for r in table.by_name("rerank.write_lists"))
    out["rerank.lambda_sweep_s"] = inc(["rerank.lambda_sweep"])
    out["rerank.oracle_s"] = inc(["rerank.rerank_oracle"])
    out["rerank.oracle.calls"] = float(table.calls("rerank.rerank_oracle"))

    out["metrics.evaluate_all_s"] = inc(["metrics.evaluate_all"])
    out["metrics.evaluate_all.calls"] = float(table.calls("metrics.evaluate_all"))
    for short, func in (
        ("judgments", "judgments_from_interactions"),
        ("precision_recall", "precision_recall_at_k"),
        ("ndcg", "ndcg_at_k"),
        ("novelty", "novelty"),
        ("diversity", "diversity"),
        ("coverage", "coverage"),
        ("personalization", "personalization"),
        ("serendipity", "serendipity"),
        ("exposure_counts", "exposure_counts"),
    ):
        out[f"metrics.{short}_s"] = inc([f"metrics.{func}"])

    out["report.render_s"] = inc(["report.render_csv", "report.render_json", "report.render_markdown"])

    out["util.atomic_write_s"] = inc(["util.atomic_write_text"])
    out["util.atomic_write.mb"] = _file_mb(r[INFO] for r in table.by_name("util.atomic_write_text"))
    out["util.sha256_s"] = inc(["util.sha256_file"])
    out["util.sha256.mb"] = _file_mb(r[INFO] for r in table.by_name("util.sha256_file"))

    out["pipeline.run_experiment_s"] = inc(["pipeline.run_experiment"])
    return out


def _line_count(path) -> int:
    if not path:
        return 0
    try:
        with open(path, "rb") as fh:
            return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    except OSError:
        return 0
