"""Rendering of evaluation rows as CSV, JSON, and markdown tables.

One row per (model, type, lambda): type "N" is the fairness-unaware
baseline (lambda = 0) and "P" a fairness-aware grid point. The CSV column
set mirrors the standard results-table layout plus the fairness gap and
the lambda that produced the row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .metrics import EvaluationReport
from .rerank import lambda_label

__all__ = ["ReportRow", "render_csv", "render_json", "render_markdown"]

CSV_COLUMNS = tuple("model,type,lambda,NDCG,Pre,Rec,Nov,Div,Cov,Per,Ser,Short,Rel_Short,Long,Rel_Long,F".split(","))
# the report fields behind the metric columns, in column order
_FLOAT_FIELDS = ("ndcg", "precision", "recall", "novelty", "diversity", "coverage", "personalization", "serendipity")
_COUNT_FIELDS = ("short_count", "rel_short", "long_count", "rel_long")


@dataclass(frozen=True)
class ReportRow:
    model: str
    row_type: str  # "N" or "P"
    lam: float
    report: EvaluationReport


def _metric_cells(report: EvaluationReport, float_fmt: str, int_fmt) -> list[str]:
    return [
        *(format(getattr(report, name), float_fmt) for name in _FLOAT_FIELDS),
        *(int_fmt(getattr(report, name)) for name in _COUNT_FIELDS),
        format(report.fairness_gap, float_fmt),
    ]


def render_csv(rows: list[ReportRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = [row.model, row.row_type, lambda_label(row.lam)]
        cells += _metric_cells(row.report, ".6f", str)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow]) -> str:
    payload = [
        {"model": row.model, "type": row.row_type, "lambda": row.lam, **row.report.as_dict()}
        for row in rows
    ]
    return json.dumps({"rows": payload}, indent=2, sort_keys=True) + "\n"


def render_markdown(rows: list[ReportRow]) -> str:
    header = (
        "| Model | Type | λ | NDCG | Pre | Rec | Nov. | Div. | Cov. | Per. | Ser. "
        "| Short. | Rel_Short | Long. | Rel_Long | F |"
    )
    divider = "|" + "---|" * 16
    lines = [header, divider]
    for row in rows:
        cells = [row.model, row.row_type, lambda_label(row.lam)]
        cells += _metric_cells(row.report, ".4f", lambda v: f"{v:,}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
