"""Output checks for one workload iteration, run in the harness process so
that no check work lands in the measured process's time or RSS peak.

Each check returns a list of problems (empty when the iteration is
correct) and a fingerprint of the outputs. A fingerprint has two parts:

- "exact": short SHA-256 digests that must match the reference byte for
  byte: the input, the split and partition, and everything derived from
  the popularity scorer (its scores, lists and report rows);
- "approx": numbers derived from the mf scorer, which must match the
  reference within a tolerance, so that an ALS change that moves only the
  last bits of the factors is not a failure.

References are fingerprints recorded per workload and seed at the commit
that defined the benchmark (reference.json, written by
`run.py --record-reference`). Seeds without a reference get every other
check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# mf-derived report values: |got - want| <= REPORT_TOL * max(1, |want|).
# One list slot that changes on a near-tie moves Short/Long counts by 1 and
# the accuracy metrics by about 1 / (users * K); this allows a few of those.
REPORT_TOL = 1e-3
# ALS objective and score sum: relative tolerance.
ALS_RTOL = 1e-6

UNIT_FIELDS = ("ndcg", "precision", "recall", "diversity", "coverage", "personalization", "serendipity")
CSV_FIELDS = {
    "NDCG": "ndcg",
    "Pre": "precision",
    "Rec": "recall",
    "Nov": "novelty",
    "Div": "diversity",
    "Cov": "coverage",
    "Per": "personalization",
    "Ser": "serendipity",
    "Short": "short_count",
    "Rel_Short": "rel_short",
    "Long": "long_count",
    "Rel_Long": "rel_long",
    "F": "fairness_gap",
}


def sha(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _short(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def report_problems(row: dict, users: int, k: int, label: str) -> list[str]:
    """Every report metric inside its documented range."""
    problems = []
    for name in UNIT_FIELDS:
        if not 0.0 <= row[name] <= 1.0 + 1e-9:
            problems.append(f"{label}: {name}={row[name]} outside [0, 1]")
    if not (math.isfinite(row["novelty"]) and row["novelty"] >= 0):
        problems.append(f"{label}: novelty={row['novelty']} not a finite value >= 0")
    if row["short_count"] + row["long_count"] != users * k:
        problems.append(f"{label}: Short + Long = {row['short_count'] + row['long_count']}, expected {users * k}")
    if row["rel_short"] > row["short_count"] or row["rel_long"] > row["long_count"]:
        problems.append(f"{label}: relevant exposure exceeds its total")
    if not -k - 1e-9 <= row["fairness_gap"] <= k + 1e-9:
        problems.append(f"{label}: F={row['fairness_gap']} outside [-{k}, {k}]")
    return problems


def monotone_problems(rows: list[tuple[float, dict]], label: str) -> list[str]:
    """F must not increase along the ascending lambda grid."""
    problems = []
    for (lam_a, a), (lam_b, b) in zip(rows, rows[1:]):
        if lam_b <= lam_a:
            problems.append(f"{label}: lambda grid not ascending at {lam_a} -> {lam_b}")
        elif b["fairness_gap"] > a["fairness_gap"] + 1e-9:
            problems.append(f"{label}: F rose from {a['fairness_gap']} to {b['fairness_gap']} at lambda {lam_b:g}")
    return problems


def _approx_rows(prefix: str, rows: list[tuple[float, dict]]) -> dict[str, float]:
    return {f"{prefix}/{lam:g}/{name}": float(row[name]) for lam, row in rows for name in CSV_FIELDS.values()}


# ---------------------------------------------------------------------------
# run-export


def check_run_export(workload, iter_dir: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    exact: dict[str, str] = {}
    approx: dict[str, float] = {}
    info_path = iter_dir / "files.json"
    if not info_path.exists():
        return ["run_experiment returned no result (files.json missing)"], {}
    info = json.loads(info_path.read_text())
    files = {name: Path(p) for name, p in info["files"].items()}
    manifest = json.loads(Path(info["manifest"]).read_text())

    recorded = manifest.get("outputs", {})
    if set(recorded) != set(files):
        problems.append(f"manifest outputs {sorted(recorded)} differ from written files {sorted(files)}")
    for name, path in sorted(files.items()):
        if not path.exists():
            problems.append(f"output {name} missing: {path}")
        elif recorded.get(name) != sha(path):
            problems.append(f"output {name}: manifest hash does not match the file on disk")
    if problems:
        return problems, {}

    exact["input"] = manifest["inputs"]["input"][:16]
    for name in ("train", "valid", "test", "partition"):
        exact[name] = recorded[name][:16]
    for name in sorted(files):
        if name.startswith("scores_popularity") or name.startswith("lists_popularity"):
            exact[name] = recorded[name][:16]

    users, k = workload.shape[0], int(workload.config["rerank.k"])
    by_model: dict[str, list[tuple[float, dict]]] = {}
    popularity_lines = []
    with open(files["report_csv"], newline="", encoding="utf-8") as fh:
        text = fh.read()
    reader = csv.DictReader(text.splitlines())
    for line, raw in zip(text.splitlines()[1:], reader):
        row = {field: float(raw[col]) for col, field in CSV_FIELDS.items()}
        by_model.setdefault(raw["model"], []).append((float(raw["lambda"]), row))
        if raw["model"] == "popularity":
            popularity_lines.append(line)
    expected_models = workload.config["scorer.names"].split(",")
    grid = [float(x) for x in workload.config["rerank.lambda_grid"].split(",")]
    for model in expected_models:
        rows = by_model.get(model, [])
        if [lam for lam, _ in rows] != grid:
            problems.append(f"report.csv: {model} rows have lambdas {[lam for lam, _ in rows]}, expected {grid}")
            continue
        for lam, row in rows:
            problems += report_problems(row, users, k, f"report.csv {model} lambda={lam:g}")
        problems += monotone_problems(rows, f"report.csv {model}")
    exact["report_popularity_rows"] = _short("\n".join(popularity_lines))
    approx.update(_approx_rows("mf", by_model.get("mf", [])))

    for name, path in files.items():
        if name.startswith("lists_"):
            with open(path, "rb") as fh:
                lines = fh.read().splitlines()
            if len(lines) != users * k or any(line.count(b"\t") != 5 for line in lines):
                problems.append(f"{path.name}: expected {users * k} lines of 6 tab-separated fields")
    return problems, {"exact": exact, "approx": approx}


# ---------------------------------------------------------------------------
# sweep


def check_sweep(workload, iter_dir: Path) -> tuple[list[str], dict]:
    path = iter_dir / "sweep.json"
    if not path.exists():
        return ["sweep.json missing"], {}
    data = json.loads(path.read_text())
    problems: list[str] = []
    users, k = data["users"], data["k"]
    if users != workload.shape[0]:
        problems.append(f"{users} users, expected {workload.shape[0]}")
    grid = [float(x) for x in workload.config["rerank.lambda_grid"].split(",")]
    exact = dict(data["digests"])
    approx: dict[str, float] = {}
    for model in workload.config["scorer.names"].split(","):
        rows = [(float(lam), row) for lam, row in data["rows"].get(model, [])]
        if [lam for lam, _ in rows] != grid:
            problems.append(f"{model}: lambdas {[lam for lam, _ in rows]}, expected {grid}")
            continue
        for lam, row in rows:
            problems += report_problems(row, users, k, f"{model} lambda={lam:g}")
            if row["evaluated_users"] != users or row["k"] != k:
                problems.append(f"{model} lambda={lam:g}: evaluated {row['evaluated_users']} users at k={row['k']}")
        problems += monotone_problems(rows, model)
        if model == "popularity":
            # 10 significant digits: immune to BLAS kernels that differ in the last bit
            text = [[format(lam, "g")] + [format(row[f], ".10g") for f in sorted(row)] for lam, row in rows]
            exact["popularity_rows"] = _short(json.dumps(text))
        else:
            approx.update(_approx_rows(model, rows))
    return problems, {"exact": exact, "approx": approx}


# ---------------------------------------------------------------------------
# als


def als_objective(arrays, reg: float, alpha: float) -> float:
    """Confidence-weighted implicit-feedback loss plus L2 penalty, without an
    m x n matrix: the sum of squared predictions over all cells is
    sum((U'U) * (V'V)), then observed cells are corrected to their weighted
    residual."""
    u, v = arrays["user_factors"], arrays["item_factors"]
    pred_obs = np.einsum("ij,ij->i", u[arrays["users"]], v[arrays["items"]])
    conf = 1.0 + alpha * arrays["weights"]
    loss = float(np.sum((u.T @ u) * (v.T @ v)))
    loss += float(np.sum(conf * (1.0 - pred_obs) ** 2 - pred_obs**2))
    return loss + reg * (float(np.sum(u * u)) + float(np.sum(v * v)))


def check_als(workload, iter_dir: Path) -> tuple[list[str], dict]:
    meta_path, arrays_path = iter_dir / "als.json", iter_dir / "als.npz"
    if not (meta_path.exists() and arrays_path.exists()):
        return ["als.json / als.npz missing"], {}
    meta = json.loads(meta_path.read_text())
    problems = []
    users, items, _ = workload.shape
    if meta["shape"] != [users, items]:
        problems.append(f"score matrix is {meta['shape']}, expected {[users, items]}")
    if meta["masked"] != meta["train_pairs"]:
        problems.append(f"{meta['masked']} masked cells for {meta['train_pairs']} train pairs")
    with np.load(arrays_path) as arrays:
        objective = als_objective(arrays, meta["mf"]["reg"], meta["mf"]["alpha"])
    if not (math.isfinite(objective) and math.isfinite(meta["finite_sum"])):
        problems.append(f"non-finite ALS objective {objective} or score sum {meta['finite_sum']}")
    exact = dict(meta["digests"])
    exact["masked"] = str(meta["masked"])
    return problems, {"exact": exact, "approx": {"objective": objective, "finite_sum": meta["finite_sum"]}}


# ---------------------------------------------------------------------------
# verify


def check_verify(workload, iter_dir: Path) -> tuple[list[str], dict]:
    path = iter_dir / "outcomes.json"
    if not path.exists():
        return ["run_battery returned no outcomes"], {}
    outcomes = json.loads(path.read_text())
    stdout = (iter_dir / "stdout.txt").read_text()
    problems = [f"{o['name']} FAILED: {o['detail']}" for o in outcomes if not o["passed"]]
    if len(outcomes) < 4:
        problems.append(f"only {len(outcomes)} battery checks ran")
    if "[FAIL]" in stdout or stdout.count("[PASS]") != len(outcomes):
        problems.append("CLI output does not report PASS for every check")
    return problems, {}


CHECKS = {"cli-run": check_run_export, "lib-sweep": check_sweep, "lib-als": check_als, "cli-verify": check_verify}


def compare(fingerprint: dict, reference: dict) -> list[str]:
    """Problems where a fingerprint departs from its recorded reference."""
    problems = []
    got_exact = fingerprint.get("exact", {})
    for key, want in reference.get("exact", {}).items():
        if got_exact.get(key) != want:
            problems.append(f"{key}: digest {got_exact.get(key)} differs from reference {want}")
    got_approx = fingerprint.get("approx", {})
    for key, want in reference.get("approx", {}).items():
        got = got_approx.get(key)
        if key in ("objective", "finite_sum"):
            ok = got is not None and abs(got - want) <= ALS_RTOL * max(1.0, abs(want))
        else:
            ok = got is not None and abs(got - want) <= REPORT_TOL * max(1.0, abs(want))
        if not ok:
            problems.append(f"{key}: {got} differs from reference {want}")
    return problems


def check_iteration(workload, iter_dir: Path, reference: dict | None) -> tuple[list[str], dict]:
    problems, fingerprint = CHECKS[workload.kind](workload, iter_dir)
    if reference is not None and not problems:
        problems += compare(fingerprint, reference)
    return problems, fingerprint
