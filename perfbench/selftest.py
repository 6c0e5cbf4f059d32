"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout. It confirms two things and exits 1 if
either fails:

1. The output check catches a corrupted output. For each workload it runs
   one iteration, checks the untouched outputs against their own
   fingerprint (which must pass), then corrupts one output and checks
   again (which must fail): one byte of a list file and one byte of
   report.csv for run-export, a popularity report value for sweep, one
   ALS factor for als, and one battery outcome for verify.
2. One command, `run.py --workload all`, prints every end-to-end metric of
   BENCHMARK.json by name and unit for each workload, and ends with the
   result JSON.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    while not chr(data[middle]).isdigit():
        middle += 1
    data[middle] = ord("1") if data[middle] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def corrupt_sweep(iter_dir: Path) -> None:
    path = iter_dir / "sweep.json"
    data = json.loads(path.read_text())
    data["rows"]["popularity"][3][1]["ndcg"] *= 1 + 1e-6  # visible at the 10 digits compared
    path.write_text(json.dumps(data))


def corrupt_als(iter_dir: Path) -> None:
    path = iter_dir / "als.npz"
    with np.load(path) as arrays:
        contents = {name: arrays[name].copy() for name in arrays.files}
    contents["item_factors"][0, 0] += 0.5
    np.savez(path, **contents)


def corrupt_verify(iter_dir: Path) -> None:
    path = iter_dir / "outcomes.json"
    outcomes = json.loads(path.read_text())
    outcomes[0]["passed"] = False
    path.write_text(json.dumps(outcomes))


def list_file(iter_dir: Path) -> Path:
    return sorted((iter_dir / "out").glob("lists_mf_*.tsv"))[0]


CORRUPTIONS = {
    "run-export": [
        ("one byte of a list file", lambda d: flip_byte(list_file(d))),
        ("one byte of report.csv", lambda d: flip_byte(d / "out" / "report.csv")),
    ],
    "sweep": [("a popularity report value", corrupt_sweep)],
    "als": [("one ALS item factor", corrupt_als)],
    "verify": [("one battery outcome", corrupt_verify)],
}


def check_corruptions(root: Path) -> list[str]:
    failures = []
    for name, cases in CORRUPTIONS.items():
        workload = WORKLOADS[name]
        input_path = run.prepare_input(root, workload, SEED)
        for label, corrupt in cases:
            iter_dir = root / ".bench_runs" / "selftest" / name
            sample = run.run_iteration(root, workload, SEED, input_path, iter_dir, False)
            problems, fingerprint = checks.check_iteration(workload, iter_dir, None)
            problems = sample["problems"] + problems
            if problems:
                failures.append(f"{name}: untouched outputs fail the check: {problems}")
                continue
            if checks.check_iteration(workload, iter_dir, fingerprint)[0]:
                failures.append(f"{name}: outputs do not match their own fingerprint")
                continue
            corrupt(iter_dir)
            problems, _ = checks.check_iteration(workload, iter_dir, fingerprint)
            status = "flagged" if problems else "NOT flagged"
            print(f"{name}: corrupting {label}: {status}" + (f" ({problems[0]})" if problems else ""))
            if not problems:
                failures.append(f"{name}: corrupting {label} was not flagged")
            shutil.rmtree(iter_dir)
    return failures


def check_metric_listing(root: Path) -> list[str]:
    end_to_end, _ = run.metric_specs(root)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(SEED), "--seconds", "1"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.splitlines()
    failures = []
    if proc.returncode != 0 or not lines:
        return [f"run.py --workload all exited {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        failures.append("run.py --workload all reported correct=false")
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines[:-1]:
        if line.startswith("# workload "):
            current = line.split()[2]
            sections[current] = []
        elif current:
            sections[current].append(line)
    for name in WORKLOADS:
        for spec in end_to_end:
            printed = any(
                line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
                for line in sections.get(name, [])
            )
            if not printed:
                failures.append(f"{name}: {spec['name']} ({spec['unit']}) not printed")
            key = f"{name}.{spec['name']}"
            if result["metrics"].get(key, {}).get("unit") != spec["unit"]:
                failures.append(f"{key} missing from the result JSON")
    print(f"metric listing: {len(WORKLOADS)} workloads x {len(end_to_end)} end-to-end metrics checked")
    return failures


def main() -> int:
    root = run.checkout_root()
    failures = check_corruptions(root) + check_metric_listing(root)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
