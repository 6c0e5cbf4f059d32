"""fairrerank benchmark harness.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; fairrerank is imported from ./src (the
console script is not needed). The seeded Zipf input is generated first,
outside any timed part, and cached under .bench_cache/ by shape and seed.
The workload then runs as a closed loop with one client: one iteration at
a time, each in a fresh process (child.py), back to back until --seconds
have passed. Every iteration's outputs are checked (checks.py) before the
next one starts.

With --trace 0 the end-to-end metrics are, over a run's iterations: run_s
(timed part) and cpu_s (CPU seconds of the timed part, all threads) as
means without the fastest and the slowest iteration, and the medians of
setup_s (spawn until the config is loaded) and peak_rss_mb (the
process's high-water RSS from os.wait4). The three times are scaled to
the reference host speed by the calibration kernel timed around each
iteration (hostspeed.py). With --trace 1 the iterations alternate
untraced and traced, and the per-layer metrics (tracer.py) are medians
over the traced ones, with the unscaled times of the untraced ones and
the tracing overhead as the difference of the two unscaled run_s medians.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric by name, median,
quartiles, sample count and unit, and the environment. A fuller record is
written to .bench_runs/<workload>-seed<n>-trace<t>.json.

`--record-reference A-B` records output fingerprints for seeds A..B into
perfbench/reference.json; run it only at a commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_text, input_name  # noqa: E402

ITERATION_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no new iteration starts after this; runs must end within 180 s
MIN_ITERATIONS = 3
REFERENCE_PATH = HERE / "reference.json"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up: checkout, inputs, environment


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "fairrerank" / "__init__.py").is_file():
        raise BenchError(f"no fairrerank sources under {root / 'src'}; run from the root of a checkout")
    if not (root / "BENCHMARK.json").is_file():
        raise BenchError(f"no BENCHMARK.json in {root}")
    return root


def prepare_input(root: Path, workload, seed: int) -> Path | None:
    if workload.shape is None:
        return None
    path = root / ".bench_cache" / "inputs" / input_name(workload.shape, seed)
    if not path.exists():
        sys.path.insert(0, str(root / "src"))
        from fairrerank import synthetic

        users, items, per_user = workload.shape
        path.parent.mkdir(parents=True, exist_ok=True)
        synthetic.write_zipf_dataset(path, users, items, exponent=1.0, per_user=per_user, seed=seed)
    return path


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    """OpenBLAS's own thread count, read through ctypes from the library
    numpy loaded; falls back to the environment."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return str(func())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one iteration


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with os.wait4 to get its own rusage; kill it on timeout."""
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def run_iteration(root: Path, workload, seed: int, input_path: Path | None, iter_dir: Path, trace: bool) -> dict:
    """Spawn one workload process and collect its timings and rusage."""
    if iter_dir.exists():
        shutil.rmtree(iter_dir)
    iter_dir.mkdir(parents=True)
    spec = {"kind": workload.kind, "src": str(root / "src"), "run_dir": str(iter_dir), "trace": trace}
    if workload.kind == "cli-verify":
        spec["argv"] = ["verify", "--instances", str(workload.verify_instances), "--battery-seed", str(seed)]
    else:
        config_path = iter_dir / "config.txt"
        config_path.write_text(config_text(workload, str(input_path), str(iter_dir / "out")))
        spec["config"] = str(config_path)
        spec["argv"] = ["run", "--config", str(config_path), "--threads", "1", "--out", str(iter_dir / "out")]
    spec_path = iter_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    kernel_before = hostspeed.kernel_seconds()
    with open(iter_dir / "stdout.txt", "wb") as out, open(iter_dir / "stderr.txt", "wb") as err:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=root, env=env, stdout=out, stderr=err
        )
        rc, usage, timed_out = _wait(proc, ITERATION_TIMEOUT_S)
    kernel_after = hostspeed.kernel_seconds()

    sample = {"rc": rc, "trace": trace, "iter_dir": iter_dir, "problems": [], "kernel_s": (kernel_before + kernel_after) / 2}
    timing_path = iter_dir / "timing.json"
    if timed_out:
        sample["problems"].append(f"timed out after {ITERATION_TIMEOUT_S:.0f} s")
    if not timing_path.exists():
        sample["problems"].append(f"exit code {rc} and no timing.json")
        return sample
    timing = json.loads(timing_path.read_text())
    sample["timing"] = timing
    if rc != 0:
        sample["problems"].append(f"exit code {rc}")
    if timing["setup_end"] is None or timing["run_end"] is None:
        sample["problems"].append("the timed window was not marked")
        return sample
    expected_src = str(root / "src")
    if not str(timing.get("fairrerank_file") or "").startswith(expected_src):
        sample["problems"].append(f"fairrerank imported from {timing.get('fairrerank_file')}, not {expected_src}")
    sample["setup_s"] = timing["setup_end"] - timing["spawned"]
    sample["run_s"] = timing["run_end"] - timing["setup_end"]
    sample["cpu_s"] = timing["cpu_run_s"]
    sample["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    sample["output_mb"] = _tree_mb(iter_dir / "out")
    return sample


def _tree_mb(path: Path) -> float:
    if not path.exists():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def check_sample(workload, sample: dict, reference: dict | None) -> dict:
    """Run the output check; fills sample['problems'] and ['fingerprint']."""
    if not sample["problems"]:
        problems, fingerprint = checks.check_iteration(workload, sample["iter_dir"], reference)
        sample["problems"] += problems
        sample["fingerprint"] = fingerprint
    if sample["problems"]:
        stderr_tail = (sample["iter_dir"] / "stderr.txt").read_text(errors="replace")[-2000:]
        sample["stderr_tail"] = stderr_tail
    return sample


def trace_layers(workload, sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    iter_dir = sample["iter_dir"]
    timing = sample["timing"]
    dump = json.loads((iter_dir / "spans.json").read_text())
    window = (timing["setup_end"], timing["run_end"])
    layers = tracer.layer_metrics(dump, window, workload.mf_iterations)
    run_s = sample["run_s"]
    layers["trace.run_s"] = run_s
    layers["trace.unattributed_s"] = run_s - sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    layers["missing_functions"] = float(len(timing.get("missing", [])))

    stages = 0.0
    files_json = iter_dir / "files.json"
    if files_json.exists():
        manifest = json.loads(Path(json.loads(files_json.read_text())["manifest"]).read_text())
        stages = sum(manifest.get("stages_seconds", {}).values())
    run_experiment_s = layers.pop("pipeline.run_experiment_s")
    layers["pipeline.unattributed_s"] = max(0.0, run_experiment_s - stages) if run_experiment_s else 0.0

    outcomes = {}
    if (iter_dir / "outcomes.json").exists():
        outcomes = {o["name"]: o for o in json.loads((iter_dir / "outcomes.json").read_text())}
    for name in ("oracle_equivalence", "monotone_exposure", "metric_bounds"):
        layers[f"verify.{name}_s"] = float(outcomes[name]["seconds"]) if name in outcomes else 0.0
    match = re.search(r"\((\d+) comparisons\)", outcomes.get("oracle_equivalence", {}).get("detail", ""))
    layers["verify.comparisons"] = float(match.group(1)) if match else 0.0

    if workload.kind == "cli-run":
        dominant = tracer.SpanTable(dump["spans"], window).inclusive(tracer.WRITERS)
    elif workload.kind == "lib-sweep":
        dominant = tracer.SpanTable(dump["spans"], window).inclusive_layers(["rerank", "metrics"])
    elif workload.kind == "lib-als":
        dominant = layers["scorers.mf.train_s"]
    else:
        dominant = layers["verify.oracle_equivalence_s"]
    layers["dominant_share"] = dominant / run_s
    return layers


# ---------------------------------------------------------------------------
# a run: the closed loop over iterations


def _summary(values: list[float], value: float | None = None) -> dict:
    """Median, quartiles and count; `value`, the figure the result JSON
    reports, is the median unless given."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    median = statistics.median(values)
    return {"value": median if value is None else value, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the fastest and the slowest value (of five or more).

    Iteration times on a shared host are often bimodal, fast and slow
    mixed within one run; a median then jumps between the modes as their
    mix shifts, while a mean moves with the mix."""
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def load_reference(workload_name: str, seed: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload_name, {}).get(str(seed))


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool) -> dict:
    input_path = prepare_input(root, workload, seed)
    reference = load_reference(workload.name, seed)
    run_dir = root / ".bench_runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    samples: list[dict] = []
    start = time.monotonic()
    last = 0.0  # wall seconds of the previous iteration, check included
    while True:
        elapsed = time.monotonic() - start
        # stop before an iteration that would overrun --seconds, once the
        # minimum sample count is in
        done = len(samples) >= MIN_ITERATIONS * (2 if trace else 1) and elapsed + last > seconds
        if done or elapsed >= RUN_LIMIT_S:
            break
        traced = trace and len(samples) % 2 == 1
        iter_dir = run_dir / f"iter-{len(samples):03d}"
        began = time.monotonic()
        sample = run_iteration(root, workload, seed, input_path, iter_dir, traced)
        check_sample(workload, sample, reference)
        if traced and not sample["problems"]:
            sample["layers"] = trace_layers(workload, sample)
        samples.append(sample)
        if not sample["problems"]:  # failed iterations keep their outputs for inspection
            shutil.rmtree(iter_dir)
        last = time.monotonic() - began
    return summarise(workload, seed, samples, reference is not None, trace, run_dir)


def summarise(workload, seed: int, samples: list[dict], has_reference: bool, trace: bool, run_dir: Path) -> dict:
    for sample, host_s in zip(samples, hostspeed.host_kernel_s([s["kernel_s"] for s in samples])):
        sample["host_kernel_s"] = host_s
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    metrics: dict[str, dict] = {}
    lists = workload.lists_per_run()
    if plain:
        for name in ("run_s", "setup_s", "cpu_s"):
            scaled = [hostspeed.scaled(s[name], s["host_kernel_s"]) for s in plain]
            metrics[name] = _summary(scaled, None if name == "setup_s" else _trimmed_mean(scaled))
            metrics[name[:-2] + "_raw_s"] = _summary([s[name] for s in plain])
        metrics["peak_rss_mb"] = _summary([s["peak_rss_mb"] for s in plain])
        metrics["host.calibration_s"] = _summary([s["kernel_s"] for s in plain])
        metrics["lists_per_s"] = _summary([lists / s["run_s"] for s in plain])
        metrics["output_mb"] = _summary([s["output_mb"] for s in plain])
    notes = []
    self_times_ok = True
    if traced:
        layer_names = traced[0]["layers"].keys()
        for name in layer_names:
            metrics[name] = _summary([s["layers"][name] for s in traced])
        if plain:
            overhead = metrics["trace.run_s"]["median"] - metrics["run_raw_s"]["median"]
            metrics["trace.overhead_s"] = _summary([overhead])
            if workload.kind == "cli-run":
                gap = abs(metrics["trace.unattributed_s"]["median"])
                allowed = max(overhead, 0.01 * metrics["run_raw_s"]["median"])
                self_times_ok = gap <= allowed
                if not self_times_ok:
                    notes.append(f"layer self times miss run_s by {gap:.4f} s, more than the {allowed:.4f} s overhead")
        missing = sorted({m for s in traced for m in s["timing"].get("missing", [])})
        if missing:
            notes.append("missing layer functions (metrics read 0): " + ", ".join(missing))
        share = metrics["dominant_share"]["median"]
        if share < workload.dominant_floor:
            notes.append(
                f"dominant part ({workload.dominant}) is {share:.0%} of run_s, below {workload.dominant_floor:.0%}"
            )
    if not has_reference and workload.kind != "cli-verify":
        notes.append(f"no reference fingerprint for seed {seed}: byte-identity checks skipped, other checks ran")
    failures = [
        {"iteration": i, "problems": s["problems"], "stderr_tail": s.get("stderr_tail", "")}
        for i, s in enumerate(samples)
        if s["problems"]
    ]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": len(samples),
        "failed": len(failures),
        "correct": not failures and bool(good) and self_times_ok,
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
        "fingerprint": good[0].get("fingerprint") if good else None,
        "samples": [
            {key: s.get(key) for key in ("trace", "run_s", "setup_s", "cpu_s", "kernel_s", "host_kernel_s", "peak_rss_mb", "output_mb")}
            for s in samples
        ],
        "run_dir": str(run_dir),
    }


# ---------------------------------------------------------------------------
# output


def metric_specs(root: Path) -> tuple[list[dict], list[dict]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def print_result(result: dict, env: dict, specs: list[dict]) -> dict:
    """Print the human-readable table; returns the JSON metrics block."""
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"iterations {result['attempted']} ({result['failed']} failed)")
    print("# env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'metric':44s} {'value':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  unit")
    block = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        summary = result["metrics"].get(name)
        if summary is None:
            raise BenchError(f"metric {name} was not measured")
        block[name] = {"value": summary["value"], "unit": unit}
        print(f"  {name:44s} {summary['value']:12.6g} {summary['median']:12.6g} {summary['q1']:12.6g} "
              f"{summary['q3']:12.6g} {summary['n']:4d}  {unit}")
    listed = {spec["name"] for spec in specs}
    for name in ("run_raw_s", "setup_raw_s", "cpu_raw_s", "host.calibration_s"):
        summary = result["metrics"].get(name)
        if summary is not None and name not in listed:
            print(f"  {name:44s} {summary['value']:12.6g} {summary['median']:12.6g} {summary['q1']:12.6g} "
                  f"{summary['q3']:12.6g} {summary['n']:4d}  s")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'error_rate':44s} {rate:12.6g} {'':12s} {'':12s} {'':12s} {result['attempted']:4d}  ratio")
    for note in result["notes"]:
        print(f"  note: {note}")
    for failure in result["failures"]:
        print(f"  FAILED iteration {failure['iteration']}: " + "; ".join(failure["problems"]))
    return block


def record_reference(root: Path, seeds: range) -> None:
    store = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for workload in WORKLOADS.values():
        if workload.kind == "cli-verify":
            continue
        for seed in seeds:
            input_path = prepare_input(root, workload, seed)
            iter_dir = root / ".bench_runs" / "reference" / f"{workload.name}-seed{seed}"
            sample = check_sample(workload, run_iteration(root, workload, seed, input_path, iter_dir, False), None)
            if sample["problems"]:
                raise BenchError(f"{workload.name} seed {seed}: " + "; ".join(sample["problems"]))
            store.setdefault(workload.name, {})[str(seed)] = sample["fingerprint"]
            shutil.rmtree(iter_dir)
            print(f"recorded {workload.name} seed {seed}", file=sys.stderr)
        REFERENCE_PATH.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="A-B", help="record reference fingerprints for seeds A..B")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        root = checkout_root()
        if args.record_reference:
            low, high = (int(x) for x in args.record_reference.split("-"))
            record_reference(root, range(low, high + 1))
            return 0
        end_to_end, per_layer = metric_specs(root)
        specs = per_layer if args.trace else end_to_end
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        env = environment(root, args.seed)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result = run_workload(root, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            result["env"] = env
            out_path = Path(result["run_dir"] + ".json")
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
            block = print_result(result, env, specs)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            if len(names) == 1:
                combined["metrics"] = block
            else:
                combined["metrics"].update({f"{name}.{key}": value for key, value in block.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
