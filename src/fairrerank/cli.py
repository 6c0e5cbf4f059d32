"""Command-line entry point.

Commands: split, run, verify. `split` and `run` take a config file plus
--set overrides of its keys, the one source of a run's settings; --out DIR
is shorthand for --set output.dir=DIR, applied after every --set. `verify`
takes only --instances and --battery-seed. Exit codes: 0 success, 1
validation error (bad config/flags, input the run cannot use, or a failed
verification battery), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .dataset import DataError
from .pipeline import run_experiment, run_split
from .report import render_markdown
from .verify import DEFAULT_BATTERY_SEED, DEFAULT_INSTANCES, run_battery

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the
    # validation-error convention by raising instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairrerank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("split", "run"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, required=True)
        cmd.add_argument("--threads", type=int, default=1, help="ignored; deleted at the next benchmark change")
        cmd.add_argument("--out", metavar="DIR", help="shorthand for --set output.dir=DIR, applied after every --set")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    verify = sub.add_parser("verify")
    verify.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)
    verify.add_argument("--battery-seed", type=int, default=DEFAULT_BATTERY_SEED)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    items = args.overrides if args.out is None else [*args.overrides, f"output.dir={args.out}"]
    for item in items:
        key, equals, value = item.partition("=")
        if not equals or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, _overrides_from_args(args))


def _cmd_split(args: argparse.Namespace) -> int:
    artifacts, files = run_split(_load(args))
    print(f"split: {len(artifacts.split.train)} train / {len(artifacts.split.valid)} valid / "
          f"{len(artifacts.split.test)} test interactions")
    print(f"partition: {artifacts.partition.num_short} short-head of {artifacts.dataset.num_items} items")
    for name, path in sorted(files.items()):
        print(f"  {name}: {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    result = run_experiment(cfg)
    sys.stdout.write(render_markdown(result.rows))
    print(f"wrote {len(result.files)} files to {cfg.out_dir} (manifest: {result.manifest_path})")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    if args.battery_seed < 0:
        raise ConfigError(f"--battery-seed must be >= 0, got {args.battery_seed}")
    outcomes = run_battery(instances=args.instances, seed=args.battery_seed)
    failed = False
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {outcome.name} ({outcome.seconds:.2f}s): {outcome.detail}")
        failed = failed or not outcome.passed
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "split":
            return _cmd_split(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_run(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
