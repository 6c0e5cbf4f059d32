"""Command-line entry point.

Commands: split, run, verify. `split` and `run` take a config file plus
optional flag overrides; `verify` takes only --instances and
--battery-seed. Exit codes: 0 success, 1 validation error (bad
config/flags, input the run cannot use, or a failed verification battery),
2 runtime failure.

The output directory resolves in precedence order: --out flag, the
FAIRRERANK_OUT environment variable, then the config's output.dir.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .dataset import DataError
from .pipeline import StageError, run_experiment, run_split
from .report import render_markdown
from .verify import run_battery

__all__ = ["main"]

OUT_ENV_VAR = "FAIRRERANK_OUT"


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
        cmd.add_argument("--seed", type=int, default=None, help="override split.seed")
        cmd.add_argument("--threads", type=int, default=1, help="ignored; deleted at the next benchmark change")
        cmd.add_argument("--out", type=Path, default=None, help="override the output directory")
        cmd.add_argument("--format", choices=("csv", "json", "md"), default=None, help="override report.formats")
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    verify = sub.add_parser("verify")
    verify.add_argument("--instances", type=int, default=200)
    verify.add_argument("--battery-seed", type=int, default=20240)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["split.seed"] = str(args.seed)
    if args.format is not None:
        overrides["report.formats"] = args.format
    return overrides


def _resolve_out_dir(args: argparse.Namespace, cfg: ExperimentConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return Path(cfg.out_dir)


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(args.config, _overrides_from_args(args))


def _cmd_split(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out_dir = _resolve_out_dir(args, cfg)
    artifacts, files = run_split(cfg, out_dir)
    print(f"split: {len(artifacts.split.train)} train / {len(artifacts.split.valid)} valid / "
          f"{len(artifacts.split.test)} test interactions")
    print(f"partition: {artifacts.partition.num_short} short-head of {artifacts.dataset.num_items} items")
    for name, path in sorted(files.items()):
        print(f"  {name}: {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out_dir = _resolve_out_dir(args, cfg)
    result = run_experiment(cfg, out_dir)
    sys.stdout.write(render_markdown(result.rows))
    print(f"wrote {len(result.files)} files to {out_dir} (manifest: {result.manifest_path})")
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
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
