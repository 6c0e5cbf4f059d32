"""Flat dotted-key experiment configuration with strict validation.

Config files are UTF-8 text, one `key = value` per line, `#` comments and
blank lines allowed; `#` starts a comment only at the start of a line or
after whitespace, so a value like `data/run#3.tsv` keeps it. Every key must
be recognized; unknown keys are errors rather than silently ignored, so
typos cannot corrupt an experiment. The parsed config snapshots to
canonical key/value text that re-parses to an equal config, which is what
the run manifest stores. Each key is one row of `KEYS`, which drives both
the parsing and the snapshot.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .dataset import DELIMITER_NAMES
from .rerank import RerankConfig, lambda_label
from .scorers import MASKED, MFConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "build_config", "load_config", "config_snapshot"]

SCORER_NAMES = ("popularity", "mf", "random", "import")
REPORT_FORMATS = ("csv", "json", "md")
SCORE_EXPORTS = ("tsv", "none")


class ConfigError(ValueError):
    """Invalid configuration (bad key, bad value, unresolvable path)."""


@dataclass(frozen=True)
class ExperimentConfig:
    input_path: str = ""
    delimiter: str = "tab"
    header: bool = False
    split_seed: int = 42
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    partition_ratio: float = 0.2
    scorers: tuple[str, ...] = ("mf",)
    import_path: str = ""
    fill: float = 0.0
    mask_seen: bool = True
    random_seed: int = 0
    mf: MFConfig = field(default_factory=MFConfig)
    rerank: RerankConfig = field(default_factory=RerankConfig)
    out_dir: str = "out"
    score_export: str = "tsv"
    formats: tuple[str, ...] = ("csv", "md")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into an ordered mapping; later duplicate
    keys override earlier ones."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_seed(key: str, value: str) -> int:
    out = _parse_int(key, value)
    if out < 0:
        raise ConfigError(f"{key}: expected a non-negative integer, got {value!r}")
    return out


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return out


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, item) for item in items)


def _parse_ratios(key: str, value: str) -> tuple[float, ...]:
    parsed = _parse_float_list(key, value)
    if len(parsed) != 3:
        raise ConfigError(f"{key}: expected three numbers, got {len(parsed)}")
    if any(r <= 0 for r in parsed):
        raise ConfigError(f"{key}: all ratios must be positive")
    if abs(sum(parsed) - 1.0) > 1e-9:
        raise ConfigError(f"{key}: must sum to 1, got {sum(parsed)!r}")
    return parsed


def _parse_fraction(key: str, value: str) -> float:
    out = _parse_float(key, value)
    if not 0.0 < out < 1.0:
        raise ConfigError(f"{key}: must be in (0, 1), got {out!r}")
    return out


def _parse_fill(key: str, value: str) -> float:
    return MASKED if value == "sentinel" else _parse_float(key, value)


def _parse_text(key: str, value: str) -> str | None:
    return value or None


def _one_of(allowed: tuple[str, ...]):
    def parse(key: str, value: str) -> str | None:
        if value and value not in allowed:
            raise ConfigError(f"{key}: expected {' or '.join(map(repr, allowed))}, got {value!r}")
        return value or None

    return parse


def _name_list(allowed: tuple[str, ...]):
    def parse(key: str, value: str) -> tuple[str, ...]:
        names = tuple(part.strip() for part in value.split(",") if part.strip())
        if not names:
            raise ConfigError(f"{key}: expected a comma-separated list")
        for i, name in enumerate(names):
            if name not in allowed:
                raise ConfigError(f"{key}: unknown value {name!r}; expected one of {allowed}")
            if name in names[:i]:
                raise ConfigError(f"{key}: {name!r} is listed more than once")
        return names

    return parse


def _show_bool(value: bool) -> str:
    return "true" if value else "false"


def _show_floats(values: tuple[float, ...]) -> str:
    return ",".join(repr(v) for v in values)


# One row per config key: the key, its dotted field on ExperimentConfig, the
# parser (returning None keeps the field's default) and the canonical text
# the snapshot stores (None leaves the key out). The README table lists the
# same keys in the same order.
KEYS = (
    ("input.path", "input_path", _parse_text, str),
    ("input.delimiter", "delimiter", _one_of(DELIMITER_NAMES), str),
    ("input.header", "header", _parse_bool, _show_bool),
    ("split.seed", "split_seed", _parse_seed, str),
    ("split.ratios", "ratios", _parse_ratios, _show_floats),
    ("partition.ratio", "partition_ratio", _parse_fraction, repr),
    ("scorer.names", "scorers", _name_list(SCORER_NAMES), ",".join),
    ("scorer.import_path", "import_path", _parse_text, lambda path: path or None),
    ("scorer.fill", "fill", _parse_fill, lambda fill: "sentinel" if fill == MASKED else repr(fill)),
    ("scorer.mask_seen", "mask_seen", _parse_bool, _show_bool),
    ("random.seed", "random_seed", _parse_seed, str),
    ("mf.dim", "mf.latent_dim", _parse_int, str),
    ("mf.reg", "mf.regularization", _parse_float, repr),
    ("mf.iters", "mf.iterations", _parse_int, str),
    ("mf.alpha", "mf.confidence_alpha", _parse_float, repr),
    ("mf.seed", "mf.seed", _parse_seed, str),
    ("rerank.k", "rerank.k", _parse_int, str),
    ("rerank.lambda_grid", "rerank.lambda_grid", _parse_float_list, _show_floats),
    ("rerank.per_user_lambda", "rerank.per_user_lambda", _parse_bool, _show_bool),
    ("rerank.pool_size", "rerank.pool_size", _parse_int, str),
    ("output.dir", "out_dir", _parse_text, str),
    # the default is left out of the snapshot, so manifests that predate the key keep their bytes
    ("output.scores", "score_export", _one_of(SCORE_EXPORTS), lambda export: None if export == "tsv" else export),
    ("report.formats", "formats", _name_list(REPORT_FORMATS), ",".join),
)


def build_config(pairs: dict[str, str]) -> ExperimentConfig:
    """Validate a key/value mapping and build the typed config."""
    unknown = sorted(set(pairs) - {key for key, *_ in KEYS})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    fields: dict[str, dict[str, object]] = {"": {}, "mf": {}, "rerank": {}}
    for key, path, parse, _ in KEYS:
        if pairs.get(key) is None:
            continue
        group, _, name = path.rpartition(".")
        value = parse(key, pairs[key])
        if value is not None:
            fields[group][name] = value
    for group, cls in (("mf", MFConfig), ("rerank", RerankConfig)):
        try:
            fields[""][group] = cls(**fields[group])
        except ValueError as exc:
            raise ConfigError(f"{group}.*: {exc}") from None
    cfg = ExperimentConfig(**fields[""])

    if "import" in cfg.scorers and not cfg.import_path:
        raise ConfigError("scorer.import_path is required when scorer.names includes 'import'")
    if cfg.rerank.k < 2:
        raise ConfigError(f"rerank.k: must be >= 2 (diversity needs item pairs), got {cfg.rerank.k}")
    grid = cfg.rerank.lambda_grid
    for a, b in zip(grid, grid[1:]):  # ascending, so equal labels are neighbours
        if lambda_label(a) == lambda_label(b):
            raise ConfigError(f"rerank.lambda_grid: {a!r} and {b!r} share the label {lambda_label(a)!r} "
                              "that names their list files and report rows")
    return cfg


def load_config(path: Path | str | None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load a config file, apply flag overrides, validate paths: the inputs
    must be files, and output.dir a directory or a path one can be made at."""
    pairs: dict[str, str] = {}
    if path is not None:
        config_path = Path(path)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            pairs = parse_config_text(config_path.read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not UTF-8: {exc}") from None
    if overrides:
        pairs.update(overrides)
    cfg = build_config(pairs)
    if not cfg.input_path:
        raise ConfigError("input.path is required")
    if not Path(cfg.input_path).is_file():
        raise ConfigError(f"input.path not found: {cfg.input_path}")
    if "import" in cfg.scorers and not Path(cfg.import_path).is_file():
        raise ConfigError(f"scorer.import_path not found: {cfg.import_path}")
    out_dir = Path(cfg.out_dir)
    for path in (out_dir, *out_dir.parents):  # the nearest existing one must be a directory
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output.dir {cfg.out_dir}: {path} is not a directory")
            break
    return cfg


def config_snapshot(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical key/value form; build_config(snapshot) == cfg."""
    texts = ((key, show(attrgetter(path)(cfg))) for key, path, _, show in KEYS)
    return {key: text for key, text in texts if text is not None}
