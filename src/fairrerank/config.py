"""Flat dotted-key experiment configuration with strict validation.

Config files are UTF-8 text, one `key = value` per line, `#` comments and
blank lines allowed; `#` starts a comment only at the start of a line or
after whitespace, so a value like `data/run#3.tsv` keeps it. Every key must
be recognized; unknown keys are errors rather than silently ignored, so
typos cannot corrupt an experiment. The parsed config snapshots to
canonical key/value text that re-parses to an equal config, which is what
the run manifest stores.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .rerank import RerankConfig
from .scorers import MASKED, MFConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "build_config", "load_config", "config_snapshot"]

SCORER_NAMES = ("popularity", "mf", "random", "import")
REPORT_FORMATS = ("csv", "json", "md")


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


def _parse_name_list(key: str, value: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise ConfigError(f"{key}: expected a comma-separated list")
    for name in names:
        if name not in allowed:
            raise ConfigError(f"{key}: unknown value {name!r}; expected one of {allowed}")
    return names


_KNOWN_KEYS = (
    "input.path",
    "input.delimiter",
    "input.header",
    "split.seed",
    "split.ratios",
    "partition.ratio",
    "scorer.names",
    "scorer.import_path",
    "scorer.fill",
    "scorer.mask_seen",
    "random.seed",
    "mf.dim",
    "mf.reg",
    "mf.iters",
    "mf.alpha",
    "mf.seed",
    "rerank.k",
    "rerank.lambda",
    "rerank.lambda_grid",
    "rerank.per_user_lambda",
    "rerank.pool_size",
    "output.dir",
    "report.formats",
)


def build_config(pairs: dict[str, str]) -> ExperimentConfig:
    """Validate a key/value mapping and build the typed config."""
    unknown = sorted(set(pairs) - set(_KNOWN_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    defaults = ExperimentConfig()

    def get(key: str) -> str | None:
        return pairs.get(key)

    delimiter = get("input.delimiter") or defaults.delimiter
    if delimiter not in ("tab", "comma"):
        raise ConfigError(f"input.delimiter: expected 'tab' or 'comma', got {delimiter!r}")

    ratios = defaults.ratios
    if get("split.ratios") is not None:
        parsed = _parse_float_list("split.ratios", pairs["split.ratios"])
        if len(parsed) != 3:
            raise ConfigError(f"split.ratios: expected three numbers, got {len(parsed)}")
        if any(r <= 0 for r in parsed):
            raise ConfigError("split.ratios: all ratios must be positive")
        if abs(sum(parsed) - 1.0) > 1e-9:
            raise ConfigError(f"split.ratios: must sum to 1, got {sum(parsed)!r}")
        ratios = (parsed[0], parsed[1], parsed[2])

    partition_ratio = defaults.partition_ratio
    if get("partition.ratio") is not None:
        partition_ratio = _parse_float("partition.ratio", pairs["partition.ratio"])
        if not 0.0 < partition_ratio < 1.0:
            raise ConfigError(f"partition.ratio: must be in (0, 1), got {partition_ratio!r}")

    scorers = defaults.scorers
    if get("scorer.names") is not None:
        scorers = _parse_name_list("scorer.names", pairs["scorer.names"], SCORER_NAMES)

    import_path = get("scorer.import_path") or ""
    if "import" in scorers and not import_path:
        raise ConfigError("scorer.import_path is required when scorer.names includes 'import'")

    fill = defaults.fill
    if get("scorer.fill") is not None:
        fill_text = pairs["scorer.fill"]
        fill = MASKED if fill_text == "sentinel" else _parse_float("scorer.fill", fill_text)

    try:
        mf = MFConfig(
            latent_dim=_parse_int("mf.dim", pairs["mf.dim"]) if get("mf.dim") is not None else defaults.mf.latent_dim,
            regularization=(
                _parse_float("mf.reg", pairs["mf.reg"]) if get("mf.reg") is not None else defaults.mf.regularization
            ),
            iterations=(
                _parse_int("mf.iters", pairs["mf.iters"]) if get("mf.iters") is not None else defaults.mf.iterations
            ),
            confidence_alpha=(
                _parse_float("mf.alpha", pairs["mf.alpha"])
                if get("mf.alpha") is not None
                else defaults.mf.confidence_alpha
            ),
            seed=_parse_int("mf.seed", pairs["mf.seed"]) if get("mf.seed") is not None else defaults.mf.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"mf.*: {exc}") from None

    grid: tuple[float, ...] | None = defaults.rerank.lambda_grid
    if get("rerank.lambda_grid") is not None:
        grid = _parse_float_list("rerank.lambda_grid", pairs["rerank.lambda_grid"])
    try:
        rerank = RerankConfig(
            k=_parse_int("rerank.k", pairs["rerank.k"]) if get("rerank.k") is not None else defaults.rerank.k,
            lam=(
                _parse_float("rerank.lambda", pairs["rerank.lambda"])
                if get("rerank.lambda") is not None
                else defaults.rerank.lam
            ),
            lambda_grid=grid,
            per_user_lambda=(
                _parse_bool("rerank.per_user_lambda", pairs["rerank.per_user_lambda"])
                if get("rerank.per_user_lambda") is not None
                else defaults.rerank.per_user_lambda
            ),
            pool_size=(
                _parse_int("rerank.pool_size", pairs["rerank.pool_size"])
                if get("rerank.pool_size") is not None
                else defaults.rerank.pool_size
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"rerank.*: {exc}") from None
    if rerank.k < 2:
        raise ConfigError(f"rerank.k: must be >= 2 (diversity needs item pairs), got {rerank.k}")

    formats = defaults.formats
    if get("report.formats") is not None:
        formats = _parse_name_list("report.formats", pairs["report.formats"], REPORT_FORMATS)

    return ExperimentConfig(
        input_path=get("input.path") or "",
        delimiter=delimiter,
        header=_parse_bool("input.header", pairs["input.header"]) if get("input.header") is not None else False,
        split_seed=_parse_int("split.seed", pairs["split.seed"]) if get("split.seed") is not None else defaults.split_seed,
        ratios=ratios,
        partition_ratio=partition_ratio,
        scorers=scorers,
        import_path=import_path,
        fill=fill,
        mask_seen=(
            _parse_bool("scorer.mask_seen", pairs["scorer.mask_seen"])
            if get("scorer.mask_seen") is not None
            else defaults.mask_seen
        ),
        random_seed=(
            _parse_int("random.seed", pairs["random.seed"]) if get("random.seed") is not None else defaults.random_seed
        ),
        mf=mf,
        rerank=rerank,
        out_dir=get("output.dir") or defaults.out_dir,
        formats=formats,
    )


def load_config(
    path: Path | str | None,
    overrides: dict[str, str] | None = None,
    require_input: bool = True,
) -> ExperimentConfig:
    """Load a config file, apply flag overrides, validate paths."""
    pairs: dict[str, str] = {}
    if path is not None:
        config_path = Path(path)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        pairs = parse_config_text(config_path.read_text(encoding="utf-8"))
    if overrides:
        pairs.update(overrides)
    cfg = build_config(pairs)
    if require_input:
        if not cfg.input_path:
            raise ConfigError("input.path is required")
        if not Path(cfg.input_path).is_file():
            raise ConfigError(f"input.path not found: {cfg.input_path}")
        if "import" in cfg.scorers and not Path(cfg.import_path).is_file():
            raise ConfigError(f"scorer.import_path not found: {cfg.import_path}")
    return cfg


def config_snapshot(cfg: ExperimentConfig) -> dict[str, str]:
    """Canonical key/value form; build_config(snapshot) == cfg."""
    grid = cfg.rerank.lambda_grid
    snapshot = {
        "input.path": cfg.input_path,
        "input.delimiter": cfg.delimiter,
        "input.header": "true" if cfg.header else "false",
        "split.seed": str(cfg.split_seed),
        "split.ratios": ",".join(repr(r) for r in cfg.ratios),
        "partition.ratio": repr(cfg.partition_ratio),
        "scorer.names": ",".join(cfg.scorers),
        "scorer.fill": "sentinel" if cfg.fill == MASKED else repr(cfg.fill),
        "scorer.mask_seen": "true" if cfg.mask_seen else "false",
        "random.seed": str(cfg.random_seed),
        "mf.dim": str(cfg.mf.latent_dim),
        "mf.reg": repr(cfg.mf.regularization),
        "mf.iters": str(cfg.mf.iterations),
        "mf.alpha": repr(cfg.mf.confidence_alpha),
        "mf.seed": str(cfg.mf.seed),
        "rerank.k": str(cfg.rerank.k),
        "rerank.lambda": repr(cfg.rerank.lam),
        "rerank.per_user_lambda": "true" if cfg.rerank.per_user_lambda else "false",
        "rerank.pool_size": str(cfg.rerank.pool_size),
        "output.dir": cfg.out_dir,
        "report.formats": ",".join(cfg.formats),
    }
    if cfg.import_path:
        snapshot["scorer.import_path"] = cfg.import_path
    if grid is not None:
        snapshot["rerank.lambda_grid"] = ",".join(repr(g) for g in grid)
    return snapshot
