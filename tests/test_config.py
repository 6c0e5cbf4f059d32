"""Per-key behaviour of the config layer: accepted values and their
canonical snapshot text, the error for a malformed value, and what an
empty value does. Each row pins one key."""

import re
from pathlib import Path

import pytest

from fairrerank.config import KEYS as CONFIG_KEYS
from fairrerank.config import ConfigError, build_config, config_snapshot, load_config
from fairrerank.synthetic import write_zipf_dataset

MISSING = object()

# key, valid value, its snapshot text, malformed value, the error it gives,
# and the outcome of an empty value (a snapshot text, or MISSING when the
# key is left out of the snapshot, or a ConfigError instance)
CASES = [
    ("input.path", "data/log.tsv", "data/log.tsv", "no/such.tsv", "input.path not found: no/such.tsv", ""),
    (
        "input.delimiter",
        "comma",
        "comma",
        "pipe",
        "input.delimiter: expected 'tab' or 'comma', got 'pipe'",
        "tab",
    ),
    (
        "input.header",
        "yes",
        "true",
        "maybe",
        "input.header: expected a boolean, got 'maybe'",
        ConfigError("input.header: expected a boolean, got ''"),
    ),
    (
        "split.seed",
        "7",
        "7",
        "7.5",
        "split.seed: expected an integer, got '7.5'",
        ConfigError("split.seed: expected an integer, got ''"),
    ),
    (
        "split.ratios",
        "0.4, 0.4,0.2",
        "0.4,0.4,0.2",
        "0.5,0.5",
        "split.ratios: expected three numbers, got 2",
        ConfigError("split.ratios: expected a comma-separated list of numbers"),
    ),
    (
        "partition.ratio",
        "0.25",
        "0.25",
        "inf",
        "partition.ratio: expected a finite number, got 'inf'",
        ConfigError("partition.ratio: expected a number, got ''"),
    ),
    (
        "scorer.names",
        "popularity, random",
        "popularity,random",
        "mf,bogus",
        "scorer.names: unknown value 'bogus'; expected one of ('popularity', 'mf', 'random', 'import')",
        ConfigError("scorer.names: expected a comma-separated list"),
    ),
    (
        "scorer.import_path",
        "scores.tsv",
        "scores.tsv",
        "no/such/scores.tsv",
        "scorer.import_path not found: no/such/scores.tsv",
        MISSING,
    ),
    (
        "scorer.fill",
        "sentinel",
        "sentinel",
        "nan",
        "scorer.fill: expected a finite number, got 'nan'",
        ConfigError("scorer.fill: expected a number, got ''"),
    ),
    (
        "scorer.mask_seen",
        "no",
        "false",
        "2",
        "scorer.mask_seen: expected a boolean, got '2'",
        ConfigError("scorer.mask_seen: expected a boolean, got ''"),
    ),
    (
        "random.seed",
        "3",
        "3",
        "three",
        "random.seed: expected an integer, got 'three'",
        ConfigError("random.seed: expected an integer, got ''"),
    ),
    (
        "mf.dim",
        "8",
        "8",
        "8.0",
        "mf.dim: expected an integer, got '8.0'",
        ConfigError("mf.dim: expected an integer, got ''"),
    ),
    (
        "mf.reg",
        "1e-3",
        "0.001",
        "small",
        "mf.reg: expected a number, got 'small'",
        ConfigError("mf.reg: expected a number, got ''"),
    ),
    (
        "mf.iters",
        "5",
        "5",
        "many",
        "mf.iters: expected an integer, got 'many'",
        ConfigError("mf.iters: expected an integer, got ''"),
    ),
    (
        "mf.alpha",
        "10",
        "10.0",
        "inf",
        "mf.alpha: expected a finite number, got 'inf'",
        ConfigError("mf.alpha: expected a number, got ''"),
    ),
    (
        "mf.seed",
        "9",
        "9",
        "x",
        "mf.seed: expected an integer, got 'x'",
        ConfigError("mf.seed: expected an integer, got ''"),
    ),
    (
        "rerank.k",
        "5",
        "5",
        "ten",
        "rerank.k: expected an integer, got 'ten'",
        ConfigError("rerank.k: expected an integer, got ''"),
    ),
    (
        "rerank.lambda_grid",
        "0,2,10.5",
        "0.0,2.0,10.5",
        "1,x",
        "rerank.lambda_grid: expected a number, got 'x'",
        ConfigError("rerank.lambda_grid: expected a comma-separated list of numbers"),
    ),
    (
        "rerank.per_user_lambda",
        "TRUE",
        "true",
        "on",
        "rerank.per_user_lambda: expected a boolean, got 'on'",
        ConfigError("rerank.per_user_lambda: expected a boolean, got ''"),
    ),
    (
        "rerank.pool_size",
        "20",
        "20",
        "2.5",
        "rerank.pool_size: expected an integer, got '2.5'",
        ConfigError("rerank.pool_size: expected an integer, got ''"),
    ),
    # any text parses; a path at or under a file fails at load (tests/test_cli.py)
    ("output.dir", "results", "results", None, None, "out"),
    # the default, tsv, is left out of the snapshot
    ("output.scores", "none", "none", "csv", "output.scores: expected 'tsv' or 'none', got 'csv'", MISSING),
    (
        "report.formats",
        "md, json",
        "md,json",
        "csv,pdf",
        "report.formats: unknown value 'pdf'; expected one of ('csv', 'json', 'md')",
        ConfigError("report.formats: expected a comma-separated list"),
    ),
]

KEYS = [case[0] for case in CASES]


def _case(key):
    return CASES[KEYS.index(key)]


@pytest.fixture
def input_file(tmp_path):
    data = tmp_path / "log.tsv"
    write_zipf_dataset(data, 10, 8, 1.0, per_user=4, seed=1)
    return str(data)


def test_cases_cover_every_key():
    assert len(KEYS) == 23 and len(set(KEYS)) == 23
    pairs = {"scorer.import_path": "s", "rerank.lambda_grid": "1", "output.scores": "none"}
    assert set(KEYS) == set(config_snapshot(build_config(pairs)))


@pytest.mark.parametrize("key", KEYS)
def test_valid_value_snapshots_canonically(key):
    _, value, text, *_ = _case(key)
    cfg = build_config({key: value})
    snapshot = config_snapshot(cfg)
    assert snapshot[key] == text
    assert build_config(snapshot) == cfg


@pytest.mark.parametrize("key", [k for k in KEYS if _case(k)[3] is not None])
def test_malformed_value_names_the_key(key, input_file):
    _, _, _, value, message, _ = _case(key)
    pairs = {"input.path": input_file, key: value}
    if key == "scorer.import_path":
        pairs["scorer.names"] = "import"
    with pytest.raises(ConfigError) as exc:
        load_config(None, pairs)
    assert str(exc.value) == message
    assert key in message


@pytest.mark.parametrize("key", KEYS)
def test_empty_value(key):
    expected = _case(key)[5]
    if isinstance(expected, ConfigError):
        with pytest.raises(ConfigError) as exc:
            build_config({key: ""})
        assert str(exc.value) == str(expected)
    else:
        assert config_snapshot(build_config({key: ""})).get(key, MISSING) == expected


@pytest.mark.parametrize(
    "pairs, message",
    [
        ({"scorer.names": "import"}, "scorer.import_path is required when scorer.names includes 'import'"),
        ({"scorer.names": "mf,import", "scorer.import_path": ""}, "scorer.import_path is required when scorer.names includes 'import'"),
        ({"rerank.k": "1"}, "rerank.k: must be >= 2 (diversity needs item pairs), got 1"),
        ({"rerank.k": "3", "rerank.pool_size": "2"}, "rerank.*: pool_size must be 0 (unlimited) or >= k"),
        ({"rerank.lambda_grid": "0,-1"}, "rerank.*: lambda_grid values must be finite and >= 0"),
        ({"rerank.lambda_grid": "1.0,0.5"}, "rerank.*: lambda_grid must be strictly ascending"),
        ({"mf.dim": "0"}, "mf.*: latent_dim must be >= 1"),
        ({"mf.alpha": "0"}, "mf.*: confidence_alpha must be positive"),
        ({"split.ratios": "0.5,-0.5,1"}, "split.ratios: all ratios must be positive"),
        ({"partition.ratio": "1.0"}, "partition.ratio: must be in (0, 1), got 1.0"),
        ({"scorer.fill": "-inf"}, "scorer.fill: expected a finite number, got '-inf'"),
        ({"rerank.lambda_grid": "0.5,1.0000001,1.0000002"},
         "rerank.lambda_grid: 1.0000001 and 1.0000002 share the label '1' that names their list files and report rows"),
    ],
)
def test_range_and_cross_key_errors(pairs, message):
    with pytest.raises(ConfigError) as exc:
        build_config(pairs)
    assert str(exc.value) == message


def test_the_grid_snapshot_starts_at_a_positive_zero():
    assert config_snapshot(build_config({}))["rerank.lambda_grid"] == "0.0"
    assert config_snapshot(build_config({"rerank.lambda_grid": "-0,2"}))["rerank.lambda_grid"] == "0.0,2.0"
    assert config_snapshot(build_config({"rerank.lambda_grid": "2,10"}))["rerank.lambda_grid"] == "0.0,2.0,10.0"


def test_a_leading_byte_order_mark_is_dropped(input_file, tmp_path):
    text = f"input.path = {input_file}\nrerank.k = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    cfg = load_config(marked)
    assert cfg.input_path == input_file
    assert cfg == load_config(plain)


def test_missing_input_path_is_an_error_at_load():
    with pytest.raises(ConfigError, match="input.path is required"):
        load_config(None, {})


@pytest.mark.parametrize(
    "pairs, message",
    [
        ({"scorer.names": "popularity,popularity"}, "scorer.names: 'popularity' is listed more than once"),
        ({"scorer.names": "mf, random ,mf"}, "scorer.names: 'mf' is listed more than once"),
        ({"report.formats": "csv,csv"}, "report.formats: 'csv' is listed more than once"),
    ],
)
def test_duplicate_list_values_rejected(pairs, message):
    with pytest.raises(ConfigError) as exc:
        build_config(pairs)
    assert str(exc.value) == message


def _readme_key_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \| (—|`[^`]*`) \|", section, flags=re.MULTILINE)


def test_readme_lists_the_config_keys_in_table_order():
    assert [key for key, _ in _readme_key_rows()] == [key for key, *_ in CONFIG_KEYS]


def test_readme_defaults_match_the_default_snapshot():
    defaults = config_snapshot(build_config({}))
    for key, documented in _readme_key_rows():
        assert documented == (f"`{defaults[key]}`" if defaults.get(key) else "—"), key
