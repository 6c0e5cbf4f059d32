import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fairrerank.cli import _build_parser, main
from fairrerank.config import (
    ConfigError,
    build_config,
    config_snapshot,
    load_config,
    parse_config_text,
)
from fairrerank.dataset import build_dataset, partition_popularity, read_interactions, split
from fairrerank.metrics import eval_context, evaluate, judgments_from_interactions
from fairrerank.pipeline import run_experiment
from fairrerank.rerank import RerankConfig, rerank_path, write_lists
from fairrerank.scorers import ScoreMatrix, mask_seen, popularity_scorer, random_scorer, write_scores
from fairrerank.synthetic import write_zipf_dataset
from fairrerank.util import sha256_file


@pytest.fixture
def demo(tmp_path):
    data = tmp_path / "demo.tsv"
    write_zipf_dataset(data, 40, 25, 1.0, per_user=8, seed=5)
    config = tmp_path / "exp.cfg"
    config.write_text(
        "\n".join(
            [
                f"input.path = {data}",
                "split.seed = 11",
                "scorer.names = popularity",
                "rerank.k = 4",
                "rerank.lambda_grid = 1.0,4.0",
                f"output.dir = {tmp_path / 'out'}",
                "report.formats = csv,json,md",
            ]
        )
        + "\n"
    )
    return config, tmp_path


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        pairs = parse_config_text("# hi\n\nrerank.k = 3  # trailing\n")
        assert pairs == {"rerank.k": "3"}

    def test_hash_inside_value_is_kept(self):
        pairs = parse_config_text("input.path = data/run#3.tsv\nscorer.names = mf\t# tab comment\n#k = v\n")
        assert pairs == {"input.path": "data/run#3.tsv", "scorer.names": "mf"}

    def test_input_path_containing_hash_loads(self, tmp_path):
        data = tmp_path / "run#3.tsv"
        write_zipf_dataset(data, 10, 8, 1.0, per_user=4, seed=1)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"input.path = {data}  # the third run\n")
        assert load_config(cfg_file).input_path == str(data)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: rernk.k"):
            build_config({"rernk.k": "3"})

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            build_config({"split.ratios": "0.7,0.1,0.1"})

    def test_bad_scorer_name_rejected(self):
        with pytest.raises(ConfigError, match="scorer.names"):
            build_config({"scorer.names": "mf,bogus"})

    def test_import_requires_path(self):
        with pytest.raises(ConfigError, match="import_path"):
            build_config({"scorer.names": "import"})

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            build_config({"rerank.lambda_grid": "1.0,0.5"})

    def test_sentinel_fill(self):
        cfg = build_config({"scorer.fill": "sentinel"})
        assert cfg.fill == float("-inf")

    def test_missing_input_path_rejected_at_load(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("split.seed = 1\n")
        with pytest.raises(ConfigError, match="input.path"):
            load_config(cfg_file)

    def test_snapshot_round_trips(self, demo):
        config, _ = demo
        cfg = load_config(config)
        assert build_config(config_snapshot(cfg)) == cfg

    def test_defaults_match_documented_values(self):
        cfg = build_config({})
        assert cfg.rerank.k == 10
        assert cfg.mf.latent_dim == 32
        assert cfg.mf.confidence_alpha == 40.0
        assert cfg.partition_ratio == 0.2
        assert cfg.ratios == (0.7, 0.1, 0.2)
        assert cfg.mask_seen is True


class TestSplitCommand:
    def test_writes_artifacts_and_is_deterministic(self, demo):
        config, base = demo
        out_a, out_b = base / "a", base / "b"
        assert main(["split", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["split", "--config", str(config), "--out", str(out_b)]) == 0
        for name in ("train.tsv", "valid.tsv", "test.tsv", "partition.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_partition_file_line_count_equals_catalog(self, demo):
        config, base = demo
        out = base / "s"
        main(["split", "--config", str(config), "--out", str(out)])
        ds = build_dataset(read_interactions(load_config(config).input_path))
        assert len((out / "partition.tsv").read_text().splitlines()) == ds.num_items

    def test_invalid_ratio_override_exits_1(self, demo):
        config, _ = demo
        assert main(["split", "--config", str(config), "--set", "split.ratios=0.5,0.1,0.1"]) == 1


class TestRunCommand:
    def test_report_columns_exact(self, demo):
        config, base = demo
        main(["run", "--config", str(config)])
        header = (base / "out" / "report.csv").read_text().splitlines()[0]
        assert header == "model,type,lambda,NDCG,Pre,Rec,Nov,Div,Cov,Per,Ser,Short,Rel_Short,Long,Rel_Long,F"

    def test_row_cardinality_two_scorers_by_grid(self, demo):
        config, base = demo
        out = base / "multi"
        main([
            "run", "--config", str(config), "--out", str(out),
            "--set", "scorer.names=popularity,random",
            "--set", "rerank.lambda_grid=1.0,2.0,4.0",
        ])
        lines = (out / "report.csv").read_text().splitlines()[1:]
        n_rows = [line for line in lines if line.split(",")[1] == "N"]
        p_rows = [line for line in lines if line.split(",")[1] == "P"]
        assert len(n_rows) == 2
        assert len(p_rows) == 6

    def test_byte_identical_reports_across_threads(self, demo):
        config, base = demo
        outs = []
        for threads in (1, 3):
            out = base / f"t{threads}"
            assert main([
                "run", "--config", str(config), "--out", str(out),
                "--threads", str(threads), "--set", "scorer.names=mf,popularity",
                "--set", "mf.dim=6", "--set", "mf.iters=3",
            ]) == 0
            outs.append(out)
        for name in ("report.csv", "report.json", "report.md"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_hashes_reproduce(self, demo):
        config, base = demo
        manifests = []
        for run in ("m1", "m2"):
            main(["run", "--config", str(config), "--out", str(base / run)])
            manifests.append(json.loads((base / run / "manifest.json").read_text()))
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        assert manifests[0]["inputs"] == manifests[1]["inputs"]

    def test_manifest_config_snapshot_round_trips(self, demo):
        config, base = demo
        main(["run", "--config", str(config)])
        manifest = json.loads((base / "out" / "manifest.json").read_text())
        cfg = load_config(config)
        assert build_config(manifest["config"]) == cfg

    def test_n_row_matches_direct_evaluation(self, demo):
        # cross-path consistency: the CLI's N row equals evaluating the
        # scorer's plain top-K built from the library directly
        config, base = demo
        cfg = load_config(config)
        result = run_experiment(cfg, base / "direct")
        ds = build_dataset(read_interactions(cfg.input_path))
        triple = split(ds, cfg.ratios, cfg.split_seed)
        part = partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
        scores = mask_seen(popularity_scorer(triple.train), triple.train)
        lists = rerank_path(scores, part, RerankConfig(k=cfg.rerank.k), (0.0,))[0]
        judgments = judgments_from_interactions(triple.test)
        direct = evaluate(eval_context(judgments, triple.train, part, cfg.rerank.k), lists)
        n_row = next(row.report for row in result.rows if row.row_type == "N")
        assert n_row == direct

    def test_in_place_masking_matches_masking_a_copy(self, demo, tmp_path):
        # the run stamps MASKED into each scorer's own matrix after its
        # export; the files must equal those from masking an explicit copy
        config, base = demo
        cfg = load_config(config, {"scorer.names": "popularity,random"})
        result = run_experiment(cfg, base / "direct")
        ds = build_dataset(read_interactions(cfg.input_path))
        triple = split(ds, cfg.ratios, cfg.split_seed)
        part = partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
        lambdas = cfg.rerank.lambda_points()
        for name, raw in (
            ("popularity", popularity_scorer(triple.train)),
            ("random", random_scorer(ds.num_users, ds.num_items, cfg.random_seed)),
        ):
            export = write_scores(tmp_path / f"scores_{name}.tsv", raw, ds)
            assert result.files[f"scores_{name}"].read_bytes() == export.read_bytes()
            masked = mask_seen(ScoreMatrix(raw.values.copy()), triple.train)
            for lam, lists in zip(lambdas, rerank_path(masked, part, cfg.rerank, lambdas)):
                expected = write_lists(tmp_path / "l.tsv", lists, ds, part)
                assert result.files[f"lists_{name}_lambda{lam:g}"].read_bytes() == expected.read_bytes()
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["outputs"] == {name: sha256_file(path) for name, path in result.files.items()}

    def test_env_var_overrides_output_dir(self, demo, monkeypatch):
        config, base = demo
        target = base / "envout"
        monkeypatch.setenv("FAIRRERANK_OUT", str(target))
        main(["run", "--config", str(config)])
        assert (target / "report.csv").exists()

    def test_flag_beats_env_var(self, demo, monkeypatch):
        config, base = demo
        monkeypatch.setenv("FAIRRERANK_OUT", str(base / "ignored"))
        main(["run", "--config", str(config), "--out", str(base / "flag")])
        assert (base / "flag" / "report.csv").exists()
        assert not (base / "ignored").exists()

    def test_format_flag_restricts_outputs(self, demo):
        config, base = demo
        out = base / "only_json"
        main(["run", "--config", str(config), "--out", str(out), "--format", "json"])
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()

    def test_import_scorer_end_to_end(self, demo):
        config, base = demo
        cfg = load_config(config)
        ds = build_dataset(read_interactions(cfg.input_path))
        scores_file = base / "ext.tsv"
        rng = np.random.default_rng(3)
        lines = [
            f"{u}\t{i}\t{rng.random():.6f}"
            for u in ds.user_keys
            for i in ds.item_keys
        ]
        scores_file.write_text("\n".join(lines) + "\n")
        out = base / "imported"
        code = main([
            "run", "--config", str(config), "--out", str(out),
            "--set", "scorer.names=import",
            "--set", f"scorer.import_path={scores_file}",
        ])
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()[1:]
        assert all(line.startswith("import,") for line in lines)

    def test_comma_delimited_input_end_to_end(self, demo, tmp_path):
        config, base = demo
        cfg = load_config(config)
        data = tmp_path / "comma.csv"
        rows = [line.replace("\t", ",") for line in Path(cfg.input_path).read_text().splitlines()]
        data.write_text("user,item,weight\n" + "\n".join(rows) + "\n")
        out = tmp_path / "comma_out"
        code = main([
            "run", "--config", str(config), "--out", str(out),
            "--set", f"input.path={data}",
            "--set", "input.delimiter=comma",
            "--set", "input.header=true",
        ])
        assert code == 0
        # same interactions, same seed: identical report despite the format
        main(["run", "--config", str(config), "--out", str(tmp_path / "tab_out")])
        assert (out / "report.csv").read_bytes() == (tmp_path / "tab_out" / "report.csv").read_bytes()

    def test_per_user_lambda_rescaling_through_config(self, demo):
        # lam L at per-user scale must equal lam L*m at the averaged scale
        config, base = demo
        cfg = load_config(config)
        ds = build_dataset(read_interactions(cfg.input_path))
        out_a, out_b = base / "pu", base / "scaled"
        main(["run", "--config", str(config), "--out", str(out_a),
              "--set", "rerank.lambda_grid=0.02",
              "--set", "rerank.per_user_lambda=true"])
        main(["run", "--config", str(config), "--out", str(out_b),
              "--set", f"rerank.lambda_grid={0.02 * ds.num_users}"])
        last_a = (out_a / "report.csv").read_text().splitlines()[-1].split(",")
        last_b = (out_b / "report.csv").read_text().splitlines()[-1].split(",")
        assert last_a[3:] == last_b[3:]  # identical metrics, different lambda column

    def test_lists_files_have_documented_format(self, demo):
        config, base = demo
        main(["run", "--config", str(config)])
        lines = (base / "out" / "lists_popularity_lambda1.tsv").read_text().splitlines()
        cfg = load_config(config)
        ds = build_dataset(read_interactions(cfg.input_path))
        assert len(lines) == ds.num_users * cfg.rerank.k
        fields = lines[0].split("\t")
        assert len(fields) == 6
        assert fields[0] in ds.user_index
        assert int(fields[1]) == 1
        assert fields[2] in ds.item_index
        float(fields[3]), float(fields[4])
        assert fields[5] in ("short", "long")


class TestExitCodes:
    def test_missing_config_file_is_validation_error(self):
        assert main(["run", "--config", "/nonexistent/exp.cfg"]) == 1

    def test_unknown_key_is_validation_error(self, demo):
        config, _ = demo
        assert main(["run", "--config", str(config), "--set", "bogus.key=1"]) == 1

    def test_runtime_failure_is_exit_2(self, demo, capsys):
        # an output directory below a regular file fails when the first file is written
        config, base = demo
        (base / "blocker").write_text("")
        assert main(["run", "--config", str(config), "--out", str(base / "blocker" / "out")]) == 2
        assert "error: stage 'split_files' failed: [Errno 20] Not a directory" in capsys.readouterr().err

    def test_k_above_the_catalog_fails_before_any_file_is_written(self, demo, capsys):
        config, base = demo
        assert main(["run", "--config", str(config), "--set", "rerank.k=500"]) == 1
        assert "error: rerank.k=500 exceeds the catalog of 25 items" in capsys.readouterr().err
        assert not (base / "out").exists()

    @staticmethod
    def _config(tmp_path, rows, k):
        data = tmp_path / "log.tsv"
        data.write_text("\n".join(rows) + "\n")
        config = tmp_path / "exp.cfg"
        config.write_text(f"input.path = {data}\nscorer.names = popularity\nrerank.k = {k}\noutput.dir = {tmp_path / 'out'}\n")
        return config

    def test_heavy_user_fails_at_split_time(self, tmp_path, capsys):
        # 40 items and k = 15: after masking its 28 train items, the user
        # who saw every item has 12 left
        rows = [f"heavy\ti{i}" for i in range(40)] + [f"u{u}\ti{(7 * u + j) % 40}" for u in range(20) for j in range(6)]
        assert main(["run", "--config", str(self._config(tmp_path, rows, 15))]) == 1
        err = capsys.readouterr().err
        assert "1 users have fewer than rerank.k=15 unseen items to select (first user 'heavy' has 12)" in err
        assert not (tmp_path / "out").exists()

    def test_no_judged_user_fails_at_split_time(self, tmp_path, capsys):
        # two interactions per user: everything stays in train
        rows = [f"u{u}\ti{(u + j) % 10}" for u in range(8) for j in range(2)]
        assert main(["run", "--config", str(self._config(tmp_path, rows, 3))]) == 1
        err = capsys.readouterr().err
        assert "no user has relevance judgments: all 8 users have fewer than 3 interactions" in err
        assert "(first user 'u0')" in err
        assert not (tmp_path / "out").exists()

    def test_single_user_fails_at_split_time(self, tmp_path, capsys):
        rows = [f"solo\ti{i}" for i in range(30)]
        assert main(["run", "--config", str(self._config(tmp_path, rows, 5))]) == 1
        err = capsys.readouterr().err
        assert "a run needs at least 2 users" in err
        assert "got 1 (first user 'solo')" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_verify_needs_at_least_one_instance(self, capsys, count):
        assert main(["verify", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert f"--instances must be >= 1, got {count}" in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize("argv", [["--seed", "3"], ["--config", "x.cfg"]], ids=["seed", "config"])
    def test_verify_rejects_data_command_flags(self, capsys, argv):
        assert main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(argv)}" in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize(
        "argv, key",
        [(["--seed", "-1"], "split.seed"), *((["--set", f"{key}=-1"], key) for key in ("split.seed", "random.seed", "mf.seed"))],
        ids=["--seed", "split.seed", "random.seed", "mf.seed"],
    )
    def test_negative_seed_is_validation_error(self, demo, capsys, argv, key):
        config, base = demo
        out = base / "neg"
        assert main(["run", "--config", str(config), "--out", str(out), *argv]) == 1
        assert f"{key}: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_battery_seed_is_validation_error(self, capsys):
        assert main(["verify", "--battery-seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--battery-seed must be >= 0, got -1" in captured.err
        assert "[PASS]" not in captured.out

    def test_malformed_log_line_is_validation_error(self, tmp_path, capsys):
        config = self._config(tmp_path, ["u0\ti0\t-3.0", "u1\ti1"], 2)
        assert main(["run", "--config", str(config)]) == 1
        assert "error: stage 'ingest' failed: line 1: negative weight -3.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_import_line_is_validation_error(self, demo, capsys):
        config, base = demo
        scores = base / "scores.tsv"
        scores.write_text("nobody\tnothing\t1.0\n")
        overrides = ["--set", "scorer.names=import", "--set", f"scorer.import_path={scores}"]
        assert main(["run", "--config", str(config), *overrides]) == 1
        assert "error: stage 'score[import]' failed: line 1: unknown user key 'nobody'" in capsys.readouterr().err

    def test_malformed_import_line_fails_before_any_file_is_written(self, demo, capsys):
        # popularity scores before import, so a check at score time would
        # leave its export, its lists and the split files behind
        config, base = demo
        user, item = (base / "demo.tsv").read_text().split("\n")[0].split("\t")[:2]
        scores = base / "scores.tsv"
        scores.write_text(f"{user}\t{item}\t0.5\n\n{user}\t{item}\tnot-a-number\n")
        overrides = ["--set", "scorer.names=popularity,import", "--set", f"scorer.import_path={scores}"]
        assert main(["run", "--config", str(config), *overrides]) == 1
        assert "error: stage 'score[import]' failed: line 3: unparseable score 'not-a-number'" in capsys.readouterr().err
        assert not (base / "out").exists()

    @pytest.mark.parametrize(
        "mask, short",
        [("true", "2 users have fewer than rerank.k=4 selectable imported cells with scorer.fill = sentinel "
                  "(first user 'u0' has 3)"),
         ("false", "1 users have fewer than rerank.k=4 selectable imported cells with scorer.fill = sentinel "
                   "(first user 'u39' has 0)")],
        ids=["mask_seen", "no_mask"],
    )
    def test_partial_sentinel_import_fails_before_any_file_is_written(self, demo, capsys, mask, short):
        # u0 has scores for its 8 logged items only, 5 of them seen in train;
        # u39 has none; everyone else has the whole catalog
        config, base = demo
        log = (base / "demo.tsv").read_text().splitlines()
        items = sorted({line.split("\t")[1] for line in log})
        lines = [f"u{u}\t{i}\t0.5" for u in range(1, 39) for i in items]
        lines += [line.rsplit("\t", 1)[0] + "\t0.5" for line in log if line.startswith("u0\t")]
        scores = base / "scores.tsv"
        scores.write_text("\n".join(lines) + "\n")
        overrides = ["scorer.names=popularity,import", f"scorer.import_path={scores}", "scorer.fill=sentinel",
                     f"scorer.mask_seen={mask}"]
        assert main(["run", "--config", str(config), *(arg for o in overrides for arg in ("--set", o))]) == 1
        assert f"error: stage 'score[import]' failed: {short}" in capsys.readouterr().err
        assert not (base / "out").exists()

    def test_single_item_lists_rejected_at_config_time(self, demo, capsys):
        config, _ = demo
        assert main(["run", "--config", str(config), "--set", "rerank.k=1"]) == 1
        assert "rerank.k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key, value",
        [("scorer.names=popularity,popularity", "scorer.names", "'popularity'"), ("report.formats=csv,csv", "report.formats", "'csv'")],
    )
    def test_duplicate_list_value_is_validation_error(self, demo, capsys, override, key, value):
        config, base = demo
        assert main(["run", "--config", str(config), "--out", str(base / "dup"), "--set", override]) == 1
        err = capsys.readouterr().err
        assert key in err and value in err
        assert not (base / "dup").exists()

    def test_bad_usage_is_validation_error(self):
        assert main(["run"]) == 1

    def test_removed_staged_command_is_validation_error(self, demo, capsys):
        config, _ = demo
        assert main(["score", "--config", str(config)]) == 1
        assert "invalid choice: 'score'" in capsys.readouterr().err

    def test_verify_passes_on_correct_build(self, capsys):
        assert main(["verify", "--instances", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4


def _readme_cli():
    """The README's command set, the flags of `split` and `run`, and the
    flags of `verify`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = set(re.findall(r"`([a-z]+)`", text.split("\nCommands: ", 1)[1].split("\n", 1)[0]))
    data = text.split("\nFlags on `split` and `run`: ", 1)[1].split("\n\n", 1)[0]
    verify = text.split("\n`verify` takes only its own two flags: ", 1)[1].split("\n\n", 1)[0]
    return commands, *(set(re.findall(r"`(--[a-z-]+)", part)) for part in (data, verify))


def test_readme_flags_match_the_parser():
    readme_commands, data_flags, verify_flags = _readme_cli()
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == readme_commands
    assert verify_flags == {"--instances", "--battery-seed"}
    for name, cmd in commands.items():
        flags = {flag for action in cmd._actions for flag in action.option_strings} - {"-h", "--help"}
        assert flags == (verify_flags if name == "verify" else data_flags), name
