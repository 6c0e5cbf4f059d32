import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raises_exactly
from fairrerank import pipeline, scorers
from fairrerank.cli import _build_parser, _overrides_from_args, main
from fairrerank.config import (
    ConfigError,
    build_config,
    config_snapshot,
    load_config,
    parse_config_text,
)
from fairrerank.dataset import (
    DELIMITER_NAMES, build_dataset, distinct_user_counts, partition_popularity, read_interactions, split,
)
from fairrerank.metrics import eval_context, evaluate
from fairrerank.pipeline import run_experiment
from fairrerank.rerank import RerankConfig, rerank_path, write_lists
from fairrerank.scorers import (
    ScoreBlocks, ScoreMatrix, load_scores, mask_seen, popularity_blocks, popularity_scorer, random_blocks, write_scores,
)
from fairrerank.synthetic import write_zipf_dataset, zipf_interaction_lines
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
        manifest = json.loads((out_a / "manifest.json").read_text())
        names = ("train", "valid", "test", "partition")
        assert manifest["outputs"] == {name: sha256_file(out_a / f"{name}.tsv") for name in names}

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

    @pytest.mark.parametrize("command, key", [("split", "input"), ("run", "input"), ("run", "import")])
    def test_manifest_hashes_the_input_bytes_that_were_read(self, demo, command, key):
        # each input sits where the run writes an output over it
        config, base = demo
        out = base / "loop"
        out.mkdir()
        paths = {"input": out / "train.tsv", "import": out / "scores_import.tsv"}
        paths["input"].write_bytes((base / "demo.tsv").read_bytes())
        paths["import"].write_text("u0\ti0\t0.5\n")
        overrides = [f"input.path={paths['input']}"]
        if key == "import":
            overrides += ["scorer.names=import", f"scorer.import_path={paths['import']}"]
        read = sha256_file(paths[key])
        assert main([command, "--config", str(config), "--out", str(out), *(a for o in overrides for a in ("--set", o))]) == 0
        assert sha256_file(paths[key]) != read
        assert json.loads((out / "manifest.json").read_text())["inputs"][key] == read

    def test_import_is_parsed_once_and_every_stage_recorded_once(self, demo, monkeypatch):
        config, base = demo
        scores = base / "ext.tsv"
        scores.write_text("u0\ti0\t0.25\nu1\ti1\t-0.5\n")  # the other cells take scorer.fill
        cfg = load_config(config, {"scorer.names": "popularity,import,random", "scorer.import_path": str(scores),
                                   "output.dir": str(base / "once")})
        parses, reads, stages = [], [], []

        def counted_load_scores(*args, **kwargs):
            parses.append(args)
            return load_scores(*args, **kwargs)

        def counted_open(file, mode="r", *args, **kwargs):
            if str(file) == str(scores) and "b" not in mode:  # the manifest hashes it in binary mode
                reads.append(mode)
            return builtin_open(file, mode, *args, **kwargs)

        def recorded_run(clock, stage, func, *args, **kwargs):
            stages.append(stage)
            return clock_run(clock, stage, func, *args, **kwargs)

        clock_run, builtin_open = pipeline._StageClock.run, open
        monkeypatch.setattr(scorers, "load_scores", counted_load_scores)
        monkeypatch.setattr("builtins.open", counted_open)
        monkeypatch.setattr(pipeline._StageClock, "run", recorded_run)
        result = run_experiment(cfg)
        assert len(parses) == 1 and len(reads) == 1
        assert len(stages) == len(set(stages)) and "score[import]" in stages
        # every scorer is made in the gate, before the first write
        scored = [stage for stage in stages if stage.startswith("score[")]
        assert sorted(scored) == ["score[import]", "score[popularity]", "score[random]"]
        assert max(map(stages.index, scored)) < stages.index("split_files")
        assert [row.model for row in result.rows] == ["popularity"] * 3 + ["import"] * 3 + ["random"] * 3

    def test_each_scorer_records_one_evaluate_stage(self, demo):
        config, base = demo
        cfg = load_config(config, {"scorer.names": "popularity,random", "rerank.lambda_grid": "0,1,4,9",
                                   "output.dir": str(base / "grid")})
        run_experiment(cfg)
        stages = json.loads((base / "grid" / "manifest.json").read_text())["stages_seconds"]
        assert sorted(key for key in stages if key.startswith("evaluate[")) == ["evaluate[popularity]", "evaluate[random]"]
        assert len(cfg.rerank.lambda_grid) == 4 and sum(key.startswith("lists_file[") for key in stages) == 8

    def test_output_scores_none_writes_no_score_file(self, demo):
        config, base = demo
        scorer_set = ["--set", "scorer.names=popularity,random"]
        assert main(["run", "--config", str(config), "--out", str(base / "tsv"), *scorer_set]) == 0
        assert main(["run", "--config", str(config), "--out", str(base / "none"), *scorer_set,
                     "--set", "output.scores=none"]) == 0
        full, bare = (json.loads((base / run / "manifest.json").read_text()) for run in ("tsv", "none"))
        assert "output.scores" not in full["config"] and bare["config"]["output.scores"] == "none"
        assert sorted(set(full["outputs"]) - set(bare["outputs"])) == ["scores_popularity", "scores_random"]
        assert not list((base / "none").glob("scores_*")) and len(list((base / "tsv").glob("scores_*"))) == 2
        assert all(bare["outputs"][name] == full["outputs"][name] for name in bare["outputs"])
        assert not any(key.startswith("score_file[") for key in bare["stages_seconds"])

    def test_manifest_config_snapshot_round_trips(self, demo):
        config, base = demo
        main(["run", "--config", str(config)])
        manifest = json.loads((base / "out" / "manifest.json").read_text())
        cfg = load_config(config)
        assert build_config(manifest["config"]) == cfg

    @pytest.mark.parametrize("command", ["split", "run"])
    def test_out_is_applied_after_every_set_and_the_manifest_names_it(self, demo, command):
        config, base = demo
        out = base / "flag"
        assert main([command, "--config", str(config), "--out", str(out), "--set", f"output.dir={base / 'set'}"]) == 0
        assert sorted(path.name for path in base.iterdir()) == ["demo.tsv", "exp.cfg", "flag"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["output.dir"] == str(out)
        assert build_config(manifest["config"]) == load_config(config, {"output.dir": str(out)})

    def test_n_row_matches_direct_evaluation(self, demo):
        # cross-path consistency: the CLI's N row equals evaluating the
        # scorer's plain top-K built from the library directly
        config, base = demo
        cfg = load_config(config, {"output.dir": str(base / "direct")})
        result = run_experiment(cfg)
        ds = build_dataset(read_interactions(cfg.input_path))
        triple = split(ds, cfg.ratios, cfg.split_seed)
        part = partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
        scores = mask_seen(popularity_scorer(triple.train), triple.train)
        lists = rerank_path(scores, part, RerankConfig(k=cfg.rerank.k), (0.0,))[0]
        direct = evaluate(eval_context(triple.test, triple.train, part, cfg.rerank.k), [lists])[0]
        n_row = next(row.report for row in result.rows if row.row_type == "N")
        assert n_row == direct

    def test_in_place_masking_matches_masking_a_copy(self, demo, tmp_path):
        # the run masks each block of users as the re-ranker reads it; the
        # files must equal those from masking a held copy in place
        config, base = demo
        cfg = load_config(config, {"scorer.names": "popularity,random", "output.dir": str(base / "direct")})
        result = run_experiment(cfg)
        ds = build_dataset(read_interactions(cfg.input_path))
        triple = split(ds, cfg.ratios, cfg.split_seed)
        part = partition_popularity(triple.train, ds.num_items, cfg.partition_ratio)
        lambdas = cfg.rerank.lambda_grid
        for name, raw in (
            ("popularity", popularity_scorer(triple.train)),
            ("random", ScoreMatrix(random_blocks(ds.num_users, ds.num_items, cfg.random_seed).rows(0, ds.num_users))),
        ):
            export, _ = write_scores(tmp_path / f"scores_{name}.tsv", raw, ds)
            assert result.files[f"scores_{name}"].read_bytes() == export.read_bytes()
            masked = mask_seen(ScoreMatrix(raw.values.copy()), triple.train)
            for lam, lists in zip(lambdas, rerank_path(masked, part, cfg.rerank, lambdas)):
                expected, _ = write_lists(tmp_path / "l.tsv", lists, ds, part)
                assert result.files[f"lists_{name}_lambda{lam:g}"].read_bytes() == expected.read_bytes()
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["outputs"] == {name: sha256_file(path) for name, path in result.files.items()}

    def test_an_imported_export_gives_the_scorer_s_lists_and_rows(self, demo):
        # mf's export, read back as a held matrix and masked block by block,
        # must give mf's list files byte for byte and its report rows
        config, base = demo
        out, imp = base / "out", base / "imp"
        assert main(["run", "--config", str(config), "--set", "scorer.names=popularity,mf"]) == 0
        assert main(["run", "--config", str(config), "--out", str(imp), "--set", "scorer.names=import",
                     "--set", f"scorer.import_path={out / 'scores_mf.tsv'}", "--set", "output.scores=none"]) == 0
        imported = sorted(imp.glob("lists_import_lambda*.tsv"))
        assert [path.name.replace("import", "mf") for path in imported] == sorted(
            path.name for path in out.glob("lists_mf_lambda*.tsv"))
        assert len(imported) == 3
        for path in imported:
            assert path.read_bytes() == (out / path.name.replace("import", "mf")).read_bytes()

        def rows(report, model):
            lines = report.read_text().splitlines()[1:]
            return [line.split(",", 1)[1] for line in lines if line.split(",", 1)[0] == model]

        assert rows(imp / "report.csv", "import") == rows(out / "report.csv", "mf") != []
        assert not list(imp.glob("scores_*.tsv"))

    def test_format_flag_restricts_outputs(self, demo):
        config, base = demo
        out = base / "only_json"
        main(["run", "--config", str(config), "--out", str(out), "--set", "report.formats=json"])
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

    def test_negative_zero_in_the_grid_changes_no_byte(self, demo):
        config, base = demo
        manifests = []
        for grid in ("-0,2", "0,2"):
            argv = ["run", "--config", str(config), "--out", str(base / grid), "--set", f"rerank.lambda_grid={grid}"]
            assert main(argv) == 0
            manifests.append(json.loads((base / grid / "manifest.json").read_text()))
        names = sorted(path.name for path in (base / "0,2").iterdir())
        assert names == sorted(path.name for path in (base / "-0,2").iterdir())
        assert "lists_popularity_lambda0.tsv" in names
        for name in set(names) - {"manifest.json"}:
            assert (base / "-0,2" / name).read_bytes() == (base / "0,2" / name).read_bytes(), name
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        configs = [{**manifest["config"], "output.dir": None} for manifest in manifests]  # two directories
        assert configs[0] == configs[1]

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

    def test_a_run_counts_the_train_users_per_item_once(self, demo, monkeypatch):
        # the partition's counts serve the popularity scorer and the metrics
        config, _ = demo
        inputs = []

        def counting(inter, num_items):
            inputs.append(inter)
            return distinct_user_counts(inter, num_items)

        for name, module in list(sys.modules.items()):
            if name.startswith("fairrerank") and getattr(module, "distinct_user_counts", None) is distinct_user_counts:
                monkeypatch.setattr(module, "distinct_user_counts", counting)
        assert main(["run", "--config", str(config), "--set", "scorer.names=popularity,mf"]) == 0
        assert len(inputs) == 1


class TestExitCodes:
    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        assert main(["run", "--config", "/nonexistent/exp.cfg"]) == 1
        # so is a config file that is not UTF-8; the message names it
        config = tmp_path / "exp.cfg"
        config.write_bytes(f"output.dir = {tmp_path / 'out'}\n# caf".encode() + b"\xe9\n")
        assert main(["run", "--config", str(config)]) == 1
        assert f"error: config file {config} is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_validation_error(self, demo):
        config, _ = demo
        assert main(["run", "--config", str(config), "--set", "bogus.key=1"]) == 1

    def test_runtime_failure_is_exit_2(self, demo, capsys):
        # a directory in the way of the first file written
        config, base = demo
        (base / "out" / "train.tsv").mkdir(parents=True)
        assert main(["run", "--config", str(config)]) == 2
        assert "error: stage 'split_files' failed: [Errno 21] Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["split", "run"])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_a_file"])
    def test_an_output_dir_at_or_under_a_file_fails_at_config_time(self, demo, capsys, command, under):
        config, base = demo
        blocker = base / "blocker"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: output.dir {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["split", "run"])
    @pytest.mark.parametrize(
        "flags, message",
        [(["--out", ""], "output.dir: expected a path"),
         (["--set", "input.delimiter="], "input.delimiter: expected 'tab' or 'comma', got ''")],
        ids=["out", "delimiter"],
    )
    def test_an_empty_value_fails_at_config_time(self, demo, capsys, monkeypatch, command, flags, message):
        # the config file sets the key; an empty value neither keeps the
        # file's value nor falls back to the built-in default (out/)
        config, base = demo
        text = config.read_text().replace(f"output.dir = {base / 'out'}", f"output.dir = {base / 'mine'}")
        config.write_text(text + "input.delimiter = tab\n")
        monkeypatch.chdir(base)
        assert main([command, "--config", str(config), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (base / "mine").exists() and not (base / "out").exists()

    @pytest.mark.parametrize(
        "blocked, stage",
        [("lists_popularity_lambda4.tsv", "lists_file[popularity,4]"), ("report.csv", "report_file[csv]"),
         ("report.md", "report_file[md]"), ("manifest.json", "manifest")],
    )
    def test_a_failed_write_names_its_stage(self, demo, capsys, blocked, stage):
        # a directory in the way of the output file
        config, base = demo
        (base / "out" / blocked).mkdir(parents=True)
        assert main(["run", "--config", str(config)]) == 2
        assert f"error: stage '{stage}' failed: [Errno 21] Is a directory" in capsys.readouterr().err

    def test_a_failed_mask_names_its_stage(self, demo, capsys, monkeypatch):
        # the re-ranker stamps each block's seen cells as it reads the block
        def read_only_scores(counts, num_users):
            source = popularity_blocks(counts, num_users)

            def rows(lo, hi):
                block = source.rows(lo, hi)
                block.setflags(write=False)
                return block

            return ScoreBlocks(source.num_users, source.num_items, rows)

        config, _ = demo
        monkeypatch.setattr(pipeline, "popularity_blocks", read_only_scores)
        assert main(["run", "--config", str(config)]) == 2
        assert "error: stage 'rerank[popularity]' failed: assignment destination is read-only" in capsys.readouterr().err

    def test_lambda_points_sharing_a_label_fail_before_any_file_is_written(self, demo, capsys):
        config, base = demo
        assert main(["run", "--config", str(config), "--set", "rerank.lambda_grid=0.5,1.0000001,1.0000002"]) == 1
        assert ("error: rerank.lambda_grid: 1.0000001 and 1.0000002 share the label '1' that names their list "
                "files and report rows") in capsys.readouterr().err
        assert not (base / "out").exists()

    def test_k_above_the_catalog_fails_before_any_file_is_written(self, demo, capsys):
        config, base = demo
        assert main(["run", "--config", str(config), "--set", "rerank.k=500"]) == 1
        assert "error: rerank.k=500 exceeds the catalog of 25 items" in capsys.readouterr().err
        assert not (base / "out").exists()

    @staticmethod
    def _config(tmp_path, rows, k, delimiter="tab"):
        # a surrogate-escaped character in a row is written as the byte it escapes
        data = tmp_path / "log.tsv"
        data.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        config = tmp_path / "exp.cfg"
        config.write_text(f"input.path = {data}\ninput.delimiter = {delimiter}\nscorer.names = popularity\n"
                          f"rerank.k = {k}\noutput.dir = {tmp_path / 'out'}\n")
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

    @pytest.mark.parametrize("argv", [["--set", "split.seed=3"], ["--config", "x.cfg"]], ids=["seed", "config"])
    def test_verify_rejects_data_command_flags(self, capsys, argv):
        assert main(["verify", *argv]) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(argv)}" in captured.err
        assert "[PASS]" not in captured.out

    @pytest.mark.parametrize("key", ["split.seed", "random.seed", "mf.seed"])
    def test_negative_seed_is_validation_error(self, demo, capsys, key):
        config, base = demo
        out = base / "neg"
        assert main(["run", "--config", str(config), "--out", str(out), "--set", f"{key}=-1"]) == 1
        assert f"{key}: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_battery_seed_is_validation_error(self, capsys):
        assert main(["verify", "--battery-seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--battery-seed must be >= 0, got -1" in captured.err
        assert "[PASS]" not in captured.out

    def test_malformed_log_line_is_validation_error(self, tmp_path, capsys):
        unwritable = "holds a TAB or a byte that is not UTF-8"
        users = ["u0", "u1", "u2", "user\tthree"]
        cases = [
            ("run", "tab", ["u0\ti0\t-3.0", "u1\ti1"], "line 1: negative weight -3.0"),
            # a log that runs but for its key with a TAB; every output is
            # TAB-separated, so no key may hold one
            ("run", "comma", [f"{u},i{(j + n) % 8}" for n, u in enumerate(users) for j in range(5)],
             f"line 16: key 'user\\tthree' {unwritable}"),
            # a 0xff byte, which no UTF-8 text holds
            ("run", "tab", ["u0\ti0", "u1\ti\udcff1"], f"line 2: key 'i\\udcff1' {unwritable}"),
            ("split", "tab", ["u0\ti0", "u1\ti\udcff1"], f"line 2: key 'i\\udcff1' {unwritable}"),
        ]
        for at, (command, delimiter, rows, message) in enumerate(cases):
            base = tmp_path / str(at)
            base.mkdir()
            assert main([command, "--config", str(self._config(base, rows, 2, delimiter))]) == 1
            assert f"error: stage 'ingest' failed: {message}" in capsys.readouterr().err
            assert not (base / "out").exists()

    def test_malformed_import_line_is_validation_error(self, demo, capsys):
        config, base = demo
        user, item = (base / "demo.tsv").read_text().split("\n")[0].split("\t")[:2]
        cases = [
            (b"nobody\tnothing\t1.0\n", "line 1: unknown user key 'nobody'"),
            # a 0xfe byte, which no UTF-8 text holds
            (f"{user}\t{item}\t0.5\n".encode() + b"u\xfe\ti0\t1.0\n", "line 2: byte 0xfe is not UTF-8"),
            # in the score field, too, the cause is named, not the parse error it leads to
            (f"{user}\t{item}\t".encode() + b"0.5\xfe\n", "line 1: byte 0xfe is not UTF-8"),
        ]
        scores = base / "scores.tsv"
        overrides = ["--set", "scorer.names=import", "--set", f"scorer.import_path={scores}"]
        for text, message in cases:
            scores.write_bytes(text)
            assert main(["run", "--config", str(config), *overrides]) == 1
            assert f"error: stage 'score[import]' failed: {message}" in capsys.readouterr().err
            assert not (base / "out").exists()

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


SRC = Path(__file__).resolve().parents[1] / "src"
_MAIN = "import sys; from fairrerank.cli import main; code = main(sys.argv[1:]); print('numpy.ma' in sys.modules); sys.exit(code)"


def _cli_process(cwd, *argv):
    """`main(argv)` in a new interpreter that imports fairrerank from src/;
    the last line of its stdout says whether numpy.ma was loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("per_user", ["false", "true"])
def test_a_lambda_near_the_float_maximum_runs_without_a_warning(demo, per_user):
    # the objective of λ = 1e308 overflows: summed over the 40 users, or
    # over each user's 4 items when λ is per user
    config, base = demo
    result = _cli_process(base, "run", "--config", str(config), "--set", "rerank.lambda_grid=1e308",
                          "--set", f"rerank.per_user_lambda={per_user}")
    assert (result.returncode, result.stderr) == (0, "")
    assert (base / "out" / "lists_popularity_lambda1e+308.tsv").is_file()


@pytest.mark.parametrize("score", ["1.7e+308", "-1.7e+308"])
def test_an_imported_score_a_lambda_shifts_out_of_range_fails_before_any_write(demo, score):
    # λ = 1e308 per item takes 1.7e308 past the float maximum in long-tail
    # columns and -1.7e308 past its negative in short-head ones
    config, base = demo
    lines = (base / "demo.tsv").read_text().splitlines()
    users, items = ({line.split("\t")[field] for line in lines} for field in (0, 1))
    (base / "scores.tsv").write_text("".join(f"{u}\t{i}\t{score}\n" for u in sorted(users) for i in sorted(items)))
    overrides = ["scorer.names=import", f"scorer.import_path={base / 'scores.tsv'}", "rerank.lambda_grid=1e308",
                 "rerank.per_user_lambda=true"]
    result = _cli_process(base, "run", "--config", str(config), *(arg for o in overrides for arg in ("--set", o)))
    assert result.returncode == 1
    assert re.fullmatch(rf"error: stage 'score\[import\]' failed: rerank.lambda_grid point 1e\+308 shifts the "
                        rf"imported score {re.escape(score)} of item '[^']+' out of the float range\n", result.stderr)
    assert not (base / "out").exists()


@pytest.mark.parametrize("weight, alpha, failure", [
    ("1e+300", "40.0", "a singular system at ALS iteration 11"),
    ("1.0", "1e+308", "non-finite factor values at ALS iteration 0"),
], ids=["weight", "alpha"])
def test_an_als_run_that_overflows_fails_before_any_write(demo, weight, alpha, failure):
    # the confidence 1 + mf.alpha * w overflows in the first half-step at
    # mf.alpha = 1e308; at weights of 1e300 it swamps the 1.0 on the
    # diagonal of the L x L systems, and at iteration 11 one of them (an
    # item's, 25 x 25) is exactly singular
    config, base = demo
    lines = (base / "demo.tsv").read_text().splitlines()
    (base / "heavy.tsv").write_text("".join(line.rsplit("\t", 1)[0] + f"\t{weight}\n" for line in lines))
    overrides = [f"input.path={base / 'heavy.tsv'}", "scorer.names=mf", f"mf.alpha={alpha}"]
    result = _cli_process(base, "run", "--config", str(config), *(arg for o in overrides for arg in ("--set", o)))
    assert result.returncode == 1
    assert result.stderr == (f"error: stage 'score[mf]' failed: {failure}: "
                             f"mf.alpha = {alpha} with the largest train weight {weight} and mf.reg = 0.05\n")
    assert not (base / "out").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_run_and_verify_do_not_load_numpy_ma(demo, command):
    # np.unique loads numpy.ma on numpy 2.x, about 11 ms of every process
    config, base = demo
    numpy_only = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                                capture_output=True, text=True, timeout=60)
    if numpy_only.stdout.split() == ["True"]:
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    argv = ["verify", "--instances", "20"] if command == "verify" else [
        "run", "--config", str(config), "--set", "scorer.names=popularity,mf", "--set", "mf.iters=2"]
    result = _cli_process(base, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-1] == "False"


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


def _stage_peaks(tmp_path, users, items):
    """The tracemalloc peak of each stage of a popularity,random run over a
    log of `users` users that names every one of `items` items, each peak
    taken above what was traced when the stage began."""
    rng = np.random.default_rng(users)
    lines = [f"u{u}\ti{i}" for u in range(users) for i in rng.choice(items, size=10, replace=False).tolist()]
    lines += [f"u{i % users}\ti{i}" for i in range(items)]
    data = tmp_path / f"log{users}.tsv"
    data.write_text("\n".join(lines) + "\n")
    cfg = build_config({"input.path": str(data), "scorer.names": "popularity,random", "rerank.k": "10",
                        "rerank.lambda_grid": "2", "report.formats": "csv", "output.dir": str(tmp_path / f"out{users}")})
    peaks, run = {}, pipeline._StageClock.run

    def traced(self, stage, func, *args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run(self, stage, func, *args, **kwargs)
        peaks[stage] = tracemalloc.get_traced_memory()[1] - start
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline._StageClock, "run", traced)
        tracemalloc.start()
        try:
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
    return peaks


def test_score_stages_never_hold_a_users_by_items_matrix(monkeypatch, tmp_path):
    # 4x the users on the same catalog: an m x n float64 matrix would add
    # 3 * m * n * 8 bytes to a stage's peak; each may grow by a quarter of
    # it. Blocks of 5 users keep the run small while both runs read many
    # blocks, so neither peak is set by a short last block.
    monkeypatch.setattr(scorers, "_BLOCK_CELLS", 4000)
    m, n = 50, 800
    small, large = (_stage_peaks(tmp_path, users, n) for users in (m, 4 * m))
    bound = 3 * m * n * 8 // 4
    for name in ("popularity", "random"):
        for stage in (f"score[{name}]", f"score_file[{name}]", f"rerank[{name}]"):
            growth = large[stage] - small[stage]
            assert growth < bound, f"{stage} peak grew by {growth} bytes, bound {bound}"


@given(
    shape=st.tuples(st.integers(3, 12), st.integers(6, 12), st.integers(3, 6), st.integers(0, 2**16)),
    weight=st.floats(1.0, 1e308),
    alpha=st.floats(1.0, 1e308),
    reg=st.floats(1e-300, 1e300),
    iters=st.integers(1, 3),
)
@settings(max_examples=20, deadline=None, derandomize=True)  # the same examples on every run
def test_a_run_exits_0_or_fails_before_any_write(shape, weight, alpha, reg, iters):
    # warnings are errors here, and the CLI turns one into exit 2
    users, items, per_user, seed = shape
    rng = np.random.default_rng(seed)
    lines = [line.rsplit("\t", 1)[0] + ("\t" + repr(weight) if heavy else "")
             for line, heavy in zip(zipf_interaction_lines(users, items, 1.0, per_user, seed),
                                    rng.random(users * per_user) < 0.5)]
    with tempfile.TemporaryDirectory() as tmp:
        data, config, out = Path(tmp) / "log.tsv", Path(tmp) / "exp.cfg", Path(tmp) / "out"
        data.write_text("\n".join(lines) + "\n")
        config.write_text(f"input.path = {data}\nscorer.names = popularity,mf\nmf.dim = 3\nmf.iters = {iters}\n"
                          f"mf.alpha = {alpha!r}\nmf.reg = {reg!r}\nrerank.k = 2\nrerank.lambda_grid = 0,2\n"
                          f"output.dir = {out}\nreport.formats = csv\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
        assert code in (0, 1), err.getvalue()
        assert code == 0 or not out.exists(), err.getvalue()


_KEY_LETTERS = "aZ9é中ß \"'#,"  # non-ASCII letters, an inner space, a quote, a hash and a comma


@st.composite
def _census_runs(draw):
    """A log of awkward keys and shapes and one value drawn for each of the
    other config keys: (log lines, config lines)."""
    delimiter = draw(st.sampled_from(["tab", "comma"]))
    letters = _KEY_LETTERS if delimiter == "tab" else _KEY_LETTERS.replace(",", "")
    key = st.text(letters, min_size=1, max_size=6).map(lambda text: f"k{text}k")  # no key strips to empty
    k = draw(st.integers(2, 5))
    users, items = draw(st.integers(2, 15)), draw(st.integers(k, 25))
    user_keys = draw(st.lists(key, min_size=users, max_size=users, unique=True))
    item_keys = draw(st.lists(key, min_size=items, max_size=items, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lines = [f"{user}{DELIMITER_NAMES[delimiter]}{item_keys[i]}" for user in user_keys
             for i in rng.choice(items, size=int(rng.integers(1, min(8, items) + 1)), replace=False).tolist()]
    train = draw(st.floats(0.001, 0.997))
    valid = draw(st.floats(0.001, 0.998 - train))
    grid = draw(st.lists(st.floats(0.0, 1e308) | st.sampled_from([2.0, 1e308]), min_size=1, max_size=4, unique=True))
    names = draw(st.lists(st.sampled_from(["popularity", "mf", "random"]), min_size=1, max_size=3, unique=True))
    formats = draw(st.lists(st.sampled_from(["csv", "json", "md"]), min_size=1, max_size=3, unique=True))
    config = [
        f"input.delimiter = {delimiter}",
        f"partition.ratio = {draw(st.floats(0.001, 0.999))!r}",
        f"split.ratios = {train!r},{valid!r},{1.0 - train - valid!r}",
        f"rerank.k = {k}",
        f"rerank.pool_size = {draw(st.sampled_from([0, k, items, 1000]))}",
        f"rerank.per_user_lambda = {draw(st.booleans())}",
        f"rerank.lambda_grid = {','.join(map(repr, sorted(grid)))}",
        f"scorer.mask_seen = {draw(st.booleans())}",
        f"scorer.names = {','.join(names)}",
        "mf.dim = 3",
        "mf.iters = 2",
        f"output.scores = {draw(st.sampled_from(['tsv', 'none']))}",
        f"report.formats = {','.join(formats)}",
    ]
    return lines, config


@given(run=_census_runs())
@settings(max_examples=30, deadline=None, derandomize=True)  # the same examples on every run
def test_any_config_exits_0_or_fails_before_any_write(run):
    # warnings are errors here, and the CLI turns one into exit 2
    lines, config = run
    with tempfile.TemporaryDirectory() as tmp:
        data, path, out = Path(tmp) / "log.txt", Path(tmp) / "exp.cfg", Path(tmp) / "out"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        path.write_text("\n".join([f"input.path = {data}", f"output.dir = {out}", *config]) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path)])
        assert code in (0, 1), err.getvalue()
        assert (out / "manifest.json").is_file() if code == 0 else not out.exists(), err.getvalue()


@pytest.mark.parametrize("item", ["rerank.k", "rerank.k 3", "", "=3", " =3"])
def test_a_set_without_an_equals_sign_is_a_config_error(item):
    args = argparse.Namespace(overrides=[item], out=None)
    raises_exactly(ConfigError, f"--set expects KEY=VALUE, got {item!r}", lambda: _overrides_from_args(args))
