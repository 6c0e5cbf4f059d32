"""Byte identity of a whole `run`: the SHA-256 of every output file of two
small seeded Zipf runs is pinned. The digests were recorded before the
re-ranker and the metrics were vectorized, so any changed byte in a list,
score export, split file or report (reports print floats in full repr)
fails here. `manifest.json` holds wall-clock seconds, so only its
`outputs` hashes are compared. The mf scorer is left out: its floats
depend on the BLAS build, while popularity, random and imported scores do
not. The `import` variant reads a score file written from the same log.
The `comma_weights` variant reads the log comma-separated with weights that
print in every layout of `repr` (fractional, below 1e-4 and 1e-6, at least
1e16 and 1e17, -0.0). Its pool of 8 keeps short-head items in the lists,
so their adjusted scores go negative, and past -1e10 at λ = 1e12, where
`.10g` prints an exponent. Its digests were recorded before the split and
list files were written through `fairrerank.numtext`.
Every pass over the scores reads them in blocks of users, so the digests
are also checked with blocks of one user and with one block of all users."""

import hashlib
import json

import pytest

from fairrerank import scorers
from fairrerank.cli import main
from fairrerank.synthetic import write_zipf_dataset

BASE = {
    "split.seed": "7",
    "scorer.names": "popularity,random",
    "random.seed": "3",
    "rerank.k": "6",
    "rerank.lambda_grid": "0.5,2,8,40",
    "report.formats": "csv,json,md",
}

VARIANTS = {
    "plain": {},
    "pool_per_user": {"rerank.pool_size": "12", "rerank.per_user_lambda": "true", "rerank.lambda_grid": "0.01,0.05,0.2"},
    "import": {"scorer.names": "popularity,import", "scorer.fill": "sentinel"},
    "comma_weights": {"input.delimiter": "comma", "rerank.pool_size": "8", "rerank.lambda_grid": "0.5,300,1e12"},
}

# cycled over the log's lines by the comma_weights variant
WEIGHTS = ("0.30000000000000004", "2.5e-05", "3e+16", "7.0", "1e-07", "-0.0", "0.1", "1.2345678901234567e+17", "12.75")

PINNED = {
    "plain": {
        "lists_popularity_lambda0.5.tsv": "e247c4b1bc2ac7b715f9adc7f8ee296a858e8126f68b4553e61ef14579818a0d",
        "lists_popularity_lambda0.tsv": "be22ab92b37a514c3d99d5cd983905201b5a3eac4b7701733cad7dddf0eb0459",
        "lists_popularity_lambda2.tsv": "d24fce4bb23a9d0108c2ab50329d1111a59b699993981d9a84dd9010ae195dc3",
        "lists_popularity_lambda40.tsv": "a23371c465b00f6b9ff0170382a91346bc88a25b542652f37825ca438aed9835",
        "lists_popularity_lambda8.tsv": "9b64308581ff85bdc4820636205fe062c8aefa0704e2181cc9fbf9052f4400d0",
        "lists_random_lambda0.5.tsv": "e7edecb6dbc6428c05d17087b6132ce825aa0f4d7f4ad021e57fa08fe2efcfca",
        "lists_random_lambda0.tsv": "5046fe87a14ecbfcbb2b190beca913501f5a21f35de8e5d8b624c188443db7f8",
        "lists_random_lambda2.tsv": "175738d3dca3d1029230d345350977ea211091162806e153911109a984f247c1",
        "lists_random_lambda40.tsv": "5dcf63b5609fc1c9187fc4adafcc6e98c38b72f5e1b8bb2f659cbb8057bf040a",
        "lists_random_lambda8.tsv": "8f3ed4815cbc9ccf0cab467c75028dc142ce819b9214a577c9a05cb8cd07592d",
        "partition.tsv": "ec91188420b5794586a5646a0a82602ecf77953e60c71e9516f904d4856b6578",
        "report.csv": "9c395f3759b6e23cfccd6ddd9df69246490b3f7093b86551c7f0e795bd89211d",
        "report.json": "22849917801100566170f5c47cfc76f8137a0b98e6dc5c8d90091e5ab96f26be",
        "report.md": "aa372ca187bd3ec051496621b07d01e0466fd1ecd2bae6b3cd0e11d62e288bd7",
        "scores_popularity.tsv": "b21f857950eb91dc83c71675932d5fb0f6ff39f21aecb7a0cf7b0cd210bdf88c",
        "scores_random.tsv": "d87606fabea4f3aa8dc59952d28a78f4350960236ca02ec8bdab7c42a6d20417",
        "test.tsv": "07e52e9473f34680a165a56f4f918374962bc42e8919b6e781d56446f12251d6",
        "train.tsv": "9c56a81a0beafc4c7b6b14336d26208453ddb620f80d864de04db0bd6a487edb",
        "valid.tsv": "c839124ffaaca70c60af0c02ef979981beceaff326b751822c68ee05a5a3af03",
    },
    "pool_per_user": {
        "lists_popularity_lambda0.01.tsv": "7a75661a27dd2f0d0cf3a188c72810fb4cb57d52fddfe89924d4ec515f65f1ef",
        "lists_popularity_lambda0.05.tsv": "c3825642fca1a92cb0342b94d0a1549f0d621cedbfd251b0c01133b879440fea",
        "lists_popularity_lambda0.2.tsv": "c5656bddb0744b5f0aa497080082b1c89c0c656436bd646f83b85817703d0ffd",
        "lists_popularity_lambda0.tsv": "be22ab92b37a514c3d99d5cd983905201b5a3eac4b7701733cad7dddf0eb0459",
        "lists_random_lambda0.01.tsv": "5ed5cfbf0279b15f590bdebe632560e192114fd095abfdaefa284f4ef42a548b",
        "lists_random_lambda0.05.tsv": "48975006069273af9c94f3cbc47c2425169c9bfcb527096921159ced5ca6a033",
        "lists_random_lambda0.2.tsv": "717b7fb38e5111d433b77fc88d27ab7f934241dbddab9db879f86edd20df9eb6",
        "lists_random_lambda0.tsv": "5046fe87a14ecbfcbb2b190beca913501f5a21f35de8e5d8b624c188443db7f8",
        "partition.tsv": "ec91188420b5794586a5646a0a82602ecf77953e60c71e9516f904d4856b6578",
        "report.csv": "0ef1e3343bf74714b64601e30214d02a011786d59f7a43f41e2d96e24d2e920e",
        "report.json": "a984b44fd7adbb42f5c31ea407faa28a75e5a6b731abe98e701624bed4ba6155",
        "report.md": "e1f42e9eab7f645ef6f0512a1131f82580b76e7cfec2c08977e1465c2e9a1709",
        "scores_popularity.tsv": "b21f857950eb91dc83c71675932d5fb0f6ff39f21aecb7a0cf7b0cd210bdf88c",
        "scores_random.tsv": "d87606fabea4f3aa8dc59952d28a78f4350960236ca02ec8bdab7c42a6d20417",
        "test.tsv": "07e52e9473f34680a165a56f4f918374962bc42e8919b6e781d56446f12251d6",
        "train.tsv": "9c56a81a0beafc4c7b6b14336d26208453ddb620f80d864de04db0bd6a487edb",
        "valid.tsv": "c839124ffaaca70c60af0c02ef979981beceaff326b751822c68ee05a5a3af03",
    },
    "import": {
        "lists_import_lambda0.5.tsv": "7dd91a9addb0b5c70888f7c566ca7b2a481827f85554f40b46a6c49e9623ce4f",
        "lists_import_lambda0.tsv": "ec3ceb9a192bedd3f2e288cea9558e47d318cf18b44ee803ba0a38e513a3ab0a",
        "lists_import_lambda2.tsv": "a4bf007d73649dcafc2e6346cd578223d08bbe6209f4a8457e2eaa3ae07679a6",
        "lists_import_lambda40.tsv": "e25f88892b5e0af6bccb2c5c8b0f144c9be8e45bb061e5055340df278a3d64fd",
        "lists_import_lambda8.tsv": "bb92cd6d85f4901cdb31b2502b86a6db93a60486389f37c8c465c16da5841c88",
        "lists_popularity_lambda0.5.tsv": "e247c4b1bc2ac7b715f9adc7f8ee296a858e8126f68b4553e61ef14579818a0d",
        "lists_popularity_lambda0.tsv": "be22ab92b37a514c3d99d5cd983905201b5a3eac4b7701733cad7dddf0eb0459",
        "lists_popularity_lambda2.tsv": "d24fce4bb23a9d0108c2ab50329d1111a59b699993981d9a84dd9010ae195dc3",
        "lists_popularity_lambda40.tsv": "a23371c465b00f6b9ff0170382a91346bc88a25b542652f37825ca438aed9835",
        "lists_popularity_lambda8.tsv": "9b64308581ff85bdc4820636205fe062c8aefa0704e2181cc9fbf9052f4400d0",
        "partition.tsv": "ec91188420b5794586a5646a0a82602ecf77953e60c71e9516f904d4856b6578",
        "report.csv": "3630204686c3d82b2e9210d4c8c0409f08e2cde7ee592c16444dae98d1d6170f",
        "report.json": "4e2e4d48bd046358755428b8eb344e9b8ab98b4ff15555b4fe744d934637a01d",
        "report.md": "5b49e0b768b0bead599ae7663c9f37622bfdd444b30a1c96957a457ce0ee8fc1",
        "scores_import.tsv": "e75a43b1fa1c02d730487063621268a0c21a6bfbb202f7d0eb37eff9779247bd",
        "scores_popularity.tsv": "b21f857950eb91dc83c71675932d5fb0f6ff39f21aecb7a0cf7b0cd210bdf88c",
        "test.tsv": "07e52e9473f34680a165a56f4f918374962bc42e8919b6e781d56446f12251d6",
        "train.tsv": "9c56a81a0beafc4c7b6b14336d26208453ddb620f80d864de04db0bd6a487edb",
        "valid.tsv": "c839124ffaaca70c60af0c02ef979981beceaff326b751822c68ee05a5a3af03",
    },
    "comma_weights": {
        "lists_popularity_lambda0.5.tsv": "e247c4b1bc2ac7b715f9adc7f8ee296a858e8126f68b4553e61ef14579818a0d",
        "lists_popularity_lambda0.tsv": "be22ab92b37a514c3d99d5cd983905201b5a3eac4b7701733cad7dddf0eb0459",
        "lists_popularity_lambda1e+12.tsv": "3d36286fa2d07577afee963f22a25327e3586f20d48a30c96403967131151e1a",
        "lists_popularity_lambda300.tsv": "2c60a94d4bc7bf4708bb644263b12546db70055043e13f0860d00342f51086ec",
        "lists_random_lambda0.5.tsv": "e7edecb6dbc6428c05d17087b6132ce825aa0f4d7f4ad021e57fa08fe2efcfca",
        "lists_random_lambda0.tsv": "5046fe87a14ecbfcbb2b190beca913501f5a21f35de8e5d8b624c188443db7f8",
        "lists_random_lambda1e+12.tsv": "0523e3c4b7ab078441132b261c4fba2ff82219e0ab34533ce9a094da0502e05d",
        "lists_random_lambda300.tsv": "9478b4257b1d1d014f35b20483328791435bb11f8021729c72d364d0506ce56f",
        "partition.tsv": "ec91188420b5794586a5646a0a82602ecf77953e60c71e9516f904d4856b6578",
        "report.csv": "264ac9be79c4b9a829685a7ad31bc7c27ff4311231d090caa10258bef01b371f",
        "report.json": "8c3ae7eec8ac436297f7a3d42120a15f52c6209e282e80f6e4debe88cb7a6e27",
        "report.md": "efeb7d43ec06afc291dd17ade8da4177814d55ed16a987c6a1e5f6b27679a9fe",
        "scores_popularity.tsv": "b21f857950eb91dc83c71675932d5fb0f6ff39f21aecb7a0cf7b0cd210bdf88c",
        "scores_random.tsv": "d87606fabea4f3aa8dc59952d28a78f4350960236ca02ec8bdab7c42a6d20417",
        "test.tsv": "0914ac7102718cc128f651890ef2f77bb930a8b4e61dc913b71038e4d392adb2",
        "train.tsv": "632e1b0504d0d999b59cc8f7c18750ca8eade980289fb8493eee9c0a8394dad3",
        "valid.tsv": "5cde73d3650fc4cb5e3b1560bea7f89fd08617a1074e3a2137216d264489a8c9",
    },
}


def _write_import_scores(data, path):
    """A score file over the log's own keys: every fifth cell is left out (it
    takes scorer.fill), zero scores are written both as 0.0 and as -0.0, and
    one cell is given twice, where the later line must win."""
    fields = [line.split("\t") for line in data.read_text().splitlines()]
    users = list(dict.fromkeys(f[0] for f in fields))
    items = list(dict.fromkeys(f[1] for f in fields))
    lines = [f"{users[0]}\t{items[1]}\t9.5"]
    for a, user in enumerate(users):
        for b, item in enumerate(items):
            if (a + b) % 5:
                score = ((3 * a + 7 * b) % 11 - 5) / 4
                text = "-0.0" if score == 0 and (a + b) % 2 else repr(score)
                lines.append(f"{user}\t{item}\t{text}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_comma_log(data, path):
    """The log's lines, comma-separated, with the weights of WEIGHTS in turn."""
    fields = [line.split("\t") for line in data.read_text().splitlines()]
    lines = [f"{f[0]},{f[1]},{WEIGHTS[j % len(WEIGHTS)]}" for j, f in enumerate(fields)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_outputs_match_pinned_digests(tmp_path, variant):
    _check_run(tmp_path, variant)


@pytest.mark.parametrize("block", [1, 10**9], ids=["one-cell", "unbounded"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, variant, block):
    monkeypatch.setattr(scorers, "_BLOCK_CELLS", block)
    _check_run(tmp_path, variant)


def _check_run(tmp_path, variant):
    data = tmp_path / "zipf.tsv"
    write_zipf_dataset(data, 70, 45, 1.0, per_user=9, seed=4)
    if VARIANTS[variant].get("input.delimiter") == "comma":
        data = _write_comma_log(data, tmp_path / "zipf.csv")
    out = tmp_path / "out"
    pairs = {"input.path": str(data), "output.dir": str(out), **BASE, **VARIANTS[variant]}
    if "import" in pairs["scorer.names"]:
        pairs["scorer.import_path"] = str(_write_import_scores(data, tmp_path / "import.tsv"))
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    assert main(["run", "--config", str(config)]) == 0

    digests = {path.name: _digest(path) for path in sorted(out.iterdir()) if path.name != "manifest.json"}
    assert digests == PINNED[variant]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"].values()) == sorted(v for k, v in digests.items())
