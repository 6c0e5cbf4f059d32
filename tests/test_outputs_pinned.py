"""Byte identity of a whole `run`: the SHA-256 of every output file of two
small seeded Zipf runs is pinned. The digests were recorded before the
re-ranker and the metrics were vectorized, so any changed byte in a list,
score export, split file or report (reports print floats in full repr)
fails here. `manifest.json` holds wall-clock seconds, so only its
`outputs` hashes are compared. The mf scorer is left out: its floats
depend on the BLAS build, while popularity and random scores do not."""

import hashlib
import json

import pytest

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
}

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
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_outputs_match_pinned_digests(tmp_path, variant):
    data = tmp_path / "zipf.tsv"
    write_zipf_dataset(data, 70, 45, 1.0, per_user=9, seed=4)
    out = tmp_path / "out"
    pairs = {"input.path": str(data), "output.dir": str(out), **BASE, **VARIANTS[variant]}
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
    assert main(["run", "--config", str(config)]) == 0

    digests = {path.name: _digest(path) for path in sorted(out.iterdir()) if path.name != "manifest.json"}
    assert digests == PINNED[variant]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"].values()) == sorted(v for k, v in digests.items())
