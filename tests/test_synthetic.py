"""The synthetic generators' input check."""

import pytest

from conftest import raises_exactly
from fairrerank.synthetic import write_zipf_dataset, zipf_interaction_lines


@pytest.mark.parametrize(
    "make",
    [
        lambda path: zipf_interaction_lines(3, 4, per_user=5),
        lambda path: write_zipf_dataset(path, 3, 4, per_user=5),
    ],
    ids=["lines", "file"],
)
def test_more_items_per_user_than_the_catalog_is_rejected(tmp_path, make):
    raises_exactly(ValueError, "per_user cannot exceed num_items", lambda: make(tmp_path / "log.tsv"))
    assert not (tmp_path / "log.tsv").exists()
