"""The library surface: every exported name exists, and the README's
Library example runs as written."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import fairrerank
from fairrerank.synthetic import write_zipf_dataset

MODULES = ["fairrerank"] + [f"fairrerank.{info.name}" for info in pkgutil.iter_modules(fairrerank.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [export for export in exported if not hasattr(module, export)] == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert 'read_interactions("demo.tsv")' in example
    write_zipf_dataset(tmp_path / "demo.tsv", 60, 40, 1.0, per_user=12, seed=1)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
