import hashlib
import os
import stat

import pytest

from fairrerank.util import atomic_write_text, sha256_file


def _failing_parts():
    # more than one buffer of bytes reaches the temp file before the failure
    yield "x" * 200_000
    yield "second chunk\n"
    raise RuntimeError("chunk source failed")


def test_chunks_are_written_in_order_as_utf8(tmp_path):
    path, digest = atomic_write_text(tmp_path / "sub" / "t.txt", iter(["a\t\u03bb\n", "", "b\r\n"]))
    assert path == tmp_path / "sub" / "t.txt"
    assert path.read_bytes() == "a\t\u03bb\nb\r\n".encode("utf-8")
    assert sha256_file(path) == digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("parts", [
    ["a\t", b"b\n", "c", b""],
    ["\u03bb = 2\n", "\u03bb".encode("utf-8"), "\n"],
    ["", b"", ""],
    [],
    ["x" * 200_000, b"y" * 70_000],
], ids=["mixed-str-and-bytes", "non-ascii", "empty-parts", "no-parts", "many-buffers"])
def test_returned_digest_is_the_sha256_of_the_file(tmp_path, parts):
    path, digest = atomic_write_text(tmp_path / "out.tsv", iter(parts))
    data = b"".join(p if isinstance(p, bytes) else p.encode("utf-8") for p in parts)
    assert path.read_bytes() == data
    assert digest == hashlib.sha256(data).hexdigest() == sha256_file(path)


def test_raising_chunk_source_leaves_no_file(tmp_path):
    # temp files a killed write left behind stay as they are, and no write adds one
    strays = {f"out.tsv.{hex_}.tmp": f"stray {hex_}\n".encode() for hex_ in ("0123456789ab", "ffffffffffff")}
    for name, data in strays.items():
        (tmp_path / name).write_bytes(data)
    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write_text(tmp_path / "out.tsv", _failing_parts())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == strays
    atomic_write_text(tmp_path / "out.tsv", ("new bytes\n",))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {**strays, "out.tsv": b"new bytes\n"}


def test_raising_chunk_source_keeps_the_old_file(tmp_path):
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write_text(target, _failing_parts())
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.tsv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o640)  # a re-run replaces the file with a fresh one
    old = os.umask(umask)
    try:
        atomic_write_text(target, ("new bytes\n",))
        fresh, _ = atomic_write_text(tmp_path / "fresh.tsv", ("x\n",))
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert stat.S_IMODE(fresh.stat().st_mode) == mode


def test_mode_comes_from_open_not_from_umask_or_chmod(tmp_path, monkeypatch):
    umask = os.umask(0o022)
    os.umask(umask)

    def refuse(*args):
        raise AssertionError("the process umask and the file mode are the kernel's to apply")

    monkeypatch.setattr(os, "umask", refuse)
    monkeypatch.setattr(os, "chmod", refuse)
    path, digest = atomic_write_text(tmp_path / "out.tsv", ("a\t", b"b\n"))
    assert path.read_bytes() == b"a\tb\n"
    assert digest == hashlib.sha256(b"a\tb\n").hexdigest()
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
