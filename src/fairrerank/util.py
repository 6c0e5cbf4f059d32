"""Small shared helpers: atomic file writes, content hashing, integer checks."""

from __future__ import annotations

import hashlib
import numbers
import os
from pathlib import Path
from typing import Iterable


def atomic_write_text(path: Path | str, parts: Iterable[str | bytes]) -> tuple[Path, str]:
    """Write the chunks `parts` (text, encoded as UTF-8, or bytes) to `path`,
    one at a time, via a temp file + rename: readers never see a partial
    file, and a failed write leaves none. Returns the path and the SHA-256
    hex digest of the bytes, hashed as they are written. The mode comes from
    `os.open(tmp, ..., 0o666)`, less the umask, as with `open(path, "w")`;
    O_EXCL never follows a link at the random temp name, and a clash fails."""
    path, digest = Path(path), hashlib.sha256()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                digest.update(data := part if isinstance(part, bytes) else part.encode("utf-8"))
                fh.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path, digest.hexdigest()


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_integer(name: str, value, low: int) -> None:
    """Raise ValueError unless `value` is an integer (a numpy one too) >= low."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
