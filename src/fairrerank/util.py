"""Small shared helpers: atomic file writes and content hashing."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterable


def atomic_write_text(path: Path | str, parts: Iterable[str | bytes]) -> tuple[Path, str]:
    """Write the chunks `parts` (text, encoded as UTF-8, or bytes) to `path`,
    one at a time, via a temp file + rename: readers never see a partial
    file, and a failed write leaves none. Returns the path and the SHA-256
    hex digest of the bytes, hashed as they are written. The file gets the
    mode `open(path, "w")` gives a new file: 0o666 less the umask."""
    path, digest = Path(path), hashlib.sha256()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                digest.update(data := part if isinstance(part, bytes) else part.encode("utf-8"))
                fh.write(data)
        umask = os.umask(0)  # reading the umask means setting it: put it back at once
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)  # mkstemp made it 0o600
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

