"""Run manifests and atomic file output for the CLI."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so partial output never lands at `path`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".specedge-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(command: str, inputs, files, seed: int | None, params: dict,
                   tool_version: str, started: float) -> None:
    """One run's record: digest each input path, write each (path, text)
    of `files` atomically, then the manifest next to the first path, with
    the wall time since `started` (a time.perf_counter reading)."""
    digests = {path: file_digest(path) for path in inputs}
    for path, text in files:
        atomic_write(path, text)
    body = {
        "command": command,
        "inputs": digests,
        "seed": seed,
        "params": params,
        "tool_version": tool_version,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": [path for path, _ in files],
    }
    atomic_write(files[0][0] + ".manifest.json", json.dumps(body, indent=2) + "\n")
