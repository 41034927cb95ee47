"""The harness's one way to write and read its files.

Every output is replaced atomically: it is written to a temp file in the
same directory and renamed over the target, so a reader never sees a torn
file. There is no fsync, so a crash can lose the newest contents but never
leaves half of them. JSON Lines use one line form (sorted keys, UTF-8 text
rather than `\\u` escapes); JSON documents use one document form (the same,
indented by two, with a trailing newline).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


class FormatError(ValueError):
    """A JSON Lines file violates the expected line format."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@contextmanager
def atomic_open(path: str | Path):
    """Open a text file that replaces `path` when the block exits cleanly.

    The temp file is unique per process and thread and is removed when the
    block raises. Text is written byte for byte, without newline translation.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_line(obj) -> str:
    """The JSON Lines form of one row, without the newline."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def write_jsonl(path: str | Path, rows: Iterable) -> Path:
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json_line(row) + "\n")
    return Path(path)


def write_json(path: str | Path, obj) -> Path:
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return Path(path)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed object) for each nonblank line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", line_no) from exc
            yield line_no, obj
