"""The harness's one way to write and read its files.

Every output is replaced atomically: it is written to a temp file in the
same directory and renamed over the target, so a reader never sees a torn
file. There is no fsync, so a crash can lose the newest contents but never
leaves half of them. JSON Lines use one line form (sorted keys, UTF-8 text
rather than `\\u` escapes); JSON documents use one document form (the same,
indented by two, with a trailing newline).
"""

from __future__ import annotations

import io
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


def check_types(obj: dict, fields: dict[str, tuple[type, ...]]) -> None:
    """Raise TypeError for the first of `fields` whose value in `obj` is not
    exactly one of its types, so a boolean is never a number."""
    for name, types in fields.items():
        if type(obj[name]) not in types:
            raise TypeError(f"{name} is {obj[name]!r}, not {'/'.join(t.__name__ for t in types)}")


def check_row(obj: dict, fields: dict[str, tuple[type, ...]], path, line_no: int) -> None:
    """`check_types` on the row at `line_no` of `path`, failing with FormatError."""
    try:
        check_types(obj, fields)
    except TypeError as exc:
        raise FormatError(f"{exc} in {path}", line_no) from None


@contextmanager
def atomic_open(path: str | Path):
    """Open a text file that replaces `path` when the block exits cleanly.

    The temp file is unique per process and thread and is removed when the
    block raises; a missing parent directory is made on demand. Text is
    written byte for byte, without newline translation.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# Built once: `json.dumps` with any option builds a new encoder per call.
_encode_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_encode_document = json.JSONEncoder(ensure_ascii=False, sort_keys=True, indent=2).encode


def json_line(obj) -> str:
    """The JSON Lines form of one row, without the newline."""
    return _encode_line(obj)


def write_jsonl(path: str | Path, rows: Iterable) -> Path:
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json_line(row) + "\n")
    return Path(path)


def write_json(path: str | Path, obj) -> Path:
    with atomic_open(path) as fh:
        fh.write(_encode_document(obj) + "\n")
    return Path(path)


def read_lines(path: str | Path, data: bytes | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of a UTF-8 text file, numbered
    as text mode splits them. The lines are split from `data` when the caller
    has already read the file's bytes, and read from `path` otherwise; `path`
    names the file in errors. A line holding bytes that are not UTF-8 raises
    FormatError with its number."""
    raw = open(path, "rb") if data is None else io.BytesIO(data)
    with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")  # fails on the surrogates that stand for undecodable bytes
                except UnicodeEncodeError:
                    raise FormatError(f"not UTF-8 text in {path}", line_no) from None
            yield line_no, line


def read_jsonl(path: str | Path, data: bytes | None = None) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed object) for each nonblank line of `read_lines`."""
    for line_no, line in read_lines(path, data):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path} ({exc.msg})", line_no) from exc
        yield line_no, obj


def read_rows(path: str | Path, kind: str, build, data: bytes | None = None) -> Iterator:
    """`build(obj)` for each row of `read_jsonl`; a row that `build` rejects
    raises FormatError with its line number."""
    for line_no, obj in read_jsonl(path, data):
        try:
            yield build(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad {kind} row in {path}: {exc!r}", line_no) from exc
