from __future__ import annotations

import pytest

from planeval.jsonio import atomic_open, read_jsonl, write_jsonl


def test_atomic_open_keeps_old_file_and_no_temp_when_writer_raises(tmp_path):
    path = write_jsonl(tmp_path / "rows.jsonl", [{"b": 1, "a": "é"}])
    assert path.read_bytes() == '{"a": "é", "b": 1}\n'.encode("utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert list(read_jsonl(path)) == [(1, {"a": "é", "b": 1})]
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]
