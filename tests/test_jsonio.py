from __future__ import annotations

import pytest

from planeval.jsonio import atomic_open, read_jsonl, write_json, write_jsonl


def test_atomic_open_keeps_old_file_and_no_temp_when_writer_raises(tmp_path):
    path = write_jsonl(tmp_path / "rows.jsonl", [{"b": 1, "a": "é"}])
    assert path.read_bytes() == '{"a": "é", "b": 1}\n'.encode("utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert list(read_jsonl(path)) == [(1, {"a": "é", "b": 1})]
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_write_json_creates_a_missing_nested_directory(tmp_path):
    path = write_json(tmp_path / "a" / "b" / "doc.json", {"k": [1]})
    assert path.read_bytes() == b'{\n  "k": [\n    1\n  ]\n}\n'
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


def test_atomic_open_that_raises_in_a_missing_directory_leaves_no_temp_file(tmp_path):
    path = tmp_path / "missing" / "rows.jsonl"
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert not path.exists()
    assert list(path.parent.iterdir()) == []
