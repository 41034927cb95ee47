from __future__ import annotations

import json

import pytest

from planeval.jsonio import (
    FormatError, atomic_open, check_row, check_types, json_line, read_jsonl, write_json, write_jsonl,
)


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


def test_write_json_matches_json_dumps_document_form(tmp_path):
    doc = {"é": [1.5, 0.1 + 0.2, {"日本": None}], "a": {"z": [], "b": "✓"}, "n": 10**20}
    path = write_json(tmp_path / "doc.json", doc)
    want = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_json_line_matches_json_dumps_line_form():
    rows = [
        {"z": "naïve — 日本語 ✓", "a": [1.5, 1e-7, 0.1 + 0.2, -0.0, 1e21, 3], "m": {"y": None, "b": True}},
        [{"nested": [{"deep": "é"}], "n": float("nan")}, "line\u2028break", 12345678901234567890],
    ]
    for row in rows:
        assert json_line(row) == json.dumps(row, ensure_ascii=False, sort_keys=True)


def test_read_jsonl_decodes_text_across_read_buffers_and_numbers_a_line_that_is_not_utf8(tmp_path):
    rows = [{"t": "é🧮" * n} for n in range(1, 600, 7)]  # multibyte characters straddle the buffers
    path = write_jsonl(tmp_path / "rows.jsonl", rows)
    assert [obj for _, obj in read_jsonl(path)] == rows
    path.write_bytes(path.read_bytes() + b'{"t": "\xc3"}\n{"t": "ok"}\n')  # a truncated sequence
    with pytest.raises(FormatError, match=f"line {len(rows) + 1}: not UTF-8 text in "):
        list(read_jsonl(path))


def test_check_types_matches_exactly_and_names_the_first_wrong_field():
    fields = {"n": (int,), "x": (int, float), "s": (str, type(None))}
    check_types({"n": 1, "x": 2, "s": None}, fields)
    check_types({"n": 1, "x": 2.5, "s": "a", "extra": object()}, fields)
    for row, message in [
        ({"n": True, "x": True, "s": 1}, "n is True, not int"),
        ({"n": 1, "x": False, "s": 1}, "x is False, not int/float"),
        ({"n": 1, "x": 1.0, "s": 1}, "s is 1, not str/NoneType"),
    ]:
        with pytest.raises(TypeError) as err:
            check_types(row, fields)
        assert str(err.value) == message
    with pytest.raises(KeyError):
        check_types({"n": 1}, fields)


def test_check_row_raises_format_error_with_the_line():
    with pytest.raises(FormatError) as err:
        check_row({"q": 5}, {"q": (str,)}, "c.jsonl", 7)
    assert str(err.value) == "line 7: q is 5, not str in c.jsonl" and err.value.line_no == 7
