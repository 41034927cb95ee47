from __future__ import annotations

import hashlib
import json

import pytest

from helpers import (
    MATH_PLAN_TEXT,
    TOOL_PLAN_TEXT,
    build_math_corpus,
    build_tool_corpus,
    make_tool_lines,
    write_tool_file,
)
from planeval.corpora import load_toolbench
from planeval.jsonio import FormatError
from planeval.planflow import Plan, render_call_sequence, render_prompt
from planeval.sftgen import (
    AnswerLeak,
    MissingPlan,
    SftRecord,
    build_sft_corpus,
    load_sft,
    serialize_sft,
    write_sft_outputs,
)


def _plans_for(corpus, text=MATH_PLAN_TEXT, model="teacher"):
    return {item.id: Plan(item_id=item.id, generator_model=model, text=text) for item in corpus}


@pytest.fixture
def math_corpus(tmp_path):
    return build_math_corpus(tmp_path / "m.jsonl", count=10)


def test_mode_all_emits_two_records_per_item(math_corpus):
    records = build_sft_corpus(math_corpus, _plans_for(math_corpus), mode="all")
    assert len(records) == 2 * len(math_corpus)
    assert sum(1 for r in records if r.kind == "plan_target") == len(math_corpus)
    assert sum(1 for r in records if r.kind == "answer_target") == len(math_corpus)


def test_mode_counts_identity(math_corpus):
    plans = _plans_for(math_corpus)
    all_records = build_sft_corpus(math_corpus, plans, mode="all")
    plan_only = build_sft_corpus(math_corpus, plans, mode="plan_only")
    answer_only = build_sft_corpus(math_corpus, plans, mode="answer_only")
    assert len(plan_only) == len(math_corpus)
    assert all(r.kind == "plan_target" for r in plan_only)
    assert all(r.kind == "answer_target" for r in answer_only)
    assert len(all_records) == len(plan_only) + len(answer_only)


def test_prompts_render_from_expected_templates(math_corpus):
    plans = _plans_for(math_corpus)
    records = build_sft_corpus(math_corpus, plans, mode="all")
    by_item = {item.id: item for item in math_corpus}
    for r in records:
        item = by_item[r.source_id]
        if r.kind == "plan_target":
            assert r.prompt == render_prompt("plan", item)
            assert r.target == plans[item.id].text
        else:
            assert r.prompt == render_prompt("direct", item)
            assert r.target == item.gold_solution


def test_missing_plan_lists_item_ids(math_corpus):
    plans = _plans_for(math_corpus[:-2])
    with pytest.raises(MissingPlan) as err:
        build_sft_corpus(math_corpus, plans, mode="all")
    assert set(err.value.item_ids) == {math_corpus[-2].id, math_corpus[-1].id}


def test_answer_leak_detected(math_corpus):
    plans = _plans_for(math_corpus)
    victim = math_corpus[0]
    leaky = f"First compute everything; the result is {victim.gold_answer}."
    plans[victim.id] = Plan(item_id=victim.id, generator_model="teacher", text=leaky)
    with pytest.raises(AnswerLeak) as err:
        build_sft_corpus(math_corpus, plans, mode="all")
    assert victim.id in err.value.item_ids


def test_answer_only_mode_needs_no_plans(math_corpus):
    records = build_sft_corpus(math_corpus, {}, mode="answer_only")
    assert len(records) == len(math_corpus)


def test_tool_targets_use_call_grammar(tmp_path):
    tasks = build_tool_corpus(tmp_path / "t.jsonl", count=4)
    plans = _plans_for(tasks, text=TOOL_PLAN_TEXT)
    records = build_sft_corpus(tasks, plans, mode="all")
    by_item = {t.id: t for t in tasks}
    for r in records:
        if r.kind == "answer_target":
            assert r.target == render_call_sequence(by_item[r.source_id].gold_calls)
            assert r.target.startswith("step1: [func]")


def test_tool_answer_target_writes_non_string_parameters_as_json(tmp_path):
    lines = make_tool_lines(1)
    lines[0]["calls"][0]["params"]["nonstop"] = True
    (task,) = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines)).tasks
    (record,) = build_sft_corpus([task], {}, mode="answer_only")
    assert "nonstop=true)" in record.target and "True" not in record.target


def test_empty_gold_answer_rejected(math_corpus):
    import dataclasses

    broken = [dataclasses.replace(math_corpus[0], gold_solution="")]
    with pytest.raises(ValueError, match="nonempty"):
        build_sft_corpus(broken, _plans_for(broken), mode="answer_only")


def test_serialize_roundtrip(tmp_path, math_corpus):
    records = build_sft_corpus(math_corpus, _plans_for(math_corpus), mode="all")
    path = serialize_sft(records, tmp_path / "sft.jsonl")
    assert load_sft(path) == records


def test_load_sft_bad_row_cites_its_line(tmp_path, math_corpus):
    path = serialize_sft(build_sft_corpus(math_corpus, {}, mode="answer_only"), tmp_path / "s.jsonl")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "plan_target", "prompt": "p", "source_id": "x"}) + "\n")
    with pytest.raises(FormatError) as err:
        load_sft(path)
    assert err.value.line_no == len(math_corpus) + 1
    assert "s.jsonl" in str(err.value)


def test_serialize_deterministic_order_and_bytes(tmp_path, math_corpus):
    plans = _plans_for(math_corpus)
    records = build_sft_corpus(math_corpus, plans, mode="all")
    path_a = serialize_sft(records, tmp_path / "a.jsonl")
    path_b = serialize_sft(list(reversed(records)), tmp_path / "b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()
    rebuilt = build_sft_corpus(math_corpus, plans, mode="all")
    path_c = serialize_sft(rebuilt, tmp_path / "c.jsonl")
    assert hashlib.sha256(path_a.read_bytes()).digest() == hashlib.sha256(
        path_c.read_bytes()
    ).digest()


def test_serialize_empty_list(tmp_path):
    path = serialize_sft([], tmp_path / "empty.jsonl")
    assert path.read_text() == ""


def test_record_validation():
    with pytest.raises(ValueError):
        SftRecord(kind="bogus", prompt="p", target="t", source_id="s")
    with pytest.raises(ValueError):
        SftRecord(kind="plan_target", prompt="", target="t", source_id="s")


def test_write_outputs_meta_sidecar(tmp_path, math_corpus):
    corpus_path, meta_path = write_sft_outputs(
        math_corpus, _plans_for(math_corpus), mode="all", out_dir=tmp_path / "out",
        teacher_model="teacher",
    )
    import json

    meta = json.loads(meta_path.read_text())
    assert meta["teacher_model"] == "teacher"
    assert meta["counts"] == {
        "items": len(math_corpus),
        "plan_target": len(math_corpus),
        "answer_target": len(math_corpus),
    }
    assert meta["training"]["lora_rank"] == 8
    assert meta["training"]["lora_alpha"] == 32
    assert meta["training"]["epochs"] == 2
    assert set(meta["template_hashes"]) == {
        "math_direct", "math_plan", "math_guided", "tool_direct", "tool_plan", "tool_guided",
    }
    assert corpus_path.exists()
