from __future__ import annotations

import json
from fractions import Fraction

import pytest

from conftest import GSM8K_TEST_PATH, requires_gsm8k
from helpers import build_math_corpus, make_tool_lines, write_gsm8k_file, write_tool_file
from planeval import arith
from planeval.corpora import (
    EmptyInput,
    FormatError,
    MathProblem,
    ParseError,
    StepDistribution,
    ToolCall,
    extract_probes,
    load_gsm8k,
    load_toolbench,
    step_distribution,
)
from planeval.planflow import parse_tool_response
from planeval.scoring import tool_sequence_score


def _write(path, objs):
    return write_gsm8k_file(path, objs)


def test_gold_answer_after_final_marker(tmp_path):
    path = _write(
        tmp_path / "m.jsonl",
        [{"question": "q", "answer": "Take <<16-3-4=9>> then <<9*2=18>>\n#### 18"}],
    )
    (item,) = load_gsm8k(path)
    assert item.gold_answer == 18
    assert item.calc_annotations[0] == ("16-3-4", Fraction(9))
    assert item.step_count == 2
    assert not item.flags


def test_gold_answer_strips_commas(tmp_path):
    path = _write(tmp_path / "m.jsonl", [{"question": "q", "answer": "<<600*2=1200>>\n#### 1,200"}])
    (item,) = load_gsm8k(path)
    assert item.gold_answer == 1200


def test_last_marker_wins(tmp_path):
    path = _write(
        tmp_path / "m.jsonl",
        [{"question": "q", "answer": "draft #### 3 revised <<2+2=4>>\n#### 4"}],
    )
    (item,) = load_gsm8k(path)
    assert item.gold_answer == 4


def test_missing_marker_cites_line(tmp_path):
    path = _write(
        tmp_path / "m.jsonl",
        [
            {"question": "ok", "answer": "<<1+1=2>>\n#### 2"},
            {"question": "bad", "answer": "no marker here"},
        ],
    )
    with pytest.raises(FormatError) as err:
        load_gsm8k(path)
    assert err.value.line_no == 2


def test_unparseable_annotation_cites_span(tmp_path):
    path = _write(
        tmp_path / "m.jsonl", [{"question": "q", "answer": "<<2+2=four>>\n#### 4"}]
    )
    with pytest.raises(ParseError) as err:
        load_gsm8k(path)
    assert "<<2+2=four>>" in str(err.value)


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"question": "q"}) + "\n")
    with pytest.raises(FormatError):
        load_gsm8k(path)


def test_zero_annotation_items_retained_and_flagged(tmp_path):
    path = _write(tmp_path / "m.jsonl", [{"question": "q", "answer": "just prose\n#### 7"}])
    (item,) = load_gsm8k(path)
    assert item.step_count == 0
    assert "no_annotations" in item.flags


def test_annotation_mismatch_flagged_not_fixed(tmp_path):
    path = _write(tmp_path / "m.jsonl", [{"question": "q", "answer": "<<2+2=5>>\n#### 5"}])
    (item,) = load_gsm8k(path)
    assert item.calc_annotations == (("2+2", Fraction(5)),)
    assert any(f.startswith("annotation_mismatch") for f in item.flags)


def test_annotation_verification_within_relative_tolerance(tmp_path):
    # 1/3 annotated with 7 decimals is inside 1e-6 relative error
    path = _write(
        tmp_path / "m.jsonl", [{"question": "q", "answer": "<<1/3=0.3333333>>\n#### 1"}]
    )
    (item,) = load_gsm8k(path)
    assert not any(f.startswith("annotation_mismatch") for f in item.flags)


def test_annotation_verification_of_zero_results(tmp_path):
    path = _write(
        tmp_path / "m.jsonl",
        [
            {"question": "q", "answer": "<<3-3=0>>\n#### 0"},
            {"question": "q", "answer": "<<3-2=0>>\n#### 0"},
        ],
    )
    exact, off = load_gsm8k(path)
    assert not any(f.startswith("annotation_mismatch") for f in exact.flags)
    assert "annotation_mismatch:3-2" in off.flags


def test_load_is_idempotent_and_order_preserving(tmp_path):
    problems = build_math_corpus(tmp_path / "m.jsonl", count=8)
    again = load_gsm8k(tmp_path / "m.jsonl")
    assert problems == again
    assert [p.id for p in problems] == sorted(p.id for p in problems)


def test_retained_annotations_reevaluate(tmp_path):
    problems = build_math_corpus(tmp_path / "m.jsonl", count=12)
    assert all(not p.flags for p in problems)


def test_extract_probes_dedups_by_normalized_expression(tmp_path):
    path = _write(
        tmp_path / "m.jsonl",
        [
            {"question": "a", "answer": "<<2+3=5>>\n#### 5"},
            {"question": "b", "answer": "<<2 + 3=5>> and <<4*4=16>>\n#### 16"},
        ],
    )
    problems = load_gsm8k(path)
    extraction = extract_probes(problems)
    by_expr = {p.expression: p for p in extraction.probes}
    assert set(by_expr) == {"2+3", "4*4"}
    assert by_expr["2+3"].source_ids == ("g00001", "g00002")
    assert by_expr["2+3"].exact_value == 5


def test_extract_probes_empty_input():
    extraction = extract_probes([])
    assert extraction.probes == ()
    assert extraction.skipped == ()


FLAGGED_LINES = [
    {"id": "exact", "question": "q", "answer": "<<3+4=7>> <<7*2=14>>\n#### 14"},
    {"id": "off", "question": "q", "answer": "<< 3 - 2 =5>> <<2+&3=5>> <<1/0=1>> <<2*3=6>>\n#### 6"},
    {"id": "none", "question": "q", "answer": "no steps\n#### 3"},
    {"id": "near", "question": "q", "answer": "<<1/3=0.3333333>>\n#### 0.3333333"},
]


def _count_evaluations(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = arith.eval_expr

    def counting(expression):
        calls.append(expression)
        return real(expression)

    monkeypatch.setattr(arith, "eval_expr", counting)
    return calls


def test_load_evaluates_no_annotation_and_flags_check_them_on_first_read(tmp_path, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    problems = load_gsm8k(_write(tmp_path / "m.jsonl", FLAGGED_LINES))
    assert calls == []
    assert {p.id: p.flags for p in problems} == {
        "exact": (),
        "off": ("annotation_mismatch:3 - 2", "annotation_unparsed:2+&3", "annotation_unparsed:1/0"),
        "none": ("no_annotations",),
        "near": (),
    }
    assert len(calls) == 7  # one per annotation
    assert problems[1].flags[0] == "annotation_mismatch:3 - 2"
    assert len(calls) == 7  # a second read is cached


def test_probe_extraction_after_load_evaluates_each_expression_once(tmp_path, monkeypatch):
    lines = [
        {"id": "a", "question": "q", "answer": "<<3+4=7>> <<7*2=14>>\n#### 14"},
        {"id": "b", "question": "q", "answer": "<<3 + 4=7>> <<7-1=6>>\n#### 6"},
    ]
    path = _write(tmp_path / "m.jsonl", lines)
    calls = _count_evaluations(monkeypatch)
    extraction = extract_probes(load_gsm8k(path))
    assert sorted(calls) == sorted(p.expression for p in extraction.probes) == ["3+4", "7*2", "7-1"]


def test_extract_probes_value_comes_from_evaluator_not_annotation(tmp_path):
    path = _write(tmp_path / "m.jsonl", [{"question": "q", "answer": "<<2+2=5>>\n#### 5"}])
    extraction = extract_probes(load_gsm8k(path))
    assert extraction.probes[0].exact_value == 4


def test_extract_probes_reports_unparseable(tmp_path):
    item = MathProblem(
        id="x",
        question="q",
        gold_solution="s",
        gold_answer=Fraction(1),
        calc_annotations=(("2+&3", Fraction(5)),),
    )
    extraction = extract_probes([item])
    assert extraction.probes == ()
    assert extraction.skipped_count == 1
    assert extraction.skipped[0].source_id == "x"


def test_step_distribution_counts():
    def problem(i, n):
        return MathProblem(
            id=f"p{i}",
            question="q",
            gold_solution="s",
            gold_answer=Fraction(1),
            calc_annotations=tuple(("1+1", Fraction(2)) for _ in range(n)),
        )

    dist = step_distribution([problem(0, 2), problem(1, 2), problem(2, 4)])
    assert dist.mass[2] == pytest.approx(2 / 3)
    assert dist.mass[4] == pytest.approx(1 / 3)

    single = step_distribution([problem(0, 3)])
    assert single.mass == {3: 1.0}

    zero_step = problem(9, 0)
    with pytest.raises(EmptyInput):
        step_distribution([zero_step])


def test_step_distribution_excludes_flagged_zero_step_items():
    items = [
        MathProblem("a", "q", "s", Fraction(1), (("1+1", Fraction(2)),)),
        MathProblem("b", "q", "s", Fraction(1), ()),
    ]
    dist = step_distribution(items)
    assert dist.mass == {1: 1.0}


def test_step_distribution_validation():
    with pytest.raises(ValueError):
        StepDistribution({2: 0.5, 3: 0.4})  # does not sum to 1
    with pytest.raises(ValueError):
        StepDistribution({0: 1.0})  # support must be positive
    with pytest.raises(EmptyInput):
        StepDistribution({})


def test_toolbench_drops_failed_calls_keeps_task(tmp_path):
    lines = [
        {
            "id": "t1",
            "task": "do things",
            "functions": [{"name": "A"}, {"name": "B"}, {"name": "C"}],
            "calls": [
                {"name": "A", "params": {"x": "1"}, "success": True},
                {"name": "B", "params": {}, "success": False},
                {"name": "C", "params": {}, "success": True},
            ],
        }
    ]
    result = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines))
    (task,) = result.tasks
    assert [c.name for c in task.gold_calls] == ["A", "C"]
    assert result.dropped_calls == 1
    assert result.dropped_tasks == 0


def test_toolbench_null_parameter_scores_an_exact_answer_fully(tmp_path):
    lines = [{
        "task": "fly",
        "functions": [{"name": "search_flights"}, {"name": "book"}],
        "calls": [
            {"name": "search_flights", "params": {"origin": "city0", "x": None}, "success": True},
            {"name": "book", "params": {"id": "F1"}, "success": True},
        ],
    }]
    (task,) = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines)).tasks
    answer = "step1: [func]search_flights(origin=city0, x=null)[/func]\nstep2: [func]book(id=F1)[/func]"
    pred, skipped = parse_tool_response(answer)
    assert skipped == 0
    assert tool_sequence_score(pred, task.gold_calls).f1 == 1.0


def test_toolbench_renders_non_string_parameters_as_json(tmp_path):
    params = {"s": "True", "b": True, "n": None, "i": 3, "f": 1.5, "l": ["é", 1], "o": {"k": "v"}}
    lines = [{
        "task": "t",
        "functions": [{"name": "A"}, {"name": "B"}],
        "calls": [{"name": "A", "params": params, "success": True}, {"name": "B"}],
    }]
    (task,) = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines)).tasks
    assert dict(task.gold_calls[0].params) == {
        "s": "True", "b": "true", "n": "null", "i": "3", "f": "1.5", "l": '["é", 1]', "o": '{"k": "v"}'
    }


def test_toolbench_drops_single_api_tasks(tmp_path):
    lines = [
        {
            "id": "t1",
            "task": "single",
            "functions": [{"name": "A"}],
            "calls": [
                {"name": "A", "params": {}, "success": True},
                {"name": "A", "params": {}, "success": True},
            ],
        }
    ]
    result = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines))
    assert result.tasks == ()
    assert result.dropped_tasks == 1
    assert result.drop_reasons["too_few_distinct_apis"] == 1


def test_toolbench_error_field_marks_failure(tmp_path):
    lines = [
        {
            "id": "t1",
            "task": "x",
            "functions": [{"name": "A"}, {"name": "B"}],
            "calls": [
                {"name": "A", "params": {}, "error": "boom"},
                {"name": "A", "params": {}},
                {"name": "B", "params": {}},
            ],
        }
    ]
    result = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines))
    (task,) = result.tasks
    assert len(task.gold_calls) == 2
    assert result.dropped_calls == 1


def test_toolbench_unknown_function_drops_task(tmp_path):
    lines = [
        {
            "id": "t1",
            "task": "x",
            "functions": [{"name": "A"}],
            "calls": [
                {"name": "A", "params": {}, "success": True},
                {"name": "Z", "params": {}, "success": True},
            ],
        }
    ]
    result = load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines))
    assert result.tasks == ()
    assert result.drop_reasons["call_to_unknown_function"] == 1


def test_toolbench_missing_field_cites_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({"task": "x", "functions": []}) + "\n")
    with pytest.raises(FormatError) as err:
        load_toolbench(path)
    assert err.value.line_no == 1


def test_toolbench_repeated_id_cites_line(tmp_path):
    lines = [dict(line, id="t000") for line in make_tool_lines(3)]
    with pytest.raises(FormatError) as err:
        load_toolbench(write_tool_file(tmp_path / "t.jsonl", lines))
    assert err.value.line_no == 2
    assert "'t000'" in str(err.value)


def test_toolbench_retained_tasks_satisfy_invariants(tmp_path):
    result = load_toolbench(write_tool_file(tmp_path / "t.jsonl", make_tool_lines(6)))
    assert len(result.tasks) == 6
    for task in result.tasks:
        names = {c.name for c in task.gold_calls}
        assert len(task.gold_calls) >= 2
        assert len(names) >= 2
        assert names <= {f.name for f in task.functions}


def test_tool_call_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        ToolCall(name="A", params=(("k", "1"), ("k", "2")))


# --- checks against the real dataset file, skipped when it is not present


@requires_gsm8k
def test_real_testset_probe_count():
    problems = load_gsm8k(GSM8K_TEST_PATH)
    extraction = extract_probes(problems)
    assert 2856 * 0.98 <= len(extraction.probes) <= 2856 * 1.02


@requires_gsm8k
def test_real_testset_step_distribution_shape():
    problems = load_gsm8k(GSM8K_TEST_PATH)
    dist = step_distribution(problems)
    assert sum(dist.mass.get(n, 0.0) for n in (2, 3, 4)) > 0.5
    assert max(dist.mass, key=dist.mass.get) in (2, 3, 4)


@requires_gsm8k
def test_real_testset_annotations_reverify():
    problems = load_gsm8k(GSM8K_TEST_PATH)
    flagged = [p for p in problems if any(f.startswith("annotation_") for f in p.flags)]
    # Violations are flagged, never fixed; the bulk of the corpus must verify.
    assert len(flagged) / len(problems) < 0.05
