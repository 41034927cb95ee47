from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

import pytest

from helpers import (
    MATH_PLAN_TEXT,
    build_math_corpus,
    count_calls,
    build_tool_corpus,
    math_transcript_entries,
    tool_transcript_entries,
)
from planeval.arith import parse_model_number
from planeval.corpora import MathProblem, ToolCall
from planeval.gateway import Gateway, MockTransport, ModelSpec, cache_key, user_message
from planeval.planflow import (
    Plan,
    RenderError,
    TEMPLATE_NAMES,
    generate_plan,
    has_answer_leak,
    lint_plan,
    load_template,
    parse_tool_response,
    render_call,
    render_call_sequence,
    render_prompt,
    run_condition_matrix,
    solve_direct,
    solve_with_plan,
    template_hashes,
)
from planeval.scoring import Condition, tool_sequence_score


# --- templates


def test_all_templates_load_and_hash():
    hashes = template_hashes()
    assert set(hashes) == set(TEMPLATE_NAMES)
    assert all(len(h) == 64 for h in hashes.values())


def test_template_placeholders():
    assert load_template("math_direct").placeholders == ("question",)
    assert load_template("math_guided").placeholders == ("question", "idea")
    assert load_template("tool_guided").placeholders == ("task", "func", "idea")


def test_render_is_pure_substitution():
    template = load_template("math_direct")
    rendered = template.render(question="What is 2+2?")
    assert "What is 2+2?" in rendered
    assert "{question}" not in rendered
    assert rendered == template.body.replace("{question}", "What is 2+2?")


@pytest.mark.parametrize(
    "name, bindings, verbatim, other",
    [
        ("math_guided", {"question": "What is {idea} worth?", "idea": "PLAN"},
         "<Math problem>: What is {idea} worth?", "PLAN"),
        ("tool_direct", {"task": "Call {func} twice", "func": "f1, f2"},
         "<Task>: Call {func} twice", "f1, f2"),
    ],
    ids=["math_guided", "tool_direct"],
)
def test_render_inserts_a_value_holding_a_placeholder_token_verbatim(name, bindings, verbatim, other):
    rendered = load_template(name).render(**bindings)
    assert verbatim in rendered
    assert rendered.count(other) == 1


def test_render_missing_placeholder_raises():
    with pytest.raises(RenderError):
        load_template("math_guided").render(question="q")


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        load_template("nonsense")


# --- tool response grammar


def test_render_call_and_sequence():
    calls = (
        ToolCall("search_flights", (("origin", "a"), ("dest", "b"))),
        ToolCall("book_flight", (("flight_id", "F1"),)),
    )
    text = render_call_sequence(calls)
    assert text.splitlines() == [
        "step1: [func]search_flights(origin=a, dest=b)[/func]",
        "step2: [func]book_flight(flight_id=F1)[/func]",
    ]


def test_parse_tool_response_roundtrip():
    calls = (
        ToolCall("search_flights", (("origin", "a"), ("dest", "b"))),
        ToolCall("get_weather", (("city", "b"),)),
        ToolCall("send_mail", ()),
    )
    parsed, skipped = parse_tool_response(render_call_sequence(calls))
    assert parsed == calls
    assert skipped == 0


def test_parse_tool_response_skips_bad_lines():
    text = "\n".join(
        [
            "step1: [func]good_call(a=1)[/func]",
            "I will now call something",
            "step2: [func]broken(a)[/func]",
            "step3: [func]also_good()[/func]",
        ]
    )
    parsed, skipped = parse_tool_response(text)
    assert [c.name for c in parsed] == ["good_call", "also_good"]
    assert skipped == 2


def test_parse_tool_response_passes_over_blank_lines_without_counting_them():
    parsed, skipped = parse_tool_response("step1: [func]a(x=1)[/func]\n\n   \nstep2: [func]b()[/func]")
    assert [c.name for c in parsed] == ["a", "b"]
    assert skipped == 0


def test_parse_tool_response_rejects_duplicate_keys():
    parsed, skipped = parse_tool_response("step1: [func]f(a=1, a=2)[/func]")
    assert parsed == ()
    assert skipped == 1


def test_parameter_value_holding_a_comma_round_trips():
    calls = (
        ToolCall("send_mail", (("to", "u1"), ("body", "done, thanks"))),
        ToolCall("book", (("id", "F1"),)),
    )
    text = render_call_sequence(calls)
    assert "body=done, thanks)" in text
    parsed, skipped = parse_tool_response(text)
    assert (parsed, skipped) == (calls, 0)
    assert tool_sequence_score(parsed, calls).f1 == 1.0


# --- linting


def _math_item(gold=42):
    return MathProblem(
        id="m1",
        question="q",
        gold_solution="s",
        gold_answer=Fraction(gold),
        calc_annotations=(("6*7", Fraction(42)),),
    )


def _plan(text, item_id="m1", model="planner"):
    return Plan(item_id=item_id, generator_model=model, text=text)


def test_lint_clean_math_plan():
    plan = _plan("first compute the weekly total, then subtract costs")
    assert lint_plan(plan, _math_item()) == []


def test_lint_flags_explicit_arithmetic():
    plan = _plan("compute 7*6=42, then report it")
    flags = lint_plan(plan, _math_item(gold=999))
    assert "explicit_arithmetic" in flags


def test_lint_flags_answer_leak():
    plan = _plan("the total comes to 42 in the end")
    assert "answer_leak" in lint_plan(plan, _math_item(gold=42))


def test_lint_answer_leak_requires_standalone_number():
    plan = _plan("consider 1420 items and 4.2 ratios")
    assert "answer_leak" not in lint_plan(plan, _math_item(gold=42))


@pytest.mark.parametrize("text, gold, leak", [
    ("so the total is 1,000 dollars", 1000, True),
    ("$1,350 in all", 1350, True),
    ("it costs 2.50 each", Fraction(5, 2), True),
    ("costs 42.0 dollars", 42, True),
    (".5 of it", Fraction(1, 2), True),
    ("pages 1-7", 7, True),
    ("-7 degrees", -7, True),
    ("7 degrees", -7, False),
    ("7,000 boxes", 7, False),
    ("1,350 apples", 350, False),
    ("consider 1420 items and 4.2 ratios", 42, False),
])
def test_answer_leak_reads_numbers_as_answers_are_read(text, gold, leak):
    assert has_answer_leak(text, Fraction(gold)) is leak


def test_answer_leak_skips_a_number_too_long_to_read():
    assert not has_answer_leak("9" * 5000 + " crates", Fraction(9))
    assert has_answer_leak("9" * 5000 + " crates, 9 left", Fraction(9))


def test_lint_flags_arithmetic_on_grouped_digits():
    plan = _plan("add 1,200 + 1,300 = 2,500")
    assert lint_plan(plan, _math_item(gold=999)) == ["explicit_arithmetic"]


# Worked arithmetic written with plain decimal operands only.
_PLAIN_ARITHMETIC = re.compile(r"\d+(?:\.\d+)?(?:\s*[+\-*/×÷−]\s*\d+(?:\.\d+)?)+\s*=")


def test_lint_flags_every_plain_decimal_equation():
    rng = random.Random(7)
    alphabet = "0123456789,.+-*/×÷− =ab"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16))) for _ in range(20000)]
    plain = [t for t in texts if _PLAIN_ARITHMETIC.search(t)]
    assert len(plain) > 400
    item = _math_item(gold=Fraction(1, 3))  # no text here writes 1/3 as a number
    assert all(lint_plan(_plan(t), item) == ["explicit_arithmetic"] for t in plain)


def test_plan_is_the_bare_round1_text():
    assert [f.name for f in dataclasses.fields(Plan)] == ["item_id", "generator_model", "text"]


def test_lint_tool_unknown_api(tmp_path):
    (task, *_rest) = build_tool_corpus(tmp_path / "t.jsonl", count=1)
    plan = _plan("call getWeather then search_flights", item_id=task.id)
    flags = lint_plan(plan, task)
    assert "unknown_api:getWeather" in flags
    assert not any(f == "unknown_api:search_flights" for f in flags)


def test_lint_tool_known_apis_only(tmp_path):
    (task, *_rest) = build_tool_corpus(tmp_path / "t.jsonl", count=1)
    plan = _plan("use search_flights and then book_flight", item_id=task.id)
    assert not any(f.startswith("unknown_api") for f in lint_plan(plan, task))


def test_lint_tool_parameter_leak(tmp_path):
    (task, *_rest) = build_tool_corpus(tmp_path / "t.jsonl", count=1)
    plan = _plan("call search_flights with origin=paris", item_id=task.id)
    assert "parameter_leak" in lint_plan(plan, task)


# --- solving against the scripted mock


@pytest.fixture
def math_setup(tmp_path, mock_gateway_factory):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    wrong = {problems[0].id}
    unparseable = {problems[1].id}
    entries = math_transcript_entries(
        problems, wrong_direct_ids=wrong, unparseable_direct_ids=unparseable
    )
    gateway, transport = mock_gateway_factory(entries)
    return problems, gateway, transport


def test_solve_direct_correct(math_setup, model_spec):
    problems, gateway, _ = math_setup
    record = solve_direct(gateway, model_spec, problems[2])
    assert record.score == 1.0
    assert record.condition is Condition.DIRECT_COT
    assert record.step_count == problems[2].step_count
    assert record.solver_model == model_spec.name


def test_solve_direct_wrong(math_setup, model_spec):
    problems, gateway, _ = math_setup
    assert solve_direct(gateway, model_spec, problems[0]).score == 0.0


def test_solve_direct_unparseable_flags(math_setup, model_spec):
    problems, gateway, _ = math_setup
    record = solve_direct(gateway, model_spec, problems[1])
    assert record.score == 0.0
    assert "unparseable_response" in record.flags


def test_tool_answer_scores_its_parsed_lines_and_flags_the_rest(tmp_path, mock_gateway_factory,
                                                                model_spec):
    first, second = build_tool_corpus(tmp_path / "t.jsonl", count=2)
    junk = render_call_sequence(first.gold_calls) + "\nnow I will call them all"
    gateway, _ = mock_gateway_factory([
        (render_prompt("direct", first), junk),
        (render_prompt("direct", second), "step1: search_flights(origin=x)\nno calls today"),
    ])
    parsed = solve_direct(gateway, model_spec, first)
    assert (parsed.score, parsed.flags) == (1.0, ("skipped_lines:1",))
    unparsed = solve_direct(gateway, model_spec, second)
    assert (unparsed.score, unparsed.flags) == (0.0, ("skipped_lines:2", "unparseable_response"))


def test_generate_plan_verbatim(math_setup, model_spec):
    problems, gateway, _ = math_setup
    plan = generate_plan(gateway, model_spec, problems[0])
    assert plan.text == MATH_PLAN_TEXT
    assert plan.generator_model == model_spec.name
    assert plan.item_id == problems[0].id


def test_solve_with_plan_embeds_plan_byte_identically(math_setup, model_spec):
    problems, gateway, _ = math_setup
    item = problems[0]
    plan = generate_plan(gateway, model_spec, item)
    record = solve_with_plan(gateway, model_spec, item, plan)
    assert record.score == 1.0
    assert record.plan_text == plan.text
    assert plan.text in render_prompt("guided", item, plan.text)


def test_condition_label_depends_on_plan_origin(math_setup, model_spec, planner_spec):
    problems, gateway, _ = math_setup
    item = problems[2]
    own = generate_plan(gateway, model_spec, item)
    assert solve_with_plan(gateway, model_spec, item, own).condition is Condition.PLAN_AUGMENTED
    foreign = generate_plan(gateway, planner_spec, item)
    record = solve_with_plan(gateway, model_spec, item, foreign)
    assert record.condition is Condition.CROSS_MODEL_PLAN
    assert record.planner_model == planner_spec.name


def test_plan_item_mismatch_rejected(math_setup, model_spec):
    problems, gateway, _ = math_setup
    plan = generate_plan(gateway, model_spec, problems[0])
    with pytest.raises(ValueError):
        solve_with_plan(gateway, model_spec, problems[1], plan)


def test_guided_beats_direct_on_fixture(math_setup, model_spec):
    problems, gateway, _ = math_setup
    direct = [solve_direct(gateway, model_spec, p).score for p in problems]
    guided = []
    for p in problems:
        plan = generate_plan(gateway, model_spec, p)
        guided.append(solve_with_plan(gateway, model_spec, p, plan).score)
    assert sum(guided) > sum(direct)


# --- condition matrix


def test_matrix_direct_only_counts(math_setup, model_spec):
    problems, gateway, _ = math_setup
    run = run_condition_matrix(gateway, [model_spec], [], problems[:3], ["direct_cot"])
    assert len(run.records) == 3
    assert not run.failures


def test_matrix_two_solvers_two_conditions(tmp_path, mock_gateway_factory, model_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=10)
    entries = math_transcript_entries(problems)
    gateway, _ = mock_gateway_factory(entries)
    other = type(model_spec)(name="mock-b", endpoint_url="http://localhost/none")
    run = run_condition_matrix(
        gateway, [model_spec, other], [], problems, ["direct_cot", "plan_augmented"]
    )
    assert len(run.records) == 40


def test_matrix_two_calls_per_item_under_plan_condition(tmp_path, mock_gateway_factory, model_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=7)
    gateway, transport = mock_gateway_factory(math_transcript_entries(problems))
    run = run_condition_matrix(gateway, [model_spec], [], problems, ["plan_augmented"])
    assert len(run.records) == 7
    assert transport.calls == 2 * len(problems)


def test_grading_parses_each_math_answer_once(tmp_path, mock_gateway_factory, model_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=6)
    entries = math_transcript_entries(
        problems, wrong_direct_ids={problems[0].id}, unparseable_direct_ids={problems[1].id}
    )
    gateway, _ = mock_gateway_factory(entries)
    conditions = ["direct_cot", "plan_augmented"]
    run_condition_matrix(gateway, [model_spec], [], problems, conditions)  # fills the cache
    run, calls = count_calls(  # a replay runs on this thread alone
        lambda: run_condition_matrix(gateway, [model_spec], [], problems, conditions),
        {"parse_model_number": parse_model_number},
    )
    assert len(run.records) == 12 and not run.failures
    assert sorted(r.score for r in run.records) == [0.0] * 2 + [1.0] * 10
    assert calls == {"parse_model_number": 12}


def test_matrix_resume_makes_zero_new_calls(tmp_path, mock_gateway_factory, model_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=5)
    gateway, transport = mock_gateway_factory(math_transcript_entries(problems))
    conditions = ["direct_cot", "plan_augmented"]
    first = run_condition_matrix(gateway, [model_spec], [], problems, conditions)
    calls_after_first = transport.calls
    second = run_condition_matrix(gateway, [model_spec], [], problems, conditions)
    assert transport.calls == calls_after_first
    assert second.records == first.records


def test_matrix_interrupted_run_resumes_without_duplicate_calls(
    tmp_path, mock_gateway_factory, model_spec
):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=6)
    gateway, transport = mock_gateway_factory(math_transcript_entries(problems))
    # simulate the interrupted first half: only some items were processed
    run_condition_matrix(gateway, [model_spec], [], problems[:3], ["plan_augmented"])
    partial_calls = transport.calls
    assert partial_calls == 6
    full = run_condition_matrix(gateway, [model_spec], [], problems, ["plan_augmented"])
    assert transport.calls == partial_calls + 6  # only the unseen half hit the transport
    assert len(full.records) == 6


def test_matrix_gateway_failures_reported_not_raised(tmp_path, mock_gateway_factory, model_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=4)
    entries = math_transcript_entries(problems[:3])  # last item missing from transcript
    gateway, _ = mock_gateway_factory(entries)
    run = run_condition_matrix(gateway, [model_spec], [], problems, ["direct_cot"])
    assert len(run.records) == 3
    assert len(run.failures) == 1
    assert run.failures[0].item_id == problems[3].id


def test_matrix_cross_model_plan(tmp_path, mock_gateway_factory, model_spec, planner_spec):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=4)
    gateway, _ = mock_gateway_factory(math_transcript_entries(problems))
    run = run_condition_matrix(
        gateway, [model_spec, planner_spec], [planner_spec], problems, ["cross_model_plan"]
    )
    # planner never solves under its own guidance
    assert len(run.records) == 4
    assert all(r.solver_model == model_spec.name for r in run.records)
    assert all(r.planner_model == planner_spec.name for r in run.records)
    assert all(r.condition is Condition.CROSS_MODEL_PLAN for r in run.records)


def test_matrix_records_sorted_and_condition_partition(math_setup, model_spec):
    problems, gateway, _ = math_setup
    run = run_condition_matrix(
        gateway, [model_spec], [], problems, ["direct_cot", "plan_augmented"]
    )
    keys = [(r.item_id, r.condition.value, r.solver_model) for r in run.records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_matrix_plans_once_per_planner_and_item(tmp_path, monkeypatch):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=4)
    planners = [ModelSpec(name="planner-a"), ModelSpec(name="planner-b")]
    solvers = [ModelSpec(name="solver-x"), ModelSpec(name="solver-y"), *planners]
    by_digest, by_prompt = {}, {}
    for p in problems:
        by_prompt[render_prompt("direct", p)] = "The final answer is: 0"
        for model in solvers:
            # plan texts differ per planner, so no two guided jobs share a digest
            text = f"Plan by {model.name}: count the start, then walk each phase."
            request = Gateway.build_request(model, [user_message(render_prompt("plan", p))])
            by_digest[cache_key(request)] = text
            by_prompt[render_prompt("guided", p, text)] = "The final answer is: 1"
    transport = MockTransport(by_digest, by_prompt)
    gateway = Gateway(tmp_path / "cache", transport=transport)
    digests = []
    complete = gateway.complete

    def counting_complete(model, messages):
        exchange = complete(model, messages)
        digests.append(exchange.digest)
        return exchange

    monkeypatch.setattr(gateway, "complete", counting_complete)
    run = run_condition_matrix(
        gateway,
        solvers,
        planners,
        problems,
        ["direct_cot", "plan_augmented", "cross_model_plan"],
    )
    assert not run.failures
    # per item: 4 direct, 4 self-guided and 6 cross-model solves
    assert len(run.records) == 14 * len(problems)
    assert len(digests) == len(set(digests)) == transport.calls
    plan_texts = {}
    for r in run.records:
        if r.planner_model is not None:
            plan_texts.setdefault((r.item_id, r.planner_model), set()).add(r.plan_text)
    assert all(
        texts == {f"Plan by {planner}: count the start, then walk each phase."}
        for (_, planner), texts in plan_texts.items()
    )


# --- tool task solving


def test_tool_direct_and_guided(tmp_path, mock_gateway_factory, model_spec):
    tasks = build_tool_corpus(tmp_path / "t.jsonl", count=4)
    degraded = {tasks[0].id}
    gateway, _ = mock_gateway_factory(tool_transcript_entries(tasks, degrade_direct_ids=degraded))
    direct_scores = {t.id: solve_direct(gateway, model_spec, t).score for t in tasks}
    assert direct_scores[tasks[0].id] < 1.0
    assert all(direct_scores[t.id] == 1.0 for t in tasks[1:])
    plan = generate_plan(gateway, model_spec, tasks[0])
    guided = solve_with_plan(gateway, model_spec, tasks[0], plan)
    assert guided.score == 1.0
    assert guided.step_count == len(tasks[0].gold_calls)
