"""Shared builders for synthetic corpora and scripted mock transcripts."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from planeval.arith import PROBE_PROMPT
from planeval.corpora import extract_probes, load_gsm8k, load_toolbench
from planeval.planflow import render_call_sequence, render_prompt

MATH_PLAN_TEXT = (
    "To solve this question, first we should count the starting amount, "
    "then we should work through each phase in order, and finally we should "
    "combine the phase results into the total."
)


def count_calls(fn, targets: dict) -> tuple[object, Counter]:
    """`fn()` run on this thread, and how often it called each of `targets`
    (name -> Python function or builtin), directly or nested, counted by
    name. Calls are matched by code object or identity, so a bound method
    built before the call counts too."""
    by_code = {t.__code__: name for name, t in targets.items() if hasattr(t, "__code__")}
    by_id = {id(t): name for name, t in targets.items() if not hasattr(t, "__code__")}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            counts[by_code[frame.f_code]] += 1
        elif event == "c_call" and id(arg) in by_id:
            counts[by_id[id(arg)]] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, counts


def make_math_lines(count: int = 20) -> list[dict]:
    """Synthetic calculator-annotated items with step counts spread 2..7."""
    lines = []
    for i in range(count):
        steps = 2 + i % 6
        value = 10 + 3 * i
        parts = [f"Phase 0 starts with {value} boxes."]
        for k in range(steps):
            add = k + 2
            parts.append(f"Phase {k + 1} adds {add}: <<{value}+{add}={value + add}>>.")
            value += add
        solution = " ".join(parts) + f"\n#### {value}"
        question = (
            f"Crew {i} starts with {10 + 3 * i} boxes and works {steps} loading phases, "
            f"each moving one more box than the phase number plus one. "
            f"How many boxes at the end?"
        )
        lines.append({"id": f"g{i:03d}", "question": question, "answer": solution})
    return lines


def write_gsm8k_file(path: Path, lines: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def build_math_corpus(path: Path, count: int = 20):
    write_gsm8k_file(path, make_math_lines(count))
    return load_gsm8k(path)


def gold_number(problem) -> str:
    value = problem.gold_answer
    return str(value.numerator) if value.denominator == 1 else str(float(value))


def math_transcript_entries(problems, wrong_direct_ids=(), unparseable_direct_ids=()):
    """Transcript covering direct, plan, and guided prompts for every item.

    Direct answers are wrong or unparseable for the given ids; guided
    answers are always correct, so plan-augmented accuracy strictly exceeds
    direct accuracy whenever any direct failure is scripted.
    """
    entries = []
    for p in problems:
        gold = gold_number(p)
        if p.id in unparseable_direct_ids:
            direct = "This puzzle resists a straight count, sorry."
        elif p.id in wrong_direct_ids:
            wrong = str(int(gold) + 1)
            direct = f"Counting quickly. The final answer is: {wrong}"
        else:
            direct = f"Counting each phase. The final answer is: {gold}"
        entries.append((render_prompt("direct", p), direct))
        entries.append((render_prompt("plan", p), MATH_PLAN_TEXT))
        guided = f"Following the idea carefully. The final answer is: {gold}"
        entries.append((render_prompt("guided", p, MATH_PLAN_TEXT), guided))
    return entries


def probe_entries(problems, wrong_every: int = 0) -> list[tuple[str, str]]:
    """A transcript answer for every probe of `problems`; with `wrong_every`
    k, every k-th answer is off by one."""
    return [
        (
            PROBE_PROMPT.format(expression=p.expression),
            str(p.exact_value + 1 if wrong_every and k % wrong_every == 0 else p.exact_value),
        )
        for k, p in enumerate(extract_probes(problems).probes)
    ]


TOOL_FUNCTIONS = [
    {"name": "search_flights", "description": "find flights", "parameters": {"origin": "str", "dest": "str"}},
    {"name": "book_flight", "description": "book one flight", "parameters": {"flight_id": "str"}},
    {"name": "get_weather", "description": "city forecast", "parameters": {"city": "str"}},
    {"name": "send_mail", "description": "notify user", "parameters": {"to": "str", "body": "str"}},
]


def make_tool_lines(count: int = 6) -> list[dict]:
    lines = []
    for i in range(count):
        calls = [
            {"name": "search_flights", "params": {"origin": f"city{i}", "dest": "hub"}, "success": True},
            {"name": "book_flight", "params": {"flight_id": f"F{i}"}, "success": True},
        ]
        if i % 2 == 0:
            calls.append({"name": "get_weather", "params": {"city": "hub"}, "success": True})
        if i % 3 == 0:
            calls.append({"name": "send_mail", "params": {"to": f"user{i}", "body": "done"}, "success": True})
        lines.append(
            {
                "id": f"t{i:03d}",
                "task": f"Arrange trip {i} from city{i} to the hub and confirm.",
                "functions": TOOL_FUNCTIONS,
                "calls": calls,
            }
        )
    return lines


def write_tool_file(path: Path, lines: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path


def build_tool_corpus(path: Path, count: int = 6):
    write_tool_file(path, make_tool_lines(count))
    return load_toolbench(path).tasks


TOOL_PLAN_TEXT = (
    "First decompose the trip request, then pick the flight search API, "
    "then the booking API, and close out with any follow-up calls."
)


def tool_transcript_entries(tasks, degrade_direct_ids=()):
    entries = []
    for t in tasks:
        gold_text = render_call_sequence(t.gold_calls)
        if t.id in degrade_direct_ids:
            direct = "\n".join(gold_text.splitlines()[:-1]) or "no calls today"
        else:
            direct = gold_text
        entries.append((render_prompt("direct", t), direct))
        entries.append((render_prompt("plan", t), TOOL_PLAN_TEXT))
        entries.append((render_prompt("guided", t, TOOL_PLAN_TEXT), gold_text))
    return entries
