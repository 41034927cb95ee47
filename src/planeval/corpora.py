"""Benchmark corpus ingestion: calculator-annotated math word problems and
multi-call tool tasks, with the cleaning rules applied at load time."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import arith
from .jsonio import FormatError, check_row, read_jsonl

ANNOTATION_RE = re.compile(r"<<([^<>]*)>>")
FINAL_ANSWER_RE = re.compile(r"####\s*([^\n]*)")


class ParseError(ValueError):
    """A calculator annotation could not be parsed."""

    def __init__(self, message: str, span: str, line_no: int | None = None):
        where = f"line {line_no}, " if line_no is not None else ""
        super().__init__(f"{where}span {span!r}: {message}")
        self.span = span
        self.line_no = line_no


class EmptyInput(ValueError):
    pass


@dataclass(frozen=True)
class MathProblem:
    """One math item: question, gold solution text, exact gold answer, and
    the calculator annotations that define its step count."""

    id: str
    question: str
    gold_solution: str
    gold_answer: Fraction
    calc_annotations: tuple[tuple[str, Fraction], ...]

    @property
    def step_count(self) -> int:
        return len(self.calc_annotations)

    @cached_property
    def flags(self) -> tuple[str, ...]:
        """The annotation checks, run on first read: `annotation_unparsed:` or
        `annotation_mismatch:` per annotation whose expression does not
        re-evaluate to its annotated result (1e-6 relative), in annotation
        order, then `no_annotations` for an item without annotations."""
        checked = (_verify_annotation(expr, result) for expr, result in self.calc_annotations)
        flags = [flag for flag in checked if flag]
        if not self.calc_annotations:
            flags.append("no_annotations")
        return tuple(flags)


@dataclass(frozen=True)
class ArithmeticProbe:
    """A deduplicated arithmetic expression used to measure single-step
    execution accuracy in isolation."""

    expression: str
    exact_value: Fraction
    source_ids: tuple[str, ...]


@dataclass(frozen=True)
class SkippedExpression:
    source_id: str
    expression: str
    reason: str


@dataclass(frozen=True)
class ProbeExtraction:
    probes: tuple[ArithmeticProbe, ...]
    skipped: tuple[SkippedExpression, ...]

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


@dataclass(frozen=True)
class StepDistribution:
    """Probability mass over per-item step counts."""

    mass: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.mass:
            raise EmptyInput("step distribution has empty support")
        for n, p in self.mass.items():
            if not (isinstance(n, int) and n >= 1):
                raise ValueError(f"support value {n!r} is not a positive integer")
            if p < 0:
                raise ValueError(f"negative probability {p} at n={n}")
        total = sum(self.mass.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "mass", MappingProxyType(dict(self.mass)))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "StepDistribution":
        total = sum(counts.values())
        if total == 0:
            raise EmptyInput("no counts")
        return cls({n: c / total for n, c in sorted(counts.items())})


@dataclass(frozen=True)
class ToolCall:
    name: str
    params: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tool call name must be nonempty")
        keys = [k for k, _ in self.params]
        if len(keys) != len(set(keys)):
            raise ValueError(f"duplicate parameter keys in call {self.name}")


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    description: str = ""
    parameters: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class ToolTask:
    """One tool-utilization item; retained tasks always have at least two
    distinct gold APIs."""

    id: str
    task: str
    functions: tuple[FunctionSpec, ...]
    gold_calls: tuple[ToolCall, ...]

    @property
    def step_count(self) -> int:
        return len(self.gold_calls)


@dataclass(frozen=True)
class ToolLoadResult:
    tasks: tuple[ToolTask, ...]
    dropped_tasks: int
    dropped_calls: int
    drop_reasons: Mapping[str, int]


def load_gsm8k(path: str | Path) -> list[MathProblem]:
    """Load math items from JSON Lines with `question` and `answer` fields.

    The gold answer is the number after the final `#### ` marker (commas
    stripped); every `<<expr=result>>` span becomes one calculator
    annotation and the step count is the annotation count. Items without
    annotations are retained with step_count 0. The annotations are checked
    on the first read of an item's `flags`: an item without annotations, or
    with one whose expression does not re-evaluate to the annotated result
    (1e-6 relative), is flagged there, never silently fixed.
    """
    problems: list[MathProblem] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        if not isinstance(obj, dict) or "question" not in obj or "answer" not in obj:
            raise FormatError(f"missing question/answer field in {path}", line_no)
        obj = {"id": f"g{line_no:05d}", **obj}
        check_row(obj, {"question": (str,), "answer": (str,), "id": (str,)}, path, line_no)
        question = obj["question"]
        solution = obj["answer"]
        item_id = obj["id"]
        if item_id in seen:
            raise FormatError(f"repeated item id {item_id!r} in {path}", line_no)
        seen.add(item_id)

        final = FINAL_ANSWER_RE.findall(solution)
        if not final:
            raise FormatError(f"missing #### answer marker in {path}", line_no)
        try:
            gold = arith.parse_decimal(final[-1].replace("$", "").strip().rstrip("."))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"unparseable gold answer {final[-1]!r} in {path}", line_no) from exc

        annotations: list[tuple[str, Fraction]] = []
        for span in ANNOTATION_RE.findall(solution):
            if "=" not in span:
                raise ParseError(f"annotation has no '=' in {path}", f"<<{span}>>", line_no)
            expr, result_text = span.rsplit("=", 1)
            try:
                result = arith.parse_decimal(result_text.replace("$", "").strip().rstrip("."))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(
                    f"unparseable annotated result {result_text!r} in {path}", f"<<{span}>>", line_no
                ) from exc
            annotations.append((expr, result))
        problems.append(
            MathProblem(
                id=item_id,
                question=question,
                gold_solution=solution,
                gold_answer=gold,
                calc_annotations=tuple(annotations),
            )
        )
    return problems


def _verify_annotation(expr: str, annotated: Fraction) -> str | None:
    try:
        value = arith.eval_expr(arith.normalize_expression(expr))
    except (ValueError, ZeroDivisionError):
        return f"annotation_unparsed:{expr.strip()}"
    if arith.within_tolerance(value, annotated):
        return None
    return f"annotation_mismatch:{expr.strip()}"


def extract_probes(problems: Sequence[MathProblem]) -> ProbeExtraction:
    """Collect one probe per distinct normalized annotation expression.

    The exact value comes from the evaluator, not from the annotated result.
    Unparseable expressions are excluded and reported in `skipped`.
    """
    values: dict[str, Fraction] = {}
    sources: dict[str, list[str]] = {}
    order: list[str] = []
    skipped: list[SkippedExpression] = []
    for problem in problems:
        for expr, _ in problem.calc_annotations:
            norm = arith.normalize_expression(expr)
            if norm in values:
                if problem.id not in sources[norm]:
                    sources[norm].append(problem.id)
                continue
            try:
                value = arith.eval_expr(norm)
            except (ValueError, ZeroDivisionError) as exc:
                skipped.append(SkippedExpression(problem.id, norm, str(exc)))
                continue
            values[norm] = value
            sources[norm] = [problem.id]
            order.append(norm)
    probes = tuple(
        ArithmeticProbe(expression=e, exact_value=values[e], source_ids=tuple(sources[e]))
        for e in order
    )
    return ProbeExtraction(probes=probes, skipped=tuple(skipped))


def step_distribution(items: Iterable) -> StepDistribution:
    """Empirical distribution of `step_count` over items (problems or
    records) with at least one step; flagged zero-step items are excluded."""
    counts = Counter(p.step_count for p in items if p.step_count >= 1)
    if not counts:
        raise EmptyInput("no problems with step_count >= 1")
    return StepDistribution.from_counts(counts)


def load_toolbench(path: str | Path) -> ToolLoadResult:
    """Load tool tasks from JSON Lines, applying the cleaning rules:
    unsuccessful calls are dropped from gold sequences, and tasks whose
    remaining gold calls cover fewer than two distinct APIs are dropped.
    Counts of dropped tasks and calls are reported on the result.
    """
    tasks: list[ToolTask] = []
    dropped_tasks = 0
    dropped_calls = 0
    reasons: Counter[str] = Counter()
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        for key in ("task", "functions", "calls"):
            if not isinstance(obj, dict) or key not in obj:
                raise FormatError(f"missing {key} field in {path}", line_no)
        obj = {"id": f"tool-{line_no:05d}", **obj}
        check_row(obj, {"task": (str,), "functions": (list,), "calls": (list,), "id": (str,)},
                  path, line_no)
        item_id = obj["id"]
        if item_id in seen:
            raise FormatError(f"repeated item id {item_id!r} in {path}", line_no)
        seen.add(item_id)
        functions = []
        for f in obj["functions"]:
            if not isinstance(f, dict) or not f.get("name"):
                raise FormatError(f"function entry missing name in {path}", line_no)
            f = {"description": "", "parameters": {}, **f}
            check_row(f, {"name": (str,), "description": (str,), "parameters": (dict,)},
                      path, line_no)
            functions.append(FunctionSpec(f["name"], f["description"], f["parameters"]))
        known = {f.name for f in functions}

        gold: list[ToolCall] = []
        for call in obj["calls"]:
            if not isinstance(call, dict) or not call.get("name"):
                raise FormatError(f"call entry missing name in {path}", line_no)
            call = {"params": {}, "success": not call.get("error"), **call}
            check_row(call, {"name": (str,), "params": (dict,), "success": (bool,)},
                      path, line_no)
            if not call["success"]:
                dropped_calls += 1
                continue
            params = tuple((k, v if isinstance(v, str) else json.dumps(v, ensure_ascii=False))
                           for k, v in call["params"].items())
            gold.append(ToolCall(name=call["name"], params=params))

        distinct = {c.name for c in gold}
        if len(distinct) < 2:
            dropped_tasks += 1
            reasons["too_few_distinct_apis"] += 1
            continue
        if not distinct <= known:
            dropped_tasks += 1
            reasons["call_to_unknown_function"] += 1
            continue
        tasks.append(
            ToolTask(
                id=item_id,
                task=obj["task"],
                functions=tuple(functions),
                gold_calls=tuple(gold),
            )
        )
    return ToolLoadResult(
        tasks=tuple(tasks),
        dropped_tasks=dropped_tasks,
        dropped_calls=dropped_calls,
        drop_reasons=dict(reasons),
    )
