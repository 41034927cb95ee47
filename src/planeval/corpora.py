"""Benchmark corpus ingestion: calculator-annotated math word problems and
multi-call tool tasks, with the cleaning rules applied at load time."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from . import arith
from .jsonio import FormatError, read_jsonl

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
    step_count: int
    flags: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


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

    def mode(self) -> int:
        return max(self.mass, key=lambda n: (self.mass[n], -n))


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


@dataclass(frozen=True)
class ToolLoadResult:
    tasks: tuple[ToolTask, ...]
    dropped_tasks: int
    dropped_calls: int
    drop_reasons: Mapping[str, int]


def _parse_decimal(text: str) -> Fraction:
    cleaned = text.replace(",", "").replace("$", "").strip().rstrip(".")
    return Fraction(cleaned)


def load_gsm8k(path: str | Path) -> list[MathProblem]:
    """Load math items from JSON Lines with `question` and `answer` fields.

    The gold answer is the number after the final `#### ` marker (commas
    stripped); every `<<expr=result>>` span becomes one calculator
    annotation and the step count is the annotation count. Items without
    annotations are retained with step_count 0 and flagged. Annotations
    whose expression does not re-evaluate to the annotated result (1e-6
    relative) are flagged, never silently fixed.
    """
    problems: list[MathProblem] = []
    for line_no, obj in read_jsonl(path):
        if "question" not in obj or "answer" not in obj:
            raise FormatError("missing question/answer field", line_no)
        question = obj["question"]
        solution = obj["answer"]
        item_id = str(obj.get("id", f"g{line_no:05d}"))

        final = FINAL_ANSWER_RE.findall(solution)
        if not final:
            raise FormatError("missing #### answer marker", line_no)
        try:
            gold = _parse_decimal(final[-1])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"unparseable gold answer {final[-1]!r}", line_no) from exc

        annotations: list[tuple[str, Fraction]] = []
        flags: list[str] = []
        for span in ANNOTATION_RE.findall(solution):
            if "=" not in span:
                raise ParseError("annotation has no '='", f"<<{span}>>", line_no)
            expr, result_text = span.rsplit("=", 1)
            try:
                result = _parse_decimal(result_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(
                    f"unparseable annotated result {result_text!r}", f"<<{span}>>", line_no
                ) from exc
            annotations.append((expr, result))
            flag = _verify_annotation(expr, result)
            if flag:
                flags.append(flag)

        if not annotations:
            flags.append("no_annotations")
        problems.append(
            MathProblem(
                id=item_id,
                question=question,
                gold_solution=solution,
                gold_answer=gold,
                calc_annotations=tuple(annotations),
                step_count=len(annotations),
                flags=tuple(flags),
            )
        )
    return problems


def _verify_annotation(expr: str, annotated: Fraction) -> str | None:
    try:
        value = arith.eval_expr(arith.normalize_expression(expr))
    except (ValueError, ZeroDivisionError):
        return f"annotation_unparsed:{expr.strip()}"
    if annotated == 0:
        ok = value == 0
    else:
        ok = abs(value - annotated) <= arith.REL_TOLERANCE * abs(annotated)
    return None if ok else f"annotation_mismatch:{expr.strip()}"


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


def step_distribution(problems: Sequence[MathProblem]) -> StepDistribution:
    """Empirical distribution of step counts over items with at least one
    annotation; flagged zero-step items are excluded."""
    counts = Counter(p.step_count for p in problems if p.step_count >= 1)
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
    for line_no, obj in read_jsonl(path):
        for key in ("task", "functions", "calls"):
            if key not in obj:
                raise FormatError(f"missing {key} field", line_no)
        item_id = str(obj.get("id", f"tool-{line_no:05d}"))
        functions = []
        for f in obj["functions"]:
            if not isinstance(f, dict) or not f.get("name"):
                raise FormatError("function entry missing name", line_no)
            functions.append(
                FunctionSpec(
                    name=f["name"],
                    description=f.get("description", ""),
                    parameters=f.get("parameters", {}),
                )
            )
        known = {f.name for f in functions}

        gold: list[ToolCall] = []
        for call in obj["calls"]:
            if not isinstance(call, dict) or not call.get("name"):
                raise FormatError("call entry missing name", line_no)
            if "success" in call:
                ok = bool(call["success"])
            else:
                ok = not call.get("error")
            if not ok:
                dropped_calls += 1
                continue
            params = tuple((str(k), str(v)) for k, v in (call.get("params") or {}).items())
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
