"""Two-round plan-guided inference: direct CoT baseline, Round1 plan
generation, Round2 plan-guided solving, cross-model plan replacement, and
plan linting. Prompt templates ship as bit-exact files and are treated as
protocol constants."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from typing import Sequence

from .arith import NUMBER_PATTERN, number_values, parse_model_number
from .corpora import MathProblem, ToolCall, ToolTask
from .gateway import Gateway, GatewayError, ModelSpec, user_message
from .scoring import Condition, EvalRecord, check_math_answer, tool_sequence_score

TEMPLATE_NAMES = (
    "math_direct",
    "math_plan",
    "math_guided",
    "tool_direct",
    "tool_plan",
    "tool_guided",
)

_PLACEHOLDER_RE = re.compile(r"\{(question|idea|task|func)\}")


class RenderError(KeyError):
    """A template placeholder was left unbound at render time."""


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    @cached_property
    def placeholders(self) -> tuple[str, ...]:
        seen: list[str] = []
        for m in _PLACEHOLDER_RE.finditer(self.body):
            if m.group(1) not in seen:
                seen.append(m.group(1))
        return tuple(seen)

    def render(self, **bindings: str) -> str:
        """Pure substitution in one pass over the body, so a bound value is
        inserted verbatim even when it holds a placeholder token; every
        placeholder in the body must be bound."""
        missing = [p for p in self.placeholders if p not in bindings]
        if missing:
            raise RenderError(f"unbound placeholders in {self.name}: {missing}")
        return _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), self.body)


@lru_cache(maxsize=None)
def load_template(name: str) -> PromptTemplate:
    if name not in TEMPLATE_NAMES:
        raise ValueError(f"unknown template {name!r}")
    body = (
        resources.files("planeval")
        .joinpath("prompts", f"{name}.txt")
        .read_text(encoding="utf-8")
        .rstrip("\n")
    )
    return PromptTemplate(name=name, body=body)


def template_hashes() -> dict[str, str]:
    """SHA-256 of each template body, recorded in run manifests so prompt
    drift is detectable."""
    return {
        name: hashlib.sha256(load_template(name).body.encode("utf-8")).hexdigest()
        for name in TEMPLATE_NAMES
    }


@dataclass(frozen=True)
class Plan:
    """Round1 output: an abstract arranging outline, free of explicit
    expressions or parameter values; `lint_plan` checks that it is."""

    item_id: str
    generator_model: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("plan text must be nonempty")


def render_functions(task: ToolTask) -> str:
    """Deterministic text form of the task's callable function list."""
    return json.dumps(
        [
            {"name": f.name, "description": f.description, "parameters": dict(f.parameters)}
            for f in task.functions
        ],
        ensure_ascii=False,
    )


def render_call(call: ToolCall) -> str:
    params = ", ".join(f"{k}={v}" for k, v in call.params)
    return f"[func]{call.name}({params})[/func]"


def render_call_sequence(calls: Sequence[ToolCall]) -> str:
    return "\n".join(f"step{i}: {render_call(c)}" for i, c in enumerate(calls, start=1))


_TOOL_LINE_RE = re.compile(r"step(\d+):\s*\[func\]([A-Za-z_]\w*)\((.*)\)\[/func\]$")


def parse_tool_response(text: str) -> tuple[tuple[ToolCall, ...], int]:
    """Parse `step<k>: [func]name(k=v, ...)[/func]` lines from a response.

    After the first argument, a fragment with no `=` continues the previous
    value, comma included. Lines that fail the grammar are skipped and
    counted, not guessed at.
    """
    calls: list[ToolCall] = []
    skipped = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _TOOL_LINE_RE.match(line)
        if not m:
            skipped += 1
            continue
        name, arg_text = m.group(2), m.group(3).strip()
        params: list[list[str]] = []
        ok = True
        if arg_text:
            for fragment in arg_text.split(","):
                if "=" in fragment:
                    params.append(fragment.split("=", 1))
                elif params:
                    params[-1][1] += "," + fragment
                else:
                    ok = False
                    break
        if not ok or len({k.strip() for k, _ in params}) != len(params):
            skipped += 1
            continue
        calls.append(ToolCall(name=name, params=tuple((k.strip(), v.strip()) for k, v in params)))
    return tuple(calls), skipped


_OPERAND = f"(?:{NUMBER_PATTERN})"
_ARITH_EQ_RE = re.compile(rf"{_OPERAND}(?:\s*[+\-*/×÷−]\s*{_OPERAND})+\s*=")
_PARAM_PAIR_RE = re.compile(r"\b[A-Za-z_]\w*\s*=\s*\S")
_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
_CALLED_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def has_answer_leak(text: str, gold_answer: Fraction) -> bool:
    """True when a number in `text`, read as an answer is read, has the gold
    answer as its value or its absolute value ("pages 1-7" leaks 7)."""
    return any(gold_answer in (value, abs(value)) for value in number_values(text))


def _lint_math(text: str, item: MathProblem) -> list[str]:
    flags = []
    if _ARITH_EQ_RE.search(text):
        flags.append("explicit_arithmetic")
    if has_answer_leak(text, item.gold_answer):
        flags.append("answer_leak")
    return flags


def _looks_like_api_name(token: str) -> bool:
    return "_" in token or re.search(r"[a-z][A-Z]", token) is not None


def _lint_tool(text: str, item: ToolTask) -> list[str]:
    flags = []
    known = {f.name for f in item.functions}
    candidates = {t for t in _IDENT_RE.findall(text) if _looks_like_api_name(t)}
    candidates.update(_CALLED_RE.findall(text))
    unknown = sorted(c for c in candidates if c not in known)
    flags.extend(f"unknown_api:{name}" for name in unknown)
    if _PARAM_PAIR_RE.search(text):
        flags.append("parameter_leak")
    return flags


def lint_plan(plan: Plan, item: MathProblem | ToolTask) -> list[str]:
    """Advisory checks that the plan stays abstract: no worked arithmetic or
    leaked answers for math, no unknown APIs or bound parameters for tools."""
    if isinstance(item, MathProblem):
        return _lint_math(plan.text, item)
    return _lint_tool(plan.text, item)


def _grade_math(response_text: str, item: MathProblem) -> tuple[float, tuple[str, ...]]:
    parsed = parse_model_number(response_text)
    if parsed is None:
        return 0.0, ("unparseable_response",)
    return (1.0 if check_math_answer(parsed, item.gold_answer) else 0.0), ()


def _grade_tool(response_text: str, item: ToolTask) -> tuple[float, tuple[str, ...]]:
    calls, skipped = parse_tool_response(response_text)
    flags: list[str] = []
    if skipped:
        flags.append(f"skipped_lines:{skipped}")
    if not calls:
        flags.append("unparseable_response")
    # guard the record invariant against float accumulation dust
    score = min(1.0, max(0.0, tool_sequence_score(calls, item.gold_calls).f1))
    return score, tuple(flags)


def _grade(response_text: str, item) -> tuple[float, tuple[str, ...]]:
    if isinstance(item, MathProblem):
        return _grade_math(response_text, item)
    return _grade_tool(response_text, item)


def render_prompt(stage: str, item: MathProblem | ToolTask, plan_text: str | None = None) -> str:
    """The `stage` ("direct", "plan" or "guided") prompt for `item`. A guided
    prompt embeds `plan_text` verbatim; rendering one without it raises
    RenderError."""
    if isinstance(item, MathProblem):
        kind, bindings = "math", {"question": item.question}
    else:
        kind, bindings = "tool", {"task": item.task, "func": render_functions(item)}
    if plan_text is not None:
        bindings["idea"] = plan_text
    return load_template(f"{kind}_{stage}").render(**bindings)


def _solve(gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask,
           condition: Condition, plan: Plan | None = None) -> EvalRecord:
    """Call once with the direct prompt, or with the guided prompt around the
    plan text, grade the answer and record it under `condition`."""
    plan_text = None if plan is None else plan.text
    prompt = render_prompt("direct" if plan is None else "guided", item, plan_text)
    text = gateway.complete(model, [user_message(prompt)]).response.text
    score, flags = _grade(text, item)
    return EvalRecord(
        item_id=item.id,
        condition=condition,
        score=score,
        step_count=item.step_count,
        solver_model=model.name,
        planner_model=None if plan is None else plan.generator_model,
        response_text=text,
        plan_text=plan_text,
        flags=flags,
    )


def solve_direct(gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask) -> EvalRecord:
    """One-round baseline: render the direct prompt, call once, grade."""
    return _solve(gateway, model, item, Condition.DIRECT_COT)


def generate_plan(gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask) -> Plan:
    """Round1: ask for an abstract solving outline. The response text is the
    plan verbatim, with no post-processing."""
    exchange = gateway.complete(model, [user_message(render_prompt("plan", item))])
    return Plan(item_id=item.id, generator_model=model.name, text=exchange.response.text)


def solve_with_plan(
    gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask, plan: Plan
) -> EvalRecord:
    """Round2: solve with the question and the Round1 plan embedded
    byte-identically in the guided prompt."""
    if plan.item_id != item.id:
        raise ValueError(f"plan is for item {plan.item_id!r}, not {item.id!r}")
    own = plan.generator_model == model.name
    condition = Condition.PLAN_AUGMENTED if own else Condition.CROSS_MODEL_PLAN
    return _solve(gateway, model, item, condition, plan)


def generate_plans(
    gateway: Gateway,
    planners: Sequence[ModelSpec],
    corpus: Sequence[MathProblem | ToolTask],
) -> dict[tuple[str, str], Plan | GatewayError]:
    """Round1 once per (planner, item), in planner-major, item order.

    Each value is the plan or the GatewayError that ended its call, keyed
    by (planner name, item id).
    """
    jobs = [(planner, item) for planner in dict.fromkeys(planners) for item in corpus]
    plans = gateway.map(lambda job: generate_plan(gateway, *job), jobs)
    return {(planner.name, item.id): plan for (planner, item), plan in zip(jobs, plans)}


def expand_matrix(
    conditions: Sequence[Condition | str],
    solvers: Sequence[ModelSpec],
    planners: Sequence[ModelSpec],
) -> list[tuple[Condition, ModelSpec, ModelSpec | None]]:
    """The (condition, solver, planner) cells run for every item, in run order.

    direct_cot has no planner, plan_augmented solvers plan for themselves,
    and cross_model_plan pairs each planner with every other solver.
    """
    cells: list[tuple[Condition, ModelSpec, ModelSpec | None]] = []
    for cond in map(Condition, conditions):
        if cond is Condition.DIRECT_COT:
            cells.extend((cond, solver, None) for solver in solvers)
        elif cond is Condition.PLAN_AUGMENTED:
            cells.extend((cond, solver, solver) for solver in solvers)
        else:
            cells.extend(
                (cond, solver, planner)
                for planner in planners
                for solver in solvers
                if solver.name != planner.name
            )
    return cells


@dataclass(frozen=True)
class MatrixFailure:
    item_id: str
    condition: str
    solver_model: str
    planner_model: str | None
    error: str


@dataclass(frozen=True)
class MatrixRun:
    """Result of a condition-matrix run: graded records in deterministic
    (item_id, condition, solver, planner) order plus a partial-failure
    manifest of ungraded items."""

    records: tuple[EvalRecord, ...]
    failures: tuple[MatrixFailure, ...]


def run_condition_matrix(
    gateway: Gateway,
    solvers: Sequence[ModelSpec],
    planners: Sequence[ModelSpec],
    corpus: Sequence[MathProblem | ToolTask],
    conditions: Sequence[Condition | str],
) -> MatrixRun:
    """Execute the full (item, condition, solver, planner) cross-product.

    Round1 runs first, once per (planner, item), and every guided job of
    that pair solves with the same Plan. All model traffic goes through the
    gateway cache, so an interrupted run re-invoked with the same inputs
    replays from cache without duplicate calls.
    """
    cells = expand_matrix(conditions, solvers, planners)
    plans = generate_plans(
        gateway, [planner for _, _, planner in cells if planner is not None], corpus
    )
    jobs = [(item, *cell) for item in corpus for cell in cells]

    def run_job(job):
        item, cond, solver, planner = job
        if planner is None:
            return solve_direct(gateway, solver, item)
        plan = plans[planner.name, item.id]
        if isinstance(plan, GatewayError):
            return plan
        return solve_with_plan(gateway, solver, item, plan)

    outcomes = gateway.map(run_job, jobs)
    records = sorted(
        (rec for rec in outcomes if isinstance(rec, EvalRecord)),
        key=lambda r: (r.item_id, r.condition.value, r.solver_model, r.planner_model or ""),
    )
    failures = tuple(
        MatrixFailure(
            item_id=item.id,
            condition=cond.value,
            solver_model=solver.name,
            planner_model=None if planner is None else planner.name,
            error=str(outcome),
        )
        for (item, cond, solver, planner), outcome in zip(jobs, outcomes)
        if isinstance(outcome, GatewayError)
    )
    return MatrixRun(records=tuple(records), failures=failures)
