"""Two-round plan-guided inference: direct CoT baseline, Round1 plan
generation, Round2 plan-guided solving, cross-model plan replacement, and
plan linting. Prompt templates ship as bit-exact files and are treated as
protocol constants."""

from __future__ import annotations

import hashlib
import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Sequence

from .arith import parse_model_number
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

    @property
    def placeholders(self) -> tuple[str, ...]:
        seen: list[str] = []
        for m in _PLACEHOLDER_RE.finditer(self.body):
            if m.group(1) not in seen:
                seen.append(m.group(1))
        return tuple(seen)

    def render(self, **bindings: str) -> str:
        """Pure substitution; every placeholder in the body must be bound."""
        missing = [p for p in self.placeholders if p not in bindings]
        if missing:
            raise RenderError(f"unbound placeholders in {self.name}: {missing}")
        out = self.body
        for key in self.placeholders:
            out = out.replace("{" + key + "}", str(bindings[key]))
        return out


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
    expressions or parameter values. Lint flags are advisory only."""

    item_id: str
    generator_model: str
    text: str
    lint_flags: tuple[str, ...] = ()

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

    Lines that fail the grammar are skipped and counted, not guessed at.
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
        params: list[tuple[str, str]] = []
        ok = True
        if arg_text:
            for fragment in arg_text.split(","):
                fragment = fragment.strip()
                if "=" not in fragment:
                    ok = False
                    break
                key, value = fragment.split("=", 1)
                params.append((key.strip(), value.strip()))
        if not ok or len({k for k, _ in params}) != len(params):
            skipped += 1
            continue
        calls.append(ToolCall(name=name, params=tuple(params)))
    return tuple(calls), skipped


_ARITH_EQ_RE = re.compile(
    r"\d+(?:\.\d+)?(?:\s*[+\-*/×÷−]\s*\d+(?:\.\d+)?)+\s*="
)
_PARAM_PAIR_RE = re.compile(r"\b[A-Za-z_]\w*\s*=\s*\S")
_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")
_CALLED_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


def _format_gold_number(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return str(float(value))


def has_answer_leak(text: str, gold_answer: Fraction) -> bool:
    """True when the gold answer appears as a standalone number."""
    token = re.escape(_format_gold_number(gold_answer))
    return re.search(rf"(?<!\d)(?<!\d\.){token}(?!\.?\d)", text) is not None


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
    return _lint_text(plan.text, item)


def _lint_text(text: str, item: MathProblem | ToolTask) -> list[str]:
    if isinstance(item, MathProblem):
        return _lint_math(text, item)
    return _lint_tool(text, item)


def _grade_math(response_text: str, item: MathProblem) -> tuple[float, tuple[str, ...]]:
    if parse_model_number(response_text) is None:
        return 0.0, ("unparseable_response",)
    return (1.0 if check_math_answer(response_text, item.gold_answer) else 0.0), ()


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


def _grade(response_text: str, item) -> tuple[float, int, tuple[str, ...]]:
    if isinstance(item, MathProblem):
        score, flags = _grade_math(response_text, item)
        return score, item.step_count, flags
    score, flags = _grade_tool(response_text, item)
    return score, len(item.gold_calls), flags


def _direct_prompt(item) -> str:
    if isinstance(item, MathProblem):
        return load_template("math_direct").render(question=item.question)
    return load_template("tool_direct").render(task=item.task, func=render_functions(item))


def _plan_prompt(item) -> str:
    if isinstance(item, MathProblem):
        return load_template("math_plan").render(question=item.question)
    return load_template("tool_plan").render(task=item.task, func=render_functions(item))


def _guided_prompt(item, plan_text: str) -> str:
    if isinstance(item, MathProblem):
        return load_template("math_guided").render(question=item.question, idea=plan_text)
    return load_template("tool_guided").render(
        task=item.task, func=render_functions(item), idea=plan_text
    )


def solve_direct(
    gateway: Gateway,
    model: ModelSpec,
    item: MathProblem | ToolTask,
    condition: Condition = Condition.DIRECT_COT,
) -> EvalRecord:
    """One-round baseline: render the direct prompt, call once, grade."""
    exchange = gateway.complete(model, [user_message(_direct_prompt(item))])
    score, steps, flags = _grade(exchange.response.text, item)
    return EvalRecord(
        item_id=item.id,
        condition=condition,
        score=score,
        step_count=steps,
        solver_model=model.name,
        response_text=exchange.response.text,
        flags=flags,
    )


def generate_plan(gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask) -> Plan:
    """Round1: ask for an abstract solving outline. The response text is the
    plan verbatim, with no post-processing."""
    exchange = gateway.complete(model, [user_message(_plan_prompt(item))])
    text = exchange.response.text
    return Plan(
        item_id=item.id,
        generator_model=model.name,
        text=text,
        lint_flags=tuple(_lint_text(text, item)),
    )


def solve_with_plan(
    gateway: Gateway, model: ModelSpec, item: MathProblem | ToolTask, plan: Plan
) -> EvalRecord:
    """Round2: solve with the question and the Round1 plan embedded
    byte-identically in the guided prompt."""
    if plan.item_id != item.id:
        raise ValueError(f"plan is for item {plan.item_id!r}, not {item.id!r}")
    exchange = gateway.complete(model, [user_message(_guided_prompt(item, plan.text))])
    score, steps, flags = _grade(exchange.response.text, item)
    condition = (
        Condition.PLAN_AUGMENTED
        if plan.generator_model == model.name
        else Condition.CROSS_MODEL_PLAN
    )
    return EvalRecord(
        item_id=item.id,
        condition=condition,
        score=score,
        step_count=steps,
        solver_model=model.name,
        planner_model=plan.generator_model,
        response_text=exchange.response.text,
        plan_text=plan.text,
        flags=flags,
    )


def generate_plans(
    gateway: Gateway,
    planners: Sequence[ModelSpec],
    corpus: Sequence[MathProblem | ToolTask],
    concurrency: int = 8,
) -> dict[tuple[ModelSpec, int], Plan | GatewayError]:
    """Round1 once per (planner, item position), in planner-major, item order.

    Each value is the plan or the GatewayError that ended its call. Keys use
    the item's position because item ids are not checked for uniqueness.
    """
    keys = [(planner, pos) for planner in dict.fromkeys(planners) for pos in range(len(corpus))]

    def plan_one(key):
        planner, pos = key
        try:
            return generate_plan(gateway, planner, corpus[pos])
        except GatewayError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        return dict(zip(keys, pool.map(plan_one, keys)))


def expand_matrix(
    conditions: Sequence[Condition | str],
    solvers: Sequence[ModelSpec],
    planners: Sequence[ModelSpec],
) -> list[tuple[Condition, ModelSpec, ModelSpec | None]]:
    """The (condition, solver, planner) cells run for every item, in run order.

    Baselines have no planner, plan_augmented solvers plan for themselves,
    and cross_model_plan pairs each planner with every other solver.
    """
    cells: list[tuple[Condition, ModelSpec, ModelSpec | None]] = []
    for cond in map(Condition, conditions):
        if cond in (Condition.DIRECT_COT, Condition.SFT_COT_BASELINE):
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
    concurrency: int = 8,
) -> MatrixRun:
    """Execute the full (item, condition, solver, planner) cross-product.

    Round1 runs first, once per (planner, item), and every guided job of
    that pair solves with the same Plan. All model traffic goes through the
    gateway cache, so an interrupted run re-invoked with the same inputs
    replays from cache without duplicate calls.
    """
    cells = expand_matrix(conditions, solvers, planners)
    plans = generate_plans(
        gateway, [planner for _, _, planner in cells if planner is not None], corpus, concurrency
    )
    jobs = [(pos, *cell) for pos in range(len(corpus)) for cell in cells]

    def run_job(job):
        pos, cond, solver, planner = job
        item = corpus[pos]
        outcome = None if planner is None else plans[planner, pos]
        if not isinstance(outcome, GatewayError):
            try:
                if planner is None:
                    return solve_direct(gateway, solver, item, condition=cond), None
                return solve_with_plan(gateway, solver, item, outcome), None
            except GatewayError as exc:
                outcome = exc
        failure = MatrixFailure(
            item_id=item.id,
            condition=cond.value,
            solver_model=solver.name,
            planner_model=None if planner is None else planner.name,
            error=str(outcome),
        )
        return None, failure

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        outcomes = list(pool.map(run_job, jobs))

    records = sorted(
        (rec for rec, _ in outcomes if rec is not None),
        key=lambda r: (r.item_id, r.condition.value, r.solver_model, r.planner_model or ""),
    )
    failures = tuple(f for _, f in outcomes if f is not None)
    return MatrixRun(records=tuple(records), failures=failures)
