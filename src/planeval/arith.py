"""Exact arithmetic: expression evaluation over rationals, answer-number
extraction from model text, and the single-step probe harness.

Expressions are read with Python's own expression grammar (`ast.parse`) and
evaluated over `Fraction` by a walk that admits only `+ - * /`, unary signs
and decimal literals."""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .gateway import Gateway, GatewayError, ModelSpec, user_message

PROBE_PROMPT = (
    "Compute the value of the following expression. Reply with only the number.\n{expression}"
)

REL_TOLERANCE = Fraction(1, 10**6)


class ExpressionSyntaxError(ValueError):
    """Expression does not parse as +,-,*,/ arithmetic over decimals."""


class DivisionByZeroError(ZeroDivisionError):
    """Expression divides by an exactly-zero denominator."""


_GLYPHS = str.maketrans("×÷−–", "*/--")
_LEADING_ZEROS = re.compile(r"(?<![\d.])0+(?=\d)")
_EXPRESSION_CHARS = frozenset("0123456789.+-*/() ")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def normalize_expression(text: str) -> str:
    """Canonical expression string: no whitespace, ASCII operators, and no
    thousands separators inside numbers."""
    out = text.translate(_GLYPHS)
    out = re.sub(r"(?<=\d),(?=\d)", "", out)
    out = re.sub(r"\s+", "", out)
    return out


def parse_decimal(text: str) -> Fraction:
    """Exact value of a number literal, thousands commas ignored: the value
    of `Fraction(text)` without its commas, or the same exception. A run of
    ASCII digits alone skips `Fraction`'s string parser."""
    text = text.replace(",", "")
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    return Fraction(text)


def eval_expr(expression: str) -> Fraction:
    """Evaluate an arithmetic expression exactly.

    The grammar is Python's own expression grammar restricted to `+ - * /`,
    unary signs, parentheses and ASCII decimal literals; the glyphs × ÷ − –
    and leading zeros on integers are accepted. Each literal converts
    exactly from its source text (0.25 becomes 1/4), so grading never
    suffers float rounding. Raises ExpressionSyntaxError, also for nesting
    too deep to parse, or DivisionByZeroError.
    """
    text = " ".join(expression.translate(_GLYPHS).split())
    text = _LEADING_ZEROS.sub("", text)
    bad = set(text) - _EXPRESSION_CHARS
    if bad:
        raise ExpressionSyntaxError(f"unexpected characters {sorted(bad)}")
    try:
        return _value(ast.parse(text, mode="eval").body, text)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # MemoryError is how the parser reports a stack overflow.
        raise ExpressionSyntaxError(f"{type(exc).__name__}: {exc}") from exc


def _value(node: ast.expr, text: str) -> Fraction:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _value(node.left, text), _value(node.right, text)
        if isinstance(node.op, ast.Div) and right == 0:
            raise DivisionByZeroError("division by zero")
        return _BINARY[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_value(node.operand, text))
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return parse_decimal(ast.get_source_segment(text, node))
    raise ExpressionSyntaxError(f"unsupported syntax {type(getattr(node, 'op', node)).__name__}")


_ANSWER_MARKER = re.compile(r"the\s+final\s+answer\s+is\s*:?", re.IGNORECASE)
# One unsigned number: comma-grouped digits first, so "1,350" is one token,
# then plain digits, each with an optional fraction part, or a bare ".5".
NUMBER_PATTERN = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+"
_ANSWER_NUMBER = re.compile(rf"[-+]?(?:{NUMBER_PATTERN})")


def parse_model_number(text: str) -> Fraction | None:
    """Extract the answer number from model text.

    Prefers the first number after the last "The final answer is:" marker,
    falling back to the last numeric token anywhere. Currency signs, percent
    signs, commas, and trailing units are ignored. Returns None when no
    numeric token exists.
    """
    if not text:
        return None
    token = None
    markers = list(_ANSWER_MARKER.finditer(text))
    if markers:
        m = _ANSWER_NUMBER.search(text, markers[-1].end())
        if m:
            token = m.group(0)
    if token is None:
        matches = _ANSWER_NUMBER.findall(text)
        if not matches:
            return None
        token = matches[-1]
    try:
        return parse_decimal(token)
    except (ValueError, ZeroDivisionError):
        return None  # e.g. more digits than `int` converts


def number_values(text: str) -> Iterator[Fraction]:
    """The value of each signed number token in `text`, in order, read as
    `parse_model_number` reads its answer; a token too long to convert is
    left out."""
    for token in _ANSWER_NUMBER.findall(text):
        try:
            yield parse_decimal(token)
        except ValueError:
            continue


def within_tolerance(value: Fraction, reference: Fraction) -> bool:
    """True when `value` is within 1e-6 relative error of `reference`."""
    return value == reference or abs(value - reference) <= REL_TOLERANCE * abs(reference)


def grade_number(parsed: Fraction | None, expected: Fraction) -> bool:
    """Probe grading rule: integers must match exactly, non-integers within
    1e-6 relative error."""
    if parsed is None:
        return False
    if expected.denominator == 1:
        return parsed == expected
    return within_tolerance(parsed, expected)


@dataclass(frozen=True)
class ProbeResult:
    expression: str
    expected: Fraction
    model_text: str
    parsed: Fraction | None
    correct: bool


@dataclass(frozen=True)
class ProbeRun:
    """Outcome of a single-step accuracy measurement.

    Probes whose transport failed after retries are excluded from the
    denominator rather than counted wrong; they are listed in `ungraded`.
    """

    results: tuple[ProbeResult, ...]
    ungraded: tuple[str, ...]

    @property
    def p_exe(self) -> float:
        if not self.results:
            raise ValueError("no graded probes")
        return sum(1 for r in self.results if r.correct) / len(self.results)


def measure_p_exe(gateway: Gateway, model: ModelSpec, probes: Sequence) -> ProbeRun:
    """Prompt the model with each probe expression and grade against the
    exact evaluator. Results keep probe order; aggregation is order-free."""
    if not probes:
        raise ValueError("probes must be nonempty")

    def run_one(probe):
        prompt = PROBE_PROMPT.format(expression=probe.expression)
        text = gateway.complete(model, [user_message(prompt)]).response.text
        parsed = parse_model_number(text)
        return ProbeResult(
            expression=probe.expression,
            expected=probe.exact_value,
            model_text=text,
            parsed=parsed,
            correct=grade_number(parsed, probe.exact_value),
        )

    outcomes = gateway.map(run_one, probes)
    results = tuple(res for res in outcomes if isinstance(res, ProbeResult))
    ungraded = tuple(
        probe.expression for probe, res in zip(probes, outcomes) if isinstance(res, GatewayError)
    )
    return ProbeRun(results=results, ungraded=ungraded)
