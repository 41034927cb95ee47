"""Exact arithmetic: expression evaluation over rationals, answer-number
extraction from model text, and the single-step probe harness."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gateway import Gateway, GatewayError, ModelSpec, user_message

PROBE_PROMPT = (
    "Compute the value of the following expression. Reply with only the number.\n{expression}"
)

REL_TOLERANCE = Fraction(1, 10**6)


class ExpressionSyntaxError(ValueError):
    """Expression does not parse as +,-,*,/ arithmetic over decimals."""


class DivisionByZeroError(ZeroDivisionError):
    """Expression divides by an exactly-zero denominator."""


_GLYPHS = {"×": "*", "÷": "/", "−": "-", "–": "-"}
_NUMBER_RE = re.compile(r"\d+\.\d+|\d+\.|\.\d+|\d+")


def normalize_expression(text: str) -> str:
    """Canonical expression string: no whitespace, ASCII operators, and no
    thousands separators inside numbers."""
    out = text
    for glyph, ascii_op in _GLYPHS.items():
        out = out.replace(glyph, ascii_op)
    out = re.sub(r"(?<=\d),(?=\d)", "", out)
    out = re.sub(r"\s+", "", out)
    return out


def _tokenize(expression: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(expression)
    while i < n:
        ch = expression[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _GLYPHS:
            tokens.append(_GLYPHS[ch])
            i += 1
            continue
        if ch in "+-*/()":
            tokens.append(ch)
            i += 1
            continue
        m = _NUMBER_RE.match(expression, i)
        if m:
            tokens.append(m.group(0))
            i = m.end()
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r} at position {i}")
    return tokens


def parse_decimal(text: str) -> Fraction:
    """Exact value of a number literal, thousands commas ignored: the value
    of `Fraction(text)` without its commas, or the same exception. A run of
    ASCII digits alone skips `Fraction`'s string parser."""
    text = text.replace(",", "")
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    return Fraction(text)


class _Parser:
    """Recursive-descent parser: standard precedence, left-associative."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Fraction:
        value = self.sum()
        if self.pos != len(self.tokens):
            raise ExpressionSyntaxError(f"trailing tokens at {self.tokens[self.pos:]}")
        return value

    def sum(self) -> Fraction:
        value = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self) -> Fraction:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise DivisionByZeroError("division by zero")
                value = value / rhs
        return value

    def unary(self) -> Fraction:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign * self.atom()

    def atom(self) -> Fraction:
        tok = self.take()
        if tok == "(":
            value = self.sum()
            if self.peek() != ")":
                raise ExpressionSyntaxError("missing closing parenthesis")
            self.take()
            return value
        if tok and (tok[0].isdigit() or tok[0] == "."):
            return parse_decimal(tok)
        raise ExpressionSyntaxError(f"unexpected token {tok!r}")


def eval_expr(expression: str) -> Fraction:
    """Evaluate an arithmetic expression exactly.

    Decimal literals convert exactly (0.25 becomes 1/4), so grading never
    suffers float rounding. Raises ExpressionSyntaxError or
    DivisionByZeroError.
    """
    tokens = _tokenize(expression)
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    return _Parser(tokens).parse()


_ANSWER_MARKER = re.compile(r"the\s+final\s+answer\s+is\s*:?", re.IGNORECASE)
# Comma-grouped form first so "1,350" is one token, then plain decimals.
_ANSWER_NUMBER = re.compile(
    r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|[-+]?\.\d+"
)


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
