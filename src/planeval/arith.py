"""Exact arithmetic: expression evaluation over rationals, answer-number
extraction from model text, and the single-step probe harness."""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .gateway import Gateway, GatewayError, ModelSpec, user_message
from .jsonio import write_jsonl

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


def _to_fraction(literal: str) -> Fraction:
    # "3." is a valid decimal literal; Fraction() rejects the bare trailing dot
    if literal.endswith("."):
        literal = literal[:-1]
    return Fraction(literal)


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
            return _to_fraction(tok)
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
    markers = list(_ANSWER_MARKER.finditer(text))
    if markers:
        tail = text[markers[-1].end():]
        m = _ANSWER_NUMBER.search(tail)
        if m:
            return _clean_number(m.group(0))
    matches = _ANSWER_NUMBER.findall(text)
    if matches:
        return _clean_number(matches[-1])
    return None


def _clean_number(token: str) -> Fraction | None:
    token = token.replace(",", "").strip()
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None


def grade_number(parsed: Fraction | None, expected: Fraction) -> bool:
    """Probe grading rule: integers must match exactly, non-integers within
    1e-6 relative error."""
    if parsed is None:
        return False
    if expected.denominator == 1:
        return parsed == expected
    return abs(parsed - expected) <= REL_TOLERANCE * abs(expected)


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


def measure_p_exe(
    gateway: Gateway,
    model: ModelSpec,
    probes: Sequence,
    out_path: str | Path | None = None,
    concurrency: int = 8,
) -> ProbeRun:
    """Prompt the model with each probe expression and grade against the
    exact evaluator. Results keep probe order; aggregation is order-free."""
    if not probes:
        raise ValueError("probes must be nonempty")

    def run_one(probe):
        prompt = PROBE_PROMPT.format(expression=probe.expression)
        try:
            exchange = gateway.complete(model, [user_message(prompt)])
        except GatewayError:
            return probe, None
        text = exchange.response.text
        parsed = parse_model_number(text)
        return probe, ProbeResult(
            expression=probe.expression,
            expected=probe.exact_value,
            model_text=text,
            parsed=parsed,
            correct=grade_number(parsed, probe.exact_value),
        )

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        outcomes = list(pool.map(run_one, probes))

    results = tuple(res for _, res in outcomes if res is not None)
    ungraded = tuple(probe.expression for probe, res in outcomes if res is None)
    if out_path is not None:
        write_jsonl(
            out_path,
            (
                {
                    **asdict(r),
                    "expected": str(r.expected),
                    "parsed": None if r.parsed is None else str(r.parsed),
                }
                for r in results
            ),
        )
    return ProbeRun(results=results, ungraded=ungraded)
