from __future__ import annotations

import random
from fractions import Fraction

import pytest

from planeval.arith import (
    DivisionByZeroError,
    ExpressionSyntaxError,
    PROBE_PROMPT,
    eval_expr,
    grade_number,
    measure_p_exe,
    normalize_expression,
    parse_decimal,
    parse_model_number,
    within_tolerance,
)
from planeval.corpora import ArithmeticProbe
from planeval.gateway import Gateway, MockTransport, RetryPolicy


# --- independent oracle: random expression trees evaluated at generation time


def _random_tree(rng: random.Random, depth: int):
    """Returns (expression string, exact value); value computed on the tree,
    never through the parser under test."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.randint(0, 10_000)
        return str(leaf), Fraction(leaf)
    op = rng.choice("+-*/")
    left_s, left_v = _random_tree(rng, depth - 1)
    right_s, right_v = _random_tree(rng, depth - 1)
    if op == "/" and right_v == 0:
        right_s, right_v = "7", Fraction(7)
    value = {
        "+": left_v + right_v,
        "-": left_v - right_v,
        "*": left_v * right_v,
        "/": left_v / right_v if right_v != 0 else None,
    }[op]
    return f"({left_s}{op}{right_s})", value


def _flat_chain_value(nums: list[int], ops: list[str]) -> Fraction:
    """Two-pass evaluation: fold * and / first, then + and -. Independent of
    the recursive-descent parser."""
    values = [Fraction(nums[0])]
    pending = []
    for op, num in zip(ops, nums[1:]):
        if op == "*":
            values[-1] *= num
        elif op == "/":
            values[-1] /= num
        else:
            pending.append(op)
            values.append(Fraction(num))
    total = values[0]
    for op, v in zip(pending, values[1:]):
        total = total + v if op == "+" else total - v
    return total


def test_precedence():
    assert eval_expr("2+3*4") == 14


def test_parentheses():
    assert eval_expr("(16-3-4)*2") == 18


def test_left_associativity():
    assert eval_expr("8-3-2") == 3
    assert eval_expr("16/4/2") == 2


def test_decimals_are_exact():
    assert eval_expr("0.25") == Fraction(1, 4)
    assert eval_expr("0.1+0.2") == Fraction(3, 10)
    assert eval_expr(".5*4") == 2


def test_unary_minus():
    assert eval_expr("-3+5") == 2
    assert eval_expr("2*-3") == -6
    assert eval_expr("-(2+3)") == -5


def test_operator_glyphs_accepted():
    assert eval_expr("3×4") == 12
    assert eval_expr("8÷2") == 4
    assert eval_expr("9−2") == 7


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        eval_expr("1/0")
    with pytest.raises(DivisionByZeroError):
        eval_expr("5/(3-3)")


@pytest.mark.parametrize("bad", ["", "2+", "(1", "1)(", "2**3", "a+1", "1 2"])
def test_syntax_errors(bad):
    with pytest.raises(ExpressionSyntaxError):
        eval_expr(bad)


def test_matches_tree_oracle_on_random_expressions():
    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        expr, value = _random_tree(rng, depth=4)
        if value is None:
            continue
        assert eval_expr(expr) == value, expr
        checked += 1


def test_matches_flat_chain_oracle():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randint(2, 6)
        nums = [rng.randint(1, 500) for _ in range(k)]
        ops = [rng.choice("+-*/") for _ in range(k - 1)]
        expr = str(nums[0]) + "".join(f"{o}{n}" for o, n in zip(ops, nums[1:]))
        assert eval_expr(expr) == _flat_chain_value(nums, ops), expr


def test_normalize_expression():
    assert normalize_expression(" 2 + 3 ") == "2+3"
    assert normalize_expression("2×3÷4") == "2*3/4"
    assert normalize_expression("1,200+5") == "1200+5"
    assert normalize_expression("7−2") == "7-2"


def test_normalization_preserves_value():
    rng = random.Random(5)
    for _ in range(100):
        expr, value = _random_tree(rng, depth=3)
        if value is None:
            continue
        spaced = expr.replace("+", " + ").replace("*", " * ")
        assert eval_expr(normalize_expression(spaced)) == value


# --- answer-number extraction


def test_parse_final_answer_marker():
    assert parse_model_number("The final answer is: 72") == 72


def test_parse_marker_with_parentheses():
    assert parse_model_number("The final answer is:(72)") == 72


def test_parse_currency_and_commas():
    assert parse_model_number("...so she makes $1,350 per week") == 1350


def test_parse_prefers_marker_over_later_numbers():
    text = "step 1 gives 10. The final answer is: 7 (see step 3)"
    assert parse_model_number(text) == 7


def test_parse_falls_back_to_last_number():
    assert parse_model_number("we get 4 then 9") == 9


def test_parse_percent_and_units():
    assert parse_model_number("The final answer is: 35%") == 35
    assert parse_model_number("The final answer is: 12 km") == 12


def test_parse_negative_and_decimal():
    assert parse_model_number("The final answer is: -3.5") == Fraction(-7, 2)


def test_parse_no_number_returns_none():
    assert parse_model_number("I cannot solve this.") is None
    assert parse_model_number("") is None


@pytest.mark.parametrize(
    "text",
    ["0", "007", "1,350", "-3.5", "+5", "3.", ".5", " 12 ", "1/4", "1/0", "", "²", "٣", "12٣", "5" * 5000],
    ids=lambda text: text if len(text) < 20 else f"{len(text)}-digits",
)
def test_parse_decimal_agrees_with_fraction(text):
    try:
        expected = Fraction(text.replace(",", ""))
    except Exception as exc:  # the class is what must agree
        with pytest.raises(type(exc)):
            parse_decimal(text)
    else:
        value = parse_decimal(text)
        assert type(value) is Fraction and value == expected


def test_parse_model_number_is_none_for_a_token_too_long_for_int():
    assert parse_model_number("The final answer is: " + "9" * 5000) is None


# --- grading


def test_integer_expected_requires_exact_match():
    assert grade_number(Fraction(18), Fraction(18))
    assert not grade_number(Fraction("18.0000001"), Fraction(18))
    assert not grade_number(None, Fraction(18))


def test_noninteger_expected_uses_relative_tolerance():
    expected = Fraction(1, 3)
    assert grade_number(Fraction("0.333333"), expected)
    assert not grade_number(Fraction("0.3334"), expected)


def test_within_tolerance_is_relative_to_the_reference_and_inclusive():
    for ref in (Fraction(3, 7), Fraction(-3, 7), Fraction(10**9)):
        assert within_tolerance(ref, ref)
        for step in (abs(ref) / 10**6, -abs(ref) / 10**6):
            assert within_tolerance(ref + step, ref)
            assert not within_tolerance(ref + step * Fraction(10**6 + 1, 10**6), ref)
    assert within_tolerance(Fraction(0), Fraction(0))
    assert not within_tolerance(Fraction(1, 10**12), Fraction(0))
    assert not within_tolerance(Fraction(0), Fraction(1, 10**12))


# --- probe harness


def _probes(n):
    return [
        ArithmeticProbe(expression=f"{i}+1", exact_value=Fraction(i + 1), source_ids=(f"s{i}",))
        for i in range(n)
    ]


def _probe_gateway(tmp_path, probes, answer_for, max_in_flight=8):
    entries = {
        PROBE_PROMPT.format(expression=p.expression): answer_for(p) for p in probes
    }
    transport = MockTransport(by_prompt=entries)
    return Gateway(
        tmp_path / "cache",
        transport=transport,
        retry=RetryPolicy(base_delay=0),
        max_in_flight=max_in_flight,
    )


def test_p_exe_all_correct(tmp_path, model_spec):
    probes = _probes(40)
    gw = _probe_gateway(tmp_path, probes, lambda p: str(p.exact_value), max_in_flight=4)
    run = measure_p_exe(gw, model_spec, probes)
    assert run.p_exe == 1.0
    assert not run.ungraded


def test_p_exe_counts_fraction_correct(tmp_path, model_spec):
    probes = _probes(1000)
    wrong = {p.expression for p in probes[:139]}
    gw = _probe_gateway(
        tmp_path,
        probes,
        lambda p: "999999" if p.expression in wrong else str(p.exact_value),
        max_in_flight=8,
    )
    run = measure_p_exe(gw, model_spec, probes)
    assert run.p_exe == pytest.approx(0.861)


def test_p_exe_invariant_under_probe_order(tmp_path, model_spec):
    probes = _probes(50)
    wrong = {p.expression for p in probes[::3]}
    answer = lambda p: "0" if p.expression in wrong else str(p.exact_value)
    gw = _probe_gateway(tmp_path, probes, answer)
    forward = measure_p_exe(gw, model_spec, probes).p_exe
    gw2 = _probe_gateway(tmp_path, probes, answer)
    backward = measure_p_exe(gw2, model_spec, list(reversed(probes))).p_exe
    assert forward == backward


def test_transport_failures_excluded_from_denominator(tmp_path, model_spec):
    probes = _probes(10)
    reachable = probes[2:]
    gw = _probe_gateway(tmp_path, reachable, lambda p: str(p.exact_value))
    run = measure_p_exe(gw, model_spec, probes)
    assert len(run.ungraded) == 2
    assert len(run.results) == 8
    assert run.p_exe == 1.0


def test_empty_probe_list_rejected(tmp_path, model_spec):
    gw = _probe_gateway(tmp_path, [], lambda p: "")
    with pytest.raises(ValueError):
        measure_p_exe(gw, model_spec, [])
