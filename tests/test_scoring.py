from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planeval.corpora import StepDistribution, ToolCall
from planeval.scoring import (
    Condition,
    DEFAULT_BOOTSTRAP_RESAMPLES,
    DegenerateInput,
    DomainError,
    EvalRecord,
    MATH_STEP_BUCKETS,
    MisalignedRecords,
    TOOL_STEP_BUCKETS,
    api_selection_f1,
    bucket_by_steps,
    check_math_answer,
    exe_acc,
    fit_power_and_linear,
    mcnemar_exact,
    paired_bootstrap_p,
    paired_significance,
    ranking_consistent,
    reason_score,
    rouge_l,
    tokenize,
    tool_sequence_score,
)


def _record(item_id, score, step_count=2, condition=Condition.DIRECT_COT, model="m"):
    return EvalRecord(
        item_id=item_id,
        condition=condition,
        score=score,
        step_count=step_count,
        solver_model=model,
    )


# --- math answer checking


def test_check_math_answer_exact():
    assert check_math_answer("The final answer is: 18", 18)
    assert check_math_answer(Fraction(18), "18")  # an answer parse_model_number already extracted


def test_check_math_answer_within_tolerance():
    assert check_math_answer("The final answer is: 18.0000001", 18)
    assert check_math_answer(Fraction("1350.0001"), "1,350")
    assert not check_math_answer(Fraction("1350.01"), "1,350")


def test_check_math_answer_wrong():
    assert not check_math_answer("The final answer is: 17", 18)


def test_check_math_answer_unparseable_is_false():
    assert not check_math_answer("no idea", 18)
    assert not check_math_answer(None, 18)


def test_check_math_answer_fraction_gold():
    assert check_math_answer("The final answer is: 0.5", Fraction(1, 2))


def test_check_math_answer_zero_gold_needs_exact_zero():
    assert check_math_answer("The final answer is: 0", 0)
    assert check_math_answer("The final answer is: 0.000", Fraction(0))
    assert not check_math_answer("The final answer is: 0.0000001", 0)
    assert not check_math_answer("The final answer is: -0.0000001", 0)


# --- expected execution accuracy


def test_exe_acc_perfect_and_zero():
    dist = StepDistribution({2: 0.5, 3: 0.5})
    assert exe_acc(1.0, dist) == pytest.approx(1.0)
    assert exe_acc(0.0, dist) == pytest.approx(0.0)


def test_exe_acc_hand_case():
    dist = StepDistribution({2: 0.5, 3: 0.3, 4: 0.2})
    assert exe_acc(0.9, dist) == pytest.approx(0.75492, abs=1e-9)


def test_exe_acc_domain():
    dist = StepDistribution({2: 1.0})
    with pytest.raises(DomainError):
        exe_acc(1.5, dist)
    with pytest.raises(DomainError):
        exe_acc(-0.1, dist)


def test_exe_acc_bounded_by_min_step_power():
    rng = random.Random(7)
    for _ in range(50):
        support = sorted(rng.sample(range(1, 9), k=rng.randint(1, 4)))
        weights = [rng.random() + 0.01 for _ in support]
        total = sum(weights)
        dist = StepDistribution({n: w / total for n, w in zip(support, weights)})
        p = rng.random()
        assert exe_acc(p, dist) <= p ** support[0] + 1e-12


# --- reasoning score


def test_reason_score_ratio():
    assert reason_score(0.5, 0.8) == pytest.approx(0.625)


def test_reason_score_identity_when_equal():
    assert reason_score(0.73, 0.73) == pytest.approx(1.0)


def test_reason_score_zero_denominator():
    with pytest.raises(DomainError):
        reason_score(0.5, 0.0)


def test_reason_score_scale_invariant():
    assert reason_score(36.9, 59.5) == pytest.approx(reason_score(0.369, 0.595))


# --- fitting


def test_fit_exact_identity_line():
    points = [(float(x), float(x)) for x in range(1, 6)]
    fit = fit_power_and_linear(points)
    assert fit.a == pytest.approx(1.0, abs=1e-9)
    assert fit.c == pytest.approx(1.0, abs=1e-9)
    assert fit.b1 == pytest.approx(1.0, abs=1e-9)
    assert fit.b0 == pytest.approx(0.0, abs=1e-9)


def test_fit_recovers_square_law():
    points = [(float(x), float(x) ** 2) for x in range(1, 6)]
    fit = fit_power_and_linear(points)
    assert fit.a == pytest.approx(2.0, abs=1e-6)
    assert fit.sse_power < fit.sse_linear


def test_fit_recovers_generating_parameters():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.3, 0.95, size=12)
    points = [(x, 1.7 * x**2.4) for x in xs]
    fit = fit_power_and_linear(points)
    assert fit.c == pytest.approx(1.7, abs=1e-6)
    assert fit.a == pytest.approx(2.4, abs=1e-6)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        fit_power_and_linear([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(DegenerateInput):
        fit_power_and_linear([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(DomainError):
        fit_power_and_linear([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


# --- ROUGE-L


def test_rouge_identity():
    assert rouge_l("the same text", "the same text") == 1.0


def test_rouge_disjoint():
    assert rouge_l("alpha beta", "gamma delta") == 0.0


def test_rouge_hand_case():
    assert rouge_l("a b c d", "a c d") == pytest.approx(6 / 7, abs=1e-9)
    assert rouge_l("a c d", "a b c d") == pytest.approx(6 / 7, abs=1e-9)


def test_rouge_empty():
    assert rouge_l("", "") == 0.0
    assert rouge_l("a", "") == 0.0


def test_tokenize_splits_punctuation_and_lowercases():
    assert tokenize("Call get_weather(city=Paris)!") == [
        "call",
        "get",
        "weather",
        "city",
        "paris",
    ]


def _lcs_bruteforce(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def test_rouge_agrees_with_bruteforce_lcs():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d", "e"]
    short = [(vocab, vocab, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(200)]
    # up to 80 tokens, past one 64-bit word, each side with tokens the other lacks
    cand_vocab, ref_vocab = ["a", "b", "c", "d", "e", "f"], ["d", "e", "f", "g", "h"]
    sizes = [(0, 5), (5, 0), (0, 0), (64, 64), (65, 80), (80, 80)]
    sizes += [(rng.randint(0, 80), rng.randint(0, 80)) for _ in range(60)]
    for cand_from, ref_from, n, m in short + [(cand_vocab, ref_vocab, n, m) for n, m in sizes]:
        cand = [rng.choice(cand_from) for _ in range(n)]
        ref = [rng.choice(ref_from) for _ in range(m)]
        lcs = _lcs_bruteforce(tuple(cand), tuple(ref))
        expected = (
            0.0
            if lcs == 0
            else 2 * (lcs / len(cand)) * (lcs / len(ref)) / (lcs / len(cand) + lcs / len(ref))
        )
        assert rouge_l(" ".join(cand), " ".join(ref)) == pytest.approx(expected, abs=1e-12)


@given(st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=60)
def test_rouge_bounds_and_symmetry(a, b):
    score = rouge_l(a, b)
    assert 0.0 <= score <= 1.0
    assert score == pytest.approx(rouge_l(b, a))


# --- tool sequence scoring


def _call(name, **params):
    return ToolCall(name=name, params=tuple((k, str(v)) for k, v in params.items()))


def test_tool_score_perfect():
    pred = [_call("A", x=1), _call("B", y=2)]
    gold = [_call("A", x=1), _call("B", y=2)]
    score = tool_sequence_score(pred, gold)
    assert (score.acc, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_tool_score_missing_gold_call():
    pred = [_call("A", x=1), _call("B", y=2)]
    gold = [_call("A", x=1), _call("B", y=2), _call("C", z=3)]
    score = tool_sequence_score(pred, gold)
    assert score.acc == pytest.approx(1.0)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(0.8, abs=1e-9)


def test_tool_score_half_similarity():
    score = tool_sequence_score([_call("A", k=5)], [_call("A", j=5)])
    assert score.acc == pytest.approx(0.5)
    assert score.recall == pytest.approx(0.5)
    assert score.f1 == pytest.approx(0.5)


def test_tool_score_empty_conventions():
    perfect = tool_sequence_score([], [])
    assert (perfect.acc, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
    zero = tool_sequence_score([], [_call("A")])
    assert (zero.acc, zero.recall, zero.f1) == (0.0, 0.0, 0.0)
    zero = tool_sequence_score([_call("A")], [])
    assert (zero.acc, zero.recall, zero.f1) == (0.0, 0.0, 0.0)


def test_tool_score_name_mismatch_scores_nothing():
    score = tool_sequence_score([_call("A", x=1)], [_call("B", x=1)])
    assert score.f1 == 0.0


def test_tool_score_duplicate_names_stay_bounded():
    pred = [_call("A", x=1), _call("A", x=1)]
    gold = [_call("A", x=1)]
    score = tool_sequence_score(pred, gold)
    assert score.acc == pytest.approx(0.5)
    assert score.recall == pytest.approx(1.0)


def test_tool_score_literal_mode_can_exceed_one():
    pred = [_call("A", x=1)]
    gold = [_call("A", x=1), _call("A", x=1)]
    literal = tool_sequence_score(pred, gold, literal=True)
    assert literal.acc > 1.0
    bounded = tool_sequence_score(pred, gold)
    assert 0.0 <= bounded.acc <= 1.0


@pytest.mark.parametrize("literal", [False, True])
def test_tool_score_name_matched_calls_without_parameters_score_one(literal):
    calls = [_call("A"), _call("B", x=1)]
    score = tool_sequence_score(calls, calls, literal=literal)
    assert (score.acc, score.recall, score.f1) == (1.0, 1.0, 1.0)
    assert rouge_l("", "") == 0.0  # the convention stays; only call scoring treats "" == "" as a match


def _random_calls(rng, max_len=5):
    names = ["A", "B", "C"]
    calls = []
    for _ in range(rng.randint(0, max_len)):
        params = {f"k{j}": rng.randint(0, 3) for j in range(rng.randint(0, 3))}
        calls.append(_call(rng.choice(names), **params))
    return calls


def test_tool_score_random_pairs_bounded_and_permutation_invariant():
    rng = random.Random(42)
    for _ in range(300):
        pred = _random_calls(rng)
        gold = _random_calls(rng)
        score = tool_sequence_score(pred, gold)
        for value in (score.acc, score.recall, score.f1):
            assert 0.0 <= value <= 1.0 + 1e-12
        shuffled = pred[:]
        rng.shuffle(shuffled)
        again = tool_sequence_score(shuffled, gold)
        assert again.acc == pytest.approx(score.acc, abs=1e-12)
        assert again.recall == pytest.approx(score.recall, abs=1e-12)


# --- API selection F1


def test_api_f1_identical():
    assert api_selection_f1([_call("A"), _call("B")], [_call("B"), _call("A")]) == 1.0


def test_api_f1_half_overlap():
    assert api_selection_f1([_call("A"), _call("B")], [_call("A"), _call("C")]) == pytest.approx(0.5)


def test_api_f1_multiset_counting():
    assert api_selection_f1([_call("A"), _call("A")], [_call("A")]) == pytest.approx(2 / 3)


def test_api_f1_ignores_parameters():
    assert api_selection_f1([_call("A", x=1)], [_call("A", x=2)]) == 1.0


def test_api_f1_empty_conventions():
    assert api_selection_f1([], []) == 1.0
    assert api_selection_f1([], [_call("A")]) == 0.0


# --- step buckets


def test_bucket_single_value():
    records = [_record(f"i{k}", 1.0, step_count=2) for k in range(4)]
    table = bucket_by_steps(records, MATH_STEP_BUCKETS)
    assert table.buckets[0].label == "2" and table.buckets[0].mean == 1.0
    assert all(b.mean is None for b in table.buckets if b.label != "2")


def test_bucket_open_ended_top():
    records = [_record(f"i{n}", 1.0, step_count=n) for n in (6, 7, 9)]
    table = bucket_by_steps(records, MATH_STEP_BUCKETS)
    top = {b.label: b for b in table.buckets}[">=6"]
    assert top.count == 3


def test_bucket_means_match_bruteforce_grouping():
    rng = random.Random(0)
    records = [
        _record(f"i{k}", rng.random(), step_count=rng.randint(2, 9)) for k in range(120)
    ]
    table = bucket_by_steps(records, MATH_STEP_BUCKETS)
    groups: dict[str, list[float]] = {}
    for r in records:
        label = str(r.step_count) if r.step_count < 6 else ">=6"
        groups.setdefault(label, []).append(r.score)
    for b in table.buckets:
        if b.count:
            assert b.mean == pytest.approx(sum(groups[b.label]) / len(groups[b.label]))
        else:
            assert b.label not in groups


def test_bucket_recomposition_to_global_mean():
    rng = random.Random(1)
    records = [
        _record(f"i{k}", rng.random(), step_count=rng.randint(2, 8)) for k in range(90)
    ]
    table = bucket_by_steps(records, MATH_STEP_BUCKETS)
    weighted = sum(b.mean * b.count for b in table.buckets if b.count)
    total = sum(b.count for b in table.buckets)
    assert weighted / total == pytest.approx(
        sum(r.score for r in records) / len(records), abs=1e-9
    )


def test_bucket_out_of_range_reported():
    records = [_record("a", 1.0, step_count=1), _record("b", 0.5, step_count=2)]
    table = bucket_by_steps(records, TOOL_STEP_BUCKETS)
    assert table.unbucketed_count == 1


def test_bucket_tool_edges():
    records = [_record(f"i{n}", 1.0, step_count=n) for n in (2, 3, 4, 5, 8)]
    table = bucket_by_steps(records, TOOL_STEP_BUCKETS)
    counts = {b.label: b.count for b in table.buckets}
    assert counts == {"2": 1, "3": 1, ">=4": 3}


# --- significance


def test_mcnemar_identical_runs():
    a = [_record(f"i{k}", float(k % 2)) for k in range(10)]
    assert paired_significance(a, a) == 1.0


def test_mcnemar_eight_discordant():
    assert mcnemar_exact(8, 0) == pytest.approx(0.0078125, abs=1e-12)
    a = [_record(f"i{k}", 0.0 if k < 8 else 1.0) for k in range(20)]
    b = [_record(f"i{k}", 1.0) for k in range(20)]
    assert paired_significance(a, b) == pytest.approx(2 * 0.5**8, abs=1e-4)


def test_mcnemar_balanced_discordance_is_insignificant():
    assert mcnemar_exact(5, 5) == 1.0


def test_bootstrap_identical_continuous_scores():
    a = [_record(f"i{k}", 0.25 + (k % 3) * 0.2) for k in range(30)]
    assert paired_significance(a, a) >= 0.99


def test_bootstrap_detects_consistent_shift():
    a = [_record(f"i{k}", 0.2) for k in range(40)]
    b = [_record(f"i{k}", 0.2 + 0.3 + (k % 5) * 0.01) for k in range(40)]
    assert paired_significance(a, b) < 0.01


def test_bootstrap_is_seed_deterministic():
    rng = random.Random(2)
    a = [_record(f"i{k}", rng.random() * 0.9) for k in range(25)]
    b = [_record(f"i{k}", min(1.0, rng.random() * 0.9 + 0.05)) for k in range(25)]
    assert paired_significance(a, b, seed=5) == paired_significance(a, b, seed=5)


def test_misaligned_records_rejected():
    a = [_record("x", 1.0)]
    b = [_record("y", 1.0)]
    with pytest.raises(MisalignedRecords):
        paired_significance(a, b)


def test_duplicate_item_ids_rejected():
    a = [_record("x", 1.0), _record("x", 0.0)]
    with pytest.raises(MisalignedRecords):
        paired_significance(a, a)


def test_paired_bootstrap_input_validation():
    with pytest.raises(MisalignedRecords):
        paired_bootstrap_p([], [])
    with pytest.raises(MisalignedRecords):
        paired_bootstrap_p([0.1], [0.1, 0.2])


@pytest.mark.parametrize("n_resamples", [0, -1])
def test_paired_bootstrap_rejects_fewer_than_one_resample(n_resamples):
    with pytest.raises(DomainError):
        paired_bootstrap_p([0.1, 0.4], [0.3, 0.2], n_resamples=n_resamples)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("side", ["a", "b"])
def test_paired_bootstrap_rejects_non_finite_scores(bad, side):
    a, b = [0.1, 0.4, 0.5], [0.3, 0.2, 0.5]
    (a if side == "a" else b)[1] = bad
    with pytest.raises(DomainError):
        paired_bootstrap_p(a, b)


# --- the chunked bootstrap equals one (n_resamples, N) draw of the same stream


def _one_shot_bootstrap_p(a, b, n_resamples, seed):
    diffs = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    idx = np.random.default_rng(seed).integers(0, diffs.size, size=(n_resamples, diffs.size))
    means = diffs[idx].mean(axis=1)
    return min(1.0, 2.0 * min(float(np.mean(means <= 0.0)), float(np.mean(means >= 0.0))))


@st.composite
def _grid_score_pairs(draw):
    # Scores on a 0.25 grid, so that some resample means are exactly 0.
    n = draw(st.integers(min_value=1, max_value=400))
    scores = st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
    return [k / 4 for k in draw(scores)], [k / 4 for k in draw(scores)]


@given(_grid_score_pairs(), st.sampled_from([1, 7, 1_000]), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_paired_bootstrap_equals_one_shot_draw(pair, n_resamples, seed):
    a, b = pair
    assert paired_bootstrap_p(a, b, n_resamples, seed) == _one_shot_bootstrap_p(a, b, n_resamples, seed)


@pytest.mark.parametrize("n", [1, 8, 9, 30, 1_319])
def test_paired_bootstrap_equals_one_shot_draw_at_default_resamples(n):
    rng = random.Random(n)
    a = [rng.random() for _ in range(n)]
    b = [rng.random() for _ in range(n)]
    expected = _one_shot_bootstrap_p(a, b, DEFAULT_BOOTSTRAP_RESAMPLES, 7)
    assert paired_bootstrap_p(a, b, seed=7) == expected


def test_paired_bootstrap_memory_is_bounded_at_gsm8k_size():
    rng = random.Random(0)
    a = [rng.random() for _ in range(1_319)]
    b = [rng.random() for _ in range(1_319)]
    tracemalloc.start()
    try:
        paired_bootstrap_p(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- property: exe_acc strictly increasing in p_exe


@given(st.floats(min_value=0.01, max_value=0.98), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60)
def test_exe_acc_monotonic(p, seed):
    rng = random.Random(seed)
    support = sorted(rng.sample(range(1, 10), k=rng.randint(1, 5)))
    weights = [rng.random() + 0.05 for _ in support]
    total = sum(weights)
    dist = StepDistribution({n: w / total for n, w in zip(support, weights)})
    assert exe_acc(p, dist) < exe_acc(min(1.0, p + 0.01), dist)


def test_ranking_consistent():
    observed = {"big": 0.9, "mid": 0.7, "small": 0.4}
    assert ranking_consistent(observed, ["big", "mid", "small"])
    assert not ranking_consistent(observed, ["small", "big"])
    assert ranking_consistent(observed, ["big", "absent", "small"])


def test_eval_record_score_bounds():
    with pytest.raises(ValueError):
        _record("x", 1.5)
