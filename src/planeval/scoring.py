"""Metrics: math answer checking, expected execution accuracy and the
reasoning-quality ratio, power-law vs linear fitting, ROUGE-L, tool-call
sequence scoring, API-selection F1, step-bucketed breakdowns, and paired
significance tests."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arith import parse_decimal, parse_model_number, within_tolerance
from .corpora import StepDistribution, ToolCall

MATH_STEP_BUCKETS = (2, 3, 4, 5, 6)
TOOL_STEP_BUCKETS = (2, 3, 4)

DEFAULT_BOOTSTRAP_RESAMPLES = 10_000
DEFAULT_SEED = 0
# Resample indices drawn per bootstrap chunk: bounds its memory at any N.
_BOOTSTRAP_CHUNK = 1 << 16


class DomainError(ValueError):
    """Argument outside the metric's mathematical domain."""


class DegenerateInput(ValueError):
    """Too few or collinear-degenerate points for fitting."""


class MisalignedRecords(ValueError):
    """Paired records do not cover the same item ids."""


class Condition(str, Enum):
    DIRECT_COT = "direct_cot"
    PLAN_AUGMENTED = "plan_augmented"
    CROSS_MODEL_PLAN = "cross_model_plan"


@dataclass(frozen=True)
class EvalRecord:
    """Per-item outcome under one evaluation condition.

    Score is binary for math, a tool-sequence F1 for tools; either way it
    lies in [0, 1]. Lint flags never alter scores.
    """

    item_id: str
    condition: Condition
    score: float
    step_count: int
    solver_model: str
    planner_model: str | None = None
    response_text: str = ""
    plan_text: str | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class ToolScore:
    acc: float
    recall: float
    f1: float


@dataclass(frozen=True)
class FitResult:
    """Power-law y = c * x**a and linear y = b0 + b1 * x fits, with residual
    sums and R-squared computed in original y-space for both."""

    c: float
    a: float
    b0: float
    b1: float
    sse_power: float
    sse_linear: float
    r2_power: float
    r2_linear: float

    def to_dict(self) -> dict:
        return {
            "power": {"c": self.c, "a": self.a},
            "linear": {"b0": self.b0, "b1": self.b1},
            "sse_power": self.sse_power,
            "sse_linear": self.sse_linear,
            "r2_power": self.r2_power,
            "r2_linear": self.r2_linear,
        }


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return parse_decimal(str(value))


def check_math_answer(response: str | Fraction | None, gold) -> bool:
    """Numeric equality of the extracted answer against gold, within 1e-6
    relative tolerance. `response` is the model text, or the number that
    `parse_model_number` already extracted from it (None when it found
    none). Unparseable responses are simply wrong."""
    parsed = parse_model_number(response) if isinstance(response, str) else response
    if parsed is None:
        return False
    expected = _as_fraction(gold)
    return within_tolerance(parsed, expected)


def exe_acc(p_exe: float, dist: StepDistribution) -> float:
    """Expected end-to-end accuracy if arranging were perfect: the mean over
    the step-count distribution of p_exe raised to the step count."""
    if not 0.0 <= p_exe <= 1.0:
        raise DomainError(f"p_exe {p_exe} outside [0, 1]")
    return sum(p * p_exe**n for n, p in dist.mass.items())


def reason_score(acc: float, exe_acc_val: float) -> float:
    """Reasoning-quality ratio acc / exe_acc; 1 means execution errors fully
    explain the accuracy gap. May exceed 1 and is reported as-is."""
    if exe_acc_val <= 0:
        raise DomainError("exe_acc must be positive")
    return acc / exe_acc_val


def fit_power_and_linear(points: Sequence[tuple[float, float]]) -> FitResult:
    """Least-squares power fit on (ln x, ln y) and ordinary least-squares
    linear fit, residual sums compared in original y-space."""
    if len(points) < 3:
        raise DegenerateInput("need at least 3 points")
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    if np.all(xs == xs[0]):
        raise DegenerateInput("all x values identical")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DomainError("power fit requires strictly positive x and y")

    a, ln_c = np.polyfit(np.log(xs), np.log(ys), 1)
    c = float(np.exp(ln_c))
    b1, b0 = np.polyfit(xs, ys, 1)

    sse_power = float(np.sum((ys - c * xs ** a) ** 2))
    sse_linear = float(np.sum((ys - (b0 + b1 * xs)) ** 2))
    sst = float(np.sum((ys - ys.mean()) ** 2))

    def r2(sse: float) -> float:
        if sst > 0:
            return 1.0 - sse / sst
        return 1.0 if sse == 0 else 0.0

    return FitResult(
        c=c,
        a=float(a),
        b0=float(b0),
        b1=float(b1),
        sse_power=sse_power,
        sse_linear=sse_linear,
        r2_power=r2(sse_power),
        r2_linear=r2(sse_linear),
    )


_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split at whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison and Dix, 1986). Bit i of `row` is
    set where the LCS of `a[:i + 1]` and the tokens of `b` seen so far grows,
    so the LCS is the set-bit count; one big-int step per token of `b`."""
    matches: dict[str, int] = {}
    for i, tok in enumerate(a):
        matches[tok] = matches.get(tok, 0) | 1 << i
    row = 0
    for tok in b:
        x = matches.get(tok, 0) | row
        row = x & ~(x - (row << 1 | 1))
    return row.bit_count()


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure (beta = 1) on the longest common token
    subsequence; 0 when either side has no tokens or nothing is shared."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def _param_string(call: ToolCall) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(call.params))


def _param_similarity(p: ToolCall, g: ToolCall) -> float:
    """ROUGE-L of the two parameter strings, and 1 where they are identical:
    two calls without parameters match fully, though `rouge_l("", "")` is 0."""
    a, b = _param_string(p), _param_string(g)
    return 1.0 if a == b else rouge_l(a, b)


def _call_repr(call: ToolCall) -> str:
    return f"{call.name}({_param_string(call)})"


def tool_sequence_score(
    pred: Sequence[ToolCall], gold: Sequence[ToolCall], literal: bool = False
) -> ToolScore:
    """Score a predicted call sequence against gold.

    Same-named (pred, gold) pairs are matched one-to-one, greedily by
    descending parameter-string similarity, so acc and recall stay in
    [0, 1] even with duplicate API names. Ties break on call content, which
    keeps the score invariant under prediction-order permutation.

    `literal=True` switches to the raw double sum over all same-named
    pairs; that form can exceed 1 when duplicate names occur and exists
    only for comparison.
    """
    m, n = len(pred), len(gold)
    if m == 0 and n == 0:
        return ToolScore(1.0, 1.0, 1.0)  # vacuous perfection; reports flag it
    if m == 0 or n == 0:
        return ToolScore(0.0, 0.0, 0.0)

    if literal:
        total = sum(
            _param_similarity(p, g)
            for p in pred
            for g in gold
            if p.name == g.name
        )
        acc = total / m
        recall = total / n
    else:
        candidates = []
        for i, p in enumerate(pred):
            for j, g in enumerate(gold):
                if p.name == g.name:
                    sim = _param_similarity(p, g)
                    candidates.append((-sim, _call_repr(p), _call_repr(g), i, j))
        candidates.sort(key=lambda t: t[:3])
        taken_pred: set[int] = set()
        taken_gold: set[int] = set()
        total = 0.0
        for neg_sim, _, _, i, j in candidates:
            if i in taken_pred or j in taken_gold:
                continue
            taken_pred.add(i)
            taken_gold.add(j)
            total += -neg_sim
        acc = total / m
        recall = total / n

    f1 = 2 * acc * recall / (acc + recall) if acc + recall > 0 else 0.0
    return ToolScore(acc, recall, f1)


def api_selection_f1(pred: Sequence[ToolCall], gold: Sequence[ToolCall]) -> float:
    """Multiset precision/recall F1 over function names only."""
    if not pred and not gold:
        return 1.0
    if not pred or not gold:
        return 0.0
    pred_names: dict[str, int] = {}
    gold_names: dict[str, int] = {}
    for c in pred:
        pred_names[c.name] = pred_names.get(c.name, 0) + 1
    for c in gold:
        gold_names[c.name] = gold_names.get(c.name, 0) + 1
    overlap = sum(min(k, gold_names.get(name, 0)) for name, k in pred_names.items())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class BucketStat:
    label: str
    mean: float | None
    count: int


@dataclass(frozen=True)
class BucketTable:
    buckets: tuple[BucketStat, ...]
    unbucketed_count: int


def bucket_by_steps(
    records: Sequence[EvalRecord], bucket_edges: Sequence[int] = MATH_STEP_BUCKETS
) -> BucketTable:
    """Mean score per step bucket. All edges except the last match exactly;
    the last edge is open-ended (>=). Records outside every bucket are
    counted separately, never silently dropped."""
    edges = list(bucket_edges)
    if edges != sorted(set(edges)) or not edges:
        raise ValueError("bucket edges must be strictly increasing and nonempty")
    sums = {e: 0.0 for e in edges}
    counts = {e: 0 for e in edges}
    unbucketed = 0
    last = edges[-1]
    for r in records:
        n = r.step_count
        if n >= last:
            key = last
        elif n in sums:
            key = n
        else:
            unbucketed += 1
            continue
        sums[key] += r.score
        counts[key] += 1
    stats = []
    for e in edges:
        label = str(e) if e != last else f">={last}"
        mean = sums[e] / counts[e] if counts[e] else None
        stats.append(BucketStat(label=label, mean=mean, count=counts[e]))
    return BucketTable(buckets=tuple(stats), unbucketed_count=unbucketed)


def mcnemar_exact(b: int, c: int) -> float:
    """Two-sided exact McNemar p-value from the discordant-pair counts."""
    if b < 0 or c < 0:
        raise DomainError("discordant counts must be nonnegative")
    n = b + c
    if n == 0:
        return 1.0
    k = max(b, c)
    tail = sum(math.comb(n, i) for i in range(k, n + 1))
    return min(1.0, 2.0 * tail / 2**n)


def paired_bootstrap_p(
    a_scores: Sequence[float],
    b_scores: Sequence[float],
    n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> float:
    """Two-sided paired bootstrap of the mean difference with a fixed seed.

    The resamples are drawn from one seeded generator in consecutive chunks
    of at most `_BOOTSTRAP_CHUNK` indices. The generator carries one stream
    across draws, so the p-value equals that of a single (n_resamples, N)
    draw, while memory stays bounded whatever N is.
    """
    if n_resamples < 1:
        raise DomainError(f"n_resamples must be at least 1, got {n_resamples}")
    a = np.asarray(a_scores, dtype=float)
    b = np.asarray(b_scores, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise MisalignedRecords("paired scores must be same-length and nonempty")
    diffs = b - a
    if not np.isfinite(diffs).all():
        raise DomainError("paired scores must be finite")
    n = diffs.size
    rows = max(1, _BOOTSTRAP_CHUNK // n)
    rng = np.random.default_rng(seed)
    low = high = 0
    for start in range(0, n_resamples, rows):
        idx = rng.integers(0, n, size=(min(rows, n_resamples - start), n))
        means = diffs[idx].mean(axis=1)
        low += int(np.count_nonzero(means <= 0.0))
        high += int(np.count_nonzero(means >= 0.0))
    return min(1.0, 2.0 * min(low, high) / n_resamples)


def paired_significance(
    a: Sequence[EvalRecord],
    b: Sequence[EvalRecord],
    n_resamples: int = DEFAULT_BOOTSTRAP_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> float:
    """Paired test on two runs over the same items, aligned by item id.

    Binary scores get the exact McNemar test on the discordant-pair table;
    continuous scores get a seeded paired bootstrap of the mean difference.
    Both are two-sided.
    """
    a_map = _scores_by_id(a)
    b_map = _scores_by_id(b)
    if a_map.keys() != b_map.keys():
        raise MisalignedRecords(
            f"item ids differ: {sorted(set(a_map) ^ set(b_map))[:5]} ..."
        )
    ids = sorted(a_map)
    a_scores = [a_map[i] for i in ids]
    b_scores = [b_map[i] for i in ids]
    if all(s in (0.0, 1.0) for s in a_scores + b_scores):
        disc_b = sum(1 for x, y in zip(a_scores, b_scores) if x == 0.0 and y == 1.0)
        disc_c = sum(1 for x, y in zip(a_scores, b_scores) if x == 1.0 and y == 0.0)
        return mcnemar_exact(disc_b, disc_c)
    return paired_bootstrap_p(a_scores, b_scores, n_resamples=n_resamples, seed=seed)


def _scores_by_id(records: Iterable[EvalRecord]) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in records:
        if r.item_id in out:
            raise MisalignedRecords(f"duplicate item id {r.item_id!r}")
        out[r.item_id] = float(r.score)
    return out


def ranking_consistent(observed: Mapping[str, float], reference_order: Sequence[str]) -> bool:
    """True when observed values are non-increasing along the given name
    order. Used for directional checks where absolute magnitudes are
    model-version dependent."""
    values = [observed[name] for name in reference_order if name in observed]
    return all(x >= y for x, y in zip(values, values[1:]))
