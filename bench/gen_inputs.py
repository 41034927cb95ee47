"""Seeded inputs for the pipeline benchmark, and the outputs they imply.

The program under test sees only the files written here: a corpus, a run
config, and either a mock transcript keyed by request digest (so the same
prompt gets a different answer from each model) or a stub transcript keyed by
(model, prompt) for the loopback HTTP server. The same seed writes the same
files. Each answer is scripted right or wrong for an exact share of items per
model and condition, so the benchmark knows every mean the reports must show.

Per-model accuracies are all distinct on purpose: when three or more models
share one execution ceiling, `summarize` raises DegenerateInput from the
power/linear fit, a known defect recorded in bench/METRICS.md.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

MATH_ITEMS = 40
TOOL_TASKS = 30
# The run config's concurrency: two closed-loop workers, the nproc of the
# 2-vCPU machine the benchmark was sized on, fixed so runs compare across machines.
CONCURRENCY = 2

MATH_PLANNER = "oracle"
# Share of correct answers: probe, direct_cot, plan_augmented, cross_model_plan.
MATH_RATES = {
    "alpha": (0.70, 0.35, 0.40, 0.60),
    "bravo": (0.78, 0.45, 0.50, 0.65),
    "charlie": (0.85, 0.55, 0.60, 0.70),
    "delta": (0.91, 0.65, 0.70, 0.75),
    MATH_PLANNER: (0.97, 0.80, 0.85, None),
}

TOOL_PLANNER = "hotel"
# Share of exactly right call sequences: direct_cot, plan_augmented, cross_model_plan.
TOOL_RATES = {
    "echo": (0.40, 0.45, 0.65),
    "foxtrot": (0.50, 0.55, 0.70),
    "golf": (0.60, 0.65, 0.75),
    TOOL_PLANNER: (0.75, 0.80, None),
}

CONDITIONS = ("direct_cot", "plan_augmented", "cross_model_plan")

# Plan wording differs per planner, so a cross-model guided prompt never
# shares a digest with the solver's own plan-guided prompt. No digits: a
# plan that contains the gold answer aborts build-sft.
PLAN_STYLES = {
    "alpha": "slowly",
    "bravo": "in a table",
    "charlie": "twice over",
    "delta": "with care",
    "oracle": "from the log",
    "echo": "one by one",
    "foxtrot": "in short notes",
    "golf": "by priority",
    "hotel": "as a checklist",
}
PLAN_VERBS = ("count", "track", "list", "tally", "review", "combine", "compare", "note")
PLAN_NOUNS = ("starting amount", "change log", "running total", "each entry", "final stock")

WORDS = (
    "amber river north harbor quiet market early train silver garden "
    "window copper bridge morning winter summer valley old station bright "
    "stone mill west east lantern orchard harvest cedar meadow tower "
    "canal ferry school museum castle island forest desert coastal upper "
    "lower grand little red blue green golden hill park square avenue "
    "corner plaza district village central"
).split()

TOOL_FUNCTIONS = {
    "search_venues": ("find venues near a place", ("city", "category")),
    "book_table": ("reserve a table", ("venue", "party", "time")),
    "get_forecast": ("weather forecast", ("city",)),
    "send_message": ("message a contact", ("to", "body")),
    "translate_text": ("translate a passage", ("text", "language")),
    "lookup_address": ("resolve an address", ("query",)),
    "create_event": ("add a calendar event", ("title", "place", "note")),
    "convert_currency": ("convert an amount", ("amount", "currency")),
    "find_route": ("route between places", ("origin", "destination")),
    "order_supplies": ("order goods", ("item", "supplier")),
    "check_inventory": ("stock level", ("item", "warehouse")),
    "post_update": ("post a status update", ("channel", "body")),
    "fetch_reviews": ("read reviews", ("venue",)),
    "reserve_room": ("book a room", ("hotel", "guest", "dates")),
    "summarize_notes": ("condense notes", ("text",)),
    "schedule_call": ("set up a call", ("contact", "topic")),
}


@dataclass
class Inputs:
    """Generated files plus the counts and values they imply for one pass."""

    root: Path
    transcript: Path
    config: dict
    commands: list[list[str]]
    requests: int
    digests: int
    jobs: int
    items: int
    probes: int
    models: tuple[str, ...]
    p_exe: dict[str, float] = field(default_factory=dict)
    conditions: dict[str, tuple[float, int]] = field(default_factory=dict)
    sft_records: int = 0
    mean_tolerance: float = 0.0

    @property
    def config_path(self) -> Path:
        return self.root / "config.json"

    @property
    def out_dir(self) -> Path:
        return self.root / self.config["output_dir"]

    @property
    def cache_dir(self) -> Path:
        return self.root / self.config["cache_dir"]

    def write_config(self, endpoint_url: str = "") -> None:
        if endpoint_url:
            for m in self.config["models"]:
                m["endpoint_url"] = endpoint_url
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _correct_ids(rng: random.Random, ids: list, rate: float) -> set:
    return set(rng.sample(ids, round(len(ids) * rate)))


def _plan_text(rng: random.Random, model: str) -> str:
    v1, v2, v3 = rng.sample(PLAN_VERBS, 3)
    n1, n2, n3 = rng.sample(PLAN_NOUNS, 3)
    return (
        f"To solve this question, first we should {v1} the {n1}, then we should "
        f"{v2} the {n2} {PLAN_STYLES[model]}, and finally we should {v3} the {n3}."
    )


def _digest_fn(pe, models):
    specs = {m: pe.ModelSpec(name=m) for m in models}

    def digest(model: str, prompt: str) -> str:
        request = pe.Gateway.build_request(specs[model], [pe.user_message(prompt)])
        return pe.cache_key(request)

    return digest


def _math_item(rng: random.Random, i: int) -> tuple[dict, list[tuple[str, int]], int]:
    steps = rng.randint(2, 8)
    value = start = rng.randint(5, 90)
    annotations, words = [], []
    for _ in range(steps):
        op = rng.choice("+-*")
        if (op == "*" and value > 400) or (op == "-" and value < 10):
            op = "+"
        if op == "+":
            b = rng.randint(2, 60)
            result, word = value + b, f"gains {b}"
        elif op == "-":
            b = rng.randint(1, value - 1)
            result, word = value - b, f"loses {b}"
        else:
            b = rng.randint(2, 4)
            result, word = value * b, f"multiplies by {b}"
        annotations.append((f"{value}{op}{b}", result))
        words.append(word)
        value = result
    solution = " ".join(
        f"Shift {k}: <<{expr}={res}>>." for k, (expr, res) in enumerate(annotations, 1)
    )
    line = {
        "id": f"m{i:04d}",
        "question": (
            f"Depot {i} opens with {start} crates and runs {steps} shifts; in order it "
            f"{', then '.join(words)}. How many crates does it hold at the end?"
        ),
        "answer": f"{solution}\n#### {value}",
    }
    return line, annotations, value


def write_math(root: Path, seed: int) -> Inputs:
    """Math protocol inputs: probe, then eval-math over all three conditions
    with four solvers and one planner, then build-sft with the planner as
    teacher. Served by the mock transport."""
    import planeval as pe

    rng = random.Random(f"math-{seed}")
    root.mkdir(parents=True, exist_ok=True)
    models = tuple(MATH_RATES)
    solvers = tuple(m for m in models if m != MATH_PLANNER)
    digest = _digest_fn(pe, models)
    template = pe.load_template

    lines, gold, probes = [], {}, {}
    for i in range(MATH_ITEMS):
        line, annotations, answer = _math_item(rng, i)
        lines.append(line)
        gold[line["id"]] = answer
        for expr, value in annotations:
            probes.setdefault(expr, value)
    corpus = root / "corpus.jsonl"
    _write_jsonl(corpus, lines)
    ids = sorted(gold)
    questions = {line["id"]: line["question"] for line in lines}

    transcript: dict[str, str] = {}
    probe_list = list(probes.items())
    p_exe = {}
    for m in models:
        ok = _correct_ids(rng, list(range(len(probe_list))), MATH_RATES[m][0])
        p_exe[m] = len(ok) / len(probe_list)
        for k, (expr, value) in enumerate(probe_list):
            prompt = pe.PROBE_PROMPT.format(expression=expr)
            transcript[digest(m, prompt)] = str(value if k in ok else value + 1)

    def answer(item_id: str, right: bool) -> str:
        value = gold[item_id] if right else gold[item_id] + rng.randint(1, 9)
        return f"Working through each shift in order. The final answer is: {value}"

    plans = {(m, i): _plan_text(rng, m) for m in models for i in ids}
    for m in models:
        for i in ids:
            transcript[digest(m, template("math_plan").render(question=questions[i]))] = plans[m, i]

    conditions = {}
    for m in models:
        direct_rate, self_rate, cross_rate = MATH_RATES[m][1:]
        guided = [("direct_cot", direct_rate, None), ("plan_augmented", self_rate, m)]
        if m != MATH_PLANNER:
            guided.append(("cross_model_plan", cross_rate, MATH_PLANNER))
        for cond, rate, planner in guided:
            ok = _correct_ids(rng, ids, rate)
            conditions[f"{m}/{cond}"] = (len(ok) / len(ids), len(ids))
            for i in ids:
                if planner is None:
                    prompt = template("math_direct").render(question=questions[i])
                else:
                    prompt = template("math_guided").render(
                        question=questions[i], idea=plans[planner, i]
                    )
                transcript[digest(m, prompt)] = answer(i, i in ok)

    transcript_path = root / "transcript.jsonl"
    _write_jsonl(
        transcript_path,
        ({"prompt_digest": d, "response_text": t} for d, t in transcript.items()),
    )
    n, big_m, s = len(ids), len(models), len(solvers)
    config = {
        "task": "math",
        "corpus": corpus.name,
        "models": [{"name": m} for m in models],
        "planners": [MATH_PLANNER],
        "conditions": list(CONDITIONS),
        "cache_dir": "cache",
        "output_dir": "out",
        "concurrency": CONCURRENCY,
        "seed": seed,
        "teacher_model": MATH_PLANNER,
        "sft_mode": "all",
    }
    cfg, mock = str(root / "config.json"), str(transcript_path)
    inputs = Inputs(
        root=root,
        transcript=transcript_path,
        config=config,
        commands=[
            ["probe", "--config", cfg, "--mock", mock],
            ["eval-math", "--config", cfg, "--mock", mock],
            ["build-sft", "--config", cfg, "--mock", mock, "--out", str(root / "out" / "sft")],
        ],
        # probe, then direct + (plan, solve) per self plan + (plan, solve) per
        # cross-model job, then one teacher plan per item for build-sft
        requests=big_m * len(probe_list) + n * (3 * big_m + 2 * s) + n,
        digests=big_m * len(probe_list) + n * (3 * big_m + s),
        jobs=n * (2 * big_m + s),
        items=n,
        probes=len(probe_list),
        models=models,
        p_exe=p_exe,
        conditions=conditions,
        sft_records=2 * n,
    )
    inputs.write_config()
    return inputs


def _phrase(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 6)))


def _param_tokens(params) -> list[str]:
    text = " ".join(f"{k}={v}" for k, v in sorted(params))
    return re.findall(r"[^\W_]+", text.lower())


def _lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[-1][-1]


def reference_tool_score(pred: list, gold: list) -> float:
    """Sequence F1 with ROUGE-L parameter similarity, written independently of
    the package. Call names are distinct within a generated task, so each
    predicted call can match at most one gold call."""
    by_name = {c.name: c for c in gold}
    total = 0.0
    for p in pred:
        g = by_name.get(p.name)
        if g is None:
            continue
        a, b = _param_tokens(p.params), _param_tokens(g.params)
        lcs = _lcs(a, b)
        if lcs:
            precision, recall = lcs / len(a), lcs / len(b)
            total += 2 * precision * recall / (precision + recall)
    acc, rec = total / len(pred), total / len(gold)
    return min(1.0, max(0.0, 2 * acc * rec / (acc + rec) if acc + rec > 0 else 0.0))


def _degrade(rng: random.Random, pe, task) -> list:
    calls = list(task.gold_calls)
    gold_names = {c.name for c in calls}
    kind = rng.choice(("drop", "perturb", "rename"))
    if kind == "drop":
        return calls[:-1]
    j = rng.randrange(len(calls))
    if kind == "rename":
        spare = sorted(f.name for f in task.functions if f.name not in gold_names)
        calls[j] = pe.ToolCall(name=rng.choice(spare), params=calls[j].params)
        return calls
    params = list(calls[j].params)
    k = rng.randrange(len(params))
    words = params[k][1].split()
    w = rng.randrange(len(words))
    words[w] = rng.choice([x for x in WORDS if x != words[w]])
    params[k] = (params[k][0], " ".join(words))
    calls[j] = pe.ToolCall(name=calls[j].name, params=tuple(params))
    return calls


def _tool_line(rng: random.Random, i: int) -> dict:
    k = rng.randint(2, 6)
    names = rng.sample(sorted(TOOL_FUNCTIONS), k + 2)
    gold_names = names[:k]
    rng.shuffle(names)
    functions = [
        {
            "name": n,
            "description": TOOL_FUNCTIONS[n][0],
            "parameters": {p: "str" for p in TOOL_FUNCTIONS[n][1]},
        }
        for n in names
    ]
    calls = [
        {"name": n, "params": {p: _phrase(rng) for p in TOOL_FUNCTIONS[n][1]}, "success": True}
        for n in gold_names
    ]
    if rng.random() < 0.2:
        failed = {"name": gold_names[0], "params": {}, "success": False}
        calls.insert(rng.randrange(len(calls) + 1), failed)
    return {
        "id": f"t{i:04d}",
        "task": f"Request {i}: {_phrase(rng)} for the {_phrase(rng)} team.",
        "functions": functions,
        "calls": calls,
    }


def write_tools(root: Path, seed: int) -> Inputs:
    """Tool protocol inputs: eval-tools over all three conditions with three
    solvers and one planner, served by the loopback stub. The config gets the
    stub's address from `Inputs.write_config`."""
    import planeval as pe
    from planeval.planflow import render_functions

    rng = random.Random(f"tools-{seed}")
    root.mkdir(parents=True, exist_ok=True)
    models = tuple(TOOL_RATES)
    solvers = tuple(m for m in models if m != TOOL_PLANNER)
    corpus = root / "corpus.jsonl"
    _write_jsonl(corpus, (_tool_line(rng, i) for i in range(TOOL_TASKS)))
    loaded = pe.load_toolbench(corpus)
    if loaded.dropped_tasks:
        raise RuntimeError(f"generator wrote {loaded.dropped_tasks} unusable tool tasks")
    tasks = {t.id: t for t in loaded.tasks}
    ids = sorted(tasks)

    def prompt(name: str, task, **extra) -> str:
        return pe.load_template(name).render(task=task.task, func=render_functions(task), **extra)

    responses: dict[tuple[str, str], str] = {}
    plans = {(m, i): _plan_text(rng, m) for m in models for i in ids}
    for m in models:
        for i in ids:
            responses[m, prompt("tool_plan", tasks[i])] = plans[m, i]

    conditions = {}
    for m in models:
        direct_rate, self_rate, cross_rate = TOOL_RATES[m]
        guided = [("direct_cot", direct_rate, None), ("plan_augmented", self_rate, m)]
        if m != TOOL_PLANNER:
            guided.append(("cross_model_plan", cross_rate, TOOL_PLANNER))
        for cond, rate, planner in guided:
            ok = _correct_ids(rng, ids, rate)
            total = 0.0
            for i in ids:
                task = tasks[i]
                pred = list(task.gold_calls) if i in ok else _degrade(rng, pe, task)
                total += reference_tool_score(pred, list(task.gold_calls))
                if planner is None:
                    text = prompt("tool_direct", task)
                else:
                    text = prompt("tool_guided", task, idea=plans[planner, i])
                responses[m, text] = pe.render_call_sequence(pred)
            conditions[f"{m}/{cond}"] = (total / len(ids), len(ids))

    transcript_path = root / "stub_transcript.jsonl"
    _write_jsonl(
        transcript_path,
        ({"model": m, "prompt_text": p, "response_text": t} for (m, p), t in responses.items()),
    )
    n, big_m, s = len(ids), len(models), len(solvers)
    config = {
        "task": "tools",
        "corpus": corpus.name,
        "models": [{"name": m} for m in models],
        "planners": [TOOL_PLANNER],
        "conditions": list(CONDITIONS),
        "cache_dir": "cache",
        "output_dir": "out",
        "concurrency": CONCURRENCY,
        "seed": seed,
    }
    return Inputs(
        root=root,
        transcript=transcript_path,
        config=config,
        commands=[["eval-tools", "--config", str(root / "config.json")]],
        requests=n * (3 * big_m + 2 * s),
        digests=n * (3 * big_m + s),
        jobs=n * (2 * big_m + s),
        items=n,
        probes=0,
        models=models,
        conditions=conditions,
        # the package sums parameter similarities in match order, the
        # reference in call order, so the last bits of a mean may differ
        mean_tolerance=1e-9,
    )
