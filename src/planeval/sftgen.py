"""Plan-centric SFT corpus builder. Emits serialized training records with
two target kinds (plan generation and answer generation); running the
fine-tune itself is a downstream concern and only echoed as metadata."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpora import MathProblem, ToolTask
from .jsonio import read_jsonl, write_json, write_jsonl
from .planflow import (
    Plan,
    _direct_prompt,
    _plan_prompt,
    has_answer_leak,
    render_call_sequence,
    template_hashes,
)

KINDS = ("plan_target", "answer_target")
MODES = ("all", "plan_only", "answer_only")

# Echoed into the sidecar metadata for downstream trainers; never consumed here.
TRAINING_METADATA = {
    "method": "lora",
    "lora_rank": 8,
    "lora_alpha": 32,
    "epochs": 2,
    "optimizer": "adamw",
    "warmup_steps": 400,
    "learning_rate": {"llama2": 2e-5, "llama3": 2e-6, "qwen2": 2e-6},
}


class MissingPlan(ValueError):
    def __init__(self, item_ids: Sequence[str]):
        super().__init__(f"no plan for items: {list(item_ids)[:10]}")
        self.item_ids = tuple(item_ids)


class EmptyGoldAnswer(ValueError):
    pass


class AnswerLeak(ValueError):
    """A plan target contains the item's gold final answer."""

    def __init__(self, item_ids: Sequence[str]):
        super().__init__(f"gold answer leaked into plan targets: {list(item_ids)[:10]}")
        self.item_ids = tuple(item_ids)


@dataclass(frozen=True)
class SftRecord:
    kind: str
    prompt: str
    target: str
    source_id: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.prompt or not self.target:
            raise ValueError("prompt and target must be nonempty")


def _gold_answer_text(item: MathProblem | ToolTask) -> str:
    if isinstance(item, MathProblem):
        return item.gold_solution
    return render_call_sequence(item.gold_calls)


def build_sft_corpus(
    corpus: Sequence[MathProblem | ToolTask],
    plans: Mapping[str, Plan],
    mode: str = "all",
    forbid_answer_leaks: bool = True,
) -> list[SftRecord]:
    """Build training records from a corpus and its teacher-generated plans.

    mode "all" emits one plan target and one answer target per item;
    "plan_only" and "answer_only" emit the corresponding single kind. Plan
    prompts render from the plan template and answer prompts from the
    direct template. Math plan targets that contain the gold final answer
    abort the build unless `forbid_answer_leaks` is off.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    want_plan = mode in ("all", "plan_only")
    want_answer = mode in ("all", "answer_only")

    if want_plan:
        missing = [item.id for item in corpus if item.id not in plans]
        if missing:
            raise MissingPlan(missing)
        if forbid_answer_leaks:
            leaking = [
                item.id
                for item in corpus
                if isinstance(item, MathProblem)
                and has_answer_leak(plans[item.id].text, item.gold_answer)
            ]
            if leaking:
                raise AnswerLeak(leaking)

    records: list[SftRecord] = []
    for item in sorted(corpus, key=lambda i: i.id):
        kind_records = []
        if want_answer:
            gold = _gold_answer_text(item)
            if not gold:
                raise EmptyGoldAnswer(f"item {item.id} has no gold answer text")
            kind_records.append(
                SftRecord(
                    kind="answer_target",
                    prompt=_direct_prompt(item),
                    target=gold,
                    source_id=item.id,
                )
            )
        if want_plan:
            kind_records.append(
                SftRecord(
                    kind="plan_target",
                    prompt=_plan_prompt(item),
                    target=plans[item.id].text,
                    source_id=item.id,
                )
            )
        records.extend(sorted(kind_records, key=lambda r: r.kind))
    return records


def serialize_sft(records: Sequence[SftRecord], path: str | Path) -> Path:
    """Write records as JSON Lines in deterministic (source_id, kind) order."""
    ordered = sorted(records, key=lambda r: (r.source_id, r.kind))
    return write_jsonl(path, (asdict(r) for r in ordered))


def load_sft(path: str | Path) -> list[SftRecord]:
    return [
        SftRecord(
            kind=obj["kind"], prompt=obj["prompt"], target=obj["target"], source_id=obj["source_id"]
        )
        for _, obj in read_jsonl(path)
    ]


def write_sft_outputs(
    corpus: Sequence[MathProblem | ToolTask],
    plans: Mapping[str, Plan],
    mode: str,
    out_dir: str | Path,
    teacher_model: str,
) -> tuple[Path, Path]:
    """Emit `sft_corpus.jsonl` plus the `sft_meta.json` sidecar."""
    out_dir = Path(out_dir)
    records = build_sft_corpus(corpus, plans, mode=mode)
    corpus_path = serialize_sft(records, out_dir / "sft_corpus.jsonl")
    counts = {kind: sum(1 for r in records if r.kind == kind) for kind in KINDS}
    meta = {
        "teacher_model": teacher_model,
        "mode": mode,
        "template_hashes": template_hashes(),
        "counts": {"items": len(corpus), **counts},
        "training": TRAINING_METADATA,
    }
    return corpus_path, write_json(out_dir / "sft_meta.json", meta)
