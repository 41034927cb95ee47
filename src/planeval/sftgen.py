"""Plan-centric SFT corpus builder. Emits serialized training records with
two target kinds (plan generation and answer generation); running the
fine-tune itself is a downstream concern and only echoed as metadata."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpora import MathProblem, ToolTask
from .jsonio import check_types, read_rows, write_json, write_jsonl
from .planflow import Plan, has_answer_leak, render_call_sequence, render_prompt, template_hashes

# Each sft_mode and the target kinds it writes per item, in file order. `all`
# writes every kind: the kinds SftRecord accepts and sft_meta.json counts.
MODES = {
    "all": ("answer_target", "plan_target"),
    "plan_only": ("plan_target",),
    "answer_only": ("answer_target",),
}

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
        if self.kind not in MODES["all"]:
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
) -> list[SftRecord]:
    """Build training records from a corpus and its teacher-generated plans:
    for each item in id order, one record of each target kind of `mode`
    (see MODES). Plan prompts render from the plan template and answer
    prompts from the direct template. Math plan targets that contain the
    gold final answer abort the build.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {tuple(MODES)}")
    if "plan_target" in MODES[mode]:
        missing = [item.id for item in corpus if item.id not in plans]
        if missing:
            raise MissingPlan(missing)
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
        for kind in MODES[mode]:
            if kind == "plan_target":
                prompt, target = render_prompt("plan", item), plans[item.id].text
            else:
                prompt, target = render_prompt("direct", item), _gold_answer_text(item)
            records.append(SftRecord(kind=kind, prompt=prompt, target=target, source_id=item.id))
    return records


def serialize_sft(records: Sequence[SftRecord], path: str | Path) -> Path:
    """Write records as JSON Lines ordered by source_id, then by the kind's
    place in `MODES["all"]`."""
    rank = {kind: k for k, kind in enumerate(MODES["all"])}
    ordered = sorted(records, key=lambda r: (r.source_id, rank[r.kind]))
    return write_jsonl(path, map(vars, ordered))


_SFT_TYPES = {name: (str,) for name in ("kind", "prompt", "target", "source_id")}


def _sft_record(obj) -> SftRecord:
    check_types(obj, _SFT_TYPES)
    return SftRecord(**{name: obj[name] for name in _SFT_TYPES})


def load_sft(path: str | Path) -> list[SftRecord]:
    return list(read_rows(path, "SFT", _sft_record))


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
    counts = {kind: sum(1 for r in records if r.kind == kind) for kind in MODES["all"]}
    meta = {
        "teacher_model": teacher_model,
        "mode": mode,
        "template_hashes": template_hashes(),
        "counts": {"items": len(corpus), **counts},
        "training": TRAINING_METADATA,
    }
    return corpus_path, write_json(out_dir / "sft_meta.json", meta)
