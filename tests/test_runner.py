from __future__ import annotations

import argparse
import collections
import dataclasses
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from functools import cache, partial
from pathlib import Path

import pytest

from helpers import (
    build_math_corpus,
    build_tool_corpus,
    gold_number,
    make_math_lines,
    make_tool_lines,
    math_transcript_entries,
    probe_entries,
    tool_transcript_entries,
    write_gsm8k_file,
)
import planeval.planflow as planflow_module
import planeval.runner as runner_module
import planeval.sftgen as sftgen_module
from planeval.arith import PROBE_PROMPT
from planeval.corpora import StepDistribution, extract_probes, load_gsm8k, step_distribution
from planeval.gateway import Gateway, ModelSpec, cache_key, user_message, write_transcript
from planeval.jsonio import write_json, write_jsonl
from planeval.planflow import render_prompt
from planeval.runner import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    RunConfig,
    Section,
    build_manifest,
    cli_dispatch,
    conditions_section,
    emit_report,
    load_records,
    models_section,
    summarize,
)
from planeval.scoring import Condition, EvalRecord, exe_acc

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MODEL = {
    "name": "mock-model",
    "endpoint_url": "http://localhost/none",
    "api_key_env": "",
    "max_tokens": 256,
}
PLANNER = {
    "name": "mock-planner",
    "endpoint_url": "http://localhost/none",
    "api_key_env": "",
    "max_tokens": 256,
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, corpus, task="math", **overrides) -> Path:
    data = {
        "task": task,
        "corpus": str(corpus),
        "models": [MODEL],
        "planners": [],
        "conditions": ["direct_cot"],
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
        "concurrency": 4,
        "seed": 3,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data, indent=2))
    return path


@pytest.fixture
def math_run(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=10)
    entries = math_transcript_entries(problems, wrong_direct_ids={problems[0].id, problems[1].id})
    transcript = write_transcript(tmp_path / "transcript.jsonl", entries)
    config = write_config(
        tmp_path,
        tmp_path / "corpus.jsonl",
        conditions=["direct_cot", "plan_augmented"],
    )
    return problems, config, transcript, tmp_path


# --- config ------------------------------------------------------------------


def test_config_loads_and_resolves_relative_paths(tmp_path):
    build_math_corpus(tmp_path / "corpus.jsonl", count=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "task": "math",
                "corpus": "corpus.jsonl",
                "models": [MODEL],
                "cache_dir": "cache",
                "output_dir": "out",
            }
        )
    )
    config = RunConfig.load(config_path)
    assert config.corpus == tmp_path / "corpus.jsonl"
    assert config.cache_dir == tmp_path / "cache"
    assert len(config.config_hash) == 64


def test_unknown_config_key_exits_2_before_any_model_call(math_run, capsys):
    _, _, transcript, tmp_path = math_run
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", concurency=2)
    with pytest.raises(ConfigError):
        RunConfig.load(config)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'concurency'" in err[0]
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["corpus", "models"])
def test_config_without_a_required_key_exits_2_naming_it(math_run, capsys, key):
    _, config, transcript, tmp_path = math_run
    data = json.loads(config.read_text())
    del data[key]
    config.write_text(json.dumps(data))
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [f"error: config {config}: missing key '{key}'"]
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("condition", ["zigzag", "sft_cot_baseline"])
def test_config_rejects_unknown_condition(tmp_path, condition):
    build_math_corpus(tmp_path / "c.jsonl", count=1)
    path = write_config(tmp_path, tmp_path / "c.jsonl", conditions=["direct_cot", condition])
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_config_rejects_undeclared_planner(tmp_path):
    build_math_corpus(tmp_path / "c.jsonl", count=1)
    path = write_config(tmp_path, tmp_path / "c.jsonl", planners=["ghost"])
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_config_cross_model_requires_planners(tmp_path):
    build_math_corpus(tmp_path / "c.jsonl", count=1)
    path = write_config(tmp_path, tmp_path / "c.jsonl", conditions=["cross_model_plan"])
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_config_rejects_missing_corpus(tmp_path, capsys):
    corpus = tmp_path / "absent.jsonl"
    path = write_config(tmp_path, corpus)
    RunConfig.load(path)  # reads the config file alone; each command reads the corpus
    transcript = write_transcript(tmp_path / "t.jsonl", [])
    for command in ("validate", "probe", "eval-math", "plan", "build-sft"):
        argv = [command, "--config", str(path)] + ["--mock", str(transcript)] * (command != "validate")
        assert cli_dispatch(argv) == EXIT_CONFIG, command
        assert capsys.readouterr().err == f"error: corpus file not found: {corpus}\n", command
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


@pytest.mark.parametrize("overrides", [
    {"planners": ["mock-planner", "mock-planner"], "conditions": ["direct_cot", "cross_model_plan"]},
    {"planners": [], "conditions": ["direct_cot", "direct_cot", "plan_augmented"]},
], ids=["planner", "condition"])
def test_repeated_planner_or_condition_exits_2_before_any_model_call(math_run, capsys, overrides):
    _, _, transcript, tmp_path = math_run
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", models=[MODEL, PLANNER], **overrides
    )
    with pytest.raises(ConfigError):
        RunConfig.load(config)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {config}: repeated ")
    assert not (tmp_path / "cache").exists()


def test_unknown_sft_mode_exits_2_with_one_line(tmp_path, capsys):
    build_math_corpus(tmp_path / "corpus.jsonl", count=2)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", sft_mode="plan-only")
    with pytest.raises(ConfigError):
        RunConfig.load(config)
    assert cli_dispatch(["build-sft", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {config}: unknown sft_mode 'plan-only'")
    assert not (tmp_path / "out").exists()


def test_negative_seed_rejected_before_any_model_call(math_run):
    _, _, transcript, tmp_path = math_run
    argv = ["eval-math", "--mock", str(transcript)]
    negative = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"], seed=-1
    )
    with pytest.raises(ConfigError):
        RunConfig.load(negative)
    assert cli_dispatch(argv + ["--config", str(negative)]) == EXIT_CONFIG
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


# Configs that break a rule across keys: the overrides and the rule's message.
_BROKEN_RULES = {
    "unknown-task": ({"task": "chess"}, "unknown task 'chess'"),
    "no-models": ({"models": []}, "at least one model required"),
    "duplicate-models": ({"models": [MODEL, MODEL]}, "duplicate model names"),
    "undeclared-teacher": ({"teacher_model": "ghost"}, "teacher model 'ghost' not declared"),
    "zero-concurrency": ({"concurrency": 0}, "concurrency must be >= 1"),
}


def _rejection(tmp_path, case) -> tuple[list[str], str]:
    """The argv of a run that a config or CLI rule rejects, and its error line."""
    corpus = tmp_path / "corpus.jsonl"
    build_math_corpus(corpus, count=2)
    transcript = write_transcript(tmp_path / "t.jsonl", [])
    config = tmp_path / "config.json"
    if case in _BROKEN_RULES:
        overrides, message = _BROKEN_RULES[case]
        write_config(tmp_path, corpus, **overrides)
        return ["validate", "--config", str(config)], f"error: config {config}: {message}"
    if case == "missing-config":
        return ["validate", "--config", str(config)], f"error: config file not found: {config}"
    if case == "sft-without-teacher":
        write_config(tmp_path, corpus, sft_mode="plan_only")
        argv = ["build-sft", "--config", str(config), "--mock", str(transcript)]
        return argv, "error: build-sft needs teacher_model in config"
    if case == "no-probes":
        write_gsm8k_file(corpus, [{"id": "q0", "question": "How many?", "answer": "Count.\n#### 5"}])
        write_config(tmp_path, corpus)
        argv = ["probe", "--config", str(config), "--mock", str(transcript)]
        return argv, "error: no usable probes in corpus"
    points = tmp_path / "points"
    points.mkdir()
    reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(points)!r}"
    return ["fit", "--points", str(points)], f"error: cannot read points file: {reason}"


@pytest.mark.parametrize(
    "case", [*_BROKEN_RULES, "missing-config", "sft-without-teacher", "no-probes", "fit-directory"]
)
def test_a_rejected_config_or_flag_exits_2_with_one_error_line_and_writes_nothing(
    tmp_path, capsys, case
):
    argv, line = _rejection(tmp_path, case)
    before = _files(tmp_path)
    assert cli_dispatch(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")
    assert _files(tmp_path) == before


_JSON_TYPE_NAMES = {str: "string", int: "integer", list: "array", dict: "object", type(None): "null"}


def _json_type(types: tuple) -> str:
    """The README's name of a key's types: `(int, float)` is a number."""
    return "number" if types == (int, float) else " or ".join(_JSON_TYPE_NAMES[t] for t in types)


def _readme_table(header: str) -> list[tuple[str, ...]]:
    """The first three cells of each row of the README table under `header`."""
    lines = (REPO_CONFIGS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|"))[:3])
    return rows


def _listed(names) -> str:
    return f"{', '.join(names[:-1])} and {names[-1]}"


def test_readme_names_the_report_sections_and_summary_keys_in_order():
    sections = [build() for build in summarize([], "math")]
    keys = [f"`{key}`" for key in ("task", *(s.key for s in sections))]
    line = (
        f"- **Sections**: `report.md` prints {_listed([s.title for s in sections])}, in this "
        "order, each under a `##` heading and only when it has lines; `summary.json` has the "
        f"top-level keys {_listed(keys)}, every one always present."
    )
    assert line in (REPO_CONFIGS.parent / "README.md").read_text(encoding="utf-8").splitlines()


def test_readme_key_tables_state_exactly_the_config_and_model_formats():
    config_rows = [
        (f"`{key}`", _json_type(types),
         "required" if default is runner_module._REQUIRED else f"`{json.dumps(default)}`")
        for key, (types, default) in runner_module._CONFIG_KEYS.items()
    ]
    assert _readme_table("| key | JSON type | default | meaning |") == config_rows
    defaults = {f.name: f.default for f in dataclasses.fields(ModelSpec)}
    model_rows = [
        (f"`{key}`", _json_type(types),
         "required" if defaults[key] is dataclasses.MISSING else f"`{json.dumps(defaults[key])}`")
        for key, types in ModelSpec.TYPES.items()
    ]
    assert list(ModelSpec.TYPES) == list(defaults)
    assert _readme_table("| model key | JSON type | default | meaning |") == model_rows


def test_readme_cli_block_lists_every_command_with_exactly_its_flags():
    readme = (REPO_CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    listed = [(line.split()[1], re.findall(r"--[a-z]+", line)) for line in block.splitlines()]
    assert listed == [
        (name, list(flags)) for name, (_, flags, _) in runner_module._COMMANDS.items()
    ]


def test_readme_states_the_sft_modes_and_the_targets_each_writes():
    lines = (REPO_CONFIGS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    (row,) = [line for line in lines if line.startswith("| `sft_mode` |")]
    *others, last = [f"`{mode}`" for mode in sftgen_module.MODES]
    assert row.strip("|").split("|")[3].strip() == f"{', '.join(others)} or {last}"
    writes = [
        f"`{mode}` writes {' then '.join(f'`{kind}`' for kind in kinds)}"
        for mode, kinds in sftgen_module.MODES.items()
    ]
    assert (
        "- **SFT targets**: for each corpus item, in id order, `build-sft` writes one record per "
        f"target kind of its `sft_mode`: {_listed(writes)}."
    ) in lines


@pytest.mark.parametrize("key, value", [
    ("seed", 1.7), ("seed", True), ("seed", "3"), ("concurrency", 2.9), ("concurrency", True),
    ("planners", "mock-model"), ("conditions", "direct_cot"), ("models", {"name": "mock-model"}),
    ("name", 5), ("max_tokens", True), ("max_tokens", 1.5), ("temperature", True),
    ("timeout", True), ("endpoint_url", 5), ("api_key_env", 5), ("planners", [{}]),
    ("conditions", [1]), ("teacher_model", []), ("description", 5),
])
def test_config_value_of_the_wrong_json_type_exits_2_before_any_model_call(
    math_run, capsys, key, value
):
    _, _, transcript, tmp_path = math_run
    model_keys = {f.name for f in dataclasses.fields(ModelSpec)}
    overrides = {"models": [dict(MODEL, **{key: value})]} if key in model_keys else {key: value}
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", **overrides)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config {config}: {key} is {value!r}, not ")
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


def test_resolved_matrix_shapes(tmp_path):
    build_math_corpus(tmp_path / "c.jsonl", count=1)
    path = write_config(
        tmp_path,
        tmp_path / "c.jsonl",
        models=[MODEL, PLANNER],
        planners=["mock-planner"],
        conditions=["direct_cot", "plan_augmented", "cross_model_plan"],
    )
    matrix = RunConfig.load(path).resolved_matrix()
    assert ("direct_cot", "mock-model", None) in matrix
    assert ("plan_augmented", "mock-model", "mock-model") in matrix
    assert ("cross_model_plan", "mock-model", "mock-planner") in matrix
    assert ("cross_model_plan", "mock-planner", "mock-planner") not in matrix


def test_manifest_written_fields(tmp_path):
    problems = build_math_corpus(tmp_path / "c.jsonl", count=3)
    config_path = write_config(tmp_path, tmp_path / "c.jsonl")
    data = build_manifest(RunConfig.load(config_path), sha256_of(tmp_path / "c.jsonl"), item_count=3)
    assert set(data) == {
        "config_hash", "template_hashes", "corpus_hash", "probe_prompt",
        "seed", "harness_version", "created_at", "planned",
    }
    assert data["planned"]["items"] == 3
    assert data["corpus_hash"] == sha256_of(tmp_path / "c.jsonl")
    assert set(data["template_hashes"]) == {
        "math_direct", "math_plan", "math_guided", "tool_direct", "tool_plan", "tool_guided",
    }
    assert data["probe_prompt"].startswith("Compute the value")
    transcript = write_transcript(tmp_path / "t.jsonl", math_transcript_entries(problems))
    assert cli_dispatch(["eval-math", "--config", str(config_path), "--mock", str(transcript)]) == 0
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(written) == set(data) | {"inputs"}
    assert written["inputs"] == {
        "corpus": sha256_of(tmp_path / "c.jsonl"), "probe_summary": None,
        "records": sha256_of(tmp_path / "out" / "records.jsonl"),
    }


# --- CLI ---------------------------------------------------------------------


def test_cli_validate_ok(math_run, capsys):
    _, config, _, _ = math_run
    assert cli_dispatch(["validate", "--config", str(config)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "direct_cot" in out and "plan_augmented" in out


def test_cli_validate_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli_dispatch(["validate", "--config", str(path)]) == EXIT_CONFIG


def test_cli_missing_config_flag():
    assert cli_dispatch(["validate"]) == EXIT_CONFIG


def test_cli_unknown_flag_is_usage_error(math_run):
    _, config, _, _ = math_run
    assert cli_dispatch(["validate", "--config", str(config), "--bogus"]) == EXIT_CONFIG


def test_cli_unknown_subcommand():
    assert cli_dispatch(["frobnicate"]) == EXIT_CONFIG


def test_cli_eval_math_offline(math_run):
    problems, config, transcript, tmp_path = math_run
    code = cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    for name in ("manifest.json", "records.jsonl", "report.md", "report.csv",
                 "buckets.csv", "summary.json"):
        assert (out / name).exists(), name
    records = load_records(out / "records.jsonl")
    assert len(records) == 2 * len(problems)
    summary = json.loads((out / "summary.json").read_text())
    direct = summary["conditions"]["mock-model/direct_cot"]["mean"]
    guided = summary["conditions"]["mock-model/plan_augmented"]["mean"]
    assert guided > direct
    assert "plan_augmented_vs_direct/mock-model" in summary["p_values"]


def test_cli_eval_math_with_two_planners_summarizes_each_planner_apart(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=8)
    models = [dict(MODEL, name=name) for name in ("a", "b", "c")]
    specs = {m["name"]: ModelSpec(**m) for m in models}
    plans = {"b": "Planner b: count the start, then add each phase.",
             "c": "Planner c: add the phases first, then the start."}
    # items answered right per (solver, planner); planner None is direct_cot
    right = {("a", None): 2, ("b", None): 4, ("c", None): 4,
             ("a", "b"): 7, ("a", "c"): 4, ("b", "c"): 5, ("c", "b"): 6}
    entries = []
    for i, p in enumerate(problems):
        entries += [(planner, render_prompt("plan", p), text) for planner, text in plans.items()]
        for (solver, planner), k in right.items():
            prompt = render_prompt("direct", p) if planner is None else render_prompt("guided", p, plans[planner])
            answer = int(gold_number(p)) + (0 if i < k else 1)
            entries.append((solver, prompt, f"The final answer is: {answer}"))
    transcript = write_jsonl(tmp_path / "t.jsonl", (
        {"prompt_digest": cache_key(Gateway.build_request(specs[m], [user_message(prompt)])),
         "response_text": text}
        for m, prompt, text in entries
    ))
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", models=models,
                          planners=["b", "c"], conditions=["direct_cot", "cross_model_plan"])
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert {key: row["mean"] for key, row in summary["conditions"].items()} == {
        "a/direct_cot": 2 / 8, "b/direct_cot": 4 / 8, "c/direct_cot": 4 / 8,
        "a/cross_model_plan@b": 7 / 8, "a/cross_model_plan@c": 4 / 8,
        "b/cross_model_plan": 5 / 8, "c/cross_model_plan": 6 / 8,
    }
    assert summary["buckets"].keys() == summary["conditions"].keys()
    assert sorted(summary["p_values"]) == [
        "cross_model_plan@b_vs_direct/a", "cross_model_plan@c_vs_direct/a",
        "cross_model_plan_vs_direct/b", "cross_model_plan_vs_direct/c",
    ]
    assert summary["models"]["a"]["acc_plus_plan"] == 7 / 8
    assert [w.split(";")[0] for w in summary["warnings"]] == [
        "cross_model_plan: solver b direct accuracy is not below planner c",
        "cross_model_plan: solver c direct accuracy is not below planner b",
    ]


def test_cli_eval_math_reports_are_bit_identical_across_runs(math_run):
    _, config, transcript, tmp_path = math_run
    argv = ["eval-math", "--config", str(config), "--mock", str(transcript)]
    names = ("report.md", "report.csv", "buckets.csv", "summary.json", "records.jsonl")

    assert cli_dispatch(argv + ["--out", str(tmp_path / "run_a")]) == EXIT_OK
    first = {n: (tmp_path / "run_a" / n).read_bytes() for n in names}
    assert cli_dispatch(argv + ["--out", str(tmp_path / "run_b")]) == EXIT_OK
    second = {n: (tmp_path / "run_b" / n).read_bytes() for n in names}
    assert first == second


def test_cli_eval_partial_failure_exit_code(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=4)
    entries = math_transcript_entries(problems[:3])  # one item unanswerable
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl")
    code = cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)])
    assert code == 1
    failures = (tmp_path / "out" / "failures.jsonl").read_text().splitlines()
    assert len(failures) == 1


def test_cli_rerun_after_partial_run_sends_only_unanswered_requests(tmp_path, monkeypatch):
    """Rerunning an eval is how it resumes: answered requests replay from the
    cache, and the rerun's outputs equal those of a fresh run."""
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=4)
    partial = write_transcript(tmp_path / "partial.jsonl", math_transcript_entries(problems[:3]))
    full = write_transcript(tmp_path / "full.jsonl", math_transcript_entries(problems))
    conditions = ["direct_cot", "plan_augmented"]
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", conditions=conditions)
    (tmp_path / "fresh").mkdir()
    fresh = write_config(tmp_path / "fresh", tmp_path / "corpus.jsonl", conditions=conditions)
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(partial)]) == EXIT_PARTIAL
    assert (out / "failures.jsonl").exists()
    answered = len(list((tmp_path / "cache").glob("*/*.json")))
    assert cli_dispatch(["eval-math", "--config", str(fresh), "--mock", str(full)]) == EXIT_OK
    requests = made[-1].calls  # empty cache: one transport call per request
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(full)]) == EXIT_OK
    assert made[-1].calls == requests - answered == 3  # the last item's direct, plan, guided
    assert not (out / "failures.jsonl").exists()
    for name in ("records.jsonl", "report.md", "summary.json"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / "out" / name).read_bytes()


@pytest.mark.parametrize("command, outputs", [
    ("eval-math", ("manifest.json", "records.jsonl", "report.md")),
    ("probe", ("manifest.json", "probe_summary.json")),
    ("plan", ("manifest.json", "plans.jsonl")),
])
def test_cli_stopping_early_leaves_manifest_and_outputs_untouched(math_run, command, outputs):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch([command, "--config", str(config), "--mock", str(transcript)]) in (0, 1)
    out = tmp_path / "out"
    before = {n: (out / n).read_bytes() for n in outputs}
    build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    missing = tmp_path / "missing.jsonl"
    assert cli_dispatch([command, "--config", str(config), "--mock", str(missing)]) == EXIT_CONFIG
    assert {n: (out / n).read_bytes() for n in outputs} == before


def test_cli_probe_then_eval_math_merges_bottleneck_columns(math_run):
    problems, config, transcript, tmp_path = math_run
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(transcript)]) in (0, 1)
    # scripted transcript has no probe entries, so extend it with exact answers
    from planeval.arith import PROBE_PROMPT
    from planeval.corpora import extract_probes

    extraction = extract_probes(problems)
    probe_entries = [
        (PROBE_PROMPT.format(expression=p.expression), str(p.exact_value))
        for p in extraction.probes
    ]
    full = write_transcript(
        tmp_path / "full_transcript.jsonl",
        math_transcript_entries(problems, wrong_direct_ids={problems[0].id, problems[1].id})
        + probe_entries,
    )
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(full)]) == EXIT_OK
    probe_summary = json.loads((tmp_path / "out" / "probe_summary.json").read_text())
    assert probe_summary["models"]["mock-model"]["p_exe"] == 1.0

    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(full)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    row = summary["models"]["mock-model"]
    assert row["p_exe"] == 1.0
    assert row["exe_acc"] == pytest.approx(1.0)
    assert row["reason_score"] == pytest.approx(row["acc"])


def test_a_probed_model_the_config_no_longer_lists_gets_no_models_row(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        math_transcript_entries(problems) + probe_entries(problems, wrong_every=3),
    )
    both = write_config(tmp_path, tmp_path / "corpus.jsonl", models=[MODEL, PLANNER])
    assert cli_dispatch(["probe", "--config", str(both), "--mock", str(transcript)]) == EXIT_OK
    only_a = write_config(tmp_path, tmp_path / "corpus.jsonl")
    for command in ("eval-math", "report"):
        argv = [command, "--config", str(only_a)] + ["--mock", str(transcript)] * (command != "report")
        assert cli_dispatch(argv) == EXIT_OK
        summary = read_json(tmp_path / "out" / "summary.json")
        assert list(summary["models"]) == ["mock-model"]
        assert summary["models"]["mock-model"]["p_exe"] is not None
        assert [w for w in summary["warnings"] if "mock-planner" in w] == summary["warnings"]
        assert len(summary["warnings"]) == 1
        report = (tmp_path / "out" / "report.md").read_text()
        assert "| mock-planner |" not in report and "| Std. |" not in report


def test_cli_eval_tools_offline(tmp_path):
    tasks = build_tool_corpus(tmp_path / "tools.jsonl", count=5)
    entries = tool_transcript_entries(tasks, degrade_direct_ids={tasks[0].id})
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(
        tmp_path,
        tmp_path / "tools.jsonl",
        task="tools",
        conditions=["direct_cot", "plan_augmented"],
    )
    assert cli_dispatch(["eval-tools", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["task"] == "tools"
    direct = summary["conditions"]["mock-model/direct_cot"]["mean"]
    guided = summary["conditions"]["mock-model/plan_augmented"]["mean"]
    assert guided > direct
    buckets = summary["buckets"]["mock-model/direct_cot"]["buckets"]
    assert [b["label"] for b in buckets] == ["2", "3", ">=4"]


def test_cli_eval_rejects_task_mismatch(math_run):
    _, config, transcript, _ = math_run
    assert cli_dispatch(["eval-tools", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG


@pytest.mark.parametrize("command, task, other", [
    ("probe", "math", "tools"), ("eval-math", "math", "tools"), ("eval-tools", "tools", "math"),
])
def test_a_command_on_a_config_of_the_other_task_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, task, other
):
    corpus = tmp_path / "corpus.jsonl"
    if other == "math":
        entries = math_transcript_entries(build_math_corpus(corpus, count=3))
    else:
        entries = tool_transcript_entries(build_tool_corpus(corpus, count=3))
    transcript = write_transcript(tmp_path / "transcript.jsonl", entries)
    config = write_config(tmp_path, corpus, task=other)
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    before = _files(tmp_path)
    assert cli_dispatch([command, "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {command} requires a {task} corpus\n")
    assert made == []
    assert _files(tmp_path) == before


def test_cli_plan_writes_plans_file(math_run):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["plan", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    lines = [
        json.loads(l) for l in (tmp_path / "out" / "plans.jsonl").read_text().splitlines()
    ]
    assert len(lines) == 10
    assert all(set(l) == {"item_id", "generator_model", "text", "lint_flags"} for l in lines)


def test_cli_plan_writes_the_lint_flags_of_each_plan(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=2)
    texts = ["add 1,200 + 1,300 = 2,500", f"so it ends at {gold_number(problems[1])}.0 boxes"]
    transcript = write_transcript(
        tmp_path / "t.jsonl", [(render_prompt("plan", p), t) for p, t in zip(problems, texts)]
    )
    config = write_config(tmp_path, tmp_path / "corpus.jsonl")
    assert cli_dispatch(["plan", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    rows = [json.loads(l) for l in (tmp_path / "out" / "plans.jsonl").read_text().splitlines()]
    assert [(r["text"], r["lint_flags"]) for r in rows] == [
        (texts[0], ["explicit_arithmetic"]), (texts[1], ["answer_leak"])
    ]


def test_eval_and_build_sft_make_no_plan_lint_call(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("plan lint called")

    for module, name in ((planflow_module, "lint_plan"), (planflow_module, "_lint_math"),
                         (planflow_module, "_lint_tool"), (runner_module, "lint_plan")):
        monkeypatch.setattr(module, name, refuse)
    math_dir, tools_dir = tmp_path / "math", tmp_path / "tools"
    problems = build_math_corpus(math_dir / "corpus.jsonl", count=4)
    tasks = build_tool_corpus(tools_dir / "corpus.jsonl", count=4)
    conditions = ["direct_cot", "plan_augmented"]
    runs = []
    for directory, task, entries in ((math_dir, "math", math_transcript_entries(problems)),
                                     (tools_dir, "tools", tool_transcript_entries(tasks))):
        transcript = write_transcript(directory / "t.jsonl", entries)
        config = write_config(directory, directory / "corpus.jsonl", task=task,
                              conditions=conditions, teacher_model=MODEL["name"])
        runs.append(["--config", str(config), "--mock", str(transcript)])
    assert cli_dispatch(["eval-math", *runs[0]]) == EXIT_OK
    assert cli_dispatch(["build-sft", *runs[0], "--out", str(math_dir / "sft")]) == EXIT_OK
    assert cli_dispatch(["eval-tools", *runs[1]]) == EXIT_OK
    with pytest.raises(AssertionError, match="plan lint called"):
        cli_dispatch(["plan", *runs[0]])


def test_cli_fit_on_expected_execution_points(tmp_path, capsys):
    # On this pairing the best line narrowly beats the best power curve in
    # y-space; the CLI must report that honestly.
    points = REPO_CONFIGS / "fit_points_exe_vs_plan.csv"
    code = cli_dispatch(["fit", "--points", str(points), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "power fit closer: false" in out
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["sse_power"] == pytest.approx(0.010460708404384343, abs=1e-12)
    assert fit["sse_linear"] == pytest.approx(0.010313950895618878, abs=1e-12)


def test_cli_fit_on_single_step_points(tmp_path, capsys):
    points = REPO_CONFIGS / "fit_points_single_step_vs_plan.csv"
    code = cli_dispatch(["fit", "--points", str(points), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "power fit closer: true" in out
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["sse_power"] < fit["sse_linear"]
    assert fit["power"]["a"] == pytest.approx(4.071793498835476, abs=1e-9)


def test_cli_fit_prints_the_fit_section_and_writes_its_value(tmp_path, capsys):
    points = REPO_CONFIGS / "fit_points_single_step_vs_plan.csv"
    assert cli_dispatch(["fit", "--points", str(points), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "- power: y = 0.916298 * x^4.07179 (sse 0.0104966, r2 0.9417)\n"
        "- linear: y = -2.02761 + 2.92937 * x (sse 0.0108637, r2 0.9396)\n"
        "- power fit closer: true\n"
    )
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert set(fit) == {"power", "linear", "sse_power", "sse_linear", "r2_power", "r2_linear"}


def test_cli_fit_rejects_too_few_points(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n1,1\n2,2\n")
    assert cli_dispatch(["fit", "--points", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "content, line",
    [
        ("x,y\n0.5,0.4\n0.6,0.5\n0,0.6\n0.8,0.7\n", 4),
        ("x,y\n0.5,0.4\n0.6,-0.5\n0.7,0.6\n", 3),
        ("x,y\n0.5,0.4\n0.6,nan\n0.7,0.6\n0.8,0.7\n", 3),
        ("x,y\n0.5,0.4\n0.6,oops\n0.7,0.6\n0.8,0.7\n", 3),
        ("x,y\n0.5,0.4\n0.5,0.5\n0.5,0.6\n", None),
        ("x,y\n0.5,0.4\n0.6,0.4\n0.7,0.4\n", None),
    ],
    ids=["x-zero", "y-negative", "nan", "malformed-row", "all-x-equal", "all-y-equal"],
)
def test_cli_fit_bad_points_exit_2_with_one_line(tmp_path, capsys, content, line):
    path = tmp_path / "points.csv"
    path.write_text(content)
    assert cli_dispatch(["fit", "--points", str(path), "--out", str(tmp_path / "fit")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    if line is not None:
        assert f"line {line}:" in err[0]
    assert captured.out == ""
    assert not (tmp_path / "fit").exists()


def _not_utf8_on_line_3(lines: list[bytes]) -> bytes:
    """The lines ended by a lone CR, a CRLF and LFs, with the byte 0xff in the
    middle of the third, so only universal-newline counting finds line 3."""
    bad = lines[2][: len(lines[2]) // 2] + b"\xff" + lines[2][len(lines[2]) // 2 :]
    return lines[0] + b"\r" + lines[1] + b"\r\n" + bad + b"\n" + b"".join(line + b"\n" for line in lines[3:])


def test_cli_fit_points_that_are_not_utf8_exit_2_naming_file_and_line(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(_not_utf8_on_line_3([b"x,y", b"0.5,0.4", b"0.6,0.5", b"0.7,0.6"]))
    assert cli_dispatch(["fit", "--points", str(path), "--out", str(tmp_path / "fit")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0] and "line 3:" in err[0]
    assert captured.out == ""
    assert not (tmp_path / "fit").exists()


def test_cli_fit_reads_points_with_or_without_a_header(tmp_path, capsys):
    shipped = REPO_CONFIGS / "fit_points_exe_vs_plan.csv"
    bare = tmp_path / "bare.csv"
    bare.write_text("\n" + shipped.read_text().split("\n", 1)[1] + "\n\n")
    outputs = []
    for points in (shipped, bare):
        out = tmp_path / points.stem
        assert cli_dispatch(["fit", "--points", str(points), "--out", str(out)]) == EXIT_OK
        outputs.append((capsys.readouterr().out, (out / "fit.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_build_sft_with_mock_teacher(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    plan_entries = [
        (render_prompt("plan", p), f"To solve this question, first we should study crew {p.id}, then total the phases.")
        for p in problems
    ]
    transcript = write_transcript(tmp_path / "t.jsonl", plan_entries)
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model"
    )
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "sft_corpus.jsonl").read_text().splitlines()
    assert len(lines) == 12
    meta = json.loads((tmp_path / "out" / "sft_meta.json").read_text())
    assert meta["teacher_model"] == "mock-model"
    assert meta["counts"]["plan_target"] == 6


def _teacher_plan(problem) -> str:
    return f"To solve this question, first we should study crew {problem.id}, then total the phases."


def test_cli_build_sft_teacher_plan_failures_exit_1_without_sft_files(tmp_path, capsys):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=4)
    entries = [(render_prompt("plan", p), _teacher_plan(p)) for p in problems[:3]]
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"plan failed for {problems[3].id} (mock-model): ")
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()
    assert not (tmp_path / "out" / "sft_meta.json").exists()


def test_cli_build_sft_answer_leak_exits_2(tmp_path, capsys):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    leaky = problems[1]
    entries = [(render_prompt("plan", p), _teacher_plan(p)) for p in problems if p is not leaky]
    entries.append((render_prompt("plan", leaky), f"Add up the phases to reach {gold_number(leaky)}."))
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: gold answer leaked into plan targets: {[leaky.id]}"]
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()


def test_cli_build_sft_reads_a_grouped_gold_answer_in_a_plan_as_a_leak(tmp_path, capsys):
    lines = make_math_lines(2) + [{
        "id": "g-big", "question": "A depot holds 1,000 crates and gets 350 more. How many now?",
        "answer": "1000 + 350 = <<1000+350=1350>>1350 crates.\n#### 1350",
    }]
    problems = load_gsm8k(write_gsm8k_file(tmp_path / "corpus.jsonl", lines))
    leaky = problems[-1]
    assert leaky.gold_answer == 1350
    entries = [(render_prompt("plan", p), _teacher_plan(p)) for p in problems if p is not leaky]
    entries.append((render_prompt("plan", leaky), "Add the delivery to the stock: 1,350."))
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: gold answer leaked into plan targets: {[leaky.id]}"]
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()


def _out_of_order_run(tmp_path, missing_plan=None, **overrides):
    """Items written in the order c, a, b; models p and q, each a planner;
    a digest-keyed transcript whose every plan names its planner and item,
    and in which every guided prompt gets the gold answer. `missing_plan`
    (planner, item id) gets no plan answer. Returns (plans, config, transcript)."""
    lines = [dict(line, id=item_id) for line, item_id in zip(make_math_lines(3), "cab")]
    problems = load_gsm8k(write_gsm8k_file(tmp_path / "corpus.jsonl", lines))
    specs = {name: ModelSpec(**dict(MODEL, name=name)) for name in "pq"}
    plans = {(m, p.id): f"Planner {m} on item {p.id}: count the start, then add each phase."
             for m in specs for p in problems}
    entries = [(m, render_prompt("plan", p), plans[m, p.id])
               for m in specs for p in problems if (m, p.id) != missing_plan]
    entries += [(solver, render_prompt("guided", p, plans[m, p.id]),
                 f"The final answer is: {gold_number(p)}")
                for solver in specs for m in specs for p in problems]
    transcript = write_jsonl(tmp_path / "t.jsonl", (
        {"prompt_digest": cache_key(Gateway.build_request(specs[m], [user_message(prompt)])),
         "response_text": text}
        for m, prompt, text in entries
    ))
    config = write_config(tmp_path, tmp_path / "corpus.jsonl",
                          models=[dict(MODEL, name=name) for name in specs],
                          planners=list(specs), **overrides)
    return plans, config, transcript


def test_guided_records_carry_their_own_items_plan(tmp_path):
    plans, config, transcript = _out_of_order_run(
        tmp_path, conditions=["plan_augmented", "cross_model_plan"]
    )
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 3 * 4
    assert all(r.plan_text == plans[r.planner_model, r.item_id] for r in records)
    assert all(r.score == 1.0 for r in records)


@pytest.mark.parametrize("command", ["plan", "build-sft"])
def test_plan_and_build_sft_key_plans_by_item_id(tmp_path, capsys, command):
    """A failed plan request is reported by its item's id; once every plan is
    answered, each output plan is the one its item's request got."""
    plans, config, transcript = _out_of_order_run(
        tmp_path, missing_plan=("q", "a"), teacher_model="q"
    )
    argv = [command, "--config", str(config), "--mock", str(transcript)]
    assert cli_dispatch(argv) == EXIT_PARTIAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("plan failed for a (q): ")

    _out_of_order_run(tmp_path, teacher_model="q")  # the same files, every plan answered
    assert cli_dispatch(argv) == EXIT_OK
    out = tmp_path / "out"
    if command == "plan":
        rows = [json.loads(line) for line in (out / "plans.jsonl").read_text().splitlines()]
        assert [(r["generator_model"], r["item_id"]) for r in rows] == list(plans)
        assert [r["text"] for r in rows] == list(plans.values())
    else:
        rows = [r for r in sftgen_module.load_sft(out / "sft_corpus.jsonl") if r.kind == "plan_target"]
        assert {r.source_id: r.target for r in rows} == {i: plans["q", i] for i in "abc"}


def _tool_line(function=None, call=None, **fields) -> str:
    """A valid tool corpus row with `fields` replaced and `function` and
    `call` merged into its first function and first call."""
    row = make_tool_lines(1)[0]
    row["functions"] = [dict(row["functions"][0], **function or {}), *row["functions"][1:]]
    row["calls"] = [dict(row["calls"][0], **call or {}), *row["calls"][1:]]
    return json.dumps(dict(row, **fields)) + "\n"


def _tool_line_without_name(part: str) -> str:
    """A valid tool corpus row whose first entry of `part` has no name."""
    row = make_tool_lines(1)[0]
    first, *rest = row[part]
    row[part] = [{k: v for k, v in first.items() if k != "name"}, *rest]
    return json.dumps(row) + "\n"


# The reason a bad input's error line gives, by case id, where a test pins it.
_BAD_INPUT_REASONS = {
    "corpus-gold-not-a-number": "unparseable gold answer 'n/a'",
    "tools-function-without-name": "function entry missing name",
    "tools-call-without-name": "call entry missing name",
}
RECORD_WITHOUT_ITEM_ID = {
    "condition": "direct_cot", "score": 1.0, "step_count": 2, "solver_model": "mock-model"
}
REPEATED_ID_CORPUS = "".join(json.dumps(dict(line, id="g000")) + "\n" for line in make_math_lines(2))


@pytest.mark.parametrize(
    "command, flag, content",
    [
        ("eval-math", "--mock", None),
        ("eval-math", "--mock", "{not json\n"),
        ("probe", "--mock", json.dumps({"prompt_text": "q"}) + "\n"),
        ("report", "records", "{not json\n"),
        ("report", "records", json.dumps(RECORD_WITHOUT_ITEM_ID) + "\n"),
        ("eval-math", "corpus", json.dumps({"question": "q"}) + "\n"),
        ("eval-math", "corpus", json.dumps({"question": "q", "answer": "<<3+4>>\n#### 7"}) + "\n"),
        ("eval-math", "corpus", REPEATED_ID_CORPUS),
        ("eval-math", "--mock", json.dumps({"prompt_text": "q", "response_text": 5}) + "\n"),
        ("eval-math", "--mock", json.dumps({"prompt_text": 5, "response_text": "a"}) + "\n"),
        ("eval-math", "--mock", json.dumps({"prompt_digest": 5, "response_text": "a"}) + "\n"),
        ("eval-math", "corpus", json.dumps({"question": "q", "answer": 7}) + "\n"),
        ("eval-math", "corpus", json.dumps({"question": 5, "answer": "<<3+4=7>>\n#### 7"}) + "\n"),
        ("eval-math", "corpus", "7\n"),
        ("eval-tools", "corpus", "7\n"),
        ("eval-tools", "corpus", _tool_line(task=5)),
        ("eval-tools", "corpus", _tool_line(functions=5)),
        ("eval-tools", "corpus", _tool_line(function={"description": 5})),
        ("eval-tools", "corpus", _tool_line(function={"parameters": []})),
        ("eval-tools", "corpus", _tool_line(call={"name": 5})),
        ("eval-tools", "corpus", _tool_line(call={"params": [1]})),
        ("eval-tools", "corpus", _tool_line(call={"success": "false"})),
        ("eval-tools", "corpus", _tool_line(id=[1])),
        ("eval-math", "corpus", json.dumps({"id": 5, "question": "q", "answer": "<<3+4=7>>\n#### 7"}) + "\n"),
        ("eval-math", "corpus", json.dumps({"question": "q", "answer": "#### n/a"}) + "\n"),
        ("eval-tools", "corpus", _tool_line_without_name("functions")),
        ("eval-tools", "corpus", _tool_line_without_name("calls")),
    ],
    ids=[
        "mock-missing",
        "mock-bad-json",
        "mock-no-response-text",
        "records-bad-json",
        "records-no-item-id",
        "corpus-no-answer",
        "corpus-bad-annotation",
        "corpus-repeated-id",
        "mock-response-text-not-str",
        "mock-prompt-text-not-str",
        "mock-prompt-digest-not-str",
        "corpus-answer-not-str",
        "corpus-question-not-str",
        "corpus-row-not-an-object",
        "tools-row-not-an-object",
        "tools-task-not-str",
        "tools-functions-not-a-list",
        "tools-function-description-not-str",
        "tools-function-parameters-not-object",
        "tools-call-name-not-str",
        "tools-call-params-not-object",
        "tools-call-success-not-bool",
        "tools-id-not-str",
        "corpus-id-not-str",
        "corpus-gold-not-a-number",
        "tools-function-without-name",
        "tools-call-without-name",
    ],
)
def test_cli_bad_input_file_exits_2_with_one_line(math_run, capsys, request, command, flag, content):
    _, config, transcript, tmp_path = math_run
    bad = tmp_path / "out" / "records.jsonl" if flag == "records" else tmp_path / "bad.jsonl"
    bad.parent.mkdir(exist_ok=True)
    if content is not None:
        bad.write_text(content)
    if flag == "corpus":
        config = write_config(tmp_path, bad, task=command.removeprefix("eval-"))
        argv = [command, "--config", str(config), "--mock", str(transcript)]
    elif flag == "records":
        argv = [command, "--config", str(config)]
    else:
        argv = [command, "--config", str(config), flag, str(bad)]
    assert cli_dispatch(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert bad.name in err[0]
    if content is not None:  # each bad file goes wrong on its last line
        assert f"line {len(content.splitlines())}" in err[0]
    assert _BAD_INPUT_REASONS.get(request.node.callspec.id, "") in err[0]
    if flag != "records":
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["corpus", "records", "mock"])
def test_cli_input_that_is_not_utf8_exits_2_naming_file_and_line(math_run, capsys, source):
    _, config, transcript, tmp_path = math_run
    if source == "records":
        assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
        bad = tmp_path / "out" / "records.jsonl"
        argv = ["report", "--config", str(config)]
    else:
        bad = tmp_path / "bad.jsonl"
        good = tmp_path / ("corpus.jsonl" if source == "corpus" else "transcript.jsonl")
        bad.write_bytes(good.read_bytes())
        config = write_config(tmp_path, bad) if source == "corpus" else config
        argv = ["eval-math", "--config", str(config), "--mock", str(bad if source == "mock" else transcript)]
    bad.write_bytes(_not_utf8_on_line_3(bad.read_bytes().splitlines()))
    capsys.readouterr()
    assert cli_dispatch(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 3: ") and str(bad) in err[0]


@pytest.mark.parametrize("url", [
    "",
    "localhost:8001/v1/chat/completions",
    "ftp://localhost/v1/chat/completions",
    "http:///v1/chat/completions",
    "http://[::1/v1/chat/completions",
    "http://localhost:port/v1/chat/completions",
    "http://localhost:99999/v1",
    "http://localhost:abc/v1",
    "http://[::1/v1",
])
def test_cli_live_run_with_bad_endpoint_url_exits_2_before_any_call(tmp_path, capsys, url):
    build_math_corpus(tmp_path / "corpus.jsonl", count=2)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", models=[dict(MODEL, endpoint_url=url)])
    assert cli_dispatch(["eval-math", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: model 'mock-model': endpoint_url {url!r} is not an http(s)://host URL"]
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "out").exists()


def test_cli_manifest_records_the_seed_the_bootstrap_used(math_run):
    _, _, transcript, tmp_path = math_run
    five = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"], seed=5
    )
    assert cli_dispatch(["eval-math", "--config", str(five), "--mock", str(transcript)]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == 5


def _tool_run(tmp_path, seed):
    tasks = build_tool_corpus(tmp_path / "tools.jsonl", count=6)
    entries = tool_transcript_entries(tasks, degrade_direct_ids={t.id for t in tasks[::2]})
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(
        tmp_path, tmp_path / "tools.jsonl", task="tools",
        conditions=["direct_cot", "plan_augmented"], seed=seed,
    )
    return config, transcript


def test_cli_report_records_the_seed_it_resamples_with(tmp_path):
    config, transcript = _tool_run(tmp_path, seed=3)
    assert cli_dispatch(["eval-tools", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    seed_3 = (out / "summary.json").read_bytes()
    _tool_run(tmp_path, seed=11)
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert read_json(out / "manifest.json")["seed"] == 11

    (tmp_path / "fresh").mkdir()
    fresh, transcript = _tool_run(tmp_path / "fresh", seed=11)
    assert cli_dispatch(["eval-tools", "--config", str(fresh), "--mock", str(transcript)]) == EXIT_OK
    fresh_summary = (tmp_path / "fresh" / "out" / "summary.json").read_bytes()
    assert (out / "summary.json").read_bytes() == fresh_summary != seed_3


def test_cli_looks_up_benchmark_hook_points_at_call_time(tmp_path, monkeypatch):
    """The pipeline benchmark counts transports and times writers by
    patching these module attributes; the CLI must resolve them per call."""
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=4)
    probe_entries = [
        (PROBE_PROMPT.format(expression=p.expression), str(p.exact_value))
        for p in extract_probes(problems).probes
    ]
    transcript = write_transcript(
        tmp_path / "t.jsonl", math_transcript_entries(problems) + probe_entries
    )
    config = write_config(
        tmp_path,
        tmp_path / "corpus.jsonl",
        conditions=["direct_cot", "plan_augmented"],
        teacher_model="mock-model",
    )
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    used = []
    for module, name in ((sftgen_module, "write_sft_outputs"), (runner_module, "save_records")):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            used.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for command in ("probe", "eval-math", "build-sft"):
        argv = [command, "--config", str(config), "--mock", str(transcript)]
        assert cli_dispatch(argv) == EXIT_OK, command
    assert used == ["save_records", "write_sft_outputs"]
    assert len(made) == 3
    assert sum(t.calls for t in made) > 0


def test_cli_report_regenerates_identical_report(math_run):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    report_before = (tmp_path / "out" / "report.md").read_bytes()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert (tmp_path / "out" / "report.md").read_bytes() == report_before


def test_report_removes_a_fit_json_that_fit_wrote_to_the_run_directory(math_run):
    # One model gives no fit, so a run directory's fit.json belongs to the report.
    _, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    points = REPO_CONFIGS / "fit_points_single_step_vs_plan.csv"
    assert cli_dispatch(["fit", "--points", str(points), "--out", str(out)]) == EXIT_OK
    assert (out / "fit.json").exists()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert not (out / "fit.json").exists()


def test_cli_report_does_not_parse_the_corpus(math_run):
    problems, config, _, tmp_path = math_run
    probes = extract_probes(problems).probes
    full = write_transcript(
        tmp_path / "full_transcript.jsonl",
        math_transcript_entries(problems, wrong_direct_ids={problems[0].id})
        + [(PROBE_PROMPT.format(expression=p.expression), str(p.exact_value)) for p in probes],
    )
    for command in ("probe", "eval-math"):
        assert cli_dispatch([command, "--config", str(config), "--mock", str(full)]) == EXIT_OK
    out = tmp_path / "out"
    before = {n: (out / n).read_bytes() for n in ("report.md", "summary.json")}
    assert json.loads(before["summary.json"])["models"]["mock-model"]["exe_acc"] is not None
    (tmp_path / "corpus.jsonl").write_text("{not json\n")
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert {n: (out / n).read_bytes() for n in before} == before


def test_cli_build_sft_replays_the_plans_of_plan_from_the_cache(tmp_path, monkeypatch):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    transcript = write_transcript(
        tmp_path / "t.jsonl", [(render_prompt("plan", p), _teacher_plan(p)) for p in problems]
    )
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    assert cli_dispatch(["plan", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    assert cli_dispatch(["build-sft", "--config", str(config), "--mock", str(empty)]) == EXIT_OK
    assert [t.calls for t in made] == [0]
    lines = (tmp_path / "out" / "sft_corpus.jsonl").read_text().splitlines()
    assert len(lines) == 2 * len(problems)


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, "--seed", "5") for c in
     ("validate", "probe", "eval-math", "eval-tools", "plan", "build-sft", "report")]
    + [
        ("build-sft", "--mode", "all"),
        ("build-sft", "--plans", "plans.jsonl"),
        ("report", "--records", "records.jsonl"),
        ("report", "--task", "math"),
    ],
)
def test_cli_removed_flags_exit_2_without_output(math_run, command, flag, value):
    _, config, transcript, tmp_path = math_run
    argv = [command, "--config", str(config), "--mock", str(transcript), flag, value]
    assert cli_dispatch(argv) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command, flag", [
    ("validate", "--mock"), ("validate", "--out"), ("fit", "--config"), ("fit", "--mock"),
    ("report", "--mock"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(math_run, capsys, command, flag):
    _, config, _, tmp_path = math_run
    points = REPO_CONFIGS / "fit_points_single_step_vs_plan.csv"
    given = ["--points", str(points)] if command == "fit" else ["--config", str(config)]
    unused = tmp_path / "unused"
    assert cli_dispatch([command, *given, flag, str(unused)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag} {unused}\n" in captured.err
    assert not unused.exists()


def test_a_flag_the_command_does_not_take_prints_that_commands_usage(math_run, capsys):
    _, config, _, _ = math_run
    assert cli_dispatch(["report", "--config", str(config), "--mock", "X"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: planeval report")
    assert err.endswith("planeval report: error: unrecognized arguments: --mock X\n")


def test_the_cli_parser_is_built_once_per_process(math_run, monkeypatch):
    _, config, _, _ = math_run
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli_dispatch(["validate", "--config", str(config)]) == EXIT_OK
    first = len(built)
    assert cli_dispatch(["validate", "--config", str(config)]) == EXIT_OK
    assert built.count("planeval") <= 1
    assert len(built) == first



# --- execution ceiling and its inputs -----------------------------------------


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_ceiling_comes_from_the_evaluated_items_not_the_probed_corpus(tmp_path):
    lines = make_math_lines(20)
    corpus_a = write_gsm8k_file(tmp_path / "a.jsonl", lines)
    corpus_b = write_gsm8k_file(tmp_path / "b.jsonl", lines[::6])
    problems_b = load_gsm8k(corpus_b)
    assert {p.step_count for p in problems_b} == {2}
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        math_transcript_entries(problems_b) + probe_entries(load_gsm8k(corpus_a), wrong_every=4),
    )
    out = tmp_path / "out"
    config = write_config(tmp_path, corpus_a)
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    probe_summary = read_json(out / "probe_summary.json")
    assert probe_summary["corpus_hash"] == sha256_of(corpus_a)
    p_exe = probe_summary["models"]["mock-model"]["p_exe"]
    assert 0 < p_exe < 1

    config = write_config(tmp_path, corpus_b)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    row = read_json(out / "summary.json")["models"]["mock-model"]
    assert row["exe_acc"] == p_exe**2
    assert row["reason_score"] == row["acc"] / p_exe**2
    manifest = read_json(out / "manifest.json")
    assert manifest["corpus_hash"] == sha256_of(corpus_b)
    assert manifest["inputs"]["probe_summary"] == sha256_of(out / "probe_summary.json")


def test_probe_summary_of_another_corpus_is_kept_with_a_warning_naming_both_hashes(tmp_path):
    lines = make_math_lines(12)
    corpus_a = write_gsm8k_file(tmp_path / "a.jsonl", lines[:6])
    corpus_b = write_gsm8k_file(tmp_path / "b.jsonl", lines[6:])
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        math_transcript_entries(load_gsm8k(corpus_b))
        + probe_entries(load_gsm8k(corpus_a), wrong_every=1),
    )
    out = tmp_path / "out"
    config_a = write_config(tmp_path, corpus_a)
    assert cli_dispatch(["probe", "--config", str(config_a), "--mock", str(transcript)]) == EXIT_OK
    config_b = write_config(tmp_path, corpus_b)
    warning = (
        f"probe_summary.json is from corpus {sha256_of(corpus_a)}, not the graded corpus "
        f"{sha256_of(corpus_b)}; p_exe and exe_acc come from its probes"
    )
    for command in (["eval-math", "--mock", str(transcript)], ["report"]):
        assert cli_dispatch([*command, "--config", str(config_b)]) == EXIT_OK
        summary = read_json(out / "summary.json")
        assert summary["models"]["mock-model"]["p_exe"] == 0.0
        assert summary["models"]["mock-model"]["acc"] == 1.0
        assert summary["warnings"] == [warning]
        assert f"## Warnings\n\n- {warning}\n" in (out / "report.md").read_text()

    assert cli_dispatch(["probe", "--config", str(config_b), "--mock", str(transcript)]) == EXIT_PARTIAL
    assert cli_dispatch(["report", "--config", str(config_b)]) == EXIT_OK
    assert read_json(out / "summary.json")["warnings"] == []


def test_report_after_a_probe_of_another_corpus_compares_with_the_evaluated_corpus(tmp_path):
    lines = make_math_lines(12)
    corpus_a = write_gsm8k_file(tmp_path / "a.jsonl", lines[:6])
    corpus_b = write_gsm8k_file(tmp_path / "b.jsonl", lines[6:])
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        math_transcript_entries(load_gsm8k(corpus_b))
        + probe_entries(load_gsm8k(corpus_a), wrong_every=1),
    )
    out = tmp_path / "out"
    for corpus, command in ((corpus_b, "eval-math"), (corpus_a, "probe"), (corpus_b, "report")):
        config = write_config(tmp_path, corpus)
        argv = [command, "--config", str(config)] + ["--mock", str(transcript)] * (command != "report")
        assert cli_dispatch(argv) == EXIT_OK, command
    summary = read_json(out / "summary.json")
    assert (summary["models"]["mock-model"]["p_exe"], summary["models"]["mock-model"]["acc"]) == (0.0, 1.0)
    assert summary["warnings"] == [
        f"probe_summary.json is from corpus {sha256_of(corpus_a)}, not the graded corpus "
        f"{sha256_of(corpus_b)}; p_exe and exe_acc come from its probes"
    ]
    manifest = read_json(out / "manifest.json")
    assert (manifest["corpus_hash"], manifest["inputs"]["corpus"]) == (
        sha256_of(corpus_a), sha256_of(corpus_b)
    )


@pytest.mark.parametrize("inputs", [[], "a", {"corpus": 5}, {"corpus": ["a"]}])
def test_report_rejects_a_manifest_whose_inputs_are_malformed(math_run, capsys, inputs):
    _, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    write_json(out / "manifest.json", dict(read_json(out / "manifest.json"), inputs=inputs))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out / 'manifest.json'}: inputs")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_corpus_rewritten_during_eval_leaves_the_graded_files_hash_in_the_manifest(
    tmp_path, monkeypatch
):
    lines = make_math_lines(9)
    corpus = write_gsm8k_file(tmp_path / "corpus.jsonl", lines[:6])
    graded = sha256_of(corpus)
    transcript = write_transcript(tmp_path / "t.jsonl", math_transcript_entries(load_gsm8k(corpus)))
    config = write_config(tmp_path, corpus, concurrency=1)
    rewritten = []

    class RewritingMockTransport(runner_module.MockTransport):
        def send(self, model, request):
            if not rewritten:
                rewritten.append(write_gsm8k_file(corpus, lines))
            return super().send(model, request)

    monkeypatch.setattr(runner_module, "MockTransport", RewritingMockTransport)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    assert rewritten and sha256_of(corpus) != graded
    assert len((out / "records.jsonl").read_text().splitlines()) == 6
    manifest = read_json(out / "manifest.json")
    assert manifest["corpus_hash"] == graded
    assert manifest["inputs"]["corpus"] == graded


def test_corpus_rewritten_just_before_it_is_parsed_leaves_records_and_hashes_of_one_file(
    tmp_path, monkeypatch
):
    lines = make_math_lines(9)
    corpus = write_gsm8k_file(tmp_path / "corpus.jsonl", lines[:6])
    graded = sha256_of(corpus)
    problems = load_gsm8k(write_gsm8k_file(tmp_path / "all.jsonl", lines))
    transcript = write_transcript(tmp_path / "t.jsonl", math_transcript_entries(problems))
    config = write_config(tmp_path, corpus)
    load = runner_module.load_gsm8k

    def rewriting_load(*args):
        write_gsm8k_file(corpus, lines)
        return load(*args)

    monkeypatch.setattr(runner_module, "load_gsm8k", rewriting_load)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    assert sha256_of(corpus) != graded
    graded_ids = {r.item_id for r in load_records(out / "records.jsonl")}
    assert graded_ids == {p.id for p in problems[:6]}
    manifest = read_json(out / "manifest.json")
    assert manifest["corpus_hash"] == manifest["inputs"]["corpus"] == graded
    assert manifest["planned"]["items"] == 6


def test_report_hashes_the_records_bytes_it_parsed(math_run, monkeypatch):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    records_path = tmp_path / "out" / "records.jsonl"
    parsed = sha256_of(records_path)
    load = runner_module.load_records

    def truncating_load(path, *args):
        records = load(path, *args)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        return records

    monkeypatch.setattr(runner_module, "load_records", truncating_load)
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert sha256_of(records_path) != parsed
    assert read_json(tmp_path / "out" / "manifest.json")["inputs"]["records"] == parsed


def test_report_reads_no_corpus(math_run, capsys):
    problems, config, transcript, tmp_path = math_run
    transcript = write_transcript(
        tmp_path / "full.jsonl", math_transcript_entries(problems) + probe_entries(problems)
    )
    for command in ("probe", "eval-math"):
        assert cli_dispatch([command, "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    before = _files(out)
    (tmp_path / "corpus.jsonl").unlink()
    capsys.readouterr()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert _files(out) == before


# The opens of each path while a test counts them, from the interpreter's
# "open" audit event, which every way of opening a file raises. An audit hook
# cannot be removed, so one is added for the session and counts into the
# counter of the test that is running, if any.
_OPEN_COUNTS: list[collections.Counter] = []


def _count_open(event: str, args: tuple) -> None:
    if _OPEN_COUNTS and event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        _OPEN_COUNTS[-1][os.path.abspath(os.fsdecode(args[0]))] += 1


@cache
def _add_open_hook() -> None:
    sys.addaudithook(_count_open)


@pytest.fixture
def open_counts():
    _add_open_hook()
    counts = collections.Counter()
    _OPEN_COUNTS.append(counts)
    try:
        yield counts
    finally:
        _OPEN_COUNTS.remove(counts)


def test_no_command_opens_the_corpus_records_or_manifest_twice(tmp_path, open_counts):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", models=[MODEL, PLANNER],
                          planners=["mock-planner"], teacher_model="mock-planner",
                          conditions=["direct_cot", "plan_augmented", "cross_model_plan"])
    tasks = build_tool_corpus(tmp_path / "tools" / "corpus.jsonl", count=5)
    tools_config = write_config(tmp_path / "tools", tmp_path / "tools" / "corpus.jsonl",
                                task="tools")
    transcript = write_transcript(
        tmp_path / "t.jsonl", math_transcript_entries(problems) + probe_entries(problems)
        + tool_transcript_entries(tasks),
    )
    runs = [(command, config, tmp_path) for command in
            ("validate", "probe", "eval-math", "report", "plan", "build-sft")]
    runs += [(command, tools_config, tmp_path / "tools") for command in ("eval-tools", "report")]
    for command, path, root in runs:
        argv = [command, "--config", str(path)]
        if command not in ("validate", "report"):
            argv += ["--mock", str(transcript)]
        open_counts.clear()
        assert cli_dispatch(argv) == EXIT_OK, command
        opens = {name: open_counts[str(root / name)]
                 for name in ("corpus.jsonl", "out/records.jsonl", "out/manifest.json")}
        opens["transcript"] = open_counts[str(transcript)]
        assert opens["corpus.jsonl"] == (command != "report"), (command, opens)
        assert opens["transcript"] == (command not in ("validate", "report")), (command, opens)
        assert opens["out/records.jsonl"] <= 1 and opens["out/manifest.json"] <= 1, (command, opens)


@pytest.mark.parametrize("command", ["validate", "eval-math"])
def test_corpus_path_that_is_a_directory_exits_2_with_one_line(tmp_path, capsys, command):
    (tmp_path / "corpus").mkdir()
    config = write_config(tmp_path, tmp_path / "corpus")
    transcript = write_transcript(tmp_path / "t.jsonl", [])
    argv = [command, "--config", str(config)] + ["--mock", str(transcript)] * (command != "validate")
    assert cli_dispatch(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and str(tmp_path / "corpus") in err[0]
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


def test_cache_dir_that_is_a_file_exits_2_with_one_line(math_run, capsys):
    _, config, transcript, tmp_path = math_run
    (tmp_path / "cache").write_text("")
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path / "cache") in err[0]
    assert not (tmp_path / "out").exists()


def test_records_file_that_is_a_directory_exits_2_with_one_line(math_run, capsys):
    _, config, _, tmp_path = math_run
    records = tmp_path / "out" / "records.jsonl"
    records.mkdir(parents=True)
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(records) in err[0]
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["records.jsonl"]


def test_item_whose_every_cell_failed_is_left_out_of_the_ceiling(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=2)
    assert [p.step_count for p in problems] == [2, 3]
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        math_transcript_entries(problems[:1]) + probe_entries(problems, wrong_every=2),
    )
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"]
    )
    out = tmp_path / "out"
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    p_exe = read_json(out / "probe_summary.json")["models"]["mock-model"]["p_exe"]
    assert 0 < p_exe < 1
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_PARTIAL
    rows = (out / "failures.jsonl").read_text().splitlines()
    failed = {json.loads(line)["item_id"] for line in rows}
    assert failed == {problems[1].id}
    assert read_json(out / "summary.json")["models"]["mock-model"]["exe_acc"] == p_exe**2


def _values(sections) -> dict:
    """Each built section's summary.json value by its key."""
    return {s.key: s.value for s in (build() for build in sections)}


def test_records_without_a_step_give_no_ceiling():
    records = [
        EvalRecord(item_id=f"i{k}", condition=Condition.DIRECT_COT, score=1.0,
                   step_count=0, solver_model="a")
        for k in range(3)
    ]
    (row,) = _values(summarize(records, "math", p_exe_by_model={"a": 0.9}))["models"].values()
    assert row["p_exe"] == 0.9 and row["exe_acc"] is None and row["reason_score"] is None


def test_manifest_names_the_probe_summary_the_report_read(math_run):
    _, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    written = read_json(out / "manifest.json")
    assert written["inputs"] == {"corpus": sha256_of(tmp_path / "corpus.jsonl"),
                                 "probe_summary": None, "records": sha256_of(out / "records.jsonl")}
    hashes = []
    for p_exe in (0.5, 0.25):
        write_json(out / "probe_summary.json", {"models": {"mock-model": {"p_exe": p_exe}}})
        assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
        manifest = read_json(out / "manifest.json")
        assert manifest["inputs"] == {
            "corpus": sha256_of(tmp_path / "corpus.jsonl"),
            "probe_summary": sha256_of(out / "probe_summary.json"),
            "records": sha256_of(out / "records.jsonl"),
        }
        assert dict(manifest, inputs=None) == dict(written, inputs=None)
        assert read_json(out / "summary.json")["models"]["mock-model"]["p_exe"] == p_exe
        hashes.append(manifest["inputs"]["probe_summary"])
    assert hashes[0] != hashes[1]


def test_plan_build_sft_and_probe_keep_the_inputs_of_the_manifest_they_replace(math_run):
    _, _, transcript, tmp_path = math_run
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"],
        teacher_model="mock-model",
    )
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    inputs = read_json(out / "manifest.json")["inputs"]
    write_json(out / "manifest.json", dict(read_json(out / "manifest.json"), note=[1, "kept"]))
    for command, codes in (("plan", (0,)), ("build-sft", (0,)), ("probe", (0, 1))):
        assert cli_dispatch([command, "--config", str(config), "--mock", str(transcript)]) in codes
        manifest = read_json(out / "manifest.json")
        assert (manifest["inputs"], manifest["note"]) == (inputs, [1, "kept"])


def test_stored_step_distribution_does_not_change_the_report(math_run):
    problems, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    reports = []
    for extra in ({}, {"step_distribution": {"7": 1.0}}):
        write_json(out / "probe_summary.json", {"models": {"mock-model": {"p_exe": 0.9}}, **extra})
        assert cli_dispatch(["report", "--config", str(config)]) == EXIT_OK
        names = ("report.md", "report.csv", "buckets.csv", "summary.json")
        reports.append({n: (out / n).read_bytes() for n in names})
    assert reports[0] == reports[1]
    row = json.loads(reports[0]["summary.json"])["models"]["mock-model"]
    assert row["exe_acc"] == exe_acc(0.9, step_distribution(problems))


@pytest.mark.parametrize("command", ["report", "eval-math"])
@pytest.mark.parametrize(
    "content",
    [
        "{not json\n",
        "[0.9]\n",
        json.dumps({"models": ["mock-model"]}),
        json.dumps({"models": {"mock-model": 0.9}}),
        json.dumps({"models": {"mock-model": {"p_exe": 1.5}}}),
        json.dumps({"models": {"mock-model": {"p_exe": "0.9"}}}),
    ],
    ids=["bad-json", "not-object", "models-list", "model-row-number", "p_exe-1.5", "p_exe-text"],
)
def test_cli_malformed_probe_summary_exits_2_with_one_line(math_run, capsys, command, content):
    _, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    eval_argv = ["eval-math", "--config", str(config), "--mock", str(transcript)]
    if command == "report":
        assert cli_dispatch(eval_argv) == EXIT_OK
    out.mkdir(exist_ok=True)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cache_before = sorted((tmp_path / "cache").glob("*/*.json"))
    (out / "probe_summary.json").write_text(content)
    argv = ["report", "--config", str(config)] if command == "report" else eval_argv
    assert cli_dispatch(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(out / "probe_summary.json") in err[0]
    after = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "probe_summary.json"}
    assert after == before
    assert sorted((tmp_path / "cache").glob("*/*.json")) == cache_before


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_cli_probe_limit_below_one_exits_2(math_run, capsys, limit):
    _, config, transcript, tmp_path = math_run
    argv = ["probe", "--config", str(config), "--mock", str(transcript), "--limit", limit]
    assert cli_dispatch(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["error: --limit must be >= 1"]
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "cache").exists()


def test_cli_probe_limit_takes_the_first_probes(math_run):
    problems, config, _, tmp_path = math_run
    transcript = write_transcript(tmp_path / "probes.jsonl", probe_entries(problems))
    argv = ["probe", "--config", str(config), "--mock", str(transcript), "--limit", "2"]
    assert cli_dispatch(argv) == EXIT_OK
    assert read_json(tmp_path / "out" / "probe_summary.json")["probe_count"] == 2


MALFORMED_TRANSCRIPT = json.dumps({"prompt_text": "q", "response_text": "a"}) + "\n{not json\n"


def test_probe_files_of_model_names_with_slash_or_percent_stay_in_the_output_dir(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    transcript = write_transcript(tmp_path / "t.jsonl", probe_entries(problems))
    names = ["meta-llama/Llama-2-7b-chat-hf", "a%2Fb", "a/b", "mock-model"]
    config = write_config(tmp_path, tmp_path / "corpus.jsonl",
                          models=[dict(MODEL, name=name) for name in names])
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "out").iterdir() if p.name.startswith("probes_")) == [
        "probes_a%252Fb.jsonl",
        "probes_a%2Fb.jsonl",
        "probes_meta-llama%2FLlama-2-7b-chat-hf.jsonl",
        "probes_mock-model.jsonl",
    ]


def _files(directory: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_cli_probe_rows_keep_expected_and_parsed_as_text(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    probes = extract_probes(problems).probes
    replies = ["0", "no number here"] + [str(p.exact_value) for p in probes[2:]]
    transcript = write_transcript(
        tmp_path / "t.jsonl",
        [(PROBE_PROMPT.format(expression=p.expression), reply) for p, reply in zip(probes, replies)],
    )
    config = write_config(tmp_path, tmp_path / "corpus.jsonl")
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    lines = (tmp_path / "out" / "probes_mock-model.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [p.expression for p in probes] == [row["expression"] for row in rows]
    assert {tuple(row) for row in rows} == {("correct", "expected", "expression", "model_text", "parsed")}
    assert rows[0] == {"expression": probes[0].expression, "expected": str(probes[0].exact_value),
                       "model_text": "0", "parsed": "0", "correct": False}
    assert rows[1] == {"expression": probes[1].expression, "expected": str(probes[1].exact_value),
                       "model_text": "no number here", "parsed": None, "correct": False}
    assert all(row["parsed"] == row["expected"] and row["correct"] for row in rows[2:])


def test_interrupted_probe_leaves_every_output_file_untouched(tmp_path, monkeypatch):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl",
                          models=[dict(MODEL, name="a"), dict(MODEL, name="b")])
    wrong = write_transcript(tmp_path / "wrong.jsonl", probe_entries(problems, wrong_every=2))
    assert cli_dispatch(["probe", "--config", str(config), "--mock", str(wrong)]) == EXIT_OK
    out = tmp_path / "out"
    before = _files(out)
    assert sorted(p.name for p in before) == [
        "manifest.json", "probe_summary.json", "probes_a.jsonl", "probes_b.jsonl"
    ]
    original = runner_module._gateway

    def gateway_interrupted_at_b(config, args):
        gateway = original(config, args)
        send = gateway.transport.send

        def send_or_interrupt(model, request):
            if model.name == "b":
                raise KeyboardInterrupt
            return send(model, request)

        gateway.transport.send = send_or_interrupt
        return gateway

    monkeypatch.setattr(runner_module, "_gateway", gateway_interrupted_at_b)
    shutil.rmtree(tmp_path / "cache")  # a cold cache, so model a gets new answers
    right = write_transcript(tmp_path / "right.jsonl", probe_entries(problems))
    with pytest.raises(KeyboardInterrupt):
        cli_dispatch(["probe", "--config", str(config), "--mock", str(right)])
    assert _files(out) == before


def test_report_rejects_a_repeated_record_row_and_writes_nothing(math_run, capsys):
    problems, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    records = out / "records.jsonl"
    lines = records.read_text().splitlines(keepends=True)
    repeats = [line for line in lines if json.loads(line)["item_id"] == problems[0].id]
    assert len(repeats) == 2  # its direct_cot and plan_augmented rows
    records.write_text("".join(lines + repeats))
    before = _files(out)
    capsys.readouterr()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: line {len(lines) + 1}: ")
    assert str(records) in err[0] and "repeated" in err[0]
    assert _files(out) == before


def test_records_of_one_item_under_two_planners_are_not_repeats(tmp_path):
    rows = [
        EvalRecord(item_id="i1", condition=Condition.CROSS_MODEL_PLAN, score=1.0, step_count=2,
                   solver_model="a", planner_model=planner)
        for planner in ("p", "q")
    ]
    write_jsonl(tmp_path / "records.jsonl", map(vars, rows))
    assert load_records(tmp_path / "records.jsonl") == rows


def test_report_summarizes_before_it_writes_the_manifest(math_run, monkeypatch):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    write_json(out / "probe_summary.json", {"models": {"mock-model": {"p_exe": 0.5}}})
    before = _files(out)

    def failing_summarize(*args, **kwargs):
        raise RuntimeError("summarize failed")

    monkeypatch.setattr(runner_module, "summarize", failing_summarize)
    with pytest.raises(RuntimeError):
        cli_dispatch(["report", "--config", str(config)])
    assert _files(out) == before


def test_every_command_writes_its_outputs_after_its_work_and_the_manifest_last(
    math_run, monkeypatch
):
    problems, _, _, tmp_path = math_run
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"],
        teacher_model="mock-model",
    )
    transcript = write_transcript(
        tmp_path / "full.jsonl", math_transcript_entries(problems) + probe_entries(problems)
    )
    out = tmp_path / "out"
    events = []
    replace, complete = os.replace, runner_module.Gateway.complete

    def logged_replace(src, dst):
        replace(src, dst)
        if Path(dst).parent == out:
            events.append(Path(dst).name)

    def logged_complete(self, *args, **kwargs):
        events.append("<model call>")
        return complete(self, *args, **kwargs)

    def logged_summarize(*args, _original=runner_module.summarize, **kwargs):
        events.append("<summarize>")
        return _original(*args, **kwargs)

    monkeypatch.setattr(os, "replace", logged_replace)
    monkeypatch.setattr(runner_module.Gateway, "complete", logged_complete)
    monkeypatch.setattr(runner_module, "summarize", logged_summarize)
    for command in ("probe", "eval-math", "report", "plan", "build-sft"):
        events.clear()
        mock = [] if command == "report" else ["--mock", str(transcript)]
        assert cli_dispatch([command, "--config", str(config), *mock]) == EXIT_OK
        work = [k for k, e in enumerate(events) if e.startswith("<")]
        writes = [k for k, e in enumerate(events) if not e.startswith("<")]
        assert work and writes and max(work) < min(writes), (command, events)
        assert events[-1] == "manifest.json" and events.count("manifest.json") == 1, (command, events)


def test_eval_on_an_unreadable_manifest_exits_2_before_any_model_call(math_run, capsys, monkeypatch):
    _, config, transcript, tmp_path = math_run
    manifest = tmp_path / "out" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text("[1,2")
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest} is not readable JSON")
    assert sum(t.calls for t in made) == 0
    assert _files(tmp_path / "out") == {manifest: b"[1,2"}


@pytest.mark.parametrize("field, value", [
    ("step_count", 2.5), ("step_count", -3), ("step_count", True), ("score", True),
    ("score", "1"), ("solver_model", 5), ("item_id", 7), ("condition", 1), ("planner_model", 5),
    ("flags", "ab"), ("flags", [1]), ("response_text", 5), ("plan_text", ["x"]),
])
def test_report_rejects_a_record_field_of_the_wrong_type_and_writes_nothing(
    math_run, capsys, field, value
):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    records = out / "records.jsonl"
    lines = records.read_text().splitlines(keepends=True)
    lines[2] = json.dumps(dict(json.loads(lines[2]), **{field: value})) + "\n"
    records.write_text("".join(lines))
    before = _files(out)
    capsys.readouterr()
    assert cli_dispatch(["report", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 3: bad record row in ")
    assert str(records) in err[0] and field in err[0]
    assert _files(out) == before


@pytest.mark.parametrize("command", ["probe", "eval-math", "plan"])
def test_malformed_transcript_on_a_cold_cache_exits_2_and_changes_no_output(math_run, capsys, command):
    problems, config, _, tmp_path = math_run
    full = write_transcript(
        tmp_path / "full.jsonl", math_transcript_entries(problems) + probe_entries(problems)
    )
    for step in ("probe", "eval-math", "plan"):
        assert cli_dispatch([step, "--config", str(config), "--mock", str(full)]) == EXIT_OK
    cache = tmp_path / "cache"
    for entry in cache.glob("*/*.json"):
        entry.unlink()
    before = _files(tmp_path / "out")
    bad = tmp_path / "bad.jsonl"
    bad.write_text(MALFORMED_TRANSCRIPT)
    capsys.readouterr()
    assert cli_dispatch([command, "--config", str(config), "--mock", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2: ") and str(bad) in err[0]
    assert _files(tmp_path / "out") == before
    assert not list(cache.glob("*/*.json"))


def test_eval_over_a_warm_cache_sends_nothing_and_never_parses_the_transcript(math_run, monkeypatch):
    _, config, transcript, tmp_path = math_run
    out = tmp_path / "out"
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    before = {p: data for p, data in _files(out).items() if p.name != "manifest.json"}
    made = []

    class CountingMockTransport(runner_module.MockTransport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(runner_module, "MockTransport", CountingMockTransport)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(MALFORMED_TRANSCRIPT)
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(bad)]) == EXIT_OK
    assert [t.calls for t in made] == [0]
    assert {p: data for p, data in _files(out).items() if p.name != "manifest.json"} == before

# --- shipped fixtures validate as-is ------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        "bottleneck_math.json",
        "plan_augment_math.json",
        "tool_eval.json",
        "sft_build_math.json",
        "sft_ablation_plan_only.json",
    ],
)
def test_shipped_configs_validate(name):
    assert cli_dispatch(["validate", "--config", str(REPO_CONFIGS / name)]) == EXIT_OK


def test_python_dash_m_planeval_runs_the_cli_quietly():
    src = str(Path(runner_module.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = str(REPO_CONFIGS / "tool_eval.json")
    done = subprocess.run(
        [sys.executable, "-m", "planeval", "validate", "--config", config],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("config ok: task=tools")


# --- report formatting ---------------------------------------------------------


def test_report_prints_percent_rows_in_table_style(tmp_path):
    sections = (
        partial(models_section, [("tiny", 0.861, 0.595, 0.369, 0.369 / 0.595, 0.440)]),
        partial(conditions_section, {("tiny", "direct_cot"): (0.369, 100)}),
    )
    emit_report([], "math", sections, tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "| tiny | 86.1 | 59.5 | 36.9 | 62.0 | 44.0 |" in report


def test_report_empty_bucket_prints_dash_and_std_row(tmp_path):
    records = [
        EvalRecord(item_id=f"i{k}", condition=Condition.DIRECT_COT, score=1.0,
                   step_count=2, solver_model="a")
        for k in range(3)
    ]
    models = partial(models_section,
                     [("a", 0.9, 0.8, 1.0, 1.25, None), ("b", 0.7, 0.5, 0.5, 1.0, None)])
    emit_report(records, "math", (models, *summarize(records, "math")[1:]), tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "| a | direct_cot | 3 | – | 0 |" in report
    assert "| Std. |" in report
    import numpy as np

    expected_std = f"{np.std([0.9, 0.7]) * 100:.2f}"
    assert expected_std in report


def test_report_md_escapes_a_pipe_in_a_cell_and_json_and_csv_keep_the_name(tmp_path):
    records = [EvalRecord(item_id="i0", condition=Condition.DIRECT_COT, score=1.0,
                          step_count=2, solver_model="gpt|4")]
    emit_report(records, "math", summarize(records, "math"), tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "| gpt\\|4 | direct_cot | 100.0 | 1 |" in report
    for section in report.split("## ")[1:]:
        rows = [line for line in section.splitlines() if line.startswith("|")]
        assert len({len(re.findall(r"(?<!\\)\|", row)) for row in rows}) == 1, section
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary["conditions"]) == ["gpt|4/direct_cot"]
    assert "i0,direct_cot,1.0,2,gpt|4," in (tmp_path / "report.csv").read_text()


def test_a_section_made_outside_the_runner_reaches_every_report_file(tmp_path):
    records = [EvalRecord(item_id="i0", condition=Condition.DIRECT_COT, score=1.0,
                          step_count=2, solver_model="a")]
    extra = partial(Section, "Extra", ["- one line"], "extra", {"n": 1},
                    {"extra.csv": [("name", "value"), ("a", None)]})
    written = emit_report(records, "math", (*summarize(records, "math"), extra), tmp_path)
    assert (tmp_path / "report.md").read_text().endswith("\n## Extra\n\n- one line\n")
    assert json.loads((tmp_path / "summary.json").read_text())["extra"] == {"n": 1}
    assert (tmp_path / "extra.csv").read_bytes() == b"name,value\r\na,\r\n"
    assert tmp_path / "extra.csv" in written


def test_summarize_warns_when_solver_not_weaker(tmp_path):
    records = []
    for model, score in (("strong", 1.0), ("planner", 0.0)):
        records.extend(
            EvalRecord(item_id=f"i{k}", condition=Condition.DIRECT_COT, score=score,
                       step_count=2, solver_model=model)
            for k in range(3)
        )
    records.extend(
        EvalRecord(item_id=f"i{k}", condition=Condition.CROSS_MODEL_PLAN, score=1.0,
                   step_count=2, solver_model="strong", planner_model="planner")
        for k in range(3)
    )
    assert any("not below planner" in w for w in _values(summarize(records, "math"))["warnings"])


def test_summarize_skips_fit_when_all_models_share_one_execution_ceiling(tmp_path):
    models = ("m1", "m2", "m3")
    plan = Condition.PLAN_AUGMENTED
    records = [
        EvalRecord(item_id=f"i{k}", condition=cond, score=score, step_count=2,
                   solver_model=model, planner_model=model if cond is plan else None)
        for model, score in zip(models, (0.25, 0.5, 1.0))
        for cond in (Condition.DIRECT_COT, plan)
        for k in range(4)
    ]
    sections = summarize(records, "math", p_exe_by_model=dict.fromkeys(models, 0.9))
    values = _values(sections)
    assert values["fit"] is None
    assert len({row["exe_acc"] for row in values["models"].values()}) == 1
    emit_report(records, "math", sections, tmp_path)
    assert "## Fit" not in (tmp_path / "report.md").read_text()
    assert not (tmp_path / "fit.json").exists()


def test_summarize_compares_no_guided_cell_that_shares_no_item_with_direct():
    records = [
        EvalRecord(item_id=f"{prefix}{k}", condition=cond, score=1.0, step_count=2,
                   solver_model="a", planner_model="a" if prefix == "g" else None)
        for prefix, cond in (("d", Condition.DIRECT_COT), ("g", Condition.PLAN_AUGMENTED))
        for k in range(3)
    ]
    values = _values(summarize(records, "math"))
    assert set(values["conditions"]) == {"a/direct_cot", "a/plan_augmented"}
    assert values["p_values"] == {}


def test_summarize_skips_fit_when_every_model_has_one_guided_accuracy(tmp_path):
    models = ("m1", "m2", "m3")
    plan = Condition.PLAN_AUGMENTED
    records = [
        EvalRecord(item_id=f"i{k}", condition=cond, score=float(k < 16), step_count=2,
                   solver_model=model, planner_model=model if cond is plan else None)
        for model in models
        for cond in (Condition.DIRECT_COT, plan)
        for k in range(40)
    ]
    p_exe = dict(zip(models, (0.7, 0.8, 0.9)))
    sections = summarize(records, "math", p_exe_by_model=p_exe)
    values = _values(sections)
    assert values["fit"] is None
    assert {row["acc_plus_plan"] for row in values["models"].values()} == {0.4}
    assert len({row["exe_acc"] for row in values["models"].values()}) == 3
    (tmp_path / "fit.json").write_text("{}")  # a stale fit is removed
    emit_report(records, "math", sections, tmp_path)
    assert "## Fit" not in (tmp_path / "report.md").read_text()
    assert not (tmp_path / "fit.json").exists()


def test_step_distribution_shape_for_probe_summary(tmp_path):
    dist = StepDistribution({2: 0.5, 3: 0.5})
    assert sum(dist.mass.values()) == pytest.approx(1.0)
