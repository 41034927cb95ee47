from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import (
    build_math_corpus,
    build_tool_corpus,
    gold_number,
    math_transcript_entries,
    tool_transcript_entries,
)
import planeval.runner as runner_module
import planeval.sftgen as sftgen_module
from planeval.arith import PROBE_PROMPT
from planeval.corpora import StepDistribution, extract_probes
from planeval.gateway import write_transcript
from planeval.planflow import _plan_prompt
from planeval.runner import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    ModelRow,
    RunConfig,
    Summary,
    build_manifest,
    cli_dispatch,
    emit_report,
    load_records,
    summarize,
)
from planeval.scoring import Condition, EvalRecord

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
    assert len(config.config_hash()) == 64


def test_config_rejects_unknown_condition(tmp_path):
    build_math_corpus(tmp_path / "c.jsonl", count=1)
    path = write_config(tmp_path, tmp_path / "c.jsonl", conditions=["direct_cot", "zigzag"])
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


def test_config_rejects_missing_corpus(tmp_path):
    path = write_config(tmp_path, tmp_path / "absent.jsonl")
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_negative_seed_rejected_before_any_model_call(math_run):
    _, config, transcript, tmp_path = math_run
    argv = ["eval-math", "--mock", str(transcript)]
    assert cli_dispatch(argv + ["--config", str(config), "--seed", "-1"]) == EXIT_CONFIG
    negative = write_config(
        tmp_path, tmp_path / "corpus.jsonl", conditions=["direct_cot", "plan_augmented"], seed=-1
    )
    with pytest.raises(ConfigError):
        RunConfig.load(negative)
    assert cli_dispatch(argv + ["--config", str(negative)]) == EXIT_CONFIG
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
    build_math_corpus(tmp_path / "c.jsonl", count=3)
    config = RunConfig.load(write_config(tmp_path, tmp_path / "c.jsonl"))
    manifest = build_manifest(config, item_count=3)
    manifest.write(tmp_path / "manifest.json")
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["planned"]["items"] == 3
    assert len(data["corpus_hash"]) == 64
    assert set(data["template_hashes"]) == {
        "math_direct", "math_plan", "math_guided", "tool_direct", "tool_plan", "tool_guided",
    }
    assert data["probe_prompt"].startswith("Compute the value")
    assert data["fingerprint"] != data["config_hash"]


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


def test_cli_eval_resume_reuses_records(math_run):
    _, config, transcript, tmp_path = math_run
    argv = ["eval-math", "--config", str(config), "--mock", str(transcript)]
    assert cli_dispatch(argv) == EXIT_OK
    records_before = (tmp_path / "out" / "records.jsonl").read_bytes()
    # resume must not need the transcript at all
    assert cli_dispatch(["eval-math", "--config", str(config), "--resume"]) == EXIT_OK
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == records_before


def test_cli_eval_resume_refuses_changed_corpus(math_run):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out = tmp_path / "out"
    before = {n: (out / n).read_bytes() for n in ("records.jsonl", "manifest.json")}
    build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    assert cli_dispatch(["eval-math", "--config", str(config), "--resume"]) == EXIT_CONFIG
    assert {n: (out / n).read_bytes() for n in before} == before


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
    assert probe_summary["step_distribution"] is not None

    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(full)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    row = summary["models"]["mock-model"]
    assert row["p_exe"] == 1.0
    assert row["exe_acc"] == pytest.approx(1.0)
    assert row["reason_score"] == pytest.approx(row["acc"])


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


def test_cli_plan_writes_plans_file(math_run):
    _, config, transcript, tmp_path = math_run
    assert cli_dispatch(["plan", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    lines = [
        json.loads(l) for l in (tmp_path / "out" / "plans.jsonl").read_text().splitlines()
    ]
    assert len(lines) == 10
    assert all(set(l) == {"item_id", "generator_model", "text", "lint_flags"} for l in lines)


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


def test_cli_fit_rejects_too_few_points(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x,y\n1,1\n2,2\n")
    assert cli_dispatch(["fit", "--points", str(path)]) == EXIT_CONFIG


def test_cli_build_sft_with_mock_teacher(tmp_path):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=6)
    plan_entries = [
        (_plan_prompt(p), f"To solve this question, first we should study crew {p.id}, then total the phases.")
        for p in problems
    ]
    transcript = write_transcript(tmp_path / "t.jsonl", plan_entries)
    config = write_config(
        tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model"
    )
    code = cli_dispatch(
        ["build-sft", "--config", str(config), "--mock", str(transcript), "--mode", "all"]
    )
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
    entries = [(_plan_prompt(p), _teacher_plan(p)) for p in problems[:3]]
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"plan failed for {problems[3].id} (mock-model): ")
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()
    assert not (tmp_path / "out" / "sft_meta.json").exists()


def test_cli_build_sft_plans_file_missing_items_exits_2(tmp_path, capsys):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=4)
    plans = tmp_path / "plans.jsonl"
    plans.write_text(
        "".join(
            json.dumps({"item_id": p.id, "generator_model": "teacher", "text": _teacher_plan(p)})
            + "\n"
            for p in problems[:2]
        )
    )
    config = write_config(tmp_path, tmp_path / "corpus.jsonl")
    code = cli_dispatch(["build-sft", "--config", str(config), "--plans", str(plans)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: no plan for items: {[p.id for p in problems[2:]]}"]
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()


def test_cli_build_sft_answer_leak_exits_2(tmp_path, capsys):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=3)
    leaky = problems[1]
    entries = [(_plan_prompt(p), _teacher_plan(p)) for p in problems if p is not leaky]
    entries.append((_plan_prompt(leaky), f"Add up the phases to reach {gold_number(leaky)}."))
    transcript = write_transcript(tmp_path / "t.jsonl", entries)
    config = write_config(tmp_path, tmp_path / "corpus.jsonl", teacher_model="mock-model")
    code = cli_dispatch(["build-sft", "--config", str(config), "--mock", str(transcript)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: gold answer leaked into plan targets: {[leaky.id]}"]
    assert not (tmp_path / "out" / "sft_corpus.jsonl").exists()


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


def test_cli_report_from_records_flag(math_run, tmp_path):
    _, config, transcript, base = math_run
    assert cli_dispatch(["eval-math", "--config", str(config), "--mock", str(transcript)]) == EXIT_OK
    out2 = tmp_path / "replica"
    code = cli_dispatch(
        ["report", "--records", str(base / "out" / "records.jsonl"), "--out", str(out2)]
    )
    assert code == EXIT_OK
    assert (out2 / "report.md").exists()


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


# --- report formatting ---------------------------------------------------------


def test_report_prints_percent_rows_in_table_style(tmp_path):
    rows = (
        ModelRow(model="tiny", p_exe=0.861, exe_acc=0.595, acc=0.369, reason=0.369 / 0.595,
                 acc_plan=0.440),
    )
    summary = Summary(
        task="math",
        model_rows=rows,
        condition_means={("tiny", "direct_cot"): (0.369, 100)},
        buckets={},
        p_values={},
        fit=None,
        warnings=(),
    )
    emit_report([], summary, tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "| tiny | 86.1 | 59.5 | 36.9 | 62.0 | 44.0 |" in report


def test_report_empty_bucket_prints_dash_and_std_row(tmp_path):
    records = [
        EvalRecord(item_id=f"i{k}", condition=Condition.DIRECT_COT, score=1.0,
                   step_count=2, solver_model="a")
        for k in range(3)
    ]
    summary = summarize(records, "math")
    summary = Summary(
        task="math",
        model_rows=(
            ModelRow(model="a", p_exe=0.9, exe_acc=0.8, acc=1.0, reason=1.25, acc_plan=None),
            ModelRow(model="b", p_exe=0.7, exe_acc=0.5, acc=0.5, reason=1.0, acc_plan=None),
        ),
        condition_means=summary.condition_means,
        buckets=summary.buckets,
        p_values={},
        fit=None,
        warnings=(),
    )
    emit_report(records, summary, tmp_path)
    report = (tmp_path / "report.md").read_text()
    assert "| a | direct_cot | 3 | – | 0 |" in report
    assert "| Std. |" in report
    import numpy as np

    expected_std = f"{np.std([0.9, 0.7]) * 100:.2f}"
    assert expected_std in report


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
    summary = summarize(records, "math")
    assert any("not below planner" in w for w in summary.warnings)


def test_step_distribution_shape_for_probe_summary(tmp_path):
    dist = StepDistribution({2: 0.5, 3: 0.5})
    assert sum(dist.mass.values()) == pytest.approx(1.0)
