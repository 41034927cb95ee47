"""Run configuration, manifests, report emission, and the command-line
interface."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, sftgen
from .arith import PROBE_PROMPT, measure_p_exe
from .corpora import (
    EmptyInput,
    StepDistribution,
    extract_probes,
    load_gsm8k,
    load_toolbench,
    step_distribution,
)
from .gateway import Gateway, GatewayError, HttpTransport, MockTransport, ModelSpec
from .jsonio import atomic_open, read_jsonl, write_json, write_jsonl
from .planflow import (
    MatrixRun,
    Plan,
    expand_matrix,
    generate_plans,
    run_condition_matrix,
    template_hashes,
)
from .scoring import (
    MATH_STEP_BUCKETS,
    TOOL_STEP_BUCKETS,
    BucketTable,
    Condition,
    EvalRecord,
    FitResult,
    bucket_by_steps,
    exe_acc,
    fit_power_and_linear,
    paired_significance,
    reason_score,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """One experiment: model roster, corpus, condition matrix, run knobs.

    Relative paths in the file resolve against the config's directory.
    """

    task: str
    corpus: Path
    models: tuple[ModelSpec, ...]
    planners: tuple[str, ...] = ()
    conditions: tuple[str, ...] = ("direct_cot",)
    cache_dir: Path = Path("runs/cache")
    output_dir: Path = Path("runs/out")
    concurrency: int = 8
    seed: int = 0
    teacher_model: str | None = None
    sft_mode: str = "all"
    raw_bytes: bytes = field(default=b"", repr=False, compare=False)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            raw = path.read_bytes()
            data = json.loads(raw)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        base = path.parent

        def respath(value: str) -> Path:
            p = Path(value)
            return p if p.is_absolute() else base / p

        try:
            models = tuple(ModelSpec(**m) for m in data["models"])
            cfg = cls(
                task=data.get("task", "math"),
                corpus=respath(data["corpus"]),
                models=models,
                planners=tuple(data.get("planners", ())),
                conditions=tuple(data.get("conditions", ("direct_cot",))),
                cache_dir=respath(data.get("cache_dir", "runs/cache")),
                output_dir=respath(data.get("output_dir", "runs/out")),
                concurrency=int(data.get("concurrency", 8)),
                seed=int(data.get("seed", 0)),
                teacher_model=data.get("teacher_model"),
                sft_mode=data.get("sft_mode", "all"),
                raw_bytes=raw,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.task not in ("math", "tools"):
            raise ConfigError(f"unknown task {self.task!r}")
        if not self.models:
            raise ConfigError("at least one model required")
        names = {m.name for m in self.models}
        if len(names) != len(self.models):
            raise ConfigError("duplicate model names")
        for p in self.planners:
            if p not in names:
                raise ConfigError(f"planner {p!r} not among declared models")
        for cond in self.conditions:
            try:
                Condition(cond)
            except ValueError:
                raise ConfigError(f"unknown condition {cond!r}") from None
        if Condition.CROSS_MODEL_PLAN.value in self.conditions and not self.planners:
            raise ConfigError("cross_model_plan requires a planners list")
        if self.teacher_model is not None and self.teacher_model not in names:
            raise ConfigError(f"teacher model {self.teacher_model!r} not declared")
        if not self.corpus.exists():
            raise ConfigError(f"corpus file not found: {self.corpus}")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def planner_specs(self) -> tuple[ModelSpec, ...]:
        by_name = {m.name: m for m in self.models}
        return tuple(by_name[p] for p in self.planners)

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_bytes).hexdigest()

    def resolved_matrix(self) -> list[tuple[str, str, str | None]]:
        """Explicit (condition, solver, planner) tuples this config will run."""
        return [
            (cond.value, solver.name, None if planner is None else planner.name)
            for cond, solver, planner in expand_matrix(
                self.conditions, self.models, self.planner_specs
            )
        ]


@dataclass(frozen=True)
class RunManifest:
    """Provenance snapshot written before the first model call."""

    config_hash: str
    template_hashes: Mapping[str, str]
    corpus_hash: str
    probe_prompt: str
    seed: int
    harness_version: str
    created_at: float
    planned: Mapping[str, int]

    def fingerprint(self) -> str:
        basis = json.dumps(
            {
                "config": self.config_hash,
                "templates": dict(self.template_hashes),
                "corpus": self.corpus_hash,
            },
            sort_keys=True,
        )
        return hashlib.sha256(basis.encode()).hexdigest()

    def write(self, path: Path) -> None:
        payload = {
            "config_hash": self.config_hash,
            "template_hashes": dict(self.template_hashes),
            "corpus_hash": self.corpus_hash,
            "fingerprint": self.fingerprint(),
            "probe_prompt": self.probe_prompt,
            "seed": self.seed,
            "harness_version": self.harness_version,
            "created_at": self.created_at,
            "planned": dict(self.planned),
        }
        write_json(path, payload)


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_manifest(config: RunConfig, item_count: int) -> RunManifest:
    matrix = config.resolved_matrix()
    return RunManifest(
        config_hash=config.config_hash(),
        template_hashes=template_hashes(),
        corpus_hash=_file_hash(config.corpus),
        probe_prompt=PROBE_PROMPT,
        seed=config.seed,
        harness_version=__version__,
        created_at=time.time(),
        planned={"items": item_count, "jobs": item_count * len(matrix)},
    )


# --- record persistence ---------------------------------------------------


def save_records(records: Sequence[EvalRecord], path: Path) -> None:
    write_jsonl(path, map(asdict, records))


def load_records(path: Path) -> list[EvalRecord]:
    return [
        EvalRecord(
            item_id=obj["item_id"],
            condition=Condition(obj["condition"]),
            score=obj["score"],
            step_count=obj["step_count"],
            solver_model=obj["solver_model"],
            planner_model=obj.get("planner_model"),
            response_text=obj.get("response_text", ""),
            plan_text=obj.get("plan_text"),
            flags=tuple(obj.get("flags", ())),
        )
        for _, obj in read_jsonl(path)
    ]


# --- summary and report ----------------------------------------------------


@dataclass(frozen=True)
class ModelRow:
    model: str
    p_exe: float | None = None
    exe_acc: float | None = None
    acc: float | None = None
    reason: float | None = None
    acc_plan: float | None = None


@dataclass(frozen=True)
class Summary:
    task: str
    model_rows: tuple[ModelRow, ...]
    condition_means: Mapping[tuple[str, str], tuple[float, int]]
    buckets: Mapping[tuple[str, str], BucketTable]
    p_values: Mapping[str, float]
    fit: FitResult | None
    warnings: tuple[str, ...]


def summarize(
    records: Sequence[EvalRecord],
    task: str,
    p_exe_by_model: Mapping[str, float] | None = None,
    dist: StepDistribution | None = None,
    seed: int = 0,
) -> Summary:
    """Aggregate per-item records into the tables the reports print."""
    p_exe_by_model = dict(p_exe_by_model or {})
    edges = MATH_STEP_BUCKETS if task == "math" else TOOL_STEP_BUCKETS

    by_pair: dict[tuple[str, str], list[EvalRecord]] = {}
    for r in records:
        by_pair.setdefault((r.solver_model, r.condition.value), []).append(r)

    condition_means = {
        pair: (sum(r.score for r in rs) / len(rs), len(rs)) for pair, rs in by_pair.items()
    }
    buckets = {pair: bucket_by_steps(rs, edges) for pair, rs in by_pair.items()}

    models = sorted({r.solver_model for r in records} | set(p_exe_by_model))
    rows = []
    for model in models:
        acc = condition_means.get((model, Condition.DIRECT_COT.value))
        plan_mean = condition_means.get(
            (model, Condition.CROSS_MODEL_PLAN.value)
        ) or condition_means.get((model, Condition.PLAN_AUGMENTED.value))
        p_exe = p_exe_by_model.get(model)
        exe = exe_acc(p_exe, dist) if p_exe is not None and dist is not None else None
        reason = (
            reason_score(acc[0], exe) if acc is not None and exe not in (None, 0) else None
        )
        rows.append(
            ModelRow(
                model=model,
                p_exe=p_exe,
                exe_acc=exe,
                acc=acc[0] if acc else None,
                reason=reason,
                acc_plan=plan_mean[0] if plan_mean else None,
            )
        )

    p_values: dict[str, float] = {}
    for model in models:
        base = by_pair.get((model, Condition.DIRECT_COT.value))
        if not base:
            continue
        for cond in (Condition.PLAN_AUGMENTED, Condition.CROSS_MODEL_PLAN):
            guided = by_pair.get((model, cond.value))
            if not guided:
                continue
            common = {r.item_id for r in base} & {r.item_id for r in guided}
            if not common:
                continue
            a = [r for r in base if r.item_id in common]
            b = [r for r in guided if r.item_id in common]
            p_values[f"{cond.value}_vs_direct/{model}"] = paired_significance(
                a, b, seed=seed
            )

    warnings = []
    direct_acc = {
        m: condition_means[(m, Condition.DIRECT_COT.value)][0]
        for m in models
        if (m, Condition.DIRECT_COT.value) in condition_means
    }
    for r in records:
        if r.condition is Condition.CROSS_MODEL_PLAN and r.planner_model:
            s, p = direct_acc.get(r.solver_model), direct_acc.get(r.planner_model)
            if s is not None and p is not None and s >= p:
                msg = (
                    f"cross_model_plan: solver {r.solver_model} direct accuracy is not "
                    f"below planner {r.planner_model}; guidance expected only for weaker solvers"
                )
                if msg not in warnings:
                    warnings.append(msg)

    fit = None
    fit_points = [
        (row.exe_acc, row.acc_plan)
        for row in rows
        if row.exe_acc and row.acc_plan and row.exe_acc > 0 and row.acc_plan > 0
    ]
    if len(fit_points) >= 3:
        fit = fit_power_and_linear(fit_points)

    return Summary(
        task=task,
        model_rows=tuple(rows),
        condition_means=condition_means,
        buckets=buckets,
        p_values=p_values,
        fit=fit,
        warnings=tuple(warnings),
    )


def _pct(value: float | None, decimals: int = 1) -> str:
    if value is None:
        return "–"
    return f"{value * 100:.{decimals}f}"


def _std_row(rows: Sequence[ModelRow]) -> dict[str, str]:
    cols = {}
    for name in ("p_exe", "exe_acc", "acc", "reason", "acc_plan"):
        values = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        if len(values) >= 2:
            cols[name] = f"{float(np.std(values)) * 100:.2f}"
        else:
            cols[name] = "–"
    return cols


def emit_report(
    records: Sequence[EvalRecord], summary: Summary, output_dir: str | Path
) -> list[Path]:
    """Write report.md, report.csv, buckets.csv, summary.json, and fit.json
    (when a fit was computed). Percentages print at one decimal."""
    out = Path(output_dir)
    lines = ["# Evaluation report", ""]
    if summary.model_rows:
        lines += [
            "## Models",
            "",
            "| model | p_exe | exe_acc | acc | reason_score | acc_plus_plan |",
            "|---|---|---|---|---|---|",
        ]
        for row in summary.model_rows:
            lines.append(
                f"| {row.model} | {_pct(row.p_exe)} | {_pct(row.exe_acc)} | "
                f"{_pct(row.acc)} | {_pct(row.reason)} | {_pct(row.acc_plan)} |"
            )
        if len(summary.model_rows) >= 2:
            std = _std_row(summary.model_rows)
            lines.append(
                f"| Std. | {std['p_exe']} | {std['exe_acc']} | {std['acc']} | "
                f"{std['reason']} | {std['acc_plan']} |"
            )
        lines.append("")

    lines += ["## Conditions", "", "| model | condition | mean | items |", "|---|---|---|---|"]
    for (model, cond), (mean, count) in sorted(summary.condition_means.items()):
        lines.append(f"| {model} | {cond} | {_pct(mean)} | {count} |")
    lines.append("")

    lines += [
        "## Step buckets",
        "",
        "| model | condition | bucket | mean | count |",
        "|---|---|---|---|---|",
    ]
    for (model, cond), table in sorted(summary.buckets.items()):
        for b in table.buckets:
            lines.append(f"| {model} | {cond} | {b.label} | {_pct(b.mean)} | {b.count} |")
        if table.unbucketed_count:
            lines.append(f"| {model} | {cond} | out-of-range | – | {table.unbucketed_count} |")
    lines.append("")

    if summary.fit is not None:
        f = summary.fit
        lines += [
            "## Fit",
            "",
            f"- power: y = {f.c:.6g} * x^{f.a:.6g} (sse {f.sse_power:.6g}, r2 {f.r2_power:.4f})",
            f"- linear: y = {f.b0:.6g} + {f.b1:.6g} * x (sse {f.sse_linear:.6g}, r2 {f.r2_linear:.4f})",
            f"- power fit closer: {str(f.sse_power < f.sse_linear).lower()}",
            "",
        ]

    if summary.p_values:
        lines += ["## Significance", "", "| comparison | p |", "|---|---|"]
        for name, p in sorted(summary.p_values.items()):
            lines.append(f"| {name} | {p:.4g} |")
        lines.append("")

    if summary.warnings:
        lines += ["## Warnings", ""]
        lines += [f"- {w}" for w in summary.warnings]
        lines.append("")

    report_md = out / "report.md"
    with atomic_open(report_md) as fh:
        fh.write("\n".join(lines))

    report_csv = out / "report.csv"
    with atomic_open(report_csv) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["item_id", "condition", "score", "step_count", "solver_model", "planner_model"]
        )
        for r in records:
            writer.writerow(
                [r.item_id, r.condition.value, r.score, r.step_count, r.solver_model,
                 r.planner_model or ""]
            )

    buckets_csv = out / "buckets.csv"
    with atomic_open(buckets_csv) as fh:
        writer = csv.writer(fh)
        writer.writerow(["solver_model", "condition", "bucket", "mean", "count"])
        for (model, cond), table in sorted(summary.buckets.items()):
            for b in table.buckets:
                writer.writerow(
                    [model, cond, b.label, "" if b.mean is None else b.mean, b.count]
                )

    payload = {
        "task": summary.task,
        "models": {
            row.model: {
                "p_exe": row.p_exe,
                "exe_acc": row.exe_acc,
                "acc": row.acc,
                "reason_score": row.reason,
                "acc_plus_plan": row.acc_plan,
            }
            for row in summary.model_rows
        },
        "conditions": {
            f"{model}/{cond}": {"mean": mean, "items": count}
            for (model, cond), (mean, count) in sorted(summary.condition_means.items())
        },
        "buckets": {
            f"{model}/{cond}": {
                "buckets": [
                    {"label": b.label, "mean": b.mean, "count": b.count} for b in t.buckets
                ],
                "out_of_range": t.unbucketed_count,
            }
            for (model, cond), t in sorted(summary.buckets.items())
        },
        "p_values": dict(sorted(summary.p_values.items())),
        "fit": summary.fit.to_dict() if summary.fit else None,
        "warnings": list(summary.warnings),
    }
    written = [report_md, report_csv, buckets_csv, write_json(out / "summary.json", payload)]
    if summary.fit is not None:
        written.append(write_json(out / "fit.json", summary.fit.to_dict()))
    return written


# --- CLI --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="planeval")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="run configuration file (JSON)")
    common.add_argument("--mock", type=Path, help="offline mock transcript (JSON Lines)")
    common.add_argument("--out", type=Path, help="output directory override")
    common.add_argument("--seed", type=int, help="seed override for resampling")
    common.add_argument("--resume", action="store_true",
                        help="reuse existing records.jsonl instead of re-running the matrix")

    sub.add_parser("validate", parents=[common])
    p = sub.add_parser("probe", parents=[common])
    p.add_argument("--limit", type=int, help="probe only the first N expressions")
    sub.add_parser("eval-math", parents=[common])
    sub.add_parser("eval-tools", parents=[common])
    sub.add_parser("plan", parents=[common])
    p = sub.add_parser("fit", parents=[common])
    p.add_argument("--points", type=Path, required=True, help="CSV of x,y points")
    p = sub.add_parser("build-sft", parents=[common])
    p.add_argument("--mode", choices=("all", "plan_only", "answer_only"))
    p.add_argument("--plans", type=Path, help="precomputed plans.jsonl")
    p = sub.add_parser("report", parents=[common])
    p.add_argument("--records", type=Path, help="records.jsonl to summarize")
    p.add_argument("--task", choices=("math", "tools"), default="math")
    return parser


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return RunConfig.load(args.config)


def _gateway(config: RunConfig, args) -> Gateway:
    transport = MockTransport.load(args.mock) if args.mock else HttpTransport()
    return Gateway(
        cache_dir=config.cache_dir, transport=transport, max_in_flight=config.concurrency
    )


def _out_dir(config: RunConfig, args) -> Path:
    return Path(args.out) if args.out else config.output_dir


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand. Exit codes: 0 success, 1 graded
    with failures, 2 configuration or usage error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        handler = {
            "validate": _cmd_validate,
            "probe": _cmd_probe,
            "eval-math": lambda a: _cmd_eval(a, "math"),
            "eval-tools": lambda a: _cmd_eval(a, "tools"),
            "plan": _cmd_plan,
            "fit": _cmd_fit,
            "build-sft": _cmd_build_sft,
            "report": _cmd_report,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv: Sequence[str] | None = None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


def _cmd_validate(args) -> int:
    config = _require_config(args)
    matrix = config.resolved_matrix()
    print(f"config ok: task={config.task} models={len(config.models)} "
          f"conditions={list(config.conditions)}")
    for cond, solver, planner in matrix:
        planner_part = f" planner={planner}" if planner else ""
        print(f"  {cond}: solver={solver}{planner_part}")
    return EXIT_OK


def _load_corpus(config: RunConfig):
    if config.task == "math":
        return load_gsm8k(config.corpus)
    return load_toolbench(config.corpus).tasks


def _cmd_probe(args) -> int:
    config = _require_config(args)
    if config.task != "math":
        raise ConfigError("probe requires a math corpus")
    out = _out_dir(config, args)
    problems = load_gsm8k(config.corpus)
    build_manifest(config, len(problems)).write(out / "manifest.json")
    extraction = extract_probes(problems)
    probes = extraction.probes[: args.limit] if args.limit else extraction.probes
    if not probes:
        raise ConfigError("no usable probes in corpus")
    try:
        dist = step_distribution(problems)
    except EmptyInput:
        dist = None
    gateway = _gateway(config, args)
    per_model: dict[str, dict] = {}
    ungraded_total = 0
    for model in config.models:
        run = measure_p_exe(
            gateway,
            model,
            probes,
            out_path=out / f"probes_{model.name}.jsonl",
            concurrency=config.concurrency,
        )
        ungraded_total += len(run.ungraded)
        per_model[model.name] = {
            "p_exe": run.p_exe if run.results else None,
            "graded": len(run.results),
            "ungraded": len(run.ungraded),
        }
    payload = {
        "models": per_model,
        "probe_count": len(probes),
        "skipped_expressions": extraction.skipped_count,
        "step_distribution": {str(n): p for n, p in dist.mass.items()} if dist else None,
    }
    write_json(out / "probe_summary.json", payload)
    for name, row in sorted(per_model.items()):
        print(f"{name}: p_exe={row['p_exe']} graded={row['graded']} ungraded={row['ungraded']}")
    return EXIT_PARTIAL if ungraded_total else EXIT_OK


def _read_probe_summary(
    out: Path, math_corpus=None
) -> tuple[dict[str, float], StepDistribution | None]:
    """p_exe per model and the step distribution that `probe` wrote to
    `out`. Without a stored distribution, `math_corpus` supplies one."""
    p_exe: dict[str, float] = {}
    dist = None
    path = out / "probe_summary.json"
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        p_exe = {
            name: row["p_exe"]
            for name, row in data.get("models", {}).items()
            if row.get("p_exe") is not None
        }
        if data.get("step_distribution"):
            dist = StepDistribution({int(k): v for k, v in data["step_distribution"].items()})
    if dist is None and math_corpus is not None:
        try:
            dist = step_distribution(math_corpus)
        except EmptyInput:
            pass
    return p_exe, dist


def _check_resumable(manifest: RunManifest, path: Path) -> None:
    """Refuse to reuse records that a different config, corpus or template
    set produced, before the manifest is overwritten."""
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = None
    if not isinstance(previous, dict) or previous.get("fingerprint") != manifest.fingerprint():
        raise ConfigError(
            f"--resume: {path} does not match this config, corpus and templates; "
            "rerun without --resume or use another --out"
        )


def _cmd_eval(args, task: str) -> int:
    config = _require_config(args)
    if config.task != task:
        raise ConfigError(f"config task is {config.task!r}, expected {task!r}")
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    manifest = build_manifest(config, len(corpus))
    records_path = out / "records.jsonl"
    resume = args.resume and records_path.exists()
    if resume:
        _check_resumable(manifest, out / "manifest.json")
    manifest.write(out / "manifest.json")

    failures = ()
    if resume:
        records: Sequence[EvalRecord] = load_records(records_path)
    else:
        gateway = _gateway(config, args)
        run: MatrixRun = run_condition_matrix(
            gateway,
            config.models,
            config.planner_specs,
            corpus,
            config.conditions,
            concurrency=config.concurrency,
        )
        records = run.records
        failures = run.failures
        save_records(records, records_path)
        if failures:
            write_jsonl(out / "failures.jsonl", map(asdict, failures))

    p_exe_map, dist = _read_probe_summary(out, corpus if task == "math" else None)
    seed = args.seed if args.seed is not None else config.seed
    summary = summarize(records, task, p_exe_by_model=p_exe_map, dist=dist, seed=seed)
    emit_report(records, summary, out)
    print(f"{len(records)} records, {len(failures)} failures -> {out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _report_plan_failures(results: Mapping, corpus) -> int:
    """Print one stderr line per failed Round1 call; return the count."""
    failed = 0
    for (planner, pos), plan in results.items():
        if isinstance(plan, GatewayError):
            failed += 1
            print(f"plan failed for {corpus[pos].id} ({planner.name}): {plan}", file=sys.stderr)
    return failed


def _cmd_plan(args) -> int:
    config = _require_config(args)
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    build_manifest(config, len(corpus)).write(out / "manifest.json")
    planners = config.planner_specs or config.models
    results = generate_plans(_gateway(config, args), planners, corpus, config.concurrency)
    write_jsonl(out / "plans.jsonl", (asdict(p) for p in results.values() if isinstance(p, Plan)))
    return EXIT_PARTIAL if _report_plan_failures(results, corpus) else EXIT_OK


def _cmd_fit(args) -> int:
    points = []
    try:
        with open(args.points, encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or len(row) < 2:
                    continue
                try:
                    points.append((float(row[0]), float(row[1])))
                except ValueError:
                    continue  # header row
    except OSError as exc:
        raise ConfigError(f"cannot read points file: {exc}") from exc
    if len(points) < 3:
        raise ConfigError(f"need at least 3 points, got {len(points)}")
    fit = fit_power_and_linear(points)
    print(f"power:  y = {fit.c:.6g} * x^{fit.a:.6g}   sse={fit.sse_power:.6g} r2={fit.r2_power:.4f}")
    print(f"linear: y = {fit.b0:.6g} + {fit.b1:.6g}x   sse={fit.sse_linear:.6g} r2={fit.r2_linear:.4f}")
    print(f"power fit closer: {str(fit.sse_power < fit.sse_linear).lower()}")
    if args.out:
        write_json(Path(args.out) / "fit.json", fit.to_dict())
    return EXIT_OK


def _load_plans_file(path: Path) -> dict[str, Plan]:
    return {
        obj["item_id"]: Plan(
            item_id=obj["item_id"],
            generator_model=obj["generator_model"],
            text=obj["text"],
            lint_flags=tuple(obj.get("lint_flags", ())),
        )
        for _, obj in read_jsonl(path)
    }


def _cmd_build_sft(args) -> int:
    config = _require_config(args)
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    build_manifest(config, len(corpus)).write(out / "manifest.json")
    mode = args.mode or config.sft_mode
    teacher = config.teacher_model
    plans = {}
    if mode in ("all", "plan_only"):
        if args.plans:
            plans = _load_plans_file(args.plans)
            if teacher is None and plans:
                teacher = next(iter(plans.values())).generator_model
        else:
            if teacher is None:
                raise ConfigError("build-sft needs teacher_model in config or --plans")
            spec = next(m for m in config.models if m.name == teacher)
            results = generate_plans(_gateway(config, args), [spec], corpus, config.concurrency)
            if _report_plan_failures(results, corpus):
                return EXIT_PARTIAL
            plans = {corpus[pos].id: plan for (_, pos), plan in results.items()}
    try:
        corpus_path, meta_path = sftgen.write_sft_outputs(
            corpus, plans, mode=mode, out_dir=out, teacher_model=teacher or ""
        )
    except (sftgen.MissingPlan, sftgen.AnswerLeak) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"wrote {corpus_path} and {meta_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.records is None and args.config is None:
        raise ConfigError("report needs --records or --config")
    config = None if args.records is not None else _require_config(args)
    if config is None:
        records_path = Path(args.records)
        out = Path(args.out) if args.out else records_path.parent
        task, seed = args.task, 0
    else:
        out = _out_dir(config, args)
        records_path = out / "records.jsonl"
        task, seed = config.task, config.seed
    if not records_path.exists():
        raise ConfigError(f"records file not found: {records_path}")
    records = load_records(records_path)
    math_corpus = _load_corpus(config) if config is not None and task == "math" else None
    p_exe_map, dist = _read_probe_summary(records_path.parent, math_corpus)
    seed = args.seed if args.seed is not None else seed
    summary = summarize(records, task, p_exe_by_model=p_exe_map, dist=dist, seed=seed)
    emit_report(records, summary, out)
    print(f"report for {len(records)} records -> {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
