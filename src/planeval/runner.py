"""Run configuration, manifests, report emission, and the command-line
interface."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence
from urllib.parse import urlsplit

import numpy as np

from . import __version__, sftgen
from .arith import PROBE_PROMPT, ProbeResult, measure_p_exe
from .corpora import (
    ParseError,
    extract_probes,
    load_gsm8k,
    load_toolbench,
    step_distribution,
)
from .gateway import Gateway, GatewayError, HttpTransport, MockTransport, ModelSpec
from .jsonio import FormatError, atomic_open, read_lines, read_rows, write_json, write_jsonl
from .planflow import (
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
    DegenerateInput,
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
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        known = {f.name for f in fields(cls) if f.name != "raw_bytes"} | {"description"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"config {path}: unknown key {', '.join(map(repr, unknown))}")
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
        for kind, values in (("planner", self.planners), ("condition", self.conditions)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"repeated {kind}: {', '.join(repeated)}")
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
        if self.sft_mode not in sftgen.MODES:
            raise ConfigError(f"unknown sft_mode {self.sft_mode!r}, expected one of {sftgen.MODES}")
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


def build_manifest(config: RunConfig, item_count: int) -> dict:
    """Provenance of the outputs written beside it; `eval-*` and `report` add its `inputs`."""
    return {
        "config_hash": config.config_hash(),
        "template_hashes": template_hashes(),
        "corpus_hash": hashlib.sha256(config.corpus.read_bytes()).hexdigest(),
        "probe_prompt": PROBE_PROMPT,
        "seed": config.seed,
        "harness_version": __version__,
        "created_at": time.time(),
        "planned": {"items": item_count, "jobs": item_count * len(config.resolved_matrix())},
    }


def _manifest_keeping_inputs(config: RunConfig, item_count: int, out: Path) -> dict:
    """`build_manifest`, with the `inputs` of the manifest in `out` it will
    replace: the reports beside that manifest still summarize those inputs."""
    manifest = build_manifest(config, item_count)
    old = _read_json_object(out / "manifest.json")[0]
    if "inputs" in old:
        manifest["inputs"] = old["inputs"]
    return manifest


# --- record persistence ---------------------------------------------------


def save_records(records: Sequence[EvalRecord], path: Path) -> None:
    write_jsonl(path, map(vars, records))


def save_probe_results(results: Sequence[ProbeResult], path: Path) -> None:
    """`expected` and `parsed` as fraction text; `parsed` is null without a number."""
    rows = ({**vars(r), "expected": str(r.expected),
             "parsed": None if r.parsed is None else str(r.parsed)} for r in results)
    write_jsonl(path, rows)


def _record(obj, cells: set) -> EvalRecord:
    r = EvalRecord(
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
    cell = (r.item_id, r.condition.value, r.solver_model, r.planner_model)
    if cell in cells:
        raise ValueError(f"repeated (item, condition, solver, planner) {cell}")
    cells.add(cell)
    return r


def load_records(path: Path) -> list[EvalRecord]:
    """A row that repeats an earlier row's cell and item raises FormatError."""
    cells: set = set()
    return list(read_rows(path, "record", lambda obj: _record(obj, cells)))


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
    seed: int = 0,
) -> Summary:
    """Aggregate per-item records into the tables the reports print.

    Each (solver, condition, planner) cell is one group, keyed (solver, label):
    the condition, plus `@<planner>` where the solver holds that condition
    under several planners. `acc_plan` takes the planner that sorts first."""
    p_exe_by_model = dict(p_exe_by_model or {})
    edges = MATH_STEP_BUCKETS if task == "math" else TOOL_STEP_BUCKETS
    stepped = {r.item_id: r for r in records if r.step_count >= 1}  # the ceiling's items
    dist = step_distribution(stepped.values()) if stepped else None

    cells: dict[tuple[str, str, str | None], list[EvalRecord]] = {}
    for r in records:
        cells.setdefault((r.solver_model, r.condition.value, r.planner_model), []).append(r)
    pairs = [(solver, cond) for solver, cond, _ in cells]
    groups = {
        (solver, cond if pairs.count((solver, cond)) == 1 else f"{cond}@{planner}"): rs
        for (solver, cond, planner), rs in cells.items()
    }

    condition_means = {
        key: (sum(r.score for r in rs) / len(rs), len(rs)) for key, rs in groups.items()
    }
    buckets = {key: bucket_by_steps(rs, edges) for key, rs in groups.items()}

    models = sorted({r.solver_model for r in records} | set(p_exe_by_model))
    rows = []
    for model in models:
        acc = condition_means.get((model, Condition.DIRECT_COT.value))
        plan_mean = next(
            (condition_means[key] for cond in (Condition.CROSS_MODEL_PLAN, Condition.PLAN_AUGMENTED)
             for key, rs in sorted(groups.items()) if key[0] == model and rs[0].condition is cond),
            None,
        )
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
    for (model, label), guided in groups.items():
        base = groups.get((model, Condition.DIRECT_COT.value))
        if base is None or guided[0].condition is Condition.DIRECT_COT:
            continue
        common = {r.item_id for r in base} & {r.item_id for r in guided}
        if not common:
            continue
        a = [r for r in base if r.item_id in common]
        b = [r for r in guided if r.item_id in common]
        p_values[f"{label}_vs_direct/{model}"] = paired_significance(a, b, seed=seed)

    direct_acc = {row.model: row.acc for row in rows if row.acc is not None}
    warnings = []
    for (solver, _), rs in groups.items():
        planner = rs[0].planner_model
        s, p = direct_acc.get(solver), direct_acc.get(planner)
        if rs[0].condition is Condition.CROSS_MODEL_PLAN and None not in (s, p) and s >= p:
            warnings.append(
                f"cross_model_plan: solver {solver} direct accuracy is not "
                f"below planner {planner}; guidance expected only for weaker solvers"
            )

    fit = None
    fit_points = [
        (row.exe_acc, row.acc_plan)
        for row in rows
        if row.exe_acc and row.acc_plan and row.exe_acc > 0 and row.acc_plan > 0
    ]
    if len(fit_points) >= 3 and len({x for x, _ in fit_points}) > 1:
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


@dataclass(frozen=True)
class Table:
    """One report section as raw data: a title, its columns (each name with
    the function that prints the column's values in Markdown) and rows of raw
    values. Markdown ends a `std` table of two or more rows with a Std. row."""

    title: str
    columns: Mapping[str, Callable[[object], str]]
    rows: Sequence[tuple]
    std: bool = False


OUT_OF_RANGE = "out-of-range"


def _pct(value: float) -> str:
    return f"{value * 100:.1f}"


def report_tables(summary: Summary) -> tuple[Table, Table, Table, Table]:
    """The Models, Conditions, Step buckets and Significance tables of
    `summary`. A Models row is a `ModelRow`'s fields in order. A step-bucket
    group with items outside every bucket ends in an out-of-range row that
    has no mean."""
    cell = {"model": str, "condition": str}
    ratios = dict.fromkeys(("p_exe", "exe_acc", "acc", "reason_score", "acc_plus_plan"), _pct)
    buckets = [
        row
        for key, t in sorted(summary.buckets.items())
        for row in [(*key, b.label, b.mean, b.count) for b in t.buckets]
        + [(*key, OUT_OF_RANGE, None, t.unbucketed_count)] * bool(t.unbucketed_count)
    ]
    return (
        Table("Models", {"model": str} | ratios, list(map(astuple, summary.model_rows)), std=True),
        Table(
            "Conditions",
            cell | {"mean": _pct, "items": str},
            [(*key, mean, n) for key, (mean, n) in sorted(summary.condition_means.items())],
        ),
        Table("Step buckets", cell | {"bucket": str, "mean": _pct, "count": str}, buckets),
        Table("Significance", {"comparison": str, "p": "{:.4g}".format},
              sorted(summary.p_values.items())),
    )


def _markdown(table: Table) -> list[str]:
    """`table` as a Markdown section, – for a missing value and `\\|` for a
    `|` in a cell. The Std. row holds each column's population standard
    deviation in percent, – where the column has fewer than two values."""
    header = f"| {' | '.join(table.columns)} |"
    lines = [f"## {table.title}", "", header, "|---" * len(table.columns) + "|"]
    for row in table.rows:
        cells = (
            "–" if v is None else f(v).replace("|", "\\|")
            for f, v in zip(table.columns.values(), row)
        )
        lines.append(f"| {' | '.join(cells)} |")
    if table.std and len(table.rows) >= 2:
        columns = [[v for v in column if v is not None] for column in list(zip(*table.rows))[1:]]
        stds = (f"{float(np.std(vs)) * 100:.2f}" if len(vs) >= 2 else "–" for vs in columns)
        lines.append(f"| Std. | {' | '.join(stds)} |")
    return lines + [""]


def _keyed(table: Table, keys: int) -> dict:
    """`table` as a JSON object: each row keyed by its first `keys` cells
    joined with "/", its value the object of its other cells by column name,
    or that cell itself when there is one."""
    names = list(table.columns)[keys:]
    return {
        "/".join(row[:keys]): row[keys] if len(names) == 1 else dict(zip(names, row[keys:]))
        for row in table.rows
    }


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """`header` and `rows` as CSV; a None cell is written empty."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(
    records: Sequence[EvalRecord], summary: Summary, output_dir: str | Path
) -> list[Path]:
    """Write report.md, report.csv, buckets.csv, summary.json, and fit.json
    (when a fit was computed). Percentages print at one decimal."""
    out = Path(output_dir)
    models, conditions, buckets, significance = report_tables(summary)
    lines = ["# Evaluation report", ""]
    if models.rows:
        lines += _markdown(models)
    lines += _markdown(conditions) + _markdown(buckets)
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
    if significance.rows:
        lines += _markdown(significance)
    if summary.warnings:
        lines += ["## Warnings", ""] + [f"- {w}" for w in summary.warnings] + [""]
    report_md = out / "report.md"
    with atomic_open(report_md) as fh:
        fh.write("\n".join(lines))

    report_csv = _write_csv(
        out / "report.csv",
        ("item_id", "condition", "score", "step_count", "solver_model", "planner_model"),
        ((r.item_id, r.condition.value, r.score, r.step_count, r.solver_model, r.planner_model)
         for r in records),
    )
    buckets_csv = _write_csv(
        out / "buckets.csv",
        ["solver_model", *list(buckets.columns)[1:]],
        (row for row in buckets.rows if row[2] != OUT_OF_RANGE),
    )
    payload = {
        "task": summary.task,
        "models": _keyed(models, 1),
        "conditions": _keyed(conditions, 2),
        "buckets": {
            f"{model}/{cond}": {
                "buckets": list(map(vars, t.buckets)), "out_of_range": t.unbucketed_count
            }
            for (model, cond), t in summary.buckets.items()
        },
        "p_values": _keyed(significance, 1),
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

    sub.add_parser("validate", parents=[common])
    p = sub.add_parser("probe", parents=[common])
    p.add_argument("--limit", type=int, help="probe only the first N expressions")
    sub.add_parser("eval-math", parents=[common])
    sub.add_parser("eval-tools", parents=[common])
    sub.add_parser("plan", parents=[common])
    p = sub.add_parser("fit", parents=[common])
    p.add_argument("--points", type=Path, required=True, help="CSV of x,y points")
    sub.add_parser("build-sft", parents=[common])
    sub.add_parser("report", parents=[common])
    return parser


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return RunConfig.load(args.config)


def _gateway(config: RunConfig, args) -> Gateway:
    if args.mock:
        try:
            transport = MockTransport.load(args.mock)
        except OSError as exc:
            raise ConfigError(f"cannot read mock transcript: {exc}") from exc
    else:
        for model in config.models:
            try:
                parts = urlsplit(model.endpoint_url)
                valid = parts.scheme in ("http", "https") and bool(parts.hostname)
                parts.port  # raises ValueError for a non-numeric or out-of-range port
            except ValueError:
                valid = False
            if not valid:
                raise ConfigError(
                    f"model {model.name!r}: endpoint_url {model.endpoint_url!r} "
                    "is not an http(s)://host URL"
                )
        transport = HttpTransport()
    return Gateway(
        cache_dir=config.cache_dir, transport=transport, max_in_flight=config.concurrency
    )


def _out_dir(config: RunConfig, args) -> Path:
    return Path(args.out) if args.out else config.output_dir


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand. Exit codes: 0 success, 1 graded
    with failures, 2 configuration, usage or input-file error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
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
    except (ConfigError, FormatError, ParseError) as exc:
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


def _probes_path(out: Path, model_name: str) -> Path:
    """The probes file of `model_name` in `out`. `%` and `/` in the name are
    percent-encoded, so the name stays one file name and no two names share
    a file."""
    return out / f"probes_{model_name.replace('%', '%25').replace('/', '%2F')}.jsonl"


def _cmd_probe(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ConfigError("--limit must be >= 1")
    config = _require_config(args)
    if config.task != "math":
        raise ConfigError("probe requires a math corpus")
    out = _out_dir(config, args)
    problems = load_gsm8k(config.corpus)
    extraction = extract_probes(problems)
    probes = extraction.probes[: args.limit]
    if not probes:
        raise ConfigError("no usable probes in corpus")
    gateway = _gateway(config, args)
    manifest = _manifest_keeping_inputs(config, len(problems), out)
    runs = {model.name: measure_p_exe(gateway, model, probes) for model in config.models}
    for name, run in runs.items():
        save_probe_results(run.results, _probes_path(out, name))
    write_json(out / "manifest.json", manifest)
    per_model = {
        name: {"p_exe": run.p_exe if run.results else None,
               "graded": len(run.results), "ungraded": len(run.ungraded)}
        for name, run in runs.items()
    }
    payload = {
        "models": per_model,
        "probe_count": len(probes),
        "skipped_expressions": extraction.skipped_count,
        "corpus_hash": manifest["corpus_hash"],
    }
    write_json(out / "probe_summary.json", payload)
    for name, row in sorted(per_model.items()):
        print(f"{name}: p_exe={row['p_exe']} graded={row['graded']} ungraded={row['ungraded']}")
    return EXIT_PARTIAL if any(run.ungraded for run in runs.values()) else EXIT_OK


def _read_json_object(path: Path) -> tuple[dict, str | None]:
    """The JSON object in `path` and the sha256 of its bytes; ({}, None) without the file."""
    try:
        raw = path.read_bytes()
        data = json.loads(raw)
    except FileNotFoundError:
        return {}, None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path} is not readable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _read_probe_summary(path: Path) -> tuple[dict[str, float], str | None]:
    """The p_exe per model in `probe`'s summary file and the file's sha256."""
    data, digest = _read_json_object(path)
    rows = data.get("models", {})
    if not isinstance(rows, dict) or not all(isinstance(r, dict) for r in rows.values()):
        raise ConfigError(f"{path}: models is not an object of per-model objects")
    p_exe = {name: r["p_exe"] for name, r in rows.items() if r.get("p_exe") is not None}
    for name, p in p_exe.items():
        if type(p) not in (int, float) or not 0 <= p <= 1:
            raise ConfigError(f"{path}: p_exe of {name!r} is {p!r}, not a number in [0, 1]")
    return p_exe, digest


def _summarize_and_emit(
    records: Sequence[EvalRecord], records_path: Path, probe: tuple[dict, str | None],
    manifest: dict, config: RunConfig, out: Path,
) -> None:
    """Summarize, then write `manifest` (seed, probe summary, records used) and the reports."""
    summary = summarize(records, config.task, p_exe_by_model=probe[0], seed=config.seed)
    records_hash = hashlib.sha256(records_path.read_bytes()).hexdigest()
    manifest["seed"] = config.seed
    manifest["inputs"] = {"probe_summary": probe[1], "records": records_hash}
    write_json(out / "manifest.json", manifest)
    emit_report(records, summary, out)


def _cmd_eval(args, task: str) -> int:
    """Run the condition matrix, then write the records, failures, manifest
    and reports. Rerunning is resuming: every answered request replays from
    the cache, so only the unanswered ones reach the transport."""
    config = _require_config(args)
    if config.task != task:
        raise ConfigError(f"config task is {config.task!r}, expected {task!r}")
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    probe = _read_probe_summary(out / "probe_summary.json")  # checked before any model call
    run = run_condition_matrix(
        _gateway(config, args), config.models, config.planner_specs, corpus, config.conditions
    )
    records_path = out / "records.jsonl"
    save_records(run.records, records_path)
    failures_path = out / "failures.jsonl"
    if run.failures:
        write_jsonl(failures_path, map(vars, run.failures))
    else:
        failures_path.unlink(missing_ok=True)
    manifest = build_manifest(config, len(corpus))
    _summarize_and_emit(run.records, records_path, probe, manifest, config, out)
    print(f"{len(run.records)} records, {len(run.failures)} failures -> {out}")
    return EXIT_PARTIAL if run.failures else EXIT_OK


def _report_plan_failures(results: Mapping) -> int:
    """Print one stderr line per failed Round1 call; return the count."""
    failed = 0
    for (planner, item_id), plan in results.items():
        if isinstance(plan, GatewayError):
            failed += 1
            print(f"plan failed for {item_id} ({planner}): {plan}", file=sys.stderr)
    return failed


def _cmd_plan(args) -> int:
    config = _require_config(args)
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    planners = config.planner_specs or config.models
    gateway = _gateway(config, args)
    manifest = _manifest_keeping_inputs(config, len(corpus), out)
    results = generate_plans(gateway, planners, corpus)
    write_json(out / "manifest.json", manifest)
    write_jsonl(out / "plans.jsonl", (vars(p) for p in results.values() if isinstance(p, Plan)))
    return EXIT_PARTIAL if _report_plan_failures(results) else EXIT_OK


def _cmd_fit(args) -> int:
    """Fit x,y rows of a CSV file; a first row that does not parse is its header."""
    path, points = args.points, []
    try:
        reader = csv.reader(line for _, line in read_lines(path))
        rows = (row for row in reader if any(cell.strip() for cell in row))
        for k, row in enumerate(rows):
            try:
                x, y = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                if k == 0:
                    continue
                raise ConfigError(
                    f"{path}: line {reader.line_num}: not an x,y row: {','.join(row)!r}"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
                raise ConfigError(
                    f"{path}: line {reader.line_num}: x and y must be finite and positive, "
                    f"got {row[0]},{row[1]}"
                )
            points.append((x, y))
    except OSError as exc:
        raise ConfigError(f"cannot read points file: {exc}") from exc
    if len(points) < 3:
        raise ConfigError(f"{path}: need at least 3 points, got {len(points)}")
    try:
        fit = fit_power_and_linear(points)
    except DegenerateInput as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    print(f"power:  y = {fit.c:.6g} * x^{fit.a:.6g}   sse={fit.sse_power:.6g} r2={fit.r2_power:.4f}")
    print(f"linear: y = {fit.b0:.6g} + {fit.b1:.6g}x   sse={fit.sse_linear:.6g} r2={fit.r2_linear:.4f}")
    print(f"power fit closer: {str(fit.sse_power < fit.sse_linear).lower()}")
    if args.out:
        write_json(Path(args.out) / "fit.json", fit.to_dict())
    return EXIT_OK


def _cmd_build_sft(args) -> int:
    config = _require_config(args)
    out = _out_dir(config, args)
    corpus = _load_corpus(config)
    teacher = config.teacher_model
    manifest = _manifest_keeping_inputs(config, len(corpus), out)
    plans = {}
    if config.sft_mode in ("all", "plan_only"):
        if teacher is None:
            raise ConfigError("build-sft needs teacher_model in config")
        spec = next(m for m in config.models if m.name == teacher)
        results = generate_plans(_gateway(config, args), [spec], corpus)
        if _report_plan_failures(results):
            return EXIT_PARTIAL
        plans = {item_id: plan for (_, item_id), plan in results.items()}
    try:
        corpus_path, meta_path = sftgen.write_sft_outputs(
            corpus, plans, mode=config.sft_mode, out_dir=out, teacher_model=teacher or ""
        )
    except sftgen.AnswerLeak as exc:
        raise ConfigError(str(exc)) from exc
    write_json(out / "manifest.json", manifest)
    print(f"wrote {corpus_path} and {meta_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    config = _require_config(args)
    out = _out_dir(config, args)
    records_path = out / "records.jsonl"
    if not records_path.exists():
        raise ConfigError(f"records file not found: {records_path}")
    records = load_records(records_path)
    probe = _read_probe_summary(out / "probe_summary.json")
    manifest = _read_json_object(out / "manifest.json")[0]
    _summarize_and_emit(records, records_path, probe, manifest, config, out)
    print(f"report for {len(records)} records -> {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
