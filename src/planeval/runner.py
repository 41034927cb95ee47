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
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
from .gateway import DEFAULT_MAX_IN_FLIGHT, Gateway, GatewayError, HttpTransport, MockTransport
from .gateway import ModelSpec
from .jsonio import FormatError, atomic_open, check_types, read_lines, read_rows
from .jsonio import write_json, write_jsonl
from .planflow import (
    Plan,
    expand_matrix,
    generate_plans,
    lint_plan,
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


# The config format: each key's JSON types, matched exactly, and its default.
_REQUIRED = object()  # the default of a key that every config must give
_CONFIG_KEYS: dict[str, tuple[tuple[type, ...], object]] = {
    "description": ((str,), ""),
    "task": ((str,), "math"),
    "corpus": ((str,), _REQUIRED),
    "models": ((list,), _REQUIRED),
    "planners": ((list,), []),
    "conditions": ((list,), ["direct_cot"]),
    "cache_dir": ((str,), "runs/cache"),
    "output_dir": ((str,), "runs/out"),
    "concurrency": ((int,), DEFAULT_MAX_IN_FLIGHT),
    "seed": ((int,), 0),
    "teacher_model": ((str, type(None)), None),
    "sft_mode": ((str,), "all"),
}


@dataclass(frozen=True)
class RunConfig:
    """One experiment: model roster, corpus path, condition matrix, run knobs,
    and the sha256 of the config file. `load` reads it from a file in the
    format of `_CONFIG_KEYS`, and reads no other file; relative paths resolve
    against the file's directory.
    """

    task: str
    corpus: Path
    models: tuple[ModelSpec, ...]
    planners: tuple[str, ...]
    conditions: tuple[str, ...]
    cache_dir: Path
    output_dir: Path
    concurrency: int
    seed: int
    teacher_model: str | None
    sft_mode: str
    config_hash: str

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        data, digest = _read_json_object(path)
        if digest is None:
            raise ConfigError(f"config file not found: {path}")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"config {path}: unknown key {', '.join(map(repr, unknown))}")
        try:
            v = {key: data[key] if default is _REQUIRED else data.get(key, default)
                 for key, (_, default) in _CONFIG_KEYS.items()}
            check_types(v, {key: types for key, (types, _) in _CONFIG_KEYS.items()})
            for key in ("planners", "conditions"):
                if not all(isinstance(entry, str) for entry in v[key]):
                    raise TypeError(f"{key} is {v[key]!r}, not a list of str")
                v[key] = tuple(v[key])
            v["models"] = tuple(ModelSpec(**m) for m in v["models"])
            del v["description"]
            for key in ("corpus", "cache_dir", "output_dir"):
                v[key] = path.parent / v[key]
            cfg = cls(**v, config_hash=digest)
            if cfg.task not in ("math", "tools"):
                raise ValueError(f"unknown task {cfg.task!r}")
            if not cfg.models:
                raise ValueError("at least one model required")
            names = {m.name for m in cfg.models}
            if len(names) != len(cfg.models):
                raise ValueError("duplicate model names")
            for kind, values in (("planner", cfg.planners), ("condition", cfg.conditions)):
                repeated = sorted({x for x in values if values.count(x) > 1})
                if repeated:
                    raise ValueError(f"repeated {kind}: {', '.join(repeated)}")
            for p in cfg.planners:
                if p not in names:
                    raise ValueError(f"planner {p!r} not among declared models")
            for cond in cfg.conditions:
                if cond not in {c.value for c in Condition}:
                    raise ValueError(f"unknown condition {cond!r}")
            if Condition.CROSS_MODEL_PLAN.value in cfg.conditions and not cfg.planners:
                raise ValueError("cross_model_plan requires a planners list")
            if cfg.teacher_model is not None and cfg.teacher_model not in names:
                raise ValueError(f"teacher model {cfg.teacher_model!r} not declared")
            if cfg.sft_mode not in sftgen.MODES:
                raise ValueError(
                    f"unknown sft_mode {cfg.sft_mode!r}, expected one of {tuple(sftgen.MODES)}"
                )
            if cfg.concurrency < 1:
                raise ValueError("concurrency must be >= 1")
            if cfg.seed < 0:
                raise ValueError("seed must be >= 0")
        except KeyError as exc:
            raise ConfigError(f"config {path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        return cfg

    @property
    def planner_specs(self) -> tuple[ModelSpec, ...]:
        by_name = {m.name: m for m in self.models}
        return tuple(by_name[p] for p in self.planners)

    def resolved_matrix(self) -> list[tuple[str, str, str | None]]:
        """Explicit (condition, solver, planner) tuples this config will run."""
        return [
            (cond.value, solver.name, None if planner is None else planner.name)
            for cond, solver, planner in expand_matrix(
                self.conditions, self.models, self.planner_specs
            )
        ]


def build_manifest(config: RunConfig, corpus_hash: str, item_count: int) -> dict:
    """Provenance of the outputs a command writes beside it, from the corpus of
    `item_count` items whose bytes have the sha256 `corpus_hash`. Each command
    reads the manifest it finds before any model call and writes it, updated
    with these fields, after all of its other outputs."""
    return {
        "config_hash": config.config_hash,
        "template_hashes": template_hashes(),
        "corpus_hash": corpus_hash,
        "probe_prompt": PROBE_PROMPT,
        "seed": config.seed,
        "harness_version": __version__,
        "created_at": time.time(),
        "planned": {"items": item_count, "jobs": item_count * len(config.resolved_matrix())},
    }


# --- record persistence ---------------------------------------------------


def save_records(records: Sequence[EvalRecord], path: Path) -> None:
    write_jsonl(path, map(vars, records))


def save_probe_results(results: Sequence[ProbeResult], path: Path) -> None:
    """`expected` and `parsed` as fraction text; `parsed` is null without a number."""
    rows = ({**vars(r), "expected": str(r.expected),
             "parsed": None if r.parsed is None else str(r.parsed)} for r in results)
    write_jsonl(path, rows)


# The types of a record row's fields, matched exactly: a boolean is no number.
_RECORD_TYPES = {"item_id": (str,), "condition": (str,), "solver_model": (str,),
                 "planner_model": (str, type(None)), "score": (int, float), "step_count": (int,),
                 "response_text": (str,), "plan_text": (str, type(None)), "flags": (list,)}


def _record(obj, cells: set) -> EvalRecord:
    obj = {"planner_model": None, "response_text": "", "plan_text": None, "flags": [], **obj}
    check_types(obj, _RECORD_TYPES)
    if any(type(flag) is not str for flag in obj["flags"]):
        raise TypeError(f"flags is {obj['flags']!r}, not a list of str")
    if obj["step_count"] < 0:
        raise ValueError(f"step_count is {obj['step_count']}, below 0")
    r = EvalRecord(
        item_id=obj["item_id"],
        condition=Condition(obj["condition"]),
        score=obj["score"],
        step_count=obj["step_count"],
        solver_model=obj["solver_model"],
        planner_model=obj["planner_model"],
        response_text=obj["response_text"],
        plan_text=obj["plan_text"],
        flags=tuple(obj["flags"]),
    )
    cell = (r.item_id, r.condition.value, r.solver_model, r.planner_model)
    if cell in cells:
        raise ValueError(f"repeated (item, condition, solver, planner) {cell}")
    cells.add(cell)
    return r


def load_records(path: Path, data: bytes | None = None) -> list[EvalRecord]:
    """The records in the file at `path`, or in `data`, its bytes, when the
    caller has read them. A row that repeats an earlier row's cell and item
    raises FormatError."""
    cells: set = set()
    return list(read_rows(path, "record", lambda obj: _record(obj, cells), data))


# --- summary and report ----------------------------------------------------


@dataclass(frozen=True)
class Section:
    """One part of the reports. `report.md` prints `lines` under `## title`,
    and nothing when there are none. `summary.json` holds `value` at `key`.
    `files` maps each file the section writes besides to its contents: a
    `.csv` file's rows, header first, or a `.json` file's value; None
    removes the file."""

    title: str
    lines: Sequence[str]
    key: str
    value: object
    files: Mapping[str, object] = field(default_factory=dict)


def summarize(
    records: Sequence[EvalRecord],
    task: str,
    p_exe_by_model: Mapping[str, float] | None = None,
    seed: int = 0,
    warnings: Sequence[str] = (),
) -> tuple[Callable[[], Section], ...]:
    """The report sections of per-item records, in report order: Models,
    Conditions, Step buckets, Fit, Significance and Warnings. Each is the
    call that builds it, so the sections render only when written.

    Each (solver, condition, planner) cell is one group, keyed (solver, label):
    the condition, plus `@<planner>` where the solver holds that condition
    under several planners. `acc_plus_plan` takes the planner that sorts first."""
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
    means = {key: (sum(r.score for r in rs) / len(rs), len(rs)) for key, rs in groups.items()}
    direct_acc = {
        solver: mean for (solver, label), (mean, _) in means.items()
        if label == Condition.DIRECT_COT.value
    }

    rows = []
    for model in sorted({r.solver_model for r in records} | set(p_exe_by_model)):
        acc = direct_acc.get(model)
        acc_plan = next(
            (means[key][0] for cond in (Condition.CROSS_MODEL_PLAN, Condition.PLAN_AUGMENTED)
             for key, rs in sorted(groups.items()) if key[0] == model and rs[0].condition is cond),
            None,
        )
        p_exe = p_exe_by_model.get(model)
        exe = exe_acc(p_exe, dist) if p_exe is not None and dist is not None else None
        reason = reason_score(acc, exe) if acc is not None and exe not in (None, 0) else None
        rows.append((model, p_exe, exe, acc, reason, acc_plan))

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

    warnings = list(warnings)
    for (solver, _), rs in groups.items():
        planner = rs[0].planner_model
        s, p = direct_acc.get(solver), direct_acc.get(planner)
        if rs[0].condition is Condition.CROSS_MODEL_PLAN and None not in (s, p) and s >= p:
            warnings.append(
                f"cross_model_plan: solver {solver} direct accuracy is not "
                f"below planner {planner}; guidance expected only for weaker solvers"
            )

    fit_points = [
        (exe, plan) for _, _, exe, _, _, plan in rows if exe and plan and exe > 0 and plan > 0
    ]
    try:
        fit = fit_power_and_linear(fit_points)
    except DegenerateInput:
        fit = None

    return (
        partial(models_section, rows),
        partial(conditions_section, means),
        partial(buckets_section, {key: bucket_by_steps(rs, edges) for key, rs in groups.items()}),
        partial(fit_section, fit),
        partial(significance_section, p_values),
        partial(warnings_section, warnings),
    )


@dataclass(frozen=True)
class Table:
    """A section's rows of raw values and its columns, each name with the
    function that prints the column's values in Markdown. Markdown ends a
    `std` table of two or more rows with a Std. row."""

    columns: Mapping[str, Callable[[object], str]]
    rows: Sequence[tuple]
    std: bool = False


OUT_OF_RANGE = "out-of-range"
_CELL = {"model": str, "condition": str}


def _pct(value: float) -> str:
    return f"{value * 100:.1f}"


def models_section(rows: Sequence[tuple]) -> Section:
    """Rows of (model, p_exe, exe_acc, acc, reason_score, acc_plus_plan), None
    for a missing value; the Markdown table ends with a Std. row."""
    ratios = dict.fromkeys(("p_exe", "exe_acc", "acc", "reason_score", "acc_plus_plan"), _pct)
    table = Table({"model": str} | ratios, rows, std=True)
    return Section("Models", _markdown(table) if rows else (), "models", _keyed(table, 1))


def conditions_section(means: Mapping[tuple[str, str], tuple[float, int]]) -> Section:
    """The mean score and item count of each (solver, label) cell."""
    table = Table(_CELL | {"mean": _pct, "items": str},
                  [(*key, mean, n) for key, (mean, n) in sorted(means.items())])
    return Section("Conditions", _markdown(table), "conditions", _keyed(table, 2))


def buckets_section(tables: Mapping[tuple[str, str], BucketTable]) -> Section:
    """The step buckets of each (solver, label) cell. A cell with items
    outside every bucket ends in an out-of-range row that has no mean and
    that buckets.csv leaves out."""
    rows = [
        row
        for key, t in sorted(tables.items())
        for row in [(*key, b.label, b.mean, b.count) for b in t.buckets]
        + [(*key, OUT_OF_RANGE, None, t.unbucketed_count)] * bool(t.unbucketed_count)
    ]
    table = Table(_CELL | {"bucket": str, "mean": _pct, "count": str}, rows)
    value = {
        "/".join(key): {"buckets": list(map(vars, t.buckets)), "out_of_range": t.unbucketed_count}
        for key, t in tables.items()
    }
    csv_rows = [("solver_model", *list(table.columns)[1:]),
                *(row for row in rows if row[2] != OUT_OF_RANGE)]
    return Section("Step buckets", _markdown(table), "buckets", value, {"buckets.csv": csv_rows})


def fit_section(fit: FitResult | None) -> Section:
    """The power and linear fits of acc_plus_plan on exe_acc. Without a fit
    the section prints nothing and removes fit.json."""
    if fit is None:
        return Section("Fit", (), "fit", None, {"fit.json": None})
    lines = (
        f"- power: y = {fit.c:.6g} * x^{fit.a:.6g} (sse {fit.sse_power:.6g}, r2 {fit.r2_power:.4f})",
        f"- linear: y = {fit.b0:.6g} + {fit.b1:.6g} * x (sse {fit.sse_linear:.6g}, r2 {fit.r2_linear:.4f})",
        f"- power fit closer: {str(fit.sse_power < fit.sse_linear).lower()}",
    )
    return Section("Fit", lines, "fit", fit.to_dict(), {"fit.json": fit.to_dict()})


def significance_section(p_values: Mapping[str, float]) -> Section:
    """The p-value of each named comparison."""
    table = Table({"comparison": str, "p": "{:.4g}".format}, sorted(p_values.items()))
    return Section("Significance", _markdown(table) if p_values else (), "p_values",
                   _keyed(table, 1))


def warnings_section(warnings: Sequence[str]) -> Section:
    return Section("Warnings", [f"- {w}" for w in warnings], "warnings", list(warnings))


def _markdown(table: Table) -> list[str]:
    """`table` as Markdown lines, – for a missing value and `\\|` for a `|`
    in a cell. The Std. row holds each column's population standard
    deviation in percent, – where the column has fewer than two values."""
    lines = [f"| {' | '.join(table.columns)} |", "|---" * len(table.columns) + "|"]
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
    return lines


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
    records: Sequence[EvalRecord], task: str, sections: Sequence[Callable[[], Section]],
    output_dir: str | Path,
) -> list[Path]:
    """Build each section, then write report.md (the lines of each section in
    order), summary.json (`task` and each section's value at its key),
    report.csv (one row per record) and each section's own files."""
    out = Path(output_dir)
    built = [build() for build in sections]
    lines = ["# Evaluation report", ""]
    for s in built:
        if s.lines:
            lines += [f"## {s.title}", "", *s.lines, ""]
    report_md = out / "report.md"
    with atomic_open(report_md) as fh:
        fh.write("\n".join(lines))
    written = [
        report_md,
        write_json(out / "summary.json", {"task": task} | {s.key: s.value for s in built}),
        _write_csv(
            out / "report.csv",
            ("item_id", "condition", "score", "step_count", "solver_model", "planner_model"),
            ((r.item_id, r.condition.value, r.score, r.step_count, r.solver_model,
              r.planner_model) for r in records),
        ),
    ]
    for s in built:
        for name, contents in s.files.items():
            path = out / name
            if contents is None:
                path.unlink(missing_ok=True)
            elif path.suffix == ".csv":
                written.append(_write_csv(path, contents[0], contents[1:]))
            else:
                written.append(write_json(path, contents))
    return written


# --- CLI --------------------------------------------------------------------


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


def _cmd_validate(config: RunConfig) -> int:
    _load_corpus(config)
    print(f"config ok: task={config.task} models={len(config.models)} "
          f"conditions={list(config.conditions)}")
    for cond, solver, planner in config.resolved_matrix():
        planner_part = f" planner={planner}" if planner else ""
        print(f"  {cond}: solver={solver}{planner_part}")
    return EXIT_OK


def _load_corpus(config: RunConfig) -> tuple[Sequence, str]:
    """The items of the config's corpus and the sha256 of the bytes they were
    parsed from: the one read of the corpus file."""
    try:
        data = config.corpus.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"corpus file not found: {config.corpus}") from None
    digest = hashlib.sha256(data).hexdigest()
    if config.task == "math":
        return load_gsm8k(config.corpus, data), digest
    return load_toolbench(config.corpus, data).tasks, digest


def _probes_path(out: Path, model_name: str) -> Path:
    """The probes file of `model_name` in `out`. `%` and `/` in the name are
    percent-encoded, so the name stays one file name and no two names share
    a file."""
    return out / f"probes_{model_name.replace('%', '%25').replace('/', '%2F')}.jsonl"


def _cmd_probe(config: RunConfig, out: Path, args, found: dict) -> tuple[int, dict]:
    if args.limit is not None and args.limit < 1:
        raise ConfigError("--limit must be >= 1")
    problems, corpus_hash = _load_corpus(config)
    extraction = extract_probes(problems)
    probes = extraction.probes[: args.limit]
    if not probes:
        raise ConfigError("no usable probes in corpus")
    gateway = _gateway(config, args)
    runs = {model.name: measure_p_exe(gateway, model, probes) for model in config.models}
    made = build_manifest(config, corpus_hash, len(problems))
    per_model = {
        name: {"p_exe": run.p_exe if run.results else None,
               "graded": len(run.results), "ungraded": len(run.ungraded)}
        for name, run in runs.items()
    }
    payload = {
        "models": per_model,
        "probe_count": len(probes),
        "skipped_expressions": extraction.skipped_count,
        "corpus_hash": corpus_hash,
    }
    for name, run in runs.items():
        save_probe_results(run.results, _probes_path(out, name))
    write_json(out / "probe_summary.json", payload)
    for name, row in sorted(per_model.items()):
        print(f"{name}: p_exe={row['p_exe']} graded={row['graded']} ungraded={row['ungraded']}")
    return EXIT_PARTIAL if any(run.ungraded for run in runs.values()) else EXIT_OK, made


def _read_probe_summary(
    path: Path, graded_on: str | None, config: RunConfig
) -> tuple[dict, str | None, list]:
    """The p_exe of each model of `config` in `probe`'s summary file, the file's
    sha256, and the warnings on the file: one if it names a corpus other than
    `graded_on`, a corpus hash, and one naming the models it holds that the
    config does not list."""
    data, digest = _read_json_object(path)
    rows = data.get("models", {})
    if not isinstance(rows, dict) or not all(isinstance(r, dict) for r in rows.values()):
        raise ConfigError(f"{path}: models is not an object of per-model objects")
    p_exe = {name: r["p_exe"] for name, r in rows.items() if r.get("p_exe") is not None}
    for name, p in p_exe.items():
        if type(p) not in (int, float) or not 0 <= p <= 1:
            raise ConfigError(f"{path}: p_exe of {name!r} is {p!r}, not a number in [0, 1]")
    warnings = []
    probed = data.get("corpus_hash")
    if graded_on is not None and probed not in (None, graded_on):
        warnings.append(f"{path.name} is from corpus {probed}, not the graded corpus "
                        f"{graded_on}; p_exe and exe_acc come from its probes")
    listed = {m.name for m in config.models}
    others = sorted(set(rows) - listed)
    if others:
        warnings.append(f"{path.name} also holds {', '.join(others)}, which the config does "
                        "not list; left out of Models")
    return {name: p for name, p in p_exe.items() if name in listed}, digest, warnings


def _cmd_eval(config: RunConfig, out: Path, args, found: dict) -> tuple[int, dict]:
    """Run and summarize the condition matrix, then write the records, failures
    and reports. Rerunning is resuming: every answered request replays from
    the cache, so only the unanswered ones reach the transport. The manifest's
    `inputs` are the sha256 of the corpus the records were graded on and of
    the probe summary and records the reports summarize."""
    corpus, corpus_hash = _load_corpus(config)
    p_exe, probe_hash, warnings = _read_probe_summary(out / "probe_summary.json", corpus_hash, config)
    run = run_condition_matrix(
        _gateway(config, args), config.models, config.planner_specs, corpus, config.conditions
    )
    sections = summarize(run.records, config.task, p_exe, config.seed, warnings)
    save_records(run.records, out / "records.jsonl")
    failures_path = out / "failures.jsonl"
    if run.failures:
        write_jsonl(failures_path, map(vars, run.failures))
    else:
        failures_path.unlink(missing_ok=True)
    emit_report(run.records, config.task, sections, out)
    inputs = {"corpus": corpus_hash, "probe_summary": probe_hash,
              "records": hashlib.sha256((out / "records.jsonl").read_bytes()).hexdigest()}
    made = build_manifest(config, corpus_hash, len(corpus)) | {"inputs": inputs}
    print(f"{len(run.records)} records, {len(run.failures)} failures -> {out}")
    return EXIT_PARTIAL if run.failures else EXIT_OK, made


def _report_plan_failures(results: Mapping) -> int:
    """Print one stderr line per failed Round1 call; return the count."""
    failed = 0
    for (planner, item_id), plan in results.items():
        if isinstance(plan, GatewayError):
            failed += 1
            print(f"plan failed for {item_id} ({planner}): {plan}", file=sys.stderr)
    return failed


def _cmd_plan(config: RunConfig, out: Path, args, found: dict) -> tuple[int, dict]:
    """Write each Round1 plan to `plans.jsonl` with the `lint_plan` flags of its text."""
    corpus, corpus_hash = _load_corpus(config)
    results = generate_plans(_gateway(config, args), config.planner_specs or config.models, corpus)
    items = {item.id: item for item in corpus}
    rows = ({**vars(p), "lint_flags": lint_plan(p, items[p.item_id])}
            for p in results.values() if isinstance(p, Plan))
    write_jsonl(out / "plans.jsonl", rows)
    code = EXIT_PARTIAL if _report_plan_failures(results) else EXIT_OK
    return code, build_manifest(config, corpus_hash, len(corpus))


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
    try:
        section = fit_section(fit_power_and_linear(points))
    except DegenerateInput as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    print(*section.lines, sep="\n")
    if args.out:
        write_json(args.out / "fit.json", section.value)
    return EXIT_OK


def _cmd_build_sft(config: RunConfig, out: Path, args, found: dict) -> tuple[int, dict | None]:
    corpus, corpus_hash = _load_corpus(config)
    teacher = config.teacher_model
    plans = {}
    if "plan_target" in sftgen.MODES[config.sft_mode]:
        if teacher is None:
            raise ConfigError("build-sft needs teacher_model in config")
        spec = next(m for m in config.models if m.name == teacher)
        results = generate_plans(_gateway(config, args), [spec], corpus)
        if _report_plan_failures(results):
            return EXIT_PARTIAL, None
        plans = {item_id: plan for (_, item_id), plan in results.items()}
    try:
        corpus_path, meta_path = sftgen.write_sft_outputs(
            corpus, plans, mode=config.sft_mode, out_dir=out, teacher_model=teacher or ""
        )
    except sftgen.AnswerLeak as exc:
        raise ConfigError(str(exc)) from exc
    print(f"wrote {corpus_path} and {meta_path}")
    return EXIT_OK, build_manifest(config, corpus_hash, len(corpus))


def _cmd_report(config: RunConfig, out: Path, args, found: dict) -> tuple[int, dict]:
    """Summarize the records in the output directory again, with no corpus and
    no model call, and make the seed the bootstrap used and `inputs` as
    `eval-*` does: the corpus hash from the `inputs` of the `found` manifest,
    the records hash from the bytes the records were parsed from."""
    records_path = out / "records.jsonl"
    try:
        data = records_path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"records file not found: {records_path}") from None
    records = load_records(records_path, data)
    inputs = found.get("inputs", {})
    if not isinstance(inputs, dict) or type(inputs.get("corpus")) not in (str, type(None)):
        raise ConfigError(f"{out / 'manifest.json'}: inputs is {inputs!r}, "
                          "not an object whose corpus is a string or null")
    graded_on = inputs.get("corpus")
    p_exe, probe_hash, warnings = _read_probe_summary(out / "probe_summary.json", graded_on, config)
    sections = summarize(records, config.task, p_exe, config.seed, warnings)
    emit_report(records, config.task, sections, out)
    inputs = {"corpus": graded_on, "probe_summary": probe_hash,
              "records": hashlib.sha256(data).hexdigest()}
    print(f"report for {len(records)} records -> {out}")
    return EXIT_OK, {"seed": config.seed, "inputs": inputs}


# The argparse options of each flag.
_FLAGS = {
    "--config": {"type": Path, "help": "run configuration file (JSON)"},
    "--mock": {"type": Path, "help": "offline mock transcript (JSON Lines)"},
    "--out": {"type": Path, "help": "output directory override"},
    "--limit": {"type": int, "help": "probe only the first N expressions"},
    "--points": {"type": Path, "required": True, "help": "CSV of x,y points"},
}
_RUN = ("--config", "--mock", "--out")
# Each command: its handler, exactly the flags it reads, and the task its
# config must have (None for either). A handler without --config is called
# with the parsed flags, one with only --config with the loaded config, and
# a run-directory command (--config and --out) as `cli_dispatch` says.
_COMMANDS: dict[str, tuple[Callable, tuple[str, ...], str | None]] = {
    "validate": (_cmd_validate, ("--config",), None),
    "probe": (_cmd_probe, (*_RUN, "--limit"), "math"),
    "eval-math": (_cmd_eval, _RUN, "math"),
    "eval-tools": (_cmd_eval, _RUN, "tools"),
    "plan": (_cmd_plan, _RUN, None),
    "fit": (_cmd_fit, ("--points", "--out"), None),
    "build-sft": (_cmd_build_sft, _RUN, None),
    "report": (_cmd_report, ("--config", "--out"), None),
}


@lru_cache(maxsize=None)
def _parser() -> tuple[argparse.ArgumentParser, Mapping[str, argparse.ArgumentParser]]:
    """The CLI parser and each command's own parser, built once per process."""
    parser = argparse.ArgumentParser(prog="planeval")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    return parser, sub.choices


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one command of `_COMMANDS`. Exit codes: 0 success,
    1 graded with failures, 2 configuration, usage or input-file error (a
    path that cannot be read or written included); a flag the command does
    not take prints that command's usage.

    A run-directory command loads the config, checks its task and reads the
    manifest found in the output directory before its handler runs. The
    handler, given that manifest, does its work, writes its outputs and
    returns its exit code and the manifest fields it made, or None to leave
    the manifest as found. Only then is the found manifest written, updated
    with those fields."""
    parser, commands = _parser()
    try:
        args, extra = parser.parse_known_args(list(argv))
        if extra:
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    handler, flags, task = _COMMANDS[args.command]
    try:
        if "--config" not in flags:
            return handler(args)
        if not args.config:
            raise ConfigError("--config is required for this command")
        config = RunConfig.load(args.config)
        if task not in (None, config.task):
            raise ConfigError(f"{args.command} requires a {task} corpus")
        if "--out" not in flags:
            return handler(config)
        out = args.out or config.output_dir
        found = _read_json_object(out / "manifest.json")[0]
        code, made = handler(config, out, args, found)
        if made is not None:
            write_json(out / "manifest.json", found | made)
        return code
    except (ConfigError, FormatError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv: Sequence[str] | None = None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
