"""Spans around the package's public entry points, for the traced run.

Every span is recorded here, never inside the package: `Tracer.install`
replaces each entry point at the attribute where its caller looks it up, and
`uninstall` puts the originals back, so untraced passes run unmodified code.
A span holds its name, start, end, parent span and thread; spans stay in
memory until the run ends. A span opened on a worker thread with nothing
open on that thread takes the innermost span open on the main thread as its
parent, which ties the matrix and probe workers to their phase.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

COMMANDS = ("probe", "eval-math", "build-sft", "eval-tools")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: object  # per-entry-point result summary; "error" when it raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.kept_args: dict[str, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        main = self._main_stack
        parent = stack[-1] if stack else (main[-1] if main else None)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, opened: tuple[int, int | None, float], info: object) -> None:
        end = time.perf_counter()
        self._stack().pop()
        sid, parent, start = opened
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), info))

    @contextmanager
    def span(self, name: str):
        opened = self._open()
        info = None
        try:
            yield
        except BaseException:
            info = "error"
            raise
        finally:
            self._close(name, opened, info)

    def wrap(self, owner, attr: str, name: str, summarize=None, keep_args: bool = False) -> None:
        """Replace `owner.attr` with a function that records a span around
        each call; `summarize(result)` becomes the span's info."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if keep_args:
                tracer.kept_args[name] = (original, args, kwargs)
            opened = tracer._open()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(name, opened, "error")
                raise
            tracer._close(name, opened, summarize(result) if summarize else None)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from planeval import gateway, planflow, runner, sftgen

        w = self.wrap
        w(gateway.Gateway, "complete", "gateway.complete", lambda ex: (ex.cache_hit, ex.digest))
        w(gateway.MockTransport, "send", "gateway.send")
        w(gateway.HttpTransport, "send", "gateway.send")
        w(runner, "load_gsm8k", "corpora.load", len)
        w(runner, "load_toolbench", "corpora.load", lambda r: len(r.tasks))
        w(runner, "extract_probes", "corpora.extract_probes", lambda r: len(r.probes))
        w(runner, "measure_p_exe", "arith.measure_p_exe", lambda r: (len(r.results), len(r.ungraded)))
        w(runner, "run_condition_matrix", "planflow.run_condition_matrix")
        w(runner, "summarize", "runner.summarize", keep_args=True)
        w(runner, "emit_report", "runner.emit_report")
        w(runner, "save_records", "runner.save_records")
        w(runner, "paired_significance", "scoring.paired_significance")
        for attr in ("solve_direct", "generate_plan", "solve_with_plan"):
            w(planflow, attr, f"planflow.{attr}")
        w(planflow, "check_math_answer", "scoring.check_math_answer")
        w(planflow, "tool_sequence_score", "scoring.tool_sequence_score")
        w(sftgen, "build_sft_corpus", "sftgen.build_sft_corpus", len)
        w(sftgen, "write_sft_outputs", "sftgen.write_sft_outputs")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


PERCENTILES = {
    "gateway.hit_ms": (0.5, 0.99),
    "gateway.miss_ms": (0.5, 0.99),
    "gateway.miss_overhead_ms": (0.5,),
    "gateway.send_ms": (0.5, 0.99),
    "scoring.tool_sequence_score_ms": (0.5, 0.99),
    "scoring.check_math_answer_ms": (0.5,),
}


def percentiles(samples: dict[str, list[float]]) -> dict[str, float]:
    """Nearest-rank percentiles of PERCENTILES, named like `gateway.hit_ms_p99`;
    0.0 where a layer took no samples."""
    out = {}
    for name, qs in PERCENTILES.items():
        ordered = sorted(samples.get(name, ()))
        for q in qs:
            key = f"{name}_p{round(q * 100)}"
            out[key] = ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer counts and times of one traced pass, and the latency samples
    (ms) that `percentiles` summarizes once the passes of a run are pooled."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in tracer.spans:
        by_name[sp.name].append(sp)
        if sp.parent is not None:
            children[sp.parent].append(sp)

    def total(name: str) -> float:
        return sum(sp.duration for sp in by_name[name])

    def child_time(sp: Span, name: str) -> float:
        return sum(ch.duration for ch in children[sp.id] if ch.name == name)

    def ms(spans: list[Span]) -> list[float]:
        return [sp.duration * 1000.0 for sp in spans]

    completes = by_name["gateway.complete"]
    sends = by_name["gateway.send"]
    ok = [sp for sp in completes if sp.info != "error"]
    hits = [sp for sp in ok if sp.info[0]]
    misses = [sp for sp in completes if any(ch.name == "gateway.send" for ch in children[sp.id])]
    sent_digests = {sp.info[1] for sp in misses if sp.info != "error"}

    loads = by_name["corpora.load"]
    probe_runs = [sp.info for sp in by_name["arith.measure_p_exe"] if sp.info != "error"]
    job_spans = [
        sp
        for name in ("planflow.solve_direct", "planflow.generate_plan", "planflow.solve_with_plan")
        for sp in by_name[name]
    ]
    jobs = len(by_name["planflow.solve_direct"]) + len(by_name["planflow.solve_with_plan"])
    job_self = sum(sp.duration - child_time(sp, "gateway.complete") for sp in job_spans)
    sft = [sp.info for sp in by_name["sftgen.build_sft_corpus"] if sp.info != "error"]
    samples = {
        "gateway.hit_ms": ms(hits),
        "gateway.miss_ms": ms(misses),
        "gateway.miss_overhead_ms": [
            (sp.duration - child_time(sp, "gateway.send")) * 1000.0 for sp in misses
        ],
        "gateway.send_ms": ms(sends),
        "scoring.tool_sequence_score_ms": ms(by_name["scoring.tool_sequence_score"]),
        "scoring.check_math_answer_ms": ms(by_name["scoring.check_math_answer"]),
    }

    metrics = {
        "corpora.load_s": total("corpora.load"),
        "corpora.extract_probes_s": total("corpora.extract_probes"),
        "corpora.items": loads[-1].info if loads and loads[-1].info != "error" else 0,
        "corpora.probes": sum(sp.info for sp in by_name["corpora.extract_probes"] if sp.info != "error"),
        "arith.measure_p_exe_s": total("arith.measure_p_exe"),
        "arith.probes_graded": sum(r[0] for r in probe_runs),
        "arith.probes_ungraded": sum(r[1] for r in probe_runs),
        "gateway.requests": len(completes),
        "gateway.cache_hits": len(hits),
        "gateway.misses": len(misses),
        "gateway.transport_calls": len(sends),
        "gateway.unique_digests": len({sp.info[1] for sp in ok}),
        "gateway.duplicate_calls": len(misses) - len(sent_digests),
        "gateway.retries": len(sends) - len(misses),
        "gateway.failures": len(completes) - len(ok),
        "planflow.run_condition_matrix_s": total("planflow.run_condition_matrix"),
        "planflow.jobs": jobs,
        "planflow.generate_plan_calls": len(by_name["planflow.generate_plan"]),
        "planflow.self_ms_per_job": job_self * 1000.0 / jobs if jobs else 0.0,
        "scoring.tool_sequence_score_calls": len(by_name["scoring.tool_sequence_score"]),
        "scoring.paired_significance_s": total("scoring.paired_significance"),
        "runner.summarize_s": total("runner.summarize"),
        "runner.emit_report_s": total("runner.emit_report"),
        "runner.save_records_s": total("runner.save_records"),
        "sftgen.write_sft_outputs_s": total("sftgen.write_sft_outputs"),
        "sftgen.build_sft_corpus_s": total("sftgen.build_sft_corpus"),
        "sftgen.records": sum(sft),
    }
    for command in COMMANDS:
        metrics[f"runner.cmd_s.{command}"] = total(f"runner.cmd.{command}")
    return metrics, samples
