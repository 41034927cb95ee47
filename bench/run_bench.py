"""Pipeline benchmark: the paper's protocols through `planeval.runner.cli_dispatch`.

    python3 bench/run_bench.py --workload math-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --workload all            # every workload, one after another

Workloads (see BENCHMARK.json for why each exists):
- math-cold:   probe -> eval-math (3 conditions, 4 solvers + 1 planner) ->
               build-sft, mock transport, empty cache at the start of every pass;
- math-replay: the same inputs and commands against a cache filled in set-up;
- tools-http:  eval-tools (3 conditions, 3 solvers + 1 planner), cold cache,
               HttpTransport against the loopback stub in bench/stub_server.py.

A run sets up SETUPS times (median reported as setup_s), then repeats passes
until --seconds have gone by, at least MIN_PASSES times; the figures are
medians over passes. The run config sets concurrency 2, so two worker threads
each send their next request only when the previous one returned: a closed
loop. With --trace 1 traced and untraced passes alternate; the traced ones
give the per-layer metrics of bench/tracing.py and their count
reconciliations. Every pass is checked against the values the generated
inputs imply (bench/gen_inputs.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. An operation is one Gateway.complete request of a pass. A pass fails
as a whole, all of its requests counted as failed, when a command exits
nonzero (a failures.jsonl row or an ungraded probe exits 1) or raises, or an
output check or count reconciliation does not hold. Progress and readable
figures go to stderr. Exits 2 without a result when the package source is not
next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

WORKLOADS = ("math-cold", "math-replay", "tools-http")
SETUPS = 5
MIN_PASSES = 3
CHECKED_FILES = ("report.md", "summary.json", "records.jsonl", "sft/sft_corpus.jsonl")


@dataclass
class PassResult:
    wall_s: float
    requests: int
    transport_calls: int
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] | None = None


class Stub:
    """The loopback chat-completions server, in its own process."""

    def __init__(self, transcript: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_server.py"), str(transcript)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("stub server did not report its port")
        self.base = f"http://127.0.0.1:{line[1]}"
        self.url = f"{self.base}/v1/chat/completions"

    def stats(self, reset: bool = False) -> dict:
        import requests

        resp = requests.get(f"{self.base}/stats" + ("?reset=1" if reset else ""), timeout=10)
        resp.raise_for_status()
        return resp.json()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # the stub exits on end of input
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


@dataclass
class Workspace:
    workload: str
    inputs: object
    runner: object
    transports: list
    stub: Stub | None = None
    fill: PassResult | None = None

    @property
    def cold(self) -> bool:
        return self.workload != "math-replay"


def _fresh_planeval():
    """Import the package anew, so each set-up pays its import."""
    for name in [n for n in sys.modules if n == "planeval" or n.startswith("planeval.")]:
        del sys.modules[name]
    package = importlib.import_module("planeval")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported planeval from {package.__file__}, not from {SRC}")
    return importlib.import_module("planeval.runner")


def _count_transports(runner) -> list:
    """Record every MockTransport the CLI builds, to read its call counter."""
    made: list = []
    base = runner.MockTransport

    class CountingMockTransport(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    runner.MockTransport = CountingMockTransport
    return made


def set_up(workload: str, seed: int, root: Path) -> tuple[Workspace, float]:
    import gen_inputs

    start = time.perf_counter()
    runner = _fresh_planeval()
    if workload == "tools-http":
        inputs = gen_inputs.write_tools(root, seed)
        stub = Stub(inputs.transcript)
        inputs.write_config(stub.url)
    else:
        inputs = gen_inputs.write_math(root, seed)
        stub = None
    ws = Workspace(workload, inputs, runner, _count_transports(runner), stub)
    if workload == "math-replay":
        ws.fill = run_pass(ws, cold=True)
    return ws, time.perf_counter() - start


def run_pass(ws: Workspace, cold: bool, tracer=None) -> PassResult:
    inputs = ws.inputs
    # Earlier passes' files are moved aside and deleted only when the run
    # ends, so no pass shares the disk with the deletion of the one before.
    spent = inputs.root / "spent"
    spent.mkdir(exist_ok=True)
    for path in (inputs.cache_dir, inputs.out_dir) if cold else (inputs.out_dir,):
        if path.exists():
            path.rename(spent / str(len(os.listdir(spent))))
    ws.transports.clear()
    if ws.stub:
        ws.stub.stats(reset=True)
    problems = []
    sink = io.StringIO()
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        for argv in inputs.commands:
            try:
                with redirect_stdout(sink):
                    if tracer:
                        with tracer.span(f"runner.cmd.{argv[0]}"):
                            code = ws.runner.cli_dispatch(argv)
                    else:
                        code = ws.runner.cli_dispatch(argv)
            except Exception:  # a crash is a failed pass, reported with its traceback
                problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
                break
            if code != 0:
                problems.append(f"{argv[0]} exited {code}")
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    if ws.stub:
        stub = ws.stub.stats()
        calls = stub["requests"]
        if cold and stub["digests"] != inputs.digests:
            problems.append(f"stub saw {stub['digests']} distinct requests, inputs imply {inputs.digests}")
    else:
        calls = sum(t.calls for t in ws.transports)
    result = PassResult(wall, inputs.requests, calls, problems=problems)
    check_outputs(ws, result)
    return result


def _count_cache(cache_dir: Path) -> tuple[int, int]:
    """Entries and bytes in the `<cache>/<2 hex>/<digest>.json` layout."""
    files = size = 0
    if not cache_dir.is_dir():
        return files, size
    for sub in os.scandir(cache_dir):
        if sub.is_dir():
            for entry in os.scandir(sub.path):
                if entry.name.endswith(".json"):
                    files += 1
                    size += entry.stat().st_size
    return files, size


def check_outputs(ws: Workspace, result: PassResult) -> None:
    """Compare a pass's outputs with the values its inputs imply."""
    inputs, out, problems = ws.inputs, ws.inputs.out_dir, result.problems
    failures = out / "failures.jsonl"
    if failures.exists():
        rows = sum(1 for line in failures.read_text(encoding="utf-8").splitlines() if line.strip())
        problems.append(f"{rows} rows in failures.jsonl")
    try:
        if inputs.p_exe:
            probe = json.loads((out / "probe_summary.json").read_text(encoding="utf-8"))
            for model, p_exe in inputs.p_exe.items():
                row = probe["models"][model]
                if row["p_exe"] != p_exe or row["graded"] != inputs.probes or row["ungraded"]:
                    problems.append(f"probe {model}: {row}, expected p_exe {p_exe} over {inputs.probes}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        for model, p_exe in inputs.p_exe.items():
            if summary["models"][model]["p_exe"] != p_exe:
                problems.append(f"summary p_exe of {model} is {summary['models'][model]['p_exe']}")
        if set(summary["conditions"]) != set(inputs.conditions):
            problems.append(f"summary conditions {sorted(summary['conditions'])}")
        for key, (mean, items) in inputs.conditions.items():
            got = summary["conditions"].get(key, {})
            if got.get("items") != items or not abs(got.get("mean", -1.0) - mean) <= inputs.mean_tolerance:
                problems.append(f"summary {key}: {got}, expected mean {mean} over {items}")
        with open(out / "records.jsonl", encoding="utf-8") as fh:
            records = sum(1 for line in fh if line.strip())
        if records != inputs.jobs:
            problems.append(f"{records} records, inputs imply {inputs.jobs}")
        if inputs.sft_records:
            meta = json.loads((out / "sft" / "sft_meta.json").read_text(encoding="utf-8"))
            want = {"items": inputs.items, "plan_target": inputs.items, "answer_target": inputs.items}
            if meta["counts"] != want:
                problems.append(f"sft counts {meta['counts']}, expected {want}")
        for name in CHECKED_FILES:
            path = out / name
            if path.exists():
                result.hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"output check could not read the outputs: {exc!r}")


def reconcile(ws: Workspace, result: PassResult) -> None:
    """Counts from a traced pass must agree exactly with each other, with the
    inputs and with the stub. Request and plan-call totals are not pinned to
    the inputs: a change that drops redundant requests keeps these checks."""
    m, inputs = result.layers, ws.inputs
    got = dict(m)
    got["requests - hits - misses"] = m["gateway.requests"] - m["gateway.cache_hits"] - m["gateway.misses"]
    expect = {
        "requests - hits - misses": 0,
        "gateway.unique_digests": inputs.digests,
        "planflow.jobs": inputs.jobs,
        "arith.probes_graded": len(inputs.models) * inputs.probes,
        "sftgen.records": inputs.sft_records,
    }
    if ws.cold:
        expect["gateway.cache_files"] = m["gateway.unique_digests"]
    else:
        expect["gateway.transport_calls"] = 0
        expect["gateway.cache_hits"] = m["gateway.requests"]
    if ws.stub:
        expect["stub.requests"] = m["gateway.transport_calls"]
    for key, want in expect.items():
        if got[key] != want:
            result.problems.append(f"trace: {key} = {got[key]}, expected {want}")


def traced_pass(ws: Workspace) -> tuple[PassResult, list, dict]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    result = run_pass(ws, ws.cold, tracer)
    layers, samples = layer_metrics(tracer)
    files, size = _count_cache(ws.inputs.cache_dir)
    layers["gateway.cache_files"] = files
    layers["gateway.cache_bytes"] = size
    layers["stub.requests"] = result.transport_calls if ws.stub else 0
    layers["runner.summarize_peak_mb"] = 0.0
    if "runner.summarize" in tracer.kept_args:
        original, args, kwargs = tracer.kept_args["runner.summarize"]
        tracemalloc.start()
        try:
            original(*args, **kwargs)
            layers["runner.summarize_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    result.layers = layers
    reconcile(ws, result)
    return result, tracer.spans, samples


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK / workload, ignore_errors=True)
    setups, spaces = [], []
    try:
        for k in range(SETUPS):
            ws, took = set_up(workload, seed, WORK / workload / f"setup{k}")
            setups.append(took)
            if spaces and spaces[-1].stub:
                spaces[-1].stub.stop()
            spaces.append(ws)
        ws = spaces[-1]
        passes: list[PassResult] = [w.fill for w in spaces if w.fill]
        reference = ws.fill.hashes if ws.fill else None
        untraced, traced, spans, samples = [], [], [], {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(untraced) + len(traced) < MIN_PASSES + trace:
            tracing_now = trace and len(traced) < len(untraced)
            if tracing_now:
                result, spans, more = traced_pass(ws)
                for name, values in more.items():
                    samples.setdefault(name, []).extend(values)
            else:
                result = run_pass(ws, ws.cold)
            reference = reference or result.hashes
            if result.hashes != reference:
                changed = sorted(k for k in reference if result.hashes.get(k) != reference[k])
                result.problems.append(f"outputs differ from the first pass: {changed}")
            (traced if tracing_now else untraced).append(result)
            passes.append(result)
            _log(
                f"{workload} pass {len(untraced) + len(traced)}{' traced' if tracing_now else ''}: "
                f"{result.wall_s:.3f} s, {result.transport_calls} transport calls"
                + "".join(f"\n  problem: {p}" for p in result.problems)
            )
        if spans:
            with open(WORK / f"trace-{workload}.jsonl", "w", encoding="utf-8") as fh:
                for sp in spans:
                    fh.write(json.dumps(sp._asdict()) + "\n")
    finally:
        for w in spaces:
            if w.stub:
                w.stub.stop()
        shutil.rmtree(WORK / workload, ignore_errors=True)

    rate = statistics.median(r.requests / r.wall_s for r in untraced)
    fill_calls = ws.fill.transport_calls if ws.fill else 0
    if trace:
        from tracing import percentiles

        names = traced[0].layers
        metrics = {name: statistics.median(r.layers[name] for r in traced) for name in names}
        metrics.update(percentiles(samples))  # pooled over the traced passes
        metrics["trace.overhead_ratio"] = statistics.median(r.requests / r.wall_s for r in traced) / rate
    else:
        metrics = {
            "exchanges_per_s": rate,
            # paid calls per distinct request since the cache was last empty:
            # the pass itself when cold, set-up's fill plus the pass on replay
            "transport_calls_per_digest": statistics.median(
                (fill_calls + r.transport_calls) / ws.inputs.digests for r in untraced
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
    _log(
        f"{workload}: {len(untraced)} untraced and {len(traced)} traced passes of "
        f"{ws.inputs.requests} requests ({ws.inputs.digests} distinct); "
        f"set-ups took {', '.join(f'{t:.3f}' for t in setups)} s"
    )
    return {
        "correct": all(not r.problems for r in passes),
        "attempted": sum(r.requests for r in passes),
        "failed": sum(r.requests for r in passes if r.problems),
        "metrics": metrics,
    }


UNITS_FILE = ROOT / "BENCHMARK.json"


def _with_units(metrics: dict) -> dict:
    units = {}
    if UNITS_FILE.exists():
        spec = json.loads(UNITS_FILE.read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()}


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            _log(f"{workload} exited {proc.returncode}")
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: output check {'ok' if res['correct'] else 'FAILED'}, "
              f"{res['failed']} of {res['attempted']} operations failed")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        # the seed is also the run config's resampling seed, which numpy
        # rejects when negative (see the known gaps in bench/METRICS.md)
        parser.error("--seed must be non-negative")
    if not (SRC / "planeval" / "__init__.py").is_file():
        _log(f"error: package source not found at {SRC}")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # Declared dependencies load once per process, before any timed set-up.
    import numpy  # noqa: F401
    import requests  # noqa: F401

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = _with_units(result["metrics"])
    for name, m in result["metrics"].items():
        _log(f"  {name} = {m['value']:.6g} {m['unit']}")
    _log(f"output check: {'ok' if result['correct'] else 'FAILED'}, "
         f"{result['failed']} of {result['attempted']} operations failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
