"""The traced benchmark run (`bench/tracing.py`) wraps package entry points by
their names. This runs the benchmark's math commands under its tracer, so a
renamed entry point, or counts that stop reconciling with the inputs, fail
here and not only in a traced benchmark run."""

from __future__ import annotations

import sys
from pathlib import Path

from planeval.runner import cli_dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_math_commands_reconcile_with_the_benchmark_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
    monkeypatch.syspath_prepend(str(BENCH))
    import gen_inputs
    from tracing import Tracer, layer_metrics

    inputs = gen_inputs.write_math(tmp_path, 3)
    tracer = Tracer()
    tracer.install()
    try:
        codes = [cli_dispatch(argv) for argv in inputs.commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(inputs.commands)
    metrics, _ = layer_metrics(tracer)
    assert metrics["planflow.jobs"] == inputs.jobs
    assert metrics["gateway.unique_digests"] == inputs.digests
    assert metrics["gateway.duplicate_calls"] == 0
    assert metrics["arith.probes_graded"] == len(inputs.models) * inputs.probes
    assert metrics["sftgen.records"] == inputs.sft_records
