"""The benchmark's math inputs (`bench/gen_inputs.py`) through the command
line. The traced benchmark run (`bench/tracing.py`) wraps package entry
points by their names, so its math commands run here under its tracer: a
renamed entry point, or counts that stop reconciling with the inputs, fail
here and not only in a traced benchmark run. Two seeds also pin the bytes of
every report file, with a Fit, Significance rows and five Models rows."""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from planeval.runner import cli_dispatch

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The sha256 of each report file after `probe`, `eval-math` and `report`.
REPORT_FILES = {
    3: {
        "report.md": "9930d4c59195efd55d41832bee8c1e8df5c7d6fc2cfe90cc16b09f775d7ab4cb",
        "summary.json": "9895e6af92e4b23b3268b4fbb5327ab371d86c21def254a9a6e61e328373e4b5",
        "report.csv": "43c51f1785854406f2eb26af0c72530915fd11486067cbeb4625abd893690c87",
        "buckets.csv": "7dc31479bfcd5d9a6066fb42787614cd03e734f23f794890913d3524becbafaa",
        "fit.json": "4e41e0a58c4b955b2edb8229d965da746ee0e3036b9c9fc96abd9458781c064a",
    },
    8: {
        "report.md": "90bdd55657917ab518adf53455c1ae9e469ac3440d82e3ebde31dce6f4031031",
        "summary.json": "eeca33b1132e02302218d15e25c0c464af049a66d91827c892f0fb09a2f6772f",
        "report.csv": "5603137fe8c348ede29f1fc1ccc35c60572610138e5ea77b509ae2ba5022fc9d",
        "buckets.csv": "a65fe2fa9f41c9eb534fa9b05b0c84cc253a8b828ff57dea9ed2f3d4470bcc8f",
        "fit.json": "fc44d2f84a08c0ef46c6287d34a1bbcb19ab4f175b2f06bdb089ee606e74ab66",
    },
}


@pytest.fixture
def gen_inputs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ is only read
    monkeypatch.syspath_prepend(str(BENCH))
    import gen_inputs

    return gen_inputs


def test_traced_math_commands_reconcile_with_the_benchmark_inputs(tmp_path, gen_inputs):
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
    # A corpus read that escapes the `runner.load_gsm8k` wrap reads 0 items and 0 s.
    assert metrics["corpora.items"] == inputs.items
    assert metrics["corpora.load_s"] > 0
    # A call resolved outside `runner`'s namespace escapes its wrap and reads 0.
    for name in ("runner.summarize_s", "runner.emit_report_s", "runner.save_records_s",
                 "scoring.paired_significance_s"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("seed", sorted(REPORT_FILES))
def test_report_files_of_the_benchmark_math_inputs_are_pinned(tmp_path, gen_inputs, seed):
    inputs = gen_inputs.write_math(tmp_path, seed)
    probe, eval_math = inputs.commands[:2]
    report = ["report", "--config", str(inputs.config_path)]
    assert [cli_dispatch(argv) for argv in (probe, eval_math, report)] == [0, 0, 0]
    digests = {
        name: hashlib.sha256((inputs.out_dir / name).read_bytes()).hexdigest()
        for name in REPORT_FILES[seed]
    }
    assert digests == REPORT_FILES[seed]


def test_report_without_a_fit_removes_the_fit_json_of_an_earlier_run(tmp_path, gen_inputs):
    inputs = gen_inputs.write_math(tmp_path, 3)
    probe, eval_math = inputs.commands[:2]
    out = inputs.out_dir
    assert [cli_dispatch(argv) for argv in (probe, eval_math)] == [0, 0]
    assert (out / "fit.json").exists()
    (out / "probe_summary.json").unlink()  # no p_exe, so no exe_acc and no fit
    assert cli_dispatch(["report", "--config", str(inputs.config_path)]) == 0
    assert json.loads((out / "summary.json").read_text())["fit"] is None
    assert "## Fit" not in (out / "report.md").read_text()
    assert not (out / "fit.json").exists()
