"""Measure single-step execution accuracy with isolated arithmetic probes.

Probes are the deduplicated calculator expressions extracted from gold
solutions; each is sent to the model alone, so no reasoning is involved.
Here a scripted mock plays a model that slips on 3 of the probes.

Run: python demos/02_probe_single_step_accuracy.py
"""

import tempfile
from pathlib import Path

from planeval import (
    Gateway,
    MockTransport,
    ModelSpec,
    PROBE_PROMPT,
    extract_probes,
    load_gsm8k,
    measure_p_exe,
    step_distribution,
    exe_acc,
)

SAMPLE = Path(__file__).resolve().parent.parent / "data" / "samples" / "math_sample.jsonl"


def main():
    problems = load_gsm8k(SAMPLE)
    extraction = extract_probes(problems)
    print(f"{len(problems)} items -> {len(extraction.probes)} distinct probes "
          f"({extraction.skipped_count} unparseable)\n")

    flaky = {p.expression for p in extraction.probes[:3]}
    transcript = {
        PROBE_PROMPT.format(expression=p.expression): (
            "hmm, about 999999" if p.expression in flaky else str(p.exact_value)
        )
        for p in extraction.probes
    }

    with tempfile.TemporaryDirectory() as tmp:
        gateway = Gateway(Path(tmp) / "cache", transport=MockTransport(by_prompt=transcript))
        spec = ModelSpec(name="demo-model")
        run = measure_p_exe(gateway, spec, extraction.probes)
    print(f"p_exe = {run.p_exe:.4f} over {len(run.results)} graded probes")
    for r in run.results:
        if not r.correct:
            print(f"  missed: {r.expression} = {r.expected}, model said {r.model_text!r}")
    print()

    dist = step_distribution(problems)
    print("step distribution:", {n: round(p, 3) for n, p in dist.mass.items()})
    print(f"execution ceiling at this p_exe: {exe_acc(run.p_exe, dist):.4f}")


if __name__ == "__main__":
    main()
