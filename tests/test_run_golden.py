"""The command sequence `report` (no records yet), `probe`, `eval-math`,
`report`, `plan`, `build-sft` on a fixed corpus and transcript, against the
exit codes, the output lines and the sha256 of every file each step leaves
in the output directory. `created_at` is left out of the manifest's hash."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from helpers import build_math_corpus, math_transcript_entries, probe_entries
from planeval.gateway import write_transcript
from planeval.runner import cli_dispatch

MODELS = [
    {"name": name, "endpoint_url": "http://localhost/none", "api_key_env": "", "max_tokens": 256}
    for name in ("solver", "planner")
]
CONFIG = {
    "task": "math",
    "corpus": "corpus.jsonl",
    "models": MODELS,
    "planners": ["planner"],
    "conditions": ["direct_cot", "plan_augmented", "cross_model_plan"],
    "cache_dir": "cache",
    "output_dir": "out",
    "concurrency": 2,
    "seed": 4,
    "teacher_model": "planner",
}

# The sha256 of each output, which holds from the step that first writes it on.
FILES = {
    "buckets.csv": "ab7b4663702960775bb567be8b86aac738404cce9e7d239d7e20abdc3c233d79",
    "failures.jsonl": "e8b1085c57405a71962be92307def663a970604746bc53f7fad0accd3cf1b609",
    "plans.jsonl": "1918cb34bc56c70710e25c393585affc4f473f755cc5ec6d58b150074257c817",
    "probe_summary.json": "6e6de4b3810091470a4833ea2a83709a4512597d26b7f01ed4308eec83b724f8",
    "probes_planner.jsonl": "2eac59a41ff3e58aa88381024466c8ce78410ed47d592161ededc9d18e765288",
    "probes_solver.jsonl": "2eac59a41ff3e58aa88381024466c8ce78410ed47d592161ededc9d18e765288",
    "records.jsonl": "914d2ca82b36392277373c4cd8c421c60370f0a2b15218fac51fbee481284a2b",
    "report.csv": "46edcb3037cc9abfbaab1e2af600bc1668959bba067e445cb58c5f62770f1b7c",
    "report.md": "532f5fd21c047510330b1a9166d86a74a6d7665b6e03ef55e3275203700f536c",
    "sft_corpus.jsonl": "95a87855f7cff8165b76b48cba46d625bdf8c71b51365ab92e5b98a55362d31a",
    "sft_meta.json": "2ad41a1b6ac7706bb2fc437e1fd52f925302b6638acfcaf2b1bf9cd8e7afd0f5",
    "summary.json": "b08ed15a883c8ef24d2a12b13b5957a04f223d3927756bd17f057611dedbc894",
}
PROBED = "0df52be12e28f68cdfbd19dd53711172353ed125bb932bc444d2bf76c41d0fd8"
REPORTED = "4f5112c50f475f58b88e296379a7289423cb64f600fdc3250bd4b883c4b762d9"
# (command, exit code, stdout, stderr, the manifest's sha256, the files it adds)
STEPS = [
    ("report", 2, "", "error: records file not found: <tmp>/out/records.jsonl\n", None, ()),
    ("probe", 1,
     "planner: p_exe=0.6451612903225806 graded=31 ungraded=1\n"
     "solver: p_exe=0.6451612903225806 graded=31 ungraded=1\n",
     "", PROBED, ("probes_planner.jsonl", "probes_solver.jsonl", "probe_summary.json")),
    ("eval-math", 1, "37 records, 3 failures -> <tmp>/out\n", "", REPORTED,
     ("records.jsonl", "failures.jsonl", "report.md", "report.csv", "buckets.csv", "summary.json")),
    ("report", 0, "report for 37 records -> <tmp>/out\n", "", REPORTED, ()),
    ("plan", 0, "", "", REPORTED, ("plans.jsonl",)),
    ("build-sft", 0, "wrote <tmp>/out/sft_corpus.jsonl and <tmp>/out/sft_meta.json\n", "",
     REPORTED, ("sft_corpus.jsonl", "sft_meta.json")),
]


def _digests(out: Path) -> dict[str, str]:
    """The sha256 of each file in `out`; the manifest's without `created_at`."""
    digests = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_command_sequence_outputs_are_pinned(tmp_path, capsys):
    problems = build_math_corpus(tmp_path / "corpus.jsonl", count=8)
    entries = math_transcript_entries(problems, wrong_direct_ids={problems[1].id})
    entries.pop()  # the last item's guided solves stay ungraded
    entries += probe_entries(problems, wrong_every=3)[:-1]  # the last probe stays ungraded
    transcript = write_transcript(tmp_path / "transcript.jsonl", entries)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG, indent=2))
    made: set[str] = set()
    for command, code, stdout, stderr, manifest, adds in STEPS:
        argv = [command, "--config", str(config)]
        if command != "report":
            argv += ["--mock", str(transcript)]
        assert cli_dispatch(argv) == code, command
        captured = capsys.readouterr()
        assert (captured.out.replace(str(tmp_path), "<tmp>"),
                captured.err.replace(str(tmp_path), "<tmp>")) == (stdout, stderr), command
        made |= set(adds)
        expected = {name: FILES[name] for name in made}
        if manifest is not None:
            expected["manifest.json"] = manifest
        assert _digests(tmp_path / "out") == expected, command
