"""`emit_report` on every section, each built from hand-set values, against
the exact bytes of all five files it writes."""

from __future__ import annotations

from functools import partial

from planeval.runner import (
    buckets_section,
    conditions_section,
    emit_report,
    fit_section,
    models_section,
    significance_section,
    warnings_section,
)
from planeval.scoring import BucketStat, BucketTable, Condition, EvalRecord, FitResult

SECTIONS = (
    partial(models_section, [
        ("big", 0.9, 0.729, 2 / 3, (2 / 3) / 0.729, 0.75),
        ("small", 0.6, None, 1 / 3, None, 0.5),
    ]),
    partial(conditions_section, {
        ("small", "direct_cot"): (1 / 3, 3),
        ("big", "direct_cot"): (2 / 3, 3),
        ("small", "cross_model_plan@big"): (0.5, 2),
    }),
    partial(buckets_section, {
        ("small", "cross_model_plan@big"): BucketTable(
            buckets=(BucketStat("2", 1.0, 1), BucketStat("3", None, 0), BucketStat(">=4", 0.0, 1)),
            unbucketed_count=1,
        ),
        ("big", "direct_cot"): BucketTable(
            buckets=(BucketStat("2", 2 / 3, 3), BucketStat("3", None, 0), BucketStat(">=4", None, 0)),
            unbucketed_count=0,
        ),
    }),
    partial(fit_section, FitResult(c=0.8, a=1.25, b0=0.1, b1=0.7, sse_power=0.0012345678,
                                   sse_linear=0.002, r2_power=0.98765, r2_linear=0.9)),
    partial(significance_section, {
        "plan_augmented_vs_direct/big": 1.0, "cross_model_plan@big_vs_direct/small": 0.123456789,
    }),
    partial(warnings_section,
            ["cross_model_plan: solver small direct accuracy is not below planner big"]),
)
RECORDS = [
    EvalRecord(item_id="i1", condition=Condition.DIRECT_COT, score=1.0, step_count=2, solver_model="big"),
    EvalRecord(item_id="i1", condition=Condition.CROSS_MODEL_PLAN, score=0.5, step_count=1,
               solver_model="small", planner_model="big"),
]

GOLDEN = {
    "report.md": """\
# Evaluation report

## Models

| model | p_exe | exe_acc | acc | reason_score | acc_plus_plan |
|---|---|---|---|---|---|
| big | 90.0 | 72.9 | 66.7 | 91.4 | 75.0 |
| small | 60.0 | – | 33.3 | – | 50.0 |
| Std. | 15.00 | – | 16.67 | – | 12.50 |

## Conditions

| model | condition | mean | items |
|---|---|---|---|
| big | direct_cot | 66.7 | 3 |
| small | cross_model_plan@big | 50.0 | 2 |
| small | direct_cot | 33.3 | 3 |

## Step buckets

| model | condition | bucket | mean | count |
|---|---|---|---|---|
| big | direct_cot | 2 | 66.7 | 3 |
| big | direct_cot | 3 | – | 0 |
| big | direct_cot | >=4 | – | 0 |
| small | cross_model_plan@big | 2 | 100.0 | 1 |
| small | cross_model_plan@big | 3 | – | 0 |
| small | cross_model_plan@big | >=4 | 0.0 | 1 |
| small | cross_model_plan@big | out-of-range | – | 1 |

## Fit

- power: y = 0.8 * x^1.25 (sse 0.00123457, r2 0.9877)
- linear: y = 0.1 + 0.7 * x (sse 0.002, r2 0.9000)
- power fit closer: true

## Significance

| comparison | p |
|---|---|
| cross_model_plan@big_vs_direct/small | 0.1235 |
| plan_augmented_vs_direct/big | 1 |

## Warnings

- cross_model_plan: solver small direct accuracy is not below planner big
""",
    "report.csv": (
    "item_id,condition,score,step_count,solver_model,planner_model\r\n"
    "i1,direct_cot,1.0,2,big,\r\n"
    "i1,cross_model_plan,0.5,1,small,big\r\n"
),
    "buckets.csv": (
    "solver_model,condition,bucket,mean,count\r\n"
    "big,direct_cot,2,0.6666666666666666,3\r\n"
    "big,direct_cot,3,,0\r\n"
    "big,direct_cot,>=4,,0\r\n"
    "small,cross_model_plan@big,2,1.0,1\r\n"
    "small,cross_model_plan@big,3,,0\r\n"
    "small,cross_model_plan@big,>=4,0.0,1\r\n"
),
    "summary.json": """\
{
  "buckets": {
    "big/direct_cot": {
      "buckets": [
        {
          "count": 3,
          "label": "2",
          "mean": 0.6666666666666666
        },
        {
          "count": 0,
          "label": "3",
          "mean": null
        },
        {
          "count": 0,
          "label": ">=4",
          "mean": null
        }
      ],
      "out_of_range": 0
    },
    "small/cross_model_plan@big": {
      "buckets": [
        {
          "count": 1,
          "label": "2",
          "mean": 1.0
        },
        {
          "count": 0,
          "label": "3",
          "mean": null
        },
        {
          "count": 1,
          "label": ">=4",
          "mean": 0.0
        }
      ],
      "out_of_range": 1
    }
  },
  "conditions": {
    "big/direct_cot": {
      "items": 3,
      "mean": 0.6666666666666666
    },
    "small/cross_model_plan@big": {
      "items": 2,
      "mean": 0.5
    },
    "small/direct_cot": {
      "items": 3,
      "mean": 0.3333333333333333
    }
  },
  "fit": {
    "linear": {
      "b0": 0.1,
      "b1": 0.7
    },
    "power": {
      "a": 1.25,
      "c": 0.8
    },
    "r2_linear": 0.9,
    "r2_power": 0.98765,
    "sse_linear": 0.002,
    "sse_power": 0.0012345678
  },
  "models": {
    "big": {
      "acc": 0.6666666666666666,
      "acc_plus_plan": 0.75,
      "exe_acc": 0.729,
      "p_exe": 0.9,
      "reason_score": 0.9144947416552355
    },
    "small": {
      "acc": 0.3333333333333333,
      "acc_plus_plan": 0.5,
      "exe_acc": null,
      "p_exe": 0.6,
      "reason_score": null
    }
  },
  "p_values": {
    "cross_model_plan@big_vs_direct/small": 0.123456789,
    "plan_augmented_vs_direct/big": 1.0
  },
  "task": "math",
  "warnings": [
    "cross_model_plan: solver small direct accuracy is not below planner big"
  ]
}
""",
    "fit.json": """\
{
  "linear": {
    "b0": 0.1,
    "b1": 0.7
  },
  "power": {
    "a": 1.25,
    "c": 0.8
  },
  "r2_linear": 0.9,
  "r2_power": 0.98765,
  "sse_linear": 0.002,
  "sse_power": 0.0012345678
}
""",
}


def test_emit_report_writes_every_section_byte_for_byte(tmp_path):
    written = emit_report(RECORDS, "math", SECTIONS, tmp_path)
    assert [p.name for p in written] == [
        "report.md", "summary.json", "report.csv", "buckets.csv", "fit.json"
    ]
    for name, text in GOLDEN.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
