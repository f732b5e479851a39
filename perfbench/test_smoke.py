"""Tests of the benchmark itself, on the tiny `smoke` cohort.

    python3 -m pytest perfbench

Each run goes through every stage and every output check, untraced and
traced, in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(trace, section):
    out = run_bench(ROOT, "--workload", "smoke", "--seed", "0", "--seconds", "0",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "paper", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_self_times_add_up_to_the_root_span():
    spans = [
        {"name": "cli.fit", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "blr.fit_normative", "start": 1.0, "end": 7.0, "parent": 0},
        {"name": "blr.optimizer", "start": 2.0, "end": 5.0, "parent": 1},
        {"name": "serialize.dump_json", "start": 8.0, "end": 9.5, "parent": 0},
    ]
    selfs = self_times(spans)
    assert selfs == [2.5, 3.0, 3.0, 1.5]
    assert sum(selfs) == 10.0
