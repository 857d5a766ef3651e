"""Smoke test for the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced at ``--size tiny`` and checks that
each metric BENCHMARK.json names is printed with its unit, that the
workload's own stage metrics are measured, that two runs at one seed write
identical artifacts, and that traced spans nest.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STAGE_METRICS = {
    "units": ["units.frames_per_s"],
    "train": [
        "mlm.ex_per_s", "tsdae.ex_per_s", "simcse.ex_per_s", "wavembed.ex_per_s",
        "distill.ex_per_s", "wavembed.dev_loss", "student.dev_spearman",
    ],
    "serve": [
        "index_build.utt_per_s", "evaluate.pairs_per_s", "search_ms.p50", "search_ms.p99",
        "search_batch.qps", "decode.tok_per_s",
    ],
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_and_record(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    record = next(line.split(" ", 1)[1] for line in lines if line.startswith("record "))
    return json.loads(lines[-1]), json.loads((ROOT / record).read_text())


def check_result(result: dict, names: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in names]
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def check_spans(spans: list[dict]) -> None:
    covered = [0.0] * len(spans)
    for s in spans:
        assert s["start"] <= s["end"], s
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)
            assert parent["trace"] == s["trace"], s
            covered[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, covered):
        assert (s["end"] - s["start"]) - c >= -1e-9, f"negative self time in {s}"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    plain, plain_record = result_and_record(run(workload, 0))
    traced, traced_record = result_and_record(run(workload, 1))

    check_result(plain, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    check_result(traced, SPEC["per_layer"])
    for name in STAGE_METRICS[workload]:
        assert traced["metrics"][name]["value"] > 0, name

    assert plain_record["env"]["blas_threads"] >= 1
    first = plain_record["passes"][0]["hashes"]
    assert first, "no artifact hashes recorded"
    for p in traced_record["passes"]:
        assert p["hashes"] == first

    assert traced_record["spans"]
    for path in traced_record["spans"]:
        spans = json.loads((ROOT / path).read_text())
        assert spans
        check_spans(spans)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("units", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
