"""Smoke test of the benchmark on a tiny scene (6 m room, 2 queries per Point).

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json: an untraced and a traced run
pass the correctness gate and print every named metric with its declared
unit; end-to-end values are finite and non-zero; a repeated untraced run
gives the same recall and results digest.  Also checks that the benchmark
fails, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits non-zero on failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int, seed: int = 1) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    *_, context, result = proc.stdout.strip().splitlines()
    return json.loads(context)["context"], json.loads(result)


def check_run(workload: str, trace: int) -> tuple[dict, dict]:
    context, result = result_lines(run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, context["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        set(result["metrics"]) ^ {m["name"] for m in declared}
    )
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m
        if not trace:
            assert got["value"] != 0, m["name"]
    return context, result


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        context, result = check_run(name, 0)
        again, repeat = result_lines(run(ROOT, name, 0))
        assert again["results_sha256"] == context["results_sha256"], name
        for key in ("recall_0.25m_2deg", "recall_1m_10deg", "registered_rate", "db_bytes"):
            assert repeat["metrics"][key] == result["metrics"][key], (name, key)
        check_run(name, 1)
        print(f"ok {name}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
