"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (``--smoke``), each in a fresh process,
with tracing off and on, and checks that the last stdout line is a correct
result naming every metric of BENCHMARK.json with its unit, and that the
summary line carries the correctness figures.  Then copies BENCHMARK.json and
the benchmark's files into a directory without the package sources and checks
that the benchmark fails there without printing a result.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180
SUMMARY_KEYS = {"jobs", "failed_ratio", "reports_changed", "oracle_max_err", "wall_s", "job_p50_s", "reference_s"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def check_workload(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    summary_line, result_line = proc.stdout.strip().splitlines()[-2:]
    summary, result = json.loads(summary_line), json.loads(result_line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not a correct run: {proc.stderr.strip()[-300:]}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(wanted.items())}")
    missing = SUMMARY_KEYS - set(summary)
    if summary.get("jobs", 0) >= 100:
        missing |= {"job_p90_s"} - set(summary)
    if missing:
        problems.append(f"{where}: summary lacks {sorted(missing)}")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "expected.json", bare / "perfbench")
    try:
        proc = run(bare, "--workload", "catalog-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without package sources the benchmark still printed a result"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_workload(bench, workload, trace)
    problems += check_bare_directory()
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
