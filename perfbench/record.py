"""Record the expected exit code and report sha256 of every pooled job.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each job of each workload's pool once (every job any seed can pick) and
rewrites those workloads' entries in ``perfbench/expected.json``.  It refuses
to record a job that raises or breaks a catalog oracle.  Re-record only when
a change to the reports is intended, and list each changed report with its
reason in the change description.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads


def record(workload: str, main, pkg) -> dict[str, dict]:
    checker = run.Checker(expected=None)
    entries = {}
    for job in workloads.pool(workload):
        argv = job.argv(run.config_path(job))
        code, report, error, _ = run.run_job(main, argv)
        failed = checker.failed
        checker.check(job, argv, code, report, error, pkg)
        if checker.failed != failed:
            raise SystemExit(f"not recorded, {checker.messages[-1]}")
        entries[job.key] = {"exit": code, "sha256": checker.digests[job.key]["sha256"]}
    print(
        f"{workload}: {len(entries)} jobs, oracle_max_err {checker.oracle_max_err}",
        file=sys.stderr,
    )
    return dict(sorted(entries.items()))


def main(argv: list[str]) -> int:
    os.environ.pop("PADICDIFF_THREADS", None)
    names = argv or sorted(workloads.WORKLOADS)
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    _, cli = run.set_up([])
    pkg = sys.modules["padicdiff"]
    for name in names:
        t0 = time.perf_counter()
        expected[name] = record(name, cli.main, pkg)
        print(f"  {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
