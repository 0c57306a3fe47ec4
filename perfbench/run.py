"""Run one workload of the padicdiff benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory, nowhere else.  Every job goes through the public entry
point ``padicdiff.cli.main(argv)`` in this one process, one after another
(a closed loop with one client), with ``PADICDIFF_THREADS`` cleared so that
every job runs single-threaded.

A run repeats the seed's pass of jobs while the next pass still fits in
``--seconds``.  Before each pass it sets up afresh: import the package and
parse and validate every module definition the workload uses (``setup_s`` is
the median).  Each pass is timed between two readings of a fixed stdlib-only
reference loop, and pass and job times are reported in ``ref`` units, as
multiples of the reference loop's time at that moment: on a shared host,
neighbouring load slows both alike.  Reports are checked after each pass:
exit code and sha256 against ``expected.json``, plus the catalog oracles.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics.  The line before it is a summary with the job count,
``failed_ratio``, ``reports_changed``, ``oracle_max_err`` and, for runs of at
least 100 jobs, ``job_p90_s``.  Report digests and trace spans are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

import workloads
from tracer import PRIVATE_COUNTS, Tracer, median_metrics


def import_padicdiff():
    """Import padicdiff afresh from ROOT/src and return its ``cli`` module."""
    src = ROOT / "src"
    if not (src / "padicdiff" / "__init__.py").is_file():
        raise SystemExit(f"padicdiff sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "padicdiff" or m.startswith("padicdiff.")]:
        del sys.modules[name]
    cli = importlib.import_module("padicdiff.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"padicdiff was imported from {cli.__file__}, not {src}")
    return cli


def set_up(sources) -> tuple[float, object]:
    """Time one import of the package plus parsing every module definition."""
    t0 = time.perf_counter()
    cli = import_padicdiff()
    pkg = sys.modules["padicdiff"]
    for source in sources:
        source.build(pkg)
    return time.perf_counter() - t0, cli


def reference_seconds() -> float:
    """Time one run of a fixed stdlib-only loop: big-integer products, dict
    updates and Fraction sums, the kinds of work padicdiff does.  It shares
    no code with padicdiff, so a change to the package cannot move it."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    big = 3**400
    for i in range(80000):
        acc[i % 31] = acc.get(i % 31, 0) + big * (i + 1)
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i, i + 1)
    return time.perf_counter() - t0


def config_path(job: workloads.Job) -> str | None:
    if not isinstance(job.source, workloads.Module):
        return None
    text = job.source.config_text()
    path = OUT / "configs" / (hashlib.sha256(text.encode()).hexdigest()[:20] + ".ini")
    if not path.is_file():  # named by its content, so an existing file is current
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(path)


def run_job(main, argv: list[str], tracer: Tracer | None = None):
    """Run one CLI job; returns (exit code or None if it raised, stdout,
    error text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a job that raises is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return code, out.getvalue(), error or err.getvalue(), seconds


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _expected_lines(job, pkg) -> list[tuple[Fraction, Fraction]]:
    entry = job.source.entry(pkg)
    return entry.expected_segments(pkg.Interval(*job.source.log_interval))


def _polygon_gaps(polygon: dict, lines) -> list[tuple[float, float]]:
    got = [(Fraction(s["slope"]), Fraction(s["intercept"])) for s in polygon["segments"]]
    if [s for s, _ in got] != [s for s, _ in lines]:
        return [(math.inf, 0.0)]
    gaps = [(abs(float(c - e)), workloads.TOL_INTERCEPT) for (_, c), (_, e) in zip(got, lines)]
    for seg, (s1, c1), (s2, c2) in zip(polygon["segments"], lines, lines[1:]):
        expected_break = (c1 - c2) / (s2 - s1)
        gaps.append((abs(float(Fraction(seg["hi"]) - expected_break)), workloads.TOL_BREAKPOINT))
    return gaps


def oracle_gaps(job, report: str, pkg) -> list[tuple[float, float]]:
    """(gap in log_p units, tolerance) for every closed-form check of a report."""
    if job.oracle is None:
        return []
    data = json.loads(report)
    if job.oracle == "frobenius":
        return [(data["max_residual"], workloads.TOL_RELATION)]
    lines = _expected_lines(job, pkg)
    if job.oracle == "radius":
        gaps = []
        for point in data["points"]:
            rho = Fraction(point["rho"])
            expected = min(s * rho + c for s, c in lines)
            gaps.append((abs(float(Fraction(point["log_r"]) - expected)), workloads.TOL_LOG_R))
        return gaps
    return _polygon_gaps(data["polygon"] if job.oracle == "theorem" else data, lines)


class Checker:
    """Checks each job's exit code, report digest and oracle; counts failures.

    ``expected`` maps job keys to recorded exit codes and digests; without it
    any completed job (exit 0 or 2) passes those two checks."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reports_changed = 0
        self.oracle_max_err: float | None = None
        self.digests: dict[str, dict] = {}
        self.messages: list[str] = []
        self._gaps: dict[tuple[str, str], list[tuple[float, float]]] = {}

    def check(self, job, argv, code, report, error, pkg) -> None:
        self.attempted += 1
        problems = []
        digest = hashlib.sha256(report.encode()).hexdigest()
        # argv without the checkout's location, so two checkouts' files diff cleanly
        shown = [arg.replace(f"{ROOT}{os.sep}", "") for arg in argv]
        self.digests[job.key] = {"argv": shown, "exit": code, "sha256": digest}
        if code is None:
            problems.append(f"raised {error}")
        elif self.expected is None:
            if code not in (0, 2):
                problems.append(f"exit {code}: {error.strip()}")
        else:
            want = self.expected.get(job.key)
            if want is None:
                problems.append("no recorded exit code and digest")
            else:
                if code != want["exit"]:
                    problems.append(f"exit {code}, recorded {want['exit']}: {error.strip()}")
                if digest != want["sha256"]:
                    self.reports_changed += 1
                    problems.append("report differs from the recorded digest")
        if code in (0, 2) and job.oracle:
            # passes repeat the same jobs: judge each distinct report once
            gaps = self._gaps.get((job.key, digest))
            if gaps is None:
                try:
                    gaps = oracle_gaps(job, report, pkg)
                except (ValueError, KeyError, TypeError):
                    gaps = [(math.inf, 0.0)]  # unreadable report
                self._gaps[(job.key, digest)] = gaps
            for gap, tol in gaps:
                self.oracle_max_err = max(self.oracle_max_err or 0.0, gap)
                if gap > tol:
                    problems.append(f"{job.oracle} oracle gap {gap:.4g} > {tol}")
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{' '.join(argv)}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run_pass(main, jobs, argvs, tracer=None):
    """Run the jobs back to back; returns (wall seconds, per-job results)."""
    results = []
    t0 = time.perf_counter()
    for job, argv in zip(jobs, argvs):
        if tracer is not None:
            tracer.job += 1
        results.append(run_job(main, argv, tracer))
    return time.perf_counter() - t0, results


def reference() -> float:
    """Host speed right now: the faster of two runs of the reference loop."""
    return min(reference_seconds(), reference_seconds())


def measure(args) -> dict:
    os.environ.pop("PADICDIFF_THREADS", None)
    jobs = workloads.pass_jobs(args.workload, args.seed, args.smoke)
    argvs = [job.argv(config_path(job)) for job in jobs]
    sources = list({job.source: None for job in jobs})
    expected = None
    if not args.smoke:
        expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    checker = Checker(expected)
    tracer = Tracer() if args.trace else None

    # every pass is timed between two readings of the reference loop, so
    # each pass's times can be divided by the host speed of that moment
    setups, refs, walls, job_times, traced, layer_passes = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        gc.collect()  # each pass starts without the previous pass's garbage
        seconds, cli = set_up(sources)  # afresh before every pass
        setups.append(seconds)
        refs.append(reference())
        if tracer is not None and len(walls) > len(traced):
            tracer.install()
            first = tracer.start_pass()
            wall, results = run_pass(cli.main, jobs, argvs, tracer)
            tracer.uninstall()
            tracer.counts["cli.report_bytes"] = sum(len(r[1].encode()) for r in results)
            layers = tracer.pass_metrics(first)
            layers["trace.unattributed_s"] = wall - layers.pop("covered")
            layer_passes.append(layers)
            traced.append(wall)
        else:
            wall, results = run_pass(cli.main, jobs, argvs)
            walls.append(wall)
            job_times.append([r[3] for r in results])
        pkg = sys.modules["padicdiff"]
        for job, argv, (code, report, error, _) in zip(jobs, argvs, results):
            checker.check(job, argv, code, report, error, pkg)
        if tracer is not None and len(traced) < len(walls):
            continue  # every untraced pass gets its traced partner
        if time.perf_counter() + (seconds + wall) * (2 if tracer else 1) > deadline:
            break
    refs.append(reference())

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    digest_file = OUT / f"digests-{stem}.json"
    digest_file.write_text(json.dumps(checker.digests, indent=1, sort_keys=True) + "\n")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "jobs": len(jobs) * len(walls),
        "failed_ratio": checker.failed / checker.attempted,
        "reports_changed": checker.reports_changed,
        "oracle_max_err": checker.oracle_max_err,
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(t for times in job_times for t in times),
        "reference_s": statistics.median(refs),
        "digests": str(digest_file.relative_to(ROOT)),
    }
    if len(jobs) >= 100:
        summary["job_p90_s"] = statistics.quantiles(
            (t for times in job_times for t in times), n=10
        )[-1]

    if tracer is None:
        # the reference around pass k is the mean of the readings before and after it
        speeds = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
        job_p50 = (statistics.median(times) / ref for times, ref in zip(job_times, speeds))
        metrics = {
            "wall_ref": (statistics.median(w / ref for w, ref in zip(walls, speeds)), "ref"),
            "job_p50_ref": (statistics.median(job_p50), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        trace_file = OUT / f"trace-{stem}.jsonl"
        tracer.write(trace_file)
        summary["trace"] = str(trace_file.relative_to(ROOT))
        layers = median_metrics(layer_passes)
        layers["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, walls))
        if tracer.private_absent:
            summary["absent"] = list(PRIVATE_COUNTS)
        units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in layers.items()}
    return {
        "summary": summary,
        "messages": checker.messages,
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no digest check")
    args = parser.parse_args(argv)
    out = measure(args)
    for line in out["messages"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
