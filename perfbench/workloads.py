"""The benchmark's workloads: which padicdiff CLI jobs each one runs.

A workload is a list of slots.  Each slot holds the alternatives for one job;
a seed picks one alternative per slot, and the picked jobs, in slot order,
form one *pass*.  A run repeats the pass.  The union of all alternatives is
the workload's *pool*: ``record.py`` stores the expected exit code and report
digest of every pooled job, so the byte-identity check covers every seed.

Why these workloads (each stresses a different layer of the package):

* ``deep-rank3``: one ``radius`` job at a single rho on a rank-3 module with
  a non-monomial denominator.  Recursion- and memory-bound: ``extend`` plus
  the first ``log_norms`` call (which builds the valuation profiles), with
  almost no per-rho evaluation.
* ``wide-grid``: ``polygon`` (grid 17) and ``theorem`` (grid 9) on a rank-2
  module.  Norm-evaluation-bound: dozens of ``log_norms`` calls on one
  shallow recursion state.
* ``catalog-sweep``: over a hundred short jobs covering every command on the
  closed-form catalog families and small rank-2/3 modules.  Per-job fixed
  cost (argument parsing, module parsing, JSON output, cyclic vectors), and
  the closed-form oracles.
* ``sparse-pullback``: ``frobenius`` on a rank-2 module whose ramification
  pullback has only every p-th exponent nonzero, so dense-list recursion
  tricks that win on deep-rank3 can lose here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional, Union

# Oracle tolerances pinned by the acceptance criteria (tests/test_acceptance.py):
# 0.05 for log R and intercepts (03, 04), 0.1 for breakpoints (05) and for the
# ramification radius relation (07).
TOL_LOG_R = 0.05
TOL_INTERCEPT = 0.05
TOL_BREAKPOINT = 0.1
TOL_RELATION = 0.1


@dataclass(frozen=True)
class Module:
    """A module definition handed to the CLI as an INI file."""

    p: int
    rows: tuple[tuple[str, ...], ...]
    log_interval: tuple[F, F]

    def config_text(self) -> str:
        matrix = "\n".join("    " + ", ".join(row) for row in self.rows)
        lo, hi = self.log_interval
        return (
            f"[module]\np = {self.p}\nvariable = x\nmatrix =\n{matrix}\n"
            f"log_interval = {lo}, {hi}\n"
        )

    def build(self, pkg):
        """Parse and validate through the public library API."""
        matrix = pkg.RFMatrix.from_strings([list(row) for row in self.rows], "x")
        return pkg.DiffModule(pkg.Prime(self.p), matrix, pkg.Interval(*self.log_interval)).validate()


@dataclass(frozen=True)
class Catalog:
    """A catalog family instance, handed to the CLI with --catalog flags."""

    name: str
    p: int
    log_interval: tuple[F, F]
    alpha: Optional[F] = None
    a: Optional[F] = None

    def argv(self) -> list[str]:
        lo, hi = self.log_interval
        out = ["--catalog", self.name, f"--p={self.p}", f"--log-interval={lo}, {hi}"]
        if self.alpha is not None:
            out.append(f"--alpha={self.alpha}")
        if self.a is not None:
            out.append(f"--a={self.a}")
        return out

    def entry(self, pkg):
        kwargs = {}
        if self.alpha is not None:
            kwargs["alpha"] = self.alpha
        if self.a is not None:
            kwargs["a"] = self.a
        return pkg.catalog_get(self.name, self.p, **kwargs)

    def build(self, pkg):
        return self.entry(pkg).build(pkg.Interval(*self.log_interval))


Source = Union[Module, Catalog]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``padicdiff COMMAND <source> OPTIONS``.

    ``oracle`` names the closed-form check applied to the report, if any:
    ``radius``, ``polygon``, ``theorem`` or ``frobenius``.
    """

    command: str
    source: Source
    options: tuple[str, ...]
    oracle: Optional[str] = None

    def argv(self, config_path: Optional[str]) -> list[str]:
        if isinstance(self.source, Module):
            src = ["--config", config_path]
        else:
            src = self.source.argv()
        return [self.command, *src, *self.options]

    @property
    def key(self) -> str:
        """Stable identity of the job's inputs; paths do not enter it."""
        src = (
            self.source.config_text()
            if isinstance(self.source, Module)
            else self.source.argv()
        )
        blob = json.dumps([self.command, src, list(self.options)])
        return hashlib.sha256(blob.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

RANK3 = (("0", "1", "0"), ("0", "0", "1"), ("1/(1+x)", "x", "2/x"))
WIDE = (("x", "1/(1+2*x^2)"), ("3", "x^-1"))
SPARSE = (("0", "1"), ("1/x", "1+x"))

# small modules for catalog-sweep; poles of the denominators sit outside
# each interval (1+2x^2 at log|x| = 0 for p = 5, x^2-3 at -1/2 for p = 3,
# 1+5x at 1 for p = 5)
SMALL_MODULES = (
    Module(2, (("0", "1"), ("1/x", "0")), (F(-1), F(1))),
    Module(5, WIDE, (F(1, 2), F(2))),
    Module(3, RANK3, (F(1, 2), F(1))),
    Module(7, SPARSE, (F(-1, 2), F(1, 2))),
    Module(3, (("0", "1"), ("1/(x^2-3)", "1/x")), (F(0), F(1))),
    Module(5, (("0", "1", "0"), ("0", "0", "1"), ("1", "1/(1+5*x)", "x")), (F(-1), F(1, 2))),
)

PRIMES = (2, 3, 5, 7, 11)

# full-size depths, and the tiny ones the smoke self-test uses; catalog jobs
# keep their depth there, because the oracles need it
DEPTHS = {
    "deep-rank3": 128,
    "wide-grid": 72,
    "sparse-pullback": 96,
    "catalog": 64,
    "catalog-small": 32,
}
SMOKE_DEPTHS = {**DEPTHS, "deep-rank3": 16, "wide-grid": 16, "sparse-pullback": 16}


def _grid_points(lo: F, hi: F, count: int) -> list[F]:
    step = (hi - lo) / (count + 1)
    return [lo + step * k for k in range(1, count + 1)]


def _vp(x: F, p: int) -> int:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# slots per workload
# ---------------------------------------------------------------------------


def _deep_rank3(depths: dict) -> list[list[Job]]:
    module = Module(3, RANK3, (F(1, 2), F(1)))
    rhos = [F(k, 16) for k in range(9, 16)]
    return [
        [Job("radius", module, (f"--rho={r}", f"--depth={depths['deep-rank3']}")) for r in rhos]
    ]


# interval variants keep the ends away from the pole of 1/(1+2x^2) at 0
WIDE_INTERVALS = ((F(1, 2), F(2)), (F(1, 2), F(15, 8)), (F(5, 8), F(2)), (F(9, 16), F(31, 16)))
SPARSE_INTERVALS = ((F(-1, 2), F(1, 2)), (F(-1, 2), F(3, 8)), (F(-3, 8), F(1, 2)), (F(-7, 16), F(7, 16)))


def _wide_grid(depths: dict) -> list[list[Job]]:
    d = f"--depth={depths['wide-grid']}"
    modules = [Module(5, WIDE, iv) for iv in WIDE_INTERVALS]
    return [
        [Job("polygon", m, ("--grid=17", d)) for m in modules],
        [Job("theorem", m, ("--grid=9", d)) for m in modules],
    ]


def _sparse_pullback(depths: dict) -> list[list[Job]]:
    d = f"--depth={depths['sparse-pullback']}"
    # the CLI default --tol 0.02 makes this job exit 2; the recorded exit
    # code carries that
    return [[Job("frobenius", Module(7, SPARSE, iv), ("--h=1", "--grid=9", d)) for iv in SPARSE_INTERVALS]]


def _alphas(p: int) -> list[F]:
    unit = F(3) if p == 2 else F(2)
    return [F(1), F(p), F(1, p), unit]


def _euler_as(p: int) -> list[F]:
    return [F(1, p), F(p + 1, p), F(1, p * p)]


def _catalog_sweep(depths: dict) -> list[list[Job]]:
    d = f"--depth={depths['catalog']}"
    slots: list[list[Job]] = []

    def slot(jobs):
        slots.append(list(jobs))

    for p in PRIMES:
        log_pi = F(-1, p - 1)
        # exp(alpha): log R = min(rho, level); the first interval straddles
        # the level (two segments), the second lies above it (one slope,
        # non-Robba, so theorem runs its boundedness reports)
        straddle, above = [], []
        for alpha in _alphas(p):
            level = log_pi + _vp(alpha, p)
            straddle.append(Catalog("exp", p, (level - 1, level + 1), alpha=alpha))
            above.append(Catalog("exp", p, (level + F(1, 2), level + 2), alpha=alpha))

        def at_rhos(sources, make):
            return [
                make(src, r)
                for src in sources
                for r in _grid_points(*src.log_interval, 3)
            ]

        slot(at_rhos(straddle, lambda s, r: Job("radius", s, (f"--rho={r}", d), "radius")))
        slot(Job("polygon", s, ("--grid=9", d), "polygon") for s in straddle)
        slot(at_rhos(straddle, lambda s, r: Job("norms", s, (f"--rho={r}", "--depth=32"))))
        slot(at_rhos(straddle, lambda s, r: Job("bounded", s, (f"--rho={r}", d))))
        slot(Job("theorem", s, ("--grid=5", d), "theorem") for s in above)
        slot(
            Job("frobenius", s, ("--h=1", "--grid=5", d, "--tol=0.1"), "frobenius")
            for s in straddle
        )
        slot(Job("pullback", s, ("--h=1",)) for s in straddle)

        # euler(a), |a| > 1: log R = rho + log_pi - log|a| on any interval
        euler = [Catalog("euler", p, (F(-1), F(1)), a=a) for a in _euler_as(p)]
        slot(at_rhos(euler, lambda s, r: Job("radius", s, (f"--rho={r}", d), "radius")))
        slot(Job("polygon", s, ("--grid=9", d), "polygon") for s in euler)
        slot(Job("theorem", s, ("--grid=5", d), "theorem") for s in euler)

        # pullback-exp: no closed-form polygon, checked by digest only
        pulled = [Catalog("pullback-exp", p, (F(-1), F(1)), alpha=a) for a in _alphas(p)]
        slot(at_rhos(pulled, lambda s, r: Job("radius", s, (f"--rho={r}", d))))
        slot(at_rhos(pulled, lambda s, r: Job("norms", s, (f"--rho={r}", "--depth=32"))))

    ds = f"--depth={depths['catalog-small']}"
    for m in SMALL_MODULES:
        rhos = _grid_points(*m.log_interval, 3)
        slot(Job("radius", m, (f"--rho={r}", ds)) for r in rhos)
        slot([Job("radius", m, ("--grid=3", ds))])
        slot([Job("polygon", m, ("--grid=5", ds))])
        slot(Job("bounded", m, (f"--rho={r}", ds)) for r in rhos)
        slot(Job("norms", m, (f"--rho={r}", "--depth=24")) for r in rhos)
        slot(Job("cyclic", m, (f"--seed={s}",)) for s in range(3))
        slot([Job("pullback", m, ("--h=1",))])
    return slots


WORKLOADS = {
    "deep-rank3": _deep_rank3,
    "wide-grid": _wide_grid,
    "catalog-sweep": _catalog_sweep,
    "sparse-pullback": _sparse_pullback,
}


def slots(workload: str, smoke: bool = False) -> list[list[Job]]:
    make = WORKLOADS[workload]
    if not smoke:
        return make(DEPTHS)
    small = make(SMOKE_DEPTHS)
    return small[::8] if workload == "catalog-sweep" else small


def pass_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The jobs of one pass: one alternative per slot, picked by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.choice(alternatives) for alternatives in slots(workload, smoke)]


def pool(workload: str) -> list[Job]:
    """Every job any seed can pick, without duplicates, in slot order."""
    seen: dict[str, Job] = {}
    for alternatives in slots(workload):
        for job in alternatives:
            seen.setdefault(job.key, job)
    return list(seen.values())
