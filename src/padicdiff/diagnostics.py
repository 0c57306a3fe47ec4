"""Boundedness diagnostics for solutions at generic points.

Whether sup_n ||G_n/n!|| R^n is finite cannot be decided from finitely many
terms; what can be reported honestly is the trend of

    b_n = log_p ||G_n / n!|| + n * log R,

whose supremum is finite iff the solution matrix is bounded on the open
disk of radius R.  The classifier looks at the least-squares slope of the
tail window and the running maximum, with an explicit tolerance, and never
claims proof:

* tail slope < -tol                      -> bounded-decaying
* |tail slope| <= tol, max moderate      -> bounded-plateau
* tail slope > tol                       -> suspected-unbounded
* noisy fit (large rms residual)         -> inconclusive

The end-to-end pipeline checks the one-slope and non-Robba hypotheses on
the fitted polygon and, when they hold, runs the classifier at every grid
point with log R taken from the polygon (the |alpha| r^beta form), not from
per-point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import Rational
from .diffmod import DiffModule, gn_sequence
from .errors import DomainError, InputError
from .radius import (
    EXACT,
    ConvergencePolygon,
    NonRobbaResult,
    is_non_robba,
    least_squares_line,
    one_slope,
    polygon_estimate,
    tail_window,
)

__all__ = [
    "BOUNDED_DECAYING",
    "BOUNDED_PLATEAU",
    "SUSPECTED_UNBOUNDED",
    "INCONCLUSIVE",
    "VERDICT_VERIFIED",
    "VERDICT_UNCLEAR",
    "VERDICT_HYPOTHESES_FAIL",
    "BoundednessReport",
    "TheoremReport",
    "bounded_report",
    "theorem_check",
]

BOUNDED_DECAYING = "bounded-decaying"
BOUNDED_PLATEAU = "bounded-plateau"
SUSPECTED_UNBOUNDED = "suspected-unbounded"
INCONCLUSIVE = "inconclusive"

VERDICT_VERIFIED = "theorem-applies-and-verified"
VERDICT_UNCLEAR = "theorem-applies-numerically-unclear"
VERDICT_HYPOTHESES_FAIL = "hypotheses-fail"

DEFAULT_TOL = 0.02
NOISE_RMS_THRESHOLD = 3.0
PLATEAU_GUARD = 40.0


@dataclass(frozen=True)
class BoundednessReport:
    """Trend report for b_n = log||G_n/n!|| + n log R at one log-radius.

    b_0 = 0 always.  ``values`` uses None for vanishing matrices (log is
    minus infinity).  Classification is a pure function of the tail slope,
    the fit residual and the running maximum, at the stated tolerance.
    """

    rho: Fraction
    depth: int
    log_r: Union[Fraction, float]
    tolerance: float
    values: tuple[Optional[Fraction], ...]
    max_value: Fraction
    argmax: int
    tail_slope: float
    fit_residual: float
    classification: str


def _classify(tail_slope: float, fit_residual: float, max_value: Fraction, tol: float) -> str:
    if fit_residual > NOISE_RMS_THRESHOLD:
        return INCONCLUSIVE
    if tail_slope < -tol:
        return BOUNDED_DECAYING
    if tail_slope > tol:
        return SUSPECTED_UNBOUNDED
    if float(max_value) >= PLATEAU_GUARD:
        return SUSPECTED_UNBOUNDED
    return BOUNDED_PLATEAU


def bounded_report(
    module: DiffModule,
    rho: Rational,
    depth: int = 256,
    log_r: Rational = None,
    tol: float = DEFAULT_TOL,
) -> BoundednessReport:
    """Classify the boundedness trend of the solution matrix at rho.

    rho must lie in the open module interval and ``log_r`` must not exceed
    rho (the radius cap).  The fit reads ``radius.tail_window``, which skips
    None entries (zero matrices); a window of Nones is a plateau at the
    running maximum.
    """
    rho = Fraction(rho)
    if not module.interval.contains(rho):
        raise DomainError(f"rho={rho} outside the open interval {module.interval}")
    if log_r is None:
        raise InputError("bounded_report needs an explicit log_r")
    mult = Fraction(log_r)  # exact also for float inputs
    if mult > rho:
        raise InputError(f"log_r={log_r} exceeds the cap rho={rho}")
    log_r_value: Union[Fraction, float] = log_r if isinstance(log_r, float) else mult
    nums, den = gn_sequence(module, depth).log_norms(rho, depth)

    # b_n + n*log_r as numerators over one denominator, then one Fraction
    # per reported value; max and fit read the numerators
    common = math.lcm(den, mult.denominator)
    scale, step = common // den, mult.numerator * (common // mult.denominator)
    shifted = [None if v is None else v * scale + n * step for n, v in enumerate(nums)]
    values = tuple(None if v is None else Fraction(v, common) for v in shifted)
    argmax = max((n for n, v in enumerate(shifted) if v is not None), key=shifted.__getitem__)
    max_value = values[argmax]
    window = [(float(n), v / common) for n, v in tail_window(shifted, depth)]
    tail_slope, _, fit_residual = least_squares_line(window)

    classification = _classify(tail_slope, fit_residual, max_value, tol)
    return BoundednessReport(
        rho=rho,
        depth=depth,
        log_r=log_r_value,
        tolerance=tol,
        values=values,
        max_value=max_value,
        argmax=argmax,
        tail_slope=tail_slope,
        fit_residual=fit_residual,
        classification=classification,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the full one-slope / non-Robba / boundedness pipeline."""

    polygon: ConvergencePolygon
    one_slope: bool
    non_robba: NonRobbaResult
    reports: tuple[BoundednessReport, ...]
    verdict: str


def theorem_check(
    module: DiffModule,
    grid: int = 9,
    depth: int = 256,
    tol: float = DEFAULT_TOL,
    max_denominator: int = 32,
    mode: str = EXACT,
) -> TheoremReport:
    """One-slope + non-Robba hypotheses, then boundedness at every grid point.

    When a hypothesis fails the pipeline short-circuits with no boundedness
    runs.  Otherwise log R at each grid point is read from the fitted
    polygon, and the verdict is verified iff every classification is
    bounded-decaying or bounded-plateau.
    """
    polygon = polygon_estimate(
        module, grid=grid, depth=depth, max_denominator=max_denominator, mode=mode
    )
    single = one_slope(polygon)
    robba = is_non_robba(polygon)
    reports: tuple[BoundednessReport, ...] = ()
    verdict = VERDICT_HYPOTHESES_FAIL
    if single and robba.non_robba:
        reports = tuple(
            bounded_report(module, rho, depth, polygon.value(rho), tol)
            for rho in module.interval.interior_grid(grid)
        )
        ok = all(r.classification in (BOUNDED_DECAYING, BOUNDED_PLATEAU) for r in reports)
        verdict = VERDICT_VERIFIED if ok else VERDICT_UNCLEAR
    return TheoremReport(
        polygon=polygon,
        one_slope=single,
        non_robba=robba,
        reports=reports,
        verdict=verdict,
    )
