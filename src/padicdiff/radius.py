"""Radius-of-convergence estimation and convergence polygons.

The radius at a generic point of log-radius rho is estimated from the tail
of b_n = log_p ||G_n / n!||: the limit of -b_n/n, capped at rho.  Two
estimators are always cross-reported:

* ``tail-min``  -- min of -b_n/n over the tail window (exact rationals),
* ``tail-slope`` -- negated least-squares slope of b_n over the window.

Their gap is recorded as the estimate's discrepancy.  Sampling estimates on
a grid and taking the least concave majorant yields the convergence
polygon, whose slopes (and intercepts) are snapped to small-denominator
rationals via continued-fraction approximation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .arith import MAX_DIGITS, Interval, Rational, lower_envelope, upper_hull
from .diffmod import DiffModule, frobenius_pullback, gn_sequence
from .errors import DomainError, HypothesisViolationError, InputError

__all__ = [
    "TAIL_MIN",
    "TAIL_SLOPE",
    "EXACT",
    "FLOAT",
    "RadiusEstimate",
    "PolygonSegment",
    "ConvergencePolygon",
    "NonRobbaResult",
    "FrobeniusPoint",
    "FrobeniusReport",
    "radius_estimate",
    "polygon_estimate",
    "is_non_robba",
    "one_slope",
    "frobenius_radius_check",
    "least_squares_line",
    "tail_window",
]

TAIL_MIN = "tail-min"
TAIL_SLOPE = "tail-slope"
EXACT = "exact"
FLOAT = "float"
QUALITY_TOL = 0.05


def least_squares_line(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """(slope, intercept, rms residual) of the least-squares line.

    The sums run left to right in plain loops: ``sum()`` over floats is
    compensated from Python 3.12 on, which would change the last digits of
    a report with the interpreter."""
    m = len(points)
    if m == 0:
        return 0.0, 0.0, 0.0
    sx = sy = sxx = sxy = 0
    for x, y in points:
        sx += x
        sy += y
        sxx += x * x
        sxy += x * y
    denom = m * sxx - sx * sx
    if denom == 0:
        return 0.0, sy / m, 0.0
    slope = (m * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / m
    rss = 0
    for x, y in points:
        rss += (y - slope * x - intercept) ** 2
    return slope, intercept, (rss / m) ** 0.5


def tail_window(values: Sequence[Optional[Rational]], depth: int) -> list[tuple[int, Rational]]:
    """(n, b_n) for n in the tail window [depth/2, depth], n >= 1, skipping
    None (zero matrices): early terms are pre-asymptotic.  The values may be
    numerators over a common denominator."""
    return [(n, values[n]) for n in range(max(depth // 2, 1), depth + 1) if values[n] is not None]


@dataclass(frozen=True)
class RadiusEstimate:
    """Estimated log_p R at one log-radius.

    ``log_r`` follows the requested method and mode (exact mode reports the
    rational tail-min value); both raw estimators are retained, and
    ``discrepancy`` is their absolute gap, the honesty metric of the run.
    ``capped`` records whether the min(rho, .) cap is binding.
    """

    rho: Fraction
    log_r: Union[Fraction, float]
    method: str
    depth: int
    discrepancy: float
    capped: bool
    tail_min: Fraction
    tail_slope: Optional[float]
    mode: str
    normalized: bool = True


def radius_estimate(
    module: DiffModule,
    rho: Rational,
    depth: int = 256,
    method: str = TAIL_MIN,
    mode: str = EXACT,
    include_factorial: bool = True,
) -> RadiusEstimate:
    """Estimate log_p R(module, rho) from the norm-sequence tail.

    Both estimators read ``tail_window``.  ``include_factorial=False``
    switches to the un-normalized variant built on ||G_n|| alone.
    """
    rho = Fraction(rho)
    if depth < 16:
        raise InputError("depth must be at least 16")
    if not module.interval.contains(rho):
        raise DomainError(f"rho={rho} outside the open interval {module.interval}")
    if mode not in (EXACT, FLOAT):
        raise InputError(f"unknown mode {mode!r}")
    if method not in (TAIL_MIN, TAIL_SLOPE):
        raise InputError(f"unknown method {method!r}")
    if mode == EXACT and method == TAIL_SLOPE:
        raise InputError("exact mode reports tail-min only")

    nums, den = gn_sequence(module, depth).log_norms(rho, depth, include_factorial)
    window = tail_window(nums, depth)

    if not window:
        # all tail matrices vanish: the solutions are polynomial, cap binds
        tail_min = rho
        capped = True
    else:
        # min of -b_n/n is the max of nums[n]/n, compared by cross-multiplying
        n0, v0 = window[0]
        for n, v in window:
            if v * n0 > v0 * n:
                n0, v0 = n, v
        tail_min = Fraction(-v0, n0 * den)
        capped = tail_min >= rho
        tail_min = min(rho, tail_min)

    if len(window) >= 2:
        # int true division rounds correctly, as float() of a Fraction does
        slope, _, _ = least_squares_line([(float(n), v / den) for n, v in window])
        tail_slope: Optional[float] = slope
        slope_value = min(float(rho), -slope)
    else:
        tail_slope = None
        slope_value = float(tail_min)
    discrepancy = abs(float(tail_min) - slope_value)

    if mode == EXACT:
        log_r: Union[Fraction, float] = tail_min
    else:
        log_r = float(tail_min) if method == TAIL_MIN else slope_value
    return RadiusEstimate(
        rho=rho,
        log_r=log_r,
        method=method,
        depth=depth,
        discrepancy=discrepancy,
        capped=capped,
        tail_min=tail_min,
        tail_slope=tail_slope,
        mode=mode,
        normalized=include_factorial,
    )


@dataclass(frozen=True)
class PolygonSegment:
    """One affine piece rho -> slope*rho + intercept on [lo, hi]."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction
    raw_slope: Fraction
    raw_intercept: Fraction

    def value(self, rho: Rational) -> Fraction:
        return self.slope * Fraction(rho) + self.intercept


@dataclass(frozen=True)
class ConvergencePolygon:
    """Fitted concave piecewise-linear graph of rho -> log_p R.

    Segments partition the interval with strictly decreasing slopes, so the
    polygon evaluates as the pointwise min of its lines.  ``quality`` is the
    largest concavity violation of the raw samples (distance below their
    least concave majorant).
    """

    interval: Interval
    segments: tuple[PolygonSegment, ...]
    samples: tuple[RadiusEstimate, ...]
    quality: float
    quality_warning: bool

    def value(self, rho: Rational) -> Fraction:
        rho = Fraction(rho)
        return min(seg.slope * rho + seg.intercept for seg in self.segments)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(seg.hi for seg in self.segments[:-1])


def polygon_estimate(
    module: DiffModule,
    grid: int = 17,
    depth: int = 256,
    max_denominator: int = 32,
    mode: str = EXACT,
) -> ConvergencePolygon:
    """Fit the convergence polygon from grid samples of radius_estimate.

    Slopes of the least concave majorant are snapped to rationals with
    denominator <= max_denominator (continued-fraction convergents), equal
    snapped slopes are merged, intercepts are refit as the median of
    (sample - slope*rho) over each merged span and snapped the same way.
    Non-concave samples beyond QUALITY_TOL raise no error; they set the
    ``quality_warning`` flag.
    """
    if grid < 3:
        raise InputError("polygon fitting needs at least 3 grid points")
    interval = module.interval
    rhos = interval.interior_grid(grid)
    samples = tuple(radius_estimate(module, r, depth, TAIL_MIN, mode) for r in rhos)
    points = [(s.rho, Fraction(s.log_r)) for s in samples]

    # each hull piece, its samples, and how far they fall below it
    hull = upper_hull(points)
    quality = 0.0
    raw_pieces = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        members = [pt for pt in points if x1 <= pt[0] <= x2]
        for x, y in members:
            quality = max(quality, float(y1 + slope * (x - x1) - y))
        raw_pieces.append((slope, members))

    # an interior hull piece spanning a single grid gap (both members shared
    # with its neighbours) is a chord across an unresolved breakpoint, not a
    # segment: drop it and let the neighbours meet at their intersection
    raw_pieces = [
        piece
        for k, piece in enumerate(raw_pieces)
        if not (0 < k < len(raw_pieces) - 1 and len(piece[1]) == 2)
    ]

    # snap slopes, merge equal neighbours pooling their samples
    merged: list[tuple[Fraction, Fraction, list[tuple[Fraction, Fraction]]]] = []
    for raw_slope, members in raw_pieces:
        slope = raw_slope.limit_denominator(max_denominator)
        if merged and merged[-1][0] == slope:
            merged[-1][2].extend(m for m in members if m not in merged[-1][2])
        else:
            merged.append((slope, raw_slope, list(members)))

    # refit each intercept as the median offset over the pooled samples,
    # then snap it with the same denominator bound as the slope
    lines = []
    for slope, raw_slope, members in merged:
        raw_intercept = statistics.median(y - slope * x for x, y in members)
        intercept = raw_intercept.limit_denominator(max_denominator)
        lines.append((slope, intercept, raw_slope, raw_intercept))

    # the polygon is the pointwise min of its lines (their slopes strictly
    # decrease); snapping can push a line off it, so rebuild the partition
    segments = tuple(
        PolygonSegment(lo, hi, *line) for lo, hi, line in lower_envelope(lines, interval)
    )

    return ConvergencePolygon(
        interval=interval,
        segments=segments,
        samples=samples,
        quality=quality,
        quality_warning=quality > QUALITY_TOL,
    )


@dataclass(frozen=True)
class NonRobbaResult:
    non_robba: bool
    margin: Fraction
    witness: Fraction


def is_non_robba(polygon: ConvergencePolygon) -> NonRobbaResult:
    """Decide log R(rho) < rho for all rho on the fitted polygon.

    The margin rho - log R is piecewise linear, so it suffices to check the
    interval endpoints and the breakpoints; the reported margin is the
    infimum over the closed interval.  The margin is convex (the polygon's
    slopes strictly decrease), so a least margin of 0 is attained exactly on
    the span of its zero vertices: the inequality is strict inside the
    interval iff that span is a single endpoint.
    """
    vertices = [polygon.interval.lo, *polygon.breakpoints, polygon.interval.hi]
    margins = [(rho - polygon.value(rho), rho) for rho in vertices]
    margin, witness = min(margins, key=lambda t: t[0])
    zeros = [rho for m, rho in margins if m == 0]
    flag = margin > 0 or (margin == 0 and zeros in ([vertices[0]], [vertices[-1]]))
    return NonRobbaResult(non_robba=flag, margin=margin, witness=witness)


def one_slope(polygon: ConvergencePolygon) -> bool:
    """True iff the fitted polygon is a single affine piece over the interval."""
    return len(polygon.segments) == 1


@dataclass(frozen=True)
class FrobeniusPoint:
    rho: Fraction
    log_r_pullback: Fraction
    log_r_base: Fraction
    hypothesis_ok: bool
    residual: Optional[float]


@dataclass(frozen=True)
class FrobeniusReport:
    """Per-point check of log R_M = (log R_N o mult by p^h)/p^h."""

    p: int
    h: int
    depth: int
    tol: float
    points: tuple[FrobeniusPoint, ...]
    max_residual: float
    passed: bool

    @property
    def excluded(self) -> int:
        return sum(1 for pt in self.points if not pt.hypothesis_ok)


def frobenius_radius_check(
    base_module: DiffModule,
    h: int = 1,
    grid: int = 5,
    depth: int = 256,
    tol: float = 0.1,
) -> FrobeniusReport:
    """Verify the ramification radius relation on a grid.

    The pullback module M of the base module N must satisfy, at each sampled
    rho, the a-posteriori hypothesis log R_M(rho) > rho + log_pi / p^(h-1);
    failing points are excluded and reported.  At the remaining points the
    residual |p^h * log R_M(rho) - log R_N(p^h rho)| must stay within tol.
    """
    p = base_module.p.p
    pulled = frobenius_pullback(base_module, h)
    threshold_shift = base_module.p.log_pi / p ** (h - 1)
    scale = p**h

    rhos = pulled.interval.interior_grid(grid)
    # each grid rho goes into the report: fail before the estimates when one
    # cannot be printed
    if any(max(abs(rho.numerator), rho.denominator) >= 10**MAX_DIGITS for rho in rhos):
        raise InputError(
            f"h = {h}: a grid rho of the pulled interval has more than {MAX_DIGITS} digits"
        )
    points = []
    for rho in rhos:
        est_m = radius_estimate(pulled, rho, depth)
        est_n = radius_estimate(base_module, scale * rho, depth)
        ok = est_m.tail_min > rho + threshold_shift
        residual = abs(float(scale * est_m.tail_min - est_n.tail_min)) if ok else None
        points.append(
            FrobeniusPoint(
                rho=rho,
                log_r_pullback=est_m.tail_min,
                log_r_base=est_n.tail_min,
                hypothesis_ok=ok,
                residual=residual,
            )
        )
    residuals = [pt.residual for pt in points if pt.hypothesis_ok]
    if not residuals:
        raise HypothesisViolationError(
            "every grid point fails the ramification hypothesis"
        )
    max_residual = max(residuals)
    return FrobeniusReport(
        p=p,
        h=h,
        depth=depth,
        tol=tol,
        points=tuple(points),
        max_residual=max_residual,
        passed=max_residual <= tol,
    )
