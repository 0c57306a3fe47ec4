import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from padicdiff import radius
from padicdiff.arith import Interval, Prime, lower_envelope
from padicdiff.catalog import catalog_get
from padicdiff.diffmod import DiffModule, RFMatrix, gauge_transform
from padicdiff.errors import DomainError, HypothesisViolationError, InputError
from padicdiff.laurent import LaurentPoly, RationalFunction
from padicdiff.radius import (
    EXACT,
    FLOAT,
    TAIL_MIN,
    TAIL_SLOPE,
    ConvergencePolygon,
    PolygonSegment,
    RadiusEstimate,
    frobenius_radius_check,
    is_non_robba,
    least_squares_line,
    one_slope,
    polygon_estimate,
    radius_estimate,
)

P2 = Prime(2)


def exp_module(interval, alpha=1, p=2):
    return catalog_get("exp", p, alpha=alpha).build(interval)


def euler_module(interval, a=F(1, 2), p=2):
    return catalog_get("euler", p, a=a).build(interval)


def zero_module(interval, p=2):
    return catalog_get("zero", p).build(interval)


# -- point estimates ----------------------------------------------------------


def test_zero_module_capped():
    est = radius_estimate(zero_module(Interval(-1, 2)), F(1, 2), 64)
    assert est.log_r == F(1, 2)
    assert est.capped


def test_exp_estimate_near_closed_form():
    est = radius_estimate(exp_module(Interval(-1, 1)), 0, 256)
    assert abs(float(est.log_r) - (-1.0)) <= 0.05
    assert not est.capped
    assert est.discrepancy <= 0.05


def test_euler_estimate_near_closed_form():
    est = radius_estimate(euler_module(Interval(-1, 1)), 0, 256)
    assert abs(float(est.log_r) - (-2.0)) <= 0.05


def test_cap_invariant():
    rng = random.Random(21)
    m = euler_module(Interval(-2, 2))
    for _ in range(10):
        rho = F(rng.randint(-15, 15), 8)
        est = radius_estimate(m, rho, 64)
        assert est.log_r <= rho


def test_methods_agree_on_closed_forms():
    for m in (exp_module(Interval(-1, 1)), euler_module(Interval(-1, 1))):
        exact = radius_estimate(m, 0, 256, TAIL_MIN, EXACT)
        slope = radius_estimate(m, 0, 256, TAIL_SLOPE, FLOAT)
        assert abs(float(exact.log_r) - float(slope.log_r)) <= 0.05
        assert exact.discrepancy <= 0.05


def test_exact_mode_rejects_tail_slope():
    with pytest.raises(InputError):
        radius_estimate(exp_module(Interval(-1, 1)), 0, 64, TAIL_SLOPE, EXACT)


def test_rho_outside_interval():
    with pytest.raises(DomainError):
        radius_estimate(exp_module(Interval(0, 1)), 2, 64)


def test_depth_minimum():
    with pytest.raises(InputError):
        radius_estimate(exp_module(Interval(-1, 1)), 0, 8)


def test_unnormalized_variant_shifts_by_log_pi():
    # without n! the exp family estimate moves from log_pi to 0
    m = exp_module(Interval(-1, 1))
    norm = radius_estimate(m, 0, 256)
    raw = radius_estimate(m, 0, 256, include_factorial=False)
    assert abs(float(norm.log_r) + 1.0) <= 0.05
    assert abs(float(raw.log_r)) <= 0.05


# -- polygons ------------------------------------------------------------------


def test_polygon_zero_module():
    poly = polygon_estimate(zero_module(Interval(-1, 2)), grid=9, depth=64)
    assert len(poly.segments) == 1
    seg = poly.segments[0]
    assert (seg.slope, seg.intercept) == (1, 0)
    res = is_non_robba(poly)
    assert not res.non_robba and res.margin == 0


def test_polygon_exp_flat():
    poly = polygon_estimate(exp_module(Interval(0, 2)), grid=17, depth=256)
    assert [(s.slope, s.intercept) for s in poly.segments] == [(0, -1)]
    assert one_slope(poly)
    res = is_non_robba(poly)
    assert res.non_robba and res.margin == 1 and res.witness == 0


def test_polygon_exp_breakpoint():
    poly = polygon_estimate(exp_module(Interval(-2, 2)), grid=17, depth=256)
    assert [(s.slope, s.intercept) for s in poly.segments] == [(1, 0), (0, -1)]
    assert poly.breakpoints == (F(-1),)
    assert not one_slope(poly)
    assert not is_non_robba(poly).non_robba


def test_polygon_euler_slope_one():
    poly = polygon_estimate(euler_module(Interval(-2, 2)), grid=17, depth=256, max_denominator=8)
    assert [(s.slope, s.intercept) for s in poly.segments] == [(1, -2)]
    res = is_non_robba(poly)
    assert res.non_robba and res.margin == 2


def test_polygon_needs_three_points():
    with pytest.raises(InputError):
        polygon_estimate(zero_module(Interval(0, 1)), grid=2, depth=64)


def test_polygon_merges_equal_snapped_slopes(monkeypatch):
    # samples on rho = 1..5 rise by 501/1000 up to rho = 3, then by 499/1000:
    # two hull pieces whose slopes both snap to 1/2
    log_r = {1: F(0), 2: F(501, 1000), 3: F(1002, 1000), 4: F(1501, 1000), 5: F(2)}

    def fake_estimate(module, rho, depth, method, mode):
        value = log_r[rho]
        return RadiusEstimate(rho, value, method, depth, 0.0, False, value, None, mode)

    monkeypatch.setattr(radius, "radius_estimate", fake_estimate)
    poly = polygon_estimate(zero_module(Interval(0, 6)), grid=5, depth=64)
    assert [(s.slope, s.intercept) for s in poly.segments] == [(F(1, 2), F(-1, 2))]
    assert poly.segments[0].raw_slope == F(501, 1000)


def test_non_robba_negative_margin():
    seg = PolygonSegment(F(0), F(2), F(1), F(1, 4), F(1), F(1, 4))
    poly = ConvergencePolygon(Interval(0, 2), (seg,), (), 0.0, False)
    res = is_non_robba(poly)
    assert not res.non_robba
    assert res.margin == F(-1, 4) and res.witness == 0


_HALVES = st.integers(-6, 6).map(lambda k: F(k, 2))


@given(
    lines=st.lists(
        st.tuples(st.integers(-2, 3).map(F), _HALVES), min_size=1, max_size=4,
        unique_by=lambda line: line[0],
    ),
    lo=_HALVES,
    width=st.integers(1, 8).map(lambda k: F(k, 2)),
)
# one example per class: margin > 0; margin 0 at one end only (non-Robba);
# margin 0 on the identity cell and at an interior vertex (Robba); margin < 0
# with its one zero vertex at an end, which a rule that read a zero at an end
# alone as non-Robba would pass
@example(lines=[(F(0), F(-1))], lo=F(0), width=F(2))
@example(lines=[(F(0), F(0))], lo=F(0), width=F(2))
@example(lines=[(F(1), F(0))], lo=F(0), width=F(2))
@example(lines=[(F(2), F(0)), (F(0), F(0))], lo=F(-1), width=F(2))
@example(lines=[(F(2), F(0))], lo=F(0), width=F(2))
def test_non_robba_matches_the_margin_inside_the_interval(lines, lo, width):
    interval = Interval(lo, lo + width)
    lines = sorted(lines, reverse=True)  # slopes strictly decrease
    segments = tuple(
        PolygonSegment(a, b, s, c, s, c) for a, b, (s, c) in lower_envelope(lines, interval)
    )
    poly = ConvergencePolygon(interval, segments, (), 0.0, False)
    res = is_non_robba(poly)
    # rho - log R > 0 on the open interval: > 0 at every interior vertex,
    # >= 0 at both ends, and > 0 inside every cell, where it is linear
    vertices = [interval.lo, *poly.breakpoints, interval.hi]
    margins = [rho - poly.value(rho) for rho in vertices]
    mids = [(seg.lo + seg.hi) / 2 for seg in segments]
    expected = (
        all(m > 0 for m in margins[1:-1])
        and min(margins[0], margins[-1]) >= 0
        and all(rho > poly.value(rho) for rho in mids)
    )
    assert res.non_robba == expected
    least = min(margins)
    assert (res.margin, res.witness) == (least, vertices[margins.index(least)])


def test_least_squares_line_degenerate_inputs():
    assert least_squares_line([]) == (0.0, 0.0, 0.0)
    assert least_squares_line([(3.0, 2.5)]) == (0.0, 2.5, 0.0)
    # equal x values: no slope, the mean of y
    assert least_squares_line([(1.0, 1.0), (1.0, 3.0)]) == (0.0, 2.0, 0.0)


def test_least_squares_line_sums_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so a left-to-right sum of these y reads
    # 0 where a compensated one (``sum()`` from Python 3.12 on) reads 1, and
    # the slope reads 0 against -1/3; a report must not change its digits
    # with the interpreter
    points = [(0.0, 1e16), (0.0, 1.0), (0.0, -1e16), (1.0, 0.0)]
    ys = [y for _, y in points]
    assert math.fsum(ys) == 1.0 and ((ys[0] + ys[1]) + ys[2]) + ys[3] == 0.0

    def left_to_right(values):
        total = 0
        for v in values:
            total += v
        return total

    m = len(points)
    sx = left_to_right(x for x, _ in points)
    sy = left_to_right(y for _, y in points)
    sxx = left_to_right(x * x for x, _ in points)
    sxy = left_to_right(x * y for x, y in points)
    slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    intercept = (sy - slope * sx) / m
    rss = left_to_right((y - slope * x - intercept) ** 2 for x, y in points)
    assert least_squares_line(points) == (slope, intercept, (rss / m) ** 0.5)


def test_polygon_samples_concave_on_families():
    for m in (exp_module(Interval(-2, 2)), euler_module(Interval(-2, 2))):
        poly = polygon_estimate(m, grid=17, depth=128)
        assert poly.quality <= 0.05
        assert not poly.quality_warning


def test_polygon_segments_partition_interval():
    poly = polygon_estimate(exp_module(Interval(-2, 2)), grid=17, depth=128)
    assert poly.segments[0].lo == poly.interval.lo
    assert poly.segments[-1].hi == poly.interval.hi
    for left, right in zip(poly.segments, poly.segments[1:]):
        assert left.hi == right.lo
        assert left.slope > right.slope
        # continuity at the breakpoint
        assert left.value(left.hi) == right.value(right.lo)


def test_polygon_value_is_min_of_lines():
    poly = polygon_estimate(exp_module(Interval(-2, 2)), grid=17, depth=128)
    assert poly.value(-2) == -2
    assert poly.value(0) == -1
    assert poly.value(F(-3, 2)) == F(-3, 2)


small_fractions = st.fractions(-6, 6, max_denominator=4)


@st.composite
def lines_and_interval(draw):
    """1-8 lines (slope, intercept) with distinct slopes, in decreasing slope
    order, and an interval; small denominators make ties common."""
    slopes = draw(st.lists(small_fractions, min_size=1, max_size=8, unique=True))
    lines = [(s, draw(small_fractions)) for s in sorted(slopes, reverse=True)]
    lo, hi = sorted(draw(st.lists(small_fractions, min_size=2, max_size=2, unique=True)))
    return lines, Interval(lo, hi)


# three lines through one point: the middle one meets the min only there
@example(([(F(1), F(0)), (F(0), F(0)), (F(-1), F(0))], Interval(-1, 1)))
# the first line's piece ends exactly at the interval's lower end
@example(([(F(1), F(0)), (F(0), F(-1))], Interval(-1, 1)))
# the last line's piece starts exactly at the interval's upper end
@example(([(F(0), F(1)), (F(-1), F(2))], Interval(-1, 1)))
@given(lines_and_interval())
def test_lower_envelope_equals_the_brute_force_min(case):
    lines, interval = case
    pieces = lower_envelope(lines, interval)
    assert pieces[0][0] == interval.lo and pieces[-1][1] == interval.hi
    slopes = [line[0] for _, _, line in pieces]
    assert all(s > t for s, t in zip(slopes, slopes[1:]))
    for left, right in zip(pieces, pieces[1:]):
        assert left[1] == right[0]
    for lo, hi, (slope, intercept) in pieces:
        assert lo < hi
        for x in (lo, (lo + hi) / 2, hi):
            assert slope * x + intercept == min(s * x + c for s, c in lines)


# -- gauge invariance -----------------------------------------------------------


def unimodular_gauge(rng, size=2, max_deg=2):
    H = RFMatrix.identity(size)
    for _ in range(3):
        i, j = rng.sample(range(size), 2)
        entry = LaurentPoly.x(rng.randint(0, max_deg), rng.choice([-2, -1, 1, 2]))
        rows = [
            [RationalFunction.one() if a == b else RationalFunction.zero() for b in range(size)]
            for a in range(size)
        ]
        rows[i][j] = RationalFunction(entry)
        H = H @ RFMatrix(rows)
    return H


def test_gauge_invariance_at_depth_256():
    rng = random.Random(31)
    base = DiffModule(
        P2,
        RFMatrix.diagonal([RationalFunction.constant(1)] * 2),
        Interval(-1, 1),
    )
    plain = radius_estimate(base, 0, 256)
    gauged = gauge_transform(base, unimodular_gauge(rng))
    est = radius_estimate(gauged, 0, 256)
    assert abs(float(plain.log_r) - float(est.log_r)) <= 0.1


# -- ramification relation ---------------------------------------------------------


def test_frobenius_relation_exp():
    base = exp_module(Interval(-2, 2))
    report = frobenius_radius_check(base, h=1, grid=5, depth=256, tol=0.1)
    assert report.passed
    assert report.excluded >= 1  # points near the regime boundary drop out
    included = [pt for pt in report.points if pt.hypothesis_ok]
    assert included and all(pt.residual <= 0.1 for pt in included)


def test_frobenius_zero_module_trivial():
    base = zero_module(Interval(-2, 2))
    report = frobenius_radius_check(base, h=1, grid=5, depth=64, tol=0.1)
    assert report.passed and report.max_residual == 0.0


def test_frobenius_all_excluded_raises():
    # euler has log R = rho - 2 on the pullback too; the hypothesis
    # log R > rho - 1 fails everywhere
    base = euler_module(Interval(-2, 2), a=F(1, 4))
    with pytest.raises(HypothesisViolationError):
        frobenius_radius_check(base, h=1, grid=5, depth=64, tol=0.1)
