"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest -v -s tests/test_acceptance.py  to see the per-criterion
lines; tolerances and runtime budgets are pinned here and nowhere else.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from padicdiff.arith import Interval, Prime, log_abs
from padicdiff.catalog import catalog_get
from padicdiff.diagnostics import (
    BOUNDED_DECAYING,
    BOUNDED_PLATEAU,
    SUSPECTED_UNBOUNDED,
    VERDICT_HYPOTHESES_FAIL,
    VERDICT_VERIFIED,
    bounded_report,
    theorem_check,
)
from padicdiff.diffmod import (
    DiffModule,
    RFMatrix,
    companion_of,
    gauge_transform,
    gn_sequence,
)
from padicdiff.laurent import LaurentPoly, RationalFunction
from padicdiff.radius import (
    EXACT,
    FLOAT,
    TAIL_MIN,
    TAIL_SLOPE,
    frobenius_radius_check,
    polygon_estimate,
    radius_estimate,
)
from padicdiff.spectral import ScalarOperator, cyclic_vector, max_root_norm, young_radius


def s2(n):
    return bin(n).count("1")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:>2}: PASS - {desc}")


def test_criterion_01_gauss_norm_algebra():
    with criterion(1, "gauss-norm multiplicativity and subadditivity, exact"):
        rng = random.Random(20260808)

        def rand_poly():
            support = rng.sample(range(-6, 7), rng.randint(1, 8))
            return LaurentPoly(
                {
                    e: F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
                    for e in support
                }
            )

        t0 = time.perf_counter()
        for _ in range(1000):
            f, g = rand_poly(), rand_poly()
            fg = f * g
            fs = f + g
            for p in (2, 3, 5):
                for rho in (-2, -1, 0, 1, 2):
                    nf = f.gauss_norm(rho, p)
                    ng = g.gauss_norm(rho, p)
                    assert fg.gauss_norm(rho, p) == nf + ng
                    ns = fs.gauss_norm(rho, p)
                    assert ns <= max(nf, ng)
                    if nf != ng:
                        assert ns == max(nf, ng)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_recursion_oracle():
    with criterion(2, "scaled recursion equals direct rational recursion, exact"):
        rng = random.Random(1729)
        interval = Interval(0, 1)

        def rand_rf():
            num = LaurentPoly({e: rng.randint(-4, 4) for e in range(rng.randint(1, 4))})
            dens = [
                LaurentPoly.one(),
                LaurentPoly.x(),
                LaurentPoly({0: rng.randint(1, 3), 1: 1}),
                LaurentPoly({0: rng.randint(1, 3), 2: 1}),
            ]
            return RationalFunction(num, rng.choice(dens))

        t0 = time.perf_counter()
        for _ in range(50):
            mu = rng.randint(1, 3)
            G = RFMatrix([[rand_rf() for _ in range(mu)] for _ in range(mu)])
            m = DiffModule(Prime(rng.choice([2, 3, 5])), G, interval)
            direct = RFMatrix.identity(mu)
            for n in range(6):
                assert gn_sequence(m, n).term_matrix() == direct
                direct = (direct.derivative() + direct @ G).reduced()
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_exponential_radius():
    with criterion(3, "exp(1) at rho=0, depth 256: both methods within 0.05 of -1"):
        m = catalog_get("exp", 2, alpha=1).build(Interval(-1, 1))
        t0 = time.perf_counter()
        exact = radius_estimate(m, 0, 256, TAIL_MIN, EXACT)
        elapsed = time.perf_counter() - t0
        slope = radius_estimate(m, 0, 256, TAIL_SLOPE, FLOAT)
        assert abs(float(exact.log_r) + 1) <= 0.05
        assert abs(float(slope.log_r) + 1) <= 0.05
        assert exact.discrepancy <= 0.05 and slope.discrepancy <= 0.05
        assert elapsed < 5.0, f"exact mode took {elapsed:.1f}s"


def test_criterion_04_euler_slope_recovery():
    with criterion(4, "euler(1/2) polygon: one segment, slope 1, intercept -2"):
        m = catalog_get("euler", 2, a=F(1, 2)).build(Interval(-2, 2))  # radii (1/4, 4)
        poly = polygon_estimate(m, grid=17, depth=256, max_denominator=8)
        assert len(poly.segments) == 1
        seg = poly.segments[0]
        assert seg.slope == 1
        assert abs(float(seg.intercept) + 2) <= 0.05


def test_criterion_05_breakpoint_detection():
    with criterion(5, "exp(1) on (1/8, 4): slopes 1 and 0, breakpoint at -1"):
        m = catalog_get("exp", 2, alpha=1).build(Interval(-3, 2))  # radii (1/8, 4)
        poly = polygon_estimate(m, grid=17, depth=256)
        assert [seg.slope for seg in poly.segments] == [1, 0]
        assert len(poly.breakpoints) == 1
        assert abs(float(poly.breakpoints[0]) + 1) <= 0.1


def test_criterion_06_gauge_invariance():
    with criterion(6, "20 unimodular gauges: radius at rho=0 moves at most 0.1"):
        rng = random.Random(60)
        interval = Interval(-1, 1)
        depth = 128
        bases = [
            RFMatrix.diagonal([RationalFunction.constant(1)] * 2),
            RFMatrix.diagonal([RationalFunction(LaurentPoly.x(-1, F(1, 2)))] * 2),
        ]
        for base_matrix in bases:
            base = DiffModule(Prime(2), base_matrix, interval)
            reference = radius_estimate(base, 0, depth)
            for _ in range(20):
                H = RFMatrix.identity(2)
                for _ in range(3):
                    i, j = rng.sample([0, 1], 2)
                    entry = LaurentPoly.x(rng.randint(0, 2), rng.choice([-2, -1, 1, 2]))
                    rows = [
                        [RationalFunction.one(), RationalFunction.zero()],
                        [RationalFunction.zero(), RationalFunction.one()],
                    ]
                    rows[i][j] = RationalFunction(entry)
                    H = H @ RFMatrix(rows)
                gauged = gauge_transform(base, H)
                est = radius_estimate(gauged, 0, depth)
                assert abs(float(reference.log_r) - float(est.log_r)) <= 0.1


def test_criterion_07_frobenius_relation():
    with criterion(7, "ramification radius relation within 0.1 (p in {2,3}, h in {1,2})"):
        for p in (2, 3):
            for h in (1, 2):
                base = catalog_get("exp", p, alpha=1).build(Interval(-2, 2))
                report = frobenius_radius_check(base, h=h, grid=5, depth=256, tol=0.1)
                assert report.passed, f"p={p} h={h} max residual {report.max_residual}"


def test_criterion_08_newton_root_norms():
    with criterion(8, "50 planted-root polynomials: max root norm exact"):
        rng = random.Random(80)
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            deg = rng.randint(1, 5)
            roots = [
                F(rng.choice([1, 3, 5])) * F(p) ** rng.randint(-3, 3)
                for _ in range(deg)
            ]
            asc = [F(1)]
            for r in roots:
                nxt = [F(0)] * (len(asc) + 1)
                for k, v in enumerate(asc):
                    nxt[k + 1] += v
                    nxt[k] -= r * v
                asc = nxt
            q = [RationalFunction.constant(c) for c in reversed(asc[:-1])]
            op = ScalarOperator(Prime(p), tuple(q), Interval(-1, 1))
            assert max_root_norm(op, 0) == max(log_abs(r, p) for r in roots)


def test_criterion_09_young_regime():
    with criterion(9, "first-order small-radius formula matches estimates within 0.1"):
        for p in (2, 3):
            for k in (1, 2, 3):
                alpha = F(1, p**k)  # |alpha|_p = p^k
                interval = Interval(-1, 1)
                op = ScalarOperator(
                    Prime(p), (RationalFunction.constant(-alpha),), interval
                )
                y = young_radius(op, 0)
                assert y.applicable
                m = companion_of(Prime(p), op.coeffs, interval)
                est = radius_estimate(m, 0, 256)
                assert abs(float(y.log_r) - float(est.log_r)) <= 0.1


def test_criterion_10_cyclic_soundness():
    with criterion(10, "cyclic reduction: exact companion recovery, radius agreement 0.1"):
        interval = Interval(-2, 2)
        p2 = Prime(2)
        from padicdiff.laurent import parse_rational_function as P

        for q in (
            [P("0"), P("-1")],
            [P("1/x"), P("2 + x")],
            [P("1/(2*x)"), P("3"), P("x^2")],
        ):
            red = cyclic_vector(companion_of(p2, q, interval))
            assert list(red.operator.coeffs) == q
            assert red.gauge == RFMatrix.identity(len(q))

        rng = random.Random(42)
        pool = ["1", "2", "1/2", "x", "1/x", "2/x", "1/(2*x)", "0", "1 + x", "x^2"]
        for trial in range(10):
            rows = [[P(rng.choice(pool)) for _ in range(2)] for _ in range(2)]
            m = DiffModule(p2, RFMatrix(rows), interval)
            red = cyclic_vector(m, seed=trial)
            A = red.operator.companion_module().matrix
            assert red.gauge @ A + red.gauge.derivative() == m.matrix @ red.gauge
            piece = max(red.valid, key=lambda j: j.width)
            rho = piece.midpoint
            comp = red.operator.companion_module()
            a = radius_estimate(m, rho, 128)
            b = radius_estimate(comp, rho, 128)
            assert abs(float(a.log_r) - float(b.log_r)) <= 0.1


def test_criterion_11_main_theorem_end_to_end():
    with criterion(11, "theorem pipeline: exp and euler verified with exact b_n"):
        cases = [
            (catalog_get("exp", 2, alpha=1), Interval(0, 2)),  # radii (1, 4)
            (catalog_get("euler", 2, a=F(1, 2)), Interval(-2, 2)),  # radii (1/4, 4)
        ]
        for entry, interval in cases:
            m = entry.build(interval)
            t0 = time.perf_counter()
            rep = theorem_check(m, grid=9, depth=512)
            elapsed = time.perf_counter() - t0
            assert rep.verdict == VERDICT_VERIFIED, entry.name
            for point in rep.reports:
                for n, v in enumerate(point.values):
                    assert v == F(-s2(n)), (entry.name, point.rho, n)
            assert elapsed < 60.0, f"{entry.name} took {elapsed:.1f}s"
        zero = catalog_get("zero", 2).build(Interval(0, 2))
        assert theorem_check(zero, grid=9, depth=64).verdict == VERDICT_HYPOTHESES_FAIL


def test_criterion_12_classifier_sensitivity():
    with criterion(12, "inflated log R (+0.1) is flagged suspected-unbounded"):
        m = catalog_get("exp", 2, alpha=1).build(Interval(-1, 1))
        rep = bounded_report(m, 0, 256, log_r=F(-9, 10), tol=0.02)
        assert rep.classification == SUSPECTED_UNBOUNDED
        truth = bounded_report(m, 0, 256, log_r=F(-1), tol=0.02)
        assert truth.classification in (BOUNDED_PLATEAU, BOUNDED_DECAYING)
