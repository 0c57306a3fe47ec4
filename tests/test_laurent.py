import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicdiff.arith import Interval, log_abs
from padicdiff.errors import InputError, ParseError
from padicdiff.laurent import (
    LaurentPoly,
    _mul_acc,
    _poly_gcd,
    RationalFunction,
    gauss_norm,
    newton_root_logmags,
    parse_rational_function,
    pole_free_on,
    poly_to_str,
    rf_to_str,
)


def P(text):
    return parse_rational_function(text)


def rand_laurent(rng, max_terms=6, span=6, bound=50):
    support = rng.sample(range(-span, span + 1), rng.randint(1, max_terms))
    return LaurentPoly(
        {e: F(rng.randint(-bound, bound) or 1, rng.randint(1, bound)) for e in support}
    )


# -- ring operations ---------------------------------------------------------


def test_poly_arith_examples():
    x = LaurentPoly.x
    assert (x(-1) + x(2, 3)).derivative() == x(-2, -1) + x(1, 6)
    one_plus_2x = LaurentPoly({0: 1, 1: 2})
    assert one_plus_2x * one_plus_2x == LaurentPoly({0: 1, 1: 4, 2: 4})
    assert (x(1) + x(1, -1)).is_zero


coeff_maps = st.dictionaries(
    st.integers(-8, 8), st.fractions(-50, 50, max_denominator=12).filter(bool), max_size=7
)


def cauchy_product(a, b):
    """Slow reference: each output coefficient summed over its exponent pairs."""
    if not a or not b:
        return {}
    out = {}
    for e in range(min(a) + min(b), max(a) + max(b) + 1):
        v = sum((a[e1] * b.get(e - e1, 0) for e1 in a), F(0))
        if v:
            out[e] = v
    return out


@given(a=coeff_maps, b=coeff_maps)
def test_product_matches_fraction_convolution(a, b):
    prod = LaurentPoly(a) * LaurentPoly(b)
    assert prod.coeffs == cauchy_product(a, b)
    assert all(prod.coeffs.values())


@given(
    acc=st.dictionaries(st.integers(-8, 8), st.integers(-99, 99), max_size=7),
    a=st.dictionaries(st.integers(-4, 4), st.integers(-99, 99), max_size=4),
    b=st.dictionaries(st.integers(-8, 8), st.integers(-(10**20), 10**20), max_size=7),
)
def test_mul_acc_adds_the_scaled_product_in_place(acc, a, b):
    want = dict(acc)
    for e, v in cauchy_product(a, b).items():
        want[e] = want.get(e, 0) + v
    _mul_acc(acc, a, b)
    assert {e: v for e, v in acc.items() if v} == {e: v for e, v in want.items() if v}


def test_poly_pow():
    f = LaurentPoly({0: 1, 1: 1})
    assert f**3 == LaurentPoly({0: 1, 1: 3, 2: 3, 3: 1})
    assert f**0 == LaurentPoly.one()
    assert LaurentPoly.x(2, 3) ** -2 == LaurentPoly({-4: F(1, 9)})
    with pytest.raises(InputError):
        f**-1


def test_substitute_power():
    f = LaurentPoly({-1: 2, 3: 5})
    assert f.substitute_power(2) == LaurentPoly({-2: 2, 6: 5})


# -- gauss norms -------------------------------------------------------------


def test_gauss_norm_examples():
    assert gauss_norm(P("2 + x"), 0, 2) == 0
    assert gauss_norm(P("x^-1 + 4*x"), 1, 2) == -1
    # quotient: expand (1+2x)^2 = 1 + 4x + 4x^2, both norms 0 at rho=0
    assert gauss_norm(P("(1+2*x)^2/(2+x)"), 0, 2) == 0


def test_gauss_norm_zero_is_none():
    assert gauss_norm(LaurentPoly.zero(), 0, 2) is None
    assert gauss_norm(RationalFunction.zero(), 1, 3) is None


def test_gauss_norm_multiplicative():
    rng = random.Random(101)
    for _ in range(150):
        f, g = rand_laurent(rng), rand_laurent(rng)
        p = rng.choice([2, 3, 5])
        rho = F(rng.randint(-8, 8), rng.randint(1, 4))
        assert gauss_norm(f * g, rho, p) == gauss_norm(f, rho, p) + gauss_norm(g, rho, p)


def test_gauss_norm_subadditive():
    rng = random.Random(102)
    for _ in range(150):
        f, g = rand_laurent(rng), rand_laurent(rng)
        p = rng.choice([2, 3, 5])
        rho = F(rng.randint(-4, 4))
        if (f + g).is_zero:
            continue  # |0| lies below every norm
        nf, ng = gauss_norm(f, rho, p), gauss_norm(g, rho, p)
        ns = gauss_norm(f + g, rho, p)
        assert ns <= max(nf, ng)
        if nf != ng:
            assert ns == max(nf, ng)


def test_gauss_norm_derivative_bound():
    rng = random.Random(103)
    for _ in range(150):
        f = rand_laurent(rng)
        p = rng.choice([2, 3, 5])
        rho = F(rng.randint(-4, 4), rng.randint(1, 3))
        nd = gauss_norm(f.derivative(), rho, p)
        assert nd is None or nd <= gauss_norm(f, rho, p) + (-rho)  # None: f constant


def test_gauss_norm_convex_in_rho():
    rng = random.Random(104)
    for _ in range(100):
        f = rand_laurent(rng)
        p = rng.choice([2, 3])
        r1 = F(rng.randint(-6, 5))
        r2 = r1 + rng.randint(1, 4)
        mid = (r1 + r2) / 2
        n1, n2, nm = (gauss_norm(f, r, p) for r in (r1, r2, mid))
        assert nm * 2 <= n1 + n2


def test_gauss_norm_quotient_needs_nonzero_den():
    with pytest.raises(InputError):
        RationalFunction(LaurentPoly.one(), LaurentPoly.zero())


# -- newton polygons and poles ------------------------------------------------


def test_newton_root_logmags_examples():
    # x - 2 over Q_2: root 2 has log-magnitude -1
    assert newton_root_logmags(LaurentPoly({0: -2, 1: 1}), 2) == [(F(-1), 1)]
    # x^2 - 6x + 8 = (x-2)(x-4): log-magnitudes -2 and -1
    f = LaurentPoly({0: 8, 1: -6, 2: 1})
    assert newton_root_logmags(f, 2) == [(F(-2), 1), (F(-1), 1)]
    # monomials have no nonzero roots
    assert newton_root_logmags(LaurentPoly.x(5, 3), 2) == []


def lower_polygon_reference(f, p):
    """Slopes of the lower Newton polygon of (n, v_p(a_n)), the direct way."""
    pts = sorted((e, -log_abs(v, p)) for e, v in f.coeffs.items())
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return [(F(y2 - y1, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


@given(
    coeffs=st.dictionaries(
        st.integers(-8, 12),
        st.fractions(max_denominator=10**6).filter(bool),
        min_size=1,
        max_size=12,
    ),
    p=st.sampled_from([2, 3, 5, 7]),
)
def test_newton_root_logmags_matches_lower_polygon(coeffs, p):
    f = LaurentPoly(coeffs)
    assert newton_root_logmags(f, p) == lower_polygon_reference(f, p)


def test_newton_root_logmags_planted():
    rng = random.Random(105)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        roots = [
            F(rng.choice([1, 3, 5]) * p ** rng.randint(0, 3), p ** rng.randint(0, 3))
            for _ in range(rng.randint(1, 4))
        ]
        poly = LaurentPoly.one()
        for r in roots:
            poly = poly * LaurentPoly({0: -r, 1: 1})
        got = sorted(
            [s for s, mult in newton_root_logmags(poly, p) for _ in range(mult)]
        )
        want = sorted(log_abs(r, p) for r in roots)
        assert got == want


def test_pole_free_examples():
    assert pole_free_on(P("1/x"), Interval(-5, 5), 2)
    assert not pole_free_on(P("1/(x-2)"), Interval(-2, 0), 2)
    assert pole_free_on(P("1/(x^2 - 6*x + 8)"), Interval(F(-3, 2), F(-5, 4)), 2)
    assert not pole_free_on(P("1/(x^2 - 6*x + 8)"), Interval(F(-5, 2), F(-3, 2)), 2)


def test_pole_free_reduces_first():
    # (x-2)/(x-2) has no pole anywhere once reduced
    f = P("(x-2)/(x-2)")
    assert pole_free_on(f, Interval(-2, 0), 2)


def max_principle_holds(f, rho1, rho, rho2):
    """|f| at rho is at most the larger of the endpoint norms."""
    return gauss_norm(f, rho, 2) <= max(gauss_norm(f, rho1, 2), gauss_norm(f, rho2, 2))


def test_interval_max_principle():
    assert max_principle_holds(P("x"), -3, 0, 2)
    assert max_principle_holds(P("1 + x"), -1, 0, 1)
    assert max_principle_holds(P("(2 + x)/x"), -2, -1, 0)


def test_interval_max_principle_random():
    rng = random.Random(106)
    for _ in range(100):
        f = RationalFunction(rand_laurent(rng), rand_laurent(rng))
        r1 = F(rng.randint(-4, 3))
        r2 = r1 + rng.randint(1, 3)
        rho = r1 + (r2 - r1) * F(rng.randint(0, 4), 4)
        if not pole_free_on(f, Interval(r1 - 1, r2 + 1), 2):
            continue
        assert max_principle_holds(f, r1, rho, r2)


# -- reduction and equality ----------------------------------------------------


def test_equality_representation_independent():
    a = P("(1 - x^2)/(1 - x)")
    b = P("1 + x")
    assert a == b
    assert RationalFunction(LaurentPoly({1: 2}), LaurentPoly({0: 2})) == P("x")


def test_reduce_absorbs_monomial_denominator():
    r = P("1/(2*x)").reduce()
    assert r.den == LaurentPoly.one()
    assert r.num == LaurentPoly({-1: F(1, 2)})


def test_reduce_cancels_common_factor():
    r = P("(x^2 - 1)/(x - 1)").reduce()
    assert r.num == LaurentPoly({0: 1, 1: 1})
    assert r.den == LaurentPoly.one()


@settings(deadline=None)
@given(num=coeff_maps, den=coeff_maps.filter(bool), h=coeff_maps.filter(bool))
def test_reduce_returns_the_canonical_form(num, den, h):
    f = RationalFunction(LaurentPoly(num), LaurentPoly(den))
    r = f.reduce()
    assert r == f
    # a primitive integer denominator, leading coefficient positive, constant term nonzero
    coeffs = r.den.coeffs
    assert all(v.denominator == 1 for v in coeffs.values())
    assert math.gcd(*(v.numerator for v in coeffs.values())) == 1
    assert coeffs[max(coeffs)] > 0 and r.den.min_exp == 0
    if not r.is_zero:
        shifted = {e - r.num.min_exp: v for e, v in r.num.coeffs.items()}
        assert _poly_gcd(shifted, coeffs) == {0: 1}
    # idempotent, and the same dicts for f built another way
    assert r.reduce() is r
    h = LaurentPoly(h)
    for g in (RationalFunction(r.num, r.den), RationalFunction(f.num * h, f.den * h)):
        g = g.reduce()
        assert (g.num.coeffs, g.den.coeffs) == (r.num.coeffs, r.den.coeffs)


def test_rf_field_ops():
    f = P("1/(1+x)")
    g = P("x/(1+x)")
    assert f + g == RationalFunction.one()
    assert f * LaurentPoly({0: 1, 1: 1}) == RationalFunction.one()
    assert (f / f) == RationalFunction.one()
    assert (P("x") ** -2) == P("1/x^2")


def test_rf_derivative_quotient_rule():
    f = P("1/(1 - x)")
    # f' = 1/(1-x)^2
    assert f.derivative() == P("1/(1 - x)^2")


# -- parsing and printing -------------------------------------------------------


def test_parse_round_trip():
    rng = random.Random(107)
    for _ in range(80):
        f = RationalFunction(rand_laurent(rng), rand_laurent(rng))
        text = rf_to_str(f)
        assert parse_rational_function(text) == f


def test_parse_examples():
    assert P("(1 - x^2)/(4*x)") == RationalFunction(
        LaurentPoly({0: 1, 2: -1}), LaurentPoly({1: 4})
    )
    assert P("-x^2 + 3") == RationalFunction(LaurentPoly({0: 3, 2: -1}))
    assert P("x^-2") == P("1/x^2")
    assert P("2^3") == RationalFunction.constant(8)
    assert P("x^(-1)") == P("1/x")
    assert P("1/2 * x") == RationalFunction(LaurentPoly({1: F(1, 2)}))


def test_parse_variable_name():
    f = parse_rational_function("1/z", var="z")
    assert f == P("1/x")
    with pytest.raises(ParseError):
        parse_rational_function("1/z", var="x")


def test_parse_errors():
    for bad in ("", "1 +", "x^x", "(1", "1/*2", "x$"):
        with pytest.raises(ParseError):
            parse_rational_function(bad)


def test_power_size_is_predicted_before_expanding():
    # a monomial power stays legal however large its exponent
    assert P("x^100000") == RationalFunction(LaurentPoly.x(100000))
    assert P("(x/2)**-100") == RationalFunction(LaurentPoly.x(-100, 2**100))
    assert P("(1+x)^1000").num.coeff(500) == math.comb(1000, 500)
    # products are sized alike, and a monomial or constant factor adds no span
    assert P("7*x^13") == RationalFunction(LaurentPoly({13: 7}))
    assert P("x^3000*(1+x)") == RationalFunction(LaurentPoly({3000: 1, 3001: 1}))
    assert P("7*(1+x^2000)") == RationalFunction(LaurentPoly({0: 7, 2000: 7}))
    assert P("(1+x)^600*(1+x)^400").num.coeff(500) == math.comb(1000, 500)
    # an entry whose gcd needs no long run: one side monomial, or the narrower
    # spanning at most 80 with a gcd of integers of at most 8,000 digits
    assert P("(x^19999+1)/(x+1)").reduce().num.coeff(19998) == 1
    assert P("(1+x)^80/(1+2*x)^80").reduce().den.coeff(80) == 2**80
    assert P("(1+x)^1000/(2+x)").reduce().den == LaurentPoly({0: 2, 1: 1})
    assert P("(3+5*x+7*x^2)^40/(2+9*x+8*x^2)^40").den.coeff(80) == 8**40
    assert P("1/(1+x) + 1/(1+2*x)") == P("(2+3*x)/((1+x)*(1+2*x))")
    for bad, named in (
        ("(1/3)^10000", "4300 digits"),
        ("(1+x)^1001", "span more than 1000"),
        ("((1+x)^10)^101", "span more than 1000"),
        ("1/(x^2+2)^-501", "span more than 1000"),
        ("(1+x)^1000*(1+x)^1000", "product: exponents would span more than 1000"),
        ("(1+x)^1000/(1/(1+x)^1000)", "quotient: exponents would span more than 1000"),
        ("(1+x^600)*(1+x^401)", "product: exponents would span more than 1000"),
        ("(10^1000)^4*10^1000", "product: coefficients would pass 4300 digits"),
        # a sum over unequal denominators is sized by its cross products
        ("(1+x)^600/(1+2*x) + 1/(1+3*x)^401", "sum: exponents would span more than 1000"),
        ("(1+x)^81/(1+2*x)^81", "both span more than 80"),
        ("1/(1+x)^81 + 1/(1+3*x)", "both span more than 80"),
        ("(1+x)^400/(1+10^200*x)", "80120 digits, more than 8000"),
        ("(1+x)^800/(1+10^50*x)", "40241 digits, more than 8000"),
    ):
        with pytest.raises(ParseError, match=named):
            parse_rational_function(bad)
    # two random degree-20 polynomials with 1,000-digit coefficients (5 s to
    # reduce) are refused at once
    rng = random.Random(7)
    num, den = (
        "+".join(f"{rng.randrange(10**999, 10**1000)}*x^{e}" for e in range(21)) for _ in "nd"
    )
    with pytest.raises(ParseError, match="too large to reduce"):
        parse_rational_function(f"({num})/({den})")


def test_poly_to_str_formats():
    assert poly_to_str(LaurentPoly.zero()) == "0"
    assert poly_to_str(LaurentPoly({-1: F(3, 2), 1: -1, 0: 5})) == "3/2*x^-1 + 5 - x"
