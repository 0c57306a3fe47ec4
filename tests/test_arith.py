import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from padicdiff.arith import (
    Interval,
    Prime,
    as_prime,
    digit_sum,
    log_abs,
    min_valuation,
    padic_valuation,
    upper_hull,
)
from padicdiff.errors import InputError


def test_log_abs_examples():
    assert log_abs(12, 2) == -2  # |12|_2 = 1/4
    assert log_abs(F(5, 6), 3) == 1  # |5/6|_3 = 3
    with pytest.raises(InputError):
        log_abs(0, 2)  # |0| has no finite logarithm


def test_log_pi():
    assert Prime(2).log_pi == F(-1)
    assert Prime(3).log_pi == F(-1, 2)
    assert Prime(5).log_pi == F(-1, 4)


def test_prime_validation():
    with pytest.raises(InputError):
        Prime(4)
    with pytest.raises(InputError):
        Prime(1)
    Prime(97)


def naive_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


@given(n=st.integers(-5, 2 * 10**6))
@example(n=2047)  # strong pseudoprime to base 2
@example(n=1373653)  # strong pseudoprime to bases 2 and 3
@example(n=37)
@example(n=41)
def test_prime_matches_trial_division(n):
    if naive_is_prime(n):
        assert Prime(n).p == n
    else:
        with pytest.raises(InputError):
            Prime(n)


def test_as_prime_shares_one_instance_per_int():
    # the word-power table is cached on the instance, so int callers share it
    assert as_prime(7) is as_prime(7) is as_prime(as_prime(7))
    assert as_prime(7)._word_power is as_prime(7)._word_power
    for _ in range(2):  # a rejected value is rejected every time
        with pytest.raises(InputError):
            as_prime(8)


def test_large_primes_are_fast_and_exact():
    # trial division up to sqrt(p) would take minutes here
    for p in (1000000000000000003, 318665857834031151167441):
        assert Prime(p).p == p
    # 3825123056546413051 is a strong pseudoprime to the bases 2 to 23
    for n in (3825123056546413051, 1000000000000000003 * 1000003):
        with pytest.raises(InputError):
            Prime(n)
    # a strong pseudoprime to all twelve bases: exactness ends there
    with pytest.raises(InputError, match="below"):
        Prime(318665857834031151167461)


def test_valuation_of_zero_rejected():
    with pytest.raises(InputError):
        padic_valuation(0, 2)
    for values in ([0], [0, 0], []):
        with pytest.raises(InputError):
            min_valuation(values, 3)


def naive_valuation(n, p):
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# the exponent of the word power W = 3^K3 that starts the ladder for p = 3
K3 = Prime(3)._word_power[1][Prime(3)._word_power[0]]


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 97]),
    k=st.integers(0, 300),
    unit=st.integers(-(10**9), 10**9).filter(bool),
    as_prime_obj=st.booleans(),
)
@example(p=5, k=150, unit=-3, as_prime_obj=True)
@example(p=2, k=257, unit=-1, as_prime_obj=False)
# v = k: one rung up; 2k - 1: one rung and the largest rest the gcd table
# reads; 2k: one rung up and one down; 4k + 1: two up, one down and a rest of 1
@example(p=3, k=K3, unit=1, as_prime_obj=True)
@example(p=3, k=2 * K3 - 1, unit=-2, as_prime_obj=True)
@example(p=3, k=2 * K3, unit=5, as_prime_obj=False)
@example(p=3, k=4 * K3 + 1, unit=-7, as_prime_obj=True)
def test_padic_valuation_matches_repeated_division(p, k, unit, as_prime_obj):
    n = unit * p**k
    assert padic_valuation(n, Prime(p) if as_prime_obj else p) == naive_valuation(n, p)


MERSENNE_61 = 2**61 - 1  # above 2^60, so its word power is p itself


@given(
    p=st.sampled_from([2, 3, 5, 7, MERSENNE_61]),
    base=st.integers(0, 130),
    terms=st.lists(
        st.tuples(st.integers(-(10**30), 10**30).filter(bool), st.integers(0, 40)),
        min_size=1,
        max_size=8,
    ),
)
# every value divisible by the word power p^k (k = 59, 37, 1): the fallback runs
@example(p=2, base=60, terms=[(1, 0), (-3, 5)])
@example(p=3, base=38, terms=[(-1, 0)])
@example(p=MERSENNE_61, base=2, terms=[(5, 0), (7, 3)])
# the minimum is exactly k: the gcd equals the word power, and the fallback runs too
@example(p=7, base=21, terms=[(1, 0), (2, 0)])
def test_min_valuation_matches_the_minimum_of_valuations(p, base, terms):
    """Values unit * p^(base + extra): negative, single and, for base past the
    word power's exponent, all on the gcd fallback."""
    values = [unit * p ** (base + extra) for unit, extra in terms]
    assert min_valuation(values, p) == min(padic_valuation(v, p) for v in values)
    assert min_valuation(values, Prime(p)) == min_valuation(values, p)


@st.composite
def int_points(draw):
    """Sorted (x, y) integer points with distinct x: random scatter, plus an
    optional collinear run; a single point and negative x included."""
    pts = dict(
        draw(st.lists(st.tuples(st.integers(-60, 60), st.integers(-500, 500)), min_size=1, max_size=30))
    )
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(-60, 60)), draw(st.integers(-500, 500))
        slope = draw(st.integers(-20, 20))
        for i in range(draw(st.integers(1, 12))):
            pts[x0 + i] = y0 + slope * i
    return sorted(pts.items())


rationals = st.one_of(
    st.fractions(-20, 20, max_denominator=64),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@given(points=int_points(), rho=rationals)
def test_upper_hull_evaluation_equals_brute_force_max(points, rho):
    hull = upper_hull(points)
    assert set(hull) <= set(points)
    slopes = [F(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    assert all(s > t for s, t in zip(slopes, slopes[1:]))  # strict vertices only
    brute = max(y + x * rho for x, y in points)
    assert max(y + x * rho for x, y in hull) == brute
    a, b = rho.numerator, rho.denominator
    assert F(max(b * y + a * x for x, y in hull), b) == brute


def nonzero_rational(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 500), rng.randint(1, 500))


def test_product_rule_exact():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        a, b = nonzero_rational(rng), nonzero_rational(rng)
        assert log_abs(a * b, p) == log_abs(a, p) + log_abs(b, p)


def test_ultrametric_inequality():
    rng = random.Random(8)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        a, b = nonzero_rational(rng), nonzero_rational(rng)
        if a + b == 0:
            continue  # |0| lies below every magnitude
        na, nb, ns = log_abs(a, p), log_abs(b, p), log_abs(a + b, p)
        assert ns <= max(na, nb)
        if na != nb:
            assert ns == max(na, nb)


def test_digit_sum_matches_legendre():
    # Legendre: v_p(n!) = sum of floor(n / p^k) = (n - s_p(n)) / (p - 1)
    for p in (2, 3, 5):
        for n in range(0, 60):
            v = 0
            q = p
            while q <= n:
                v += n // q
                q *= p
            assert digit_sum(n, p) == n - v * (p - 1)


def test_interval_basics():
    iv = Interval(F(-1), F(2))
    assert iv.contains(0)
    assert not iv.contains(-1)
    assert iv.contains(-1, closed=True)
    assert iv.midpoint == F(1, 2)
    grid = iv.interior_grid(5)
    assert len(grid) == 5
    assert all(iv.contains(r) for r in grid)
    assert grid == sorted(grid)


def test_interval_degenerate_rejected():
    with pytest.raises(InputError):
        Interval(1, 1)
    with pytest.raises(InputError):
        Interval(2, 1)


def test_interval_remove_points():
    iv = Interval(0, 4)
    pieces = iv.remove_points([F(1), F(3), F(9)])
    assert [(p.lo, p.hi) for p in pieces] == [(0, 1), (1, 3), (3, 4)]
    assert iv.remove_points([]) == [iv]


def test_interval_scaled():
    iv = Interval(-2, 4).scaled(F(1, 2))
    assert (iv.lo, iv.hi) == (-1, 2)
