import gc
import math
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from padicdiff import arith
from padicdiff.arith import Interval, Prime, log_abs, padic_valuation
from padicdiff.diagnostics import bounded_report
from padicdiff.diffmod import (
    DiffModule,
    RecursionState,
    RFMatrix,
    companion_of,
    frobenius_pullback,
    gauge_transform,
    gn_sequence,
    norm_sequence,
)
from padicdiff.errors import BudgetExceededError, DomainError, InputError, InvalidGaugeError
from padicdiff.laurent import LaurentPoly, RationalFunction, gauss_norm, parse_rational_function
from padicdiff.radius import least_squares_line, radius_estimate, tail_window

P2 = Prime(2)
I01 = Interval(0, 1)


def P(text, var="x"):
    return parse_rational_function(text, var)


def scalar_module(text, p=2, interval=I01):
    return DiffModule(Prime(p), RFMatrix([[P(text)]]), interval)


def rand_rf(rng):
    num = LaurentPoly({e: rng.randint(-4, 4) for e in range(rng.randint(1, 4))})
    dens = [
        LaurentPoly.one(),
        LaurentPoly.x(),
        LaurentPoly({0: rng.randint(1, 3), 1: 1}),
        LaurentPoly({0: rng.randint(1, 3), 2: 1}),
    ]
    return RationalFunction(num, rng.choice(dens))


# -- matrices -----------------------------------------------------------------


def test_matrix_identity_inverse():
    rows = [["1", "x"], ["0", "1"]]
    H = RFMatrix.from_strings(rows)
    Hinv = H.inverse()
    assert H @ Hinv == RFMatrix.identity(2)
    assert H.det() == RationalFunction.one()


def test_matrix_det_3x3():
    H = RFMatrix.from_strings([["1", "0", "2"], ["0", "x", "0"], ["1", "0", "1"]])
    assert H.det() == P("-x")


def test_singular_inverse_raises():
    H = RFMatrix.from_strings([["1", "1"], ["1", "1"]])
    with pytest.raises(InvalidGaugeError):
        H.inverse()


def test_module_requires_square():
    with pytest.raises(InputError):
        DiffModule(P2, RFMatrix.from_strings([["1", "2"]]), I01)


def test_pole_detection():
    m = DiffModule(P2, RFMatrix([[P("1/(x-2)")]]), Interval(-2, 0))
    assert m.pole_violations() == [(0, 0)]
    assert not m.is_pole_free
    with pytest.raises(InputError):
        m.validate()
    assert scalar_module("1/x").is_pole_free


# -- gauge transforms ------------------------------------------------------------


def test_gauge_identity_fixes_matrix():
    m = scalar_module("1/(2*x)")
    out = gauge_transform(m, RFMatrix.identity(1))
    assert out.matrix == m.matrix


def test_gauge_scalar_example():
    # rank 1, H = (x): result is g + 1/x
    m = scalar_module("1/(2*x)")
    out = gauge_transform(m, RFMatrix([[P("x")]]))
    assert out.matrix.entry(0, 0) == P("1/(2*x) + 1/x")


def test_gauge_residual_identity():
    rng = random.Random(5)
    q = [P("1/x"), P("2 + x")]
    m = companion_of(P2, q, I01)
    for _ in range(10):
        H = RFMatrix.identity(2)
        for _ in range(3):
            i, j = rng.sample([0, 1], 2)
            entry = LaurentPoly.x(rng.randint(0, 2), rng.choice([-2, -1, 1, 2]))
            E = [[RationalFunction.one(), RationalFunction.zero()],
                 [RationalFunction.zero(), RationalFunction.one()]]
            E[i][j] = RationalFunction(entry)
            H = H @ RFMatrix(E)
        out = gauge_transform(m, H)
        # H[G]*H == H*G + H' exactly
        assert out.matrix @ H == H @ m.matrix + H.derivative()


def test_gauge_singular_rejected():
    m = scalar_module("0")
    with pytest.raises(InvalidGaugeError):
        gauge_transform(m, RFMatrix([[RationalFunction.zero()]]))


def test_gauge_can_introduce_poles():
    m = DiffModule(P2, RFMatrix.diagonal([P("1"), P("1")]), Interval(-2, 0))
    H = RFMatrix.from_strings([["x - 2", "0"], ["0", "1"]])
    out = gauge_transform(m, H)
    assert not out.is_pole_free  # picks up 1/(x-2)


# -- taylor recursion --------------------------------------------------------------


def test_gn_zero_module():
    m = scalar_module("0")
    for n in range(1, 9):
        assert gn_sequence(m, n).term_matrix().is_zero


def test_gn_constant_scalar():
    m = scalar_module("3")
    for n in range(7):
        assert gn_sequence(m, n).term_matrix() == RFMatrix([[RationalFunction.constant(3**n)]])


def test_gn_euler_closed_form():
    # G = (a/x): G_n = a(a-1)...(a-n+1) / x^n
    a = F(1, 2)
    m = scalar_module("1/(2*x)")
    coeff = F(1)
    for n in range(7):
        want = RationalFunction(LaurentPoly({-n: coeff}) if coeff else LaurentPoly.zero())
        assert gn_sequence(m, n).term_matrix() == RFMatrix([[want]])
        coeff *= a - n
    # a = 1 kills the sequence at n = 2
    m2 = scalar_module("1/x")
    assert gn_sequence(m2, 1).term_matrix() == RFMatrix([[P("1/x")]])
    assert gn_sequence(m2, 2).term_matrix().is_zero
    assert gn_sequence(m2, 3).term_matrix().is_zero


def test_gn_matches_direct_recursion():
    rng = random.Random(11)
    for _ in range(8):
        mu = rng.randint(1, 3)
        G = RFMatrix([[rand_rf(rng) for _ in range(mu)] for _ in range(mu)])
        m = DiffModule(Prime(rng.choice([2, 3])), G, I01)
        direct = RFMatrix.identity(mu)
        for n in range(6):
            assert gn_sequence(m, n).term_matrix() == direct
            direct = (direct.derivative() + direct @ G).reduced()


laurent_nums = st.dictionaries(
    st.integers(-2, 3), st.fractions(-9, 9, max_denominator=4).filter(bool), max_size=3
).map(LaurentPoly)
# denominators of the Q != 1 side; the monomials of the other side are absorbed
# into the Laurent numerators, which leaves Q = 1
den_factors = st.sampled_from(["x", "x^2", "1 + x", "3 - x^2", "2*x + 9", "1 + x + 5*x^2"])


@st.composite
def small_modules(draw):
    """Rank 1-2 modules; Q = 1 or non-monomial, entry (0, 0) forcing the latter.
    Half are ramification pullbacks, whose exponents lie on a stride g >= p."""
    mu = draw(st.integers(1, 2))
    general = draw(st.booleans())
    pool = den_factors if general else st.sampled_from(["1", "x", "x^3"])
    rows = [
        [RationalFunction(draw(laurent_nums), P(draw(pool)).num) for _ in range(mu)]
        for _ in range(mu)
    ]
    if general:
        const = LaurentPoly.constant(draw(st.integers(1, 9)))
        rows[0][0] = RationalFunction(const, P("1 + 2*x").num)
    m = DiffModule(Prime(draw(st.sampled_from([2, 3, 5]))), RFMatrix(rows), I01)
    return (frobenius_pullback(m, 1) if draw(st.booleans()) else m), general


def test_term_matrix_matches_rfmatrix_recursion():
    strides = []

    @settings(max_examples=40, deadline=None)
    @given(case=small_modules())
    def check(case):
        m, general = case
        state = gn_sequence(m, 0)
        assert (state.Q == LaurentPoly.one()) != general
        strides.append(state._g)
        direct = RFMatrix.identity(m.rank)
        for n in range(5):
            assert gn_sequence(m, n).term_matrix() == direct
            direct = (direct.derivative() + direct @ m.matrix).reduced()

    check()
    assert any(g > 1 for g in strides), strides


def test_gn_invariant_p_over_q():
    # G_n = P(n)/Q^n holds by construction; spot-check entries
    m = DiffModule(P2, RFMatrix([[P("1/(1+x)"), P("2")], [P("0"), P("x/(1+x)")]]), I01)
    assert gn_sequence(m, 0).Q == LaurentPoly({0: 1, 1: 1})
    for n in range(5):
        state = gn_sequence(m, n)
        pn = state.P()
        qn = state.Q**n
        for i in range(2):
            for j in range(2):
                assert RationalFunction(pn[i][j], qn) == state.term_matrix().entry(i, j)


def test_budget_guard():
    m = DiffModule(P2, RFMatrix([[P("1 + x")]]), I01)
    with pytest.raises(BudgetExceededError):
        gn_sequence(m, 2000, budget=500)


def test_cached_state_honours_the_budget_of_each_call():
    m = scalar_module("3")  # one stored coefficient per step
    gn_sequence(m, 4)
    with pytest.raises(BudgetExceededError):
        gn_sequence(m, 2000, budget=500)


def test_dropped_module_frees_its_state_without_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        m = DiffModule(P2, RFMatrix([[P("1/(1+x)"), P("2")], [P("0"), P("x")]]), I01)
        state = weakref.ref(gn_sequence(m, 8))
        assert state() is not None
        del m
        assert state() is None
    finally:
        if was_enabled:
            gc.enable()



def deep_rank3_module():
    """The rank-3 companion module of the benchmark, denominator 1 + x."""
    rows = [["0", "1", "0"], ["0", "0", "1"], ["1/(1+x)", "x", "2/x"]]
    return DiffModule(Prime(3), RFMatrix.from_strings(rows), Interval(F(1, 2), 1))


def sparse_module():
    """The sparse module of the benchmark; its pullback at p = 7 has stride 7."""
    return DiffModule(Prime(7), RFMatrix.from_strings([["0", "1"], ["1/x", "1+x"]]),
                      Interval(F(-1, 2), F(1, 2)))


@pytest.mark.parametrize(
    "module, stopped",
    [
        # a companion module: only row 0 of each S_n is computed and counted
        pytest.param(deep_rank3_module, "stopped at n=75: 20181 coefficients",
                     id="deep-rank3"),
        pytest.param(lambda: frobenius_pullback(sparse_module(), 1),
                     "stopped at n=71: 20029 coefficients", id="pulled-sparse"),
    ],
)
def test_budget_stops_at_the_same_step(module, stopped):
    # the budget counts nonzero coefficients, not the zeros inside the dense lists
    with pytest.raises(BudgetExceededError, match=stopped):
        gn_sequence(module(), 500, budget=20_000)


def test_state_holds_one_step_not_the_history():
    # every S_n to depth 96 would hold about 11 MB; one S_n and the hulls well under 2
    tracemalloc.start()
    try:
        m = deep_rank3_module()
        gn_sequence(m, 96)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m._state.depth == 96
    assert held < 2 * 2**20, f"{held / 2**20:.2f} MB held"


def test_extending_in_two_calls_matches_one_call():
    split, whole = deep_rank3_module(), deep_rank3_module()
    gn_sequence(split, 24)
    two_calls = gn_sequence(split, 48)
    one_call = gn_sequence(whole, 48)
    for rho in (F(1, 2), F(9, 16), F(3, 4), F(15, 16), 1):
        for include_factorial in (True, False):
            assert as_fractions(two_calls.log_norms(rho, 48, include_factorial)) == as_fractions(
                one_call.log_norms(rho, 48, include_factorial)
            )


def as_fractions(norms):
    """The (nums, den) of ``RecursionState.log_norms`` as Fractions, None kept."""
    nums, den = norms
    return [None if v is None else F(v, den) for v in nums]


# -- norm sequences ------------------------------------------------------------------


def test_norm_sequence_zero_module():
    seq = norm_sequence(scalar_module("0"), 0, 8)
    assert seq[0] == 0
    assert all(v is None for v in seq[1:])


def test_norm_sequence_entry0_always_zero():
    rng = random.Random(12)
    for _ in range(5):
        m = DiffModule(P2, RFMatrix([[rand_rf(rng)]]), I01)
        assert norm_sequence(m, F(1, 2), 4)[0] == 0


def test_norm_sequence_exp_legendre():
    # G = (1), p = 2, rho = 0: entry n is n - s_2(n)
    seq = norm_sequence(scalar_module("1"), 0, 16)
    for n in range(17):
        assert seq[n] == F(n - bin(n).count("1"))


def test_norm_sequence_euler_closed_form():
    # G = (1/(2x)), p = 2, rho = 0: entry n is n + (n - s_2(n))
    m = scalar_module("1/(2*x)", interval=Interval(-1, 1))
    seq = norm_sequence(m, 0, 16)
    for n in range(17):
        assert seq[n] == F(n + n - bin(n).count("1"))


def test_norm_sequence_respects_interval_closure():
    m = scalar_module("1")
    norm_sequence(m, 1, 4)  # closure endpoint allowed
    with pytest.raises(DomainError):
        norm_sequence(m, 2, 4)


def test_norm_sequence_unnormalized_flag():
    seq = norm_sequence(scalar_module("1"), 0, 8, include_factorial=False)
    assert all(v == 0 for v in seq)


def test_each_norm_query_is_one_log_norms_call(monkeypatch):
    # perfbench/tracer.py counts norm queries by wrapping RecursionState.log_norms
    # and reads the depth as its third positional argument
    calls = []
    original = RecursionState.log_norms

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(RecursionState, "log_norms", counting)
    m = DiffModule(Prime(5), RFMatrix.from_strings([["x", "1/(1+2*x^2)"], ["3", "x^-1"]]),
                   Interval(F(1, 2), 2))
    for query in (
        lambda: radius_estimate(m, 1, 20),
        lambda: bounded_report(m, 1, 20, F(-1, 3)),
        lambda: norm_sequence(m, 1, 20),
    ):
        calls.clear()
        query()
        assert len(calls) == 1
        args, kwargs = calls[0]
        assert len(args) >= 3 and args[2] == 20 and "depth" not in kwargs


@settings(max_examples=40, deadline=None)
@given(
    case=small_modules(),
    t=st.fractions(0, 1, max_denominator=60).filter(lambda t: 0 < t < 1),
    drop=st.fractions(0, 2, max_denominator=12),
    float_log_r=st.booleans(),
    depth=st.integers(16, 24),
    include_factorial=st.booleans(),
)
def test_integer_norm_readers_match_the_fraction_sequence(
    case, t, drop, float_log_r, depth, include_factorial
):
    """radius_estimate and bounded_report read the integer numerators of
    log_norms; the slow path is the Fraction sequence of norm_sequence."""
    m, _ = case
    rho = m.interval.lo + t * m.interval.width
    seq = norm_sequence(m, rho, depth, include_factorial)
    window = tail_window(seq, depth)

    est = radius_estimate(m, rho, depth, include_factorial=include_factorial)
    tail_min = min([rho] + [-b / n for n, b in window])
    assert est.tail_min == tail_min
    if len(window) >= 2:
        slope = least_squares_line([(float(n), float(b)) for n, b in window])[0]
        assert est.tail_slope == slope
        assert est.discrepancy == abs(float(tail_min) - min(float(rho), -slope))
    else:
        assert est.tail_slope is None and est.discrepancy == 0

    log_r = rho - drop
    log_r = float(log_r) if float_log_r and float(log_r) <= rho else log_r
    values = bounded_report(m, rho, depth, log_r).values
    normalized = seq if include_factorial else norm_sequence(m, rho, depth)
    mult = F(log_r)
    assert values == tuple(None if b is None else b + n * mult for n, b in enumerate(normalized))


def assert_matches_the_slow_path(m, rho, depth=12):
    """term_matrix() against the RFMatrix recursion for n <= 5, and log_norms
    against the Gauss norms of P() to ``depth``, with and without n!, each on
    a state of its own, read as it grows."""
    grown = DiffModule(m.p, m.matrix, m.interval)
    direct = RFMatrix.identity(m.rank)
    for n in range(6):
        assert gn_sequence(grown, n).term_matrix() == direct
        direct = (direct.derivative() + direct @ m.matrix).reduced()
    grown = DiffModule(m.p, m.matrix, m.interval)
    numerators = [gn_sequence(grown, n).P() for n in range(depth + 1)]
    state = gn_sequence(grown, depth)
    for include_factorial in (True, False):
        want = brute_force_log_norms(state, numerators, rho, include_factorial)
        assert as_fractions(state.log_norms(rho, depth, include_factorial)) == want


@st.composite
def companion_modules(draw):
    """Companion modules of rank 1-3, coefficients from the Laurent numerator
    and denominator pools (or denominator 1)."""
    mu = draw(st.integers(1, 3))
    pool = st.one_of(den_factors, st.just("1"))
    q = [RationalFunction(draw(laurent_nums), P(draw(pool)).num) for _ in range(mu)]
    return companion_of(draw(st.sampled_from([2, 3, 5])), q, I01)


@settings(max_examples=30, deadline=None)
@given(m=companion_modules(), rho=st.fractions(0, 1, max_denominator=12))
def test_companion_row_zero_matches_the_full_recursion(m, rho):
    # row i of G_n is row 0 of G_(n+i): the state computes row 0 alone
    assert gn_sequence(m, 0)._lag == m.rank
    assert_matches_the_slow_path(m, rho)


@pytest.mark.parametrize(
    "rows, p, pulled",
    [
        ([["0", "2", "0"], ["0", "0", "2"], ["1/(1+x)", "x", "2/x"]], 3, False),
        ([["0", "1", "x"], ["0", "0", "1"], ["1/(1+x)", "x", "2/x"]], 3, False),
        ([["0", "1"], ["1/(1+x)", "3"]], 2, True),
    ],
    ids=["superdiagonal-2", "extra-entry", "pulled-companion"],
)
def test_near_companion_modules_compute_every_row(rows, p, pulled):
    m = DiffModule(Prime(p), RFMatrix.from_strings(rows), I01)
    if pulled:
        assert gn_sequence(m, 0)._lag == m.rank
        m = frobenius_pullback(m, 1)
    assert gn_sequence(m, 0)._lag == 1
    assert_matches_the_slow_path(m, F(1, 3))


@pytest.fixture(scope="module")
def wide_state():
    """Rank-2 module with a non-monomial denominator, its state to depth 24,
    and the numerators P() with G_n = P() / Q^n, read as the state grows."""
    m = DiffModule(Prime(5), RFMatrix.from_strings([["x", "1/(1+2*x^2)"], ["3", "x^-1"]]),
                   Interval(F(1, 2), 2))
    numerators = [gn_sequence(m, n).P() for n in range(25)]
    return gn_sequence(m, 24), numerators


@pytest.fixture(scope="module")
def pulled_state():
    """The pullback (p = 7, h = 1) of a sparse module: every exponent of S_n
    lies in one class mod the stride g = 7.  Its state to depth 32, past the
    word power 7^22 of ``min_valuation``, and the numerators P()."""
    m = frobenius_pullback(sparse_module(), 1)
    numerators = [gn_sequence(m, n).P() for n in range(33)]
    assert m._state._g == 7
    return gn_sequence(m, 32), numerators


@given(
    rho=st.one_of(
        st.fractions(F(1, 2), 2, max_denominator=40),
        st.builds(F, st.integers(10**12, 2 * 10**12), st.just(10**12 + 7)),
    ),
    include_factorial=st.booleans(),
)
def test_log_norms_match_brute_force_gauss_norms(wide_state, pulled_state, rho, include_factorial):
    # the pulled state at rho - 5/4, in (-3/4, 3/4): both ends of its hulls
    for (state, numerators), r in ((wide_state, rho), (pulled_state, rho - F(5, 4))):
        depth = len(numerators) - 1
        assert as_fractions(state.log_norms(r, depth, include_factorial)) == brute_force_log_norms(
            state, numerators, r, include_factorial
        )


def brute_force_log_norms(state, numerators, rho, include_factorial):
    p = state.p
    q_norm = state.Q.gauss_norm(rho, p)
    want = []
    for n, pn in enumerate(numerators):
        norms = [gauss_norm(c, rho, p) for row in pn for c in row if not c.is_zero]
        if not norms:
            want.append(None)
            continue
        val = max(norms) - n * q_norm
        want.append(val - log_abs(math.factorial(n), p) if include_factorial else val)
    return want


@pytest.fixture(scope="module")
def word_power_state():
    """G = (3^40) at p = 3: S_n = 3^(40n), so for n >= 1 every coefficient is
    divisible by the word power 3^37 of ``min_valuation``.  The hulls are
    built under a counting ``padic_valuation`` to see that its fallback ran."""
    m = scalar_module(str(3**40), p=3)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "padic_valuation", lambda n, p: calls.append(n) or padic_valuation(n, p))
        numerators = [gn_sequence(m, n).P() for n in range(13)]
    return gn_sequence(m, 12), numerators, calls


@given(rho=st.fractions(-3, 3, max_denominator=40), include_factorial=st.booleans())
def test_log_norms_past_the_word_power_match_gauss_norms(word_power_state, rho, include_factorial):
    state, numerators, calls = word_power_state
    assert calls == [3 ** (40 * n) for n in range(1, 13)]
    assert as_fractions(state.log_norms(rho, 12, include_factorial)) == brute_force_log_norms(
        state, numerators, rho, include_factorial
    )


# -- ramification pullback -------------------------------------------------------------


def test_pullback_examples():
    z = scalar_module("0", interval=Interval(-2, 2))
    assert frobenius_pullback(z, 1).matrix.is_zero
    one = scalar_module("1", interval=Interval(-2, 2))
    g = frobenius_pullback(one, 1)
    assert g.matrix.entry(0, 0) == P("2*x")
    assert (g.interval.lo, g.interval.hi) == (-1, 1)
    inv = scalar_module("1/x", interval=Interval(-2, 2))
    assert frobenius_pullback(inv, 1).matrix.entry(0, 0) == P("2/x")


def test_pullback_twice():
    one = scalar_module("1", interval=Interval(-4, 4))
    g = frobenius_pullback(one, 2)
    assert g.matrix.entry(0, 0) == P("4*x^3")
    assert (g.interval.lo, g.interval.hi) == (-1, 1)


def test_pullback_norm_identity():
    # |F| at p*rho equals |F(x^p)| at rho
    rng = random.Random(13)
    for _ in range(40):
        f = RationalFunction(
            LaurentPoly({e: rng.randint(-9, 9) for e in range(-2, 3)}),
            LaurentPoly({0: 1, 1: rng.randint(1, 5)}),
        )
        p = rng.choice([2, 3])
        rho = F(rng.randint(-6, 6), rng.randint(1, 3))
        assert gauss_norm(f, p * rho, p) == gauss_norm(f.substitute_power(p), rho, p)


def test_pullback_h_must_be_positive():
    with pytest.raises(InputError):
        frobenius_pullback(scalar_module("1"), 0)


# -- companion matrices ------------------------------------------------------------------


def test_companion_rank1():
    m = companion_of(P2, [P("-1/4")], I01)
    assert m.matrix.entry(0, 0) == P("1/4")


def test_companion_rank2_example():
    m = companion_of(P2, [P("0"), P("-1")], I01)
    assert m.matrix == RFMatrix.from_strings([["0", "1"], ["1", "0"]])


def test_companion_rank3_shape():
    q = [P("x"), P("2"), P("1/x")]
    m = companion_of(P2, q, I01)
    rows = m.matrix.rows
    assert rows[0][1] == RationalFunction.one() and rows[1][2] == RationalFunction.one()
    assert rows[0][0].is_zero and rows[0][2].is_zero and rows[1][0].is_zero
    assert [rows[2][j] for j in range(3)] == [-q[2], -q[1], -q[0]]
