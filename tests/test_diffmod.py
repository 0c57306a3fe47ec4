import copy
import dataclasses
import functools
import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from padicdiff import arith, diffmod, spectral
from padicdiff.arith import Interval, Prime, log_abs, min_valuation, padic_valuation, upper_hull
from padicdiff.catalog import catalog_get
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
from padicdiff.laurent import (
    LaurentPoly,
    RationalFunction,
    gauss_norm,
    parse_rational_function,
)
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


# matrix entries from the pools above; an empty numerator is a zero entry
rf_entries = st.builds(
    lambda num, den: RationalFunction(num, P(den).num),
    laurent_nums,
    st.one_of(den_factors, st.just("1")),
)


def rf_rows(n, m):
    return st.lists(st.lists(rf_entries, min_size=m, max_size=m), min_size=n, max_size=n)


@st.composite
def square_matrices(draw):
    """1x1 to 3x3 matrices, and whether one row repeats another."""
    n = draw(st.integers(1, 3))
    rows = draw(rf_rows(n, n))
    repeated = n > 1 and draw(st.booleans())
    if repeated:
        i, k = draw(st.permutations(range(n)))[:2]
        rows[k] = rows[i]
    return RFMatrix(rows), repeated


def leibniz_det(m):
    n = m.size
    total = RationalFunction.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = RationalFunction.constant((-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(case=square_matrices())
def test_det_and_inverse_match_the_leibniz_sum(case):
    m, repeated = case
    det = m.det()
    assert det == leibniz_det(m)
    if det.is_zero:
        with pytest.raises(InvalidGaugeError):
            m.inverse()
    else:
        assert not repeated
        inv = m.inverse()
        assert m @ inv == RFMatrix.identity(m.size) == inv @ m


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_products_and_the_row_pass_match_explicit_sums(data):
    """A @ B, any shapes up to 3x3, and spectral's w' + w G, entry by entry
    against sums that start at zero."""
    n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, b = RFMatrix(data.draw(rf_rows(n, k))), RFMatrix(data.draw(rf_rows(k, m)))
    zero = RationalFunction.zero()
    want = [[sum((a.rows[i][t] * b.rows[t][j] for t in range(k)), zero) for j in range(m)]
            for i in range(n)]
    assert a @ b == RFMatrix(want)
    g = RFMatrix(data.draw(rf_rows(k, k)))
    row = a.rows[0]
    want = [sum((row[i] * g.rows[i][j] for i in range(k)), row[j].derivative()) for j in range(k)]
    assert list(spectral._row_apply(row, DiffModule(P2, g, I01))) == want


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


def euclid_gcd(a, b):
    """Slow reference: the monic gcd of two coefficient maps by Euclid over Q."""
    a, b = dict(a), dict(b)
    while b:
        db = max(b)
        while a and max(a) >= db:
            da = max(a)
            f = a[da] / b[db]
            for e, v in b.items():
                a[e + da - db] = a.get(e + da - db, 0) - f * v
            a = {e: v for e, v in a.items() if v}
        a, b = b, a
    return {e: v / a[max(a)] for e, v in a.items()}


def check_setup(m):
    """The set-up's Q and d for module m are least and Q is canonical;
    returns whether Q != 1 and d > 1."""
    state = RecursionState(m)
    Q, d = state.Q, state.d
    entries = [e.reduce() for row in m.matrix.rows for e in row]
    # every reduced denominator divides Q, and the quotients Q/den have gcd 1,
    # so Q is least
    quotients = [RationalFunction(Q, e.den).reduce() for e in entries]
    assert all(q.den == LaurentPoly.one() for q in quotients)
    assert functools.reduce(euclid_gcd, (q.num.coeffs for q in quotients)) == {0: 1}
    # Q is primitive with a positive leading coefficient
    coeffs = Q.coeffs
    assert all(v.denominator == 1 for v in coeffs.values())
    assert math.gcd(*(v.numerator for v in coeffs.values())) == 1
    assert coeffs[max(coeffs)] > 0
    # d*Q*G is integral, and (d/p)*Q*G is not for any prime p dividing d
    qg = [(e * Q).reduce() for e in entries]
    assert all(f.den == LaurentPoly.one() for f in qg)
    values = [v for f in qg for v in f.num.coeffs.values()]
    assert all((v * d).denominator == 1 for v in values)
    primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    for p in primes:
        assert any((v * (d // p)).denominator != 1 for v in values)
    return len(Q) > 1, d > 1


def test_setup_forms_the_least_common_denominator_and_scale():
    # denominators sharing factors, so their lcm is not their product
    rows = [["1/(1+x)", "2/(3*(1+x)^2)"], ["x/(3-x^2)", "1/((1+x)*(3-x^2))"]]
    shared = DiffModule(P2, RFMatrix.from_strings(rows), I01)
    assert check_setup(shared) == (True, True)
    seen = set()

    # the explicit example reaches Q != 1 with d > 1 whatever the random draws
    @settings(max_examples=40, deadline=None)
    @given(case=small_modules())
    @example((shared, True))
    def check(case):
        seen.add(check_setup(case[0]))

    check()
    assert (True, True) in seen, seen


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


def test_module_is_frozen_and_replace_starts_a_fresh_state():
    m = deep_rank3_module()  # interval (1/2, 1)
    norm_sequence(m, F(3, 4), 8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.interval = Interval(-1, 1)
    wider = dataclasses.replace(m, interval=Interval(-1, 1))
    assert wider.p is m.p and wider._state is not m._state
    assert norm_sequence(wider, F(-1, 2), 8) == norm_sequence(
        DiffModule(Prime(3), m.matrix, Interval(-1, 1)), F(-1, 2), 8
    )
    # the original keeps its own state and interval
    with pytest.raises(DomainError):
        norm_sequence(m, F(-1, 2), 8)



def deep_rank3_module():
    """The rank-3 companion module of the benchmark, denominator 1 + x."""
    rows = [["0", "1", "0"], ["0", "0", "1"], ["1/(1+x)", "x", "2/x"]]
    return DiffModule(Prime(3), RFMatrix.from_strings(rows), Interval(F(1, 2), 1))


def wide_module():
    """The rank-2 module of the benchmark, on (1/2, 2)."""
    rows = [["x", "1/(1+2*x^2)"], ["3", "x^-1"]]
    return DiffModule(Prime(5), RFMatrix.from_strings(rows), Interval(F(1, 2), 2))


def sparse_module(interval=Interval(F(-1, 2), F(1, 2))):
    """The sparse module of the benchmark; its pullback at p = 7 has stride 7.
    Its one pole is at x = 0, so any interval of log-radii is pole-free."""
    return DiffModule(Prime(7), RFMatrix.from_strings([["0", "1"], ["1/x", "1+x"]]), interval)


@pytest.mark.parametrize(
    "module, budget, stopped",
    [
        # a companion module: only row 0 of each S_n is computed and counted.
        # Its e0 meets the exponent bound of its entry at every step, so the
        # floors keep 2 columns below it and are never missed: the run to 500
        # keeps 4,506 coefficients, and a budget of 3,000 stops it (one of
        # 20,000 stopped the floorless run at n=75: 20181)
        pytest.param(deep_rank3_module, 3_000, "stopped at n=335: 3003 coefficients",
                     id="deep-rank3"),
        pytest.param(lambda: frobenius_pullback(sparse_module(), 1), 20_000,
                     "stopped at n=71: 20029 coefficients", id="pulled-sparse"),
    ],
)
def test_budget_stops_at_the_same_step(module, budget, stopped):
    # the budget counts nonzero coefficients, not the zeros inside the dense lists
    with pytest.raises(BudgetExceededError, match=stopped):
        gn_sequence(module(), 500, budget=budget)


def test_a_failed_call_leaves_no_budget_behind():
    # the budget bounds one call; the stop keeps the steps run so far (the
    # floors planned for 128 serve 500 too, so nothing re-runs; the run to 500
    # keeps 4,506 coefficients, and this budget is 3,000), and the next call
    # grows the state on under its own budget
    m = deep_rank3_module()
    state = gn_sequence(m, 128)
    before = state.log_norms(F(3, 4), 128)
    with pytest.raises(BudgetExceededError):
        gn_sequence(m, 500, budget=3_000)
    assert 128 < state.depth < 500
    assert state.log_norms(F(3, 4), 128) == before
    assert state.log_norms(F(3, 4), 500) == gn_sequence(deep_rank3_module(), 500).log_norms(
        F(3, 4), 500
    )


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
    # the second call re-runs under a floor planned for the farther target
    split, whole = deep_rank3_module(), deep_rank3_module()
    gn_sequence(split, 24)
    two_calls, one_call = gn_sequence(split, 128), gn_sequence(whole, 128)
    assert two_calls._hulls == one_call._hulls
    for rho in (F(1, 2), F(9, 16), F(3, 4), F(15, 16), 1):
        for include_factorial in (True, False):
            assert as_fractions(two_calls.log_norms(rho, 128, include_factorial)) == as_fractions(
                one_call.log_norms(rho, 128, include_factorial)
            )
    assert_matches_the_floorless_run(two_calls, split, (F(1, 2), 1))


def exact_hull(state):
    """The newest step's hull the slow way: ``upper_hull`` over every nonzero
    column of the rows computed at that step, each valued by ``min_valuation``,
    in the actual exponents of x."""
    columns = {}
    for row in state._S[-1][-(state.rank // state._lag):]:
        for c in row:
            for k, v in enumerate(c):
                columns.setdefault(state._sign * (c.lo + state._g * k), []).append(v)
    return upper_hull(
        [(e, -min_valuation(vs, state.p)) for e, vs in sorted(columns.items()) if any(vs)]
    )


def actual_hull(state, hull):
    """A hull the state built on its stored exponents, in those of x."""
    return sorted((state._sign * e, y) for e, y in hull)


def visible_hull(hull, interval):
    """The part of a whole hull that rho in the closed interval can see: from
    its last y = 0 vertex rightwards when lo >= 0, up to its first y = 0
    vertex when hi <= 0, and the whole hull otherwise (or with no y = 0
    vertex).  For rho >= 0 no point left of the last y = 0 vertex attains
    max(y + e*rho), and mirrored for rho <= 0."""
    zeros = [i for i, (_, y) in enumerate(hull) if y == 0]
    if zeros and interval.lo >= 0:
        return hull[zeros[-1]:]
    if zeros and interval.hi <= 0:
        return hull[: zeros[0] + 1]
    return hull


def assert_every_hull_exact(m, depth):
    """Grow the state one step at a time, checking each new hull against the
    exact hull clipped to the side of 0 that the interval sees; returns
    whether the last step carried a bound, and the largest valuation that
    any hull reached."""
    for n in range(depth + 1):
        state = gn_sequence(m, n)
        got = actual_hull(state, state._hulls[-1])
        assert got == visible_hull(exact_hull(state), m.interval), n
    return state._bound is not None, max(-y for hull in state._hulls for _, y in hull)


def word_power_exponent(p):
    """k of the word power p^k of ``min_valuation``."""
    w, table = Prime(p)._word_power
    return table[w]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_carried_bound_hulls_match_every_column_valued(p):
    # every coefficient past S_0 is divisible by p, so each step after the
    # first two carries the bound, and valuations pass the word power
    k = word_power_exponent(p)
    pulled = catalog_get("pullback-exp", p, alpha=1).build(Interval(-1, 1))
    # a companion module, d = p: it computes row 0 alone, whose content grows
    # by one every other step
    companion = companion_of(p, [P(f"1/{p}"), P(f"x/{p}")], I01)
    for m, depth in ((pulled, k + 2), (scalar_module(str(p**3), p=p), k // 3 + 2),
                     (companion, 2 * k + 4)):
        carried, top = assert_every_hull_exact(m, depth)
        assert carried and top > k


def test_carried_bound_hulls_match_on_pulled_modules():
    carried = []

    @settings(max_examples=12, deadline=None)
    @given(case=small_modules())
    def check(case):
        m = frobenius_pullback(case[0], 1)
        carried.append(assert_every_hull_exact(m, word_power_exponent(m.p.p) + 2)[0])

    check()
    # a coefficient denominator divisible by p can leave the content at 0
    assert any(carried), carried


def count_valuations(monkeypatch, module, depth):
    calls = []
    real = diffmod.min_valuation
    monkeypatch.setattr(diffmod, "min_valuation", lambda vs, p: calls.append(1) or real(vs, p))
    gn_sequence(module, depth)
    return len(calls)


def test_only_positive_content_carries_a_bound(monkeypatch):
    # deep-rank3 has a column of valuation 0 at every step, so every hull is
    # the walk; its interval (1/2, 1) lies right of 0, so the walk goes from
    # the right end alone to the last such column, the first it reads, as
    # that column meets the exponent bound of its entry.  The floors planned
    # from those columns are never missed, so no step is walked twice
    assert count_valuations(monkeypatch, deep_rank3_module(), 128) == 130
    # the pulled sparse module has none past S_0, where the walk would value
    # all 9,408 columns to depth 96; the carried bound values 342 of them
    assert count_valuations(monkeypatch, frobenius_pullback(sparse_module(), 1), 96) == 342
    # pullback-exp: every S_n past S_0 has positive content, and the bound
    # rules out all but 127 columns to depth 64
    pulled_exp = catalog_get("pullback-exp", 5, alpha=1).build(Interval(-1, 1))
    assert count_valuations(monkeypatch, pulled_exp, 64) == 127
    # on an interval across 0 ``_walk`` goes in from both ends, each to the
    # outermost column of valuation 0, valuing no column twice
    assert count_valuations(monkeypatch, sparse_module(), 96) == 2_357
    straddling = DiffModule(Prime(3), deep_rank3_module().matrix, Interval(-1, 1))
    assert count_valuations(monkeypatch, straddling, 128) == 4_103


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
    against the Gauss norms of the term matrices to ``depth``, with and
    without n!, each on a state of its own, read as it grows."""
    grown = DiffModule(m.p, m.matrix, m.interval)
    direct = RFMatrix.identity(m.rank)
    for n in range(6):
        assert gn_sequence(grown, n).term_matrix() == direct
        direct = (direct.derivative() + direct @ m.matrix).reduced()
    grown = DiffModule(m.p, m.matrix, m.interval)
    terms = [gn_sequence(grown, n).term_matrix() for n in range(depth + 1)]
    state = gn_sequence(grown, depth)
    for include_factorial in (True, False):
        want = brute_force_log_norms(state, terms, rho, include_factorial)
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


@pytest.mark.parametrize(
    "rows, p",
    [
        ([["0", "x/x", "0"], ["0", "0", "2/2"], ["1/(1+x)", "x", "2/x"]], 3),
        ([["x - x", "(1+x)/(1+x)"], ["1/(1+x)", "3"]], 2),
        ([["0/x", "2*x/(2*x)"], ["x", "1/x"]], 5),
    ],
    ids=["x/x-and-2/2", "x-x-and-(1+x)/(1+x)", "0/x-and-2x/2x"],
)
def test_unreduced_companion_modules_compute_row_zero(rows, p):
    # the check reads the entries in lowest terms, where 1 is {0: 1} over
    # {0: 1} and 0 is {} over {0: 1}, however the text wrote them
    m = DiffModule(Prime(p), RFMatrix.from_strings(rows), I01)
    assert gn_sequence(m, 0)._lag == m.rank
    assert_matches_the_slow_path(m, F(1, 3))


@pytest.fixture(scope="module")
def wide_state():
    """Rank-2 module with a non-monomial denominator, its state to depth 24,
    and the term matrices G_n, read as the state grows."""
    m = DiffModule(Prime(5), RFMatrix.from_strings([["x", "1/(1+2*x^2)"], ["3", "x^-1"]]),
                   Interval(F(1, 2), 2))
    terms = [gn_sequence(m, n).term_matrix() for n in range(25)]
    return gn_sequence(m, 24), terms


@pytest.fixture(scope="module")
def pulled_state():
    """The pullback (p = 7, h = 1) of a sparse module: every exponent of S_n
    lies in one class mod the stride g = 7.  Its state to depth 32, past the
    word power 7^22 of ``min_valuation``, and the term matrices.  The base
    interval (-6, 6) pulls back to (-6/7, 6/7), which holds every rho that
    the test queries."""
    m = frobenius_pullback(sparse_module(Interval(-6, 6)), 1)
    terms = [gn_sequence(m, n).term_matrix() for n in range(33)]
    assert m._state._g == 7
    return gn_sequence(m, 32), terms


@settings(deadline=None)
@given(
    rho=st.one_of(
        st.fractions(F(1, 2), 2, max_denominator=40),
        st.builds(F, st.integers(10**12, 2 * 10**12), st.just(10**12 + 7)),
    ),
    include_factorial=st.booleans(),
)
def test_log_norms_match_brute_force_gauss_norms(wide_state, pulled_state, rho, include_factorial):
    # the pulled state at rho - 5/4, in (-3/4, 3/4): both ends of its hulls
    for (state, terms), r in ((wide_state, rho), (pulled_state, rho - F(5, 4))):
        depth = len(terms) - 1
        assert as_fractions(state.log_norms(r, depth, include_factorial)) == brute_force_log_norms(
            state, terms, r, include_factorial
        )


def brute_force_log_norms(state, terms, rho, include_factorial):
    p = state.p
    want = []
    for n, gn in enumerate(terms):
        norms = [gauss_norm(c, rho, p) for row in gn.rows for c in row if not c.is_zero]
        if not norms:
            want.append(None)
            continue
        val = max(norms)
        want.append(val - log_abs(math.factorial(n), p) if include_factorial else val)
    return want


@pytest.fixture(scope="module")
def word_power_state():
    """G = (3^40) at p = 3: S_n = 3^(40n), so for n >= 1 every coefficient is
    divisible by the word power 3^37 of ``min_valuation``.  The hulls are
    built under a counting ``padic_valuation`` to see that its fallback ran."""
    m = scalar_module(str(3**40), p=3, interval=Interval(-3, 3))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "padic_valuation", lambda n, p: calls.append(n) or padic_valuation(n, p))
        terms = [gn_sequence(m, n).term_matrix() for n in range(13)]
    return gn_sequence(m, 12), terms, calls


@given(rho=st.fractions(-3, 3, max_denominator=40), include_factorial=st.booleans())
def test_log_norms_past_the_word_power_match_gauss_norms(word_power_state, rho, include_factorial):
    state, terms, calls = word_power_state
    assert calls == [3 ** (40 * n) for n in range(1, 13)]
    assert as_fractions(state.log_norms(rho, 12, include_factorial)) == brute_force_log_norms(
        state, terms, rho, include_factorial
    )


@st.composite
def side_intervals(draw):
    """An interval wholly right of 0, wholly left of it, straddling it, or
    ending at it."""
    ends = st.fractions(F(1, 8), 2, max_denominator=8)
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return draw(st.sampled_from(
        [Interval(a, b), Interval(0, b), Interval(-b, -a), Interval(-b, 0), Interval(-a, b)]
    ))


@settings(max_examples=50, deadline=None)
@given(
    base=st.one_of(small_modules().map(lambda case: case[0]), companion_modules()),
    interval=side_intervals(),
    t=st.fractions(0, 1, max_denominator=24),
)
def test_one_sided_hulls_match_the_slow_path(base, interval, t):
    """Each step's hull against the exact hull clipped to the side of 0 that
    the interval sees, and log_norms at both ends and at one rho between
    against the Gauss norms of the term matrices, with and without n!."""
    m = DiffModule(base.p, base.matrix, interval)
    depth = 12
    terms = []
    for n in range(depth + 1):
        state = gn_sequence(m, n)
        assert actual_hull(state, state._hulls[-1]) == visible_hull(exact_hull(state), interval), n
        terms.append(state.term_matrix())
    for rho in (interval.lo, interval.hi, interval.lo + t * interval.width):
        for include_factorial in (True, False):
            want = brute_force_log_norms(state, terms, rho, include_factorial)
            assert as_fractions(state.log_norms(rho, depth, include_factorial)) == want


def floorless(m, depth):
    """The same step loop under a reach past every exponent, so that nothing
    is cut: the run with no floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RecursionState, "_planned", lambda state, target, miss=None: 2**62)
        state = RecursionState(m)
        state.extend(depth)
        return state


def window_cut(state):
    """Whether the newest window, that of step m, can lack a nonzero column:
    the stored exponents of S_m lie in [m*s_min, m*s_max], as S_0 = I sits
    at exponent 0, so the floors, the highest m*s_max - reach - least slack,
    can cut it only when m*(s_max - s_min) > reach + least slack."""
    m = len(state._hulls) - 1
    return state._reach is not None and m * state._g * state._spread > state._reach + state._least


def count_restarts(monkeypatch):
    restarts = []
    real = RecursionState._restart
    monkeypatch.setattr(RecursionState, "_restart", lambda state: restarts.append(1) or real(state))
    return restarts


def assert_matches_the_floorless_run(state, m, rhos):
    """Every step's hull, and log_norms with and without n! at each rho."""
    ref = floorless(m, state.depth)
    assert not window_cut(ref) and ref.depth == state.depth
    assert state._hulls == ref._hulls
    for rho in rhos:
        for include_factorial in (True, False):
            assert state.log_norms(rho, state.depth, include_factorial) == ref.log_norms(
                rho, state.depth, include_factorial
            )


def test_floored_run_matches_the_floorless_run():
    """On an interval right of 0, left of it or ending at it."""
    seen = []

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.one_of(small_modules().map(lambda case: case[0]), companion_modules()),
        interval=side_intervals().filter(lambda iv: iv.lo >= 0 or iv.hi <= 0),
        t=st.fractions(0, 1, max_denominator=24),
        depth=st.integers(8, 32),
    )
    def check(base, interval, t, depth):
        m = DiffModule(base.p, base.matrix, interval)
        with pytest.MonkeyPatch.context() as mp:
            restarts = count_restarts(mp)
            state = gn_sequence(m, depth)
        seen.append((window_cut(state), bool(restarts)))
        assert_matches_the_floorless_run(
            state, m, (interval.lo, interval.hi, interval.lo + t * interval.width)
        )

    check()
    # some windows were cut at a floor, and some floors were missed
    assert any(cut for cut, _ in seen) and any(rerun for _, rerun in seen), seen


def settled(state):
    """The window of ``state`` with the rows it holds flat, as ``extend``
    leaves it, read from a copy so that the state keeps them flat."""
    ref = copy.copy(state)
    ref._S, ref._flat = [state._S[-1]], list(state._flat)
    ref._settle()
    return ref._S[-1]


def windows_by_step(monkeypatch):
    """(step, whether a floor has dropped a nonzero coefficient since S_0, the
    window) after each step that any state takes, re-runs included: the
    steps that ``_step_hull`` values, and those that run flat."""
    seen = []
    real_hull, real_flat = RecursionState._step_hull, RecursionState._flat_step

    def step_hull(state, entries, content, m):
        window = [[(c.lo, list(c)) for c in row] for row in state._S[-1]]
        seen.append((m + 1, state._dropped, window))
        return real_hull(state, entries, content, m)

    def flat_step(state, m, cap):
        hull = real_flat(state, m, cap)
        if hull is not False:
            window = [[(c.lo, list(c)) for c in row] for row in settled(state)]
            seen.append((m + 1, state._dropped, window))
        return hull

    monkeypatch.setattr(RecursionState, "_step_hull", step_hull)
    monkeypatch.setattr(RecursionState, "_flat_step", flat_step)
    return seen


def test_an_uncut_window_is_the_floorless_window():
    """Miss detection trusts ``_dropped``: a window whose run has dropped no
    nonzero coefficient holds every nonzero column of the floorless run's
    window."""
    calls = []

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.one_of(small_modules().map(lambda case: case[0]), companion_modules()),
        interval=side_intervals().filter(lambda iv: iv.lo >= 0 or iv.hi <= 0),
        depth=st.integers(8, 24),
    )
    def check(base, interval, depth):
        m = DiffModule(base.p, base.matrix, interval)
        with pytest.MonkeyPatch.context() as mp:
            floored = windows_by_step(mp)
            gn_sequence(m, depth)
        with pytest.MonkeyPatch.context() as mp:
            ref = windows_by_step(mp)
            floorless(m, depth)
        want = {step: window for step, _, window in ref}
        for step, cut, window in floored:
            if not cut:
                assert window == want[step], step
        calls.extend(cut for _, cut, _ in floored)

    check()
    assert any(calls) and not all(calls)


def short_factors(m, state):
    """d*Q*G[t][j] for every t, j, from the module's matrix: {exponent: int}."""
    dq = RationalFunction(state.Q * state.d)
    factors = []
    for row in m.matrix.rows:
        factors.append([])
        for entry in row:
            pe = (dq * entry).reduce()
            assert pe.den == LaurentPoly.one()
            factors[-1].append({e: int(v) for e, v in pe.num.coeffs.items()})
    return factors


def entry_the_slow_way(state, factors, Si, j, n, cap):
    """Entry (i, j) of S_(n+1) from row i of S_n, one coefficient at a time:
    sum_t S[i][t]*(d*Q*G[t][j]) + d*(Q*S[i][j]' - n*S[i][j]*Q') as a dict by
    the actual exponent of x, then by the stored one, without the stored
    exponents below ``cap`` if one is given.  Returns (lo, coefficients from
    lo on the stride, first and last nonzero) and whether the cut dropped a
    nonzero coefficient; (0, []) for a zero entry."""
    g, d, sign = state._g, state.d, state._sign
    coeffs = {}
    for t, row in enumerate(factors):
        for s, v in row[j].items():
            for k, y in enumerate(Si[t]):
                e = sign * (Si[t].lo + g * k) + s
                coeffs[e] = coeffs.get(e, 0) + v * y
    # each term v*x^f of Q takes the coefficient y of x^e to x^(e + f - 1),
    # times d*v*e from Q*S' and -n*d*v*f from n*S*Q'
    for f, v in state.Q.coeffs.items():
        for k, y in enumerate(Si[j]):
            e = sign * (Si[j].lo + g * k)
            coeffs[e + f - 1] = coeffs.get(e + f - 1, 0) + int(d * v) * (e - n * f) * y
    coeffs = {sign * e: v for e, v in coeffs.items()}
    dropped = False
    if cap is not None:
        kept = {e: v for e, v in coeffs.items() if e >= cap}
        dropped = any(v for e, v in coeffs.items() if e not in kept)
        coeffs = kept
    nonzero = [e for e, v in coeffs.items() if v]
    if not nonzero:
        return (0, []), dropped
    lo, hi = min(nonzero), max(nonzero)
    return (lo, [coeffs.get(e, 0) for e in range(lo, hi + 1, g)]), dropped


class Scripted:
    """Stands in for ``st.data()`` in an explicit example: each draw returns
    the next of the given values."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy, label=None):
        return next(self.values)


# a rank-2 module whose window on (1/2, 1) holds entries of 13-16
# coefficients at depth 12, spanning exponents 20-39, and of 1-3 at depth 1
ROW_PASS_BASE = DiffModule(P2, RFMatrix.from_strings([["1/(1+2*x)", "x"], ["1", "x^2"]]), I01)


def test_the_row_pass_matches_the_entry_by_entry_step():
    """``_rows`` on the windows that runs reach, floored ones included, with
    and without a cap and a slack on one-sided intervals, with neither when
    straddling: every entry's lo and values, and ``_dropped``.  Both kernels
    run, the index loop on sources of at most ``_SHORT`` coefficients and the
    slice on longer ones, for the terms of d*Q*G and for the Q ramp.
    Two explicit examples reach every one of these cases whatever the random
    draws: long sources cut at exponent 30 under a zero slack, and short ones
    uncut."""
    seen = []

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.one_of(small_modules().map(lambda case: case[0]), companion_modules()),
        interval=side_intervals(),
        depth=st.integers(0, 20),
        data=st.data(),
    )
    @example(ROW_PASS_BASE, Interval(F(1, 2), 1), 12, Scripted(True, 30, True, 0, 0, 0, 0, False))
    @example(ROW_PASS_BASE, Interval(F(1, 2), 1), 1, Scripted(False, False))
    def check(base, interval, depth, data):
        module = DiffModule(base.p, base.matrix, interval)
        state = gn_sequence(module, depth)
        factors = short_factors(module, state)
        window, m = state._S[-1], len(state._hulls) - 1
        rows = window[-(state.rank // state._lag):]
        cap = slack = None
        if state._side and data.draw(st.booleans(), "cap"):
            uncut = [entry_the_slow_way(state, factors, Si, j, m, None)[0]
                     for Si in rows for j in range(state.rank)]
            ends = [e for lo, c in uncut if c for e in (lo, lo + state._g * (len(c) - 1))]
            cap = data.draw(st.integers(min(ends, default=0) - 3, max(ends, default=0) + 3), "at")
            if data.draw(st.booleans(), "slack"):
                entry_slack = st.one_of(st.integers(0, 4), st.just(diffmod._NEVER))
                slack = [[data.draw(entry_slack) for _ in range(state.rank)] for _ in rows]
        before = state._dropped = data.draw(st.booleans(), "dropped before")
        got = state._rows(window, m, cap, slack)
        dropped = before
        for i, Si in enumerate(rows):
            for j in range(state.rank):
                c = cap if slack is None else cap - slack[i][j]
                want, drop = entry_the_slow_way(state, factors, Si, j, m, c)
                assert (got[i][j].lo, list(got[i][j])) == want, (i, j)
                dropped = dropped or drop
        assert state._dropped == dropped
        # the lengths of the sources added: entry t of row i for each nonzero
        # d*Q*G[t][j], entry j itself for the Q ramp
        terms = [len(Si[t]) for Si in rows for j in range(state.rank)
                 for t in range(state.rank) if Si[t] and any(factors[t][j].values())]
        ramp = [len(Si[j]) for Si in rows for j in range(state.rank) if Si[j]]
        short = diffmod._SHORT
        seen.append((cap is not None, slack is not None, dropped and not before,
                     any(n <= short for n in terms), any(n > short for n in terms),
                     any(n <= short for n in ramp), any(n > short for n in ramp)))

    check()
    # some passes were cut, some under a slack, and some cuts dropped a
    # coefficient; short and long sources were added on both kernels
    assert all(any(flags) for flags in zip(*seen)), seen


def kernel_cases(state, rows):
    """Which cases of the slice kernel a pass over ``rows`` reaches: a long
    source that a shared pair scales; a first slice write into an entry after
    an index-loop write to a column it covers; and a shared pair that scales
    a different source in each of two rows."""
    short, g = diffmod._SHORT, state._g
    scaled = [{(t, v): Si[t] for t, v in state._shared if len(Si[t]) > short} for Si in rows]
    after = False
    for Si, parts in itertools.product(rows, state._parts):
        # the exponents that each term writes, in the order ``_rows`` adds
        # them, and whether its source is long
        terms = [(range(Si[t].lo + s, Si[t].lo + s + g * len(Si[t]), g), len(Si[t]) > short)
                 for t, ts, _, _ in parts if Si[t] for s, _ in ts]
        first = next((i for i, (_, long) in enumerate(terms) if long), None)
        if first is not None:
            written = {e for es, _ in terms[:first] for e in es}
            after = after or not written.isdisjoint(terms[first][0])
    common = scaled[0].keys() & scaled[1].keys() if len(scaled) > 1 else ()
    return any(scaled), after, any(scaled[0][tv] != scaled[1][tv] for tv in common)


# rank-2 pullbacks whose d*Q*G terms share multipliers: coefficients from a
# small pool, entries that can be zero, Q = 1, x or 1 + x^(p^h)
pulled_nums = st.dictionaries(
    st.integers(-2, 2), st.sampled_from([-1, 1, 2]), max_size=3
).map(LaurentPoly)


@st.composite
def pulled_bases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    den = st.sampled_from(["1", "x", "1 + x"])
    rows = [[RationalFunction(draw(pulled_nums), P(draw(den)).num) for _ in range(2)]
            for _ in range(2)]
    return DiffModule(Prime(p), RFMatrix(rows), I01)


def test_the_row_kernel_matches_the_step_per_coefficient_on_pullbacks():
    """``_rows`` with no cap, step by step from S_0 on the windows of a plain
    per-coefficient step, and ``term_matrix`` against that step's matrices,
    on pullbacks with h = 1, 2 at p = 2, 3, 5, 7, on intervals straddling 0,
    left of it (stored mirrored) and right of it (positive content): every
    entry's lo and values.  Sources grow from short to long on the way.
    Three explicit examples, pullbacks of the sparse benchmark module, reach
    every case whatever the draws: at step 5 of each, entry (0, 1) adds the
    short entry (0, 0) by the index loop inside the slice of its first long
    term, and the pair (1, p^h) scales a long source in each row."""
    seen, grown = [], []

    @settings(max_examples=40, deadline=None)
    @given(
        base=pulled_bases(),
        h=st.integers(1, 2),
        interval=side_intervals().filter(lambda iv: iv.lo != 0 != iv.hi),
        depth=st.integers(6, 10),
    )
    @example(sparse_module(), 2, Interval(-1, 1), 8)
    @example(sparse_module(), 1, Interval(F(1, 2), 1), 8)
    @example(sparse_module(), 1, Interval(-1, F(-1, 2)), 8)
    def check(base, h, interval, depth):
        module = DiffModule(base.p, frobenius_pullback(base, h).matrix, interval)
        state = RecursionState(module)
        factors = short_factors(module, state)
        window, lengths = state._start, []
        for m in range(depth):
            want = [[entry_the_slow_way(state, factors, Si, j, m, None)[0]
                     for j in range(state.rank)] for Si in window]
            got = [[(c.lo, list(c)) for c in row] for row in state._rows(window, m, None)]
            assert got == want, m
            lengths.append([len(c) for row in window for c in row])
            seen.append((*kernel_cases(state, window), h == 2, interval.lo < 0 < interval.hi,
                         interval.hi < 0, interval.lo > 0))
            window = tuple(tuple(diffmod._Coeffs(c, lo) for lo, c in row) for row in want)
        # a source of at most ``_SHORT`` coefficients at one step and more at the next
        grown.extend(a <= diffmod._SHORT < b for old, new in zip(lengths, lengths[1:])
                     for a, b in zip(old, new))
        state.extend(depth)
        den = state.Q**depth * state.d**depth
        sign, g = state._sign, state._g
        assert state.term_matrix(depth) == RFMatrix([
            [RationalFunction(LaurentPoly({sign * (c.lo + g * k): v for k, v in enumerate(c)}), den)
             for c in row]
            for row in window
        ])

    check()
    # shared pairs scaled, a first slice write after an index-loop write, a
    # pair scaled from each row's own source, h = 2, each kind of interval,
    # and sources grown past ``_SHORT``
    assert all(any(flags) for flags in zip(*seen)) and any(grown), seen


def flat_steps_both_ways(monkeypatch):
    """Check every step that runs flat against ``_rows`` then ``_step_hull``
    on a copy of the state taken before it: the hull, every entry's lo and
    values, the count, ``_dropped`` and the inward distances.  Returns, for
    each step checked, whether the module is a companion one computing row 0
    alone, a full-rank one of rank 2 or more, mirrored (hi <= 0), under a
    slack per entry or a single floor, whether a floor had dropped a nonzero
    coefficient before the step and whether the step dropped the first, and
    whether the step missed or re-ran after a miss."""
    seen, missed = [], []
    real = RecursionState._flat_step

    def flat_step(state, m, cap):
        ref = copy.copy(state)
        ref._inward = dict(state._inward)
        window, before, count = settled(state), state._dropped, state._coeff_count
        hull = real(state, m, cap)
        if hull is False:
            return hull
        rows = ref._rows(window, m, cap, ref._slack)
        entries = [c for row in rows for c in row if c]
        assert hull == ref._step_hull(entries, 0, m), m
        want = [[(c.lo, list(c)) for c in row] for row in (window + rows)[-state.rank :]]
        assert [[(c.lo, list(c)) for c in row] for row in settled(state)] == want, m
        assert state._coeff_count - count == sum(len(c) - c.count(0) for c in entries), m
        assert (state._dropped, state._inward) == (ref._dropped, ref._inward), m
        seen.append((state._lag > 1, state._lag == 1 < state.rank, state._sign < 0,
                     state._slack is not None, state._slack is None, before,
                     state._dropped and not before, hull is None, bool(missed)))
        missed.extend([1] if hull is None else [])
        return hull

    monkeypatch.setattr(RecursionState, "_flat_step", flat_step)
    return seen


def test_the_flat_step_matches_the_row_pass():
    """The flat step against ``_rows`` and ``_step_hull`` on every floored
    window that runs reach.  Three explicit examples reach every case
    whatever the random draws: deep-rank3's companion module under a slack
    per entry, the full-rank wide module under a single floor, and exp at
    p = 2 on (-2, 0), mirrored, whose floor drops its one coefficient at a
    step that misses, and whose re-run runs flat again."""
    seen = []

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.one_of(small_modules().map(lambda case: case[0]), companion_modules()),
        interval=side_intervals().filter(lambda iv: iv.lo >= 0 or iv.hi <= 0),
        depth=st.integers(8, 40),
    )
    @example(deep_rank3_module(), Interval(F(1, 2), 1), 40)
    @example(wide_module(), Interval(F(1, 2), 2), 24)
    @example(catalog_get("exp", 2).build(Interval(-2, 0)), Interval(-2, 0), 24)
    def check(base, interval, depth):
        with pytest.MonkeyPatch.context() as mp:
            steps = flat_steps_both_ways(mp)
            checked = gn_sequence(DiffModule(base.p, base.matrix, interval), depth)
        # the checks leave the run as it is
        state = gn_sequence(DiffModule(base.p, base.matrix, interval), depth)
        assert (checked._hulls, checked._coeff_count) == (state._hulls, state._coeff_count)
        seen.extend(steps)

    check()
    assert all(any(flags) for flags in zip(*seen)), seen


@pytest.mark.parametrize(
    "module, depth, most",
    [
        # five layouts, each with its slack, to depth 128; those seen at an
        # earlier step get a plan
        pytest.param(deep_rank3_module, 128, 8, id="deep-rank3"),
        # one coefficient a step: one plan before the step that misses, one
        # for it, and the re-run reuses the first
        pytest.param(lambda: catalog_get("exp", 2).build(Interval(-2, 0)), 64, 2,
                     id="exp-mirrored"),
    ],
)
def test_plans_are_built_once_per_layout(monkeypatch, module, depth, most):
    built = []
    real = RecursionState._plan
    monkeypatch.setattr(RecursionState, "_plan", lambda *args: built.append(1) or real(*args))
    gn_sequence(module(), depth)
    assert 0 < len(built) <= most


def kernel_run(m, depth):
    """The state of ``m`` grown to ``depth``, and log_norms with and without
    n! at both ends and the midpoint of its interval."""
    state = gn_sequence(dataclasses.replace(m), depth)
    iv = m.interval
    norms = [state.log_norms(rho, depth, f)
             for rho in (iv.lo, iv.hi, (iv.lo + iv.hi) / 2) for f in (True, False)]
    return state._hulls, state._coeff_count, state._inward, norms


# each forces one kernel: every floored step through ``_rows`` rather than
# flat, with every source through the slice (a cut of 0) or through the
# index loop (a cut past any length); or every floored step on a layout seen
# before through the flat step, and the rest through ``_rows``' index loop
NO_FLAT = (RecursionState, "_flat_step", lambda state, m, cap: False)
KERNELS = {
    "slice-axpy-only": [(diffmod, "_SHORT", 0), NO_FLAT],
    "index-loop-only": [(diffmod, "_SHORT", 2**62), NO_FLAT],
    "no-flat-step": [NO_FLAT],
    "flat-step-unbounded": [(diffmod, "_SHORT", 2**62)],
}


@pytest.mark.parametrize("kernel", list(KERNELS), ids=list(KERNELS))
@pytest.mark.parametrize(
    "module, depth",
    [
        # sources on both sides of the cut: straddling 0, with no floor
        pytest.param(sparse_module, 96, id="straddling"),
        # a few coefficients an entry, under floors
        pytest.param(deep_rank3_module, 128, id="floored"),
        # stride 7 and positive content
        pytest.param(lambda: frobenius_pullback(sparse_module(), 1), 96, id="pulled"),
    ],
)
def test_each_kernel_alone_gives_the_same_state(monkeypatch, module, depth, kernel):
    """Each kernel alone gives the default run's hulls, counts, inward
    distances and norms."""
    m = module()
    want = kernel_run(m, depth)
    for patch in KERNELS[kernel]:
        monkeypatch.setattr(*patch)
    assert kernel_run(m, depth) == want


def test_floored_run_on_the_benchmark_module(monkeypatch):
    # deep-rank3: its e0 lies at the exponent bound of its entry at every
    # step, where m*s_max runs ahead of it by m/2, so its inward distance is
    # always 0 and the reach 2 strides, planned alike for every target: the
    # floors are never missed and nothing re-runs
    restarts = count_restarts(monkeypatch)
    m = deep_rank3_module()
    gn_sequence(m, 0)
    state = gn_sequence(m, 128)
    assert not restarts and state._reach is not None and window_cut(state)
    assert set(state._inward.values()) == {0}
    assert_matches_the_floorless_run(state, m, (F(1, 2), F(3, 4), 1))


@pytest.mark.parametrize(
    "rows, interval, per_entry",
    [
        # entry (1, 0) drifts in from its exponent bound by 1 a step, so each
        # entry keeps a floor of its own, and they cut it; reading on below
        # the highest one finds a wrong hull
        ([["1/(1+2*x)", "0"], ["x^3", "x"]], Interval(F(1, 4), F(1, 2)), True),
        # entry (1, 1) feeds itself at the outermost shift, so the state runs
        # under one floor for all entries
        ([["3", "x"], ["0", "2*x"]], Interval(F(1, 8), F(3, 8)), False),
    ],
    ids=["own-floors", "one-floor"],
)
def test_the_walk_stops_at_the_highest_floor(rows, interval, per_entry):
    # under floors of their own, the entries of a step are cut at different
    # exponents; below the highest floor a walk that read on would value
    # columns that lack the coefficients of the entry cut there
    m = DiffModule(P2, RFMatrix.from_strings(rows), interval)
    state = gn_sequence(m, 16)
    assert window_cut(state) and (state._slack is not None) == per_entry
    assert_matches_the_floorless_run(state, m, (interval.lo, interval.hi))


@pytest.mark.parametrize(
    "p, rows, interval, zero_from",
    [
        # G_n = Y^(n) Y^-1 for Y = [[1 + x^2, x], [x, 1]], det Y = 1; the
        # exponent bounds grow by 2 a step, so the floors cut from step 4
        (3, [["x", "1 - x^2"], ["1", "-x"]], Interval(F(1, 2), 1), 3),
        # the ceilings move in by 1 a step where the exponents stay at 0 and 1
        (2, [["0", "1"], ["0", "0"]], Interval(-1, F(-1, 2)), 2),
    ],
    ids=["floor", "ceiling"],
)
def test_an_empty_window_is_not_a_cut_one(monkeypatch, p, rows, interval, zero_from):
    # S_n = 0 from n = zero_from, so the walk finds no column; a window the
    # floors can cut, as the last ones, is then no miss, as S_(n-1) = 0
    # gives S_n = 0
    restarts = count_restarts(monkeypatch)
    m = DiffModule(Prime(p), RFMatrix.from_strings(rows), interval)
    state = gn_sequence(m, 40)
    assert not restarts and window_cut(state) and state._reach is not None
    assert state._hulls[zero_from:] == [[]] * (len(state._hulls) - zero_from)
    assert_matches_the_floorless_run(state, m, (interval.lo, interval.hi))


@pytest.mark.parametrize(
    "p, rows, interval, zero",
    [
        # S_n = 0 from n = 3, but the ceiling of step 1 drops the x^2 of
        # 1 - x^2, and step 3 computed from the cut S_2 is nonzero only in
        # the columns that its ceiling cuts: the window holds no coefficient
        (3, [["x", "1 - x^2"], ["1", "-x"]], Interval(-1, F(-1, 2)), True),
        # the floor drops the x^-3 of entry (0, 1), and the x^3 that it keeps
        # dies at step 5: the whole of step 5 computed from the cut window is
        # zero, while S_5 = -360*x^-7 is not
        (5, [["0", "2*x^3 - x^-3"], ["0", "0"]], Interval(F(1, 2), 1), False),
    ],
    ids=["zero", "cut-away"],
)
def test_a_window_emptied_after_a_drop_re_runs(monkeypatch, p, rows, interval, zero):
    # once a floor has dropped a nonzero coefficient, an empty window is a
    # miss even when the whole step computed from the cut window is zero:
    # what the state holds cannot tell S_(m+1) = 0 from an e0 cut away
    restarts = count_restarts(monkeypatch)
    m = DiffModule(Prime(p), RFMatrix.from_strings(rows), interval)
    state = gn_sequence(m, 40)
    assert restarts == [1] and (state._hulls[5] == []) == zero
    assert_matches_the_floorless_run(state, m, (interval.lo, interval.hi))


def test_positive_content_runs_with_no_floor(monkeypatch):
    # every coefficient of the pullback's S_1 = d*Q*G is divisible by 7, and
    # the first floor cuts none of them
    restarts = count_restarts(monkeypatch)
    m = frobenius_pullback(sparse_module(Interval(F(1, 8), F(1, 2))), 1)
    state = gn_sequence(m, 48)
    assert not restarts and state._reach is None and state._bound is not None
    assert_matches_the_floorless_run(state, m, (m.interval.lo, m.interval.hi))
    # here S_1 = 2x + 2x^3 + 2x^5 spans more than the 2 strides that the first
    # ceiling keeps: it cuts a coefficient and the walk finds no column of
    # valuation 0, a miss, so step 1 runs once more (5,251 coefficients to
    # depth 64, 5,249 with no floor at all)
    m = frobenius_pullback(scalar_module("1+x+x^2", interval=Interval(F(-1, 2), F(-1, 4))), 1)
    state = gn_sequence(m, 64)
    assert len(restarts) <= 1 and state._reach is None and state._bound is not None
    assert_matches_the_floorless_run(state, m, (m.interval.lo, m.interval.hi))


def test_coefficient_counts_of_the_floored_runs():
    # every nonzero coefficient kept; the floorless runs count 20,742 and
    # 65,539.  The floor is planned before the first step it cuts, so that
    # step counts only its columns past the floor.  The wide module's e0 is
    # the top column at every step, so its floor keeps 2 strides below it
    # (1,491 under a margin that grew with the target depth).  The x^1000
    # module keeps one column a step, its e0 being the top, from S_1 on
    assert gn_sequence(wide_module(), 72)._coeff_count == 219
    gap = DiffModule(P2, RFMatrix.from_strings([["x^1000", "1"], ["0", "0"]]), Interval(F(1, 2), 2))
    assert gn_sequence(gap, 256)._coeff_count == 258


def planned_run(monkeypatch, m, depth):
    """The state grown as the CLI grows it, to 0 and then to ``depth``, and
    the re-runs of the second call."""
    gn_sequence(m, 0)
    restarts = count_restarts(monkeypatch)
    return gn_sequence(m, depth), restarts


def test_a_jittering_distance_is_not_extrapolated(monkeypatch):
    # the inward distance of e0 is 0 but for a jump to 1 every sixth step,
    # with no drift; the margin covers the jump (8,949 coefficients and one
    # re-run under a margin that grew with the target depth; with no margin
    # one miss read the newest jumps as a trend and planned 85 columns,
    # about 20,000 coefficients)
    m = DiffModule(Prime(3), RFMatrix.from_strings([["0", "1"], ["1/(x^2-3)", "1/x"]]),
                   Interval(0, 1))
    state, restarts = planned_run(monkeypatch, m, 256)
    assert not restarts and state._coeff_count <= 1_100
    assert_matches_the_floorless_run(state, m, (0, F(1, 2), 1))


def test_a_drifting_distance_is_extrapolated(monkeypatch):
    # deep-rank3's matrix on (-1, -1/2): the inward distance of e0 from the
    # ceiling grows by 1/2 a step; its early misses see too few steps to read
    # that drift from the newer half alone, and the mean slope since S_0
    # keeps the run floored (28,403 under a margin that grew with the target
    # depth; without the mean slope three re-runs ended with no floor, 74,448)
    m = DiffModule(Prime(3), deep_rank3_module().matrix, Interval(-1, F(-1, 2)))
    state, _ = planned_run(monkeypatch, m, 128)
    assert state._reach is not None and state._coeff_count <= 28_403
    assert_matches_the_floorless_run(state, m, (-1, F(-3, 4), F(-1, 2)))


def test_the_margin_does_not_grow_with_the_depth(monkeypatch):
    # deep-rank3's inward distance is 0 at every step, so the reach is 2
    # strides for any target (392,285 coefficients to 1024 under a margin of
    # 2 + 1024/8 strides)
    state, restarts = planned_run(monkeypatch, deep_rank3_module(), 1024)
    assert not restarts and state._reach == 2 and state._coeff_count < 10_000


@pytest.mark.parametrize(
    "module",
    [
        deep_rank3_module,
        wide_module,
        # stored mirrored, as its interval lies left of 0
        lambda: DiffModule(Prime(3), deep_rank3_module().matrix, Interval(-1, F(-1, 2))),
    ],
    ids=["companion", "rank-2", "ceiling"],
)
def test_term_matrix_rebuilds_any_step(module):
    m = module()
    state = gn_sequence(m, 12)
    assert window_cut(state)  # the window holds only the columns past the floor
    direct = RFMatrix.identity(m.rank)
    for n in range(13):
        assert state.term_matrix(n) == direct
        direct = (direct.derivative() + direct @ m.matrix).reduced()
    assert state.term_matrix() == state.term_matrix(12)
    for n in (-1, 13):
        with pytest.raises(InputError, match="term_matrix needs 0 <= n <= depth = 12"):
            state.term_matrix(n)


def test_log_norms_refuses_rho_outside_the_closed_interval():
    m = deep_rank3_module()  # interval (1/2, 1)
    state = gn_sequence(m, 4)
    for rho in (F(1, 2) - F(1, 10**9), 0, -1, 1 + F(1, 10**9), 5):
        with pytest.raises(DomainError, match="outside the closed interval"):
            state.log_norms(rho, 64)
        # refused before the state grows
        assert state.depth == 4
    for rho in (F(1, 2), 1):
        assert state.log_norms(rho, 8)[0][0] == 0
    assert state.depth == 8
    # norm_sequence's message, raised there before the state grows too
    with pytest.raises(DomainError, match=r"^rho=2 outside the closed interval \(1/2, 1\)$"):
        norm_sequence(m, 2, 64)
    assert state.depth == 8


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
