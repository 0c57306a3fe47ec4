"""Differential modules on annuli and their exact transformations.

A module of rank mu is a square matrix G of rational functions together
with a prime p and an open interval of log-radii: the system dX/dx = G X.
This file owns the exact machinery around that object:

* gauge transforms H[G] = H G H^-1 + H' H^-1,
* the Taylor recursion G_0 = I, G_{n+1} = G_n' + G_n G at a generic point,
  run entirely over Z[x, 1/x] by clearing denominators,
* log-norm sequences log_p ||G_n / n!|| at any log-radius,
* ramification pullback F(z) -> p x^(p-1) F(x^p),
* companion matrices of monic scalar operators.

The recursion computes scaled integer numerators S_n with
G_n = S_n / (d^n Q^n), where Q is the common denominator of G and d clears
the remaining coefficient denominators; every step is then integer
polynomial arithmetic, which keeps the growth of intermediate objects to
polynomial multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Sequence, Union

from .arith import (
    MAX_DIGITS,
    Interval,
    Prime,
    Rational,
    as_prime,
    digit_sum,
    min_valuation,
    padic_valuation,
    upper_hull,
)
from .errors import BudgetExceededError, DomainError, InputError, InvalidGaugeError
from .laurent import (
    LaurentPoly,
    RationalFunction,
    _coerce,
    _content,
    _poly_divmod,
    _poly_gcd,
    pole_free_on,
    parse_rational_function,
)

__all__ = [
    "RFMatrix",
    "DiffModule",
    "RecursionState",
    "gauge_transform",
    "gn_sequence",
    "norm_sequence",
    "frobenius_pullback",
    "companion_of",
]

DEFAULT_DEPTH = 256
DEFAULT_COEFF_BUDGET = 5_000_000


class RFMatrix:
    """Square-friendly matrix of rational functions (immutable)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[RationalFunction]]):
        rows = tuple(tuple(_as_rf(e) for e in row) for row in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise InputError("matrix rows must be nonempty and of equal length")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("RFMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RFMatrix":
        one, zero = RationalFunction.one(), RationalFunction.zero()
        return RFMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence[RationalFunction]) -> "RFMatrix":
        zero = RationalFunction.zero()
        n = len(entries)
        return RFMatrix(
            [[_as_rf(entries[i]) if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_strings(rows: Sequence[Sequence[str]], var: str = "x") -> "RFMatrix":
        return RFMatrix([[parse_rational_function(s, var) for s in row] for row in rows])

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    @property
    def size(self) -> int:
        n, m = self.shape
        if n != m:
            raise InputError("matrix is not square")
        return n

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RFMatrix):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self) -> int:
        return hash(tuple(tuple(e.reduce() for e in row) for row in self.rows))

    def __repr__(self) -> str:
        return f"RFMatrix({self.shape[0]}x{self.shape[1]})"

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RFMatrix") -> "RFMatrix":
        if self.shape != other.shape:
            raise InputError("shape mismatch")
        return RFMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __matmul__(self, other: "RFMatrix") -> "RFMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise InputError("shape mismatch")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = RationalFunction.zero()
                for t in range(k):
                    acc = acc + self.rows[i][t] * other.rows[t][j]
                row.append(acc)
            out.append(row)
        return RFMatrix(out)

    def derivative(self) -> "RFMatrix":
        return RFMatrix([[a.derivative() for a in row] for row in self.rows])

    def reduced(self) -> "RFMatrix":
        return RFMatrix([[a.reduce() for a in row] for row in self.rows])

    def det(self) -> RationalFunction:
        """Determinant by cofactor expansion (ranks here stay tiny)."""
        n = self.size
        if n == 1:
            return self.rows[0][0].reduce()
        if n == 2:
            (a, b), (c, d) = self.rows
            return (a * d - b * c).reduce()
        acc = RationalFunction.zero()
        for j in range(n):
            if self.rows[0][j].is_zero:
                continue
            minor = RFMatrix([row[:j] + row[j + 1 :] for row in self.rows[1:]])
            term = self.rows[0][j] * minor.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc.reduce()

    def inverse(self) -> "RFMatrix":
        """Adjugate over determinant; raises InvalidGaugeError when singular."""
        n = self.size
        d = self.det()
        if d.is_zero:
            raise InvalidGaugeError("singular matrix")
        if n == 1:
            return RFMatrix([[RationalFunction.one() / d]])
        adj = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = RFMatrix(
                    [row[:j] + row[j + 1 :] for k, row in enumerate(self.rows) if k != i]
                )
                cof = minor.det()
                if (i + j) % 2:
                    cof = -cof
                adj[j][i] = (cof / d).reduce()
        return RFMatrix(adj)


def _as_rf(value) -> RationalFunction:
    rf = _coerce(value)
    if rf is NotImplemented:
        raise InputError(f"not a rational function: {value!r}")
    return rf


@dataclass(eq=False)
class DiffModule:
    """A differential system dX/dx = G X over an open annulus.

    ``matrix`` is square; entries are expected to be pole-free on the
    interval, but the flag is only reported (gauge transforms can create
    poles and the result must stay inspectable).
    """

    p: Prime
    matrix: RFMatrix
    interval: Interval
    var: str = "x"
    _state: Optional["RecursionState"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.p = as_prime(self.p)
        self.matrix.size  # raises when not square

    @property
    def rank(self) -> int:
        return self.matrix.size

    def pole_violations(self) -> list[tuple[int, int]]:
        """Entries with a pole of log-magnitude inside the interval."""
        out = []
        for i, row in enumerate(self.matrix.rows):
            for j, e in enumerate(row):
                if not pole_free_on(e, self.interval, self.p):
                    out.append((i, j))
        return out

    @property
    def is_pole_free(self) -> bool:
        return not self.pole_violations()

    def validate(self) -> "DiffModule":
        bad = self.pole_violations()
        if bad:
            raise InputError(f"matrix entries with poles on the annulus: {bad}")
        return self


def _int_terms(f: LaurentPoly) -> list[tuple[int, int]]:
    """(exponent, integer coefficient) pairs of f in increasing exponent order."""
    out = []
    for e, v in sorted(f.coeffs.items()):
        if v.denominator != 1:
            raise InputError("expected integer coefficients")
        out.append((e, v.numerator))
    return out


class _Coeffs(list):
    """One entry of S_n: the coefficients of x^(lo + g*k), k = 0, 1, ..., on
    the state's stride g, first and last nonzero (or empty)."""

    __slots__ = ("lo",)

    def __init__(self, values=(), lo: int = 0):
        super().__init__(values)
        self.lo = lo

    def values(self) -> "_Coeffs":
        return self


class RecursionState:
    """Taylor-coefficient matrices of a module, scaled to integers.

    G_n = S_n / (d^n Q^n) with integer S_n and a fixed integer d that clears
    the coefficient denominators of Q*G, so each step

        S_{n+1} = d*(Q*S_n' - n*S_n*Q') + S_n*(d*Q*G)

    stays in Z[x, 1/x].  A step shifts exponents by those of each d*Q*G
    entry and by e - 1 for each exponent e of Q, and all these shifts agree
    modulo the stride g, the gcd of their differences (g = p for a
    ramification pullback, usually 1 otherwise).  So every exponent of S_n
    lies in one residue class mod g, and each entry is stored densely on it:
    a ``_Coeffs`` list of the coefficients of x^(lo + g*k).  An entry of
    S_{n+1} is one zeroed list, added into by one slice axpy per term of the
    short factors d*Q*G[t][j] and Q; the Q term folds S' and Q' into one
    multiplier per coefficient, d*v*(e - n*f) for the term v*x^f of Q and the
    exponent e of the coefficient.

    A companion matrix (rows 0..mu-2 are e_1, ..., e_(mu-1)) is the system
    of X = (u, u', ..., u^(mu-1)), so X_i = X_0^(i): every row of G_n follows
    the same recursion r -> r' + r*G, and row i of G_n is row 0 of G_(n+i).
    For it the state computes row 0 alone, lag = mu steps ahead of ``depth``;
    any other module computes all mu rows, lag = 1.  The loop is the same:
    each step m -> m + 1 extends the newest mu/lag rows of S_m.

    The state keeps only the newest window, n = ``depth``, which ``P()`` and
    ``term_matrix()`` describe: the mu rows of S_n, or row 0 of S_n, ...,
    S_(n+mu-1).  For every step m it keeps the upper hull of the points
    (exponent, -v), v the minimal valuation of that exponent's coefficient
    across the entries computed at step m: only hull vertices can attain the
    Gauss norm max(-v + e*rho), and a hull has a handful of vertices where
    S_m has hundreds of exponents.  Each step builds its hull at once in one
    aligned walk over the zero-padded lists, one ``arith.min_valuation`` gcd
    per exponent, from both ends inwards to the first exponent of valuation
    0 (``_hull_of``); every norm query reads every m anyway.  A query at rho
    is integer work: ``log_norms`` returns one numerator per n over a single
    denominator, the max over m = n..n+lag-1 of log ||S_m / (d^m Q^m)||, and
    log_p |n!| = -(n - s_p(n))/(p - 1) comes from an int table of
    n - s_p(n) grown with the recursion.  The state keeps the module's prime
    and rank, not the module, so a module that caches its state is freed by
    reference counting alone.

    ``perfbench/tracer.py`` reads two private fields: ``_S``, a one-slot list
    whose ``_S[-1]`` holds the window as rows of entries with a ``values()``
    method, and ``_coeff_count``, the number of nonzero coefficients computed
    so far, which is also what ``budget`` bounds.  It also wraps
    ``log_norms`` and reads its depth as the third positional argument, so
    every norm query, ``norm_sequence`` included, is one call of that method.
    """

    def __init__(self, module: DiffModule, depth: int, budget: int = DEFAULT_COEFF_BUDGET):
        self.p = module.p
        self.rank = module.rank
        self.budget = budget
        mu = module.rank

        reduced = [[e.reduce() for e in row] for row in module.matrix.rows]
        # reduced denominators have positive leading coefficients, so Q does
        q_dict: dict[int, Fraction] = {0: Fraction(1)}
        for row in reduced:
            for e in row:
                den = e.den.coeffs
                if den == {0: Fraction(1)}:
                    continue
                g = _poly_gcd(q_dict, den)
                extra, _ = _poly_divmod(den, g)
                q_dict = (LaurentPoly(q_dict) * LaurentPoly(extra)).coeffs
        content = _content(q_dict)
        q_dict = {e: v / content for e, v in q_dict.items()}
        self.Q = LaurentPoly(q_dict)

        # numerators of Q*G as Laurent polynomials, then clear denominators
        p_entries: list[list[LaurentPoly]] = []
        for row in reduced:
            new_row = []
            for e in row:
                quo, rem = _poly_divmod(q_dict, e.den.coeffs)
                if rem:
                    raise InputError("common denominator does not divide an entry denominator")
                new_row.append(e.num * LaurentPoly(quo))
            p_entries.append(new_row)
        d = math.lcm(
            *(v.denominator for row in p_entries for pe in row for v in pe.coeffs.values())
        )
        self.d = d
        # the terms of the short factors, in increasing shift order: (shift,
        # coefficient) of d*Q*G[t][j], and (f - 1, d*v, d*f*v) of v*x^f in Q
        self._pt = tuple(tuple(_int_terms(pe * d) for pe in row) for row in p_entries)
        self._qterms = tuple((f - 1, d * v, d * f * v) for f, v in _int_terms(self.Q))
        shifts = [s for row in self._pt for terms in row for s, _ in terms]
        shifts += [s for s, _, _ in self._qterms]
        self._g = math.gcd(*(s - shifts[0] for s in shifts)) or 1

        # a companion matrix (rows 0..mu-2 are e_1, ..., e_(mu-1)) needs row 0 alone
        companion = all(
            e == (1 if j == i + 1 else 0)
            for i, row in enumerate(reduced[:-1])
            for j, e in enumerate(row)
        )
        self._lag = mu if companion else 1

        # S_0 = I, all of it or its row 0, in a one-slot list of rows of _Coeffs,
        # whose values() is the list itself, because perfbench/tracer.py reads
        # the window as _S[-1] (see the docstring)
        per_step = mu // self._lag
        start = tuple(
            tuple(_Coeffs([1]) if i == j else _Coeffs() for j in range(mu)) for i in range(per_step)
        )
        self._S: list[tuple[tuple[_Coeffs, ...], ...]] = [start]
        self._coeff_count = per_step
        self._hulls: list[list[tuple[int, int]]] = [[(0, 0)]]
        self._n_minus_sp = [0]
        self._vp_d = padic_valuation(d, self.p)
        self.extend(depth)

    @property
    def depth(self) -> int:
        return len(self._hulls) - self._lag

    def extend(self, depth: int) -> None:
        mu, p, g = self.rank, self.p, self._g
        per_step = mu // self._lag  # rows of S_m computed per step: all, or row 0
        while self.depth < depth:
            m = len(self._hulls) - 1
            window = self._S[-1]
            new_rows = tuple(
                tuple(self._next_entry(Si, j, m) for j in range(mu)) for Si in window[-per_step:]
            )
            self._S[-1] = (window + new_rows)[-mu:]
            self._hulls.append(_hull_of(new_rows, g, p))
            self._n_minus_sp.append(m + 1 - digit_sum(m + 1, p))
            self._coeff_count += sum(len(c) - c.count(0) for row in new_rows for c in row)
            if self._coeff_count > self.budget:
                raise BudgetExceededError(
                    f"recursion stopped at n={m + 1}: {self._coeff_count} "
                    f"coefficients computed exceed budget {self.budget}"
                )

    def _next_entry(self, Si: Sequence[_Coeffs], j: int, n: int) -> _Coeffs:
        """Entry (i, j) of S_{n+1} from row i of S_n:
        sum_t S[i][t]*pt[t][j] + d*Q*S[i][j]' - n*d*Q'*S[i][j]."""
        g, pt, qterms = self._g, self._pt, self._qterms
        parts = [(b, pt[t][j]) for t, b in enumerate(Si) if b and pt[t][j]]
        bq = Si[j]
        ends = parts + [(bq, qterms)] if bq else parts
        if not ends:
            return _Coeffs()
        lo = min(b.lo + terms[0][0] for b, terms in ends)
        hi = max(b.lo + g * (len(b) - 1) + terms[-1][0] for b, terms in ends)
        acc = [0] * ((hi - lo) // g + 1)
        for b, terms in parts:
            size = len(b)
            for s, v in terms:
                o = (b.lo + s - lo) // g
                # a product by 1 still copies the big integer; skip it
                if v == 1:
                    acc[o : o + size] = [x + y for x, y in zip(acc[o : o + size], b)]
                else:
                    acc[o : o + size] = [x + v * y for x, y in zip(acc[o : o + size], b)]
        if bq:
            size = len(bq)
            for s, dv, dfv in qterms:
                o = (bq.lo + s - lo) // g
                # the multiplier d*v*(e - n*f) at the exponent e = bq.lo + g*k
                m0, dm = dv * bq.lo - n * dfv, dv * g
                ramp = range(m0, m0 + dm * size, dm)
                acc[o : o + size] = [x + m * y for x, m, y in zip(acc[o : o + size], ramp, bq)]
        return _trimmed(acc, lo, g)

    # -- exact view of the current step ----------------------------------------

    def P(self) -> list[list[LaurentPoly]]:
        """Numerator matrix with G_n = P() / Q^n for n = ``depth``, exact
        rational coefficients.  Row i is S_n[i] / d^n or, when only row 0 is
        computed, S_(n+i)[0] / (d^(n+i) Q^i), an exact division."""
        n, g, per_step = self.depth, self._g, self.rank // self._lag
        out = []
        for i, row in enumerate(self._S[-1]):
            k = i // per_step  # the row was computed at step n + k
            scale, qk = Fraction(1, self.d ** (n + k)), (self.Q**k).coeffs
            out.append(
                [
                    LaurentPoly(
                        _exact_quotient({c.lo + g * t: v * scale for t, v in enumerate(c) if v}, qk)
                    )
                    for c in row
                ]
            )
        return out

    def term_matrix(self) -> RFMatrix:
        """G_n for n = ``depth`` as a matrix of rational functions (unreduced
        P()/Q^n)."""
        qn = self.Q**self.depth
        return RFMatrix([[RationalFunction(pe, qn) for pe in row] for row in self.P()])

    # -- norms ----------------------------------------------------------------

    def log_norms(
        self,
        rho: Rational,
        depth: Optional[int] = None,
        include_factorial: bool = True,
    ) -> tuple[list[Optional[int]], int]:
        """log_p ||G_n / n!|| (or ||G_n||) for n = 0..depth as (nums, den):
        entry n is nums[n] / den, and None marks a zero matrix."""
        depth = self.depth if depth is None else depth
        if depth < 0:
            raise InputError("depth must be nonnegative")
        self.extend(depth)
        rho = Fraction(rho)
        a, b = rho.numerator, rho.denominator
        # ||G_n|| = ||S_n|| * |d|^-n / ||Q||^n, and ||S_n|| = max over hull
        # vertices of (y + e*rho) = max(b*y + a*e) / b; log_p |n!| is
        # -(n - s_p(n)) / (p - 1).  All three go over one denominator.
        shift = self._vp_d - self.Q.gauss_norm(rho, self.p)
        p1 = self.p.p - 1
        den = math.lcm(b, shift.denominator, p1)
        scale = den // b
        step = shift.numerator * (den // shift.denominator)
        fact = den // p1 if include_factorial else 0
        # log ||S_m / (d^m Q^m)|| for each step m; the rows of G_n were computed
        # at steps n..n+lag-1 (row i of G_n is row 0 of G_(n+i) for lag = mu)
        lag = self._lag
        tops = [
            max([b * y + a * e for e, y in hull]) * scale + m * step if hull else None
            for m, hull in enumerate(self._hulls[: depth + lag])
        ]
        best = tops[: depth + 1]
        for k in range(1, lag):
            best = [
                u if v is None else v if u is None else max(u, v) for u, v in zip(best, tops[k:])
            ]
        nums = [None if v is None else v + t * fact for v, t in zip(best, self._n_minus_sp)]
        return nums, den


def _exact_quotient(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """a / b for a Laurent polynomial a and a polynomial b with a nonzero
    constant term; raises ArithmeticError when b does not divide a."""
    if not a:
        return {}
    s = min(a)
    quo, rem = _poly_divmod({e - s: v for e, v in a.items()}, b)
    if rem:
        raise ArithmeticError("the recursion state's row does not divide exactly")
    return {e + s: v for e, v in quo.items()}


def _trimmed(acc: list[int], lo: int, g: int) -> _Coeffs:
    """acc, the coefficients of x^(lo + g*k), without its zero ends."""
    if not any(acc):
        return _Coeffs()
    a, b = 0, len(acc)
    while not acc[a]:
        a += 1
    while not acc[b - 1]:
        b -= 1
    return _Coeffs(acc[a:b], lo + g * a)


def _hull_of(rows, g: int, p: Prime) -> list[tuple[int, int]]:
    """Upper hull of (e, -min v_p) over the exponents e with a nonzero
    coefficient in some entry, walking the entries' lists side by side.

    A point with v = 0 is as high as any point gets, so the hull is flat
    between the first and the last of them: the walk from each end stops at
    one, and no column is valued twice."""
    entries = [c for row in rows for c in row if c]
    if not entries:
        return []
    lo = min(c.lo for c in entries)
    columns = list(zip_longest(*([0] * ((c.lo - lo) // g) + c for c in entries), fillvalue=0))

    def walk(ks):
        for k in ks:
            col = columns[k]
            if any(col):
                v = min_valuation(col, p)
                yield lo + g * k, -v
                if not v:
                    return

    left = list(walk(range(len(columns))))
    right = list(walk(range(len(columns) - 1, (left[-1][0] - lo) // g, -1)))
    return upper_hull(left + right[::-1])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def gauge_transform(module: DiffModule, H: RFMatrix) -> DiffModule:
    """Basis change: the new matrix is H[G] = (H G + H') H^-1.

    The interval and rank are unchanged.  The result can acquire poles on
    the annulus; inspect ``is_pole_free`` on the returned module.
    """
    if H.size != module.rank:
        raise InputError("gauge size does not match module rank")
    h_inv = H.inverse()  # raises InvalidGaugeError when singular
    new_matrix = ((H @ module.matrix + H.derivative()) @ h_inv).reduced()
    return DiffModule(module.p, new_matrix, module.interval, module.var)


def gn_sequence(
    module: DiffModule,
    depth: int = DEFAULT_DEPTH,
    budget: int = DEFAULT_COEFF_BUDGET,
) -> RecursionState:
    """The module's one Taylor recursion state, cached on the module and grown
    to ``depth`` under this call's coefficient budget."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    state = module._state
    if state is None:
        state = module._state = RecursionState(module, depth, budget)
    else:
        state.budget = budget
        state.extend(depth)
    return state


def norm_sequence(
    module: DiffModule,
    rho: Rational,
    depth: int = DEFAULT_DEPTH,
    include_factorial: bool = True,
) -> tuple[Optional[Fraction], ...]:
    """log_p ||G_n / n!|| at rho for n = 0..depth; None marks a zero matrix.

    rho must lie in the closure of the module interval.
    """
    rho = Fraction(rho)
    if not module.interval.contains(rho, closed=True):
        raise DomainError(f"rho={rho} outside the closed interval {module.interval}")
    nums, den = gn_sequence(module, depth).log_norms(rho, depth, include_factorial)
    return tuple(None if v is None else Fraction(v, den) for v in nums)


def frobenius_pullback(module: DiffModule, h: int = 1) -> DiffModule:
    """h-fold ramification pullback.

    One step sends the matrix F(z) of d/dz to p x^(p-1) F(x^p), the matrix of
    d/dx after z = x^p, and maps the interval of log-radii to its p-th part
    (rho -> rho/p).  h steps compose to the one substitution z = x^(p^h),
    F(z) -> p^h x^(p^h-1) F(x^(p^h)), done here at once.  The rank is
    unchanged.
    """
    if h < 1:
        raise InputError("h must be a positive integer")
    p = module.p.p
    # exponents grow as p^h and the interval shrinks by p^-h; past the digit
    # limit neither can be printed (p^h >= 2^h > 10^MAX_DIGITS from h = 4*MAX_DIGITS)
    if h >= 4 * MAX_DIGITS or p**h >= 10**MAX_DIGITS:
        raise InputError(f"h = {h}: p^h = {p}^{h} has more than {MAX_DIGITS} digits")
    q = p**h
    factor = RationalFunction(LaurentPoly.x(q - 1, q))
    rows = [[(e.substitute_power(q) * factor).reduce() for e in row] for row in module.matrix.rows]
    return DiffModule(module.p, RFMatrix(rows), module.interval.scaled(Fraction(1, q)), module.var)


def companion_of(
    p: Union[int, Prime],
    q: Sequence[RationalFunction],
    interval: Interval,
    var: str = "x",
) -> DiffModule:
    """Module of the monic operator with coefficient list (q_1, ..., q_mu).

    The matrix has 1 on the superdiagonal and last row
    (-q_mu, -q_(mu-1), ..., -q_1): the system satisfied by
    (u, u', ..., u^(mu-1)) when u^(mu) + q_1 u^(mu-1) + ... + q_mu u = 0.
    """
    q = [_as_rf(e) for e in q]
    mu = len(q)
    if mu < 1:
        raise InputError("operator order must be at least 1")
    zero, one = RationalFunction.zero(), RationalFunction.one()
    rows = []
    for i in range(mu - 1):
        rows.append([one if j == i + 1 else zero for j in range(mu)])
    rows.append([-q[mu - 1 - j] for j in range(mu)])
    return DiffModule(as_prime(p), RFMatrix(rows), interval, var)
