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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
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
    _ONE,
    LaurentPoly,
    RationalFunction,
    _coerce,
    common_denominator,
    exact_quotient,
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

# the valuation bound of a zero column (or of a zero multiplier): above any
# valuation a coefficient can have
_NEVER = 1 << 62
# a step adds a source entry of at most this many coefficients with an index
# loop, a longer one with a slice (see ``RecursionState``)
_SHORT = 8


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
        if self.shape[1] != other.shape[0]:
            raise InputError("shape mismatch")
        cols = tuple(zip(*other.rows))
        return RFMatrix(
            [
                [_sum(a * b for a, b in zip(r, c) if not (a.is_zero or b.is_zero)) for c in cols]
                for r in self.rows
            ]
        )

    def derivative(self) -> "RFMatrix":
        return RFMatrix([[a.derivative() for a in row] for row in self.rows])

    def reduced(self) -> "RFMatrix":
        return RFMatrix([[a.reduce() for a in row] for row in self.rows])

    def _cofactor(self, i: int, j: int) -> RationalFunction:
        """(-1)^(i+j) times the determinant of the minor without row i and
        column j; 1 for a 1x1 matrix, whose minor is empty."""
        if len(self.rows) == 1:
            return RationalFunction.one()
        minor = RFMatrix([r[:j] + r[j + 1 :] for k, r in enumerate(self.rows) if k != i]).det()
        return -minor if (i + j) % 2 else minor

    def det(self) -> RationalFunction:
        """Determinant by cofactor expansion along row 0 (ranks here stay tiny)."""
        self.size  # raises when not square
        row = self.rows[0]
        return _sum(a * self._cofactor(0, j) for j, a in enumerate(row) if not a.is_zero).reduce()

    def inverse(self) -> "RFMatrix":
        """Adjugate over determinant; raises InvalidGaugeError when singular."""
        inv = self._det_inverse()[1]
        if inv is None:
            raise InvalidGaugeError("singular matrix")
        return inv

    def _det_inverse(self) -> tuple[RationalFunction, Optional["RFMatrix"]]:
        """The determinant, as ``det`` expands it, and the inverse, the
        transposed cofactors over it, or None when it is zero: the cofactors
        of row 0 serve both, and a singular matrix costs no others."""
        n = self.size
        cof = [[self._cofactor(0, j) for j in range(n)]]
        d = _sum(a * c for a, c in zip(self.rows[0], cof[0]) if not a.is_zero).reduce()
        if d.is_zero:
            return d, None
        cof += [[self._cofactor(i, j) for j in range(n)] for i in range(1, n)]
        return d, RFMatrix([[(cof[i][j] / d).reduce() for i in range(n)] for j in range(n)])


def _sum(terms: Iterable[RationalFunction]) -> RationalFunction:
    """The sum of ``terms`` from the first on, as a zero start costs a cross
    multiplication more; zero when there are none."""
    terms = iter(terms)
    return sum(terms, next(terms, RationalFunction.zero()))


def _as_rf(value) -> RationalFunction:
    rf = _coerce(value)
    if rf is NotImplemented:
        raise InputError(f"not a rational function: {value!r}")
    return rf


@dataclass(frozen=True, eq=False)
class DiffModule:
    """A differential system dX/dx = G X over an open annulus.

    ``matrix`` is square; entries are expected to be pole-free on the
    interval, but the flag is only reported (gauge transforms can create
    poles and the result must stay inspectable).  The module is frozen, so
    the recursion state it caches always describes its own fields; use
    ``dataclasses.replace`` for a module with another interval.
    """

    p: Prime
    matrix: RFMatrix
    interval: Interval
    var: str = "x"

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_prime(self.p))
        self.matrix.size  # raises when not square

    @cached_property
    def _state(self) -> "RecursionState":
        """The module's one recursion state, which ``gn_sequence`` grows."""
        return RecursionState(self)

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


class _Coeffs(list):
    """One entry of S_n: the coefficients at the stored exponents lo + g*k,
    k = 0, 1, ..., on the state's stride g, first and last nonzero (or
    empty)."""

    __slots__ = ("lo",)

    def __init__(self, values=(), lo: int = 0):
        super().__init__(values)
        self.lo = lo

    def values(self) -> "_Coeffs":
        return self


class RecursionState:
    """Taylor-coefficient matrices of a module, scaled to integers.

    G_n = S_n / (d^n Q^n) with integer S_n, Q the least common multiple of
    the reduced entries' denominators and Q*G each numerator times the exact
    quotient Q/den, both from ``laurent``, and d the least integer clearing
    the coefficients of Q*G, so each step

        S_{n+1} = d*(Q*S_n' - n*S_n*Q') + S_n*(d*Q*G)

    stays in Z[x, 1/x].  A step shifts exponents by those of each d*Q*G
    entry and by e - 1 for each exponent e of Q, and all these shifts agree
    modulo the stride g, the gcd of their differences (g = p for a
    ramification pullback, usually 1 otherwise).  So every exponent of S_n
    lies in one residue class mod g, and each entry is stored densely on it:
    a ``_Coeffs`` list of the coefficients of x^(sign*(lo + g*k)).  An entry of
    S_{n+1} is one zeroed list, into which each term of the short factors
    d*Q*G[t][j] and Q adds the source entry it multiplies; the Q term folds
    S' and Q' into one multiplier per coefficient, d*v*(e - n*f) for the
    term v*x^f of Q and the exponent e of the coefficient.  A source of at
    most ``_SHORT`` coefficients is added with an index loop, a longer one
    with a slice: a slice costs a fixed amount to build, which outweighs
    the arithmetic on the few coefficients that floored entries keep, while
    on a long source its cost per element is the lower.  There a big-integer
    product or sum costs about the same whatever its size, so a slice runs
    one of them per coefficient: the first write into an entry's zeroed list
    stores its products, or the source itself for a multiplier of 1, and a
    (source, multiplier) pair that several terms use (``_shared``), as every
    d*Q*G term of a ramification pullback carries p^h, is scaled once per
    row, so that each of its terms is a plain add.  A step computes its
    rows in one pass (``_rows``), which reads for each entry j the source
    list that the constructor plans once: the nonzero d*Q*G[t][j], each with
    its least and largest shift, which size the list; the same pass cuts and
    trims it.  Under a floor, a step on short entries runs flat instead (see
    below).  The sign is -1 when the interval has hi <= 0, and 1
    otherwise: such a state stores each exponent e as -e, so that its
    ceiling is a floor and every one-sided interval runs one code path.
    Exponents, shifts and hulls below are the stored ones, which only
    ``log_norms`` and ``term_matrix`` map back.

    A companion matrix (rows 0..mu-2 are e_1, ..., e_(mu-1)) is the system
    of X = (u, u', ..., u^(mu-1)), so X_i = X_0^(i): every row of G_n follows
    the same recursion r -> r' + r*G, and row i of G_n is row 0 of G_(n+i).
    For it the state computes row 0 alone, lag = mu steps ahead of ``depth``;
    any other module computes all mu rows, lag = 1.  The loop is the same:
    each step m -> m + 1 extends the newest mu/lag rows of S_m.  The
    constructor builds S_0 alone, and ``extend`` alone runs the steps: a
    companion state reaches depth 0 after mu - 1 of them.

    The state keeps only the newest window, n = ``depth``: the mu rows of
    S_n, or row 0 of S_n, ..., S_(n+mu-1).  For every step m it keeps the
    upper hull of the points (exponent, -v), v the minimal valuation of that
    exponent's coefficient across the entries computed at step m: only hull
    vertices can attain the Gauss norm max(-v + e*rho), and a hull has a
    handful of vertices where S_m has hundreds of exponents.  Each step
    builds its hull at once, as every norm query reads every m anyway,
    valuing a column (the coefficients of one exponent) with one
    ``arith.min_valuation`` gcd.  While S_m has a column of valuation 0, the
    walk reads columns from the right end to the last such column e0, after
    a walk from the left end to the first one when the interval straddles 0
    (each column once; ``_walk`` reads every one of these walks): a column
    e < e0 has -v + e*sign*rho <= e0*sign*rho for sign*rho >= 0, and
    mirrored for sign*rho <= 0, so the hull is exact on the interval, the
    only rho that ``log_norms`` accepts.
    The content c of S_m, its least valuation, is -max y over its hull.
    Once c > 0, as on a ramification pullback whose d*Q*G terms all carry
    p^h, that stop never fires, and no column of S_(m+1), an integer
    combination of S_m, falls below c.  The state then
    carries a lower bound on v for each column of the newest step: the first
    such step starts from c for every column, and each later one bounds
    column e of S_(m+1) by the min over the step's terms of bound(e - s)
    plus a weight per term that none of its multipliers' v_p falls below
    (``_carried_bound``).  It values the end columns and the highest bound
    points, vertices of the hull of the points (e, -bound), then, while some
    column's bound point lies strictly above the hull of the exact points
    found so far, the new vertices that those points add
    (``_refined_hull``); valued columns carry their exact v into the next
    step.  The hull stays exact: a true vertex lies strictly above the hull
    of the other points, so its bound point does too.

    On a one-sided interval no column below e0 is read, so each entry j of
    S_m is kept only at exponents >= its own floor U_m[j] - reach, U_m[j] a
    bound on its exponents, s_max and s_min the largest and least shifts of
    a step; like every exponent and shift here, these are stored ones.  The
    state keeps the slack m*s_max - U_m[j] of each entry: 0 on the diagonal
    of S_0 = I, and at step m + 1 the least over the sources t of entry j,
    those with a term of d*Q*G[t][j] and j itself for Q, of the slack of t
    plus s_max - s, s the source's largest shift (``_next_slack``).  It
    keeps the slack less its least, which ``_least`` holds, so that a slack
    repeats from step to step, and computes each one's successor once.  Column
    c of entry j of S_(m+1) draws on columns >= c - s of each source t, so
    its columns at or past its floor come from stored, exact ones alone; a
    step computes each entry whole, then drops the rest.  Below the highest
    floor, that of the least slack, some entry lacks columns, so the walk
    stops there.  If a diagonal entry of S_0 feeds itself at s_max, its
    slack stays 0, and the one floor m*s_max - reach, the highest, serves
    every entry: moving by s_max a step, it keeps exact columns alone too,
    so the state keeps no slack.  Until a floor drops a nonzero coefficient
    (``_dropped``), the window is the floorless one.  Each ``extend`` call
    plans the reach for its target step, depth + lag - 1, from the inward
    distances max U_m - e0 seen (``_planned``), and re-runs from S_0 if the
    plan is larger and a floor has dropped one.  A walk that then finds no
    column of valuation 0 above the highest floor is a miss: the state
    re-runs under a reach extrapolated with the miss, after a second miss
    in one call under none.  A re-run keeps only the e0 seen.  Straddling
    intervals and the steps after S_m has positive content (the carried
    bound covers every column) run with no floor and compute no slack, as
    does ``term_matrix``.

    Under a floor, entries keep a few coefficients, and the per-entry work
    of ``_rows`` and ``_step_hull`` outweighs their arithmetic, so such a
    step runs flat (``_flat_step``).  The newest row is held as one int
    list, its entries in turn, with its layout: the offset of each entry
    from the row's least exponent and its length.  A plan (``_plan``) lists
    the step as (destination, source, multiplier) triples over one flat
    accumulator, the columns that the walk reads, and the segment that each
    entry keeps, whose zero ends the step trims.  The layout, the slack, the
    floor relative to the row's least exponent and ``_dropped`` repeat from
    step to step under a floor, so a plan built for them serves many steps;
    once a floor has dropped a nonzero coefficient, no triple writes a
    column below it.  A plan is built once its layout and slack have been
    seen at an earlier step (``_seen``).  A step on a layout seen once, or
    seen first at the same step of a re-run, or on an entry of more than
    ``_SHORT`` coefficients, where the slice of ``_rows`` is the
    faster, runs ``_rows``; so do the steps without a floor.  The rows held
    flat are turned back into ``_Coeffs`` rows (``_settle``) before
    ``_rows`` runs and when ``extend`` returns or raises.

    A query at rho is integer work: ``log_norms`` returns one numerator per
    n over a single denominator, the max over m = n..n+lag-1 of
    log ||S_m / (d^m Q^m)||, and log_p |n!| = -(n - s_p(n))/(p - 1) comes
    from an int table of n - s_p(n) grown with the recursion.  The state
    keeps the module's prime, rank and interval, not the module, so a module
    that caches its state is freed by reference counting alone.

    ``perfbench/tracer.py`` reads two private fields: ``_S``, a one-slot list
    whose ``_S[-1]`` holds the window as rows of entries with a ``values()``
    method once ``extend`` returns, and ``_coeff_count``, the number of
    nonzero coefficients kept by every step run so far, re-runs included,
    which is also what the ``budget`` of an ``extend`` call bounds, for that
    call alone.  It also
    wraps ``log_norms`` and reads its depth as the third positional
    argument, so every norm query, ``norm_sequence`` included, is one call
    of that method.  The fields are slots; ``__weakref__`` lets a test watch
    a state be freed.
    """

    __slots__ = (
        "p", "rank", "interval", "Q", "d", "_sign", "_qterms", "_parts", "_g", "_spread",
        "_gw", "_qw", "_lag", "_start", "_S", "_coeff_count", "_hulls", "_bound",
        "_n_minus_sp", "_vp_d", "_side", "_out", "_reach", "_start_slack", "_slack",
        "_least", "_slacks", "_sources", "_inward", "_dropped", "_seen", "_plans", "_flat",
        "_shared", "__weakref__",
    )

    def __init__(self, module: DiffModule):
        self.p = module.p
        self.rank = module.rank
        self.interval = module.interval
        mu = module.rank

        reduced = [[e.reduce() for e in row] for row in module.matrix.rows]
        self.Q = common_denominator(e.den for row in reduced for e in row)
        # Q*G, whose coefficient denominators d clears; Q's coefficients are integers
        qg = [[e.num * exact_quotient(self.Q, e.den) for e in row] for row in reduced]
        self.d = d = math.lcm(*(v.denominator for r in qg for f in r for v in f.coeffs.values()))
        # exponents are stored as sign*e, negated when hi <= 0 (see the docstring)
        self._sign = sign = -1 if self.interval.hi <= 0 else 1
        # the terms of the short factors, in increasing stored shift order:
        # (shift, coefficient) of d*Q*G[t][j], and (sign*(f - 1), sign*d*v,
        # d*f*v) of v*x^f in Q, as d*v*(e - m*f) = sign*d*v*(sign*e) - m*d*f*v
        pt = [[sorted((sign * e, int(v * d)) for e, v in f.coeffs.items()) for f in r] for r in qg]
        q_terms = ((f, int(v)) for f, v in self.Q.coeffs.items())
        self._qterms = tuple(sorted((sign * (f - 1), sign * d * v, d * f * v) for f, v in q_terms))
        # what entry j of a row of S_(m+1) reads, planned once for ``_rows``:
        # (t, terms, least shift, largest shift) of each nonzero d*Q*G[t][j]
        self._parts = tuple(
            tuple((t, row[j], row[j][0][0], row[j][-1][0]) for t, row in enumerate(pt) if row[j])
            for j in range(mu)
        )
        # the (t, multiplier) pairs other than 1 that more than one of those
        # terms use, as every term of a ramification pullback carries p^h:
        # ``_rows`` scales such a source once per row
        pairs = [(t, v) for parts in self._parts for t, terms, _, _ in parts for _, v in terms]
        self._shared = tuple({tv for tv in pairs if tv[1] != 1 and pairs.count(tv) > 1})
        shifts = [s for row in pt for terms in row for s, _ in terms]
        shifts += [s for s, _, _ in self._qterms]
        self._g = math.gcd(*(s - shifts[0] for s in shifts)) or 1
        # for the carried valuation bound (``_carried_bound``), each term's
        # offset (s - least shift) / g: (offset, least v_p of a coefficient)
        # over the terms of d*Q*G, and (offset, d*v, d*f*v) over those of Q
        least = min(shifts)
        self._spread = (max(shifts) - least) // self._g
        weights: dict[int, int] = {}
        for row in pt:
            for terms in row:
                for s, v in terms:
                    o, w = (s - least) // self._g, padic_valuation(v, self.p)
                    weights[o] = min(weights.get(o, w), w)
        self._gw = tuple(weights.items())
        self._qw = tuple(((s - least) // self._g, dv, dfv) for s, dv, dfv in self._qterms)

        # a companion matrix (rows 0..mu-2 are e_1, ..., e_(mu-1)) needs row 0
        # alone; in lowest terms 1 is {0: 1} over {0: 1}, and 0 is {} over it
        companion = all(
            e.den.coeffs == _ONE and e.num.coeffs == (_ONE if j == i + 1 else {})
            for i, row in enumerate(reduced[:-1])
            for j, e in enumerate(row)
        )
        self._lag = mu if companion else 1

        # S_0 = I, all of it or its row 0, in a one-slot list of rows of _Coeffs,
        # whose values() is the list itself, because perfbench/tracer.py reads
        # the window as _S[-1] (see the docstring)
        per_step = mu // self._lag
        self._start = tuple(
            tuple(_Coeffs([1]) if i == j else _Coeffs() for j in range(mu)) for i in range(per_step)
        )
        self._S: list[tuple[tuple[_Coeffs, ...], ...]] = [self._start]
        self._coeff_count = per_step
        self._hulls: list[list[tuple[int, int]]] = [[(0, 0)]]
        # (lo, bound): a lower bound on v_p of each column lo + g*k of the
        # newest step, kept while the content of S_m is positive
        self._bound: Optional[tuple[int, list[int]]] = None
        self._n_minus_sp = [0]
        self._vp_d = padic_valuation(d, self.p)

        # the floors of a one-sided interval: entry j of S_m keeps the stored
        # exponents e with m*out - e <= reach + its slack, out the largest
        # shift (see the docstring)
        self._side = side = 1 if self.interval.lo >= 0 or self.interval.hi <= 0 else 0
        self._out = out = max(shifts)
        # no floor when straddling 0; the step loop takes it away once S_m has positive content
        self._reach: Optional[int] = 0 if side else None
        # the slack of each entry of S_0 and of the newest step if kept, less
        # the least, which ``_least`` holds; each slack's successor, by slack
        self._start_slack = self._slack = None
        self._least = 0
        self._slacks: dict = {}
        if side:
            # the sources of entry j, the terms of d*Q*G[t][j] and those of Q
            # on entry j itself, as (t, out - s) for the largest shift s
            self._sources = [
                [(t, out - s_hi) for t, _, _, s_hi in parts] + [(j, out - self._qterms[-1][0])]
                for j, parts in enumerate(self._parts)
            ]
            # the slack of S_0 = I: 0 on its diagonal, _NEVER for a zero entry;
            # none is kept if a diagonal entry feeds itself at the largest
            # shift, as one floor then serves every entry (see the docstring)
            slack = tuple(tuple(0 if c else _NEVER for c in row) for row in self._start)
            loops = [j for j, src in enumerate(self._sources) if (j, 0) in src]
            self._start_slack = None if any(not row[j] for row in slack for j in loops) else slack
            self._slack = self._start_slack
        # m*out - e0 less the least slack, the inward distance of e0 from its
        # bound, for each step m whose walk found it
        self._inward: dict[int, int] = {0: 0}
        # whether a floor has dropped a nonzero coefficient since S_0: until
        # then the window is the floorless one
        self._dropped = False
        # the step at which each layout and slack were first seen, the plans
        # of the flat step, and the rows of the steps run flat since ``_S``
        # was last brought up to date (see ``_flat_step``)
        self._seen: dict = {}
        self._plans: dict = {}
        self._flat: list = []

    @property
    def depth(self) -> int:
        return len(self._hulls) - self._lag

    def extend(self, depth: int, budget: int = DEFAULT_COEFF_BUDGET) -> None:
        """Run the steps to ``depth``; raises ``BudgetExceededError`` once the
        coefficients computed, earlier calls included, exceed ``budget``."""
        mu, hulls = self.rank, self._hulls
        target = depth + self._lag - 1  # the last step whose hull ``depth`` reads
        if len(hulls) > target:
            return
        # plan the floor for this target; a window cut under a floor planned
        # for a nearer one re-runs if the e0 seen so far ask for a lower floor
        if self._reach is not None:
            reach = self._planned(target)
            if reach > self._reach:
                self._reach = reach
                if self._dropped:
                    self._restart()
        misses = 0
        while len(hulls) <= target:
            m = len(hulls) - 1
            # the content of S_m; S_(m+1) is an integer combination of S_m,
            # so no column of it falls below that valuation, and from here on
            # the carried bound covers every column with no floor
            content = -max(y for _, y in hulls[m]) if hulls[m] else 0
            if content:
                self._reach = None
            # the highest floor of step m + 1, which each entry's slack less
            # the least moves in if the slack is kept
            cap = None
            if self._reach is not None:
                if self._slack is not None:
                    self._slack, least = self._next_slack()
                    self._least += least
                cap = (m + 1) * self._out - self._reach - self._least
            hull = False if cap is None else self._flat_step(m, cap)
            if hull is False:
                self._settle()
                window = self._S[-1]
                new_rows = self._rows(window, m, cap, self._slack)
                entries = [c for row in new_rows for c in row if c]
                self._coeff_count += sum(len(c) - c.count(0) for c in entries)
                self._S[-1] = (window + new_rows)[-mu:]
                hull = self._step_hull(entries, content, m)
            if hull is None:
                # re-run under a floor extrapolated from the e0 seen, then under none
                misses += 1
                miss = (m + 1, self._reach + 1)  # e0 lies past the floor
                self._reach = self._planned(target, miss) if misses < 2 else None
                self._restart()
            else:
                hulls.append(hull)
                self._n_minus_sp.append(m + 1 - digit_sum(m + 1, self.p))
            if self._coeff_count > budget:
                self._settle()
                raise BudgetExceededError(
                    f"recursion stopped at n={m + 1}: {self._coeff_count} "
                    f"coefficients computed exceed budget {budget}"
                )
        self._settle()

    def _step_hull(
        self, entries: Sequence[_Coeffs], content: int, m: int
    ) -> Optional[list[tuple[int, int]]]:
        """The hull of S_(m+1) from its nonzero entries, given the content of
        S_m; None on a miss (``_walked``)."""
        g, p = self._g, self.p
        lo = min([c.lo for c in entries] or [0])
        size = (max([c.lo + g * len(c) for c in entries]) - lo) // g if entries else 0
        # each entry with the range [a, b) of the k it covers
        spans = [(c, (c.lo - lo) // g, (c.lo - lo) // g + len(c)) for c in entries]
        if content and entries:
            bound = self._carried_bound(m, lo, size) if self._bound else [content] * size
            self._bound = (lo, bound)
            return _refined_hull(spans, lo, bound, g, p)
        # from the right end leftwards to the last column of valuation 0,
        # e0, but not past a stop: when straddling, the column where a first
        # walk from the left end ended, so that no column is valued twice;
        # once a floor has dropped a nonzero coefficient, the highest floor,
        # past which no entry is cut
        left, stop = [], -1
        if not self._side:
            left = _walk(spans, lo, g, range(size), p)
            stop = (left[-1][0] - lo) // g if left else -1
        elif self._dropped:
            # the k below the least that ``_rows`` keeps under that floor,
            # (m + 1)*out - reach - least slack
            stop = max(-1, ((m + 1) * self._out - self._reach - self._least - lo - 1) // g)
        return self._walked(left, _walk(spans, lo, g, range(size - 1, stop, -1), p), m)

    def _walked(self, left, found, m: int) -> Optional[list[tuple[int, int]]]:
        """The hull of S_(m+1) from the points of its walks; None on a miss,
        a one-sided walk that finds no column of valuation 0 once a floor has
        dropped a nonzero coefficient."""
        if self._side and found and found[-1][1] == 0:
            self._inward[m + 1] = (m + 1) * self._out - found[-1][0] - self._least
        elif self._dropped:
            # a miss: e0 can lie past the floor (only a one-sided state drops one)
            return None
        return upper_hull(left + found[::-1])

    def _flat_step(self, m: int, cap: int) -> Union[list[tuple[int, int]], None, bool]:
        """Step m -> m + 1 as ``_rows`` and ``_step_hull`` run it under the
        highest floor ``cap``, which each entry's slack less the least moves
        in, on the newest row held flat: the hull of S_(m+1), None on a miss,
        or False if ``_rows`` runs the step (see the class docstring).

        A row held flat is its coefficients in one int list, entry after
        entry, its layout, (offset, length) of each entry on the stride from
        its least exponent lo ((0, 0) for a zero entry), and lo.  The plan's
        key clamps cap - lo at the least shift, as a floor below lo plus the
        least shift cuts nothing."""
        flat, g = self._flat, self._g
        if flat:
            row, lay, lo = flat[-1]
        else:
            cs = sum(self._S[-1][-(self.rank // self._lag) :], ())
            if max(map(len, cs)) > _SHORT:
                return False
            lo = min([c.lo for c in cs if c] or [0])
            lay = tuple([((c.lo - lo) // g, len(c)) if c else (0, 0) for c in cs])
            row = [v for c in cs for v in c]
        if max([n for _, n in lay]) > _SHORT or self._seen.setdefault((lay, self._slack), m) >= m:
            return False
        key = (lay, self._slack, max(cap - lo, self._out - g * self._spread), self._dropped)
        plan = self._plans.get(key) or self._plans.setdefault(key, self._plan(*key))
        size, gops, qops, kept, walk, segs = plan
        acc = [0] * size
        for k, t, v in gops:
            acc[k] += v * row[t]
        # a Q term's multiplier d*v*(e - m*f) is d*v*(e - lo), the triple's,
        # plus d*v*lo - m*d*f*v, one base per term and step
        for ops, (_, dv, dfv) in zip(qops, self._qterms):
            base = dv * lo - m * dfv
            for k, t, c in ops:
                acc[k] += (c + base) * row[t]
        if size > kept:
            self._dropped = any(acc[kept:])
            del acc[kept:]
        self._coeff_count += kept - acc.count(0)
        # column c holds the exponent e + g*c; once a floor has dropped a
        # nonzero coefficient, the walk stops at the highest, cap
        e = lo + self._out
        stop = -((e - cap) // g) if self._dropped else -_NEVER
        found = []
        for c, at in walk:
            if c < stop:
                break
            col = [acc[k] for k in at]
            if any(col):
                v = min_valuation(col, self.p)
                found.append((e + g * c, -v))
                if not v:
                    break
        row, lay = [], []
        for a, b, c in segs:
            while a < b and not acc[a]:
                a += 1
            while a < b and not acc[b - 1]:
                b -= 1
            row += acc[a:b]
            lay.append((c + a, b - a))
        c_lo = min([c for c, n in lay if n] or [0])
        flat.append((row, tuple([(c - c_lo, n) if n else (0, 0) for c, n in lay]), e + g * c_lo))
        del flat[: -self._lag]
        return self._walked([], found, m)

    def _plan(self, lay, slack, x: int, dropped: bool) -> tuple:
        """The plan of a step from a row of layout ``lay`` under ``slack``, the
        highest floor cap = lo + x and ``_dropped`` = ``dropped``.  Entry e's
        columns c, at the exponents lo + out + g*c, are those its terms
        reach; the accumulator holds those it keeps, entry after entry, then,
        unless ``dropped``, those its floor drops, as no step reads them once
        a floor has dropped a nonzero coefficient.  The plan holds the size
        of the accumulator, the triples of the d*Q*G terms and those of each
        Q term, the number of columns kept, the walk's columns right to left
        with their positions, and each entry's kept segment (start, stop,
        column of position 0), which the step trims."""
        g, out, mu = self._g, self._out, self.rank
        starts = list(accumulate([n for _, n in lay], initial=0))
        terms, spans = [], []
        for e in range(len(lay)):
            # (source entry, shift, multiplier, 0) of each d*Q*G term, and
            # (entry e, shift, d*v, 1 + index) of each Q term
            i, j = divmod(e, mu)
            reads = [(i * mu + t, s, v, 0) for t, ts, _, _ in self._parts[j] for s, v in ts]
            reads += [(e, s, dv, q) for q, (s, dv, _) in enumerate(self._qterms, 1)]
            new = [
                (e, o + k + (s - out) // g, starts[t] + k, v * g * (o + k) if q else v, q)
                for t, s, v, q in reads
                for o, n in [lay[t]]
                for k in range(n)
            ]
            cs = [c for _, c, _, _, _ in new]
            a, b = (min(cs), max(cs) + 1) if cs else (0, 0)
            spans.append((a, max(a, min(b, -((out + (slack[i][j] if slack else 0) - x) // g))), b))
            terms += new
        at = [(e, c) for e, (_, cut, b) in enumerate(spans) for c in range(cut, b)]
        kept = len(at)
        if not dropped:
            at += [(e, c) for e, (a, cut, _) in enumerate(spans) for c in range(a, cut)]
        at = {ec: k for k, ec in enumerate(at)}
        ops = [(at[e, c], t, v, q) for e, c, t, v, q in terms if (e, c) in at]
        cols: dict[int, list[int]] = {}
        for (_, c), k in list(at.items())[:kept]:
            cols.setdefault(c, []).append(k)
        ks = list(accumulate([b - cut for _, cut, b in spans], initial=0))
        segs = [(k, k1, cut - k) for (_, cut, _), k, k1 in zip(spans, ks, ks[1:])]
        gops = [op[:3] for op in ops if not op[3]]
        qops = [[op[:3] for op in ops if op[3] == q] for q in range(1, len(self._qterms) + 1)]
        walk = sorted(cols.items(), reverse=True)
        return len(at), gops, qops, kept, walk, segs

    def _settle(self) -> None:
        """Bring ``_S[-1]`` up to date with the rows held flat."""
        for row, lay, lo in self._flat:
            ends = accumulate(n for _, n in lay)
            new = [_Coeffs(row[k - n : k], lo + self._g * o) for (o, n), k in zip(lay, ends)]
            new = [c if c else _Coeffs() for c in new]
            self._S[-1] = (self._S[-1] + tuple(zip(*[iter(new)] * self.rank)))[-self.rank :]
        self._flat.clear()

    def _rows(
        self, window, m: int, cap: Optional[int], slack=None
    ) -> tuple[tuple[_Coeffs, ...], ...]:
        """The rows of S_(m+1) that a step computes, all or row 0, from the
        newest rows of the window of S_m, in one pass over their entries.
        Entry (i, j) is sum_t S[i][t]*(d*Q*G[t][j]) + d*(Q*S[i][j]' - m*S[i][j]*Q'),
        computed whole, then cut at ``cap`` if one is given, moved in by
        slack[i][j] if a slack is given: its stored exponents below the cap
        are dropped, and so are its zero ends."""
        g, qterms = self._g, self._qterms
        q_lo, q_hi = qterms[0][0], qterms[-1][0]
        dropped = self._dropped
        rows = []
        for i, Si in enumerate(window[-(self.rank // self._lag) :]):
            # each long source that a shared pair multiplies, scaled once for this row
            scaled = {
                (t, v): [v * y for y in Si[t]] for t, v in self._shared if len(Si[t]) > _SHORT
            }
            row = []
            for j, parts in enumerate(self._parts):
                # the least and largest exponent that a term reaches
                bq = Si[j]
                if bq:
                    lo, hi = bq.lo + q_lo, bq.lo + g * (len(bq) - 1) + q_hi
                else:
                    lo, hi = _NEVER, -_NEVER
                for t, _, s_lo, s_hi in parts:
                    b = Si[t]
                    if b:
                        if b.lo + s_lo < lo:
                            lo = b.lo + s_lo
                        if b.lo + g * (len(b) - 1) + s_hi > hi:
                            hi = b.lo + g * (len(b) - 1) + s_hi
                if lo > hi:
                    row.append(_Coeffs())
                    continue
                acc = [0] * ((hi - lo) // g + 1)
                # until the first write, acc is zeros: that write stores its terms
                fresh = True
                for t, terms, _, _ in parts:
                    b = Si[t]
                    if b:
                        size = len(b)
                        for s, v in terms:
                            k = (b.lo + s - lo) // g
                            if size <= _SHORT:
                                for k, y in enumerate(b, k):
                                    acc[k] += v * y
                                fresh = False
                                continue
                            at = slice(k, k + size)
                            # one big-integer operation a coefficient: a product
                            # by 1 still copies the big integer, so read the
                            # source itself, or its scaled copy for a shared pair
                            src = b if v == 1 else scaled.get((t, v))
                            if fresh:
                                acc[at] = [v * y for y in b] if src is None else src
                                fresh = False
                            elif src is None:
                                acc[at] = [x + v * y for x, y in zip(acc[at], b)]
                            else:
                                acc[at] = [x + y for x, y in zip(acc[at], src)]
                if bq:
                    size = len(bq)
                    for s, dv, dfv in qterms:
                        k = (bq.lo + s - lo) // g
                        # the multiplier d*v*(e - m*f) at each exponent e of bq, a ramp
                        r, dr = dv * bq.lo - m * dfv, dv * g
                        if size <= _SHORT:
                            for k, y in enumerate(bq, k):
                                acc[k] += r * y
                                r += dr
                            continue
                        at = slice(k, k + size)
                        ramp = range(r, r + dr * size, dr)
                        acc[at] = [x + c * y for x, c, y in zip(acc[at], ramp, bq)]
                # keep acc[k0:k1]: the exponents lo + g*k >= the cap, without
                # the zero ends
                k0, k1 = 0, len(acc)
                if cap is not None:
                    c = cap if slack is None else cap - slack[i][j]
                    k0 = min(max(0, -((lo - c) // g)), k1)
                    dropped = dropped or any(acc[:k0])
                while k0 < k1 and not acc[k0]:
                    k0 += 1
                while k0 < k1 and not acc[k1 - 1]:
                    k1 -= 1
                row.append(_Coeffs(acc[k0:k1], lo + g * k0) if k0 < k1 else _Coeffs())
            rows.append(tuple(row))
        self._dropped = dropped
        return tuple(rows)

    def _restart(self) -> None:
        """Back to S_0, for a re-run under another floor; of the steps run,
        only the e0 seen stay, to plan the floors."""
        self._S[-1] = self._start
        self._flat.clear()
        del self._hulls[1:], self._n_minus_sp[1:]
        self._bound = None
        self._dropped = False
        self._slack, self._least = self._start_slack, 0

    def _next_slack(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The slack of the next step, less its least, and that least, as an
        offset from this step's: for each entry, the least over its sources t
        of the slack of t plus out - s, s the source's largest shift, and
        _NEVER for a zero entry.  A slack's successor depends on it alone,
        so each is computed once."""
        nxt = self._slacks.get(self._slack)
        if nxt is None:
            raw = [[min([e[t] + d for t, d in src]) for src in self._sources] for e in self._slack]
            least = min(map(min, raw))
            rel = tuple(tuple(min(v - least, _NEVER) for v in row) for row in raw)
            nxt = self._slacks[self._slack] = (rel, least)
        return nxt

    def _planned(self, target: int, miss: Optional[tuple[int, int]] = None) -> int:
        """The reach for a run to step ``target``: the newest inward distance
        d of e0 (with a miss, its step and least d), plus 2 strides and the
        largest change of d between consecutive steps seen, so it follows
        the d seen, not the target.  On a miss, or once target/8 steps are
        seen, d is extrapolated to ``target`` along the steeper of its slope
        over the newer half of the steps seen and its mean slope since S_0:
        on a short history the newer half alone can miss a drift."""
        seen = list(self._inward.items()) + ([miss] if miss else [])
        m1, d1 = seen[-1]
        jump = max((abs(b - a) for (_, a), (_, b) in zip(seen, seen[1:])), default=0)
        reach = d1 + 2 * self._g + jump
        m0, d0 = next((m, d) for m, d in seen if m >= m1 // 2)
        if (miss or 8 * m1 >= target) and m1:
            span = target - m1
            reach += max(-(-d1 * span // m1), -((d0 - d1) * span // max(m1 - m0, 1)))
        return reach

    def _carried_bound(self, m: int, lo: int, size: int) -> list[int]:
        """A lower bound on v_p of the columns lo + g*k, k < size, of S_(m+1):
        the min over the step's terms of the bound at the source column plus
        a weight, the least v_p of a d*Q*G term's coefficients at its shift,
        or, for a Q term, v_p(gcd(a, b)) for its ramp a + b*k = d*v*(e - m*f)
        over the source exponents e = sign*(blo + g*k), which no value of the
        ramp falls below."""
        g, p = self._g, self.p
        blo, bound = self._bound
        n = len(bound)
        weights = self._gw + tuple(
            (o, padic_valuation(math.gcd(dv * blo - m * dfv, dv * g), p))
            for o, dv, dfv in self._qw
        )
        # over every exponent a term can reach, blo + least shift onwards
        out = [_NEVER] * (n + self._spread)
        for o, w in weights:
            out[o : o + n] = [x if x <= y + w else y + w for x, y in zip(out[o : o + n], bound)]
        # the least shift is the largest, out, less g*spread
        a = (lo - blo - self._out) // g + self._spread
        return out[a : a + size]

    # -- exact view of the current step ----------------------------------------

    def term_matrix(self, n: Optional[int] = None) -> RFMatrix:
        """G_n for 0 <= n <= ``depth`` (default ``depth``) as a matrix of
        rational functions, unreduced: row i is S_m's row over d^m Q^m,
        m = n + i // (rows per step), so m = n for every row, or m = n + i
        when only row 0 is computed.  The window may be cut at a floor, so
        this reruns the step loop from S_0 with none."""
        n = self.depth if n is None else n
        if not 0 <= n <= self.depth:
            raise InputError(f"n = {n}: term_matrix needs 0 <= n <= depth = {self.depth}")
        g, sign, per_step = self._g, self._sign, self.rank // self._lag
        window = self._start
        for m in range(n + self._lag - 1):
            window = (window + self._rows(window, m, None))[-self.rank :]
        rows = []
        for i, row in enumerate(window):
            m = n + i // per_step
            den = self.Q**m * self.d**m
            polys = (LaurentPoly({sign * (c.lo + g * t): v for t, v in enumerate(c)}) for c in row)
            rows.append([RationalFunction(pe, den) for pe in polys])
        return RFMatrix(rows)

    # -- norms ----------------------------------------------------------------

    def log_norms(
        self,
        rho: Rational,
        depth: Optional[int] = None,
        include_factorial: bool = True,
    ) -> tuple[list[Optional[int]], int]:
        """log_p ||G_n / n!|| (or ||G_n||) for n = 0..depth as (nums, den):
        entry n is nums[n] / den, and None marks a zero matrix.  rho must lie
        in the closed interval; the check comes before the state grows."""
        depth = self.depth if depth is None else depth
        if depth < 0:
            raise InputError("depth must be nonnegative")
        rho = Fraction(rho)
        # the hulls are exact on the closed interval alone
        if not self.interval.contains(rho, closed=True):
            raise DomainError(f"rho={rho} outside the closed interval {self.interval}")
        self.extend(depth)
        a, b = self._sign * rho.numerator, rho.denominator
        # ||G_n|| = ||S_n|| * |d|^-n / ||Q||^n, and ||S_n|| = max over hull
        # vertices of (y + sign*e*rho) = max(b*y + a*e) / b; log_p |n!| is
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


def _walk(spans, lo: int, g: int, ks: Iterable[int], p: Prime) -> list[tuple[int, int]]:
    """The points (lo + g*k, -v) of the nonzero columns k in ``ks``, valued in
    turn up to the first of valuation 0, as high as any point gets; column k
    holds the coefficients of x^(lo + g*k) in the entries of ``spans`` that
    reach it, each given with the range [a, b) of the k it covers."""
    found = []
    for k in ks:
        col = [c[k - a] for c, a, b in spans if a <= k < b]
        if any(col):
            v = min_valuation(col, p)
            found.append((lo + g * k, -v))
            if not v:
                break
    return found


def _refined_hull(spans, lo: int, bound: list[int], g: int, p: Prime) -> list[tuple[int, int]]:
    """Upper hull of (e, -min v_p) over the nonzero columns lo + g*k of the
    entries of ``spans`` (as ``_walk`` reads them), given a lower bound on
    each column's v; the bound is raised in place to the exact v of every
    column valued, and to ``_NEVER`` for a zero column.

    It values the two end columns and the first and last of least bound,
    which are vertices of the hull of the bound points (e, -bound).  Then,
    while some column's bound point lies strictly above the hull H of the
    exact points valued so far, it values the vertices of the hull of H and
    those bound points.  A column whose bound point is on or below H has
    its exact point there too, so H is then the exact hull."""
    n = len(bound)
    least = min(bound)
    todo = {0, n - 1, bound.index(least), n - 1 - bound[::-1].index(least)}
    valued: set[int] = set()
    while todo:
        for k in todo:
            col = [c[k - a] for c, a, b in spans if a <= k < b]
            bound[k] = min_valuation(col, p) if any(col) else _NEVER
        valued |= todo
        hull = upper_hull([(k, -bound[k]) for k in sorted(valued) if bound[k] != _NEVER])
        segments = zip(hull, hull[1:])
        above = [k for (k1, y1), (k2, y2) in segments for k in _above(bound, k1, y1, k2, y2)]
        if not above:
            break
        outer = upper_hull(sorted(hull + [(k, -bound[k]) for k in above]))
        todo = {k for k, _ in outer} - valued
    return [(lo + g * k, y) for k, y in hull]


def _above(bound: list[int], k1: int, y1: int, k2: int, y2: int) -> list[int]:
    """The k in [k1, k2] whose point (k, -bound[k]) lies strictly above the
    segment from (k1, y1) to (k2, y2), k1 < k2, in integers: -bound[k]*D >
    y1*D + (y2 - y1)*(k - k1) with D = k2 - k1."""
    span, dy = k2 - k1, y2 - y1
    limit = dy * k1 - y1 * span
    return [k for k in range(k1, k2 + 1) if bound[k] * span + dy * k < limit]


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
    to ``depth`` under this call's coefficient budget.

    A state grown earlier may be deeper than ``depth``: ``term_matrix()``
    describes G_n for n = ``state.depth``, and ``term_matrix(depth)`` G_n for
    the ``depth`` asked for."""
    if depth < 0:
        raise InputError("depth must be nonnegative")
    state = module._state
    state.extend(depth, budget)
    return state


def norm_sequence(
    module: DiffModule,
    rho: Rational,
    depth: int = DEFAULT_DEPTH,
    include_factorial: bool = True,
) -> tuple[Optional[Fraction], ...]:
    """log_p ||G_n / n!|| at rho for n = 0..depth; None marks a zero matrix.

    rho must lie in the closure of the module interval: ``log_norms`` raises
    ``DomainError`` otherwise, before it grows the state to ``depth``.
    """
    nums, den = gn_sequence(module, 0).log_norms(rho, depth, include_factorial)
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
