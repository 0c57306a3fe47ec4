"""Exact p-adic magnitude arithmetic in base-p logarithmic coordinates.

Every absolute value handled by this package is stored as its base-p
logarithm, an exact ``Fraction``: |a| = p^v is stored as v.  The absolute
value 0 has no finite logarithm; wherever a magnitude may be that of 0 (the
Gauss norm of the zero function, an entry of a norm sequence) it is ``None``.

Log-radii (rho = log_p r) are plain ``Fraction`` values; open intervals of
log-radii are ``Interval`` values.  Everything here is immutable and safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence, Union

from .errors import InputError

__all__ = [
    "Rational",
    "Prime",
    "as_prime",
    "Interval",
    "padic_valuation",
    "min_valuation",
    "log_abs",
    "digit_sum",
    "upper_hull",
    "lower_envelope",
]

Rational = Union[int, Fraction]

# Python's default limit on the digits of an int <-> str conversion; a number
# past it can be neither parsed from text nor printed in a report
MAX_DIGITS = 4300


# Miller-Rabin with the first 12 primes as bases is exact below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A prime base p.

    Exposes the Dwork constant log_p(pi) = -1/(p-1), the logarithmic
    magnitude of pi = p^(-1/(p-1)).
    """

    p: int

    def __post_init__(self) -> None:
        if isinstance(self.p, int) and self.p >= _PRIME_LIMIT:
            raise InputError(f"p must be below {_PRIME_LIMIT}")
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise InputError(f"not a prime: {self.p!r}")

    @cached_property
    def _word_power(self) -> tuple[int, dict[int, int]]:
        """W = p^k, the largest power of p below 2^60 (k >= 1, so W = p for
        a larger p), and the table {p^j: j} of its divisors."""
        w, k = self.p, 1
        table = {1: 0, w: 1}
        while w * self.p < 2**60:
            w, k = w * self.p, k + 1
            table[w] = k
        return w, table

    @property
    def log_pi(self) -> Fraction:
        return Fraction(-1, self.p - 1)

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


def as_prime(p: Union[int, Prime]) -> Prime:
    """p as a ``Prime``.  Ints share one instance per prime, so the primality
    test and the word-power table of ``padic_valuation`` and
    ``min_valuation`` run once per prime, not once per call."""
    return p if isinstance(p, Prime) else _shared_prime(int(p))


@lru_cache(maxsize=64)
def _shared_prime(p: int) -> Prime:
    return Prime(p)


def padic_valuation(n: int, p: Union[int, Prime]) -> int:
    """v_p(n) for a nonzero integer n.

    Recursion coefficients carry valuations in the hundreds, so for odd p the
    word power W = p^k is stripped in doubling chunks W, W^2, W^4, ... and
    the ladder is then walked back down, rather than one factor at a time;
    what is left has v < k, read off as gcd(W, n) in the table of W's
    divisors.  For p = 2 the valuation is the lowest set bit.
    """
    if n == 0:
        raise InputError("valuation of 0 is undefined")
    q = as_prime(p)
    if q.p == 2:
        return (n & -n).bit_length() - 1
    w, table = q._word_power
    v = 0
    ladder = []
    power, step = w, table[w]
    while True:
        quo, rem = divmod(n, power)
        if rem:
            break
        n = quo
        v += step
        ladder.append((power, step))
        power, step = power * power, step * 2
    for power, step in reversed(ladder):
        quo, rem = divmod(n, power)
        if not rem:
            n = quo
            v += step
    return v + table[math.gcd(w, n)]


def min_valuation(values: Sequence[int], p: Union[int, Prime]) -> int:
    """min v_p over a sequence of integers, not all zero (zeros are ignored).

    gcd(W, *values) with the word-sized W = p^k is p^min(v, k), found in one
    C call at about one small modulus per value; only when every value is
    divisible by W does it fall back to the valuation of the full gcd.
    """
    q = as_prime(p)
    w, table = q._word_power
    g = math.gcd(w, *values)
    if g != w:
        return table[g]
    return padic_valuation(math.gcd(*values), q)


def log_abs(a: Rational, p: Union[int, Prime]) -> Fraction:
    """log_p |a|_p of a nonzero exact rational; InputError for a = 0.

    For a = p^k * u/v with u, v coprime to p this is the integer -k;
    log_abs(12, 2) = -2 because |12|_2 = 1/4.
    """
    a = Fraction(a)
    q = as_prime(p)
    return Fraction(padic_valuation(a.denominator, q) - padic_valuation(a.numerator, q))


def digit_sum(n: int, p: Union[int, Prime]) -> int:
    """Sum of base-p digits of n >= 0."""
    if n < 0:
        raise InputError("digit_sum needs n >= 0")
    q = as_prime(p).p
    s = 0
    while n:
        s += n % q
        n //= q
    return s


def upper_hull(points: Iterable[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """Vertices of the upper convex hull (least concave majorant) of points
    given in strictly increasing x order; collinear middle points are dropped.

    Only these vertices can attain max(y + x*rho) at any rho, which is how
    Gauss norms and Newton polygons use it.  Cross products stay in the
    coordinates' own type, so integer points never leave the integers.
    """
    hull: list[tuple[Rational, Rational]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def lower_envelope(lines: Sequence[tuple], interval: Interval) -> list[tuple]:
    """Pieces (lo, hi, line) of the pointwise min of the lines on the
    interval, left to right.

    ``lines`` are (slope, intercept, ...) tuples in strictly decreasing slope
    order.  The lines on the min over all rho are, by duality, the vertices
    of the upper hull of the points (slope, -intercept); a line that meets the
    min at one point only is not a vertex.  Lines whose piece ends at or
    before ``interval.lo``, or starts at or after ``interval.hi``, are
    dropped."""
    on_min = {s for s, _ in upper_hull((line[0], -line[1]) for line in reversed(lines))}
    kept = [line for line in lines if line[0] in on_min]
    while len(kept) >= 2 and _cut(kept[0], kept[1]) <= interval.lo:
        del kept[0]
    while len(kept) >= 2 and _cut(kept[-2], kept[-1]) >= interval.hi:
        kept.pop()
    cuts = [_cut(a, b) for a, b in zip(kept, kept[1:])]
    return list(zip([interval.lo, *cuts], [*cuts, interval.hi], kept))


def _cut(a, b) -> Fraction:
    """Intersection abscissa of two lines given as (slope, intercept, ...)."""
    return (a[1] - b[1]) / (b[0] - a[0])


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) of log-radii with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise InputError(f"degenerate or empty interval ({self.lo}, {self.hi})")

    def contains(self, rho: Rational, closed: bool = False) -> bool:
        rho = Fraction(rho)
        if closed:
            return self.lo <= rho <= self.hi
        return self.lo < rho < self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def interior_grid(self, count: int) -> list[Fraction]:
        """count equispaced points strictly inside the interval."""
        if count < 1:
            raise InputError("grid needs at least one point")
        step = (self.hi - self.lo) / (count + 1)
        return [self.lo + step * k for k in range(1, count + 1)]

    def scaled(self, factor: Rational) -> "Interval":
        """Interval of rho * factor, for factor > 0."""
        factor = Fraction(factor)
        if factor <= 0:
            raise InputError("interval scaling factor must be positive")
        return Interval(self.lo * factor, self.hi * factor)

    def remove_points(self, points) -> list["Interval"]:
        """Open subintervals left after deleting finitely many points."""
        cuts = sorted({Fraction(q) for q in points if self.contains(q)})
        pieces = []
        lo = self.lo
        for c in cuts:
            if lo < c:
                pieces.append(Interval(lo, c))
            lo = c
        if lo < self.hi:
            pieces.append(Interval(lo, self.hi))
        return pieces

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"
