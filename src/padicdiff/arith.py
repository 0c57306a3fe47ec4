"""Exact p-adic magnitude arithmetic in base-p logarithmic coordinates.

Every absolute value handled by this package is stored as its base-p
logarithm, an exact rational: |a| = p^v corresponds to ``LogMag(Fraction(v))``.
The absolute value 0 has no finite logarithm; it is the distinguished bottom
element ``LogMag.BOTTOM``, which absorbs products and is the identity of max.

Log-radii (rho = log_p r) are plain ``Fraction`` values; open intervals of
log-radii are ``Interval`` values.  Everything here is immutable and safe to
share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError

__all__ = [
    "Rational",
    "Prime",
    "as_prime",
    "LogMag",
    "BOTTOM",
    "Interval",
    "padic_valuation",
    "min_valuation",
    "log_abs",
    "digit_sum",
    "factorial_log_abs",
    "upper_hull",
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
    return p if isinstance(p, Prime) else Prime(int(p))


@total_ordering
@dataclass(frozen=True)
class LogMag:
    """log_p of a p-adic absolute value; ``log is None`` encodes |a| = 0.

    Addition is the magnitude of a product (logs add, bottom absorbs);
    the ordering makes ``max`` the magnitude of a sum's upper bound,
    with bottom below every finite value.
    """

    log: Optional[Fraction]

    @staticmethod
    def finite(value: Rational) -> "LogMag":
        return LogMag(Fraction(value))

    @property
    def is_bottom(self) -> bool:
        return self.log is None

    def __add__(self, other: object) -> "LogMag":
        if isinstance(other, LogMag):
            if self.log is None or other.log is None:
                return BOTTOM
            return LogMag(self.log + other.log)
        if isinstance(other, (int, Fraction)):
            return BOTTOM if self.log is None else LogMag(self.log + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "LogMag":
        """Magnitude of a quotient; the divisor must be nonzero."""
        if isinstance(other, LogMag):
            if other.log is None:
                raise ZeroDivisionError("magnitude quotient by |0|")
            other = other.log
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return BOTTOM if self.log is None else LogMag(self.log - other)

    def scaled(self, factor: Rational) -> "LogMag":
        """Magnitude of a power |a|^t for exact rational t > 0."""
        return BOTTOM if self.log is None else LogMag(self.log * Fraction(factor))

    def __lt__(self, other: "LogMag") -> bool:
        if not isinstance(other, LogMag):
            return NotImplemented
        if self.log is None:
            return other.log is not None
        if other.log is None:
            return False
        return self.log < other.log

    def __float__(self) -> float:
        return float("-inf") if self.log is None else float(self.log)

    def __repr__(self) -> str:
        return "LogMag(bottom)" if self.log is None else f"LogMag({self.log})"


BOTTOM = LogMag(None)


def padic_valuation(n: int, p: Union[int, Prime]) -> int:
    """v_p(n) for a nonzero integer n.

    Recursion coefficients carry valuations in the hundreds, so p is stripped
    in doubling chunks p, p^2, p^4, ... and the ladder is then walked back
    down, rather than one factor at a time.
    """
    if n == 0:
        raise InputError("valuation of 0 is undefined; use log_abs, which returns bottom")
    q = as_prime(p).p
    if q == 2:
        return (n & -n).bit_length() - 1
    v = 0
    ladder = []
    power, step = q, 1
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
    return v


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


def log_abs(a: Rational, p: Union[int, Prime]) -> LogMag:
    """log_p |a|_p of an exact rational, BOTTOM for a = 0.

    For a = p^k * u/v with u, v coprime to p this is the integer -k;
    log_abs(12, 2) = -2 because |12|_2 = 1/4.
    """
    a = Fraction(a)
    if a == 0:
        return BOTTOM
    q = as_prime(p).p
    return LogMag(Fraction(padic_valuation(a.denominator, q) - padic_valuation(a.numerator, q)))


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


def factorial_log_abs(n: int, p: Union[int, Prime]) -> Fraction:
    """log_p |n!|_p, computed exactly as -(n - digit_sum_p(n))/(p - 1)."""
    q = as_prime(p).p
    return Fraction(-(n - digit_sum(n, q)), q - 1)


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
