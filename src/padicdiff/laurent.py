"""Laurent polynomials and rational functions over exact rationals.

The coefficient domain is Q throughout; a Laurent polynomial is a finite
map from integer exponents to nonzero ``Fraction`` coefficients.  The Gauss
norm at log-radius rho,

    |sum a_n x^n| at rho  =  max_n ( log_p|a_n| + n*rho ),

is exact, multiplicative, and extends to quotients as numerator norm minus
denominator norm.  Root magnitudes of denominators come from lower Newton
polygons, which is all the root finding this package ever needs.

The module also owns the text grammar for rational functions used by the
command-line front end: integer literals, one variable, ``+ - * / ^`` and
parentheses, e.g. ``(1 - x^2)/(4*x)``.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .arith import (
    MAX_DIGITS,
    Interval,
    Prime,
    Rational,
    as_prime,
    log_abs,
    upper_hull,
)
from .errors import InputError, ParseError
from .jsonutil import frac_str

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "gauss_norm",
    "newton_root_logmags",
    "pole_free_on",
    "parse_rational_function",
    "poly_to_str",
    "rf_to_str",
]


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    Stored as {exponent: coefficient} with no zero coefficients; the empty
    map is the zero polynomial.  Instances are immutable by convention.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Optional[Mapping[int, Rational]] = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = Fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def constant(value: Rational) -> "LaurentPoly":
        return LaurentPoly({0: Fraction(value)})

    @staticmethod
    def x(exponent: int = 1, coeff: Rational = 1) -> "LaurentPoly":
        return LaurentPoly({exponent: Fraction(coeff)})

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._c)

    def coeff(self, exponent: int) -> Fraction:
        return self._c.get(exponent, Fraction(0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_monomial(self) -> bool:
        return len(self._c) == 1

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise InputError("zero polynomial has no support")
        return min(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self._c == LaurentPoly.constant(other)._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_to_str(self)})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", Rational]) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return LaurentPoly.zero()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: v * other for e, v in self._c.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # convolve over Z after clearing denominators: one Fraction build per
        # output coefficient instead of one per term product
        d1 = math.lcm(*(v.denominator for v in self._c.values()))
        d2 = math.lcm(*(v.denominator for v in other._c.values()))
        a = {e: v.numerator * (d1 // v.denominator) for e, v in self._c.items()}
        b = {e: v.numerator * (d2 // v.denominator) for e, v in other._c.items()}
        acc: dict[int, int] = {}
        _mul_acc(acc, a, b)
        scale = Fraction(1, d1 * d2)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: v * scale for e, v in acc.items() if v}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_monomial:
                raise InputError("negative powers only for monomials; use RationalFunction")
            e, v = next(iter(self._c.items()))
            return LaurentPoly({e * n: Fraction(1) / v ** (-n)})
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self) -> "LaurentPoly":
        """Termwise d/dx: a_n x^n -> n a_n x^(n-1)."""
        return LaurentPoly({e - 1: e * v for e, v in self._c.items() if e})

    def substitute_power(self, m: int) -> "LaurentPoly":
        """x -> x^m for a nonzero integer m."""
        if m == 0:
            raise InputError("substitution exponent must be nonzero")
        return LaurentPoly({e * m: v for e, v in self._c.items()})

    # -- norms -------------------------------------------------------------

    def norm_profile(self, p: Union[int, Prime]) -> list[tuple[int, Fraction]]:
        """Sorted (exponent, log_p|coeff|) pairs."""
        q = as_prime(p)
        return sorted((e, log_abs(v, q)) for e, v in self._c.items())

    def gauss_norm(self, rho: Rational, p: Union[int, Prime]) -> Optional[Fraction]:
        """log_p of the Gauss norm at log-radius rho; None for the zero polynomial."""
        if not self._c:
            return None
        rho = Fraction(rho)
        return max(lv + e * rho for e, lv in self.norm_profile(p))


# ---------------------------------------------------------------------------
# the one polynomial product, over {exponent: coefficient} maps
# ---------------------------------------------------------------------------


def _mul_acc(acc: dict, a: Mapping[int, Rational], b: Mapping[int, Rational]) -> None:
    """acc += a*b in place, over {exponent: coefficient} maps.

    May leave zero coefficients in acc; callers filter once when the sum is
    complete.  The outer loop runs over a: pass the shorter factor first."""
    get = acc.get
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            acc[e] = get(e, 0) + v1 * v2


# ---------------------------------------------------------------------------
# ordinary-polynomial helpers (min exponent 0), used for reduction and gcd
# ---------------------------------------------------------------------------


_ONE = {0: 1}  # the coefficient dict of the polynomial 1

# largest max(deg A, deg B)·log10 ξ for which ``_poly_gcd`` evaluates A and
# B at ξ: the digits of the integers whose gcd it takes.  Dense entries under
# it, degree 1000 with 99-digit coefficients or degree 19,999, reduce in at
# most 0.35 s
MAX_EVAL_DIGITS = 100_000


def _prim_int(c: dict[int, Fraction]) -> tuple[Fraction, dict[int, int]]:
    """(k, P) with P a primitive integer polynomial and c = k·P, k > 0."""
    den = math.lcm(*(v.denominator for v in c.values()))
    ints = {e: v.numerator * (den // v.denominator) for e, v in c.items()}
    g = math.gcd(*ints.values())
    return Fraction(g, den), {e: v // g for e, v in ints.items()}


def _exact_div(a: dict[int, int], b: dict[int, int]) -> Optional[dict[int, int]]:
    """a / b in Z[x] if b divides a there, else None.

    The remainder's exponents wait in one sorted list, so the work follows
    the terms met and not the degree: x^N + 1 over itself is one step for
    any N."""
    db = max(b)
    lb, low = b[db], [(e - db, v) for e, v in b.items() if e != db]
    rem, quo = dict(a), {}
    todo = sorted(rem)
    while todo:
        e = todo.pop()
        q, r = divmod(rem.pop(e), lb)
        if r or (q and e < db):
            return None
        if q:
            quo[e - db] = q
            for f, v in low:
                if e + f not in rem:
                    bisect.insort(todo, e + f)
                rem[e + f] = rem.get(e + f, 0) - q * v
    return quo


def _eval(items: list[tuple[int, int]], xi: int, base: int = 0) -> int:
    """The sum of c·xi^(e - base) over the pairs (e, c) of items, sorted by e.

    Its halves are joined by one power of xi, so a sparse polynomial costs
    no more than its terms, and a dense one far less than by Horner."""
    if len(items) == 1:
        return items[0][1] * xi ** (items[0][0] - base)
    m = len(items) // 2
    right = items[m][0]
    return _eval(items[:m], xi, base) + xi ** (right - base) * _eval(items[m:], xi, right)


def _poly_gcd(a: dict[int, int], b: dict[int, int]) -> tuple[dict, dict, dict]:
    """(G, a/G, b/G) with G the gcd of primitive integer polynomials a and b.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): G is read
    from gcd(a(ξ), b(ξ)) as symmetric base-ξ digits and kept only if it
    divides a and b exactly, which makes it the gcd as ξ ≥ 2·min(‖a‖∞,
    ‖b‖∞) + 2; otherwise ξ grows by a factor of about 2.7·ξ^(1/4)."""
    da, db = max(a), max(b)
    if not da or not db:
        return _ONE, a, b
    s = math.gcd(*a, *b)
    if s > 1:  # a and b are polynomials in x^s, and so are G and the cofactors
        parts = _poly_gcd({e // s: v for e, v in a.items()}, {e // s: v for e, v in b.items()})
        return tuple({e * s: v for e, v in c.items()} for c in parts)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    while max(da, db) * math.log10(xi) <= MAX_EVAL_DIGITS:
        gamma = math.gcd(_eval(sorted(a.items()), xi), _eval(sorted(b.items()), xi))
        g, e = {}, 0
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > xi // 2:
                d, gamma = d - xi, gamma + 1
            if d:
                g[e] = d
            e += 1
        k = math.gcd(*g.values())
        g = {e: v // k for e, v in g.items()}
        qa = _exact_div(a, g)
        qb = None if qa is None else _exact_div(b, g)
        if qb is not None:
            return g, qa, qb
        xi = xi * math.isqrt(math.isqrt(xi)) * 73794 // 27011
    raise InputError(
        f"the gcd of polynomials of degrees {da} and {db} needs integers of more"
        f" than {MAX_EVAL_DIGITS} digits: too large to reduce"
    )


class RationalFunction:
    """A quotient of Laurent polynomials, not necessarily reduced.

    Equality is representation-independent (cross multiplication).  Lowest
    terms are computed on demand by :meth:`reduce`, which also absorbs
    monomial denominators into the Laurent numerator and normalizes the
    remaining denominator to a primitive integer polynomial with positive
    leading coefficient and nonzero constant term.
    """

    __slots__ = ("num", "den", "_reduced")

    def __init__(self, num: LaurentPoly, den: Optional[LaurentPoly] = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero:
            raise InputError("zero denominator")
        self.num = num
        self.den = den
        self._reduced: Optional[RationalFunction] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(LaurentPoly.one())

    @staticmethod
    def constant(value: Rational) -> "RationalFunction":
        return RationalFunction(LaurentPoly.constant(value))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.constant(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        r = self.reduce()
        return hash((r.num, r.den))

    def __repr__(self) -> str:
        return f"RationalFunction({rf_to_str(self)})"

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise InputError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.num.is_zero:
                raise InputError("negative power of zero")
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num**n, self.den**n)

    def derivative(self) -> "RationalFunction":
        """Quotient rule: (n/d)' = (n'd - nd')/d^2."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def substitute_power(self, m: int) -> "RationalFunction":
        return RationalFunction(self.num.substitute_power(m), self.den.substitute_power(m))

    # -- reduction -----------------------------------------------------------

    def reduce(self) -> "RationalFunction":
        """Lowest terms with a canonical denominator (cached)."""
        if self._reduced is not None:
            return self._reduced
        if self.num.is_zero:
            out = RationalFunction(LaurentPoly.zero())
        else:
            m_num, m_den = self.num.min_exp, self.den.min_exp
            k_num, n0 = _prim_int({e - m_num: v for e, v in self.num._c.items()})
            k_den, d0 = _prim_int({e - m_den: v for e, v in self.den._c.items()})
            _, n0, d0 = _poly_gcd(n0, d0)
            sign = 1 if d0[max(d0)] > 0 else -1
            scale = sign * k_num / k_den
            num = LaurentPoly({e + m_num - m_den: v * scale for e, v in n0.items()})
            den = LaurentPoly({e: sign * v for e, v in d0.items()})
            out = RationalFunction(num, den)
        out._reduced = out
        self._reduced = out
        return out


def _coerce(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(value)
    return NotImplemented


def common_denominator(dens: Iterable[LaurentPoly]) -> LaurentPoly:
    """The least common multiple Q of denominators as ``reduce`` leaves them:
    a primitive integer polynomial with positive leading coefficient."""
    q = LaurentPoly.one()
    for den in dens:
        if den._c != _ONE:
            q = q * LaurentPoly(_poly_gcd(_prim_int(q._c)[1], _prim_int(den._c)[1])[2])
    return q


def exact_quotient(q: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """q / den for primitive integer polynomials q and den that divides it,
    such as Q / den."""
    if den._c == _ONE:
        return q
    return LaurentPoly(_exact_div(_prim_int(q._c)[1], _prim_int(den._c)[1]))


def gauss_norm(
    f: Union[LaurentPoly, RationalFunction],
    rho: Rational,
    p: Union[int, Prime],
) -> Optional[Fraction]:
    """Gauss norm log_p|f| at log-radius rho; None for the zero function.

    For a Laurent polynomial this is max_n (log_p|a_n| + n*rho); for a
    quotient it is the numerator norm minus the denominator norm, which by
    multiplicativity never requires reduction.
    """
    if isinstance(f, LaurentPoly):
        return f.gauss_norm(rho, p)
    num_norm = f.num.gauss_norm(rho, p)
    return None if num_norm is None else num_norm - f.den.gauss_norm(rho, p)


def newton_root_logmags(f: LaurentPoly, p: Union[int, Prime]) -> list[tuple[Fraction, int]]:
    """Log-magnitudes of the nonzero roots of f, with multiplicities.

    Computed from the lower Newton polygon of the points (n, v_p(a_n)):
    a hull segment of slope s and horizontal length m accounts for m roots
    of log-magnitude s over an algebraically closed valued field.  Roots at
    0 (monomial factors) carry no finite log-magnitude and are dropped.
    """
    if f.is_zero:
        raise InputError("zero polynomial has every root")
    # the lower polygon of (n, v) is the upper hull of (n, log|a_n|) = (n, -v)
    hull = upper_hull(f.norm_profile(p))
    return [(Fraction(y1 - y2, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def pole_free_on(
    f: RationalFunction,
    interval: Interval,
    p: Union[int, Prime],
) -> bool:
    """True iff f has no pole of log-magnitude inside the open interval;
    the poles are those of f in lowest terms, as ``pole_logmags`` lists them.
    """
    return not any(interval.contains(s) for s in pole_logmags(f, p))


def pole_logmags(f: RationalFunction, p: Union[int, Prime]) -> list[Fraction]:
    """Distinct log-magnitudes of poles of f (after reduction)."""
    r = f.reduce()
    if r.den == LaurentPoly.one():
        return []
    return sorted({s for s, _ in newton_root_logmags(r.den, p)})


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# largest exponent span of a power or product in matrix text: expanding
# (1+x)^n costs more than n^2, and (1+x)^2000 already takes about 8 times as
# long as (1+x)^1000
MAX_POWER_SPAN = 1000

# deepest nesting of parentheses in matrix text; the parser recurses six
# frames per level, so this stays well inside Python's recursion limit
MAX_NESTING = 100


def _height(f: LaurentPoly) -> int:
    """max(||c f||_1, c) for a nonzero f, with c clearing its denominators."""
    c = math.lcm(*(v.denominator for v in f.coeffs.values()))
    return max(sum(int(abs(v) * c) for v in f.coeffs.values()), c)


def _check_size(op: str, factors: Sequence[tuple[LaurentPoly, int]]) -> None:
    """Reject the product of f^k over ``factors`` before computing it when
    the result would be too large; ``op`` names the expression in the error.

    With c clearing the denominators of f, every coefficient of f^k is a
    quotient of integers of at most max(||c f||_1, c)^k, and these bounds
    multiply over a product; the exponent spans k*span(f) add.  A monomial
    factor only shifts and scales the others, so a product with one adds no
    span: x^100000 and 7*(1+x^2000) stay legal.
    """
    factors = [(f, k) for f, k in factors if not f.is_zero]
    room = float(MAX_DIGITS)
    for f, k in factors:
        bound = _height(f)
        if bound > 1:
            if k > room / math.log10(bound):
                raise ParseError(f"{op}: coefficients would pass {MAX_DIGITS} digits")
            room -= k * math.log10(bound)
    if not any(f.is_monomial for f, _ in factors) and (
        sum(k * (f.support[-1] - f.support[0]) for f, k in factors) > MAX_POWER_SPAN
    ):
        raise ParseError(f"{op}: exponents would span more than {MAX_POWER_SPAN}")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\*\*|[-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        if m.group(1) is not None:
            if len(m.group(1)) > MAX_DIGITS:
                raise ParseError(
                    f"integer literal with more than {MAX_DIGITS} digits at position {m.start(1)}"
                )
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            tokens.append(("op", op))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character at position {pos}: {text[pos:].strip()[0]!r}")
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := unary (('*'|'/') unary)*, unary := ('-'|'+')* power,
    power := atom ('^' signed_int)?, atom := int | var | '(' expr ')'.
    """

    def __init__(self, tokens, var: str):
        self.tokens = tokens
        self.var = var
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parenthesised(self, inner):
        """inner() between the '(' just taken and its ')'."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(f"parentheses nested more than {MAX_NESTING} deep")
        out = inner()
        self.expect_op(")")
        self.nesting -= 1
        return out

    def parse(self) -> RationalFunction:
        out = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input starting at {self.peek()[1]!r}")
        return out

    def expr(self) -> RationalFunction:
        out = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            if out.den != rhs.den:
                # the sum is formed from cross products, sized as products are
                for f, g in ((out.num, rhs.den), (rhs.num, out.den), (out.den, rhs.den)):
                    _check_size("sum", [(f, 1), (g, 1)])
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RationalFunction:
        out = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
            name = "product" if op == "*" else "quotient"
            _check_size(name, [(out.num, 1), (num, 1)])
            _check_size(name, [(out.den, 1), (den, 1)])
            out = out * rhs if op == "*" else out / rhs
        return out

    def unary(self) -> RationalFunction:
        sign = 1
        while self.peek() in (("op", "-"), ("op", "+")):
            if self.take()[1] == "-":
                sign = -sign
        out = self.power()
        return out if sign > 0 else -out

    def power(self) -> RationalFunction:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            n = self.signed_int()
            for f in (base.num, base.den):
                _check_size(f"power ^{n}", [(f, abs(n))])
            return base**n
        return base

    def signed_int(self) -> int:
        if self.peek() == ("op", "("):
            self.take()
            return self.parenthesised(self.signed_int)
        sign = 1
        if self.peek() == ("op", "-"):
            self.take()
            sign = -1
        kind, val = self.take()
        if kind != "int":
            raise ParseError(f"expected integer exponent, found {val!r}")
        return sign * val

    def atom(self) -> RationalFunction:
        kind, val = self.take()
        if kind == "int":
            return RationalFunction.constant(val)
        if kind == "name":
            if val != self.var:
                raise ParseError(f"unknown symbol {val!r} (variable is {self.var!r})")
            return RationalFunction(LaurentPoly.x())
        if (kind, val) == ("op", "("):
            return self.parenthesised(self.expr)
        raise ParseError(f"unexpected token {val!r}")


def parse_rational_function(text: str, var: str = "x") -> RationalFunction:
    """Parse a rational-function string such as ``(1 - x^2)/(4*x)``."""
    if not text.strip():
        raise ParseError("empty expression")
    return _Parser(_tokenize(text), var).parse()


def poly_to_str(f: LaurentPoly, var: str = "x") -> str:
    """Canonical text form, ascending exponents; re-parses to an equal value."""
    if f.is_zero:
        return "0"
    parts = []
    for e in f.support:
        v = f.coeff(e)
        mag = abs(v)
        if e == 0:
            body = frac_str(mag)
        else:
            xs = var if e == 1 else f"{var}^{frac_str(e)}"
            body = xs if mag == 1 else f"{frac_str(mag)}*{xs}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


def rf_to_str(f: RationalFunction, var: str = "x") -> str:
    """Canonical text form of a quotient; reduces first."""
    r = f.reduce()
    if r.den == LaurentPoly.one():
        return poly_to_str(r.num, var)
    return f"({poly_to_str(r.num, var)})/({poly_to_str(r.den, var)})"
