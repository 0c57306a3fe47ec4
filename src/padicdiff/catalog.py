"""Built-in example modules with closed-form expectations.

These entries are oracles: their parameters are restricted so that the
expected polygon is provably exact.

* ``zero``          G = (0); log R = rho everywhere (Robba).
* ``exp``           G = (alpha), alpha a nonzero rational; the solution is
                    the exponential of alpha*x and log R = min(rho, c) with
                    c = log_pi - log|alpha|.
* ``euler``         G = (a/x) with |a|_p > 1, so |a - k| = |a| for every
                    integer k and log R = rho + log_pi - log|a| (slope 1).
* ``companion``     companion module of a user-supplied coefficient list
                    (no expected polygon).
* ``pullback-exp``  h-fold ramification pullback of ``exp``; used by the
                    radius-relation checks, which handle its own exclusions
                    (no expected polygon on arbitrary intervals).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .arith import Interval, Prime, Rational, as_prime, log_abs
from .diffmod import DiffModule, RFMatrix, companion_of, frobenius_pullback
from .errors import InputError
from .laurent import LaurentPoly, RationalFunction, parse_rational_function

__all__ = ["CatalogEntry", "catalog_get", "catalog_names", "catalog_summaries"]


@dataclass(frozen=True)
class CatalogEntry:
    """A named module family at a fixed prime and parameter set.

    ``build(interval)`` constructs the module; ``expected_segments(interval)``
    returns the exact (slope, intercept) list of the convergence polygon when
    a closed form is available, else None.  ``provenance`` records how the
    expectation was obtained.
    """

    name: str
    p: Prime
    params: dict
    summary: str
    provenance: str
    expected_boundedness: Optional[str]
    _build: Callable[[Interval], DiffModule] = field(repr=False)
    _expected: Optional[Callable[[Interval], list[tuple[Fraction, Fraction]]]] = field(
        default=None, repr=False
    )

    def build(self, interval: Interval) -> DiffModule:
        return self._build(interval)

    def expected_segments(self, interval: Interval) -> Optional[list[tuple[Fraction, Fraction]]]:
        return None if self._expected is None else self._expected(interval)


def _scalar_module(p: Prime, entry: RationalFunction, interval: Interval) -> DiffModule:
    return DiffModule(p, RFMatrix([[entry]]), interval)


def _clip_two_piece(
    interval: Interval, breakpoint: Fraction, flat_level: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Segments of min(rho, flat_level) over the interval (breakpoint = flat_level)."""
    if interval.hi <= breakpoint:
        return [(Fraction(1), Fraction(0))]
    if interval.lo >= breakpoint:
        return [(Fraction(0), flat_level)]
    return [(Fraction(1), Fraction(0)), (Fraction(0), flat_level)]


def catalog_names() -> list[str]:
    return ["zero", "exp", "euler", "companion", "pullback-exp"]


def catalog_summaries() -> dict[str, str]:
    return {
        "zero": "zero matrix; Robba (log R = rho), slope 1, intercept 0",
        "exp": "constant matrix (alpha); log R = min(rho, log_pi - log|alpha|)",
        "euler": "matrix (a/x), |a|_p > 1; log R = rho + log_pi - log|a|, slope 1",
        "companion": "companion module of a supplied coefficient list",
        "pullback-exp": "h-fold ramification pullback of exp(alpha)",
    }


def catalog_get(
    name: str,
    p: Union[int, Prime],
    alpha: Rational = 1,
    a: Rational = None,
    h: int = 1,
    q: Sequence[Union[str, RationalFunction]] = (),
    var: str = "x",
) -> CatalogEntry:
    """Look up a catalog entry; parameters are validated eagerly."""
    p = as_prime(p)
    log_pi = p.log_pi

    if name == "zero":
        return CatalogEntry(
            name="zero",
            p=p,
            params={},
            summary=catalog_summaries()["zero"],
            provenance="definition: the identity solution matrix converges like x itself",
            expected_boundedness=None,
            _build=lambda interval: _scalar_module(
                p, RationalFunction.zero(), interval
            ),
            _expected=lambda interval: [(Fraction(1), Fraction(0))],
        )

    if name == "exp":
        alpha = Fraction(alpha)
        if alpha == 0:
            raise InputError("exp needs alpha != 0")
        level = log_pi - log_abs(alpha, p)
        return CatalogEntry(
            name="exp",
            p=p,
            params={"alpha": alpha},
            summary=catalog_summaries()["exp"],
            provenance="closed form: |n!|^(1/n) tends to the Dwork level, so "
            "log R = min(rho, log_pi - log|alpha|)",
            expected_boundedness="bounded-plateau",
            _build=lambda interval: _scalar_module(
                p, RationalFunction.constant(alpha), interval
            ),
            _expected=lambda interval: _clip_two_piece(interval, level, level),
        )

    if name == "euler":
        if a is None:
            raise InputError("euler needs the parameter a")
        a = Fraction(a)
        if a == 0 or log_abs(a, p) <= 0:
            raise InputError("euler needs |a|_p > 1 so that |a - k| = |a| for integers k")
        intercept = log_pi - log_abs(a, p)
        return CatalogEntry(
            name="euler",
            p=p,
            params={"a": a},
            summary=catalog_summaries()["euler"],
            provenance="closed form: ||G_n|| = (|a|/r)^n when |a| beats every "
            "integer, giving slope 1 and intercept log_pi - log|a|",
            expected_boundedness="bounded-plateau",
            _build=lambda interval: _scalar_module(
                p,
                RationalFunction(LaurentPoly.x(-1, a)),
                interval,
            ),
            _expected=lambda interval: [(Fraction(1), intercept)],
        )

    if name == "companion":
        if not q:
            raise InputError("companion needs a nonempty coefficient list q")
        coeffs = [
            e if isinstance(e, RationalFunction) else parse_rational_function(str(e), var)
            for e in q
        ]
        return CatalogEntry(
            name="companion",
            p=p,
            params={"q": tuple(coeffs)},
            summary=catalog_summaries()["companion"],
            provenance="user supplied; no closed-form polygon",
            expected_boundedness=None,
            _build=lambda interval: companion_of(p, coeffs, interval, var),
            _expected=None,
        )

    if name == "pullback-exp":
        if h < 1:
            raise InputError("pullback-exp needs h >= 1")
        alpha = Fraction(alpha)
        if alpha == 0:
            raise InputError("pullback-exp needs alpha != 0")
        scale = p.p**h

        def build(interval: Interval) -> DiffModule:
            base = _scalar_module(
                p, RationalFunction.constant(alpha), interval.scaled(scale)
            )
            return frobenius_pullback(base, h)

        return CatalogEntry(
            name="pullback-exp",
            p=p,
            params={"alpha": alpha, "h": h},
            summary=catalog_summaries()["pullback-exp"],
            provenance="constructed; the radius relation holds where the "
            "ramification hypothesis does, checked with exclusions",
            expected_boundedness="bounded-plateau",
            _build=build,
            _expected=None,
        )

    raise InputError(f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}")
