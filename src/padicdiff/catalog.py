"""Built-in example modules with closed-form expectations.

These entries are oracles: their parameters are restricted so that the
expected polygon is provably exact.  Each family is declared once, in
``FAMILIES``, which ``catalog_names``, ``catalog_summaries``,
``catalog_get`` and the ``catalog`` command read; its maker below states
the closed form.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .arith import Interval, Prime, Rational, as_prime, log_abs, lower_envelope
from .diffmod import DiffModule, RFMatrix, companion_of, frobenius_pullback
from .errors import InputError
from .laurent import LaurentPoly, RationalFunction, parse_rational_function

__all__ = ["CatalogEntry", "catalog_get", "catalog_names", "catalog_summaries"]

Segments = list[tuple[Fraction, Fraction]]


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
    summary: str
    provenance: str
    expected_boundedness: Optional[str]
    params: dict
    build: Callable[[Interval], DiffModule] = field(repr=False)
    expected_segments: Callable[[Interval], Optional[Segments]] = field(repr=False)


def _scalar(p: Prime, entry: RationalFunction) -> Callable[[Interval], DiffModule]:
    return lambda interval: DiffModule(p, RFMatrix([[entry]]), interval)


# One maker per family: its keyword parameters are those the family takes.
# It validates them eagerly and returns the parameters as stored, the module
# builder and the expected segments (None: no closed form).


def _zero(p: Prime):
    """G = (0); log R = rho everywhere (Robba)."""
    return {}, _scalar(p, RationalFunction.zero()), lambda interval: [(Fraction(1), Fraction(0))]


def _exp(p: Prime, alpha: Rational = 1):
    """G = (alpha), alpha a nonzero rational; the solution is the exponential
    of alpha*x and log R = min(rho, c) with c = log_pi - log|alpha|."""
    alpha = Fraction(alpha)
    if alpha == 0:
        raise InputError("exp needs alpha != 0")
    # the segments of min(rho, level) on the interval
    lines = [(Fraction(1), Fraction(0)), (Fraction(0), p.log_pi - log_abs(alpha, p))]
    build = _scalar(p, RationalFunction.constant(alpha))
    return {"alpha": alpha}, build, lambda interval: [
        line for _, _, line in lower_envelope(lines, interval)
    ]


def _euler(p: Prime, a: Optional[Rational] = None):
    """G = (a/x) with |a|_p > 1, so |a - k| = |a| for every integer k and
    log R = rho + log_pi - log|a| (slope 1)."""
    if a is None:
        raise InputError("euler needs the parameter a")
    a = Fraction(a)
    if a == 0 or log_abs(a, p) <= 0:
        raise InputError("euler needs |a|_p > 1 so that |a - k| = |a| for integers k")
    intercept = p.log_pi - log_abs(a, p)
    build = _scalar(p, RationalFunction(LaurentPoly.x(-1, a)))
    return {"a": a}, build, lambda interval: [(Fraction(1), intercept)]


def _companion(p: Prime, q: Sequence[Union[str, RationalFunction]] = ()):
    """Companion module of a user-supplied coefficient list (no expected
    polygon)."""
    if not q:
        raise InputError("companion needs a nonempty coefficient list q")
    coeffs = tuple(
        e if isinstance(e, RationalFunction) else parse_rational_function(str(e)) for e in q
    )
    return {"q": coeffs}, lambda interval: companion_of(p, coeffs, interval), lambda interval: None


def _pullback_exp(p: Prime, alpha: Rational = 1, h: int = 1):
    """h-fold ramification pullback of exp; used by the radius-relation
    checks, which handle its own exclusions (no expected polygon on
    arbitrary intervals)."""
    if h < 1:
        raise InputError("pullback-exp needs h >= 1")
    stored, base, _ = _exp(p, alpha)
    # the pulled matrix does not depend on the interval: pull it back once
    pulled = frobenius_pullback(base(Interval(0, 1)), h).matrix.entry(0, 0)
    return {**stored, "h": h}, _scalar(p, pulled), lambda interval: None


@dataclass(frozen=True)
class Family:
    """One catalog family: its entries come from ``make(p, **params)``, and
    the ``catalog`` command shows its ``example`` parameters, if it has any."""

    summary: str
    provenance: str
    expected_boundedness: Optional[str]
    example: Optional[dict]
    make: Callable

    @functools.cached_property
    def takes(self) -> tuple[str, ...]:
        """The parameters the family takes: the maker's, after the prime."""
        return tuple(inspect.signature(self.make).parameters)[1:]


FAMILIES = {
    "zero": Family(
        summary="zero matrix; Robba (log R = rho), slope 1, intercept 0",
        provenance="definition: the identity solution matrix converges like x itself",
        expected_boundedness=None,
        example={},
        make=_zero,
    ),
    "exp": Family(
        summary="constant matrix (alpha); log R = min(rho, log_pi - log|alpha|)",
        provenance="closed form: |n!|^(1/n) tends to the Dwork level, so "
        "log R = min(rho, log_pi - log|alpha|)",
        expected_boundedness="bounded-plateau",
        example={"alpha": 1},
        make=_exp,
    ),
    "euler": Family(
        summary="matrix (a/x), |a|_p > 1; log R = rho + log_pi - log|a|, slope 1",
        provenance="closed form: ||G_n|| = (|a|/r)^n when |a| beats every "
        "integer, giving slope 1 and intercept log_pi - log|a|",
        expected_boundedness="bounded-plateau",
        example={"a": Fraction(1, 2)},
        make=_euler,
    ),
    "companion": Family(
        summary="companion module of a supplied coefficient list",
        provenance="user supplied; no closed-form polygon",
        expected_boundedness=None,
        example=None,
        make=_companion,
    ),
    "pullback-exp": Family(
        summary="h-fold ramification pullback of exp(alpha)",
        provenance="constructed; the radius relation holds where the "
        "ramification hypothesis does, checked with exclusions",
        expected_boundedness="bounded-plateau",
        example={"alpha": 1, "h": 1},
        make=_pullback_exp,
    ),
}


def catalog_names() -> list[str]:
    return list(FAMILIES)


def catalog_summaries() -> dict[str, str]:
    return {name: family.summary for name, family in FAMILIES.items()}


def catalog_get(name: str, p: Union[int, Prime], **params) -> CatalogEntry:
    """Look up a catalog entry.  ``params`` are keyword parameters of the
    family's maker, validated eagerly; one the family does not take is an
    error."""
    p = as_prime(p)
    family = FAMILIES.get(name)
    if family is None:
        raise InputError(f"unknown catalog entry {name!r}; known: {', '.join(FAMILIES)}")
    unknown = sorted(set(params) - set(family.takes))
    if unknown:
        takes = ", ".join(family.takes) or "no parameters"
        raise InputError(f"{name} does not take {', '.join(map(repr, unknown))}; it takes {takes}")
    described = (family.summary, family.provenance, family.expected_boundedness)
    return CatalogEntry(name, p, *described, *family.make(p, **params))
