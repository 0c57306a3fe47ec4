"""Cyclic-vector reduction and spectral radius bounds for scalar operators.

A rank-mu module can be rewritten, over a slightly smaller annulus, as one
monic scalar operator D^mu + q_1 D^(mu-1) + ... + q_mu.  The reduction here
searches for a cyclic vector v (deterministic candidates first, then seeded
random small-coefficient vectors), returns the operator, the basis change H
with G = H[A] for the companion matrix A, and the subinterval on which the
reduction is regular.

For the operator itself, the maximal root magnitude of its characteristic
polynomial at a generic point comes straight off the Newton polygon:
log lambda = max_i (log|q_i|)/i.  In the small-radius regime R < pi * r the
radius and lambda determine one another: log R = log pi - log lambda, the
convention fixed so that first-order operators D - a (with log R exactly
log pi - log|a|) are reproduced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import Interval, Prime, Rational, as_prime
from .diffmod import DiffModule, RFMatrix, companion_of
from .errors import CyclicSearchError, DomainError, InputError
from .laurent import (
    LaurentPoly,
    RationalFunction,
    gauss_norm,
    newton_root_logmags,
    pole_logmags,
)

__all__ = [
    "ScalarOperator",
    "CyclicReduction",
    "YoungRadius",
    "cyclic_vector",
    "max_root_norm",
    "young_radius",
]


@dataclass(frozen=True)
class ScalarOperator:
    """Monic operator D^mu + q_1 D^(mu-1) + ... + q_mu over an annulus."""

    p: Prime
    coeffs: tuple[RationalFunction, ...]
    interval: Interval

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InputError("operator needs order at least 1")
        object.__setattr__(self, "p", as_prime(self.p))
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def companion_module(self) -> DiffModule:
        return companion_of(self.p, self.coeffs, self.interval)


@dataclass(frozen=True)
class CyclicReduction:
    """Result of a cyclic-vector search.

    ``gauge`` is the matrix H with G = H[A] for the companion matrix A of
    ``operator``; equivalently H A + H' = G H holds exactly.  The reduction
    is regular away from the zeros and poles of det(H) and the poles of the
    q_i, so ``valid`` is the original interval minus finitely many points.
    """

    operator: ScalarOperator
    gauge: RFMatrix
    valid: tuple[Interval, ...]
    vector: tuple[LaurentPoly, ...]
    attempts: int


def _row_apply(row: Sequence[RationalFunction], module: DiffModule) -> Sequence[RationalFunction]:
    """Coordinates of D(w) when w has coordinate row vector ``row``: w' + w G."""
    w = RFMatrix([row])
    return (w.derivative() + w @ module.matrix).reduced().rows[0]


def _candidate_vectors(mu: int, rng: random.Random):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    for i in range(mu):
        yield tuple(one if j == i else zero for j in range(mu))
    for k in range(4):
        for j in range(1, mu):
            yield tuple(
                one if t == 0 else (LaurentPoly.x(k) if t == j else zero) for t in range(mu)
            )
    while True:
        coords = tuple(
            LaurentPoly({e: rng.randint(-3, 3) for e in range(3)}) for _ in range(mu)
        )
        if not all(c.is_zero for c in coords):
            yield coords


def cyclic_vector(
    module: DiffModule,
    max_attempts: int = 128,
    seed: int = 0,
) -> CyclicReduction:
    """Find v with v, Dv, ..., D^(mu-1) v independent and reduce to one operator.

    Tries standard basis vectors, then e_1 + x^k e_j, then random vectors
    with small integer polynomial coordinates (seeded, reproducible).  The
    returned gauge H satisfies H A + H' = G H exactly, which is asserted.
    """
    mu = module.rank
    rng = random.Random(seed)
    p = module.p

    attempts = 0
    for coords in _candidate_vectors(mu, rng):
        attempts += 1
        if attempts > max_attempts:
            break
        rows = [[RationalFunction(c) for c in coords]]
        for _ in range(mu - 1):
            rows.append(_row_apply(rows[-1], module))
        K = RFMatrix(rows)
        det = K.det()
        if det.is_zero:
            continue

        top = _row_apply(rows[-1], module)  # coordinates of D^mu v
        H = K.inverse()
        # solve a K = top, i.e. a = top H; then q_i = -a_(mu-i)
        a = (RFMatrix([top]) @ H).reduced().rows[0]
        q = tuple((-a[mu - i]).reduce() for i in range(1, mu + 1))

        # the zeros and poles of det and the poles of each q_i
        cut_points = {s for s, _ in newton_root_logmags(det.reduce().num, p)}
        cut_points.update(s for f in (det, *q) for s in pole_logmags(f, p))
        valid = tuple(module.interval.remove_points(cut_points))

        operator = ScalarOperator(p, q, module.interval)
        companion = operator.companion_module().matrix
        residual_lhs = H @ companion + H.derivative()
        residual_rhs = module.matrix @ H
        if residual_lhs != residual_rhs:
            raise CyclicSearchError(
                f"gauge residual violated for candidate #{attempts} (seed {seed})"
            )
        return CyclicReduction(
            operator=operator,
            gauge=H,
            valid=valid,
            vector=coords,
            attempts=attempts,
        )
    raise CyclicSearchError(
        f"no cyclic vector after {max_attempts} attempts (seed {seed})"
    )


def max_root_norm(op: ScalarOperator, rho: Rational) -> Optional[Fraction]:
    """log of the maximal root magnitude of the characteristic polynomial.

    For the monic polynomial t^mu + q_1(rho) t^(mu-1) + ... + q_mu(rho) the
    Newton polygon gives max|root| = max_i |q_i|^(1/i); None when every
    q_i vanishes (all roots 0).  Raises DomainError on a pole at rho.
    """
    rho = Fraction(rho)
    for i, qi in enumerate(op.coeffs, start=1):
        if rho in pole_logmags(qi, op.p):
            raise DomainError(f"coefficient q_{i} has a pole at rho={rho}")
    norms = (gauss_norm(qi, rho, op.p) for qi in op.coeffs)
    return max((n / i for i, n in enumerate(norms, start=1) if n is not None), default=None)


@dataclass(frozen=True)
class YoungRadius:
    """Small-radius estimate log R = log pi - log lambda with its regime flag.

    ``applicable`` is True only when the value lies strictly below
    rho + log pi, the regime in which the formula is valid; outside it the
    value is reported but must not be trusted.
    """

    log_r: Optional[Fraction]
    applicable: bool
    rho: Fraction
    regime_bound: Fraction


def young_radius(op: ScalarOperator, rho: Rational) -> YoungRadius:
    """Radius from the maximal root magnitude, small-radius regime only."""
    rho = Fraction(rho)
    bound = rho + op.p.log_pi
    lam = max_root_norm(op, rho)
    if lam is None:
        return YoungRadius(log_r=None, applicable=False, rho=rho, regime_bound=bound)
    value = op.p.log_pi - lam
    return YoungRadius(
        log_r=value,
        applicable=value < bound,
        rho=rho,
        regime_bound=bound,
    )
