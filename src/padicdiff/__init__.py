"""Exact-arithmetic toolkit for differential modules on p-adic annuli.

Compute Gauss norms, generic radii of convergence and convergence polygons,
apply gauge / ramification / cyclic-vector transformations, and check that
one-slope non-Robba modules have bounded solutions at generic points.
"""

from .arith import (
    Interval,
    Prime,
    as_prime,
    digit_sum,
    log_abs,
    padic_valuation,
)
from .catalog import CatalogEntry, catalog_get, catalog_names
from .diagnostics import (
    BOUNDED_DECAYING,
    BOUNDED_PLATEAU,
    INCONCLUSIVE,
    SUSPECTED_UNBOUNDED,
    VERDICT_HYPOTHESES_FAIL,
    VERDICT_UNCLEAR,
    VERDICT_VERIFIED,
    BoundednessReport,
    TheoremReport,
    bounded_report,
    theorem_check,
)
from .diffmod import (
    DiffModule,
    RecursionState,
    RFMatrix,
    companion_of,
    frobenius_pullback,
    gauge_transform,
    gn_sequence,
    norm_sequence,
)
from .errors import (
    BudgetExceededError,
    CyclicSearchError,
    DomainError,
    HypothesisViolationError,
    InputError,
    InvalidGaugeError,
    PadicDiffError,
    ParseError,
)
from .laurent import (
    LaurentPoly,
    RationalFunction,
    gauss_norm,
    newton_root_logmags,
    parse_rational_function,
    pole_free_on,
    poly_to_str,
    rf_to_str,
)
from .radius import (
    ConvergencePolygon,
    FrobeniusReport,
    NonRobbaResult,
    RadiusEstimate,
    frobenius_radius_check,
    is_non_robba,
    one_slope,
    polygon_estimate,
    radius_estimate,
)
from .spectral import (
    CyclicReduction,
    ScalarOperator,
    YoungRadius,
    cyclic_vector,
    max_root_norm,
    young_radius,
)

__version__ = "0.1.0"
