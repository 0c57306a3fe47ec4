"""Report serialization: every report's JSON fields, with exact rationals as
"num/den" strings and floats at fixed precision, so identical runs emit
byte-identical reports.  ``cli`` wraps the fields in the report envelope and
writes it with ``dumps``."""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Optional, Union

from .arith import MAX_DIGITS
from .errors import InputError

SCHEMA_VERSION = 1


def fmt_float(x: Union[int, float, Fraction, None]) -> Optional[float]:
    """Round-trip a number through 12 significant digits."""
    if x is None:
        return None
    if type(x) is Fraction:
        # int / int rounds correctly, as float() of a Fraction does
        return float(f"{x.numerator / x.denominator:.12g}")
    return float(f"{float(x):.12g}")


def frac_str(x: Union[int, float, Fraction, None]) -> Optional[str]:
    """Exact "num/den" text for rationals; fixed-precision text for floats.

    A rational past the digit limit cannot be written as text (and would not
    parse back): that is an InputError, so the run fails closed.
    """
    if x is None:
        return None
    if isinstance(x, float):
        return f"{x:.12g}"
    try:
        return str(x if type(x) is Fraction else Fraction(x))
    except ValueError as exc:
        raise InputError(
            f"a result has more than {MAX_DIGITS} digits and cannot be printed"
        ) from exc


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


# the printer of each scalar type, by exact type: a subclass, a tuple or a
# Fraction is not a report value and must not be written as if it were one
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, for str-keyed dicts, lists,
    str, int, float, bool and None; any other type raises TypeError."""
    chunks: list[str] = []
    _append(obj, "\n", chunks)
    return "".join(chunks)


def _append(obj, newline: str, chunks: list[str]) -> None:
    """Append ``obj``'s text to ``chunks``; ``newline`` is the newline and
    indent of the line that ``obj`` starts on."""
    kind = type(obj)
    printer = _SCALARS.get(kind)
    if printer is not None:
        chunks.append(printer(obj))
        return
    if kind is not dict and kind is not list:
        raise TypeError(f"a report holds no {kind.__name__}: {obj!r}")
    if not obj:
        chunks.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError(f"a report key must be a str, not {type(key).__name__}: {key!r}")
            chunks.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            printer = _SCALARS.get(type(value))
            if printer is None:
                _append(value, inner, chunks)
            else:
                chunks.append(printer(value))
        chunks.append(newline + "}")
    else:
        sep = "[" + inner
        for value in obj:
            chunks.append(sep)
            sep = "," + inner
            printer = _SCALARS.get(type(value))
            if printer is None:
                _append(value, inner, chunks)
            else:
                chunks.append(printer(value))
        chunks.append(newline + "]")


def estimate_json(est) -> dict:
    return {
        "rho": frac_str(est.rho),
        "rho_float": fmt_float(est.rho),
        "log_r": frac_str(est.log_r),
        "log_r_float": fmt_float(est.log_r),
        "method": est.method,
        "depth": est.depth,
        "tail_min": frac_str(est.tail_min),
        "tail_slope": fmt_float(est.tail_slope),
        "discrepancy": fmt_float(est.discrepancy),
        "capped": est.capped,
        "mode": est.mode,
        "normalized": est.normalized,
    }


def polygon_json(poly) -> dict:
    return {
        "interval": [frac_str(poly.interval.lo), frac_str(poly.interval.hi)],
        "segments": [
            {
                "lo": frac_str(seg.lo),
                "hi": frac_str(seg.hi),
                "slope": frac_str(seg.slope),
                "intercept": frac_str(seg.intercept),
                "slope_float": fmt_float(seg.slope),
                "intercept_float": fmt_float(seg.intercept),
                "raw_slope": fmt_float(seg.raw_slope),
                "raw_intercept": fmt_float(seg.raw_intercept),
            }
            for seg in poly.segments
        ],
        "quality": fmt_float(poly.quality),
        "quality_warning": poly.quality_warning,
        "samples": [estimate_json(s) for s in poly.samples],
    }


def frobenius_json(report) -> dict:
    return {
        "p": report.p,
        "h": report.h,
        "depth": report.depth,
        "tol": report.tol,
        "max_residual": fmt_float(report.max_residual),
        "passed": report.passed,
        "excluded": report.excluded,
        "points": [
            {
                "rho": frac_str(pt.rho),
                "log_r_pullback": frac_str(pt.log_r_pullback),
                "log_r_base": frac_str(pt.log_r_base),
                "hypothesis_ok": pt.hypothesis_ok,
                "residual": fmt_float(pt.residual),
            }
            for pt in report.points
        ],
    }


def bounded_json(report) -> dict:
    return {
        "rho": frac_str(report.rho),
        "depth": report.depth,
        "log_r": frac_str(report.log_r),
        "log_r_float": fmt_float(report.log_r),
        "tolerance": report.tolerance,
        "max_value": frac_str(report.max_value),
        "max_value_float": fmt_float(report.max_value),
        "argmax": report.argmax,
        "tail_slope": fmt_float(report.tail_slope),
        "fit_residual": fmt_float(report.fit_residual),
        "classification": report.classification,
        "b": [
            {
                "n": n,
                "value": fmt_float(v),
                "exact": frac_str(v),
            }
            for n, v in enumerate(report.values)
        ],
    }


def theorem_json(report) -> dict:
    return {
        "polygon": polygon_json(report.polygon),
        "one_slope": report.one_slope,
        "non_robba": {
            "flag": report.non_robba.non_robba,
            "margin": frac_str(report.non_robba.margin),
            "margin_float": fmt_float(report.non_robba.margin),
            "witness": frac_str(report.non_robba.witness),
        },
        "reports": [bounded_json(r) for r in report.reports],
        "verdict": report.verdict,
    }
