"""Command-line front end.

Commands
--------
norms     CSV of n, log_p ||G_n/n!|| at a fixed log-radius
radius    JSON radius estimates at one point or on a grid
polygon   JSON convergence polygon (+ optional SVG plot)
bounded   JSON boundedness report at one point (+ optional b_n SVG)
theorem   JSON end-to-end one-slope/non-Robba/boundedness report
cyclic    JSON scalar operator + gauge from a cyclic-vector search
pullback  writes the ramification pullback as a new module definition
catalog   lists the built-in example families

A module comes either from a config file (``--config``) or from the catalog
(``--catalog NAME`` plus parameters).  Config files are INI-style::

    [module]
    p = 2
    variable = x
    matrix =
        0, 1
        1/x, 2
    interval = 1/4, 4        ; radii r1, r2
    ; or log_interval = -2, 2  ; exact base-p log-radii

    [run]
    depth = 256
    grid = 17
    max_denominator = 32
    mode = exact
    tolerance = 0.02
    rho = 0
    h = 1
    seed = 0

Command-line flags override [run] values; every [run] value is parsed and
checked even when a flag overrides it.  Unknown sections and unknown keys
in [module] or [run] are rejected.  Radii that are exact powers of p
convert to exact log-radii; anything else is stored as a rational
approximation of log_p r with 12 significant digits.

Exit codes: 0 success; 1 invalid input; 2 completed but inconclusive or
numerically unclear; 3 budget exceeded.  Every invalid input, a malformed
config file or command line included, exits 1 with one machine-readable
JSON error on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .arith import MAX_DIGITS, Interval, as_prime, log_abs
from .catalog import catalog_get, catalog_names, catalog_summaries
from .diagnostics import (
    INCONCLUSIVE,
    VERDICT_UNCLEAR,
    bounded_report,
    theorem_check,
)
from .diffmod import DiffModule, RFMatrix, frobenius_pullback, norm_sequence
from .errors import BudgetExceededError, InputError, PadicDiffError, ParseError
from .jsonutil import (
    SCHEMA_VERSION,
    bounded_json,
    estimate_json,
    fmt_float,
    frac_str,
    frobenius_json,
    polygon_json,
    theorem_json,
)
from .laurent import poly_to_str, rf_to_str
from .plot import polygon_svg, sequence_svg
from .radius import (
    EXACT,
    FLOAT,
    TAIL_MIN,
    TAIL_SLOPE,
    frobenius_radius_check,
    polygon_estimate,
    radius_estimate,
)
from .spectral import cyclic_vector

__all__ = ["main"]


def _parse_fraction(text: str) -> Fraction:
    # Fraction expands a decimal exponent in full, and a number past the digit
    # limit cannot be printed in a report or an error message: bound the digits
    # of the value (every digit run plus the exponent) before building it
    text = text.strip()
    size = sum(len(run) for run in re.findall(r"\d+", text))
    exponent = re.search(r"e([-+]?\d+)$", text, re.IGNORECASE)
    if exponent and size <= MAX_DIGITS:
        size += abs(int(exponent.group(1)))
    if size > MAX_DIGITS:
        raise InputError(f"number with more than {MAX_DIGITS} digits: {text[:32]!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def _positive_int(value) -> int:
    value = int(value)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _tolerance(value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError("must be a finite number at least 0")
    return value


def _one_of(*allowed: str):
    def cast(value) -> str:
        if value not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return value

    return cast


# Every run parameter: [run] key -> (cast, default).  The command-line flag
# whose dest is the key overrides the file, and goes through the same cast.
RUN_KEYS = {
    "depth": (int, 256),
    "grid": (int, 17),
    "max_denominator": (_positive_int, 32),
    "mode": (_one_of(EXACT, FLOAT), EXACT),
    "method": (_one_of(TAIL_MIN, TAIL_SLOPE), TAIL_MIN),
    "tolerance": (_tolerance, 0.02),
    "rho": (_parse_fraction, None),
    "h": (_positive_int, 1),
    "seed": (int, 0),
}
MODULE_KEYS = ("p", "variable", "matrix", "interval", "log_interval")


def _cast(key: str, cast, value):
    try:
        return cast(value)
    except ValueError as exc:
        raise InputError(f"{key} = {value!r}: {exc}") from exc


def log_radius_of(r: Fraction, p: int) -> Fraction:
    """log_p r: exact for powers of p, else 12 significant digits."""
    if r <= 0:
        raise InputError(f"radius must be positive, got {r}")
    k = -log_abs(r, p)  # r = p^k * u/v with u, v prime to p
    if r == Fraction(p) ** k:
        return k
    x = math.log(r.numerator) - math.log(r.denominator)
    x /= math.log(p)
    if x == 0:
        return Fraction(0)
    scale = 10 ** (11 - math.floor(math.log10(abs(x))))
    return Fraction(round(x * scale), scale)


def _interval_from_texts(
    p: int, interval: Optional[str], log_interval: Optional[str]
) -> Interval:
    if (interval is None) == (log_interval is None):
        raise InputError("give exactly one of interval (radii) or log_interval")
    if log_interval is not None:
        parts = [s for s in log_interval.split(",") if s.strip()]
        if len(parts) != 2:
            raise InputError("log_interval must be 'lo, hi'")
        return Interval(_parse_fraction(parts[0]), _parse_fraction(parts[1]))
    parts = [s for s in interval.split(",") if s.strip()]
    if len(parts) != 2:
        raise InputError("interval must be 'r1, r2'")
    r1, r2 = _parse_fraction(parts[0]), _parse_fraction(parts[1])
    return Interval(log_radius_of(r1, p), log_radius_of(r2, p))


def _matrix_from_text(text: str, var: str) -> RFMatrix:
    rows = []
    for line in text.replace(";", "\n").splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([cell.strip() for cell in line.split(",")])
    if not rows:
        raise InputError("empty matrix")
    return RFMatrix.from_strings(rows, var)


def _reject_unknown(what: str, names, known) -> None:
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise InputError(f"unknown {what}: {', '.join(unknown)}")


def _load_config_module(path: str) -> tuple[DiffModule, dict]:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cp.read(path, encoding="utf-8")
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"config file {path}: {exc}") from exc
    if not read:
        raise InputError(f"config file not found: {path}")
    _reject_unknown("config section", sections, ("module", "run"))
    if "module" not in sections:
        raise InputError("config file needs a [module] section")
    sec = sections["module"]
    run = sections.get("run", {})
    _reject_unknown("[module] key", sec, MODULE_KEYS)
    _reject_unknown("[run] key", run, RUN_KEYS)
    if "p" not in sec or "matrix" not in sec:
        raise InputError("[module] needs p and matrix")
    p = as_prime(_cast("p", int, sec["p"]))
    var = sec.get("variable", "x").strip()
    interval = _interval_from_texts(p.p, sec.get("interval"), sec.get("log_interval"))
    matrix = _matrix_from_text(sec["matrix"], var)
    module = DiffModule(p, matrix, interval, var).validate()
    return module, run


def _module_from_args(args) -> tuple[DiffModule, dict]:
    if args.config and args.catalog:
        raise InputError("give either --config or --catalog, not both")
    if args.config:
        return _load_config_module(args.config)
    if args.catalog:
        if args.p is None:
            raise InputError("--catalog needs --p")
        p = as_prime(args.p)
        interval = _interval_from_texts(p.p, args.interval, args.log_interval)
        entry = catalog_get(
            args.catalog,
            p,
            alpha=_parse_fraction(args.alpha) if args.alpha else 1,
            a=_parse_fraction(args.a) if args.a else None,
            h=args.h if args.h else 1,
            q=tuple(args.q or ()),
        )
        return entry.build(interval), {}
    raise InputError("a module is required: --config FILE or --catalog NAME")


def _merge_config(args, module: DiffModule, run: dict) -> argparse.Namespace:
    """The module, ``normalized``, and one attribute per RUN_KEYS entry."""
    values = {}
    for key, (cast, default) in RUN_KEYS.items():
        value = _cast(key, cast, run[key]) if key in run else default
        flag = getattr(args, key)
        values[key] = value if flag is None else _cast(key, cast, flag)
    return argparse.Namespace(module=module, normalized=not args.unnormalized, **values)


def _emit(args, kind: str, fields: dict) -> None:
    """Write one report: the envelope (schema version, kind), then its fields."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}
    _write(args.json, json.dumps(payload, indent=2) + "\n")


def _write(path: Optional[str], text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _require_rho(cfg: argparse.Namespace) -> Fraction:
    if cfg.rho is None:
        raise InputError("this command needs --rho (or rho= in [run])")
    return cfg.rho


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_norms(args, cfg: argparse.Namespace) -> int:
    rho = _require_rho(cfg)
    seq = norm_sequence(
        cfg.module, rho, cfg.depth, include_factorial=cfg.normalized
    )
    lines = ["n,value,exact"]
    for n, v in enumerate(seq):
        if v is None:
            lines.append(f"{n},,")
        else:
            lines.append(f"{n},{fmt_float(v)},{frac_str(v)}")
    _write(args.csv or args.json, "\n".join(lines) + "\n")
    return 0


def _cmd_radius(args, cfg: argparse.Namespace) -> int:
    rhos = [cfg.rho] if cfg.rho is not None else cfg.module.interval.interior_grid(cfg.grid)
    ests = [
        radius_estimate(
            cfg.module, r, cfg.depth, cfg.method, cfg.mode, include_factorial=cfg.normalized
        )
        for r in rhos
    ]
    _emit(args, "radius", {
        "p": cfg.module.p.p,
        "depth": cfg.depth,
        "mode": cfg.mode,
        "normalized": cfg.normalized,
        "points": [estimate_json(e) for e in ests],
    })
    return 0


def _cmd_polygon(args, cfg: argparse.Namespace) -> int:
    poly = polygon_estimate(
        cfg.module,
        grid=cfg.grid,
        depth=cfg.depth,
        max_denominator=cfg.max_denominator,
        mode=cfg.mode,
    )
    if args.svg:
        _write(args.svg, polygon_svg(poly))
    _emit(args, "polygon", {
        "p": cfg.module.p.p,
        "depth": cfg.depth,
        "mode": cfg.mode,
        **polygon_json(poly),
    })
    return 0


def _cmd_bounded(args, cfg: argparse.Namespace) -> int:
    rho = _require_rho(cfg)
    if args.log_r is not None:
        log_r = _parse_fraction(args.log_r)
    else:
        log_r = radius_estimate(cfg.module, rho, cfg.depth).tail_min
    report = bounded_report(cfg.module, rho, cfg.depth, log_r, cfg.tolerance)
    if args.svg:
        _write(args.svg, sequence_svg(report.values))
    _emit(args, "bounded", {"p": cfg.module.p.p, **bounded_json(report)})
    return 2 if report.classification == INCONCLUSIVE else 0


def _cmd_theorem(args, cfg: argparse.Namespace) -> int:
    report = theorem_check(
        cfg.module,
        grid=cfg.grid,
        depth=cfg.depth,
        tol=cfg.tolerance,
        max_denominator=cfg.max_denominator,
        mode=cfg.mode,
    )
    if args.svg:
        _write(args.svg, polygon_svg(report.polygon))
    _emit(args, "theorem", {"p": cfg.module.p.p, "depth": cfg.depth, **theorem_json(report)})
    return 2 if report.verdict == VERDICT_UNCLEAR else 0


def _cmd_frobenius(args, cfg: argparse.Namespace) -> int:
    report = frobenius_radius_check(
        cfg.module, h=cfg.h, grid=cfg.grid, depth=cfg.depth, tol=cfg.tolerance
    )
    _emit(args, "frobenius", frobenius_json(report))
    return 0 if report.passed else 2


def _cmd_cyclic(args, cfg: argparse.Namespace) -> int:
    red = cyclic_vector(cfg.module, seed=cfg.seed)
    _emit(args, "cyclic", {
        "p": cfg.module.p.p,
        "order": red.operator.order,
        "q": [rf_to_str(qi, cfg.module.var) for qi in red.operator.coeffs],
        "gauge": [[rf_to_str(e, cfg.module.var) for e in row] for row in red.gauge.rows],
        "vector": [poly_to_str(c, cfg.module.var) for c in red.vector],
        "valid_intervals": [[frac_str(j.lo), frac_str(j.hi)] for j in red.valid],
        "attempts": red.attempts,
    })
    return 0


def _module_config_text(module: DiffModule) -> str:
    rows = "\n".join(
        "    " + ", ".join(rf_to_str(e, module.var) for e in row)
        for row in module.matrix.rows
    )
    return (
        "[module]\n"
        f"p = {module.p.p}\n"
        f"variable = {module.var}\n"
        "matrix =\n"
        f"{rows}\n"
        f"log_interval = {frac_str(module.interval.lo)}, {frac_str(module.interval.hi)}\n"
    )


def _cmd_pullback(args, cfg: argparse.Namespace) -> int:
    pulled = frobenius_pullback(cfg.module, cfg.h)
    _write(args.out, _module_config_text(pulled))
    return 0


def _cmd_catalog(args, cfg=None) -> int:
    # canonical instantiations so expected values are concrete
    shown = {
        "zero": catalog_get("zero", 2),
        "exp": catalog_get("exp", 2, alpha=1),
        "euler": catalog_get("euler", 2, a=Fraction(1, 2)),
        "companion": None,
        "pullback-exp": catalog_get("pullback-exp", 2, alpha=1, h=1),
    }
    window = Interval(-2, 2)
    entries = []
    for name in catalog_names():
        entry = shown[name]
        info = {"name": name, "summary": catalog_summaries()[name]}
        if entry is not None:
            segments = entry.expected_segments(window)
            info["example_params"] = {k: frac_str(v) for k, v in entry.params.items()}
            info["expected_segments_on_(-2,2)"] = (
                None
                if segments is None
                else [
                    {"slope": frac_str(s), "intercept": frac_str(c)} for s, c in segments
                ]
            )
            info["expected_boundedness"] = entry.expected_boundedness
            info["provenance"] = entry.provenance
        entries.append(info)
    _emit(args, "catalog", {"entries": entries})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "norms": _cmd_norms,
    "radius": _cmd_radius,
    "polygon": _cmd_polygon,
    "bounded": _cmd_bounded,
    "theorem": _cmd_theorem,
    "frobenius": _cmd_frobenius,
    "cyclic": _cmd_cyclic,
    "pullback": _cmd_pullback,
    "catalog": _cmd_catalog,
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an InputError (exit 1, JSON on stderr)
    instead of printing usage and exiting 2."""

    def error(self, message: str):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; argparse builds a fresh namespace, and
    fresh lists for append actions, on every parse."""
    parser = _Parser(
        prog="padicdiff",
        description="exact toolkit for differential modules on p-adic annuli",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    src = parser.add_argument_group("module source")
    src.add_argument("--config", help="INI module definition")
    src.add_argument("--catalog", help="catalog entry name")
    src.add_argument("--p", type=int, help="prime (with --catalog)")
    src.add_argument("--alpha", help="exp / pullback-exp parameter")
    src.add_argument("--a", help="euler parameter")
    src.add_argument("--q", action="append", help="companion coefficient (repeatable)")
    src.add_argument("--interval", help="radii 'r1, r2'")
    src.add_argument("--log-interval", dest="log_interval", help="log-radii 'lo, hi'")

    run = parser.add_argument_group("run parameters")
    run.add_argument("--depth", type=int)
    run.add_argument("--grid", type=int)
    run.add_argument("--max-denominator", dest="max_denominator", type=int)
    run.add_argument("--mode", choices=["exact", "float"])
    run.add_argument("--method", choices=["tail-min", "tail-slope"])
    run.add_argument("--tol", dest="tolerance", type=float)
    run.add_argument("--rho", help="log-radius for norms/bounded/radius")
    run.add_argument("--log-r", dest="log_r", help="log R for bounded")
    run.add_argument("--h", type=int, help="pullback order")
    run.add_argument("--seed", type=int)
    run.add_argument("--unnormalized", action="store_true", help="drop the n! factor")

    out = parser.add_argument_group("outputs")
    out.add_argument("--json", help="JSON report path (default stdout)")
    out.add_argument("--csv", help="CSV path (norms)")
    out.add_argument("--svg", help="SVG plot path")
    out.add_argument("--out", help="module definition path (pullback)")
    return parser


def _error_payload(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}
    ) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "catalog":
            return _cmd_catalog(args)
        module, run = _module_from_args(args)
        cfg = _merge_config(args, module, run)
        return _COMMANDS[args.command](args, cfg)
    except BudgetExceededError as exc:
        sys.stderr.write(_error_payload(exc))
        return 3
    except PadicDiffError as exc:
        sys.stderr.write(_error_payload(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
