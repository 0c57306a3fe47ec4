"""Command-line front end.

Commands
--------
norms     CSV of n, log_p ||G_n/n!|| at a fixed log-radius (--csv, --unnormalized)
radius    JSON radius estimates at one point or on a grid (--unnormalized)
polygon   JSON convergence polygon (+ optional --svg plot)
bounded   JSON boundedness report at one point (--log-r, + optional --svg b_n plot)
theorem   JSON end-to-end one-slope/non-Robba/boundedness report (--svg)
frobenius JSON per-point check of the ramification radius relation
cyclic    JSON scalar operator + gauge from a cyclic-vector search
pullback  writes the ramification pullback as a new module definition (--out)
catalog   lists the built-in example families

Each command reads the flag-only options (no [run] key) in its parentheses,
and all but norms and pullback read --json; any other one given is an error.

A module comes either from a config file (``--config``) or from the catalog
(``--catalog NAME`` plus its parameter flags; a flag the family does not
take is an error, except ``--h``, which is also the pullback order).  Either
way, a matrix entry with a pole on the annulus is an error.  The catalog
command reads no module, so a module-source flag given to it is an error.
Config files are INI-style::

    [module]
    p = 2
    variable = x
    matrix =
        0, 1
        1/x, 2
    interval = 1/4, 4        ; radii r1, r2
    ; or log_interval = -2, 2  ; exact base-p log-radii

    [run]
    depth = 256              ; one line per RUN_KEYS entry, each optional

Each [run] key has a flag, ``--`` plus the key with ``-`` for ``_``
(``tolerance`` is ``--tol``), that overrides it; a value from a flag or
from [run] goes through the same cast, and every [run] value is parsed and
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
from .catalog import FAMILIES, catalog_get
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
    dumps,
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


# the most grid points a run may ask for: ``Interval.interior_grid`` builds
# them all at once, and each is one radius estimate
MAX_GRID = 10_000
# the deepest recursion a run may ask for: the per-step hulls and the
# n - s_p(n) table grow with the depth outside the coefficient budget
MAX_DEPTH = 100_000


def _at_most(limit: int):
    def cast(value) -> int:
        value = int(value)
        if value > limit:
            raise ValueError(f"must be at most {limit}")
        return value

    return cast


def _one_of(*allowed: str):
    def cast(value) -> str:
        if value not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return value

    return cast


# Every run parameter: [run] key -> (cast, default).  The parser makes one
# flag per key; a flag overrides the file and goes through the same cast.
RUN_KEYS = {
    "depth": (_at_most(MAX_DEPTH), 256),
    "grid": (_at_most(MAX_GRID), 17),
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


# the largest |log-radius| given as such (a log_interval end, --log-r): past
# any that a radius of MAX_DIGITS digits has (below 14,285), and small enough
# that the reports' floats, rho and the fits over b_n ~ n*rho, stay finite
MAX_LOG_RADIUS = 10**5


def _parse_log_radius(text: str, name: str) -> Fraction:
    value = _parse_fraction(text)
    if abs(value) > MAX_LOG_RADIUS:
        raise InputError(f"{name} must lie within +-{MAX_LOG_RADIUS}")
    return value


def _interval_from_texts(
    p: int, interval: Optional[str], log_interval: Optional[str]
) -> Interval:
    if (interval is None) == (log_interval is None):
        raise InputError("give exactly one of interval (radii) or log_interval")
    radii = log_interval is None
    parts = [s for s in (interval if radii else log_interval).split(",") if s.strip()]
    if len(parts) != 2:
        raise InputError("interval must be 'r1, r2'" if radii else "log_interval must be 'lo, hi'")
    if not radii:
        return Interval(*(_parse_log_radius(s, "log_interval ends") for s in parts))
    ends = [_parse_fraction(s) for s in parts]
    return Interval(*(log_radius_of(r, p) for r in ends))


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
    return DiffModule(p, matrix, interval, var), run


def _module_from_args(args) -> tuple[DiffModule, dict]:
    if args.config and args.catalog:
        raise InputError("give either --config or --catalog, not both")
    if args.config:
        return _load_config_module(args.config)
    if args.catalog:
        if args.p is None:
            raise InputError("--catalog needs --p")
        p = as_prime(_cast("p", int, args.p))
        interval = _interval_from_texts(p.p, args.interval, args.log_interval)
        # only the family flags given; --h is also the frobenius/pullback
        # order, so it reaches only a family that takes it
        given = {"alpha": args.alpha, "a": args.a}
        params = {k: _parse_fraction(v) for k, v in given.items() if v is not None}
        if args.q is not None:
            params["q"] = tuple(args.q)
        takes = FAMILIES[args.catalog].takes if args.catalog in FAMILIES else ()
        if args.h is not None and "h" in takes:
            params["h"] = _cast("h", RUN_KEYS["h"][0], args.h)
        return catalog_get(args.catalog, p, **params).build(interval), {}
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
    _write(args.json, dumps(payload) + "\n")


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
    _write(args.csv, "\n".join(lines) + "\n")
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
        log_r = _parse_log_radius(args.log_r, "--log-r")
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


def _cmd_catalog(args, cfg: argparse.Namespace) -> int:
    # each family's example parameters at p = 2, so expected values are concrete
    window = Interval(-2, 2)
    entries = []
    for name, family in FAMILIES.items():
        info = {"name": name, "summary": family.summary}
        if family.example is not None:
            entry = catalog_get(name, 2, **family.example)
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

# each command's handler and the flag-only options (no [run] key) it reads;
# any other flag-only option given is an error
_COMMANDS = {
    "norms": (_cmd_norms, ("unnormalized", "csv")),
    "radius": (_cmd_radius, ("unnormalized", "json")),
    "polygon": (_cmd_polygon, ("svg", "json")),
    "bounded": (_cmd_bounded, ("log_r", "svg", "json")),
    "theorem": (_cmd_theorem, ("svg", "json")),
    "frobenius": (_cmd_frobenius, ("json",)),
    "cyclic": (_cmd_cyclic, ("json",)),
    "pullback": (_cmd_pullback, ("out",)),
    "catalog": (_cmd_catalog, ("json",)),
}
_FLAG_ONLY = ("unnormalized", "log_r", "svg", "csv", "out", "json")
# the module-source options, which every command but catalog reads
_MODULE_SOURCE = ("config", "catalog", "p", "alpha", "a", "q", "interval", "log_interval")


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
    src.add_argument("--p", help="prime (with --catalog)")
    src.add_argument("--alpha", help="catalog parameter alpha")
    src.add_argument("--a", help="catalog parameter a")
    src.add_argument("--q", action="append", help="catalog coefficient q (repeatable)")
    src.add_argument("--interval", help="radii 'r1, r2'")
    src.add_argument("--log-interval", dest="log_interval", help="log-radii 'lo, hi'")

    run = parser.add_argument_group("run parameters", "each overrides its [run] key")
    for key in RUN_KEYS:
        run.add_argument("--tol" if key == "tolerance" else "--" + key.replace("_", "-"), dest=key)

    only = parser.add_argument_group("flag-only options", "each read by the commands named")
    only.add_argument("--log-r", help="log R (bounded)")
    only.add_argument("--unnormalized", action="store_true", default=None,
                      help="drop the n! factor (norms, radius)")
    only.add_argument("--json", help="JSON report path, default stdout (all but norms, pullback)")
    only.add_argument("--csv", help="CSV path (norms)")
    only.add_argument("--svg", help="SVG plot path (polygon, bounded, theorem)")
    only.add_argument("--out", help="module definition path (pullback)")
    return parser


def _error_payload(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}
    ) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, reads = _COMMANDS[args.command]
        options = _FLAG_ONLY + (_MODULE_SOURCE if args.command == "catalog" else ())
        unread = [o for o in options if getattr(args, o) is not None and o not in reads]
        if unread:
            flags = ", ".join("--" + o.replace("_", "-") for o in unread)
            raise InputError(f"{args.command} does not read {flags}")
        if args.command == "catalog":
            return handler(args, _merge_config(args, None, {}))
        module, run = _module_from_args(args)
        return handler(args, _merge_config(args, module.validate(), run))
    except BudgetExceededError as exc:
        sys.stderr.write(_error_payload(exc))
        return 3
    except PadicDiffError as exc:
        sys.stderr.write(_error_payload(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
