import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from padicdiff import cli
from padicdiff.catalog import catalog_names
from padicdiff.cli import log_radius_of, main
from padicdiff.errors import BudgetExceededError


CONFIG = """
[module]
p = 2
variable = x
matrix =
    0, 1
    1/x, 0
interval = 1/2, 2

[run]
depth = 64
grid = 5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "module.ini"
    path.write_text(CONFIG)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out.strip() else None), out.err


# -- radius conversion ----------------------------------------------------------


def test_log_radius_exact_powers():
    assert log_radius_of(F(8), 2) == 3
    assert log_radius_of(F(1, 4), 2) == -2
    assert log_radius_of(F(9), 3) == 2
    assert log_radius_of(F(1), 5) == 0


def test_log_radius_approximate():
    rho = log_radius_of(F(3), 2)
    assert abs(float(rho) - 1.5849625007211562) < 1e-11


def test_log_radius_within_float_precision_of_1():
    # both logs round to one float, so log_p r reads 0.0, whose log10 is undefined
    assert log_radius_of(F(10**20 + 1, 10**20), 2) == 0


# -- commands -------------------------------------------------------------------


def test_catalog_command(capsys):
    code, doc, _ = run_json(capsys, ["catalog"])
    assert code == 0
    assert doc["kind"] == "catalog"
    assert [e["name"] for e in doc["entries"]][0] == "zero"


# sha256 of the catalog report: every family's summary, example parameters,
# closed form on (-2, 2), boundedness and provenance
CATALOG_SHA256 = "9e53ffea5d8149db1e09a5c65af56c2bf5f9a815f4e2a948c95dde9ce8542f87"


def test_catalog_report_bytes_are_pinned(capsys):
    assert main(["catalog"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CATALOG_SHA256


def test_radius_from_config(capsys, config_file):
    code, doc, _ = run_json(capsys, ["radius", "--config", config_file])
    assert code == 0
    assert doc["kind"] == "radius" and doc["p"] == 2
    assert len(doc["points"]) == 5
    for pt in doc["points"]:
        assert F(pt["log_r"]) <= F(pt["rho"])


def test_radius_single_point(capsys, config_file):
    code, doc, _ = run_json(capsys, ["radius", "--config", config_file, "--rho", "0"])
    assert code == 0
    assert len(doc["points"]) == 1


def test_theorem_exp_verified(capsys):
    code, doc, _ = run_json(
        capsys,
        ["theorem", "--catalog", "exp", "--p", "2", "--alpha", "1",
         "--interval", "1, 4", "--depth", "64", "--grid", "5"],
    )
    assert code == 0
    assert doc["verdict"] == "theorem-applies-and-verified"


def test_theorem_zero_hypotheses_fail(capsys):
    code, doc, _ = run_json(
        capsys,
        ["theorem", "--catalog", "zero", "--p", "2",
         "--interval", "1, 4", "--depth", "64", "--grid", "5"],
    )
    assert code == 0
    assert doc["verdict"] == "hypotheses-fail"


def test_degenerate_interval_exit_1(capsys):
    code = main(["radius", "--catalog", "exp", "--p", "2", "--interval", "2, 2"])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert err["error"]["type"] == "InputError"


def test_missing_module_exit_1(capsys):
    code = main(["radius"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"


def test_norms_csv(tmp_path, config_file, capsys):
    out = tmp_path / "norms.csv"
    code = main(["norms", "--config", config_file, "--rho", "0", "--depth", "16",
                 "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value,exact"
    assert lines[1].startswith("0,")
    assert len(lines) == 18


def test_unnormalized_drops_the_factorial(capsys):
    argv = ["--catalog", "exp", "--p", "2", "--interval", "1, 4", "--rho", "1", "--depth", "16"]
    for extra, normalized in (([], True), (["--unnormalized"], False)):
        code, doc, _ = run_json(capsys, ["radius", *argv, *extra])
        assert code == 0 and doc["normalized"] is normalized
    tables = []
    for extra in ([], ["--unnormalized"]):
        assert main(["norms", *argv, *extra]) == 0
        tables.append([line.split(",") for line in capsys.readouterr().out.splitlines()[1:]])
    # log_2 ||G_n/n!|| = log_2 ||G_n|| + v_2(n!), and v_2(n!) = n - s_2(n)
    assert [F(row[2]) for row in tables[0]] == [
        F(row[2]) + n - bin(n).count("1") for n, row in enumerate(tables[1])
    ]


def test_norms_csv_leaves_vanishing_terms_blank(tmp_path, capsys):
    out = tmp_path / "norms.csv"
    code = main(["norms", "--catalog", "zero", "--p", "2", "--interval", "1, 4", "--rho", "1",
                 "--depth", "16", "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0,0.0,0"
    assert lines[2:] == [f"{n},," for n in range(1, 17)]


def test_norms_negative_depth_exit_1(tmp_path, config_file, capsys):
    out = tmp_path / "norms.csv"
    code = main(["norms", "--config", config_file, "--rho", "0", "--depth=-3",
                 "--csv", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["type"] == "InputError"
    assert not out.exists()


def test_polygon_svg(tmp_path, capsys):
    svg = tmp_path / "poly.svg"
    code, doc, _ = run_json(
        capsys,
        ["polygon", "--catalog", "exp", "--p", "2", "--alpha", "1",
         "--interval", "1/8, 4", "--depth", "64", "--grid", "9", "--svg", str(svg)],
    )
    assert code == 0
    assert len(doc["segments"]) == 2
    text = svg.read_text()
    assert text.startswith("<svg") and "log R = rho" in text


def test_bounded_command(tmp_path, capsys):
    svg = tmp_path / "b.svg"
    code, doc, _ = run_json(
        capsys,
        ["bounded", "--catalog", "exp", "--p", "2", "--alpha", "1",
         "--interval", "1/2, 4", "--rho", "0", "--depth", "64",
         "--log-r", "-1", "--svg", str(svg)],
    )
    assert code == 0
    assert doc["classification"].startswith("bounded")
    assert doc["b"][0]["exact"] == "0"
    assert svg.read_text().startswith("<svg")


def test_cyclic_command(capsys, tmp_path):
    cfg = tmp_path / "comp.ini"
    cfg.write_text(
        "[module]\np = 2\nmatrix =\n    0, 1\n    1, 0\nlog_interval = 0, 2\n"
    )
    code, doc, _ = run_json(capsys, ["cyclic", "--config", str(cfg)])
    assert code == 0
    assert doc["order"] == 2
    assert doc["q"] == ["0", "-1"]
    assert doc["gauge"] == [["1", "0"], ["0", "1"]]


def test_frobenius_command(capsys):
    code, doc, _ = run_json(
        capsys,
        ["frobenius", "--catalog", "exp", "--p", "2", "--alpha", "1",
         "--log-interval", "-2, 2", "--h", "1", "--grid", "5", "--depth", "64"],
    )
    assert code == 0
    assert doc["passed"] and doc["excluded"] >= 1


def test_pullback_round_trip(tmp_path, capsys, config_file):
    out = tmp_path / "pulled.ini"
    code = main(["pullback", "--config", config_file, "--h", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    pulled_module, _ = cli._load_config_module(str(out))
    base_module, _ = cli._load_config_module(config_file)
    from padicdiff.diffmod import frobenius_pullback

    want = frobenius_pullback(base_module, 1)
    assert pulled_module.matrix == want.matrix
    assert pulled_module.interval == want.interval
    assert pulled_module.p == want.p


def test_determinism_byte_identical(tmp_path, config_file, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["radius", "--config", config_file, "--seed", "0",
                     "--json", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


_EXP = ["--catalog", "exp", "--p", "2", "--alpha", "1", "--depth", "32", "--grid", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", *_EXP, "--interval", "1, 4", "--rho", "1"],
        ["polygon", *_EXP, "--interval", "1, 4"],
        ["bounded", *_EXP, "--interval", "1, 4", "--rho", "1", "--log-r", "0"],
        ["theorem", *_EXP, "--interval", "1, 4"],
        ["frobenius", "--catalog", "exp", "--p", "2", "--alpha", "1",
         "--log-interval", "-2, 2", "--h", "1", "--grid", "5", "--depth", "64"],
        ["cyclic", *_EXP, "--interval", "1, 4"],
        ["catalog"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_envelope_comes_first(capsys, argv):
    # reports are byte-identical only while the key order is
    code, doc, err = run_json(capsys, argv)
    assert code in (0, 2), err
    assert list(doc)[:2] == ["schema_version", "kind"]
    assert doc["kind"] == argv[0]
    if argv[0] == "catalog":
        assert list(doc) == ["schema_version", "kind", "entries"]


def test_budget_exit_code(monkeypatch, capsys):
    def boom(args, cfg):
        raise BudgetExceededError("too big")

    monkeypatch.setitem(cli._COMMANDS, "radius", (boom, cli._COMMANDS["radius"][1]))
    code = main(["radius", "--catalog", "exp", "--p", "2", "--interval", "1, 4"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["type"] == "BudgetExceededError"


def test_exact_mode_forbids_tail_slope(capsys, config_file):
    code = main(["radius", "--config", config_file, "--mode", "exact",
                 "--method", "tail-slope"])
    captured = capsys.readouterr()
    assert code == 1
    assert "tail-min" in json.loads(captured.err)["error"]["message"]


def test_float_mode_reports_doubles(capsys, config_file):
    code, doc, _ = run_json(capsys, ["radius", "--config", config_file,
                                     "--mode", "float", "--method", "tail-slope"])
    assert code == 0
    assert doc["mode"] == "float"
    for pt in doc["points"]:
        assert isinstance(pt["log_r_float"], float)


def test_pole_on_annulus_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[module]\np = 2\nmatrix =\n    1/(x - 2)\nlog_interval = -2, 0\n"
    )
    code = main(["radius", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "pole" in json.loads(captured.err)["error"]["message"]


# -- error contract: every invalid input is one JSON error and exit 1 ----------

MODULE = "[module]\np = 2\nmatrix =\n    0, 1\n    1/x, 0\ninterval = 1/2, 2\n"


# a catalog module on radii (1, 4) at rho = 1; the family name follows
_FAMILY = ["--p", "2", "--interval", "1, 4", "--rho", "1", "--depth", "16", "--catalog"]


def assert_one_json_error(err, error_type=None):
    assert err.count("\n") == 1, err
    doc = json.loads(err)
    assert set(doc) == {"error"} and doc["error"]["type"]
    if error_type is not None:
        assert doc["error"]["type"] == error_type
    return doc["error"]


def case(config, argv, error_type, named, id):
    return pytest.param(config, argv, error_type, named, id=id)


@pytest.mark.parametrize(
    "config, argv, error_type, named",
    [
        case(MODULE + "[run]\ndepth = abc\n", ["radius"], "InputError", "abc", "run-not-int"),
        case(MODULE + "[run]\ndepth = abc\n", ["radius", "--depth", "32"], "InputError", "abc",
             "run-checked-under-flag"),
        case(MODULE + "[run]\nmode = fast\n", ["radius", "--mode", "exact"], "InputError",
             "fast", "run-mode-unknown"),
        case(MODULE + "[run]\ndpeth = 20\n", ["radius"], "InputError", "dpeth", "run-dpeth"),
        case(MODULE + "[run]\nthreads = 1\n", ["radius"], "InputError", "threads",
             "run-threads-removed"),
        case(MODULE + "varaible = x\n", ["radius"], "InputError", "varaible", "module-varaible"),
        case(MODULE + "[rnu]\ndepth = 20\n", ["radius"], "InputError", "rnu", "section-rnu"),
        case(MODULE.replace("p = 2", "p = two"), ["radius"], "InputError", "two",
             "module-p-not-int"),
        case(MODULE, ["polygon", "--max-denominator", "0"], "InputError", "max_denominator",
             "max-denominator-0"),
        case(MODULE + "[run]\nrho = 50%\n", ["radius"], "ParseError", "%", "percent-in-run"),
        case(MODULE.replace("1/2, 2", "1/2, 2%"), ["radius"], "ParseError", "%",
             "percent-in-module"),
        case(MODULE + "[run]\ndepth = 16\ndepth = 32\n", ["radius"], "ParseError", "depth",
             "duplicate-key"),
        case("depth = 16\n" + MODULE, ["radius"], "ParseError", "section", "no-section-header"),
        case(MODULE.encode() + b"variable = \xff\n", ["radius"], "ParseError", "utf-8",
             "not-utf-8"),
        case(MODULE, ["radius", "--depth", "abc"], "InputError", "abc", "flag-not-int"),
        case(MODULE, ["radius", "--no-such-flag"], "InputError", "--no-such-flag",
             "unknown-flag"),
        case(MODULE, ["radius", "--threads", "2"], "InputError", "--threads",
             "threads-flag-removed"),
        case(MODULE, ["theorem", "--depth", "32", "--grid", "3", "--tol", "nan"], "InputError",
             "tolerance", "tol-nan"),
        case(MODULE, ["bounded", "--rho", "0", "--log-r", "0", "--tol", "-1"], "InputError",
             "tolerance", "tol-negative"),
        case(MODULE + "[run]\ntolerance = inf\n", ["frobenius", "--depth", "32", "--grid", "3"],
             "InputError", "tolerance", "run-tolerance-inf"),
        case(MODULE, ["radius", "--rho", "1e99999"], "InputError", "1e99999",
             "rho-exponent-past-digit-limit"),
        case(MODULE, ["radius", "--rho", "1e999999999"], "InputError", "1e999999999",
             "rho-exponent-huge"),
        case(MODULE, ["radius", "--rho", "1/" + "3" * 5000], "InputError", "digits",
             "rho-denominator-past-digit-limit"),
        case(MODULE.replace("1/2, 2", "1/2, 2e-99999"), ["radius"], "InputError", "2e-99999",
             "interval-past-digit-limit"),
        case(MODULE.replace("p = 2", "p = 318665857834031151167461"), ["radius"], "InputError",
             "318665857834031151167461", "p-past-primality-limit"),
        case(MODULE, ["bounded", "--rho", "100", "--log-r", "0", "--depth", "20"], "DomainError",
             "rho=100", "bounded-rho-outside-interval"),
        case(MODULE + "[run]\nh = 0\n", ["radius"], "InputError", "h = ", "run-h-0"),
        case(MODULE, ["pullback", "--h", "15000"], "InputError", "h = 15000",
             "pullback-h-past-digit-limit"),
        case(MODULE, ["frobenius", "--h", "15000", "--depth", "32", "--grid", "3"], "InputError",
             "h = 15000", "frobenius-h-past-digit-limit"),
        case(MODULE, ["frobenius", "--h", "14284", "--depth", "16", "--grid", "3"], "InputError",
             "grid rho", "frobenius-grid-past-digit-limit"),
        case(MODULE.replace("0, 1\n", "0, " + "7" * 5000 + "\n"), ["pullback"], "ParseError",
             "4300", "matrix-literal-past-digit-limit"),
        case(MODULE.replace("0, 1\n", "0, (1+x)^100000\n"), ["pullback"], "ParseError",
             "4300 digits", "matrix-power-past-digit-limit"),
        case(MODULE.replace("0, 1\n", "0, 3000**999999\n"), ["pullback"], "ParseError",
             "4300 digits", "matrix-integer-power-past-digit-limit"),
        case(MODULE.replace("0, 1\n", "0, (1+x)^2000\n"), ["pullback"], "ParseError",
             "span more than 1000", "matrix-power-past-span-limit"),
        case(MODULE.replace("0, 1\n", "0, (1+x)^1000*(1+x)^1000\n"), ["pullback", "--h", "1"],
             "ParseError", "span more than 1000", "matrix-product-past-span-limit"),
        # a sum over unequal denominators is sized by its cross products, and
        # an entry whose reduction gcd would take minutes is refused at parse
        case(None, ["radius", *_FAMILY, "companion", "--q",
                    "(1+x)^600/(1+2*x)^600 + (1+3*x)^600/(1+4*x)^600"],
             "ParseError", "sum: exponents would span more than 1000", "q-sum-past-span-limit"),
        case(None, ["radius", *_FAMILY, "companion", "--q",
                    "(1+x)^100*(1+3*x)^100/((1+2*x)^100*(1+4*x)^100)"],
             "ParseError", "both span more than 80", "q-quotient-past-gcd-span-limit"),
        case(None, ["radius", *_FAMILY, "companion", "--q",
                    "(1+x)^100/(1+2*x)^100 + (1+3*x)^100/(1+4*x)^100"],
             "ParseError", "both span more than 80", "q-sum-past-gcd-span-limit"),
        # so is one whose narrower side spans 1 but whose gcd would grow
        # integers of tens of thousands of digits (3-7 s to reduce)
        *(case(None, ["radius", *_FAMILY, "companion", "--q", q], "ParseError",
               "more than 8000: too large to reduce", f"q-quotient-past-gcd-digit-limit-{k}")
          for k, q in enumerate(("(1+x)^400/(1+10^200*x)", "(1+x)^800/(1+10^50*x)"))),
        case(MODULE.replace("0, 1\n", "0, " + "(" * 200 + "1" + ")" * 200 + "\n"), ["radius"],
             "ParseError", "nested more than", "matrix-cell-parentheses-past-nesting-limit"),
        case(None, ["radius", *_FAMILY, "companion", "--q", "(" * 200 + "1" + ")" * 200],
             "ParseError", "nested more than", "q-parentheses-past-nesting-limit"),
        case(None, ["radius", *_FAMILY, "companion", "--q", "x^" + "(" * 1000 + "2" + ")" * 1000],
             "ParseError", "nested more than", "exponent-parentheses-past-nesting-limit"),
        case(MODULE, ["nonsense"], "InputError", "nonsense", "unknown-command"),
        case(MODULE, [], "InputError", "command", "no-command"),
        case(MODULE, ["radius", "--catalog", "exp", "--p", "2"], "InputError", "not both",
             "config-and-catalog"),
        case(None, ["radius", "--catalog", "exp", "--interval", "1, 4"], "InputError", "--p",
             "catalog-without-p"),
        case(None, ["radius", "--config", "missing.ini"], "InputError", "missing.ini",
             "config-file-missing"),
        case(None, ["radius", *_FAMILY, "exp", "--alpha", ""], "InputError", "''",
             "catalog-alpha-empty"),
        case(None, ["radius", *_FAMILY, "euler", "--a", ""], "InputError", "''",
             "catalog-a-empty"),
        case(None, ["radius", *_FAMILY, "exp", "--alpha", "1", "--q", "5"], "InputError",
             "'q'", "catalog-exp-q"),
        case(None, ["radius", *_FAMILY, "exp", "--a", "1/2"], "InputError", "'a'",
             "catalog-exp-a"),
        case(None, ["radius", *_FAMILY, "zero", "--alpha", "1"], "InputError", "'alpha'",
             "catalog-zero-alpha"),
        case(None, ["radius", *_FAMILY, "euler", "--a", "1/2", "--alpha", "3"], "InputError",
             "'alpha'", "catalog-euler-alpha"),
        case(None, ["radius", *_FAMILY, "companion", "--q", "1", "--a", "1/2"], "InputError",
             "'a'", "catalog-companion-a"),
        case(None, ["radius", *_FAMILY, "pullback-exp", "--q", "1"], "InputError", "'q'",
             "catalog-pullback-exp-q"),
        case("[run]\ndepth = 16\n", ["radius"], "InputError", "[module]", "no-module-section"),
        case("[module]\np = 2\ninterval = 1/2, 2\n", ["radius"], "InputError", "matrix",
             "module-without-matrix"),
        case("[module]\np = 2\nmatrix =\ninterval = 1/2, 2\n", ["radius"], "InputError",
             "empty matrix", "matrix-empty"),
        case(MODULE.replace("1/2, 2", "2"), ["radius"], "InputError", "interval",
             "interval-one-value"),
        case(MODULE.replace("interval = 1/2, 2", "log_interval = 1"), ["radius"], "InputError",
             "log_interval", "log-interval-one-value"),
        case(MODULE + "log_interval = -1, 1\n", ["radius"], "InputError", "exactly one",
             "interval-and-log-interval"),
        case(MODULE.replace("interval = 1/2, 2", "log_interval = 1, 1e400"), ["polygon"],
             "InputError", "100000", "log-interval-past-float-range"),
        case(None, ["frobenius", "--catalog", "exp", "--p", "2", "--log-interval=1e200, 1e201",
                    "--depth", "16", "--grid", "3"], "InputError", "100000",
             "log-interval-squares-past-float-range"),
        case(None, ["radius", "--catalog", "exp", "--p", "2", "--log-interval=-100001, 0",
                    "--depth", "16", "--grid", "3"], "InputError", "100000",
             "log-interval-past-limit"),
        case(MODULE, ["bounded", "--rho", "0", "--log-r=-1e4000", "--depth", "16"], "InputError",
             "100000", "log-r-past-float-range"),
        *(case(None, [command, "--catalog", "exp", "--p", "2", "--interval", "1, 4",
                      "--depth", "16", "--grid=100000000000"], "InputError", "at most 10000",
               f"{command}-grid-past-cap")
          for command in ("radius", "polygon", "theorem", "frobenius")),
        case(MODULE + "[run]\ngrid = 100000000000\n", ["theorem", "--depth", "16"], "InputError",
             "at most 10000", "run-grid-past-cap"),
        case(None, ["radius", "--catalog", "exp", "--p", "2", "--interval", "1, 4", "--rho", "1",
                    "--depth", "100001"], "InputError", "at most 100000", "depth-past-cap"),
        case(MODULE + "[run]\ndepth = 100001\n", ["radius"], "InputError", "at most 100000",
             "run-depth-past-cap"),
        case(MODULE.replace("1/2, 2", "0, 2"), ["radius"], "InputError", "positive",
             "interval-radius-0"),
        case(MODULE.replace("0, 1\n", "0, 1/0\n"), ["radius"], "InputError", "division",
             "matrix-cell-1/0"),
        case(MODULE.replace("0, 1\n", "0, 0^-1\n"), ["radius"], "InputError", "negative power",
             "matrix-cell-0^-1"),
        case(None, ["radius", "--catalog", "companion", "--p", "2", "--q", "1/(x-2)",
                    "--interval", "1/4, 1", "--rho=-1/2", "--depth", "16"], "InputError",
             "poles on the annulus: [(0, 0)]", "catalog-pole-on-annulus"),
        case(MODULE, ["radius", "--mode", "fast"], "InputError", "mode = 'fast'",
             "flag-mode-unknown"),
        case(None, ["radius", *_FAMILY, "exp", "--p", "two"], "InputError", "p = 'two'",
             "catalog-p-not-int"),
        case(None, ["radius", *_FAMILY, "pullback-exp", "--h", "0"], "InputError", "h = '0'",
             "catalog-pullback-exp-h-0"),
        case(None, ["radius", "--catalog", "pullback-exp", "--p", "3", "--h", "200000000",
                    "--interval", "1/3, 3", "--rho", "0", "--depth", "16"], "InputError",
             "p^h = 3^200000000", "catalog-pullback-exp-h-past-digit-limit"),
        case(None, ["catalog", "--depth", "abc"], "InputError", "abc", "catalog-depth-not-int"),
        # catalog reads no module, so each module-source flag is an error
        case(None, ["catalog", "--config", "missing.ini", "--catalog", "nope", "--p", "x",
                    "--interval", "junk"], "InputError", "--config, --catalog, --p, --interval",
             "catalog-module-source-flags"),
        *(case(None, ["catalog", flag, "1"], "InputError", f"catalog does not read {flag}",
               f"catalog-does-not-read-{flag}")
          for flag in ("--config", "--catalog", "--p", "--alpha", "--a", "--q", "--interval",
                       "--log-interval")),
        # a flag-only option on a command that does not read it
        *(case(MODULE, [command, "--depth", "16", "--grid", "3", *option], "InputError", named,
               f"{command}-does-not-read-{named}")
          for command, option, named in (
              ("polygon", ["--unnormalized"], "--unnormalized"),
              ("bounded", ["--rho", "0", "--unnormalized"], "--unnormalized"),
              ("theorem", ["--unnormalized"], "--unnormalized"),
              ("catalog", ["--unnormalized"], "--unnormalized"),
              ("radius", ["--svg", "plot.svg", "--csv", "norms.csv"], "--svg, --csv"),
              ("radius", ["--log-r", "0"], "--log-r"),
              ("frobenius", ["--svg", "plot.svg"], "--svg"),
              ("polygon", ["--csv", "norms.csv"], "--csv"),
              ("norms", ["--rho", "0", "--out", "pulled.ini"], "--out"),
              ("pullback", ["--json", "report.json"], "--json"),
              ("norms", ["--rho", "0", "--csv", "a.csv", "--json", "b.json"], "--json"),
          )),
    ],
)
def test_invalid_input_is_one_json_error(
    tmp_path, monkeypatch, capsys, config, argv, error_type, named
):
    # config None: the command line alone; relative paths resolve in tmp_path
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "module.ini"
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv = [*argv[:1], "--config", str(path), *argv[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert named in assert_one_json_error(captured.err, error_type)["message"]


def test_the_caps_are_inclusive():
    # a run at the cap itself goes ahead (depth 100,000 takes a few seconds)
    for key, cap in (("depth", cli.MAX_DEPTH), ("grid", cli.MAX_GRID)):
        cast = cli.RUN_KEYS[key][0]
        assert cast(cap) == cast(str(cap)) == cap


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--json", ["radius", "--rho", "0"]),
        ("--csv", ["norms", "--rho", "0", "--depth", "16"]),
        ("--svg", ["polygon", "--depth", "32", "--grid", "3"]),
        ("--out", ["pullback"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_unwritable_output_path_is_one_json_error(tmp_path, capsys, config_file, flag, argv):
    target = str(tmp_path / "module.ini" / "out")  # under the config file, a regular file
    code = main([*argv[:1], "--config", config_file, *argv[1:], flag, target])
    captured = capsys.readouterr()
    assert code == 1
    assert target in assert_one_json_error(captured.err, "InputError")["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["polygon", "--depth", "32", "--grid", "3"],
        ["bounded", "--rho", "0", "--depth", "32", "--log-r", "-1"],
        ["theorem", "--depth", "32", "--grid", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_svg_leaves_no_report(tmp_path, capsys, config_file, argv):
    # the plot is written before the report, so a failed run prints no report
    target = str(tmp_path / "module.ini" / "plot.svg")  # under a regular file
    code = main([*argv[:1], "--config", config_file, *argv[1:], "--svg", target])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert target in assert_one_json_error(captured.err, "InputError")["message"]


def test_parser_is_built_once_and_parses_afresh(capsys):
    assert cli._build_parser() is cli._build_parser()
    orders = []
    for qs in (["0", "-1"], ["1"]):
        flags = [arg for q in qs for arg in ("--q", q)]
        code, doc, _ = run_json(
            capsys,
            ["cyclic", "--catalog", "companion", "--p", "2", *flags, "--log-interval", "0, 2"],
        )
        assert code == 0
        orders.append(doc["order"])
    # the second call's --q list starts empty, not with the first call's values
    assert orders == [2, 1]


@pytest.mark.parametrize(
    "family, flags",
    [("zero", []), ("exp", []), ("euler", ["--a", "1/2"]), ("companion", ["--q", "1"]),
     ("pullback-exp", ["--alpha", "1"])],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_h_is_legal_with_every_family(capsys, family, flags):
    # --h is also the pullback order, so a family that does not take it ignores it
    code = main(["pullback", *_FAMILY, family, *flags, "--h", "2"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith("[module]\np = 2\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


_KEYS = st.one_of(
    st.sampled_from(
        ["depth", "grid", "max_denominator", "mode", "method", "tolerance", "rho", "h", "seed",
         "threads", "dpeth", "Depth", "MODE"]
    ),
    st.text("abcdefghijklmnopqrstuvwxyz_-0123456789", min_size=1, max_size=10),
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=10),
)
_VALUES = st.one_of(
    st.sampled_from(["exact", "float", "tail-min", "tail-slope", "1/2", "-1/3", "1e3", "nan", ""]),
    st.integers(-40, 40).map(str),
    st.fractions(-2, 2, max_denominator=9).map(str),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12),
)
# known-good entries mixed in, so that about one example in five runs a command
# to the end instead of stopping at the first bad key or value
_ENTRIES = st.one_of(
    st.sampled_from(
        [("mode", "float"), ("method", "tail-slope"), ("tolerance", "0.1"), ("rho", "1/2"),
         ("seed", "3"), ("h", "2"), ("max_denominator", "8"), ("depth", "64"), ("grid", "5")]
    ),
    st.tuples(_KEYS, _VALUES),
)


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(["radius", "polygon", "theorem", "bounded", "cyclic"]),
    entries=st.lists(_ENTRIES, max_size=4, unique_by=lambda e: e[0].lower()),
)
def test_fuzz_run_section_fails_closed(tmp_path, capsys, command, entries):
    path = tmp_path / "module.ini"
    run = "".join(f"{key} = {value}\n" for key, value in entries)
    path.write_text(MODULE + "[run]\n" + run, encoding="utf-8")
    code = main([command, "--config", str(path), "--depth", "32", "--grid", "3"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert_one_json_error(err)


# matrix cells: single characters of the grammar, digit runs up to past the
# literal limit, and powers written "^k" or "**k" with exponents up to 7 digits
_CELL_TOKENS = st.one_of(
    st.sampled_from(["x", "+", "-", "*", "/", "(", ")", " ", "0", "1", "2", "3"]),
    st.tuples(
        st.sampled_from(["^", "**"]),
        st.one_of(st.integers(-99, 99), st.integers(-10**7, 10**7)),
    ).map(lambda t: f"{t[0]}{t[1]}"),
    st.text("0123456789", min_size=1, max_size=8),
    st.integers(1, 5000).map(lambda k: "9" * k),
)
_CELLS = st.lists(_CELL_TOKENS, min_size=1, max_size=8).map("".join)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cells=st.one_of(*(st.lists(_CELLS, min_size=n, max_size=n) for n in (1, 4))))
@example(cells=["9" * 59 + "^73"])  # a 4,307-digit coefficient to print
@example(cells=["2^-99", "x^99", "9" * 4300, "0"])  # 2 * (10^4300 - 1) after the pullback
def test_fuzz_module_matrix_fails_closed(tmp_path, capsys, cells):
    rank = math.isqrt(len(cells))
    rows = "\n".join(
        "    " + ", ".join(cells[i * rank:(i + 1) * rank]) for i in range(rank)
    )
    path = tmp_path / "module.ini"
    path.write_text(f"[module]\np = 2\nmatrix =\n{rows}\ninterval = 1/2, 2\n", encoding="utf-8")
    code = main(["pullback", "--config", str(path), "--h", "1"])
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert_one_json_error(err)


# family flags: the empty string and short junk, and known-good values mixed
# in, so that some examples run a command to the end; companion coefficients
# are short, since the coefficient budget does not bound the size of a
# coefficient such as (1+x)^1000
_FLAG_VALUES = st.one_of(
    st.sampled_from(["1", "1/2", "-3", "0", "", " ", "2e3", "x", "1/0", "nan"]),
    st.fractions(-4, 4, max_denominator=9).map(str),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6),
)
_Q_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "x", "1/x", "2*x^2", "1/(1+x)", "", "1/0", "x^-1"]),
    st.text("x0123+-*/^() ", max_size=4),
)
_FAMILY_FLAGS = st.one_of(
    st.sampled_from(
        [("--alpha", "1"), ("--alpha", "-1/3"), ("--a", "1/2"), ("--q", "-1"), ("--q", "1/x"),
         ("--h", "1"), ("--h", "2")]
    ),
    st.tuples(st.sampled_from(["--alpha", "--a", "--h"]), _FLAG_VALUES),
    st.tuples(st.just("--h"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("--q"), _Q_VALUES),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    family=st.sampled_from([*catalog_names(), "bessel"]),
    flags=st.lists(_FAMILY_FLAGS, max_size=3),
)
def test_fuzz_family_flags_fail_closed(capsys, command, family, flags):
    argv = [command, *_FAMILY, family, "--grid", "3", *(f"{k}={v}" for k, v in flags)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert_one_json_error(err)


# interval ends: the empty string, junk, zero and signs, values past the float
# range and the digit limit, and known-good intervals mixed in
_ENDS = st.one_of(
    st.sampled_from(["1", "4", "1/2", "0", "-1", "", " ", "nan", "inf", "x", "1/0", "0.5",
                     "1e5", "-1e5", "100001", "1e155", "1e400", "-1e400", "1e-400", "1e4000"]),
    st.fractions(-4, 4, max_denominator=9).map(str),
    st.integers(0, 5000).map(lambda k: f"1e{k}"),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6),
)
_INTERVALS = st.one_of(
    st.sampled_from(["1, 4", "1/2, 2", "-1, 1", "1/4, 4"]),
    st.tuples(_ENDS, _ENDS).map(", ".join),
    st.lists(_ENDS, max_size=3).map(",".join),
)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    from_file=st.booleans(),
    interval=st.none() | _INTERVALS,
    log_interval=st.none() | _INTERVALS,
    extra=st.sampled_from([[], ["--mode=float"], ["--rho=1/2"]]),
)
@example(command="polygon", from_file=False, interval=None, log_interval="1, 1e400", extra=[])
@example(command="frobenius", from_file=True, interval=None, log_interval="1e200, 1e201", extra=[])
def test_fuzz_intervals_fail_closed(tmp_path, capsys, command, from_file, interval, log_interval,
                                    extra):
    given_ends = [("interval", interval), ("log_interval", log_interval)]
    if from_file:
        path = tmp_path / "module.ini"
        keys = "".join(f"{k} = {v}\n" for k, v in given_ends if v is not None)
        path.write_text(MODULE.replace("interval = 1/2, 2\n", keys), encoding="utf-8")
        source = ["--config", str(path)]
    else:
        source = ["--catalog", "exp", "--p", "2"]
        source += [f"--{k.replace('_', '-')}={v}" for k, v in given_ends if v is not None]
    code = main([command, *source, "--depth", "16", "--grid", "3", *extra])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert_one_json_error(err)
