import json
from fractions import Fraction as F

import pytest

from padicdiff import cli
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


# -- commands -------------------------------------------------------------------


def test_catalog_command(capsys):
    code, doc, _ = run_json(capsys, ["catalog"])
    assert code == 0
    assert doc["kind"] == "catalog"
    assert [e["name"] for e in doc["entries"]][0] == "zero"


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


def test_budget_exit_code(monkeypatch, capsys):
    def boom(args, cfg):
        raise BudgetExceededError("too big")

    monkeypatch.setitem(cli._COMMANDS, "radius", boom)
    code = main(["radius", "--catalog", "exp", "--p", "2", "--interval", "1, 4"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["type"] == "BudgetExceededError"


def test_threads_flag_matches_sequential(capsys, config_file):
    code1, doc1, _ = run_json(capsys, ["radius", "--config", config_file])
    code2, doc2, _ = run_json(capsys, ["radius", "--config", config_file, "--threads", "4"])
    assert (code1, code2) == (0, 0)
    assert doc1 == doc2


def test_threads_env_var(monkeypatch, capsys, config_file):
    code1, doc1, _ = run_json(capsys, ["radius", "--config", config_file])
    monkeypatch.setenv("PADICDIFF_THREADS", "3")
    code2, doc2, _ = run_json(capsys, ["radius", "--config", config_file])
    assert (code1, code2) == (0, 0)
    assert doc1 == doc2


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
