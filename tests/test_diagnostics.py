import json
from fractions import Fraction as F

import pytest

from padicdiff.arith import Interval
from padicdiff.catalog import catalog_get
from padicdiff.diagnostics import (
    BOUNDED_DECAYING,
    BOUNDED_PLATEAU,
    INCONCLUSIVE,
    SUSPECTED_UNBOUNDED,
    VERDICT_HYPOTHESES_FAIL,
    VERDICT_VERIFIED,
    _classify,
    bounded_report,
    theorem_check,
)
from padicdiff.errors import DomainError, InputError
from padicdiff.jsonutil import bounded_json, theorem_json


def s2(n):
    return bin(n).count("1")


def exp_module(interval, p=2):
    return catalog_get("exp", p, alpha=1).build(interval)


# -- bounded reports ------------------------------------------------------------


def test_zero_module_plateau():
    m = catalog_get("zero", 2).build(Interval(-1, 1))
    rep = bounded_report(m, F(1, 2), 64, log_r=F(1, 2))
    assert rep.values[0] == 0
    assert all(v is None for v in rep.values[1:])
    assert rep.classification == BOUNDED_PLATEAU


def test_exp_closed_form_b_sequence():
    # G = (1), p=2, log R = -1: b_n = -s_2(n), max at n = 0
    m = exp_module(Interval(-1, 1))
    rep = bounded_report(m, 0, 512, log_r=F(-1))
    for n, v in enumerate(rep.values):
        assert v == F(-s2(n))
    assert rep.max_value == 0 and rep.argmax == 0
    assert rep.classification == BOUNDED_PLATEAU


def test_inflated_log_r_detected():
    m = exp_module(Interval(-1, 1))
    rep = bounded_report(m, 0, 256, log_r=F(-9, 10), tol=0.02)
    assert rep.classification == SUSPECTED_UNBOUNDED
    assert rep.tail_slope > 0.02


def test_b0_is_always_zero():
    m = catalog_get("euler", 2, a=F(1, 2)).build(Interval(-1, 1))
    rep = bounded_report(m, F(1, 4), 64, log_r=F(-3))
    assert rep.values[0] == 0


def test_log_r_cap_enforced():
    m = exp_module(Interval(-1, 1))
    with pytest.raises(InputError):
        bounded_report(m, 0, 64, log_r=F(1, 2))


@pytest.mark.parametrize("rho", [F(-1), F(1), F(100)])
def test_rho_outside_the_open_interval_rejected(rho):
    m = exp_module(Interval(-1, 1))
    with pytest.raises(DomainError, match="outside"):
        bounded_report(m, rho, 20, log_r=F(-3))


def test_classification_monotone_in_log_r():
    bounded = {BOUNDED_DECAYING, BOUNDED_PLATEAU}
    m = exp_module(Interval(-1, 1))
    for log_r in (F(-1), F(-5, 4), F(-3, 2)):
        rep = bounded_report(m, 0, 256, log_r=log_r)
        assert rep.classification in bounded
        lower = bounded_report(m, 0, 256, log_r=log_r - F(1, 2))
        assert lower.classification in bounded


def test_decaying_classification():
    m = exp_module(Interval(-1, 1))
    rep = bounded_report(m, 0, 256, log_r=F(-3, 2))
    assert rep.classification == BOUNDED_DECAYING
    assert rep.tail_slope < -0.02


def test_classify_noisy_fit_and_plateau_guard():
    # an rms residual above 3 is inconclusive whatever the slope
    assert _classify(0.0, 3.5, F(0), 0.02) == INCONCLUSIVE
    assert _classify(-1.0, 3.5, F(0), 0.02) == INCONCLUSIVE
    # a flat tail is a plateau only while the running max stays below 40
    assert _classify(0.0, 0.0, F(39), 0.02) == BOUNDED_PLATEAU
    assert _classify(0.0, 0.0, F(40), 0.02) == SUSPECTED_UNBOUNDED


def test_bounded_report_json_shape():
    m = exp_module(Interval(-1, 1))
    rep = bounded_report(m, 0, 32, log_r=F(-1))
    doc = bounded_json(rep)
    text = json.dumps(doc)  # must be serializable
    assert json.loads(text)["classification"] == rep.classification
    assert doc["b"][0] == {"n": 0, "value": 0.0, "exact": "0"}
    assert doc["b"][3]["n"] == 3


# -- theorem pipeline -------------------------------------------------------------


def test_theorem_exp_verified():
    m = exp_module(Interval(0, 2))
    rep = theorem_check(m, grid=9, depth=256)
    assert rep.one_slope and rep.non_robba.non_robba
    assert rep.verdict == VERDICT_VERIFIED
    assert len(rep.reports) == 9
    assert all(
        r.classification in (BOUNDED_PLATEAU, BOUNDED_DECAYING) for r in rep.reports
    )


def test_theorem_euler_verified_with_exact_b():
    m = catalog_get("euler", 2, a=F(1, 2)).build(Interval(-2, 2))
    rep = theorem_check(m, grid=9, depth=256)
    assert rep.verdict == VERDICT_VERIFIED
    # log R from the polygon is exactly rho - 2, so b_n = -s_2(n) at every rho
    for r in rep.reports:
        for n, v in enumerate(r.values):
            assert v == F(-s2(n))


def test_theorem_zero_hypotheses_fail():
    m = catalog_get("zero", 2).build(Interval(0, 2))
    rep = theorem_check(m, grid=9, depth=64)
    assert rep.verdict == VERDICT_HYPOTHESES_FAIL
    assert rep.reports == ()
    assert not rep.non_robba.non_robba


def test_theorem_breakpoint_hypotheses_fail():
    # two slopes on (-2, 2): one-slope fails even though margins are fine
    m = exp_module(Interval(-2, 2))
    rep = theorem_check(m, grid=17, depth=256)
    assert rep.verdict == VERDICT_HYPOTHESES_FAIL
    assert not rep.one_slope


def test_theorem_numerically_unclear():
    # with max_denominator=1 the true intercept -1/2 (p=3) snaps to 0,
    # inflating log R; the boundedness stage must notice and demote the verdict
    from padicdiff.diagnostics import VERDICT_UNCLEAR

    m = catalog_get("exp", 3, alpha=1).build(Interval(0, 2))
    rep = theorem_check(m, grid=9, depth=128, max_denominator=1)
    assert rep.one_slope and rep.non_robba.non_robba
    assert rep.verdict == VERDICT_UNCLEAR
    assert {r.classification for r in rep.reports} == {SUSPECTED_UNBOUNDED}


def test_theorem_json_round_trip():
    m = exp_module(Interval(0, 2))
    rep = theorem_check(m, grid=5, depth=64)
    doc = theorem_json(rep)
    parsed = json.loads(json.dumps(doc))
    assert parsed["verdict"] == rep.verdict
    assert len(parsed["reports"]) == 5
    assert parsed["polygon"]["segments"][0]["slope"] == "0"
