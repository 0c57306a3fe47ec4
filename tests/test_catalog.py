from fractions import Fraction as F

import pytest

from padicdiff.arith import Interval
from padicdiff.catalog import catalog_get, catalog_names, catalog_summaries
from padicdiff.errors import InputError
from padicdiff.laurent import parse_rational_function
from padicdiff.radius import polygon_estimate


def test_names_and_summaries():
    names = catalog_names()
    assert names == ["zero", "exp", "euler", "companion", "pullback-exp"]
    assert set(catalog_summaries()) == set(names)


def test_zero_entry():
    entry = catalog_get("zero", 2)
    m = entry.build(Interval(-1, 1))
    assert m.matrix.is_zero
    assert entry.expected_segments(Interval(-1, 1)) == [(1, 0)]


def test_exp_entry_expected_segments():
    entry = catalog_get("exp", 2, alpha=1)
    assert entry.expected_segments(Interval(0, 2)) == [(0, -1)]
    assert entry.expected_segments(Interval(-3, -2)) == [(1, 0)]
    assert entry.expected_segments(Interval(-2, 2)) == [(1, 0), (0, -1)]
    # the level -1 at either end of the interval
    assert entry.expected_segments(Interval(-1, 1)) == [(0, -1)]
    assert entry.expected_segments(Interval(-3, -1)) == [(1, 0)]
    with pytest.raises(InputError):
        catalog_get("exp", 2, alpha=0)


def test_euler_entry_validation():
    entry = catalog_get("euler", 2, a=F(1, 2))
    assert entry.expected_segments(Interval(-1, 1)) == [(1, -2)]
    with pytest.raises(InputError):
        catalog_get("euler", 2, a=3)  # |3|_2 = 1, not > 1
    with pytest.raises(InputError):
        catalog_get("euler", 2, a=None)


def test_companion_entry():
    entry = catalog_get("companion", 2, q=("0", "-1"))
    m = entry.build(Interval(0, 1))
    assert m.rank == 2
    assert m.matrix.entry(1, 0) == parse_rational_function("1")
    with pytest.raises(InputError):
        catalog_get("companion", 2, q=())


def test_pullback_exp_entry():
    entry = catalog_get("pullback-exp", 2, alpha=1, h=1)
    m = entry.build(Interval(-1, 1))
    assert m.matrix.entry(0, 0) == parse_rational_function("2*x")
    assert (m.interval.lo, m.interval.hi) == (-1, 1)
    with pytest.raises(InputError):
        catalog_get("pullback-exp", 2, h=0)
    # the pulled matrix is made with the entry, so p^h is checked then
    with pytest.raises(InputError, match="digits"):
        catalog_get("pullback-exp", 3, h=20_000_000)


def test_unknown_name():
    with pytest.raises(InputError):
        catalog_get("bessel", 2)


@pytest.mark.parametrize(
    "name, params, named",
    [
        ("exp", {"a": 3}, "'a'"),
        ("zero", {"alpha": 1}, "'alpha'"),
        ("euler", {"a": F(1, 2), "h": 2}, "'h'"),
        ("companion", {"q": ("1",), "alpha": 1}, "'alpha'"),
        ("pullback-exp", {"alpha": 1, "q": ("1",)}, "'q'"),
        ("exp", {"alpha": 1, "var": "t"}, "'var'"),
    ],
)
def test_parameter_the_family_does_not_take(name, params, named):
    with pytest.raises(InputError, match=named):
        catalog_get(name, 2, **params)


def test_expected_values_reproduced_by_pipeline():
    cases = [
        (catalog_get("zero", 2), Interval(-1, 1)),
        (catalog_get("exp", 2, alpha=1), Interval(0, 2)),
        (catalog_get("exp", 2, alpha=1), Interval(-2, 2)),
        (catalog_get("euler", 2, a=F(1, 2)), Interval(-2, 2)),
        (catalog_get("exp", 3, alpha=1), Interval(0, 2)),
    ]
    for entry, interval in cases:
        poly = polygon_estimate(entry.build(interval), grid=17, depth=256)
        want = entry.expected_segments(interval)
        got = [(seg.slope, seg.intercept) for seg in poly.segments]
        assert [s for s, _ in got] == [s for s, _ in want]
        for (gs, gi), (ws, wi) in zip(got, want):
            assert abs(float(gi) - float(wi)) <= 0.05
