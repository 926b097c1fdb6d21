"""Every verification suite reports a FAIL when its closed side is wrong,
and refuses a degree at which it would check nothing.

Each perturbation case replaces one closed form in ``verify``'s namespace
by a perturbed copy and runs the suite at its default degree: the suite
must fail, at the degree where the perturbation first shows.
"""

from fractions import Fraction

import pytest

from plethys import verify
from plethys.series import ass_series, b1_series, cyclic_necklace_series, necklace_series
from plethys.symfunc import SymFunc, d_operator
from plethys.wreath import WreathSymFunc, dih_series_closed


def _necklaces_plus_quarter_p3(methods):
    """``necklace_series`` with 1/4 p_3 added on the given methods only."""

    def perturbed(a0, method="direct"):
        N = a0.truncation
        extra = SymFunc.p(3, N) * Fraction(1, 4) if method in methods else SymFunc.zero(N)
        return necklace_series(a0, method) + extra

    return perturbed


def _dih_plus_half_q1p2(N):
    q1p2 = WreathSymFunc.gen_q(1, N) * WreathSymFunc.gen_p(2, N)
    return dih_series_closed(N) + q1p2 * Fraction(1, 2)


@pytest.mark.parametrize(
    "suite, name, perturbed, detail",
    [
        pytest.param(
            "bb",
            "ass_series",
            lambda N: ass_series(N) + SymFunc.p(3, N) * Fraction(1, 3),
            "first differing degree 3: ",
            id="bb",
        ),
        pytest.param(
            "generating",
            "dih_series_closed",
            _dih_plus_half_q1p2,
            "first differing degree 3: ",
            id="generating",
        ),
        pytest.param(
            "cyclic",
            "cyclic_necklace_series",
            lambda a0: cyclic_necklace_series(a0) + SymFunc.p(2, a0.truncation) * Fraction(1, 2),
            "first differing degree 2: ",
            id="cyclic",
        ),
        pytest.param(
            "necklaces",
            "necklace_series",
            _necklaces_plus_quarter_p3(("wreath",)),
            "direct vs wreath path: first differing degree 3: ",
            id="necklaces-wreath-path",
        ),
        pytest.param(
            "necklaces",
            "necklace_series",
            _necklaces_plus_quarter_p3(("direct", "wreath")),
            "first differing degree 3: ",
            id="necklaces-census",
        ),
        pytest.param(
            "theorem",
            "b1_series",
            lambda spec, N: b1_series(spec, N) + SymFunc.p(2, N),
            "first differing degree 2: ",
            id="theorem",
        ),
        pytest.param(
            "deg1",
            "d_operator",
            lambda f, g: d_operator(f, g) * 2,
            "f=p1^2, g=h[4]: ",
            id="deg1",
        ),
    ],
)
def test_suite_fails_on_a_perturbed_closed_form(monkeypatch, suite, name, perturbed, detail):
    monkeypatch.setattr(verify, name, perturbed)
    result = verify.run_suite(suite)
    assert result.passed is False
    assert result.detail.startswith(detail), result.detail


@pytest.mark.parametrize("max_degree", [0, -1])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_suite_rejects_degrees_below_one(monkeypatch, suite, max_degree):
    # no suite runs, so no series or census is built
    def refuse(*args):
        raise AssertionError("a suite ran")

    for name in verify.SUITE_NAMES:
        monkeypatch.setitem(verify._RUNNERS, name, refuse)
    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        verify.run_suite(suite, max_degree=max_degree)
    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        verify.run_all(max_degree=max_degree)
