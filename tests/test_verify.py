"""Every verification suite reports a FAIL when its closed side is wrong,
and refuses a degree at which it would check nothing.

Each perturbation case replaces one closed form in ``verify``'s namespace
by a perturbed copy and runs the suite at its default degree: the suite
must fail, at the degree where the perturbation first shows.  The
negative control's naive series is checked against the route it stands
for: the plain dihedral groups D_n of S_n averaged and composed with a0''.
"""

from fractions import Fraction

import pytest

from plethys import verify
from plethys.groups import ind_trivial_char
from plethys.series import (
    ModuleSpec,
    a_series,
    ass_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    working_truncation,
)
from plethys.symfunc import SymFunc, d_operator, plethysm
from plethys.wreath import WreathSymFunc, dih_series_closed
from test_groups import dihedral_in_sym
from test_series import PAPER_ROUTE_CASES


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


@pytest.mark.parametrize("max_degree", [0, -1, True, 2.0])
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


STD = ModuleSpec.standard()
# the standard module with its one non-trivial summand, [2,2], left out
ALL_TRIVIAL = ModuleSpec(genus0={m: [(m,)] for m in STD.genus0}, genus1=STD.genus1)
NAIVE_MODULES = {
    "standard": STD,
    "young-heavy": PAPER_ROUTE_CASES["young-heavy-8"][0],
    "all-trivial": ALL_TRIVIAL,
}


def _naive_series(monkeypatch, spec, max_degree):
    """The naive series the negative control compares with the necklace
    census, caught before any census is enumerated."""
    caught = []

    def catch(formula, oracle, spec, max_degree):
        caught.append(formula)
        return None

    monkeypatch.setattr(verify, "_census_difference", catch)
    verify.run_suite("negative-dih", spec, max_degree)
    (naive,) = caught
    return naive


def _plain_dihedral_route(spec, max_degree):
    """sum_{n <= max_degree} Z(D_n) o a0'', with D_n closed inside S_n."""
    working = working_truncation(spec, max_degree)
    core = second_leg_series(a_series(spec, 0, working))
    out = SymFunc.zero(working)
    for n in range(1, max_degree + 1):
        out = out + plethysm(ind_trivial_char(dihedral_in_sym(n), working), core)
    return out


@pytest.mark.parametrize("name", NAIVE_MODULES)
def test_negative_control_is_the_plain_dihedral_route(monkeypatch, name):
    # forgetting signs maps the dihedral subgroup of S_2 wr S_n onto D_n and
    # sends P_k and Q_k alike to p_k
    spec = NAIVE_MODULES[name]
    naive = _naive_series(monkeypatch, spec, 8)
    plain = _plain_dihedral_route(spec, 8)
    for d in range(9):
        assert naive.degree_part(d) == plain.degree_part(d), d


def test_negative_control_is_blind_to_trivial_summands(monkeypatch):
    # the naive series is the necklace formula at (a0'', a0''/2), so it is
    # the necklace series exactly when a0'' = 2 da0/dp_2, as on trivial
    # summands: h_n'' = h_{n-2} = 2 dh_n/dp_2
    N = 12
    naive = _naive_series(monkeypatch, ALL_TRIVIAL, N)
    assert naive == necklace_series(a_series(ALL_TRIVIAL, 0, naive.truncation))
    naive = _naive_series(monkeypatch, STD, N)
    necklaces = necklace_series(a_series(STD, 0, naive.truncation))
    differing = [d for d in range(N + 1) if naive.degree_part(d) != necklaces.degree_part(d)]
    assert differing[0] == 2
