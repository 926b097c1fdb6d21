"""Every verification suite reports a FAIL when its closed side is wrong,
and refuses a degree at which it would check nothing.

Each perturbation case replaces one closed form in the namespace of
``verify`` or ``series`` by a perturbed copy and runs the suite at its
default degree: the suite must fail, at the degree where the
perturbation first shows; a suite with two closed paths names both when
only one of them moves.  The
negative control's naive series is checked against the route it stands
for: the plain dihedral groups D_n of S_n averaged and composed with a0''.
"""

from fractions import Fraction

import pytest

from plethys import series, verify
from plethys.groups import ind_trivial_char
from plethys.series import (
    ModuleSpec,
    a_series,
    ass_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    working_truncation,
)
from plethys.symfunc import SymFunc, _necklace_formula, d_operator, plethysm
from plethys.wreath import WreathSymFunc, dih_series_closed, specialize_s2
from test_groups import dihedral_in_sym
from test_series import PAPER_ROUTE_CASES


def _necklaces_plus_quarter_p3(methods):
    """``necklace_series`` with 1/4 p_3 added on the given methods only."""

    def perturbed(a0, method="direct"):
        N = a0.truncation
        extra = SymFunc.p(3, N) * Fraction(1, 4) if method in methods else SymFunc.zero(N)
        return necklace_series(a0, method) + extra

    return perturbed


# degree 3 of the standard necklace series, and with 1/4 p_3 added
NECKLACES_3 = "2/3*p3 + 5/2*p2*p1 + 17/6*p1^3"
NECKLACES_3_PLUS = "11/12*p3 + 5/2*p2*p1 + 17/6*p1^3"


def _dih_plus_half_q1p2(N):
    q1p2 = WreathSymFunc.gen_q(1, N) * WreathSymFunc.gen_p(2, N)
    return dih_series_closed(N) + q1p2 * Fraction(1, 2)


@pytest.mark.parametrize(
    "suite, target, perturbed, detail",
    [
        pytest.param(
            "bb",
            "verify.ass_series",
            lambda N: ass_series(N) + SymFunc.p(3, N) * Fraction(1, 3),
            "first differing degree 3: ",
            id="bb",
        ),
        pytest.param(
            "generating",
            "verify.dih_series_closed",
            _dih_plus_half_q1p2,
            "first differing degree 3: ",
            id="generating",
        ),
        pytest.param(
            "cyclic",
            "verify.cyclic_necklace_series",
            lambda a0: cyclic_necklace_series(a0) + SymFunc.p(2, a0.truncation) * Fraction(1, 2),
            "first differing degree 2: ",
            id="cyclic",
        ),
        # the necklaces details in full: the first path's part, then the
        # other path's or the census's
        pytest.param(
            "necklaces",
            "verify.necklace_series",
            _necklaces_plus_quarter_p3(("wreath",)),
            f"direct vs wreath path: first differing degree 3: {NECKLACES_3} vs {NECKLACES_3_PLUS}",
            id="necklaces-wreath-path",
        ),
        pytest.param(
            "necklaces",
            "verify.necklace_series",
            _necklaces_plus_quarter_p3(("direct",)),
            f"direct vs wreath path: first differing degree 3: {NECKLACES_3_PLUS} vs {NECKLACES_3}",
            id="necklaces-direct-path",
        ),
        pytest.param(
            "necklaces",
            "verify.necklace_series",
            _necklaces_plus_quarter_p3(("direct", "wreath")),
            f"first differing degree 3: {NECKLACES_3_PLUS} vs {NECKLACES_3}",
            id="necklaces-census",
        ),
        pytest.param(
            "theorem",
            "series._necklace_formula",
            lambda core, adot: _necklace_formula(core, adot) + SymFunc.p(2, core.truncation),
            "b1_series vs paper's route: first differing degree 2: ",
            id="theorem-b1_series",
        ),
        pytest.param(
            "theorem",
            "series.specialize_s2",
            lambda w, core, adot: specialize_s2(w, core, adot) + SymFunc.p(2, w.truncation),
            "b1_series vs paper's route: first differing degree 2: ",
            id="theorem-paper-route",
        ),
        pytest.param(
            "deg1",
            "verify.d_operator",
            lambda f, g: d_operator(f, g) * 2,
            "f=p1^2, g=h[4]: ",
            id="deg1",
        ),
    ],
)
def test_suite_fails_on_a_perturbed_closed_form(monkeypatch, suite, target, perturbed, detail):
    monkeypatch.setattr(f"plethys.{target}", perturbed)
    result = verify.run_suite(suite)
    assert result.passed is False
    assert result.detail.startswith(detail), result.detail


def test_theorem_fails_at_the_census_when_both_routes_move(monkeypatch):
    # an extra p_2 in the genus-one corollas reaches b1_series and the
    # paper's route alike, so the two agree and the census tells them apart
    def perturbed(spec, genus, N):
        return a_series(spec, genus, N) + (SymFunc.p(2, N) if genus else SymFunc.zero(N))

    monkeypatch.setattr(series, "a_series", perturbed)
    result = verify.run_suite("theorem")
    assert result.passed is False
    assert result.detail.startswith("first differing degree 2: "), result.detail


def test_theorem_glues_both_routes_along_one_tree(monkeypatch):
    # b1_series and the paper's route share one tree series T: one fixed
    # point, and a1, a0'' and da0/dp_2 each composed with T once
    trees, by_tree = [], []
    fixed_point, compose = series.tree_fixed_point, series.plethysm

    def counting_fixed_point(a0):
        trees.append(fixed_point(a0))
        return trees[-1]

    def counting_plethysm(f, g):
        if any(g is tree for tree in trees):
            by_tree.append(f)
        return compose(f, g)

    # in verify too, so that an assembly outside series would be counted
    for module in (series, verify):
        monkeypatch.setattr(module, "tree_fixed_point", counting_fixed_point, raising=False)
        monkeypatch.setattr(module, "plethysm", counting_plethysm, raising=False)
    # the census is not needed to count the closed side's work
    monkeypatch.setattr(verify, "_check", lambda suite, *rest: (verify.SuiteResult(suite, True), None))
    verify.run_suite("theorem", STD, 4)
    assert len(trees) == 1
    assert len(by_tree) == 3


@pytest.mark.parametrize("max_degree", [0, -1, True, 2.0])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_suite_rejects_degrees_below_one(monkeypatch, suite, max_degree):
    # no suite runs, so no series or census is built
    def refuse(*args):
        raise AssertionError("a suite ran")

    for name in verify.SUITE_NAMES:
        monkeypatch.setitem(verify._RUNNERS, name, refuse)
    message = f"^max_degree must be a positive integer, got {max_degree!r}$"
    with pytest.raises(ValueError, match=message):
        verify.run_suite(suite, max_degree=max_degree)
    with pytest.raises(ValueError, match=message):
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

    def catch(suite, paths, oracle, max_degree, passed):
        caught.extend(paths.values())
        return verify.SuiteResult(suite, True, passed), None

    monkeypatch.setattr(verify, "_check", catch)
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
