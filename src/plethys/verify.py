"""Identity-verification suites, shared by the command line and the tests.

Each suite checks one closed-form identity against an independent
computation (a group-element average or a graph census) by exact
degreewise comparison.  Every suite but ``deg1``, which pairs two fixed
Young modules with three operators, runs one check: its closed paths
(two for ``necklaces`` and ``theorem``, one elsewhere) must agree degree
by degree, and then the first must agree with the average over the
degree-d subgroup or the degree-d census; the check stops at its first
differing degree.
Every suite carries its own default degree, chosen so that ``run_all`` at
defaults is exactly the acceptance workload; an explicit ``max_degree``
overrides it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from .graphoracle import census_char
from .groups import cyclic_subgroup, hyperoct_dihedral, ind_trivial_char, ind_trivial_char_wreath
from .series import (
    ModuleSpec,
    _genus_one_routes,
    _necklace_route,
    a_series,
    ass_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    working_truncation,
)
from .symfunc import SymFunc, _check_int, d_operator, h_gen, h_lambda
from .wreath import dih_series_closed


class SuiteResult(namedtuple("SuiteResult", "suite passed detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.suite}: {status}" + (f" ({self.detail})" if self.detail else "")


SUITE_DEFAULT_DEGREE = {
    "bb": 12,
    "generating": 10,
    "deg1": 5,
    "cyclic": 6,
    "necklaces": 6,
    "theorem": 4,
    "negative-dih": 6,
}

SUITE_NAMES = tuple(SUITE_DEFAULT_DEGREE)


def _check(suite: str, paths: dict, oracle, max_degree: int, passed: str):
    """Run the check of ``suite``: its result (with detail ``passed`` on a
    pass) and its first differing degree (None on a pass).

    ``paths`` maps the name of each closed path to its series.  Every other
    path must agree with the first degree by degree through ``max_degree``;
    then the first must agree with ``oracle(d, N)``, the degree-d group
    average or census character at the first path's truncation N, and with
    zero at degree 0.  The check stops at its first difference, so
    ``oracle`` is never called past it.
    """
    (name, first), *others = paths.items()
    N = first.truncation
    stages = [(f"{name} vs {other}: ", series.degree_part) for other, series in others]
    stages.append(("", lambda d: oracle(d, N) if d else first.zero(N)))
    for prefix, part_of in stages:
        for d in range(max_degree + 1):
            mine, theirs = first.degree_part(d), part_of(d)
            if mine != theirs:
                return SuiteResult(suite, False, f"{prefix}first differing degree {d}: {mine} vs {theirs}"), d
    return SuiteResult(suite, True, passed), None


def run_bb(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Closed form of the cyclically-ordered corolla series against the
    averages over cyclic subgroups."""
    return _check(
        "bb", {"ass_series": ass_series(max_degree)},
        lambda d, N: ind_trivial_char(cyclic_subgroup(d), N),
        max_degree, f"exact through degree {max_degree}",
    )[0]


def run_generating(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Closed generating series of the dihedral characters against the
    averages over the dihedral subgroups of the hyperoctahedral groups."""
    return _check(
        "generating", {"dih_series_closed": dih_series_closed(max_degree)},
        lambda d, N: ind_trivial_char_wreath(hyperoct_dihedral(d), N),
        max_degree, f"exact for all degrees <= {max_degree}",
    )[0]


def run_deg1(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Differential-operator pairing against the one-vertex necklace census.

    A genus-0 vertex decorated by h_lam, lam a partition of m, with a loop
    and n = m - 2 legs has the character d_operator(h_2, h_lam) when the
    loop's ends are unordered (the necklace census of the one-summand
    module) and d_operator(p_1^2, h_lam) when they are ordered (the
    oriented census); p_2 = 2 h_2 - p_1^2 pairs to twice the first minus
    the second.
    """
    N = max(max_degree, 5)
    p1 = SymFunc.p(1, N)
    for glam in ((4,), (3, 2)):
        m = sum(glam)
        one_vertex = ModuleSpec(genus0={m: [glam]})
        unordered = census_char(one_vertex, "necklace", m - 2, N)
        ordered = census_char(one_vertex, "oriented-necklace", m - 2, N)
        g = h_lambda(glam, N)
        cases = [
            ("p1^2", p1 * p1, ordered),
            ("p2", SymFunc.p(2, N), unordered * 2 - ordered),
            ("h2", h_gen(2, N), unordered),
        ]
        for fname, f, rhs in cases:
            lhs = d_operator(f, g)
            if lhs != rhs:
                return SuiteResult(
                    "deg1", False, f"f={fname}, g=h{list(glam)}: {lhs} vs orbit oracle {rhs}"
                )
    return SuiteResult("deg1", True, "all operator/orbit pairings agree")


def run_cyclic(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Cyclically-oriented necklace series against the oriented census."""
    working = working_truncation(spec, max_degree)
    closed = {"cyclic_necklace_series": cyclic_necklace_series(a_series(spec, 0, working))}
    census = partial(census_char, spec, "oriented-necklace")
    return _check("cyclic", closed, census, max_degree, f"exact through degree {max_degree}")[0]


def run_necklaces(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Unordered necklace series (both computation paths) against the
    unordered census."""
    working = working_truncation(spec, max_degree)
    a0 = a_series(spec, 0, working)
    paths = {"direct": necklace_series(a0, "direct"), "wreath path": necklace_series(a0, "wreath")}
    census = partial(census_char, spec, "necklace")
    passed = f"both paths match census through degree {max_degree}"
    return _check("necklaces", paths, census, max_degree, passed)[0]


def run_theorem(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """End-to-end genus-one series, by ``b1_series`` and by the paper's
    route, against the full stable-graph census.

    Both paths glue along one tree series T: a1 o T plus the necklace
    series at a0'' o T and (da0/dp_2) o T, by the necklace formula for
    ``b1_series`` and by the specialized closed dihedral series for the
    paper's route.
    """
    routes = _genus_one_routes(spec, max_degree, ("direct", "wreath"))
    paths = dict(zip(("b1_series", "paper's route"), routes))
    census = partial(census_char, spec, "genus1-stable")
    return _check("theorem", paths, census, max_degree, f"exact through degree {max_degree}")[0]


def run_negative_dih(spec: ModuleSpec, max_degree: int) -> SuiteResult:
    """Negative control: the dihedral series with the sign flip forgotten
    must NOT reproduce the necklace census; the suite passes when a
    difference is found.

    Forgetting signs maps the dihedral subgroup of S_2 wr S_n onto the
    plain dihedral group D_n in S_n and sends P_k and Q_k alike to p_k, so
    the naive series, sum_n Z(D_n) o a0'', is the necklace formula at
    (a0'', a0''/2): the wreath route at those inputs, Q_k acting as P_k.
    It equals the necklace series exactly when a0'' = 2 da0/dp_2,
    which holds for every trivial genus-0 summand (h_n'' = h_{n-2} =
    2 dh_n/dp_2), so the control is blind to trivial summands.
    """
    working = working_truncation(spec, max_degree)
    core = second_leg_series(a_series(spec, 0, working))
    naive = _necklace_route("wreath", core, core * Fraction(1, 2))
    census = partial(census_char, spec, "necklace")
    _, d = _check("negative-dih", {"naive": naive}, census, max_degree, "")
    if d is None:
        return SuiteResult(
            "negative-dih", False, f"no difference found through degree {max_degree}; expected one"
        )
    return SuiteResult("negative-dih", True, f"difference detected at degree {d}, as required")


# every runner takes (spec, max_degree); the closed-form suites read only
# the degree, and every census holds at most graphoracle.DEFAULT_BUDGET
# classes
_RUNNERS = {
    "bb": run_bb,
    "generating": run_generating,
    "deg1": run_deg1,
    "cyclic": run_cyclic,
    "necklaces": run_necklaces,
    "theorem": run_theorem,
    "negative-dih": run_negative_dih,
}


def run_suite(name: str, spec: ModuleSpec | None = None, max_degree: int | None = None) -> SuiteResult:
    """Run one suite on ``spec`` (the standard module by default) at
    ``max_degree`` (the suite's own default degree by default), which must
    be an ``int`` of at least 1: anything else, ``True`` and ``2.0``
    included, raises ``ValueError``.  Each census it enumerates has as
    many legs as the degree it checks."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES} or 'all'")
    if max_degree is None:
        max_degree = SUITE_DEFAULT_DEGREE[name]
    _check_int(max_degree, "max_degree")
    if spec is None:
        spec = ModuleSpec.standard()
    return _RUNNERS[name](spec, max_degree)


def run_all(spec: ModuleSpec | None = None, max_degree: int | None = None) -> list[SuiteResult]:
    return [run_suite(name, spec, max_degree) for name in SUITE_NAMES]
