"""Identity-verification suites, shared by the command line and the tests.

Each suite checks one closed-form identity against an independent
computation (a group-element average, a graph census, or an orbit count)
by exact degreewise comparison; a census suite enumerates degree by degree
and stops at its first differing degree.  Every suite carries its own default
degree, chosen so that ``run_all`` at defaults is exactly the acceptance
workload; an explicit ``max_degree`` overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphoracle
from .graphoracle import Budget, hom_char
from .groups import hyperoct_dihedral, dihedral_in_sym, ind_trivial_char, ind_trivial_char_wreath
from .series import (
    ModuleSpec,
    a_series,
    ass_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    working_truncation,
)
from .symfunc import SymFunc, h_gen, h_lambda, plethysm
from .wreath import dih_char_closed, dih_series_closed, plethysm_deg1


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    detail: str = ""

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


def _first_difference(f: SymFunc, part_of, max_degree: int):
    """The first degree d <= max_degree at which ``f.degree_part(d)`` and
    ``part_of(d)`` differ, as (d, f's part, the other part), or None.
    ``part_of`` is called degree by degree and never past that d."""
    for d in range(max_degree + 1):
        mine, theirs = f.degree_part(d), part_of(d)
        if mine != theirs:
            return d, mine, theirs
    return None


def _census_difference(formula: SymFunc, oracle, spec: ModuleSpec, max_degree: int, budget: Budget):
    """``_first_difference`` of ``formula`` against a census.

    Every census character is homogeneous of degree n, so degree d of the
    summed census series is the character ``oracle(spec, d, ...)`` alone;
    no census past the first differing degree is enumerated.
    """
    N = formula.truncation
    return _first_difference(
        formula, lambda d: oracle(spec, d, N, budget) if d else SymFunc.zero(N), max_degree
    )


def _diff_detail(diff):
    if diff is None:
        return None
    d, mine, theirs = diff
    return f"first differing degree {d}: {mine} vs {theirs}"


def run_bb(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Closed form of the cyclically-ordered corolla series against the
    averages over cyclic subgroups."""
    closed = ass_series(max_degree, method="closed")
    burnside = ass_series(max_degree, method="burnside")
    detail = _diff_detail(_first_difference(closed, burnside.degree_part, max_degree))
    return SuiteResult("bb", detail is None, detail or f"exact through degree {max_degree}")


def run_generating(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Per-degree closed dihedral characters against hyperoctahedral
    subgroup averages and against the closed generating series."""
    series = dih_series_closed(max_degree)
    for n in range(1, max_degree + 1):
        closed = dih_char_closed(n, max_degree)
        burnside = ind_trivial_char_wreath(hyperoct_dihedral(n), max_degree)
        if closed != burnside:
            return SuiteResult(
                "generating", False, f"degree {n}: closed {closed} vs subgroup average {burnside}"
            )
        if series.degree_part(n) != closed:
            return SuiteResult(
                "generating", False, f"degree {n}: series part {series.degree_part(n)} vs {closed}"
            )
    return SuiteResult("generating", True, f"exact for all degrees <= {max_degree}")


def run_deg1(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Differential-operator pairing against the orbit-counting oracle."""
    N = max(max_degree, 5)
    cases_g = [((4,), h_gen(4, N)), ((3, 2), h_lambda((3, 2), N))]
    p1 = SymFunc.p(1, N)
    p2 = SymFunc.p(2, N)
    h2 = h_gen(2, N)
    cases_f = [
        ("p1^2", p1 * p1, lambda lam: hom_char("regular", lam, N)),
        ("p2", p2, lambda lam: hom_char("trivial", lam, N) * 2 - hom_char("regular", lam, N)),
        ("h2", h2, lambda lam: hom_char("trivial", lam, N)),
    ]
    for glam, g in cases_g:
        for fname, f, oracle in cases_f:
            lhs = plethysm_deg1(f, g)
            rhs = oracle(glam)
            if lhs != rhs:
                return SuiteResult(
                    "deg1", False, f"f={fname}, g=h{list(glam)}: {lhs} vs orbit oracle {rhs}"
                )
    return SuiteResult("deg1", True, "all operator/orbit pairings agree")


def run_cyclic(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Cyclically-oriented necklace series against the oriented census."""
    working = working_truncation(spec, max_degree)
    a0 = a_series(spec, 0, working)
    formula = cyclic_necklace_series(a0)
    detail = _diff_detail(
        _census_difference(
            formula, graphoracle.cyclic_necklace_char_oracle, spec, max_degree, budget
        )
    )
    return SuiteResult("cyclic", detail is None, detail or f"exact through degree {max_degree}")


def run_necklaces(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Unordered necklace series (both computation paths) against the
    unordered census."""
    working = working_truncation(spec, max_degree)
    a0 = a_series(spec, 0, working)
    direct = necklace_series(a0, method="direct")
    wreath_path = necklace_series(a0, method="wreath")
    detail = _diff_detail(_first_difference(direct, wreath_path.degree_part, max_degree))
    if detail is not None:
        return SuiteResult("necklaces", False, "direct vs wreath path: " + detail)
    detail = _diff_detail(
        _census_difference(direct, graphoracle.necklace_char_oracle, spec, max_degree, budget)
    )
    return SuiteResult("necklaces", detail is None, detail or f"both paths match census through degree {max_degree}")


def run_theorem(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """End-to-end genus-one series against the full stable-graph census."""
    formula = b1_series(spec, max_degree)
    detail = _diff_detail(
        _census_difference(formula, graphoracle.mv_char, spec, max_degree, budget)
    )
    return SuiteResult("theorem", detail is None, detail or f"exact through degree {max_degree}")


def run_negative_dih(spec: ModuleSpec, max_degree: int, budget: Budget) -> SuiteResult:
    """Negative control: treating the dihedral groups as plain subgroups of
    the symmetric groups and substituting the doubly-marked genus-0 series
    must NOT reproduce the necklace census; the suite passes when a
    difference is found."""
    working = working_truncation(spec, max_degree)
    a0 = a_series(spec, 0, working)
    core = second_leg_series(a0)
    naive = SymFunc.zero(working)
    for n in range(1, max_degree + 1):
        naive = naive + plethysm(ind_trivial_char(dihedral_in_sym(n), working), core)
    diff = _census_difference(naive, graphoracle.necklace_char_oracle, spec, max_degree, budget)
    if diff is None:
        return SuiteResult(
            "negative-dih", False, f"no difference found through degree {max_degree}; expected one"
        )
    return SuiteResult("negative-dih", True, f"difference detected at degree {diff[0]}, as required")


# every runner takes (spec, max_degree, budget); the closed-form suites
# read only the degree
_RUNNERS = {
    "bb": run_bb,
    "generating": run_generating,
    "deg1": run_deg1,
    "cyclic": run_cyclic,
    "necklaces": run_necklaces,
    "theorem": run_theorem,
    "negative-dih": run_negative_dih,
}


def run_suite(
    name: str,
    spec: ModuleSpec | None = None,
    max_degree: int | None = None,
    max_half_edges: int | None = None,
    max_classes: int | None = None,
) -> SuiteResult:
    """Run one suite on ``spec`` (the standard module by default) at
    ``max_degree`` (the suite's own default degree by default).  Its census
    budget is sized from that degree (``graphoracle.sized_budget``); a
    given limit replaces the one it names."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES} or 'all'")
    if spec is None:
        spec = ModuleSpec.standard()
    if max_degree is None:
        max_degree = SUITE_DEFAULT_DEGREE[name]
    budget = graphoracle.sized_budget(max_degree, max_half_edges, max_classes)
    return _RUNNERS[name](spec, max_degree, budget)


def run_all(
    spec: ModuleSpec | None = None,
    max_degree: int | None = None,
    max_half_edges: int | None = None,
    max_classes: int | None = None,
) -> list[SuiteResult]:
    return [
        run_suite(name, spec, max_degree, max_half_edges, max_classes) for name in SUITE_NAMES
    ]
