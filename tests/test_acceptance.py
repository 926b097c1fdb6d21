"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact equalities of rational coefficients; the stated
runtime bounds are asserted with wall-clock timing.  Run with ``pytest -v``
(add ``-s`` to see the per-criterion lines while running).
"""

import random
import time
from fractions import Fraction

from plethys import graphoracle as go
from plethys import verify
from plethys.cli import main
from plethys.graphoracle import (
    canonical_form,
    enumerate_decorated,
)
from plethys.groups import (
    Perm,
    closure,
    ind_trivial_char,
    ind_trivial_char_wreath,
    signed_perm,
)
from plethys.series import ModuleSpec, a_series, necklace_series, second_leg_series
from plethys.symfunc import (
    SymFunc,
    adams,
    d_operator,
    geom,
    h_gen,
    h_lambda,
    partitions_of,
    plethysm,
    z_of,
)

from burnside_reference import char_of_census
from graph_helpers import half_edge_count, permute_half_edges, vertex_count

STD = ModuleSpec.standard()


def report(criterion, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"{criterion}: {status}" + (f" ({extra})" if extra else ""))
    return passed


def test_criterion_1_cyclic_corolla_series_two_paths():
    t0 = time.monotonic()
    result = verify.run_suite("bb", max_degree=12)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 5.0
    assert report("criterion 1 (corolla series, degree 12)", ok, f"{elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 5.0


def test_criterion_2_dihedral_characters_three_ways():
    t0 = time.monotonic()
    result = verify.run_suite("generating", max_degree=10)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 5.0
    assert report("criterion 2 (dihedral characters, n <= 10)", ok, f"{elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 5.0


def test_criterion_3_oriented_necklaces_degree_6():
    t0 = time.monotonic()
    result = verify.run_suite("cyclic", spec=STD, max_degree=6)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 60.0
    assert report("criterion 3 (oriented necklaces, degree <= 6)", ok, f"{elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_4_unordered_necklaces_degree_6():
    result = verify.run_suite("necklaces", spec=STD, max_degree=6)
    assert report("criterion 4 (necklaces, both paths, degree <= 6)", result.passed)
    assert result.passed, result.detail


def test_criterion_4_regression_guard_quarter_term():
    # dropping the through-edge reflection term must break the census match
    # at some degree <= 4
    working = max(6, STD.max_arity())
    a0 = a_series(STD, 0, working)
    # the through-edge reflection term is (1/4) psi2 / (1 - psi2)
    psi2 = adams(2, second_leg_series(a0))
    crippled = necklace_series(a0) - psi2 * geom(psi2) * Fraction(1, 4)
    census_sum = SymFunc.zero(working)
    for n in range(1, 5):
        census_sum = census_sum + go.census_char(STD, "necklace", n, working)
    mismatch = any(
        crippled.degree_part(d) != census_sum.degree_part(d) for d in range(1, 5)
    )
    assert report("criterion 4 (regression guard on the quarter term)", mismatch)
    assert mismatch


def test_criterion_5_full_theorem_degree_4():
    t0 = time.monotonic()
    result = verify.run_suite("theorem", spec=STD, max_degree=4)
    elapsed = time.monotonic() - t0
    ok = result.passed and elapsed < 300.0
    assert report("criterion 5 (genus-one gluing formula, n <= 4)", ok, f"{elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 300.0


def test_criterion_6_degree_one_plethysm_oracle():
    N = 6
    p1 = SymFunc.p(1, N)
    failures = []
    for glam in ((4,), (3, 2)):
        m = sum(glam)
        one_vertex = ModuleSpec(genus0={m: [glam]})
        unordered = go.census_char(one_vertex, "necklace", m - 2, N)
        ordered = go.census_char(one_vertex, "oriented-necklace", m - 2, N)
        g = h_lambda(glam, N)
        checks = [
            ("p1^2", d_operator(p1 * p1, g), ordered),
            ("p2", d_operator(SymFunc.p(2, N), g), unordered * 2 - ordered),
            ("h2", d_operator(h_gen(2, N), g), unordered),
        ]
        for name, lhs, rhs in checks:
            if lhs != rhs:
                failures.append((name, glam))
    assert report("criterion 6 (operator pairing vs orbit oracle)", not failures)
    assert not failures


def test_criterion_7_negative_control():
    result = verify.run_suite("negative-dih", spec=STD, max_degree=6)
    assert report("criterion 7 (negative control)", result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_8a_plethysm_associativity():
    rng = random.Random(101)
    for _ in range(100):
        N = rng.randint(3, 6)
        f, g, h = (_random_symfunc(rng, N) for _ in range(3))
        assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))
    assert report("criterion 8a (plethysm associativity, 100 cases)", True)


def test_criterion_8b_adams_multiplicativity():
    rng = random.Random(103)
    for _ in range(100):
        N = rng.randint(3, 6)
        f = _random_symfunc(rng, N, min_degree=0)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        assert adams(m, adams(n, f)) == adams(m * n, f)
    assert report("criterion 8b (Adams multiplicativity, 100 cases)", True)


def test_criterion_8c_cycle_map_conjugation_invariance():
    rng = random.Random(107)
    N = 6
    for _ in range(100):
        n = rng.randint(1, 6)
        x, g = _random_perm(rng, n), _random_perm(rng, n)
        assert ind_trivial_char([g * x * _inverse(g)], N) == ind_trivial_char([x], N)
        sx, sg = _random_signed(rng, n), _random_signed(rng, n)
        conj = sg * sx * _inverse(sg)
        assert ind_trivial_char_wreath([conj], N) == ind_trivial_char_wreath([sx], N)
    assert report("criterion 8c (cycle-map conjugation invariance, 100 cases)", True)


def test_criterion_8d_canonical_form_relabeling_invariance():
    rng = random.Random(109)
    pool = []
    for family, n in (
        ("necklace", 3),
        ("oriented-necklace", 3),
        ("genus1-stable", 3),
        ("rooted-tree", 3),
    ):
        pool.extend(enumerate_decorated(STD, family, n).values())
    for _ in range(100):
        graph = rng.choice(pool)
        H, V = half_edge_count(graph), vertex_count(graph)
        hperm, vperm = list(range(H)), list(range(V))
        rng.shuffle(hperm)
        rng.shuffle(vperm)
        assert canonical_form(permute_half_edges(graph, hperm, vperm)) == canonical_form(graph)
    assert report("criterion 8d (canonical-form relabeling invariance, 100 cases)", True)


def test_criterion_8e_integer_burnside_counts():
    rng = random.Random(113)
    census_pool = [
        (enumerate_decorated(STD, "necklace", n), n) for n in range(1, 4)
    ] + [(enumerate_decorated(STD, "genus1-stable", n), n) for n in range(1, 4)]
    for case in range(100):
        if case % 2 == 0:
            n = rng.randint(2, 6)
            group = closure([_random_perm(rng, n) for _ in range(rng.randint(1, 2))])
            char = ind_trivial_char(group, 6)
            for lam in partitions_of(n):
                scaled = char.coefficient(lam) * len(group)
                assert scaled.denominator == 1
        else:
            census, n = rng.choice(census_pool)
            char = char_of_census(census, n, 6)
            for lam, coeff in char.terms():
                assert (coeff * z_of(lam)).denominator == 1
    assert report("criterion 8e (integer averaged counts, 100 cases)", True)


def test_verify_all_cli_defaults_exit_zero(capsys):
    # the command-line contract: `plethys verify all` at defaults passes
    # and prints these lines, byte for byte
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert report("verify all at defaults (exit code 0)", code == 0)
    assert code == 0
    assert out.splitlines() == [
        "bb: PASS (exact through degree 12)",
        "generating: PASS (exact for all degrees <= 10)",
        "deg1: PASS (all operator/orbit pairings agree)",
        "cyclic: PASS (exact through degree 6)",
        "necklaces: PASS (both paths match census through degree 6)",
        "theorem: PASS (exact through degree 4)",
        "negative-dih: PASS (difference detected at degree 2, as required)",
    ]


def _random_symfunc(rng, truncation, min_degree=1):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        lam = rng.choice(partitions_of(rng.randint(min_degree, truncation)))
        terms[lam] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SymFunc(truncation, terms)


def _inverse(x):
    return Perm(sorted(range(1, x.degree + 1), key=x))


def _random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Perm(images)


def _random_signed(rng, n):
    return signed_perm(tuple(rng.choice((1, -1)) for _ in range(n)), _random_perm(rng, n))
