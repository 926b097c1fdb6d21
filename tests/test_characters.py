"""Character checks at degrees no census reaches.

Every closed series below is the character of a permutation
representation: at a permutation of cycle type lam, the term c p_lam
contributes Fix = z_lam * c fixed points, so z_lam * c is a non-negative
integer.  By Burnside's lemma, the cyclic group generated by a permutation
sigma_lam of type lam has (1/ord) sum_{j < ord} Fix(sigma_lam^j) orbits,
also a non-negative integer.  The necklace and cyclic necklace series, the
rooted-tree fixed point and the genus-one series are checked both ways on
the standard module and on the Young-heavy module of the paper-route
tests.  A permutation character is also a genuine character, so its
multiplicity <f_n, s_lam> = sum_mu c_mu chi^lam(mu) at every irreducible
character chi^lam is a natural number; the table of the chi^lam comes from
partitions alone, by the Murnaghan-Nakayama rule.  Three controls show
that the checks bite: the necklace formula with its quarter term set to
1/2 fails the fixed-point check, the necklace series plus p_2/2 passes it
but fails the orbit count, and the necklace series plus 2 p_2 passes both
but fails the multiplicities.

Run as a script, this file checks the same series two to four degrees
further, and the multiplicities of the two necklace series through degree
20, and prints each check::

    python tests/test_characters.py
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from test_series import PAPER_ROUTE_CASES

from plethys.series import (
    ModuleSpec,
    a_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    tree_fixed_point,
)
from plethys.symfunc import SymFunc, adams, geom, partitions_of, z_of

MODULES = {
    "standard": ModuleSpec.standard(),
    "young-heavy": PAPER_ROUTE_CASES["young-heavy-8"][0],
}
SERIES = {
    "necklaces": lambda spec, N: necklace_series(a_series(spec, 0, N)),
    "cyclic-necklaces": lambda spec, N: cyclic_necklace_series(a_series(spec, 0, N)),
    "tree": lambda spec, N: tree_fixed_point(a_series(spec, 0, N)),
    "b1": b1_series,
}
# the degree of each check here, and when run as a script
DEGREES = {"necklaces": 20, "cyclic-necklaces": 20, "tree": 10, "b1": 8}
SCRIPT_DEGREES = {"necklaces": 24, "cyclic-necklaces": 24, "tree": 12, "b1": 12}
# the highest degree of the multiplicity check here, and when run as a script
SCHUR_DEGREE = 12
SCRIPT_SCHUR_DEGREE = 20


@cache
def built(module, series, N):
    return SERIES[series](MODULES[module], N)


def fixed_point_failures(f):
    """The (lam, z_lam * c) of every term c p_lam of f whose fixed-point
    count z_lam * c is not a non-negative integer."""
    counts = ((lam, z_of(lam) * c) for lam, c in f.terms())
    return [(lam, fix) for lam, fix in counts if fix < 0 or fix.denominator != 1]


def power_type(lam, j):
    """The cycle type of sigma^j, sigma of type lam: each l-cycle splits
    into gcd(l, j) cycles of length l / gcd(l, j)."""
    parts = (part // g for part in lam for g in [gcd(part, j)] for _ in range(g))
    return tuple(sorted(parts, reverse=True))


def orbit_count_failures(f):
    """The (lam, orbits) of every cycle type lam through f's truncation
    whose cyclic group <sigma_lam> has an orbit count
    (1/ord) sum_{j < ord} z_mu c_mu, mu = type(sigma_lam^j), that is not a
    non-negative integer."""
    fix = {lam: z_of(lam) * c for lam, c in f.terms()}
    failures = []
    for n in range(f.truncation + 1):
        for lam in partitions_of(n):
            order = lcm(*lam)
            orbits = Fraction(sum(fix.get(power_type(lam, j), 0) for j in range(order)), order)
            if orbits < 0 or orbits.denominator != 1:
                failures.append((lam, orbits))
    return failures


@cache
def _beta_char(beta, mu):
    """The irreducible character at the beta-set ``beta`` (an ascending
    tuple of distinct naturals) and the cycle type ``mu``.  A rim hook of
    length r = mu[0] is a bead moved from b to the empty position b - r,
    with sign (-1)^(beads strictly between); the rest of mu acts on what
    is left."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for i, b in enumerate(beta):
        if b >= r and b - r not in beta:
            # beta[j:i] are the beads strictly between b - r and b
            j = bisect(beta, b - r)
            moved = beta[:j] + (b - r,) + beta[j:i] + beta[i + 1 :]
            total += (-1) ** (i - j) * _beta_char(moved, rest)
    return total


@cache
def beta_set(lam):
    """The beta-set {lam_i + l - i} of lam, l its length, ascending."""
    return tuple(sorted(part + len(lam) - i for i, part in enumerate(lam, 1)))


def character(lam, mu):
    """chi^lam(mu) by the Murnaghan-Nakayama rule on beta-sets (Macdonald,
    Symmetric Functions and Hall Polynomials, 2nd ed., 1995, I.7)."""
    return _beta_char(beta_set(lam), mu)


def schur_multiplicity_failures(f, top):
    """The (lam, <f_n, s_lam>) of every partition lam of n <= top whose
    multiplicity sum_mu c_mu chi^lam(mu), f_n = sum_mu c_mu p_mu, is not a
    natural number.  The sum runs over the integers D * c_mu, D the least
    common denominator of the degree-n terms."""
    terms = list(f.terms())
    failures = []
    for n in range(min(top, f.truncation) + 1):
        part = [(mu, c) for mu, c in terms if sum(mu) == n]
        D = lcm(*(c.denominator for _, c in part))
        scaled = [(mu, int(c * D)) for mu, c in part]
        for lam in partitions_of(n):
            total = sum(k * character(lam, mu) for mu, k in scaled)
            if total < 0 or total % D:
                failures.append((lam, Fraction(total, D)))
    return failures


@pytest.mark.parametrize("n", range(1, 9))
def test_character_table(n):
    # column orthogonality, the trivial character and the sign
    lams = partitions_of(n)
    for mu in lams:
        assert character((n,), mu) == 1
        assert character((1,) * n, mu) == (-1) ** (n - len(mu))
        for nu in lams:
            inner = sum(character(lam, mu) * character(lam, nu) for lam in lams)
            assert inner == (z_of(mu) if mu == nu else 0), (mu, nu)


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("module", MODULES)
def test_fixed_point_counts_are_natural(module, series):
    assert fixed_point_failures(built(module, series, DEGREES[series])) == []


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("module", MODULES)
def test_orbit_counts_are_natural(module, series):
    assert orbit_count_failures(built(module, series, DEGREES[series])) == []


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("module", MODULES)
def test_schur_multiplicities_are_natural(module, series):
    f = built(module, series, DEGREES[series])
    assert schur_multiplicity_failures(f, SCHUR_DEGREE) == []


def test_half_quarter_term_fails():
    # control: the quarter term (1/4) psi2 / (1 - psi2), psi2 = adams(2, a0''),
    # of the necklace formula set to 1/2 adds another (1/4) psi2 / (1 - psi2)
    a0 = a_series(ModuleSpec.standard(), 0, DEGREES["necklaces"])
    psi2 = adams(2, second_leg_series(a0))
    wrong = necklace_series(a0) + psi2 * geom(psi2) * Fraction(1, 4)
    failures = fixed_point_failures(wrong)
    assert failures[0] == ((2,), Fraction(9, 2))


def test_half_p2_fails_only_the_orbit_count():
    # control: p_2/2 adds 1 to Fix at type (2), an integer, but 1/2 to the
    # orbit count of <sigma_(2)>, whose powers have types (1, 1) and (2)
    N = DEGREES["necklaces"]
    wrong = built("standard", "necklaces", N) + SymFunc.p(2, N) * Fraction(1, 2)
    assert fixed_point_failures(wrong) == []
    assert orbit_count_failures(wrong)[0] == ((2,), Fraction(11, 2))


def test_two_p2_fails_only_the_schur_multiplicities():
    # control: 2 p_2 adds 4 to Fix at type (2) and 2 to the orbit count of
    # <sigma_(2)>, both natural, but takes 2 from <f_2, s_11>, since
    # chi^11((2)) = -1
    N = DEGREES["necklaces"]
    wrong = built("standard", "necklaces", N) + SymFunc.p(2, N) * 2
    assert fixed_point_failures(wrong) == []
    assert orbit_count_failures(wrong) == []
    assert schur_multiplicity_failures(wrong, SCHUR_DEGREE)[0] == ((1, 1), -1)


def main() -> None:
    for module, spec in MODULES.items():
        for series, build in SERIES.items():
            N = SCRIPT_DEGREES[series]
            f = build(spec, N)
            assert fixed_point_failures(f) == [], (module, series, N)
            assert orbit_count_failures(f) == [], (module, series, N)
            top = min(N, SCRIPT_SCHUR_DEGREE)
            assert schur_multiplicity_failures(f, top) == [], (module, series, top)
            print(
                f"{module} {series} through degree {N}: every z_lam * c and every"
                " orbit count of a cyclic group is a natural number, and so is"
                f" every <f_n, s_lam> through degree {top}"
            )


if __name__ == "__main__":
    main()
