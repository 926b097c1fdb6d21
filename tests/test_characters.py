"""Character checks at degrees no census reaches.

Every closed series below is the character of a permutation
representation: at a permutation of cycle type lam, the term c p_lam
contributes Fix = z_lam * c fixed points, so z_lam * c is a non-negative
integer.  The necklace and cyclic necklace series, the rooted-tree fixed
point and the genus-one series are checked on the standard module and on
the Young-heavy module of the paper-route tests.  A control shows that the
check bites: the necklace formula with its quarter term set to 1/2 fails.

Run as a script, this file checks the same series two to four degrees
further and prints each check::

    python tests/test_characters.py
"""

from __future__ import annotations

from fractions import Fraction

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
from plethys.symfunc import adams, geom, z_of

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


def fixed_point_failures(f):
    """The (lam, z_lam * c) of every term c p_lam of f whose fixed-point
    count z_lam * c is not a non-negative integer."""
    counts = ((lam, z_of(lam) * c) for lam, c in f.terms())
    return [(lam, fix) for lam, fix in counts if fix < 0 or fix.denominator != 1]


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("module", MODULES)
def test_fixed_point_counts_are_natural(module, series):
    f = SERIES[series](MODULES[module], DEGREES[series])
    assert fixed_point_failures(f) == []


def test_half_quarter_term_fails():
    # control: the quarter term (1/4) psi2 / (1 - psi2), psi2 = adams(2, a0''),
    # of the necklace formula set to 1/2 adds another (1/4) psi2 / (1 - psi2)
    a0 = a_series(ModuleSpec.standard(), 0, DEGREES["necklaces"])
    psi2 = adams(2, second_leg_series(a0))
    wrong = necklace_series(a0) + psi2 * geom(psi2) * Fraction(1, 4)
    failures = fixed_point_failures(wrong)
    assert failures[0] == ((2,), Fraction(9, 2))


def main() -> None:
    for module, spec in MODULES.items():
        for series, build in SERIES.items():
            N = SCRIPT_DEGREES[series]
            assert fixed_point_failures(build(spec, N)) == [], (module, series, N)
            print(f"{module} {series} through degree {N}: every z_lam * c is a natural number")


if __name__ == "__main__":
    main()
