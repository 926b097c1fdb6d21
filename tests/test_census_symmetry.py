"""A symmetry rule the census generator does not use yet, checked against
the census it builds.

Inside a layout, the vertices of a run of equal (genus, valence) can be
permuted together with their ports, and every raw graph goes to an
isomorphic one.  So the raw graphs of ``graphoracle._matching_graphs``
whose internal-port counts are non-decreasing along each such run should
still meet every class of ``enumerate_decorated``.  A stricter rule,
strictly increasing counts, is wrong: two vertices of one run often have
equal counts, and the control below shows that it misses classes.

Run as a script, this file checks the rule on the two larger censuses of
the standard module and prints the raw graph counts before and after it::

    python tests/test_census_symmetry.py
"""

from __future__ import annotations

import operator

import pytest
from test_twin_rule import MODULES, STD

from plethys import graphoracle as go


def census_under_rule(spec, family, n, in_order):
    """(raw graphs, graphs kept, canonical forms of the kept graphs): a raw
    graph is kept when ``in_order(a, b)`` holds for the internal-port
    counts a, b of every two adjacent vertices of equal (genus, valence)."""
    total_genus = 1 if family == "genus1-stable" else 0
    legs = tuple(range(1 if total_genus else 0, n + 1))
    raw = kept = 0
    classes = set()
    for graph in go._matching_graphs(spec, legs, total_genus):
        raw += 1
        ports = graph.vertex_half_edges()
        shape = [(g, len(hs)) for g, hs in zip(graph.genus, ports)]
        internal = [sum(graph.inv[h] != h for h in hs) for hs in ports]
        if all(
            in_order(internal[v], internal[v + 1])
            for v in range(len(ports) - 1)
            if shape[v] == shape[v + 1]
        ):
            kept += 1
            classes.add(go.canonical_form(graph))
    return raw, kept, sorted(classes)


CASES = [
    (module, family, n)
    for module in MODULES
    for family, top in (("genus1-stable", 3), ("rooted-tree", 4))
    for n in range(1, top + 1)
]


@pytest.mark.parametrize("module, family, n", CASES)
def test_non_decreasing_internal_ports_meet_every_class(module, family, n):
    spec = MODULES[module]
    _, _, classes = census_under_rule(spec, family, n, operator.le)
    assert classes == list(go.enumerate_decorated(spec, family, n))


@pytest.mark.parametrize("family, n", [("genus1-stable", 3), ("rooted-tree", 4)])
def test_strictly_increasing_internal_ports_miss_classes(family, n):
    # control: a wrong rule must show, or the comparison above proves nothing
    _, _, classes = census_under_rule(STD, family, n, operator.lt)
    census = go.enumerate_decorated(STD, family, n)
    assert set(classes) < set(census)


# (family, n): raw graphs before and after the rule, on the standard module
LARGER = {("genus1-stable", 4): (16046, 4316), ("rooted-tree", 5): (8576, 2426)}


def main() -> None:
    for (family, n), expected in LARGER.items():
        raw, kept, classes = census_under_rule(STD, family, n, operator.le)
        assert classes == list(go.enumerate_decorated(STD, family, n)), (family, n)
        assert (raw, kept) == expected, (family, n, raw, kept)
        print(f"{family} n={n}: {raw} raw graphs, {kept} kept, all {len(classes)} classes met")


if __name__ == "__main__":
    main()
