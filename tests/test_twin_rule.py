"""The twin rule of the census generator against an unpruned reference.

``_reference_census`` below rebuilds the raw-matching census from the
generator's own helpers, with every leg assignment of every internal-port
split: no symmetry breaking, only canonical deduplication.  The program's
census, which lays out only the leg assignments whose label sets increase
along every pair of twin vertices, must hold exactly the same classes.
"""

from __future__ import annotations

import pytest

from plethys import graphoracle as go
from plethys.series import ModuleSpec

STD = ModuleSpec.standard()
YOUNG = ModuleSpec(
    genus0={3: [(3,), (2, 1)], 4: [(4,), (2, 2), (2, 1, 1)], 5: [(5,)], 6: [(6,)]},
    genus1=STD.genus1,
)
# the module of the benchmark's held-out seed: genus1[4][0] = (2, 1, 1)
HELD_OUT = ModuleSpec(genus0=STD.genus0, genus1={**STD.genus1, 4: [(2, 1, 1)]})


# -- reference, not used by the program ---------------------------------------


def _reference_fill(spec, shape, E, leg_labels, census):
    V = len(shape)
    genus = tuple(g for g, _ in shape)
    valences = [m for _, m in shape]
    offsets, vertex_of = go._layout(valences)
    decorations = go._decorations(
        [spec.genus0[m] if g == 0 else spec.genus1[m] for g, m in shape], offsets, valences
    )
    for int_counts in go._sums([range(1 if V > 1 else 0, m + 1) for m in valences], 2 * E):
        internal = tuple(
            h for v in range(V) for h in range(offsets[v], offsets[v] + int_counts[v])
        )
        connected = [
            pairs
            for pairs in go._perfect_matchings(internal)
            if go._component_count(V, pairs, vertex_of) == 1
        ]
        leg_counts = tuple(m - i for m, i in zip(valences, int_counts))
        leg_starts = [base + i for base, i in zip(offsets, int_counts)]
        assigns = go._ordered_set_partitions(leg_labels, leg_counts)
        for graph in go._layout_graphs(vertex_of, genus, decorations, leg_starts, assigns, connected):
            census.setdefault(go.canonical_form(graph), graph)


def _reference_census(spec, family, n):
    """Canonical forms of the census of ``family`` with n labeled legs."""
    leg_labels = tuple(range(1 if family == "genus1-stable" else 0, n + 1))
    prof0 = tuple(sorted(m for m, lams in spec.genus0.items() if lams))
    prof1 = tuple(sorted(m for m, lams in spec.genus1.items() if lams))
    # (genus-1 vertices, first Betti number)
    cases = [(1, 0), (0, 1)] if family == "genus1-stable" else [(0, 0)]
    census = {}
    for heads, b1 in cases:
        if not (prof1 if heads else prof0):
            continue
        V = 1
        while True:
            E = V - 1 + b1
            need = 2 * E + len(leg_labels)
            if (3 * (V - 1) + prof1[0] if heads else 3 * V) > need:
                break
            for shape in go._vertex_shapes(prof0, prof1, V, need, heads):
                _reference_fill(spec, shape, E, leg_labels, census)
            V += 1
    return sorted(census)


# -- the comparison -----------------------------------------------------------


MODULES = {"standard": STD, "young": YOUNG, "held-out": HELD_OUT}
CASES = (
    [("standard", "genus1-stable", n) for n in range(1, 5)]
    + [("standard", "rooted-tree", n) for n in range(1, 6)]
    + [("young", family, n) for family in ("genus1-stable", "rooted-tree") for n in range(1, 4)]
    + [("held-out", "genus1-stable", n) for n in range(1, 5)]
)


@pytest.mark.parametrize("module, family, n", CASES)
def test_twin_rule_keeps_every_class(module, family, n):
    spec = MODULES[module]
    assert list(go.enumerate_decorated(spec, family, n)) == _reference_census(spec, family, n)


def test_twin_rule_prunes_generation(monkeypatch):
    calls = []
    search = go._canonical_search

    def counting(graph):
        calls.append(1)
        return search(graph)

    monkeypatch.setattr(go, "_canonical_search", counting)
    go.enumerate_decorated(STD, "genus1-stable", 4)
    # 21,410 graphs without the twin rule
    assert len(calls) == 16046
