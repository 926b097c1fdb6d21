"""The canonical-labeling kernel against a reference copy of its earlier
form.

``_rank`` and ``_canonical_search`` below are the kernel as it was before
refinement stopped on discrete colorings and before ties and encodings
were built lazily: it refines until the class counts repeat, builds every
tie permutation and compares whole encodings.  The kernel must return the
same encoding and the same optimal orders, in the same order, on every
graph of the corpus: every graph the labeled genus-one (n <= 3) and
rooted-tree (n <= 4) censuses generate, every leg-unlabeled necklace
layout (n <= 6, both orientations) and the seeded random graphs of the
networkx test.
"""

from __future__ import annotations

from itertools import permutations, product

from test_automorphisms import random_pairs

from plethys import graphoracle as go
from plethys.graphoracle import DecoratedGraph
from plethys.series import ModuleSpec

STD = ModuleSpec.standard()


# -- reference copy, not used by the program --------------------------------


def _rank(items):
    order = {key: i for i, key in enumerate(sorted(set(items)))}
    return [order[x] for x in items]


def _canonical_search(graph: DecoratedGraph):
    """The canonical encoding of ``graph`` and its optimal half-edge orders.

    Invariant refinement colors vertices and half-edges; the residual
    symmetry (vertex color classes and within-vertex ties) is searched
    exhaustively and the lexicographically smallest encoding wins.  The
    candidate labeling set is itself invariant under relabeling, which is
    what makes the minimum canonical.  It is also invariant under the
    automorphisms, which act on it freely, and two candidates with the same
    encoding differ by exactly one automorphism: the optimal orders are one
    orbit, so ``first[i] -> order[i]`` over the optimal orders lists the
    automorphism group, each element once.
    """
    vertex_of = graph.vertex_of
    inv = graph.inv
    dec_block = graph.dec_block
    leg_label = graph.leg_label
    mark = graph.mark
    H = len(vertex_of)
    V = len(graph.genus)
    vhe = graph.vertex_half_edges()
    valence = [len(hs) for hs in vhe]

    hcol = _rank([(dec_block[h], leg_label[h], mark[h]) for h in range(H)])
    vcol = _rank(
        [
            (
                graph.genus[v],
                valence[v],
                graph.dec_index[v],
                tuple(sorted(leg_label[h] for h in vhe[v])),
            )
            for v in range(V)
        ]
    )
    while True:
        nh, nv = len(set(hcol)), len(set(vcol))
        hsig = []
        for h in range(H):
            partner = inv[h]
            if partner == h:
                hsig.append((hcol[h], vcol[vertex_of[h]], -1, -1))
            else:
                hsig.append((hcol[h], vcol[vertex_of[h]], hcol[partner], vcol[vertex_of[partner]]))
        hcol = _rank(hsig)
        vcol = _rank([(vcol[v], tuple(sorted(hcol[h] for h in vhe[v]))) for v in range(V)])
        if len(set(hcol)) == nh and len(set(vcol)) == nv:
            break

    by_color: dict[int, list[int]] = {}
    for v in range(V):
        by_color.setdefault(vcol[v], []).append(v)
    class_list = [tuple(by_color[c]) for c in sorted(by_color)]

    # a vertex's color refines its (genus, valence, summand), so every
    # candidate vertex order describes the vertices alike
    vdesc = tuple(
        (graph.genus[v], valence[v], graph.dec_index[v]) for cls in class_list for v in cls
    )
    best = None
    orders = []
    vpos = [0] * V
    for class_perms in product(*(permutations(cls) for cls in class_list)):
        vorder = [v for cls in class_perms for v in cls]
        for i, v in enumerate(vorder):
            vpos[v] = i
        per_vertex = []
        for v in vorder:
            groups: dict[tuple, list[int]] = {}
            for h in vhe[v]:
                partner = inv[h]
                if partner == h:
                    key = (dec_block[h], 0, leg_label[h], -1, hcol[h], mark[h])
                else:
                    key = (dec_block[h], 1, -1, vpos[vertex_of[partner]], hcol[h], mark[h])
                groups.setdefault(key, []).append(h)
            ordered = [tuple(groups[k]) for k in sorted(groups)]
            options = [
                tuple(h for grp in combo for h in grp)
                for combo in product(*(permutations(grp) for grp in ordered))
            ]
            per_vertex.append(options)
        hpos = [0] * H
        for combo in product(*per_vertex):
            horder = [h for arr in combo for h in arr]
            for i, h in enumerate(horder):
                hpos[h] = i
            enc = (
                vdesc,
                tuple(hpos[inv[h]] for h in horder),
                tuple(leg_label[h] for h in horder),
                tuple(dec_block[h] for h in horder),
                tuple(mark[h] for h in horder),
            )
            if best is not None and enc > best:
                continue
            if enc == best:
                orders.append(horder)
            else:
                best = enc
                orders = [horder]
    return best, orders


# -- the comparison -----------------------------------------------------------


def _census_graphs(monkeypatch):
    """Every graph the labeled censuses canonicalize."""
    graphs = []
    search = go._canonical_search

    def recording(graph):
        graphs.append(graph)
        return search(graph)

    monkeypatch.setattr(go, "_canonical_search", recording)
    for n in range(1, 4):
        go.enumerate_decorated(STD, "genus1-stable", n)
    for n in range(1, 5):
        go.enumerate_decorated(STD, "rooted-tree", n)
    monkeypatch.undo()
    return graphs


def _necklace_graphs():
    return [
        graph
        for oriented in (False, True)
        for n in range(1, 7)
        for graph in go._necklace_graphs(STD, n, oriented, labeled=False)
    ]


def test_kernel_matches_reference(monkeypatch):
    corpus = {
        "census": _census_graphs(monkeypatch),
        "necklace": _necklace_graphs(),
        "random": [graph for pair in random_pairs() for graph in pair],
    }
    assert len(corpus["random"]) == 200
    for name, graphs in corpus.items():
        assert graphs, name
        for graph in graphs:
            assert go._canonical_search(graph) == _canonical_search(graph), name
