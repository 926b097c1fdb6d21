"""Census characters from automorphism groups, checked against the
labeled Burnside path and against an isomorphism test from networkx."""

import random
from math import factorial

import pytest

from plethys import graphoracle as go
from plethys.graphoracle import (
    DecoratedGraph,
    canonical_form,
    enumerate_decorated,
)
from plethys.series import ModuleSpec
from plethys.verify import run_suite

from burnside_reference import char_of_census
from graph_helpers import half_edge_count, permute_half_edges, vertex_count

STD = ModuleSpec.standard()
TINY = ModuleSpec(genus0={3: [(3,)]})
# the standard module with the trivial arity-4 summand swapped for (2,1,1)
SKEW = ModuleSpec(
    genus0={**STD.genus0, 4: [(2, 1, 1), (2, 2)]},
    genus1=STD.genus1,
)
# the standard genus-0 part with the genus-1 Young modules (1), (1,1),
# (2,1) and (2,2)
YOUNG1 = ModuleSpec(
    genus0=STD.genus0,
    genus1={1: [(1,)], 2: [(1, 1)], 3: [(2, 1)], 4: [(2, 2)]},
)
NECKLACE_FAMILIES = ("necklace", "oriented-necklace")
TRUNCATION = 6


def _classes(graphs):
    """Canonical form to (representative, optimal half-edge orders)."""
    classes = {}
    for graph in graphs:
        canon, orders = go._canonical_search(graph)
        classes.setdefault(canon, (graph, orders))
    return classes


def _unlabeled(spec, family, n, labeled):
    """Graphs meeting every leg-unlabeled class of the family, as the
    oracles generate them; ``labeled`` is the labeled census."""
    if family in NECKLACE_FAMILIES:
        return list(go._necklace_graphs(spec, n, family == "oriented-necklace", labeled=False))
    return list(go._forget_labels(labeled, n))


AUT_CASES = [
    (name, spec, family, top)
    for family in NECKLACE_FAMILIES
    for name, spec, top in (("std", STD, 5), ("tiny", TINY, 5), ("skew", SKEW, 4))
] + [
    ("std", STD, "genus1-stable", 4),
    ("young1", YOUNG1, "genus1-stable", 4),
    ("std", STD, "rooted-tree", 5),
    ("skew", SKEW, "rooted-tree", 5),
]


@pytest.mark.parametrize(
    "spec, family, top",
    [pytest.param(spec, family, top, id=f"{name}-{family}") for name, spec, family, top in AUT_CASES],
)
def test_aut_char_equals_burnside_char(spec, top, family):
    for n in range(1, top + 1):
        labeled = enumerate_decorated(spec, family, n)
        burnside = char_of_census(labeled, n, TRUNCATION)
        graphs = _unlabeled(spec, family, n, labeled)
        assert go._aut_char(graphs, TRUNCATION) == burnside
        # each unlabeled class U stands for n!/|leg image of Aut U| labeled ones
        classes = _classes(graphs)
        labeled_count = sum(
            factorial(n) // len(set(go._leg_actions(graph, orders)))
            for graph, orders in classes.values()
        )
        assert labeled_count == len(labeled)


@pytest.mark.parametrize("family", NECKLACE_FAMILIES)
def test_unlabeled_classes_are_the_labeled_ones_with_legs_forgotten(family):
    # the unlabeled layouts stop at one composition per rotation (and
    # reversal) class; every labeled class must still show up among them
    for n in range(1, 7):
        labeled = enumerate_decorated(STD, family, n)
        forgotten = {canonical_form(g) for g in go._forget_labels(labeled, n)}
        assert set(_classes(_unlabeled(STD, family, n, labeled))) == forgotten


@pytest.mark.parametrize("suite", ["cyclic", "necklaces"])
def test_necklace_suites_reach_degree_7(suite):
    assert run_suite(suite, max_degree=7).passed


# -- differential test against networkx VF2 ---------------------------------


def _random_graph(rng, same_labels):
    """Attributes are drawn from palettes of one or more values, so that
    many graphs have nontrivial automorphisms."""

    def draw(top, count):
        palette = rng.randint(0, top)
        return [rng.randint(0, palette) for _ in range(count)]

    V = rng.randint(1, 3)
    vertex_of = [v for v in range(V) for _ in range(rng.randint(1, 3))]
    H = len(vertex_of)
    halves = list(range(H))
    rng.shuffle(halves)
    inv = list(range(H))
    pairs = rng.randint(0, H // 2)
    for i in range(pairs):
        a, b = halves[2 * i], halves[2 * i + 1]
        inv[a], inv[b] = b, a
    legs = [h for h in range(H) if inv[h] == h]
    labels = [1] * len(legs) if same_labels else rng.sample(range(1, 9), len(legs))
    leg_label = [-1] * H
    for h, lab in zip(legs, labels):
        leg_label[h] = lab
    return DecoratedGraph(
        vertex_of,
        inv,
        draw(1, V),
        leg_label,
        draw(1, V),
        draw(1, H),
        draw(2, H),
    )


def _shuffled(rng, graph):
    hperm = list(range(half_edge_count(graph)))
    vperm = list(range(vertex_count(graph)))
    rng.shuffle(hperm)
    rng.shuffle(vperm)
    return permute_half_edges(graph, hperm, vperm)


def _to_networkx(nx, graph):
    """Half-edges as nodes carrying their vertex's genus and summand, leg
    label, block and mark; edges join half-edges at one vertex and the
    partners of the involution."""
    G = nx.Graph()
    for h, v in enumerate(graph.vertex_of):
        G.add_node(
            h,
            attrs=(
                graph.genus[v],
                graph.dec_index[v],
                graph.leg_label[h],
                graph.dec_block[h],
                graph.mark[h],
                graph.inv[h] == h,
            ),
        )
    kinds: dict = {}
    for h, v in enumerate(graph.vertex_of):
        for g in range(h + 1, half_edge_count(graph)):
            if graph.vertex_of[g] == v:
                kinds.setdefault((h, g), set()).add("vertex")
        if graph.inv[h] > h:
            kinds.setdefault((h, graph.inv[h]), set()).add("edge")
    for (a, b), kind in kinds.items():
        G.add_edge(a, b, kinds=frozenset(kind))
    return G


def _matcher(G1, G2):
    from networkx.algorithms.isomorphism import GraphMatcher

    return GraphMatcher(
        G1,
        G2,
        node_match=lambda x, y: x["attrs"] == y["attrs"],
        edge_match=lambda x, y: x["kinds"] == y["kinds"],
    )


def random_pairs():
    """The 100 seeded (graph, other) pairs of the networkx test: other is
    a shuffled copy, a shuffled copy with one mark redrawn, or a fresh
    random graph."""
    rng = random.Random(4099)
    for trial in range(100):
        same_labels = trial % 2 == 0
        g = _random_graph(rng, same_labels)
        roll = rng.random()
        if roll < 0.4:
            other = _shuffled(rng, g)
        elif roll < 0.7:
            # same shape, one attribute redrawn: isomorphic or not
            mark = list(g.mark)
            h = rng.randrange(half_edge_count(g))
            mark[h] = rng.randint(0, 2)
            g2 = DecoratedGraph(
                g.vertex_of, g.inv, g.genus, g.leg_label, g.dec_index, g.dec_block, mark
            )
            other = _shuffled(rng, g2)
        else:
            other = _random_graph(rng, same_labels)
        yield g, other


def test_canonical_search_against_networkx():
    nx = pytest.importorskip("networkx")
    isomorphic_pairs = symmetric = 0
    for g, other in random_pairs():
        G, G_other = _to_networkx(nx, g), _to_networkx(nx, other)
        same = _matcher(G, G_other).is_isomorphic()
        isomorphic_pairs += same
        assert (canonical_form(g) == canonical_form(other)) == same
        _, orders = go._canonical_search(g)
        automorphisms = sum(1 for _ in _matcher(G, G).isomorphisms_iter())
        assert len(orders) == automorphisms
        symmetric += automorphisms > 1
    # both outcomes and nontrivial groups must be exercised
    assert 10 < isomorphic_pairs < 90
    assert symmetric >= 10
