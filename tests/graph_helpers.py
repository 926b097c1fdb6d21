"""Graph predicates and constructions that only the tests use: structural
validation, half-edge and vertex counts, the first Betti number,
connectivity, the necklace test, renaming of half-edges and vertices,
and relabeling of legs."""

from __future__ import annotations

from plethys.graphoracle import DecoratedGraph, _component_count


def half_edge_count(graph: DecoratedGraph) -> int:
    return len(graph.vertex_of)


def vertex_count(graph: DecoratedGraph) -> int:
    return len(graph.genus)


def check(graph: DecoratedGraph):
    """Validate the structural invariants."""
    H = len(graph.vertex_of)
    assert len(graph.inv) == H and len(graph.leg_label) == H
    assert len(graph.dec_block) == H and len(graph.mark) == H
    assert len(graph.dec_index) == len(graph.genus)
    for h in range(H):
        assert graph.inv[graph.inv[h]] == h, "inv must be an involution"
        if graph.inv[h] == h:
            assert graph.leg_label[h] >= 0, "legs carry labels"
        else:
            assert graph.leg_label[h] == -1, "non-legs carry no label"
    labels = [l for l in graph.leg_label if l >= 0]
    assert len(labels) == len(set(labels)), "leg labels must be distinct"
    vhe = graph.vertex_half_edges()
    for v, hs in enumerate(vhe):
        assert hs, "vertices must be nonempty"
        valence = len(hs)
        if graph.genus[v] == 0:
            assert valence >= 3, "genus-0 vertices need valence >= 3"
        else:
            assert graph.genus[v] == 1 and valence >= 1
        blocks = sorted(graph.dec_block[h] for h in hs)
        sizes = {}
        for b in blocks:
            sizes[b] = sizes.get(b, 0) + 1
        assert sorted(sizes) == list(range(len(sizes))), "blocks are contiguous"
    return True


def _edge_list(graph: DecoratedGraph):
    return sorted(
        {(min(h, graph.inv[h]), max(h, graph.inv[h])) for h in range(len(graph.vertex_of)) if graph.inv[h] != h}
    )


def betti1(graph: DecoratedGraph) -> int:
    """First Betti number: edges - vertices + components."""
    edges = _edge_list(graph)
    comps = _component_count(vertex_count(graph), edges, graph.vertex_of)
    return len(edges) - vertex_count(graph) + comps


def is_connected(graph: DecoratedGraph) -> bool:
    return _component_count(vertex_count(graph), _edge_list(graph), graph.vertex_of) == 1


def is_necklace(graph: DecoratedGraph) -> bool:
    """True iff the graph has first Betti number 1 and no separating edge.

    The input must be connected; legs are not edges and never separate.
    """
    if not is_connected(graph):
        raise ValueError("is_necklace requires a connected graph")
    edges = _edge_list(graph)
    if len(edges) - vertex_count(graph) + 1 != 1:
        return False
    V = vertex_count(graph)
    for skip in range(len(edges)):
        rest = edges[:skip] + edges[skip + 1 :]
        if _component_count(V, rest, graph.vertex_of) != 1:
            return False
    return True


def permute_half_edges(graph: DecoratedGraph, hperm, vperm) -> DecoratedGraph:
    """Rebuild the graph with half-edge h renamed hperm[h] and vertex v
    renamed vperm[v]."""
    H = len(graph.vertex_of)
    V = len(graph.genus)
    vertex_of = [0] * H
    inv = [0] * H
    leg = [0] * H
    block = [0] * H
    mark = [0] * H
    for h in range(H):
        nh = hperm[h]
        vertex_of[nh] = vperm[graph.vertex_of[h]]
        inv[nh] = hperm[graph.inv[h]]
        leg[nh] = graph.leg_label[h]
        block[nh] = graph.dec_block[h]
        mark[nh] = graph.mark[h]
    genus = [0] * V
    dec_index = [0] * V
    for v in range(V):
        genus[vperm[v]] = graph.genus[v]
        dec_index[vperm[v]] = graph.dec_index[v]
    return DecoratedGraph(vertex_of, inv, genus, leg, dec_index, block, mark)


def relabel_legs(graph: DecoratedGraph, mapping: dict) -> DecoratedGraph:
    """Relabel the positive leg labels through ``mapping`` (label 0, the
    root of a rooted tree, is never moved)."""
    leg_label = [mapping.get(l, l) if l >= 1 else l for l in graph.leg_label]
    return DecoratedGraph(
        graph.vertex_of, graph.inv, graph.genus, leg_label, graph.dec_index, graph.dec_block, graph.mark
    )
