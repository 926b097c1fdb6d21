"""Brute-force censuses of decorated stable graphs and their characters.

A graph is a finite set of half-edges with a partition into vertices and an
involution; fixed points of the involution are legs and carry distinct
labels.  Vertices carry a genus in {0, 1}, subject to stability: genus-0
vertices have valence >= 3 and genus-1 vertices valence >= 1.  A decoration
picks, for every vertex, one summand of the test module at that vertex's
(genus, valence) and a basis element of it, realized as an ordered set
partition of the vertex's half-edges with the summand's block sizes.

Isomorphisms are half-edge bijections preserving the vertex partition, the
involution, genus, leg labels, the chosen summand and the block structure
(blockwise, in order).  Censuses are deduplicated by a canonical form
computed with invariant refinement plus backtracking over the residual
symmetry.  Refinement stops when a round leaves the class counts
unchanged, or as soon as the coloring is discrete: a round's signatures
sort by the old rank first, so on a discrete coloring it would give back
the same ranks (the discrete-partition stopping rule of McKay and
Piperno, arXiv:1301.1493).  The optimal labelings of the search differ
exactly by automorphisms, so the same search also yields each class's
automorphism group.

The genus-one and rooted-tree censuses lay out vertices as sorted
(genus, valence) shapes, split each vertex's ports into internal ports
and legs, and then enumerate leg assignments, connected perfect matchings
of the internal ports and decorations.  Two consecutive vertices with the
same genus, valence and internal-port count that carry legs are twins,
and only the leg assignments whose label sets increase along every twin
pair are generated.  Swapping two twins with their ports maps the triples
enumerated for the split onto themselves and each graph to an isomorphic
one, and twins carry disjoint non-empty label sets, so every orbit of
these swaps keeps exactly its sorted assignment and every class is still
reached (symmetry breaking in the generator, McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Canonical deduplication
removes the duplicates that remain.

Necklace characters are computed from leg-unlabeled classes (every leg
carries one common label): each class U contributes the cycle index
(1/|Aut U|) sum_{a in Aut U} p_{type(a on legs)}.  Genus-one and
rooted-tree characters are Burnside averages of leg-relabeling fixed
counts over the leg-labeled census (``char_of_census``), which also
serves the tests as the independent reference for the necklace path.
Everything here is deliberately independent of the closed formulas it is
used to check: families are enumerated from raw matchings or cycle
layouts and compared degreewise against the series module.  Every oracle
is a plain function of its arguments and keeps nothing between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .groups import Perm, ind_trivial_char
from .series import ModuleSpec
from .symfunc import SymFunc, _validate_partition, partitions_of, z_of

MARK_NONE = 0
MARK_PREV = 1
MARK_NEXT = 2

FAMILIES = ("genus1-stable", "necklace", "oriented-necklace", "rooted-tree")


@dataclass(frozen=True)
class Budget:
    """Guard rails for the enumeration kernels."""

    max_half_edges: int = 14
    max_legs: int = 5
    max_classes: int = 10**6


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its budget."""


DEFAULT_BUDGET = Budget()


def sized_budget(
    degree: int = 0, max_half_edges: int | None = None, max_classes: int | None = None
) -> Budget:
    """The budget of a run whose censuses go up to ``degree`` legs.

    A census graph with n legs has at most n vertices on its cycle and at
    most 3n half-edges, so the default half-edge and leg limits grow to
    cover the degree; degree 0 keeps the defaults.  A limit that is given
    replaces the one it names.
    """
    if max_half_edges is None:
        max_half_edges = max(DEFAULT_BUDGET.max_half_edges, 3 * degree)
    if max_classes is None:
        max_classes = DEFAULT_BUDGET.max_classes
    return Budget(max_half_edges, max(DEFAULT_BUDGET.max_legs, degree), max_classes)


class DecoratedGraph:
    """A decorated half-edge graph.

    Arrays indexed by half-edge: ``vertex_of``, ``inv`` (the involution),
    ``leg_label`` (-1 on non-legs), ``dec_block`` (position of the
    half-edge's block in its vertex's ordered set partition), ``mark``
    (cycle-orientation tag, 0 when unoriented).  Arrays indexed by vertex:
    ``genus`` and ``dec_index`` (which summand of the test module).
    """

    __slots__ = (
        "vertex_of",
        "inv",
        "genus",
        "leg_label",
        "dec_index",
        "dec_block",
        "mark",
    )

    def __init__(self, vertex_of, inv, genus, leg_label, dec_index, dec_block, mark=None):
        self.vertex_of = tuple(vertex_of)
        self.inv = tuple(inv)
        self.genus = tuple(genus)
        self.leg_label = tuple(leg_label)
        self.dec_index = tuple(dec_index)
        self.dec_block = tuple(dec_block)
        self.mark = tuple(mark) if mark is not None else (MARK_NONE,) * len(self.vertex_of)

    def half_edge_count(self) -> int:
        return len(self.vertex_of)

    def vertex_count(self) -> int:
        return len(self.genus)

    def vertex_half_edges(self):
        out = [[] for _ in range(len(self.genus))]
        for h, v in enumerate(self.vertex_of):
            out[v].append(h)
        return out

    def legs(self):
        return [h for h in range(len(self.vertex_of)) if self.inv[h] == h]

    def check(self):
        """Validate the structural invariants; used by tests."""
        H = len(self.vertex_of)
        assert len(self.inv) == H and len(self.leg_label) == H
        assert len(self.dec_block) == H and len(self.mark) == H
        assert len(self.dec_index) == len(self.genus)
        for h in range(H):
            assert self.inv[self.inv[h]] == h, "inv must be an involution"
            if self.inv[h] == h:
                assert self.leg_label[h] >= 0, "legs carry labels"
            else:
                assert self.leg_label[h] == -1, "non-legs carry no label"
        labels = [l for l in self.leg_label if l >= 0]
        assert len(labels) == len(set(labels)), "leg labels must be distinct"
        vhe = self.vertex_half_edges()
        for v, hs in enumerate(vhe):
            assert hs, "vertices must be nonempty"
            valence = len(hs)
            if self.genus[v] == 0:
                assert valence >= 3, "genus-0 vertices need valence >= 3"
            else:
                assert self.genus[v] == 1 and valence >= 1
            blocks = sorted(self.dec_block[h] for h in hs)
            sizes = {}
            for b in blocks:
                sizes[b] = sizes.get(b, 0) + 1
            assert sorted(sizes) == list(range(len(sizes))), "blocks are contiguous"
        return True


# -- basic graph predicates ---------------------------------------------


def _edge_list(graph: DecoratedGraph):
    return sorted(
        {(min(h, graph.inv[h]), max(h, graph.inv[h])) for h in range(len(graph.vertex_of)) if graph.inv[h] != h}
    )


def _component_count(V, edges, vertex_of) -> int:
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = V
    for a, b in edges:
        ra, rb = find(vertex_of[a]), find(vertex_of[b])
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def betti1(graph: DecoratedGraph) -> int:
    """First Betti number: edges - vertices + components."""
    edges = _edge_list(graph)
    comps = _component_count(graph.vertex_count(), edges, graph.vertex_of)
    return len(edges) - graph.vertex_count() + comps


def is_connected(graph: DecoratedGraph) -> bool:
    return _component_count(graph.vertex_count(), _edge_list(graph), graph.vertex_of) == 1


def is_necklace(graph: DecoratedGraph) -> bool:
    """True iff the graph has first Betti number 1 and no separating edge.

    The input must be connected; legs are not edges and never separate.
    """
    if not is_connected(graph):
        raise ValueError("is_necklace requires a connected graph")
    edges = _edge_list(graph)
    if len(edges) - graph.vertex_count() + 1 != 1:
        return False
    V = graph.vertex_count()
    for skip in range(len(edges)):
        rest = edges[:skip] + edges[skip + 1 :]
        if _component_count(V, rest, graph.vertex_of) != 1:
            return False
    return True


# -- canonical labeling --------------------------------------------------


def _rank(items):
    """Dense ranks of ``items`` in sorted order, and how many distinct
    items there are."""
    order = {key: i for i, key in enumerate(sorted(set(items)))}
    return list(map(order.__getitem__, items)), len(order)


def canonical_form(graph: DecoratedGraph):
    """Canonical encoding of a decorated graph, identical for isomorphic
    graphs and distinct otherwise."""
    return _canonical_search(graph)[0]


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

    Refinement stops when a round leaves the class counts unchanged, or as
    soon as every half-edge and every vertex is its own class.  A round's
    signatures sort by the old rank first, so a round only splits classes
    and keeps their order.  On a discrete coloring it can split nothing
    and gives back the same ranks, so skipping that round changes no rank.

    A candidate lists the vertices by color and each vertex's half-edges
    by search key.  Only vertex color classes and key ties of two or more
    are permuted, so a graph whose coloring ends discrete has a single
    candidate.  Every candidate describes its vertices alike, so the
    involution is compared first, and the rest of the encoding is built
    only for a candidate that ties or wins.
    """
    vertex_of = graph.vertex_of
    inv = graph.inv
    dec_block = graph.dec_block
    leg_label = graph.leg_label
    mark = graph.mark
    genus = graph.genus
    dec_index = graph.dec_index
    H = len(vertex_of)
    V = len(genus)
    vhe = graph.vertex_half_edges()
    partner_vertex = [vertex_of[p] for p in inv]
    is_leg = [inv[h] == h for h in range(H)]

    hcol, nh = _rank(list(zip(dec_block, leg_label, mark)))
    # a vertex's half-edges are as many as its valence, so flat signatures
    # order like (genus, valence, summand, sorted leg labels)
    vcol, nv = _rank(
        [
            (genus[v], len(hs), dec_index[v], *sorted([leg_label[h] for h in hs]))
            for v, hs in enumerate(vhe)
        ]
    )
    while nh < H or nv < V:
        hcol, nh_next = _rank(
            [
                (hcol[h], vcol[vertex_of[h]], -1, -1)
                if is_leg[h]
                else (hcol[h], vcol[vertex_of[h]], hcol[inv[h]], vcol[partner_vertex[h]])
                for h in range(H)
            ]
        )
        vcol, nv_next = _rank([(vcol[v], *sorted([hcol[h] for h in hs])) for v, hs in enumerate(vhe)])
        if nh_next == nh and nv_next == nv:
            break
        nh, nv = nh_next, nv_next

    # a vertex's color refines its (genus, valence, summand), so every
    # candidate vertex order describes the vertices alike
    vbase = sorted(range(V), key=vcol.__getitem__)
    vdesc = tuple([(genus[v], len(vhe[v]), dec_index[v]) for v in vbase])
    vclasses = _runs([vcol[v] for v in vbase]) if nv < V else ()

    # A half-edge's search key is (block, is internal, leg label, position
    # of the partner's vertex or -1, color, mark).  The color orders like
    # (block, leg label, mark) and refines it, so the key orders like
    # (block, is internal, partner position + 1 or 0, color), packed here
    # into one integer after the position of the half-edge's own vertex.
    low = min(dec_block, default=0)
    span = (max(dec_block, default=0) - low + 1) * 2 * (V + 1) * H
    base = [
        (dec_block[h] - low) * 2 * (V + 1) * H + hcol[h]
        if is_leg[h]
        else (((dec_block[h] - low) * 2 + 1) * (V + 1) + 1) * H + hcol[h]
        for h in range(H)
    ]
    step = [0 if is_leg[h] else H for h in range(H)]

    best = best_inv = None
    orders = []
    vpos = [0] * V
    hpos = [0] * H
    for vorder in _arrangements(vbase, vclasses):
        for i, v in enumerate(vorder):
            vpos[v] = i
        key = [
            vpos[vertex_of[h]] * span + base[h] + vpos[partner_vertex[h]] * step[h]
            for h in range(H)
        ]
        hbase = sorted(range(H), key=key.__getitem__)
        # equal keys mean equal colors, so a discrete coloring has no ties
        ties = _runs([key[h] for h in hbase]) if nh < H else ()
        for horder in _arrangements(hbase, ties):
            for i, h in enumerate(horder):
                hpos[h] = i
            enc_inv = tuple([hpos[inv[h]] for h in horder])
            if best_inv is not None and enc_inv > best_inv:
                continue
            enc = (
                vdesc,
                enc_inv,
                tuple([leg_label[h] for h in horder]),
                tuple([dec_block[h] for h in horder]),
                tuple([mark[h] for h in horder]),
            )
            if enc_inv == best_inv:
                if enc > best:
                    continue
                if enc == best:
                    orders.append(horder)
                    continue
            best, best_inv = enc, enc_inv
            orders = [horder]
    return best, orders


def _runs(values):
    """The (start, stop) slices of the runs of two or more equal adjacent
    values."""
    out = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            if i - start > 1:
                out.append((start, i))
            start = i
    return out


def _arrangements(items, slices):
    """Every reordering of the list ``items`` that permutes each of the
    disjoint ``slices`` within itself, in the order of ``product`` over
    their ``permutations``; without slices, ``items`` itself."""
    if not slices:
        yield items
        return
    for combo in product(*(permutations(items[a:b]) for a, b in slices)):
        out = list(items)
        for (a, b), perm in zip(slices, combo):
            out[a:b] = perm
        yield out


def relabel_legs(graph: DecoratedGraph, mapping: dict) -> DecoratedGraph:
    """Relabel the positive leg labels through ``mapping`` (label 0, the
    root of a rooted tree, is never moved)."""
    leg_label = tuple(
        mapping.get(l, l) if l >= 1 else l for l in graph.leg_label
    )
    return DecoratedGraph(
        graph.vertex_of,
        graph.inv,
        graph.genus,
        leg_label,
        graph.dec_index,
        graph.dec_block,
        graph.mark,
    )


def permute_half_edges(graph: DecoratedGraph, hperm, vperm) -> DecoratedGraph:
    """Rebuild the graph with half-edge h renamed hperm[h] and vertex v
    renamed vperm[v]; used to test relabeling invariance."""
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


# -- enumeration ----------------------------------------------------------


def _ordered_set_partitions(items, sizes):
    items = tuple(items)
    if not sizes:
        yield ()
        return
    for blk in combinations(items, sizes[0]):
        rest = tuple(x for x in items if x not in blk)
        for tail in _ordered_set_partitions(rest, sizes[1:]):
            yield (blk,) + tail


def _sums(choices, total):
    """Every tuple t with t[i] drawn from the ascending sequence
    ``choices[i]`` and sum(t) == total, in lexicographic order.  A prefix
    is cut as soon as the rest of the total leaves the range between the
    least and the greatest sum of the remaining choices."""
    if not all(choices):
        return
    k = len(choices)
    least = [sum(c[0] for c in choices[i:]) for i in range(k + 1)]
    greatest = [sum(c[-1] for c in choices[i:]) for i in range(k + 1)]

    def rec(i, rest):
        if i == k:
            if rest == 0:
                yield ()
            return
        for x in choices[i]:
            if rest - x < least[i + 1]:
                break
            if rest - x <= greatest[i + 1]:
                for tail in rec(i + 1, rest - x):
                    yield (x,) + tail

    yield from rec(0, total)


def _perfect_matchings(ports):
    if not ports:
        yield ()
        return
    a = ports[0]
    rest = ports[1:]
    for i in range(len(rest)):
        b = rest[i]
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _perfect_matchings(remaining):
            yield ((a, b),) + sub


def _insert(census, canon, value, budget):
    if canon not in census:
        if len(census) >= budget.max_classes:
            raise BudgetExceededError(
                f"census exceeds class budget {budget.max_classes}"
            )
        census[canon] = value


# -- graph assembly: both enumerators build their graphs here -------------


def _layout(valences, budget: Budget):
    """Half-edge numbering of a vertex layout: vertex v owns the half-edges
    offsets[v], ..., offsets[v] + valences[v] - 1.  Returns (offsets,
    vertex_of) once the half-edge count is checked against the budget."""
    H = sum(valences)
    if H > budget.max_half_edges:
        raise BudgetExceededError(f"{H} half-edges exceed budget {budget.max_half_edges}")
    offsets = []
    vertex_of = []
    for v, m in enumerate(valences):
        offsets.append(len(vertex_of))
        vertex_of.extend([v] * m)
    return offsets, vertex_of


def _decorations(summands, offsets, valences):
    """Every decoration of a layout as (dec_index, dec_block) pairs, where
    ``summands[v]`` lists the module's summands at vertex v."""
    per_vertex = []
    for v, lams in enumerate(summands):
        ports = tuple(range(offsets[v], offsets[v] + valences[v]))
        per_vertex.append(
            [
                (idx, blocks)
                for idx, lam in enumerate(lams)
                for blocks in _ordered_set_partitions(ports, lam)
            ]
        )
    out = []
    for combo in product(*per_vertex):
        dec_block = [0] * sum(valences)
        for _, blocks in combo:
            for j, blk in enumerate(blocks):
                for h in blk:
                    dec_block[h] = j
        out.append((tuple(idx for idx, _ in combo), dec_block))
    return out


def _layout_graphs(vertex_of, genus, decorations, leg_starts, assigns, pairings, mark=None):
    """Every graph on one layout, nested by leg assignment, edge set and
    decoration: vertex v's labels ``assign[v]`` go on its half-edges from
    ``leg_starts[v]`` on, and each pair of half-edges is an edge."""
    H = len(vertex_of)
    for assign in assigns:
        leg_label = [-1] * H
        for start, labels in zip(leg_starts, assign):
            leg_label[start : start + len(labels)] = labels
        for pairs in pairings:
            inv = list(range(H))
            for a, b in pairs:
                inv[a] = b
                inv[b] = a
            for dec_index, dec_block in decorations:
                yield DecoratedGraph(vertex_of, inv, genus, leg_label, dec_index, dec_block, mark)


def _necklace_graphs(spec: ModuleSpec, n: int, oriented: bool, budget: Budget, labeled: bool):
    """Necklaces: every vertex genus 0 and on the single cycle, legs
    attached directly to cycle vertices.

    Layouts place k vertices at cycle positions; at each position, port 0
    joins the previous position and port 1 the next, so every class is hit
    (possibly several times, removed by canonical deduplication).  Oriented
    necklaces keep the prev/next port marks as part of the structure, so
    only rotations survive as isomorphisms.  Labeled necklaces carry the
    legs 1..n; unlabeled ones give every leg the label 1, so each layout
    yields one graph per decoration.

    Unlabeled necklaces are laid out up to symmetry of the cycle: only a
    composition that is the least of its rotations (oriented), or of its
    rotations and reversals (unordered), is laid out.  A rotation is an
    isomorphism of layouts, and so is a reversal once ports 0 and 1 swap
    at every vertex, which maps the decorations of a vertex onto
    themselves.  The least composition comes first in the enumeration, so
    every class still meets the same first graph.  The labeled layouts
    keep every rotation, which the pinning of label 1 relies on.
    """
    by_legcount = {m - 2: lams for m, lams in spec.genus0.items() if lams}
    allowed = tuple(sorted(lc for lc in by_legcount if lc >= 1))
    for k in range(1, n + 1):
        for comp in _sums((allowed,) * k, n):
            if not labeled and not _least_up_to_symmetry(comp, oriented):
                continue
            valences = [lc + 2 for lc in comp]
            offsets, vertex_of = _layout(valences, budget)
            mark = None
            if oriented:
                mark = [MARK_NONE] * len(vertex_of)
                for base in offsets:
                    mark[base] = MARK_PREV
                    mark[base + 1] = MARK_NEXT
            if labeled:
                # any layout can be rotated so that the vertex carrying leg 1
                # sits at position 0, and the rotated composition is also
                # enumerated; pinning label 1 there only removes duplicates
                assigns = (a for a in _ordered_set_partitions(range(1, n + 1), comp) if 1 in a[0])
            else:
                assigns = (tuple((1,) * lc for lc in comp),)
            cycle = tuple((offsets[j] + 1, offsets[(j + 1) % k]) for j in range(k))
            decorations = _decorations([by_legcount[lc] for lc in comp], offsets, valences)
            leg_starts = [base + 2 for base in offsets]
            yield from _layout_graphs(
                vertex_of, (0,) * k, decorations, leg_starts, assigns, (cycle,), mark
            )


def _least_up_to_symmetry(comp, oriented: bool) -> bool:
    """Whether the cyclic sequence ``comp`` is the least of its rotations,
    and unless ``oriented`` also of the rotations of its reversal."""
    shapes = (comp,) if oriented else (comp, comp[::-1])
    return all(comp <= s[i:] + s[:i] for s in shapes for i in range(len(s)))


def _necklace_census(spec: ModuleSpec, n: int, oriented: bool, budget: Budget):
    census: dict = {}
    for graph in _necklace_graphs(spec, n, oriented, budget, labeled=True):
        _insert(census, canonical_form(graph), graph, budget)
    return dict(sorted(census.items()))


def _vertex_shapes(prof0, prof1, V, total, uses_g1):
    """The (genus, valence) layouts of V vertices with valences summing to
    ``total``: the genus-1 vertex first when ``uses_g1``, then genus-0
    valences in non-decreasing order."""
    head = (prof1,) if uses_g1 else ()
    g = len(head)
    genus = (1,) * g + (0,) * (V - g)
    for valences in _sums(head + (prof0,) * (V - g), total):
        rest = valences[g:]
        if all(a <= b for a, b in zip(rest, rest[1:])):
            yield tuple(zip(genus, valences))


def _matching_census(spec: ModuleSpec, leg_labels, total_genus_one: bool, budget: Budget):
    """Connected decorated graphs built from raw perfect matchings of
    internal ports.

    ``total_genus_one`` selects graphs of total genus one (either one
    genus-1 vertex on a tree, or all genus 0 with one cycle); otherwise
    genus-0 trees (the rooted-tree family, whose leg labels include 0).
    """
    census: dict = {}
    nlegs = len(leg_labels)
    prof0 = tuple(sorted(m for m, lams in spec.genus0.items() if lams))
    prof1 = tuple(sorted(m for m, lams in spec.genus1.items() if lams))
    cases = [(True, 0), (False, 1)] if total_genus_one else [(False, 0)]
    for uses_g1, b1 in cases:
        if uses_g1 and not prof1:
            continue
        if not uses_g1 and not prof0:
            continue
        V = 1
        while True:
            # a connected graph on V vertices with E = V - 1 + b1 edges has
            # first Betti number b1
            E = V - 1 + b1
            need = 2 * E + nlegs
            min_need = 3 * (V - 1) + prof1[0] if uses_g1 else 3 * V
            if min_need > need:
                break
            for shape in _vertex_shapes(prof0, prof1, V, need, uses_g1):
                _fill_shape(spec, shape, E, leg_labels, census, budget)
            V += 1
    return dict(sorted(census.items()))


def _fill_shape(spec, shape, E, leg_labels, census, budget):
    """Insert every connected graph on the vertex layout ``shape`` with E
    edges, by internal-port split, leg assignment, matching and decoration.

    Two consecutive vertices are twins when they share genus, valence and
    internal-port count and carry at least one leg; only leg assignments
    whose label sets increase along every twin pair are laid out.
    Swapping two twins together with their ports maps every (assignment,
    connected matching, decoration) triple to another one whose graph is
    isomorphic, and twins carry disjoint non-empty label sets, so each
    orbit under these swaps keeps exactly its one sorted assignment.
    """
    V = len(shape)
    genus = tuple(g for g, _ in shape)
    valences = [m for _, m in shape]
    offsets, vertex_of = _layout(valences, budget)
    decorations = _decorations(
        [spec.genus0[m] if g == 0 else spec.genus1[m] for g, m in shape], offsets, valences
    )
    min_internal = 1 if V > 1 else 0
    for int_counts in _sums([range(min_internal, m + 1) for m in valences], 2 * E):
        internal_ports = tuple(
            h for v in range(V) for h in range(offsets[v], offsets[v] + int_counts[v])
        )
        connected = [
            pairs
            for pairs in _perfect_matchings(internal_ports)
            if _component_count(V, pairs, vertex_of) == 1
        ]
        if not connected:
            continue
        leg_counts = tuple(m - i for m, i in zip(valences, int_counts))
        leg_starts = [base + i for base, i in zip(offsets, int_counts)]
        twins = [
            v
            for v in range(V - 1)
            if leg_counts[v] and shape[v] == shape[v + 1] and int_counts[v] == int_counts[v + 1]
        ]
        assigns = (
            a
            for a in _ordered_set_partitions(leg_labels, leg_counts)
            if all(a[v] < a[v + 1] for v in twins)
        )
        for graph in _layout_graphs(vertex_of, genus, decorations, leg_starts, assigns, connected):
            _insert(census, canonical_form(graph), graph, budget)


def _check_leg_count(n, budget: Budget):
    if not isinstance(n, int) or n < 1:
        raise ValueError("enumeration needs at least one labeled leg")
    if n > budget.max_legs:
        raise BudgetExceededError(f"{n} legs exceed budget {budget.max_legs}")


def enumerate_decorated(spec: ModuleSpec, family: str, n: int, budget: Budget | None = None):
    """All isomorphism classes in the family with legs labeled 1..n (rooted
    trees carry an extra distinguished leg 0).

    Returns a new dict from canonical form to a representative graph,
    ordered by canonical form.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    _check_leg_count(n, budget)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "genus1-stable":
        return _matching_census(spec, tuple(range(1, n + 1)), True, budget)
    if family == "rooted-tree":
        return _matching_census(spec, tuple(range(0, n + 1)), False, budget)
    return _necklace_census(spec, n, family == "oriented-necklace", budget)


# -- characters -----------------------------------------------------------


def _perm_of_type(lam, n):
    """A permutation of {1..n} with the given cycle type, cycles on
    consecutive integers, as a mapping dict."""
    mapping = {}
    start = 1
    for part in lam:
        block = list(range(start, start + part))
        for i, x in enumerate(block):
            mapping[x] = block[(i + 1) % part]
        start += part
    return mapping


def _vertex_profile(graph: DecoratedGraph, mapping=None):
    """Multiset of (genus, valence, summand, leg-label set) over vertices,
    optionally with labels relabeled; an isomorphism invariant."""
    vhe = graph.vertex_half_edges()
    prof = []
    for v, hs in enumerate(vhe):
        labels = [graph.leg_label[h] for h in hs if graph.leg_label[h] >= 0]
        if mapping is not None:
            labels = [mapping.get(l, l) for l in labels]
        prof.append((graph.genus[v], len(hs), graph.dec_index[v], tuple(sorted(labels))))
    prof.sort()
    return tuple(prof)


def _burnside_char(n: int, truncation: int, points: int, fixed) -> SymFunc:
    """Character of a set of ``points`` permuted by the permutations of
    1..n: the Burnside average (1/n!) sum_pi Fix(pi) p_{type(pi)},
    evaluated once per cycle type lam with the conjugacy-class weight
    1/z_lam.  ``fixed(mapping)`` counts the points that the permutation
    ``mapping`` of a non-identity type fixes; the identity fixes them all."""
    terms = {}
    for lam in partitions_of(n):
        fix = points if lam == (1,) * n else fixed(_perm_of_type(lam, n))
        if fix:
            terms[lam] = Fraction(fix, z_of(lam))
    return SymFunc(truncation, terms)


def char_of_census(census, n: int, truncation: int) -> SymFunc:
    """Character of the census as a module over permutations of the legs
    1..n, its classes being the points (``_burnside_char``)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("censuses carry legs 1..n with n >= 1")
    if n > truncation:
        raise ValueError(f"degree {n} exceeds truncation {truncation}")
    entries = [(canon, graph, _vertex_profile(graph)) for canon, graph in census.items()]

    def fixed(mapping):
        # relabeling can fix a class only if it stabilizes the vertex
        # profile; the cheap test prunes most classes
        return sum(
            _vertex_profile(graph, mapping) == profile
            and canonical_form(relabel_legs(graph, mapping)) == canon
            for canon, graph, profile in entries
        )

    return _burnside_char(n, truncation, len(census), fixed)


def _unlabeled_necklace_classes(spec: ModuleSpec, n: int, oriented: bool, budget: Budget):
    """Leg-unlabeled necklace classes with n legs, as a dict from canonical
    form to (representative, optimal half-edge orders); the class budget
    bounds the classes held."""
    _check_leg_count(n, budget)
    classes: dict = {}
    for graph in _necklace_graphs(spec, n, oriented, budget, labeled=False):
        canon, orders = _canonical_search(graph)
        _insert(classes, canon, (graph, orders), budget)
    return classes


def _leg_actions(graph: DecoratedGraph, orders):
    """One permutation of the legs per automorphism, the legs numbered
    1, 2, ... in the first optimal order; an automorphism sends first[i]
    to order[i]."""
    first = orders[0]
    legs = [h for h in first if graph.inv[h] == h]
    leg_number = {h: i for i, h in enumerate(legs, start=1)}
    actions = []
    for order in orders:
        image = dict(zip(first, order))
        actions.append(Perm(leg_number[image[h]] for h in legs))
    return actions


def _necklace_aut_char(spec: ModuleSpec, n: int, oriented: bool, truncation: int, budget: Budget) -> SymFunc:
    """Character of the labeled necklace census from its leg-unlabeled
    classes: sum over classes U of (1/|Aut U|) sum_{a in Aut U} p_{type(a)},
    where type(a) is the cycle type of a on the legs.

    A class U whose automorphisms act on its legs through the group S
    stands for the n!/|S| labeled classes over it, and (1/|Aut U|) sum_a
    p_{type(a)} = (1/|S|) sum_{s in S} p_{type(s)} is their Burnside
    average.
    """
    if n > truncation:
        raise ValueError(f"degree {n} exceeds truncation {truncation}")
    out = SymFunc.zero(truncation)
    for graph, orders in _unlabeled_necklace_classes(spec, n, oriented, budget).values():
        out = out + ind_trivial_char(_leg_actions(graph, orders), truncation)
    return out


def mv_char(spec: ModuleSpec, n: int, truncation: int, budget: Budget | None = None) -> SymFunc:
    """Character of all decorated stable graphs of total genus one with n
    legs (including the bare genus-1 corolla), by Burnside averaging over
    the labeled census."""
    return char_of_census(enumerate_decorated(spec, "genus1-stable", n, budget), n, truncation)


def necklace_char_oracle(spec: ModuleSpec, n: int, truncation: int, budget: Budget | None = None) -> SymFunc:
    """Character of the unordered necklaces with n legs, from the
    automorphism groups of the leg-unlabeled classes."""
    return _necklace_aut_char(spec, n, False, truncation, budget or DEFAULT_BUDGET)


def cyclic_necklace_char_oracle(spec: ModuleSpec, n: int, truncation: int, budget: Budget | None = None) -> SymFunc:
    """Character of the cyclically oriented necklaces with n legs, from the
    automorphism groups of the leg-unlabeled classes."""
    return _necklace_aut_char(spec, n, True, truncation, budget or DEFAULT_BUDGET)


def tree_char_oracle(spec: ModuleSpec, n: int, truncation: int, budget: Budget | None = None) -> SymFunc:
    """Character of rooted genus-0 trees (root leg 0 distinguished) as a
    module over permutations of the legs 1..n, by Burnside averaging over
    the labeled census."""
    return char_of_census(enumerate_decorated(spec, "rooted-tree", n, budget), n, truncation)


def hom_char(action: str, glam, truncation: int) -> SymFunc:
    """Orbit-counting oracle for pairing a two-point group module against a
    Young permutation module with a marked pair of letters.

    ``action`` names the module of the order-two group: "trivial" (one
    fixed point) or "regular" (two swapped points).  ``glam`` is the Young
    module's partition of m; its basis is realized as ordered set
    partitions of {1..m}, with letters m-1 and m marked.  The swap acts
    simultaneously on the module and on the marked letters; the result is
    the character of the orbit set under permutations of letters 1..m-2.
    """
    glam = _validate_partition(glam)
    m = sum(glam)
    if m < 2:
        raise ValueError("the Young module must have at least two letters")
    n = m - 2
    if action == "trivial":
        points = (0,)
        act = {0: 0}
    elif action == "regular":
        points = (0, 1)
        act = {0: 1, 1: 0}
    else:
        raise ValueError(f"unknown action {action!r}")
    bases = list(_ordered_set_partitions(tuple(range(1, m + 1)), glam))
    swap = {m - 1: m, m: m - 1}

    def apply_letters(b, mapping):
        return tuple(tuple(sorted(mapping.get(x, x) for x in blk)) for blk in b)

    def orbit_key(el):
        a, b = el
        return min(el, (act[a], apply_letters(b, swap)))

    orbits = sorted({orbit_key((a, b)) for a in points for b in bases})

    def fixed(mapping):
        return sum(orbit_key((a, apply_letters(b, mapping))) == (a, b) for a, b in orbits)

    return _burnside_char(n, truncation, len(orbits), fixed)


# -- census export --------------------------------------------------------


def canon_to_json_obj(canon) -> dict:
    """Deterministic JSON form of a canonical graph encoding."""
    vdesc, invenc, legenc, blockenc, markenc = canon
    return {
        "genus": [g for g, _, _ in vdesc],
        "valence": [m for _, m, _ in vdesc],
        "decorationIndex": [i for _, _, i in vdesc],
        "involution": list(invenc),
        "legLabels": list(legenc),
        "decorationBlock": list(blockenc),
        "marks": list(markenc),
    }
