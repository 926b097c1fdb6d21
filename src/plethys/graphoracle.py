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
symmetry.  The optimal labelings of that search differ exactly by
automorphisms, so the same search also yields each class's automorphism
group.

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
    order = {key: i for i, key in enumerate(sorted(set(items)))}
    return [order[x] for x in items]


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


def _compositions(total, k, allowed):
    if k == 0:
        if total == 0:
            yield ()
        return
    if not allowed:
        return
    lo, hi = allowed[0], allowed[-1]
    for first in allowed:
        rem = total - first
        if rem < (k - 1) * lo or rem > (k - 1) * hi:
            continue
        for rest in _compositions(rem, k - 1, allowed):
            yield (first,) + rest


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
    """
    by_legcount = {m - 2: lams for m, lams in spec.genus0.items() if lams}
    allowed = tuple(sorted(lc for lc in by_legcount if lc >= 1))
    for k in range(1, n + 1):
        for comp in _compositions(n, k, allowed):
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


def _necklace_census(spec: ModuleSpec, n: int, oriented: bool, budget: Budget):
    census: dict = {}
    for graph in _necklace_graphs(spec, n, oriented, budget, labeled=True):
        _insert(census, canonical_form(graph), graph, budget)
    return dict(sorted(census.items()))


def _multisets(values, count, total):
    if count == 0:
        if total == 0:
            yield ()
        return
    for i, v in enumerate(values):
        if v > total:
            break
        for rest in _multisets(values[i:], count - 1, total - v):
            yield (v,) + rest


def _vertex_shapes(prof0, prof1, V, total, uses_g1):
    if uses_g1:
        for m1 in prof1:
            for ms in _multisets(prof0, V - 1, total - m1):
                yield ((1, m1),) + tuple((0, m) for m in ms)
    else:
        for ms in _multisets(prof0, V, total):
            yield tuple((0, m) for m in ms)


def _int_splits(valences, total, lo):
    """Per-vertex internal-port counts between lo and the valence, summing
    to ``total``."""
    k = len(valences)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + valences[i]

    def rec(idx, remaining):
        if idx == k:
            if remaining == 0:
                yield ()
            return
        rest = k - idx - 1
        hi = min(valences[idx], remaining - lo * rest)
        for i in range(lo, hi + 1):
            if remaining - i > suffix[idx + 1]:
                continue
            for tail in rec(idx + 1, remaining - i):
                yield (i,) + tail

    yield from rec(0, total)


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
    V = len(shape)
    genus = tuple(g for g, _ in shape)
    valences = [m for _, m in shape]
    offsets, vertex_of = _layout(valences, budget)
    decorations = _decorations(
        [spec.genus0[m] if g == 0 else spec.genus1[m] for g, m in shape], offsets, valences
    )
    min_internal = 1 if V > 1 else 0
    for int_counts in _int_splits(valences, 2 * E, min_internal):
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
        assigns = _ordered_set_partitions(leg_labels, leg_counts)
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


def char_of_census(census, n: int, truncation: int) -> SymFunc:
    """Character of the census as a module over permutations of the legs
    1..n: the Burnside average (1/n!) sum_pi Fix(pi) p_{type(pi)},
    evaluated once per cycle type with the conjugacy-class weight."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("censuses carry legs 1..n with n >= 1")
    if n > truncation:
        raise ValueError(f"degree {n} exceeds truncation {truncation}")
    entries = [(canon, graph, _vertex_profile(graph)) for canon, graph in census.items()]
    terms = {}
    for lam in partitions_of(n):
        if lam == (1,) * n:
            fix = len(census)
        else:
            mapping = _perm_of_type(lam, n)
            fix = 0
            for canon, graph, profile in entries:
                # relabeling can fix the class only if it stabilizes the
                # vertex profile; the cheap test prunes most classes
                if _vertex_profile(graph, mapping) != profile:
                    continue
                if canonical_form(relabel_legs(graph, mapping)) == canon:
                    fix += 1
        if fix:
            terms[lam] = Fraction(fix, z_of(lam))
    return SymFunc(truncation, terms)


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
    if n == 0:
        return SymFunc(truncation, {(): Fraction(len(orbits))})
    terms = {}
    for lam in partitions_of(n):
        mapping = _perm_of_type(lam, n)
        fix = 0
        for a, b in orbits:
            if orbit_key((a, apply_letters(b, mapping))) == (a, b):
                fix += 1
        if fix:
            terms[lam] = Fraction(fix, z_of(lam))
    return SymFunc(truncation, terms)


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
