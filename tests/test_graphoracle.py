import json
import random
from itertools import combinations_with_replacement, product
from fractions import Fraction

import pytest

from plethys import graphoracle as go
from plethys import verify
from plethys.graphoracle import (
    Budget,
    BudgetExceededError,
    DecoratedGraph,
    betti1,
    canon_to_json_obj,
    canonical_form,
    char_of_census,
    enumerate_decorated,
    hom_char,
    is_connected,
    is_necklace,
    permute_half_edges,
    relabel_legs,
)
from plethys.series import ModuleSpec
from plethys.symfunc import SymFunc, h_gen, h_lambda
from plethys.wreath import plethysm_deg1

TINY = ModuleSpec(genus0={3: [(3,)]})
STD = ModuleSpec.standard()


def corolla(genus, n_legs, labels=None):
    """Single vertex with only legs."""
    labels = labels or list(range(1, n_legs + 1))
    H = n_legs
    return DecoratedGraph(
        vertex_of=[0] * H,
        inv=list(range(H)),
        genus=[genus],
        leg_label=labels,
        dec_index=[0],
        dec_block=[0] * H,
    )


def loop_vertex(extra_legs):
    """Genus-0 vertex with one self-loop plus labeled legs."""
    H = 2 + extra_legs
    inv = list(range(H))
    inv[0], inv[1] = 1, 0
    return DecoratedGraph(
        vertex_of=[0] * H,
        inv=inv,
        genus=[0],
        leg_label=[-1, -1] + list(range(1, extra_legs + 1)),
        dec_index=[0],
        dec_block=[0] * H,
    )


def cycle_graph(k, legs_per_vertex=1):
    """k genus-0 vertices in a cycle, each with labeled legs."""
    m = 2 + legs_per_vertex
    H = k * m
    vertex_of = []
    inv = list(range(H))
    leg = [-1] * H
    label = 1
    for j in range(k):
        base = j * m
        vertex_of.extend([j] * m)
        nxt = ((j + 1) % k) * m
        inv[base + 1] = nxt
        inv[nxt] = base + 1
        for t in range(legs_per_vertex):
            leg[base + 2 + t] = label
            label += 1
    return DecoratedGraph(
        vertex_of=vertex_of,
        inv=inv,
        genus=[0] * k,
        leg_label=leg,
        dec_index=[0] * k,
        dec_block=[0] * H,
    )


SUMS_CHOICES = [
    (),  # k = 0: only the empty tuple, and only for total 0
    ((),),
    ((1, 2), ()),
    ((), (1, 2)),
    ((0, 1, 2),),
    ((1, 2, 3),) * 3,
    ((3, 4, 5, 6),) * 4,
    ((1, 2, 4), (3, 4, 5, 6), (3, 4, 5, 6)),
    (range(1, 4), range(0, 6), range(1, 2), range(0, 3)),
    (range(2, 2), range(0, 3)),
]


@pytest.mark.parametrize("choices", SUMS_CHOICES, ids=repr)
def test_sums_against_brute_force(choices):
    # totals from below the least reachable sum to above the greatest
    top = sum(max(c, default=0) for c in choices)
    for total in range(-2, top + 3):
        want = [t for t in product(*choices) if sum(t) == total]
        assert list(go._sums(choices, total)) == want


@pytest.mark.parametrize("prof0", [(), (3,), (3, 4, 5, 6), (4, 6)])
@pytest.mark.parametrize("uses_g1", [False, True])
def test_vertex_shapes_against_brute_force(prof0, uses_g1):
    # the genus-1 vertex first, then genus-0 valences non-decreasing
    prof1 = (1, 2, 3, 4)
    for V in range(1, 5):
        heads = [(m,) for m in prof1] if uses_g1 else [()]
        for total in range(-1, 6 * V + 3):
            want = [
                tuple(zip((1,) * len(head) + (0,) * (V - len(head)), head + rest))
                for head in heads
                for rest in combinations_with_replacement(prof0, V - len(head))
                if sum(head + rest) == total
            ]
            assert list(go._vertex_shapes(prof0, prof1, V, total, uses_g1)) == want


def test_betti1_examples():
    assert betti1(corolla(1, 3)) == 0
    assert betti1(loop_vertex(1)) == 1
    assert betti1(cycle_graph(2)) == 1  # two vertices, two parallel edges


def test_is_necklace_examples():
    assert is_necklace(cycle_graph(3)) is True
    assert is_necklace(loop_vertex(1)) is True
    # 2-cycle on vertices 0, 1 plus a third vertex hanging off vertex 0 by a
    # separating bridge (half-edges 2 and 6)
    hang = DecoratedGraph(
        vertex_of=[0, 0, 0, 1, 1, 1, 2, 2, 2],
        inv=[4, 3, 6, 1, 0, 5, 2, 7, 8],
        genus=[0, 0, 0],
        leg_label=[-1, -1, -1, -1, -1, 1, -1, 2, 3],
        dec_index=[0, 0, 0],
        dec_block=[0] * 9,
    )
    hang.check()
    assert betti1(hang) == 1
    assert is_necklace(hang) is False


def test_is_necklace_rejects_disconnected():
    two = DecoratedGraph(
        vertex_of=[0, 0, 0, 1, 1, 1],
        inv=[0, 1, 2, 3, 4, 5],
        genus=[0, 0],
        leg_label=[1, 2, 3, 4, 5, 6],
        dec_index=[0, 0],
        dec_block=[0] * 6,
    )
    assert not is_connected(two)
    with pytest.raises(ValueError):
        is_necklace(two)


def test_canonical_form_relabeling_invariance():
    rng = random.Random(71)
    censuses = [
        enumerate_decorated(STD, "necklace", 3),
        enumerate_decorated(STD, "genus1-stable", 2),
        enumerate_decorated(STD, "oriented-necklace", 2),
        enumerate_decorated(TINY, "rooted-tree", 3),
    ]
    graphs = [g for census in censuses for g in census.values()]
    for _ in range(100):
        g = rng.choice(graphs)
        H, V = g.half_edge_count(), g.vertex_count()
        hperm = list(range(H))
        vperm = list(range(V))
        rng.shuffle(hperm)
        rng.shuffle(vperm)
        shuffled = permute_half_edges(g, hperm, vperm)
        shuffled.check()
        assert canonical_form(shuffled) == canonical_form(g)


def test_canonical_form_distinguishes_leg_labels():
    a = corolla(1, 2, labels=[1, 2])
    b = relabel_legs(a, {1: 2, 2: 1})
    assert canonical_form(a) == canonical_form(b)  # swap is an automorphism here
    g = enumerate_decorated(STD, "necklace", 2)
    # classes from the [2,2]-decorated loop vertex where swapping legs moves
    # between blocks: the relabeled canonical form must differ
    moved = 0
    for graph in g.values():
        relabeled = relabel_legs(graph, {1: 2, 2: 1})
        if canonical_form(relabeled) != canonical_form(graph):
            moved += 1
    assert moved == 2  # computed by hand: the two asymmetric [2,2] classes


def test_enumerate_examples():
    assert len(enumerate_decorated(TINY, "necklace", 1)) == 1
    assert len(enumerate_decorated(TINY, "rooted-tree", 2)) == 1
    assert len(enumerate_decorated(TINY, "oriented-necklace", 1)) == 1
    with pytest.raises(ValueError):
        enumerate_decorated(TINY, "genus1-stable", 0)
    with pytest.raises(ValueError):
        enumerate_decorated(TINY, "bogus-family", 1)


def test_enumerate_census_counts_match_hand_enumeration():
    # standard module, two legs: 5 loop-vertex classes + 1 two-vertex cycle
    assert len(enumerate_decorated(STD, "necklace", 2)) == 6
    # oriented: the four asymmetric [2,2] decorations no longer pair up
    assert len(enumerate_decorated(STD, "oriented-necklace", 2)) == 8
    # genus-one stable graphs with 2 legs (hand count: corolla, 5 loop
    # decorations, 2-cycle, vertex tree on the genus-1 corolla, loop+tree)
    assert len(enumerate_decorated(STD, "genus1-stable", 2)) == 9


def test_enumerated_graphs_are_valid():
    for family in ("necklace", "oriented-necklace", "genus1-stable"):
        census = enumerate_decorated(STD, family, 3)
        for g in census.values():
            g.check()
            assert is_connected(g)
            if family != "genus1-stable":
                assert is_necklace(g)
                assert all(genus == 0 for genus in g.genus)
            else:
                assert sum(g.genus) + betti1(g) == 1
    for g in enumerate_decorated(STD, "rooted-tree", 3).values():
        g.check()
        assert betti1(g) == 0
        assert 0 in g.leg_label


def test_budget_enforcement():
    with pytest.raises(BudgetExceededError):
        enumerate_decorated(STD, "necklace", 6)  # default legs budget is 5
    with pytest.raises(BudgetExceededError):
        enumerate_decorated(STD, "necklace", 4, Budget(max_half_edges=6))
    with pytest.raises(BudgetExceededError):
        enumerate_decorated(STD, "necklace", 4, Budget(max_classes=3))
    # necklace characters enumerate leg-unlabeled classes under the same checks
    N = 6
    with pytest.raises(BudgetExceededError):
        go.necklace_char_oracle(STD, 6, N)
    with pytest.raises(BudgetExceededError):
        go.cyclic_necklace_char_oracle(STD, 4, N, Budget(max_half_edges=6))
    with pytest.raises(BudgetExceededError):
        go.necklace_char_oracle(STD, 4, N, Budget(max_classes=3))
    with pytest.raises(ValueError):
        go.necklace_char_oracle(STD, 0, N)
    with pytest.raises(ValueError):
        go.necklace_char_oracle(STD, 4, 3)


def test_repeated_runs_do_the_same_work(monkeypatch):
    # the oracles keep no state between calls: a second in-process run
    # canonicalizes exactly as many graphs as the first
    search = go._canonical_search
    calls = []

    def counted(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(go, "_canonical_search", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert all(r.passed for r in verify.run_all(max_degree=3))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_sized_budget():
    # up to degree 4 a census fits the defaults; above, a graph with n legs
    # needs up to 3n half-edges and n legs
    assert go.sized_budget() == go.sized_budget(4) == Budget()
    assert go.sized_budget(6) == Budget(max_half_edges=18, max_legs=6)
    # a given limit replaces only the one it names
    assert go.sized_budget(6, max_classes=7) == Budget(max_half_edges=18, max_legs=6, max_classes=7)
    assert go.sized_budget(6, max_half_edges=9) == Budget(max_half_edges=9, max_legs=6)


def test_char_of_census_examples():
    N = 6
    single = enumerate_decorated(TINY, "necklace", 1)
    assert char_of_census(single, 1, N) == SymFunc.p(1, N)
    # a single class stable under the swap has character h_2
    tree2 = enumerate_decorated(TINY, "rooted-tree", 2)
    assert char_of_census(tree2, 2, N) == h_gen(2, N)


def test_char_of_census_swapped_pair():
    # two corolla classes interchanged by the leg swap: character p1^2
    a = corolla(1, 2, labels=[1, 2])
    b = DecoratedGraph(
        vertex_of=[0, 0],
        inv=[0, 1],
        genus=[1],
        leg_label=[1, 2],
        dec_index=[0],
        dec_block=[0, 1],
    )
    bswap = relabel_legs(b, {1: 2, 2: 1})
    census = {canonical_form(g): g for g in (b, bswap)}
    assert len(census) == 2
    got = char_of_census(census, 2, 4)
    assert got == SymFunc(4, {(1, 1): 1})
    # adding the symmetric class contributes h_2
    census[canonical_form(a)] = a
    got = char_of_census(census, 2, 4)
    assert got == SymFunc(4, {(1, 1): Fraction(3, 2), (2,): Fraction(1, 2)})


def test_oracle_chars_hand_values():
    N = 6
    assert go.necklace_char_oracle(TINY, 1, N) == SymFunc.p(1, N)
    assert go.tree_char_oracle(TINY, 2, N) == h_gen(2, N)
    assert go.mv_char(ModuleSpec(genus1={1: [(1,)]}), 1, N) == SymFunc.p(1, N)
    assert go.necklace_char_oracle(STD, 2, N) == SymFunc(
        N, {(1, 1): 3, (2,): 2}
    )
    assert go.cyclic_necklace_char_oracle(STD, 2, N) == SymFunc(
        N, {(1, 1): 4, (2,): 2}
    )
    assert go.mv_char(STD, 2, N) == SymFunc(
        N, {(1, 1): Fraction(9, 2), (2,): Fraction(7, 2)}
    )


def test_oriented_fibers_over_unordered():
    for n in range(1, 5):
        unordered = enumerate_decorated(STD, "necklace", n)
        oriented = enumerate_decorated(STD, "oriented-necklace", n)
        assert len(unordered) <= len(oriented) <= 2 * len(unordered)


def test_necklace_census_inside_genus1_census():
    for n in range(1, 4):
        necklaces = enumerate_decorated(STD, "necklace", n)
        stable = enumerate_decorated(STD, "genus1-stable", n)
        assert set(necklaces).issubset(set(stable))


def test_tree_census_matches_fixed_point():
    from plethys.series import a_series, tree_fixed_point
    from plethys.symfunc import SymFunc as SF

    trivial_mods = ModuleSpec(genus0={n: [(n,)] for n in range(3, 7)})
    for spec in (TINY, trivial_mods, STD):
        working = max(5, spec.max_arity())
        a0 = a_series(spec, 0, working)
        trees = tree_fixed_point(a0) - SF.p(1, working)
        budget = Budget(max_half_edges=3 * working, max_legs=working)
        for n in range(1, 6):
            assert trees.degree_part(n) == go.tree_char_oracle(spec, n, working, budget)


def test_char_coefficients_times_z_are_integers():
    from plethys.symfunc import z_of

    for family in ("necklace", "genus1-stable", "oriented-necklace"):
        for n in range(1, 4):
            char = go.char_of_census(enumerate_decorated(STD, family, n), n, 6)
            for lam, coeff in char.terms():
                assert (coeff * z_of(lam)).denominator == 1


def test_hom_char_against_operator():
    N = 6
    for glam in ((4,), (3, 2)):
        g = h_lambda(glam, N)
        trivial = hom_char("trivial", glam, N)
        regular = hom_char("regular", glam, N)
        assert plethysm_deg1(h_gen(2, N), g) == trivial
        p1 = SymFunc.p(1, N)
        assert plethysm_deg1(p1 * p1, g) == regular
        assert plethysm_deg1(SymFunc.p(2, N), g) == trivial * 2 - regular
    with pytest.raises(ValueError):
        hom_char("bogus", (4,), N)
    with pytest.raises(ValueError):
        hom_char("trivial", (1,), N)


def test_census_export_deterministic():
    census = enumerate_decorated(STD, "necklace", 2)
    lines = [json.dumps(canon_to_json_obj(c)) for c in census]
    again = [json.dumps(canon_to_json_obj(c)) for c in enumerate_decorated(STD, "necklace", 2)]
    assert lines == again
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {
            "genus",
            "valence",
            "decorationIndex",
            "involution",
            "legLabels",
            "decorationBlock",
            "marks",
        }
        H = len(obj["involution"])
        assert sorted(obj["involution"][i] for i in range(H)) == list(range(H))
