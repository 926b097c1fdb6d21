"""The labeled Burnside census character, kept as a reference for the
automorphism cycle indices of ``graphoracle``.

``char_of_census`` below is the census character as the program computed
it for genus-one stable graphs and rooted trees before every census
character became a sum of automorphism cycle indices over leg-unlabeled
classes.  It relabels each labeled class once per cycle type of the legs
1..n, screens it with the vertex profile and re-canonicalizes it, and
averages the fixed counts over the cycle types.  It shares the labeled
census and the canonical form with the program path but not the
automorphism groups, and the tests compare the two on every family.
The Burnside average over cycle types, ``_burnside_char``, has no other
caller and lives here with it.
"""

from __future__ import annotations

from fractions import Fraction

from plethys.graphoracle import DecoratedGraph, canonical_form
from plethys.symfunc import SymFunc, partitions_of, z_of

from graph_helpers import relabel_legs


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
