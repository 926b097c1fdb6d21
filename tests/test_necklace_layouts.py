"""The necklace layouts against a generator that pins label 1.

``_pinned_necklace_graphs`` below lays out every composition of the legs
around the cycle, every rotation included, and keeps only the leg
assignments that put label 1 on the first vertex.  The program lays out
only the compositions that are least up to the cycle's symmetry, with
every assignment, and its labeled census must hold exactly the same
classes.  The raw graph counts pin the work of both necklace censuses.

The tier-1 run compares the censuses through five legs on the standard
and held-out modules and through four on the Young-heavy one.  Run as a
script, this file compares the two five-leg censuses of the Young-heavy
module (about 240,000 raw graphs each)::

    python tests/test_necklace_layouts.py
"""

from __future__ import annotations

from itertools import combinations

import pytest
from test_twin_rule import MODULES, STD

from plethys import graphoracle as go

NECKLACE_FAMILIES = ("necklace", "oriented-necklace")


# -- references, not used by the program --------------------------------------


def _distinct_ordered_set_partitions(items, sizes):
    """The ordered set partitions of distinct ``items``: each block is a
    ``combinations`` tuple, and the rest is what the block leaves out."""
    items = tuple(items)
    if not sizes:
        yield ()
        return
    for blk in combinations(items, sizes[0]):
        rest = tuple(x for x in items if x not in blk)
        for tail in _distinct_ordered_set_partitions(rest, sizes[1:]):
            yield (blk,) + tail


def _pinned_necklace_graphs(spec, n, oriented):
    by_legcount = {m - 2: lams for m, lams in spec.genus0.items() if lams}
    allowed = tuple(sorted(lc for lc in by_legcount if lc >= 1))
    for k in range(1, n + 1):
        for comp in go._sums((allowed,) * k, n):
            valences = [lc + 2 for lc in comp]
            offsets, vertex_of = go._layout(valences)
            mark = None
            if oriented:
                mark = [go.MARK_NONE] * len(vertex_of)
                for base in offsets:
                    mark[base] = go.MARK_PREV
                    mark[base + 1] = go.MARK_NEXT
            # any layout can be rotated so that the vertex carrying leg 1
            # sits at position 0, and the rotated composition is also
            # enumerated; pinning label 1 there only removes duplicates
            assigns = (
                a for a in _distinct_ordered_set_partitions(range(1, n + 1), comp) if 1 in a[0]
            )
            cycle = tuple((offsets[j] + 1, offsets[(j + 1) % k]) for j in range(k))
            decorations = go._decorations([by_legcount[lc] for lc in comp], offsets, valences)
            leg_starts = [base + 2 for base in offsets]
            yield from go._layout_graphs(
                vertex_of, (0,) * k, decorations, leg_starts, assigns, (cycle,), mark
            )


# -- the comparisons ----------------------------------------------------------


def same_classes(module, family, n):
    spec = MODULES[module]
    pinned = _pinned_necklace_graphs(spec, n, family == "oriented-necklace")
    return list(go.enumerate_decorated(spec, family, n)) == sorted(
        {go.canonical_form(g) for g in pinned}
    )


CASES = [
    (module, family, n)
    for module in MODULES
    for family in NECKLACE_FAMILIES
    for n in range(1, 5 if module == "young" else 6)
]


@pytest.mark.parametrize("module, family, n", CASES)
def test_least_layouts_keep_every_labeled_class(module, family, n):
    assert same_classes(module, family, n)


@pytest.mark.parametrize(
    "items, sizes",
    [
        ((1, 2, 3, 4, 5), (2, 1, 2)),
        ((1, 2, 3, 4, 5, 6), (1, 3, 2)),
        (tuple(range(0, 5)), (5,)),
        ((1, 2, 3), (1, 1, 1)),
        ((), ()),
    ],
    ids=["two-one-two", "one-three-two", "one-block", "singletons", "empty"],
)
def test_distinct_items_follow_the_reference_order(items, sizes):
    assert list(go._ordered_set_partitions(items, sizes)) == list(
        _distinct_ordered_set_partitions(items, sizes)
    )


@pytest.mark.parametrize(
    "items, sizes",
    [
        ((1,) * 5, (2, 1, 2)),
        ((1, 1, 2, 2, 3), (2, 1, 2)),
        ((1, 1, 1, 2), (1, 2, 1)),
        ((0, 1, 1, 1, 1, 1), (3, 3)),
    ],
    ids=["all-equal", "pairs", "three-equal", "root-and-equal"],
)
def test_repeated_items_give_each_assignment_once(items, sizes):
    got = list(go._ordered_set_partitions(items, sizes))
    # every assignment of the positions of ``items``, read off as labels
    every = {
        tuple(tuple(items[i] for i in blk) for blk in split)
        for split in _distinct_ordered_set_partitions(range(len(items)), sizes)
    }
    assert len(got) == len(set(got)) == len(every)
    assert set(got) == every


def test_least_layouts_bound_the_raw_graphs():
    # the work of each necklace census on the standard module: (unordered,
    # oriented) raw graphs, before canonical deduplication
    def raw(labels):
        return tuple(sum(1 for _ in go._necklace_graphs(STD, labels, o)) for o in (False, True))

    assert raw((1,) * 6) == (466, 473)
    assert raw((1,) * 8) == (3430, 3501)
    assert raw(tuple(range(1, 6))) == (2105, 2105)


def main() -> None:
    for family in NECKLACE_FAMILIES:
        assert same_classes("young", family, 5), family
        print(f"young {family} n=5: the least layouts keep every class")


if __name__ == "__main__":
    main()
