"""Permutations, small-subgroup closure and cycle maps.

Groups here are always tiny, so subgroups are represented extensionally as
lists of elements produced by breadth-first closure of a generating set.
That makes the averaged cycle-map sums (the characters of induced trivial
representations) one-line folds over the element list, with exact
rational output.  The hyperoctahedral group S_2 wr S_n is the group of
permutations of the 2n points +-1..+-n commuting with the flip i <-> -i,
so its elements are ``Perm``s of degree 2n, point i + n standing for -i.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .symfunc import Partition, SymFunc, _check_int, _is_int
from .wreath import E_CLASS, T_CLASS, WreathSymFunc


class Perm:
    """A permutation of {1..n}, stored as the tuple of images of 1..n,
    each an ``int`` (not a ``bool`` or a float equal to one)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if not {int}.issuperset(map(type, images)) or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        _check_int(n, "n")
        return cls(range(1, n + 1))

    @classmethod
    def long_cycle(cls, n: int) -> "Perm":
        """The n-cycle sending 1 -> 2 -> ... -> n -> 1."""
        _check_int(n, "n")
        return cls(tuple(range(2, n + 1)) + (1,))

    @classmethod
    def reversal(cls, n: int) -> "Perm":
        """The involution i -> n + 1 - i."""
        _check_int(n, "n")
        return cls(range(n, 0, -1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # function composition: (x*y)(i) = x(y(i))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(self.images[j - 1] for j in other.images)

    def cycles(self):
        """Cycles as tuples, each starting at its smallest point, in order."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self(i)
            out.append(tuple(cyc))
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(("Perm", self.images))

    def __repr__(self):
        return f"Perm{self.images}"


def cycle_type(x: Perm) -> Partition:
    """Multiset of cycle lengths, as a weakly decreasing tuple."""
    return tuple(sorted((len(c) for c in x.cycles()), reverse=True))


def signed_perm(signs, perm: Perm) -> Perm:
    """The element of S_2 wr S_n sending e*i to e*signs[perm(i)]*perm(i),
    e = +-1.  Products follow ``(s, x) * (t, y) = (s . x(t), x y)``, where
    ``x(t)`` moves the sign at position i to position x(i).  A sign other
    than the ``int`` 1 or -1, ``True`` included, is a ``ValueError``."""
    signs = tuple(signs)
    if not all(_is_int(s) and s in (1, -1) for s in signs):
        raise ValueError(f"signs must be the ints 1 and -1, got {signs!r}")
    n = perm.degree
    if len(signs) != n:
        raise ValueError("sign vector and permutation degree mismatch")
    plus = [j if signs[j - 1] == 1 else j + n for j in perm.images]
    return Perm(plus + [j + n if j <= n else j - n for j in plus])


def signed_cycle_monomial(x: Perm):
    """Wreath cycle-map key of an element of S_2 wr S_n.  A cycle and its
    negative count once, through +m for the least index m they meet: a
    self-negative cycle gives (len/2, "t") (Q_k), any other (len, "e") (P_k);
    Macdonald, Symmetric Functions and Hall Polynomials, App. I.B."""
    n, odd = divmod(x.degree, 2)
    flip = Perm(tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1)))
    if odd or x * flip != flip * x:
        raise ValueError(f"{x!r} is not in S_2 wr S_n: it must commute with i <-> i + n")
    key = []
    for cyc in x.cycles():
        m = min(j - n if j > n else j for j in cyc)
        if m in cyc:
            key.append((len(cyc) // 2, T_CLASS) if m + n in cyc else (len(cyc), E_CLASS))
    return tuple(sorted(key))


# the most elements one closure holds, a guard against runaway input
CLOSURE_CAP = 10000


def closure(generators) -> list:
    """Subgroup generated by the given elements, by breadth-first closure.

    Raises if the closure would exceed ``CLOSURE_CAP`` elements.  The
    returned list starts with the identity and is in deterministic BFS
    order.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    if any(g.degree != first.degree for g in gens):
        raise ValueError("generators must share one degree")
    ident = Perm.identity(first.degree)
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise ValueError(f"subgroup closure exceeded cap {CLOSURE_CAP}")
                    seen[y] = None
                    new.append(y)
        frontier = new
    return list(seen)


def cyclic_subgroup(n: int) -> list:
    """The cyclic group generated by the long n-cycle inside S_n."""
    return closure([Perm.long_cycle(n)])


def hyperoct_dihedral(n: int) -> list:
    """The dihedral subgroup of the hyperoctahedral group: the plain long
    cycle plus the reversal with every sign flipped."""
    rot = signed_perm((1,) * n, Perm.long_cycle(n))
    refl = signed_perm((-1,) * n, Perm.reversal(n))
    return closure([rot, refl])


def _averaged_char(elements, truncation: int, monomial, cls):
    """(1/|H|) sum_h monomial(h) over the subgroup H, as a value of cls."""
    elements = list(elements)
    if not elements:
        raise ValueError("subgroup must be nonempty")
    counts = Counter(monomial(h) for h in elements)
    n = cls._key_degree(next(iter(counts)))
    if n > truncation:
        raise ValueError(f"degree {n} exceeds truncation {truncation}")
    order = len(elements)
    return cls(truncation, {key: Fraction(c, order) for key, c in counts.items()})


def ind_trivial_char(elements, truncation: int) -> SymFunc:
    """Characteristic of the trivial representation induced from a subgroup
    of S_n, as the averaged cycle map (1/|H|) sum_h p_{type(h)}."""
    return _averaged_char(elements, truncation, cycle_type, SymFunc)


def ind_trivial_char_wreath(elements, truncation: int) -> WreathSymFunc:
    """Same averaging for a subgroup of the hyperoctahedral group, landing
    in wreath-product symmetric functions."""
    return _averaged_char(elements, truncation, signed_cycle_monomial, WreathSymFunc)
