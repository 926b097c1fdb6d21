"""Permutations, signed permutations, small-subgroup closure and cycle maps.

Groups here are always tiny, so subgroups are represented extensionally as
lists of elements produced by breadth-first closure of a generating set.
That makes the averaged cycle-map sums (the characters of induced trivial
representations) one-line folds over the element list, with exact
rational output.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .symfunc import Partition, SymFunc
from .wreath import E_CLASS, T_CLASS, WreathSymFunc


class Perm:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images!r}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    @classmethod
    def long_cycle(cls, n: int) -> "Perm":
        """The n-cycle sending 1 -> 2 -> ... -> n -> 1."""
        return cls(tuple(range(2, n + 1)) + (1,))

    @classmethod
    def reversal(cls, n: int) -> "Perm":
        """The involution i -> n + 1 - i."""
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

    def inverse(self) -> "Perm":
        images = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Perm(images)

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


class SignedPerm:
    """An element of the degree-n hyperoctahedral group: a vector of signs
    in {+1, -1} together with a permutation acting on the sign positions.

    Composition follows the semidirect-product rule
    ``(s, x) * (t, y) = (s . x(t), x y)`` where ``x(t)`` moves the sign at
    position i to position x(i).  Any consistent convention yields the same
    conjugacy data; this one is pinned by the closure-order tests.
    """

    __slots__ = ("signs", "perm")

    def __init__(self, signs, perm: Perm):
        signs = tuple(signs)
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +1/-1, got {signs!r}")
        if len(signs) != perm.degree:
            raise ValueError("sign vector and permutation degree mismatch")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPerm is immutable")

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls((1,) * n, Perm.identity(n))

    @property
    def degree(self) -> int:
        return self.perm.degree

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        n = self.degree
        moved = [0] * n
        for i in range(1, n + 1):
            moved[self.perm(i) - 1] = other.signs[i - 1]
        signs = tuple(self.signs[j] * moved[j] for j in range(n))
        return SignedPerm(signs, self.perm * other.perm)

    def inverse(self) -> "SignedPerm":
        inv = self.perm.inverse()
        signs = tuple(self.signs[self.perm(i) - 1] for i in range(1, self.degree + 1))
        return SignedPerm(signs, inv)

    def __eq__(self, other):
        return (
            isinstance(other, SignedPerm)
            and self.signs == other.signs
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash(("SignedPerm", self.signs, self.perm.images))

    def __repr__(self):
        return f"SignedPerm({self.signs}, {self.perm!r})"


def cycle_type(x: Perm) -> Partition:
    """Multiset of cycle lengths, as a weakly decreasing tuple."""
    return tuple(sorted((len(c) for c in x.cycles()), reverse=True))


def cycle_map_sym(x: Perm, truncation: int) -> SymFunc:
    """The cycle-map monomial p_{cycle_type(x)}: the average over {x}."""
    return ind_trivial_char([x], truncation)


def signed_cycle_monomial(x: SignedPerm):
    """Wreath cycle-map key of a signed permutation: one (length, class)
    factor per cycle, the class given by the product of signs along it."""
    key = []
    for cyc in x.perm.cycles():
        sign = 1
        for i in cyc:
            sign *= x.signs[i - 1]
        key.append((len(cyc), E_CLASS if sign == 1 else T_CLASS))
    return tuple(sorted(key))


def wreath_cycle_map(x: SignedPerm, truncation: int) -> WreathSymFunc:
    """The wreath cycle-map monomial of a signed permutation: the average
    over {x}."""
    return ind_trivial_char_wreath([x], truncation)


def closure(generators, cap: int = 10000) -> list:
    """Subgroup generated by the given elements, by breadth-first closure.

    Raises if the closure would exceed ``cap`` elements (a guard against
    runaway input).  The returned list starts with the identity and is in
    deterministic BFS order.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    first = gens[0]
    if any(g.degree != first.degree for g in gens):
        raise ValueError("generators must share one degree")
    if isinstance(first, Perm):
        ident = Perm.identity(first.degree)
    elif isinstance(first, SignedPerm):
        ident = SignedPerm.identity(first.degree)
    else:
        raise TypeError(f"unsupported element type {type(first).__name__}")
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(seen) >= cap:
                        raise ValueError(f"subgroup closure exceeded cap {cap}")
                    seen[y] = None
                    new.append(y)
        frontier = new
    return list(seen)


def cyclic_subgroup(n: int) -> list:
    """The cyclic group generated by the long n-cycle inside S_n."""
    return closure([Perm.long_cycle(n)])


def dihedral_in_sym(n: int) -> list:
    """The dihedral group inside S_n: long cycle plus the reversal."""
    return closure([Perm.long_cycle(n), Perm.reversal(n)])


def hyperoct_dihedral(n: int) -> list:
    """The dihedral subgroup of the hyperoctahedral group: the plain long
    cycle plus the reversal with every sign flipped."""
    rot = SignedPerm((1,) * n, Perm.long_cycle(n))
    refl = SignedPerm((-1,) * n, Perm.reversal(n))
    return closure([rot, refl])


def _averaged_char(elements, truncation: int, monomial, cls):
    """(1/|H|) sum_h monomial(h) over the subgroup H, as a value of cls."""
    elements = list(elements)
    if not elements:
        raise ValueError("subgroup must be nonempty")
    counts = Counter(monomial(h) for h in elements)
    n = elements[0].degree
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
