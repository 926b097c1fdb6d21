"""Wreath-product symmetric functions for the two-element group.

The ring has one family of power-sum generators per conjugacy class of the
group of order two: P_k for the identity class (class tag "e") and Q_k for
the swap class (tag "t"), both of degree k.  A monomial is stored as a
sorted tuple of (k, tag) pairs.  ``WreathSymFunc`` is the truncated-series
core of ``plethys.symfunc`` with these wreath monomials as its keys in
place of partitions; ring operations, rendering and the JSON form are the
core's.

``dih_series_closed`` is the one closed form of the dihedral characters:
its degree-n part is the character of the degree-n dihedral subgroup.  It
is the necklace formula of ``plethys.symfunc`` at P_1 and Q_1/2, in this
ring, where ``adams`` takes P_j to P_{jk} and Q_j to Q_{jk}.

``specialize_s2`` carries these functions onto ordinary symmetric
functions along two given series: P_k acts as the k-th Adams operation of
``core``, Q_k as twice the k-th Adams operation of ``adot``.  ``series``
supplies a0'' and da0/dp_2, or their compositions with the tree series.
The extension to products is multiplicative; end-to-end correctness of
that convention is pinned by the graph-census tests rather than argued
here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .symfunc import (
    SymFunc,
    _TruncatedSeries,
    _check_int,
    _check_type,
    _necklace_formula,
    _substitute,
    adams,
)

E_CLASS = "e"
T_CLASS = "t"

WreathMonomial = tuple  # sorted tuple of (k, class-tag) pairs


def _validate_monomial(key) -> WreathMonomial:
    key = tuple(key)
    for k, tag in key:
        _check_int(k, "generator index")
        if tag not in (E_CLASS, T_CLASS):
            raise ValueError(f"class tag must be {E_CLASS!r} or {T_CLASS!r}, got {key!r}")
    return tuple(sorted(key))


def _degree(key: WreathMonomial) -> int:
    return sum(k for k, _ in key)


def monomial_sort_key(key: WreathMonomial):
    return (_degree(key), key)


def _factor_str(factor) -> str:
    k, tag = factor
    return f"{'P' if tag == E_CLASS else 'Q'}{k}"


def _grouped_key(key: WreathMonomial) -> list:
    return [{"k": k, "class": tag, "exp": len(list(run))} for (k, tag), run in groupby(key)]


class WreathSymFunc(_TruncatedSeries):
    """A truncated wreath-product symmetric function over exact rationals.
    Keys are sorted tuples of (k, class-tag) factors."""

    __slots__ = ()

    _validate_key = staticmethod(_validate_monomial)
    _key_degree = staticmethod(_degree)
    _scale_key = staticmethod(lambda key, k: tuple((j * k, tag) for j, tag in key))
    _sort_key = staticmethod(monomial_sort_key)
    _descending = False
    _factor_str = staticmethod(_factor_str)
    _json_field = "key"
    _key_to_json = staticmethod(_grouped_key)

    @classmethod
    def gen_p(cls, k: int, truncation: int) -> "WreathSymFunc":
        """The identity-class generator P_k (zero if k exceeds the truncation)."""
        return cls._generator((k, E_CLASS), k, truncation)

    @classmethod
    def gen_q(cls, k: int, truncation: int) -> "WreathSymFunc":
        """The swap-class generator Q_k (zero if k exceeds the truncation)."""
        return cls._generator((k, T_CLASS), k, truncation)

    # the benchmark's tracer wraps these from the class's own namespace
    __mul__ = _TruncatedSeries.__mul__
    __rmul__ = _TruncatedSeries.__mul__
    to_json_obj = _TruncatedSeries.to_json_obj


def dih_series_closed(truncation: int) -> WreathSymFunc:
    """Generating series of all the dihedral characters in one closed form:

        (1/2) sum_{n>=1} (phi(n)/n) * (-log(1 - P_n))
        + (Q_1/2 * (1 + Q_1/2) + P_2/4) / (1 - P_2)

    expanded and truncated.  Its degree-n part is the induced trivial
    character of the dihedral subgroup of the degree-n hyperoctahedral
    group.  Rotations contribute (1/2n) sum_{d|n} phi(d) P_d^{n/d}.
    Reflections all carry the global sign flip: each fixed vertex of the
    underlying reflection yields a Q_1 and each 2-cycle a P_2, giving
    (1/2) Q_1 P_2^{(n-1)/2} for odd n and
    (1/4) (Q_1^2 P_2^{n/2 - 1} + P_2^{n/2}) for even n.
    It is the necklace formula of ``symfunc`` at core = P_1, adot = Q_1/2.
    """
    N = truncation
    return _necklace_formula(WreathSymFunc.gen_p(1, N), WreathSymFunc.gen_q(1, N) * Fraction(1, 2))


def specialize_s2(w: WreathSymFunc, core: SymFunc, adot: SymFunc) -> SymFunc:
    """Carry a wreath-product symmetric function onto ordinary symmetric
    functions by the substitution

        P_k -> adams(k, core)
        Q_k -> 2 * adams(k, adot)

    extended linearly and multiplicatively over monomials.  Like the right
    argument of a plethysm, core and adot must have no constant term.
    """
    _check_type(w, WreathSymFunc)
    for name, f in (("core", core), ("adot", adot)):
        SymFunc.zero(w.truncation)._check_compatible(f)
        if f.coefficient(()):
            raise ValueError(f"specialize_s2 requires {name} to have no constant term")

    def image(factor) -> SymFunc:
        k, tag = factor
        return adams(k, core) if tag == E_CLASS else adams(k, adot) * 2

    return _substitute(w._terms.items(), image, w.truncation)
