"""Wreath-product symmetric functions for the two-element group.

The ring has one family of power-sum generators per conjugacy class of the
group of order two: P_k for the identity class (class tag "e") and Q_k for
the swap class (tag "t"), both of degree k.  A monomial is stored as a
sorted tuple of (k, tag) pairs.  ``WreathSymFunc`` is the truncated-series
core of ``plethys.symfunc`` with these wreath monomials as its keys in
place of partitions; ring operations, rendering and the JSON form are the
core's.

``specialize_s2`` carries these functions onto ordinary symmetric
functions: P_k acts as the k-th Adams operation of the second p_1
derivative, Q_k as twice the k-th Adams operation of the p_2 derivative.
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
    _substitute,
    adams,
    d_operator,
    euler_phi,
    geom,
    log_inv,
    partial_p,
)

E_CLASS = "e"
T_CLASS = "t"

WreathMonomial = tuple  # sorted tuple of (k, class-tag) pairs


def _validate_monomial(key) -> WreathMonomial:
    key = tuple(key)
    for k, tag in key:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"generator index must be a positive integer, got {key!r}")
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


def _ungrouped_key(groups) -> WreathMonomial:
    return tuple(f for g in groups for f in [(g["k"], g["class"])] * g["exp"])


class WreathSymFunc(_TruncatedSeries):
    """A truncated wreath-product symmetric function over exact rationals.
    Keys are sorted tuples of (k, class-tag) factors."""

    __slots__ = ()

    _validate_key = staticmethod(_validate_monomial)
    _key_degree = staticmethod(_degree)
    _sort_key = staticmethod(monomial_sort_key)
    _descending = False
    _factor_str = staticmethod(_factor_str)
    _json_field = "key"
    _key_to_json = staticmethod(_grouped_key)
    _key_from_json = staticmethod(_ungrouped_key)

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


def dih_char_closed(n: int, truncation: int) -> WreathSymFunc:
    """Closed form for the induced trivial character of the dihedral subgroup
    of the degree-n hyperoctahedral group.

    Rotations contribute (1/2n) sum_{d|n} phi(d) P_d^{n/d}.  Reflections all
    carry the global sign flip: each fixed vertex of the underlying
    reflection yields a Q_1 and each 2-cycle a P_2, giving
    (1/2) Q_1 P_2^{(n-1)/2} for odd n and
    (1/4) (Q_1^2 P_2^{n/2 - 1} + P_2^{n/2}) for even n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > truncation:
        raise ValueError(f"degree {n} exceeds truncation {truncation}")
    # the constructor sorts each key and sums repeated ones: for even n the
    # rotation term of d = 2 meets the reflection term P_2^{n/2}
    terms = [
        (((d, E_CLASS),) * (n // d), Fraction(euler_phi(d), 2 * n))
        for d in range(1, n + 1)
        if n % d == 0
    ]
    if n % 2:
        terms.append((((1, T_CLASS),) + ((2, E_CLASS),) * ((n - 1) // 2), Fraction(1, 2)))
    else:
        terms.append((((1, T_CLASS),) * 2 + ((2, E_CLASS),) * (n // 2 - 1), Fraction(1, 4)))
        terms.append((((2, E_CLASS),) * (n // 2), Fraction(1, 4)))
    return WreathSymFunc(truncation, terms)


def dih_series_closed(truncation: int) -> WreathSymFunc:
    """Generating series of all the dihedral characters in one closed form:

        (1/2) sum_{n>=1} (phi(n)/n) * (-log(1 - P_n))
        + (Q_1/2 * (1 + Q_1/2) + P_2/4) / (1 - P_2)

    expanded and truncated.  Its degree-n part equals ``dih_char_closed(n)``.
    """
    N = truncation
    out = WreathSymFunc.zero(N)
    for n in range(1, N + 1):
        out = out + log_inv(WreathSymFunc.gen_p(n, N)) * Fraction(euler_phi(n), 2 * n)
    q1 = WreathSymFunc.gen_q(1, N)
    p2 = WreathSymFunc.gen_p(2, N)
    half_q1 = q1 * Fraction(1, 2)
    refl = half_q1 + half_q1 * half_q1 + p2 * Fraction(1, 4)
    return out + refl * geom(p2)


def specialize_s2(w: WreathSymFunc, f: SymFunc) -> SymFunc:
    """Carry a wreath-product symmetric function onto ordinary symmetric
    functions along the degree-two restriction of f:

        P_k -> adams(k, d^2 f / dp_1^2)
        Q_k -> 2 * adams(k, d f / dp_2)

    extended linearly and multiplicatively over monomials.
    """
    if w.truncation != f.truncation:
        raise ValueError(f"truncation mismatch: {w.truncation} vs {f.truncation}")
    fpp = partial_p(1, partial_p(1, f))
    fdot = partial_p(2, f)

    def image(factor) -> SymFunc:
        k, tag = factor
        return adams(k, fpp) if tag == E_CLASS else adams(k, fdot) * 2

    return _substitute(w._terms.items(), image, f.truncation)


def deg1_iso(lam, truncation: int) -> SymFunc:
    """Degree-one dictionary: the conjugacy class of cycle type lam maps to
    the power-sum monomial p_lam."""
    return SymFunc(truncation, {tuple(lam): Fraction(1)})


def plethysm_deg1(f: SymFunc, g: SymFunc) -> SymFunc:
    """Pairing of a homogeneous degree-k symmetric function against the
    k-fold marked restriction of g; computed as the differential operator
    action ``d_operator(f, g)``."""
    if not f.is_homogeneous():
        raise ValueError("left argument must be homogeneous")
    return d_operator(f, g)
