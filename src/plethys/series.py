"""Assembly of the generating series: test-module data, the necklace and
tree series, and the full genus-one gluing formula.

A test module assigns to each arity a direct sum of Young permutation
modules, given as partitions; its generating function is the sum of the
corresponding products of complete homogeneous functions.  Everything else
in this module is built from that single input series by exact truncated
operations, and each closed form has an independently enumerated
graph-census counterpart in ``graphoracle`` that the test suite compares
against degreewise.

The genus-one series glues before it expands.  Plethysm by the tree series
T is a ring homomorphism in its left argument that fixes rational constants
and commutes with Adams operations; T starts at p_1, so it maps degree d
to degrees >= d and commutes with truncation.  So the necklace series
composed with T is exactly the necklace series at a0'' o T and
(da0/dp_2) o T, by either route: the necklace formula (``symfunc`` writes it
once, for both rings) or the paper's route,
``specialize_s2(dih_series_closed(N), a0'' o T, (da0/dp_2) o T)``.  One
assembly, ``_genus_one_routes``, builds T and those two inputs once for
both routes, and ``verify``'s theorem suite checks them against each other.
"""

from __future__ import annotations

from collections.abc import Mapping

from .symfunc import (
    Partition,
    SymFunc,
    _cyclic_sum,
    _is_int,
    _necklace_formula,
    _validate_partition,
    h_lambda,
    partial_p,
    plethysm,
)
from .wreath import dih_series_closed, specialize_s2


class ModuleSpecError(ValueError):
    """Malformed test-module data."""


class ModuleSpec:
    """Per-arity lists of Young permutation modules for genus 0 and 1.

    Each section maps ``int`` arities to lists of partitions, each summing
    to its arity: genus 0 from arity 3 and genus 1 from arity 1 (the
    stability range).  Anything else, a ``bool`` arity included, raises
    ``ModuleSpecError``.
    """

    __slots__ = ("genus0", "genus1")

    def __init__(self, genus0=None, genus1=None):
        object.__setattr__(self, "genus0", self._clean(genus0, min_arity=3, label="genus0"))
        object.__setattr__(self, "genus1", self._clean(genus1, min_arity=1, label="genus1"))

    def __setattr__(self, name, value):
        raise AttributeError("ModuleSpec is immutable")

    @staticmethod
    def _clean(data, min_arity: int, label: str) -> dict:
        clean: dict[int, tuple[Partition, ...]] = {}
        if data is None:
            return clean
        if not isinstance(data, Mapping):
            raise ModuleSpecError(f"{label} must be a mapping from arities, got {data!r}")
        for n, lams in data.items():
            if not _is_int(n) or n < min_arity:
                raise ModuleSpecError(
                    f"{label} arity must be an integer >= {min_arity}, got {n!r}"
                )
            seqs = (list, tuple)
            if not isinstance(lams, seqs) or not all(isinstance(lam, seqs) for lam in lams):
                raise ModuleSpecError(f"{label}[{n}] must be a list of partitions, got {lams!r}")
            entries = []
            for lam in lams:
                try:
                    lam = _validate_partition(lam)
                except ValueError as exc:
                    raise ModuleSpecError(f"{label}[{n}]: {exc}") from exc
                if sum(lam) != n:
                    raise ModuleSpecError(
                        f"{label}[{n}]: partition {list(lam)} does not sum to {n}"
                    )
                entries.append(lam)
            if entries:
                clean[n] = tuple(entries)
        return clean

    @classmethod
    def standard(cls) -> "ModuleSpec":
        """The default verification module: trivial modules in arities 3..6
        of genus 0 and 1..4 of genus 1, plus one non-trivial Young module
        at genus-0 arity 4 so reflection-sensitive terms are exercised."""
        return cls(
            genus0={3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)], 6: [(6,)]},
            genus1={1: [(1,)], 2: [(2,)], 3: [(3,)], 4: [(4,)]},
        )

    def max_arity(self) -> int:
        """Largest arity carrying a summand (0 for the empty module)."""
        return max([0, *self.genus0, *self.genus1])

    def __eq__(self, other):
        if not isinstance(other, ModuleSpec):
            return NotImplemented
        return self.genus0 == other.genus0 and self.genus1 == other.genus1

    def __repr__(self):
        return f"ModuleSpec(genus0={self.genus0!r}, genus1={self.genus1!r})"

    def to_json_obj(self) -> dict:
        return {
            "genus0": {str(n): [list(lam) for lam in lams] for n, lams in sorted(self.genus0.items())},
            "genus1": {str(n): [list(lam) for lam in lams] for n, lams in sorted(self.genus1.items())},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ModuleSpec":
        if not isinstance(obj, dict):
            raise ModuleSpecError("module spec must be a JSON object")
        unknown = set(obj) - {"genus0", "genus1"}
        if unknown:
            raise ModuleSpecError(f"unknown module-spec keys: {sorted(unknown)}")

        def parse(section):
            data = obj.get(section, {})
            if not isinstance(data, dict):
                raise ModuleSpecError(f"{section} must be an object")
            out = {}
            for key, lams in data.items():
                # int() alone would also read "1_0" as 10 and take " 3",
                # "+3" and non-ASCII digits
                if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                    raise ModuleSpecError(f"{section} key {key!r} is not a decimal arity")
                try:
                    n = int(key)
                except ValueError:  # more digits than int() converts
                    raise ModuleSpecError(f"{section} key of {len(key)} digits is too long")
                if n in out:
                    raise ModuleSpecError(f"{section} key {key!r} repeats arity {n}")
                out[n] = lams
            return out

        return cls(genus0=parse("genus0"), genus1=parse("genus1"))


def a_series(spec: ModuleSpec, genus: int, truncation: int) -> SymFunc:
    """Generating function of the test module in the given genus: the sum
    over arities n <= truncation of the characters h_lam of its summands.
    A genus other than the ``int`` 0 or 1 (``False`` included) is a ``ValueError``."""
    if not _is_int(genus) or genus not in (0, 1):
        raise ValueError(f"genus must be 0 or 1, got {genus!r}")
    data = spec.genus1 if genus else spec.genus0
    out = SymFunc.zero(truncation)
    for n, lams in data.items():
        if n > truncation:
            continue
        for lam in lams:
            out = out + h_lambda(lam, truncation)
    return out


def ass_series(truncation: int) -> SymFunc:
    """Generating function of cyclically ordered corollas, in closed form:
    sum_n (phi(n)/n) * (-log(1 - p_n)).  The ``bb`` suite of ``verify``
    checks it against the averages over the cyclic subgroups."""
    return _cyclic_sum(SymFunc.p(1, truncation))


def _check_core_series(a0: SymFunc) -> None:
    val = a0.valuation()
    if val is not None and val < 3:
        raise ValueError("the genus-0 series must have lowest degree >= 3")


def second_leg_series(a0: SymFunc) -> SymFunc:
    """Second derivative in p_1: the series of genus-0 vertices carrying an
    ordered pair of marked legs."""
    return partial_p(1, partial_p(1, a0))


def cyclic_necklace_series(a0: SymFunc) -> SymFunc:
    """Sum over cyclically oriented necklaces of genus-0 vertices:
    sum_n (phi(n)/n) * (-log(1 - adams(n, a0''))), truncated."""
    _check_core_series(a0)
    return _cyclic_sum(second_leg_series(a0))


def _necklace_route(method: str, core, adot):
    """The necklace series at (core, adot), a0'' and da0/dp_2 or their images
    under plethysm, by ``method``: "direct", the necklace formula, or
    "wreath", the closed dihedral series specialized along the two."""
    if method == "direct":
        return _necklace_formula(core, adot)
    if method == "wreath":
        return specialize_s2(dih_series_closed(core.truncation), core, adot)
    raise ValueError(f"unknown method {method!r}")


def necklace_series(a0: SymFunc, method: str = "direct") -> SymFunc:
    """Sum over unordered necklaces of genus-0 vertices, by the route
    ``method``, "direct" or "wreath" (see ``_necklace_route``)."""
    _check_core_series(a0)
    return _necklace_route(method, second_leg_series(a0), partial_p(2, a0))


def tree_fixed_point(a0: SymFunc) -> SymFunc:
    """The series of rooted genus-0 trees (including the bare root leg):
    the unique f with lowest term p_1 satisfying f = p_1 + (a0' o f).

    p_1 is exact through degree 1, and each pass gains one exact degree
    because a0' has valuation >= 2, so N - 1 passes reach the truncation N.
    """
    _check_core_series(a0)
    N = a0.truncation
    aprime = partial_p(1, a0)
    f = SymFunc.p(1, N)
    for _ in range(N - 1):
        f = SymFunc.p(1, N) + plethysm(aprime, f)
    return f


def working_truncation(spec: ModuleSpec, degree: int) -> int:
    """The truncation at which to assemble series wanted through ``degree``.

    A summand of arity m reaches degrees down to m - 2 through the
    derivatives in the necklace terms, and none below, so the summands of
    arity above degree + 2 can be dropped and those up to it must be kept.
    """
    return max(degree, min(spec.max_arity(), degree + 2))


def _genus_one_routes(spec: ModuleSpec, truncation: int, methods) -> list:
    """The genus-one series (a1 + N(a0)) o T through ``truncation``, once per
    necklace route in ``methods`` (see the module docstring).  a0, T, and
    a1, a0'' and da0/dp_2 composed with T are built once, at the working
    truncation, which keeps the summands that reach low degrees through
    derivatives; only each result is cut back to ``truncation``.
    """
    working = working_truncation(spec, truncation)
    a0 = a_series(spec, 0, working)
    tree = tree_fixed_point(a0)
    corollas = plethysm(a_series(spec, 1, working), tree)
    core = plethysm(second_leg_series(a0), tree)
    adot = plethysm(partial_p(2, a0), tree)
    return [(corollas + _necklace_route(m, core, adot)).truncated(truncation) for m in methods]


def b1_series(spec: ModuleSpec, truncation: int) -> SymFunc:
    """The full genus-one series (a1 + N(a0)) o T: genus-one corollas plus
    necklaces, glued along the rooted genus-0 trees T, by the necklace formula."""
    return _genus_one_routes(spec, truncation, ("direct",))[0]
