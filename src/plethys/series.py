"""Assembly of the generating series: test-module data, the necklace and
tree series, and the full genus-one gluing formula.

A test module assigns to each arity a direct sum of Young permutation
modules, given as partitions; its generating function is the sum of the
corresponding products of complete homogeneous functions.  Everything else
in this module is built from that single input series by exact truncated
operations, and each closed form has an independently enumerated
graph-census counterpart in ``graphoracle`` that the test suite compares
against degreewise.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import cyclic_subgroup, ind_trivial_char
from .symfunc import (
    Partition,
    SymFunc,
    _validate_partition,
    adams,
    euler_phi,
    geom,
    h_lambda,
    log_inv,
    partial_p,
    plethysm,
)
from .wreath import dih_series_closed, specialize_s2


class ModuleSpecError(ValueError):
    """Malformed test-module data."""


class ModuleSpec:
    """Per-arity lists of Young permutation modules for genus 0 and 1.

    Genus-0 entries exist only for arity >= 3 and genus-1 entries for
    arity >= 1 (the stability range); each partition must sum to its arity.
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
        if not data:
            return clean
        for n, lams in data.items():
            if not isinstance(n, int) or n < min_arity:
                raise ModuleSpecError(
                    f"{label} arity must be an integer >= {min_arity}, got {n!r}"
                )
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
            data = obj.get(section) or {}
            if not isinstance(data, dict):
                raise ModuleSpecError(f"{section} must be an object")
            out = {}
            for key, lams in data.items():
                # int() alone would also read "1_0" as 10 and take " 3",
                # "+3" and non-ASCII digits
                if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                    raise ModuleSpecError(f"{section} key {key!r} is not a decimal arity")
                n = int(key)
                if n in out:
                    raise ModuleSpecError(f"{section} key {key!r} repeats arity {n}")
                if not isinstance(lams, list) or not all(isinstance(lam, list) for lam in lams):
                    raise ModuleSpecError(f"{section}[{key}] must be a list of partitions")
                out[n] = [tuple(lam) for lam in lams]
            return out

        return cls(genus0=parse("genus0"), genus1=parse("genus1"))


def a_series(spec: ModuleSpec, genus: int, truncation: int) -> SymFunc:
    """Generating function of the test module in the given genus: the sum
    over arities n <= truncation of the characters h_lam of its summands."""
    if genus == 0:
        data = spec.genus0
    elif genus == 1:
        data = spec.genus1
    else:
        raise ValueError("genus must be 0 or 1")
    out = SymFunc.zero(truncation)
    for n, lams in data.items():
        if n > truncation:
            continue
        for lam in lams:
            out = out + h_lambda(lam, truncation)
    return out


def ass_series(truncation: int, method: str = "closed") -> SymFunc:
    """Generating function of cyclically ordered corollas.

    Two independent computations: the closed form
    sum_n (phi(n)/n) * (-log(1 - p_n)) and the termwise averages over the
    cyclic subgroups of each symmetric group.  They must agree exactly.
    """
    N = truncation
    if method == "closed":
        return _cyclic_sum(SymFunc.p(1, N))
    if method == "burnside":
        out = SymFunc.zero(N)
        for n in range(1, N + 1):
            out = out + ind_trivial_char(cyclic_subgroup(n), N)
        return out
    raise ValueError(f"unknown method {method!r}")


def _cyclic_sum(g: SymFunc) -> SymFunc:
    """The cycle index of cyclically ordered arrangements of g-structures:
    sum_n (phi(n)/n) * (-log(1 - adams(n, g))), truncated."""
    N = g.truncation
    out = SymFunc.zero(N)
    for n in range(1, N + 1):
        out = out + log_inv(adams(n, g)) * Fraction(euler_phi(n), n)
    return out


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


def necklace_series_direct(a0: SymFunc) -> SymFunc:
    """Sum over unordered necklaces of genus-0 vertices, assembled from
    ordinary symmetric-function primitives.

    The rotation part is half the oriented sum.  The reflection part is
    (da0/dp_2 * (1 + da0/dp_2) + (1/4) adams(2, a0'')) / (1 - adams(2, a0'')):
    reflections whose axis passes through a vertex contribute the
    derivative terms, reflections whose axis passes through two edges
    contribute the quarter term.
    """
    _check_core_series(a0)
    N = a0.truncation
    core = second_leg_series(a0)
    rotations = _cyclic_sum(core) * Fraction(1, 2)
    adot = partial_p(2, a0)
    psi2 = adams(2, core)
    refl = adot * (SymFunc.one(N) + adot) + psi2 * Fraction(1, 4)
    return rotations + refl * geom(psi2)


def necklace_series(a0: SymFunc, method: str = "direct") -> SymFunc:
    """Sum over unordered necklaces, by either of two routes that must
    agree: the direct formula, or specializing the closed dihedral series
    in wreath-product symmetric functions along a0."""
    if method == "direct":
        return necklace_series_direct(a0)
    if method == "wreath":
        _check_core_series(a0)
        return specialize_s2(dih_series_closed(a0.truncation), a0)
    raise ValueError(f"unknown method {method!r}")


def tree_fixed_point(a0: SymFunc) -> SymFunc:
    """The series of rooted genus-0 trees (including the bare root leg):
    the unique f with lowest term p_1 satisfying f = p_1 + (a0' o f).

    Iteration gains at least one exact degree per step because a0' has
    valuation >= 2, so it must stabilize within the truncation.
    """
    _check_core_series(a0)
    N = a0.truncation
    aprime = partial_p(1, a0)
    f = SymFunc.p(1, N)
    for _ in range(N + 2):
        nxt = SymFunc.p(1, N) + plethysm(aprime, f)
        if nxt == f:
            return f
        f = nxt
    raise ArithmeticError("tree fixed point did not stabilize; valuation bug")


def working_truncation(spec: ModuleSpec, degree: int) -> int:
    """The truncation at which to assemble series wanted through ``degree``.

    A summand of arity m reaches degrees down to m - 2 through the
    derivatives in the necklace terms, and none below, so the summands of
    arity above degree + 2 can be dropped and those up to it must be kept.
    """
    return max(degree, min(spec.max_arity(), degree + 2))


def b1_series(spec: ModuleSpec, truncation: int) -> SymFunc:
    """The full genus-one series: genus-one corollas plus necklaces, glued
    along rooted genus-0 trees by plethysm.

    The assembly runs at the working truncation, which keeps the summands
    that reach low degrees through derivatives, and only the result is cut
    back to the requested degree.
    """
    working = working_truncation(spec, truncation)
    a0 = a_series(spec, 0, working)
    a1 = a_series(spec, 1, working)
    full = plethysm(a1 + necklace_series(a0), tree_fixed_point(a0))
    return full.truncated(truncation)
