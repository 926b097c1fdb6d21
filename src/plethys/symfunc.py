"""Exact arithmetic on truncated symmetric functions in the power-sum basis.

A symmetric function is stored as a finite map from integer partitions to
rational coefficients, representing ``sum c_lam * p_lam`` where
``p_lam = p_{lam_1} * p_{lam_2} * ...`` is a monomial in the power sums.
Every value carries an explicit truncation degree N: all operations are
exact on degrees <= N and silently discard anything above.  Mixing values
with different truncations is an error, never a coercion.

Coefficients are ``fractions.Fraction`` throughout, so every identity
checked by the test suite is an exact equality of rationals.

Partitions are plain tuples of weakly decreasing positive integers.  The
canonical ordering (used by ``terms``, ``str`` and the JSON form) is by
degree, then reverse-lexicographically within a degree: ``(n,)`` first,
``(1,)*n`` last.

The truncated-series core (``_TruncatedSeries``) knows nothing about
partitions: ``SymFunc`` supplies the partition keys, and
``plethys.wreath`` supplies wreath monomial keys to the same core.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

Partition = tuple


def partition_sort_key(lam: Partition):
    """Sort key realizing the canonical (degree, reverse-lex) order."""
    return (sum(lam), tuple(-part for part in lam))


def _validate_partition(lam) -> Partition:
    lam = tuple(lam)
    for i, part in enumerate(lam):
        # bool is an int subclass, but JSON true is not a part
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam!r}")
        if i and lam[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam!r}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, each exactly once, in reverse-lex order.

    The empty partition is the unique partition of 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def extend(remaining, largest, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            extend(remaining - part, part, prefix + (part,))

    extend(n, n, ())
    return tuple(out)


def z_of(lam: Partition) -> int:
    """The centralizer order z_lam = prod_i i^{m_i} m_i!.

    A permutation of cycle type lam has n!/z_lam conjugates; 1/z_lam is the
    coefficient weight used when expanding h_n over partitions.
    """
    lam = _validate_partition(lam)
    z = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m
        for j in range(2, m + 1):
            z *= j
    return z


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class _TruncatedSeries:
    """The truncated power-sum algebra shared by ``SymFunc`` and
    ``WreathSymFunc``.

    A value is an explicit truncation degree N plus a finite map from
    monomial keys to nonzero ``Fraction`` coefficients.  A key is a sorted
    tuple of generator factors.  Subclasses only say what their keys are,
    through these class attributes:

    ``_validate_key``  check one key and return it in canonical form
    ``_key_degree``    total degree of a key
    ``_sort_key``      canonical term order (by degree first)
    ``_descending``    whether the factors inside a key sort descending
    ``_factor_str``    rendering of one generator factor
    ``_json_field``, ``_key_to_json``, ``_key_from_json``  the JSON key codec

    Everything else (validation, ring operations, equality, rendering and
    the JSON form) lives here.  Values of two different subclasses never
    mix: sums and products raise ``TypeError`` and they never compare equal.
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: int, terms=None):
        if not isinstance(truncation, int) or truncation < 1:
            raise ValueError("truncation must be a positive integer")
        clean: dict[tuple, Fraction] = {}
        if terms:
            for key, coeff in terms.items() if hasattr(terms, "items") else terms:
                key = self._validate_key(key)
                if self._key_degree(key) > truncation:
                    raise ValueError(
                        f"term {key!r} has degree {self._key_degree(key)} above truncation {truncation}"
                    )
                coeff = _as_fraction(coeff)
                if coeff:
                    clean[key] = clean.get(key, Fraction(0)) + coeff
                    if not clean[key]:
                        del clean[key]
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, truncation: int, terms: dict):
        # internal fast path: caller guarantees valid keys/values
        self = object.__new__(cls)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, truncation: int):
        return cls(truncation, {})

    @classmethod
    def one(cls, truncation: int):
        return cls(truncation, {(): Fraction(1)})

    @classmethod
    def _generator(cls, factor, k: int, truncation: int):
        """The monomial of the single factor of degree k (zero if k exceeds
        the truncation)."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("generator index must be a positive integer")
        if k > truncation:
            return cls.zero(truncation)
        return cls(truncation, {(factor,): Fraction(1)})

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Iterate (key, coefficient) pairs in canonical order."""
        for key in sorted(self._terms, key=self._sort_key):
            yield key, self._terms[key]

    def coefficient(self, key) -> Fraction:
        return self._terms.get(self._validate_key(key), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def valuation(self):
        """Smallest degree with a nonzero term, or None for zero."""
        if not self._terms:
            return None
        return min(map(self._key_degree, self._terms))

    def degree_part(self, d: int):
        degree = self._key_degree
        return self._raw(
            self.truncation,
            {key: c for key, c in self._terms.items() if degree(key) == d},
        )

    def is_homogeneous(self) -> bool:
        return len(set(map(self._key_degree, self._terms))) <= 1

    def truncated(self, new_truncation: int):
        """The same value carried at a lower truncation (terms above it
        are dropped).  Raising the truncation is refused: the discarded
        degrees are not recoverable."""
        if new_truncation > self.truncation:
            raise ValueError(
                f"cannot raise truncation {self.truncation} to {new_truncation}"
            )
        degree = self._key_degree
        return self._raw(
            new_truncation,
            {key: c for key, c in self._terms.items() if degree(key) <= new_truncation},
        )

    # -- ring structure -----------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return self._raw(self.truncation, terms)

    def __neg__(self):
        return self._raw(self.truncation, {key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if not other:
                return self.zero(self.truncation)
            return self._raw(
                self.truncation, {key: c * other for key, c in self._terms.items()}
            )
        self._check_compatible(other)
        N = self.truncation
        degree = self._key_degree
        descending = self._descending
        # the right operand's degrees are taken once per product, lowest
        # first, so the inner loop stops at the first pair above N
        right = sorted(
            ((degree(key), key, d) for key, d in other._terms.items()), key=itemgetter(0)
        )
        terms: dict[tuple, Fraction] = {}
        for key1, c in self._terms.items():
            room = N - degree(key1)
            for d2, key2, d in right:
                if d2 > room:
                    break
                key = tuple(sorted(key1 + key2, reverse=descending))
                acc = terms.get(key)
                if acc is None:
                    terms[key] = c * d
                    continue
                acc += c * d
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
        return self._raw(N, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.one(self.truncation)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.truncation == other.truncation and self._terms == other._terms

    # -- rendering ----------------------------------------------------

    def _monomial_str(self, key) -> str:
        chunks = []
        for factor, run in groupby(key):
            exp = len(list(run))
            name = self._factor_str(factor)
            chunks.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(chunks)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for key, c in self.terms():
            if not key:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(self._monomial_str(key))
            else:
                chunks.append(f"{c}*{self._monomial_str(key)}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"{type(self).__name__}(N={self.truncation}: {self})"

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "truncation": self.truncation,
            "terms": [
                {
                    self._json_field: self._key_to_json(key),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for key, c in self.terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict):
        return cls(
            obj["truncation"],
            [
                (
                    cls._key_from_json(entry[cls._json_field]),
                    Fraction(int(entry["num"]), int(entry["den"])),
                )
                for entry in obj["terms"]
            ],
        )


class SymFunc(_TruncatedSeries):
    """A truncated symmetric function with exact rational coefficients.
    Keys are partitions: the key lam stands for p_lam."""

    __slots__ = ()

    _validate_key = staticmethod(_validate_partition)
    _key_degree = staticmethod(sum)
    _sort_key = staticmethod(partition_sort_key)
    _descending = True
    _json_field = "partition"
    _key_to_json = staticmethod(list)
    _key_from_json = staticmethod(tuple)

    @staticmethod
    def _factor_str(k: int) -> str:
        return f"p{k}"

    @classmethod
    def p(cls, k: int, truncation: int) -> "SymFunc":
        """The power sum p_k (zero if k exceeds the truncation)."""
        return cls._generator(k, k, truncation)

    # the benchmark's tracer wraps these from the class's own namespace
    __mul__ = _TruncatedSeries.__mul__
    __rmul__ = _TruncatedSeries.__mul__
    to_json_obj = _TruncatedSeries.to_json_obj


# -- the operations beyond the plain ring structure --------------------


def h_gen(n: int, truncation: int) -> SymFunc:
    """The complete homogeneous symmetric function h_n = sum p_lam / z_lam."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > truncation:
        raise ValueError(f"h_{n} exceeds truncation {truncation}")
    return SymFunc._raw(
        truncation, {lam: Fraction(1, z_of(lam)) for lam in partitions_of(n)}
    )


def h_lambda(lam, truncation: int) -> SymFunc:
    """Product h_{lam_1} h_{lam_2} ... (the Young permutation-module character)."""
    lam = _validate_partition(lam)
    out = SymFunc.one(truncation)
    for part in lam:
        out = out * h_gen(part, truncation)
    return out


def adams(k: int, f: SymFunc) -> SymFunc:
    """k-th Adams operation: substitute p_j -> p_{jk}; degrees multiply by k."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("Adams index must be a positive integer")
    N = f.truncation
    terms = {}
    for lam, c in f._terms.items():
        if k * sum(lam) > N:
            continue
        terms[tuple(part * k for part in lam)] = c
    return SymFunc._raw(N, terms)


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm f o g, a ring homomorphism in f sending p_k to adams(k, g).

    g must have no constant term, otherwise the substitution does not
    converge as a formal series.
    """
    f._check_compatible(g)
    if g.coefficient(()):
        raise ValueError("plethysm requires the right argument to have no constant term")
    N = f.truncation
    gval = g.valuation()
    if gval is None:
        gval = N + 1
    terms = ((lam, c) for lam, c in f._terms.items() if sum(lam) * gval <= N)
    return _substitute(terms, lambda part: adams(part, g), N)


def _substitute(terms, image, truncation: int) -> SymFunc:
    """sum c * image(x_1) * image(x_2) * ... over the (monomial, c) pairs
    in ``terms``, a monomial being the tuple of its factors x_i; ``image``
    is called once per distinct factor, and a product that reaches zero
    stops early."""
    cache: dict = {}
    out = SymFunc.zero(truncation)
    for key, c in terms:
        acc = SymFunc.one(truncation)
        for x in key:
            factor = cache.get(x)
            if factor is None:
                factor = cache[x] = image(x)
            acc = acc * factor
            if acc.is_zero():
                break
        out = out + acc * c
    return out


def partial_p(k: int, f: SymFunc) -> SymFunc:
    """Formal partial derivative with respect to p_k."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("derivative index must be a positive integer")
    terms: dict[Partition, Fraction] = {}
    for lam, c in f._terms.items():
        m = lam.count(k)
        if not m:
            continue
        idx = lam.index(k)
        key = lam[:idx] + lam[idx + 1 :]
        acc = terms.get(key, Fraction(0)) + c * m
        if acc:
            terms[key] = acc
        elif key in terms:
            del terms[key]
    return SymFunc._raw(f.truncation, terms)


def d_operator(f: SymFunc, g: SymFunc) -> SymFunc:
    """Apply f(d/dp_1, 2 d/dp_2, 3 d/dp_3, ...) to g.

    Each monomial of f acts by composing the commuting operators
    k * d/dp_k over its parts.
    """
    f._check_compatible(g)
    out = SymFunc.zero(f.truncation)
    for lam, c in f._terms.items():
        cur = g
        for part in lam:
            cur = partial_p(part, cur) * part
            if cur.is_zero():
                break
        out = out + cur * c
    return out


def _powers(f):
    """f, f^2, ..., f^K for the largest K with K * valuation(f) <= the
    truncation, nothing for f = 0; f must have no constant term, so that
    the series summed over these powers converge."""
    if f.coefficient(()):
        raise ValueError("a power series in f requires f to have no constant term")
    val = f.valuation()
    if val is None:
        return
    power = f
    yield power
    for _ in range(1, f.truncation // val):
        power = power * f
        yield power


def log_inv(f):
    """-log(1 - f) = sum_{k>=1} f^k / k, truncated; f must have valuation >= 1.

    f may be a ``SymFunc`` or a ``WreathSymFunc``; the result has its type.
    """
    out = type(f).zero(f.truncation)
    for k, power in enumerate(_powers(f), start=1):
        out = out + power * Fraction(1, k)
    return out


def geom(f):
    """1/(1 - f) = sum_{k>=0} f^k, truncated; f must have valuation >= 1.

    f may be a ``SymFunc`` or a ``WreathSymFunc``; the result has its type.
    """
    out = type(f).one(f.truncation)
    for power in _powers(f):
        out = out + power
    return out
