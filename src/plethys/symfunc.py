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
``adams``, ``log_inv``, ``geom`` and the necklace formula work in either.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod
from operator import itemgetter

Partition = tuple


def partition_sort_key(lam: Partition):
    """Sort key realizing the canonical (degree, reverse-lex) order."""
    return (sum(lam), tuple(-part for part in lam))


def _is_int(value) -> bool:
    # every input's integer test: True is an int subclass, and 2.0 == 2
    return type(value) is int


def _check_int(value, name: str, least: int = 1) -> int:
    """``value``, if it is an ``int`` of at least ``least`` (1 or 0), else ``ValueError``."""
    if not _is_int(value) or value < least:
        raise ValueError(
            f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}"
        )
    return value


def _validate_partition(lam) -> Partition:
    lam = tuple(lam)
    for i, part in enumerate(lam):
        if not _is_int(part) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {lam!r}")
        if i and lam[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {lam!r}")
    return lam


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, each exactly once, in reverse-lex order.

    The empty partition is the unique partition of 0.
    """
    _check_int(n, "n", least=0)
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
    runs = [(part, len(list(run))) for part, run in groupby(_validate_partition(lam))]
    return prod(part**m * factorial(m) for part, m in runs)


def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization."""
    _check_int(n, "n")
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


def _check_type(value, cls) -> None:
    """``TypeError`` unless ``value`` is exactly a ``cls``: the operations on
    one ring's keys take no other ring's values."""
    if type(value) is not cls:
        raise TypeError(f"expected {cls.__name__}, got {type(value).__name__}")


def _as_fraction(value) -> Fraction:
    """An ``int`` or ``Fraction`` coefficient; else ``TypeError``, ``bool`` included."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
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
    ``_scale_key``     a key with every factor's degree multiplied by k
    ``_sort_key``      canonical term order (by degree first)
    ``_descending``    whether the factors inside a key sort descending
    ``_factor_str``    rendering of one generator factor
    ``_json_field``, ``_key_to_json``  the JSON field name and key form

    Everything else (validation, ring operations, equality, rendering and
    the JSON form) lives here.  Values of two different subclasses never
    mix: sums and products raise ``TypeError`` and they never compare equal.
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: int, terms=None):
        _check_int(truncation, "truncation")
        clean: dict[tuple, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
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
        _check_int(k, "generator index")
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
        _check_int(d, "degree", least=0)
        degree = self._key_degree
        return self._raw(
            self.truncation,
            {key: c for key, c in self._terms.items() if degree(key) == d},
        )

    def truncated(self, new_truncation: int):
        """The same value carried at a lower truncation (terms above it
        are dropped).  Raising the truncation is refused: the discarded
        degrees are not recoverable."""
        _check_int(new_truncation, "truncation")
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
        _check_type(other, type(self))
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, c in other._terms.items():
            # a key new to the sum keeps its coefficient, never zero
            acc = terms[key] + c if key in terms else c
            if acc:
                terms[key] = acc
            else:
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
        _check_int(exponent, "exponent", least=0)
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


class SymFunc(_TruncatedSeries):
    """A truncated symmetric function with exact rational coefficients.
    Keys are partitions: the key lam stands for p_lam."""

    __slots__ = ()

    _validate_key = staticmethod(_validate_partition)
    _key_degree = staticmethod(sum)
    _scale_key = staticmethod(lambda lam, k: tuple(part * k for part in lam))
    _sort_key = staticmethod(partition_sort_key)
    _descending = True
    _json_field = "partition"
    _key_to_json = staticmethod(list)

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
    _check_int(n, "n")
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


def adams(k: int, f):
    """k-th Adams operation: substitute p_j -> p_{jk} (P_j -> P_{jk} and
    Q_j -> Q_{jk} for a ``WreathSymFunc``, the result having f's type);
    degrees multiply by k."""
    _check_int(k, "Adams index")
    N = f.truncation
    degree = f._key_degree
    scale = f._scale_key
    terms = {}
    for key, c in f._terms.items():
        if k * degree(key) > N:
            continue
        terms[scale(key, k)] = c
    return f._raw(N, terms)


def plethysm(f: SymFunc, g: SymFunc) -> SymFunc:
    """Plethysm f o g, a ring homomorphism in f sending p_k to adams(k, g).

    g must have no constant term, otherwise the substitution does not
    converge as a formal series.
    """
    _check_type(f, SymFunc)
    f._check_compatible(g)
    if g.coefficient(()):
        raise ValueError("plethysm requires the right argument to have no constant term")
    return _substitute(f._terms.items(), lambda part: adams(part, g), f.truncation)


def _substitute(terms, image, truncation: int) -> SymFunc:
    """sum c * image(x_1) * image(x_2) * ... over the (monomial, c) pairs
    in ``terms``, a monomial being the tuple of its factors x_i.

    ``image`` is called once per distinct factor, and each image's
    valuation is taken with it, a zero image counting as valuation N + 1.
    A monomial whose image valuations sum past the truncation N has a zero
    product and is skipped; every other product is nonzero.  The images are
    multiplied highest valuation first (a stable sort, so equal valuations
    keep the monomial's own order), so the partial products start sparse.
    Partition keys list their largest part first, so a plethysm's images
    already come in that order.
    """
    images: dict = {}

    def valued_image(x):
        entry = images.get(x)
        if entry is None:
            value = image(x)
            val = value.valuation()
            entry = images[x] = (truncation + 1 if val is None else val, value)
        return entry

    out = SymFunc.zero(truncation)
    for key, c in terms:
        factors = sorted(map(valued_image, key), key=itemgetter(0), reverse=True)
        if sum(val for val, _ in factors) > truncation:
            continue
        acc = SymFunc.one(truncation)
        for _, value in factors:
            acc = acc * value
        out = out + acc * c
    return out


def partial_p(k: int, f: SymFunc) -> SymFunc:
    """Formal partial derivative with respect to p_k."""
    _check_int(k, "derivative index")
    _check_type(f, SymFunc)
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
    _check_type(f, SymFunc)
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


def geom(f):
    """1/(1 - f) = sum_{k>=0} f^k, truncated; f must have valuation >= 1.

    f may be a ``SymFunc`` or a ``WreathSymFunc``; the result has its type.
    It is computed degree by degree from g = 1 + f g: g_0 = 1 and
    g_d = sum_{j=1..d} f_j g_{d-j}, f_j and g_j being the degree-j parts,
    each term a ring product of two homogeneous parts.  Each pair of a
    term of f and a term of g is multiplied once, which is one truncated
    product's worth of work.
    """
    if f.coefficient(()):
        raise ValueError("a power series in f requires f to have no constant term")
    N = f.truncation
    f_parts = [(j, f.degree_part(j)) for j in range(1, N + 1)]
    f_parts = [(j, f_j) for j, f_j in f_parts if not f_j.is_zero()]
    g_parts = [f.one(N)]
    for d in range(1, N + 1):
        g_d = f.zero(N)
        for j, f_j in f_parts:
            if j <= d:
                g_d = g_d + f_j * g_parts[d - j]
        g_parts.append(g_d)
    return sum(g_parts[1:], g_parts[0])


def log_inv(f):
    """-log(1 - f) = sum_{k>=1} f^k / k, truncated; f must have valuation >= 1.

    f may be a ``SymFunc`` or a ``WreathSymFunc``; the result has its type.
    The Euler operator E, which multiplies the degree-d part by d, is a
    derivation, so E(-log(1 - f)) = E(f) / (1 - f) = E(f) * geom(f): the
    series is that one product with its degree-d part divided by d.
    """
    g = geom(f)
    degree = f._key_degree
    euler_f = f._raw(f.truncation, {key: c * degree(key) for key, c in f._terms.items()})
    # f has no constant term, so neither has the product: no degree is 0
    product = euler_f * g
    return f._raw(f.truncation, {key: c / degree(key) for key, c in product._terms.items()})


def _cyclic_sum(g):
    """The cycle index of cyclically ordered arrangements of g-structures:
    sum_n (phi(n)/n) * (-log(1 - adams(n, g))), truncated, in g's ring.

    An Adams operation is a ring homomorphism that multiplies degrees by
    n >= 1, so it commutes with truncation and with the log series: the sum
    takes one logarithm L = -log(1 - g) and adds (phi(n)/n) * adams(n, L).
    """
    N = g.truncation
    log = log_inv(g)
    out = type(g).zero(N)
    for n in range(1, N + 1):
        out = out + adams(n, log) * Fraction(euler_phi(n), n)
    return out


def _necklace_formula(core, adot):
    """Sum over unordered necklaces of vertices from ``core`` (ordered pair
    of marked legs) and ``adot`` (da0/dp_2), in their ring; ``wreath``'s
    dihedral series is this formula at P_1 and Q_1/2.  The rotation part is
    half the oriented sum.  The reflection part is (adot * (1 + adot) +
    (1/4) adams(2, core)) / (1 - adams(2, core)): reflections whose axis
    passes through a vertex give the adot terms, and those whose axis
    passes through two edges give the quarter term.
    """
    rotations = _cyclic_sum(core) * Fraction(1, 2)
    psi2 = adams(2, core)
    refl = adot * (type(core).one(core.truncation) + adot) + psi2 * Fraction(1, 4)
    return rotations + refl * geom(psi2)
