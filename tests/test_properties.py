"""Property tests of the truncated-series laws, run on both algebras.

``SymFunc`` and ``WreathSymFunc`` share one core, so every law is checked
on each of them with random values: ring laws with ``zero`` and ``one`` as
identities, powers, the geometric and log series, the JSON form the
library writes, and that values of the two algebras never mix.  The operations beyond the ring
have their laws too: plethysm is a ring homomorphism in its left argument,
``partial_p`` obeys the Leibniz rule, ``specialize_s2`` is
multiplicative, commutes with Adams operations and takes the closed
dihedral series to the necklace formula at any two inputs, and the
rooted-tree series solves f = p_1 + a0' o f.  Plethysm associativity and the composition of Adams
operations are acceptance criteria 8a and 8b in ``test_acceptance.py``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from plethys.series import ModuleSpec, a_series, tree_fixed_point
from plethys.symfunc import (
    SymFunc,
    _necklace_formula,
    adams,
    geom,
    log_inv,
    partial_p,
    partitions_of,
    plethysm,
)
from plethys.wreath import E_CLASS, T_CLASS, WreathSymFunc, dih_series_closed, specialize_s2

ALGEBRAS = (SymFunc, WreathSymFunc)

# fixed example sequence: the tier-1 run must not depend on a random seed
LAWS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def keys(cls, truncation, min_degree):
    """Keys of degree min_degree..truncation: partitions, or partitions
    whose parts each get a class tag for the wreath algebra."""
    partitions = st.integers(min_degree, truncation).flatmap(
        lambda d: st.sampled_from(partitions_of(d))
    )
    if cls is SymFunc:
        return partitions
    tag = st.sampled_from((E_CLASS, T_CLASS))
    return partitions.flatmap(lambda lam: st.tuples(*[st.tuples(st.just(k), tag) for k in lam]))


@st.composite
def values(draw, cls, count, min_degree=0):
    """count values of cls at one random truncation."""
    N = draw(st.integers(1, 5))
    terms = st.dictionaries(keys(cls, N, min_degree), coefficients, max_size=4)
    return [cls(N, draw(terms)) for _ in range(count)]


def value_at(data, cls, N, min_degree=0):
    """One more value of cls at truncation N."""
    return cls(N, data.draw(st.dictionaries(keys(cls, N, min_degree), coefficients, max_size=4)))


def legs(f):
    """The two specialization inputs of f: f'' in p_1 and df/dp_2."""
    return partial_p(1, partial_p(1, f)), partial_p(2, f)


def exp_series(f):
    """exp(f) = sum_k f^k / k!, truncated; f must have no constant term."""
    out = term = type(f).one(f.truncation)
    for k in range(1, f.truncation + 1):
        term = term * f * Fraction(1, k)
        out = out + term
    return out


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data())
def test_ring_laws(cls, data):
    a, b, c = data.draw(values(cls, 3))
    N = a.truncation
    zero, one = cls.zero(N), cls.one(N)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a * zero == zero
    assert a - a == zero


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data(), exponent=st.integers(0, 5))
def test_power_is_repeated_product(cls, data, exponent):
    (a,) = data.draw(values(cls, 1))
    expected = cls.one(a.truncation)
    for _ in range(exponent):
        expected = expected * a
    assert a**exponent == expected


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data())
def test_geom_inverts_one_minus(cls, data):
    (f,) = data.draw(values(cls, 1, min_degree=1))
    one = cls.one(f.truncation)
    assert geom(f) * (one - f) == one


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data())
def test_exp_of_log_inv_is_geom(cls, data):
    # exp(-log(1 - f)) = 1/(1 - f)
    (f,) = data.draw(values(cls, 1, min_degree=1))
    assert type(log_inv(f)) is cls
    assert exp_series(log_inv(f)) == geom(f)


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data())
def test_json_roundtrip(cls, data):
    # series JSON is output only, so the written terms are decoded here: a
    # partition list, or wreath groups each repeated by its exp
    (a,) = data.draw(values(cls, 1))
    obj = a.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
    assert obj["truncation"] == a.truncation
    decoded = []
    for entry in obj["terms"]:
        if cls is SymFunc:
            key = tuple(entry["partition"])
        else:
            key = tuple((g["k"], g["class"]) for g in entry["key"] for _ in range(g["exp"]))
        decoded.append((key, Fraction(int(entry["num"]), int(entry["den"]))))
    assert decoded == list(a.terms())


@LAWS
@given(data=st.data())
def test_algebras_never_mix(data):
    (w,) = data.draw(values(WreathSymFunc, 1))
    N = w.truncation
    # same truncation, so only the type can be what refuses the mix
    s = value_at(data, SymFunc, N)
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(s, w)
        with pytest.raises(TypeError):
            op(w, s)
    assert (s == w) is False
    assert (w == s) is False
    assert s != w
    assert SymFunc.one(N) != WreathSymFunc.one(N)


# -- plethysm, derivatives and the s2 specialization ------------------------


@LAWS
@given(data=st.data())
def test_plethysm_is_a_ring_homomorphism_in_f(data):
    f1, f2 = data.draw(values(SymFunc, 2))
    N = f1.truncation
    g = value_at(data, SymFunc, N, min_degree=1)
    assert plethysm(f1 + f2, g) == plethysm(f1, g) + plethysm(f2, g)
    assert plethysm(f1 * f2, g) == plethysm(f1, g) * plethysm(f2, g)
    assert plethysm(SymFunc.one(N), g) == SymFunc.one(N)


@LAWS
@given(data=st.data())
def test_partial_p_leibniz_rule(data):
    a, b = data.draw(values(SymFunc, 2))
    N = a.truncation
    k = data.draw(st.integers(1, N))
    # the truncated product has lost the degrees above N, so the rule holds
    # up to degree N - k (degree 0 alone when k = N)
    lhs = partial_p(k, a * b)
    rhs = partial_p(k, a) * b + a * partial_p(k, b)
    for d in range(N - k + 1):
        assert lhs.degree_part(d) == rhs.degree_part(d)


@LAWS
@given(data=st.data())
def test_specialize_s2_is_multiplicative(data):
    N = data.draw(st.integers(3, 5))
    w1 = value_at(data, WreathSymFunc, N)
    w2 = value_at(data, WreathSymFunc, N)
    # f from degree 3 up sends a wreath monomial of degree d to terms of
    # degree >= d, so the truncation of w1 * w2 loses nothing it would keep
    f = value_at(data, SymFunc, N, min_degree=3)
    f = legs(f)
    assert specialize_s2(w1 * w2, *f) == specialize_s2(w1, *f) * specialize_s2(w2, *f)
    assert specialize_s2(WreathSymFunc.one(N), *f) == SymFunc.one(N)


@LAWS
@given(data=st.data())
def test_specialize_s2_dihedral_series_is_necklace_formula(data):
    # the two necklace routes agree as an identity in their two inputs,
    # not only at core = a0'' and adot = da0/dp_2.  The dihedral series is
    # the same formula at P_1 and Q_1/2, so this checks the substitution:
    # P_1 -> core, Q_1 -> 2 adot, and that it commutes with Adams operations
    N = data.draw(st.integers(1, 6))
    core = value_at(data, SymFunc, N, min_degree=1)
    adot = value_at(data, SymFunc, N, min_degree=1)
    assert specialize_s2(dih_series_closed(N), core, adot) == _necklace_formula(core, adot)


@LAWS
@given(data=st.data())
def test_specialize_s2_commutes_with_adams(data):
    # the one check of adams on Q factors: the library applies the wreath
    # adams only to P_1, inside the dihedral series
    N = data.draw(st.integers(2, 6))
    w = value_at(data, WreathSymFunc, N) + WreathSymFunc.gen_q(data.draw(st.integers(1, N)), N)
    assume(any(tag == T_CLASS for key, _ in w.terms() for _, tag in key))
    core = value_at(data, SymFunc, N, min_degree=1)
    adot = value_at(data, SymFunc, N, min_degree=1)
    k = data.draw(st.integers(1, 3))
    assert specialize_s2(adams(k, w), core, adot) == adams(k, specialize_s2(w, core, adot))



@st.composite
def young_modules(draw, max_arity=8, genus1=False):
    """A module of Young summands and a truncation N <= max_arity: genus 0
    in arities 3..max_arity and, with ``genus1``, genus 1 in arities
    1..max_arity - 2.  a_series drops the arities above N."""

    def summands(low, high):
        arities = draw(st.sets(st.integers(low, high), max_size=3))
        return {
            m: draw(st.lists(st.sampled_from(partitions_of(m)), min_size=1, max_size=2))
            for m in sorted(arities)
        }

    N = draw(st.integers(1, max_arity))
    genus0 = summands(3, max_arity)
    return ModuleSpec(genus0, summands(1, max_arity - 2) if genus1 else None), N


@LAWS
@given(young_modules())
def test_tree_fixed_point_equation(module):
    # f = p1 + a0' o f with lowest term p1 has one solution, so these two
    # checks pin the series
    spec, N = module
    a0 = a_series(spec, 0, N)
    f = tree_fixed_point(a0)
    p1 = SymFunc.p(1, N)
    assert f == p1 + plethysm(partial_p(1, a0), f)
    rest = (f - p1).valuation()
    assert rest is None or rest >= 2
