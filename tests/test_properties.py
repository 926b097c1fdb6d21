"""Property tests of the truncated-series laws, run on both algebras.

``SymFunc`` and ``WreathSymFunc`` share one core, so every law is checked
on each of them with random values: ring laws with ``zero`` and ``one`` as
identities, powers, the geometric and log series, the JSON round trip, and
that values of the two algebras never mix.  The operations beyond the ring
have their laws too: plethysm is a ring homomorphism in its left argument,
``partial_p`` obeys the Leibniz rule and ``specialize_s2`` is
multiplicative, and the rooted-tree series solves f = p_1 + a0' o f.  Plethysm associativity and the composition of Adams
operations are acceptance criteria 8a and 8b in ``test_acceptance.py``.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plethys.series import ModuleSpec, a_series, tree_fixed_point
from plethys.symfunc import SymFunc, geom, log_inv, partial_p, partitions_of, plethysm
from plethys.wreath import E_CLASS, T_CLASS, WreathSymFunc, specialize_s2

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
    (a,) = data.draw(values(cls, 1))
    back = cls.from_json_obj(json.loads(json.dumps(a.to_json_obj())))
    assert back == a
    assert str(back) == str(a)


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
    # up to degree N - k
    lhs = partial_p(k, a * b)
    rhs = partial_p(k, a) * b + a * partial_p(k, b)
    assert lhs.truncated(N - k) == rhs.truncated(N - k)


@LAWS
@given(data=st.data())
def test_specialize_s2_is_multiplicative(data):
    N = data.draw(st.integers(3, 5))
    w1 = value_at(data, WreathSymFunc, N)
    w2 = value_at(data, WreathSymFunc, N)
    # f from degree 3 up sends a wreath monomial of degree d to terms of
    # degree >= d, so the truncation of w1 * w2 loses nothing it would keep
    f = value_at(data, SymFunc, N, min_degree=3)
    assert specialize_s2(w1 * w2, f) == specialize_s2(w1, f) * specialize_s2(w2, f)
    assert specialize_s2(WreathSymFunc.one(N), f) == SymFunc.one(N)



@st.composite
def young_modules(draw):
    """A genus-0 module of Young summands in arities 3..8 and a truncation
    N <= 8; a_series drops the arities above N."""
    N = draw(st.integers(1, 8))
    arities = draw(st.sets(st.integers(3, 8), max_size=3))
    genus0 = {
        m: draw(st.lists(st.sampled_from(partitions_of(m)), min_size=1, max_size=2))
        for m in sorted(arities)
    }
    return ModuleSpec(genus0=genus0), N


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
