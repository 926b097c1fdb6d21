"""Property tests of the truncated-series laws, run on both algebras.

``SymFunc`` and ``WreathSymFunc`` share one core, so every law is checked
on each of them with random values: ring laws with ``zero`` and ``one`` as
identities, powers, the geometric and log series, the JSON round trip, and
that values of the two algebras never mix.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plethys.symfunc import SymFunc, geom, log_inv, partitions_of
from plethys.wreath import E_CLASS, T_CLASS, WreathSymFunc

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
    s = SymFunc(N, data.draw(st.dictionaries(keys(SymFunc, N, 0), coefficients, max_size=4)))
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(s, w)
        with pytest.raises(TypeError):
            op(w, s)
    assert (s == w) is False
    assert (w == s) is False
    assert s != w
    assert SymFunc.one(N) != WreathSymFunc.one(N)
