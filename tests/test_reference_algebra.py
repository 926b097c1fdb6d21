"""The ring product, plethysm and ``specialize_s2`` against a naive reference.

The reference below works on plain dicts from keys to ``Fraction``s and
shares no code with the truncated-series core: the product takes every
pair of terms and keeps those of degree at most N, and a substitution
multiplies out every monomial factor by factor in key order, with no image
cache and no skipped monomial.  The program's product stops at the first
right-hand term above the room left by the left-hand one.  Its
substitution caches each factor's image with the image's valuation, skips
a monomial whose image valuations sum past N (a zero image counting as
N + 1), and multiplies the images highest valuation first.  Every one of
these shortcuts must give the same values as the reference.

The log and geometric series are checked against their power-sum
definitions, which build every power f, f^2, ... as a full truncated
product: the program runs the recurrence g_d = sum_j f_j g_{d-j} for
1/(1 - f), takes -log(1 - f) from one more product through the Euler
operator, and sums the cyclic series over the Adams images of one
logarithm.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plethys.series import ModuleSpec, a_series
from plethys.symfunc import (
    SymFunc,
    _cyclic_sum,
    _substitute,
    adams,
    euler_phi,
    geom,
    log_inv,
    plethysm,
)
from plethys.wreath import E_CLASS, WreathSymFunc, dih_series_closed, specialize_s2
from test_properties import ALGEBRAS, LAWS, coefficients, keys, legs, value_at, values

# -- reference, not used by the program ---------------------------------------


def degree(key):
    """Degree of a partition or of a wreath monomial of (k, tag) factors."""
    return sum(f if isinstance(f, int) else f[0] for f in key)


def nonzero(terms):
    return {key: c for key, c in terms.items() if c}


def product_ref(a, b, N, descending):
    out = {}
    for key1, c1 in a.items():
        for key2, c2 in b.items():
            if degree(key1) + degree(key2) <= N:
                key = tuple(sorted(key1 + key2, reverse=descending))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return nonzero(out)


def adams_ref(k, g, N):
    return {tuple(part * k for part in lam): c for lam, c in g.items() if k * degree(lam) <= N}


def partial_ref(k, f):
    out = {}
    for lam, c in f.items():
        if k in lam:
            rest = list(lam)
            rest.remove(k)
            out[tuple(rest)] = out.get(tuple(rest), Fraction(0)) + c * lam.count(k)
    return nonzero(out)


def substitute_ref(terms, image, N):
    """sum c * image(x_1) * image(x_2) * ..., every image taken afresh."""
    out = {}
    for key, c in terms:
        acc = {(): Fraction(1)}
        for x in key:
            acc = product_ref(acc, image(x), N, descending=True)
        for lam, d in acc.items():
            out[lam] = out.get(lam, Fraction(0)) + c * d
    return nonzero(out)


def plethysm_ref(f, g):
    N = f.truncation
    gterms = dict(g.terms())
    return SymFunc(N, substitute_ref(f.terms(), lambda part: adams_ref(part, gterms, N), N))


def legs_ref(f):
    """f'' in p_1 and df/dp_2, the specialization inputs of f."""
    fterms = dict(f.terms())
    N = f.truncation
    return (
        SymFunc(N, partial_ref(1, partial_ref(1, fterms))),
        SymFunc(N, partial_ref(2, fterms)),
    )


def specialize_s2_ref(w, core, adot):
    N = w.truncation
    core, adot = dict(core.terms()), dict(adot.terms())

    def image(factor):
        k, tag = factor
        if tag == E_CLASS:
            return adams_ref(k, core, N)
        return {lam: 2 * c for lam, c in adams_ref(k, adot, N).items()}

    return SymFunc(N, substitute_ref(w.terms(), image, N))


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


def log_inv_ref(f):
    """-log(1 - f) = sum_{k>=1} f^k / k, truncated; f must have valuation >= 1."""
    out = type(f).zero(f.truncation)
    for k, power in enumerate(_powers(f), start=1):
        out = out + power * Fraction(1, k)
    return out


def geom_ref(f):
    """1/(1 - f) = sum_{k>=0} f^k, truncated; f must have valuation >= 1."""
    out = type(f).one(f.truncation)
    for power in _powers(f):
        out = out + power
    return out


def cyclic_sum_ref(g):
    """sum_n (phi(n)/n) * (-log(1 - adams(n, g))), one logarithm per n."""
    N = g.truncation
    out = type(g).zero(N)
    for n in range(1, N + 1):
        out = out + log_inv_ref(adams(n, g)) * Fraction(euler_phi(n), n)
    return out


# -- the comparisons ----------------------------------------------------------


@LAWS
@given(data=st.data())
def test_product_matches_all_pairs(data):
    for cls in (SymFunc, WreathSymFunc):
        a, b = data.draw(values(cls, 2))
        N = a.truncation
        want = product_ref(dict(a.terms()), dict(b.terms()), N, descending=cls is SymFunc)
        assert a * b == cls(N, want)


@LAWS
@given(data=st.data())
def test_plethysm_matches_term_by_term(data):
    (f,) = data.draw(values(SymFunc, 1))
    N = f.truncation
    g = value_at(data, SymFunc, N, min_degree=1)
    want = plethysm_ref(f, g)
    assert plethysm(f, g) == want
    # the substitution's result does not depend on the order of its terms
    shuffled = data.draw(st.permutations(list(f.terms())))
    assert _substitute(shuffled, lambda part: adams(part, g), N) == want


@LAWS
@given(data=st.data())
def test_specialize_s2_matches_term_by_term(data):
    N = data.draw(st.integers(3, 6))
    w = value_at(data, WreathSymFunc, N)
    # terms of degree 3 and up survive both derivatives
    f = value_at(data, SymFunc, N, min_degree=3)
    assert specialize_s2(w, *legs(f)) == specialize_s2_ref(w, *legs_ref(f))


def test_specialize_s2_matches_on_the_dihedral_series():
    N = 12
    w = dih_series_closed(N)
    a0 = a_series(ModuleSpec.standard(), 0, N)
    assert specialize_s2(w, *legs(a0)) == specialize_s2_ref(w, *legs_ref(a0))
    # lowest genus-0 arity 5: the image of P_k or Q_k has valuation 3k, so
    # every wreath monomial of degree 5 and up is skipped and those of
    # degree 4 land exactly on the truncation
    a0 = a_series(ModuleSpec(genus0={5: [(5,)], 6: [(3, 3)], 7: [(4, 2, 1)]}), 0, N)
    assert [f.valuation() for f in legs(a0)] == [3, 3]
    assert specialize_s2(w, *legs(a0)) == specialize_s2_ref(w, *legs_ref(a0))


def test_plethysm_skips_exactly_the_zero_products():
    N = 8
    # a constant term, and monomials whose image valuations sum below, at
    # and past the truncation
    f = SymFunc(
        N,
        {
            (): 3,
            (1,): 1,
            (2, 1): Fraction(1, 2),
            (2, 2): -1,
            (3, 1): 2,
            (4,): Fraction(-2, 3),
            (2, 2, 1, 1): 5,
            (8,): 1,
        },
    )
    for g in (
        SymFunc(N, {(2,): 1, (1, 1): Fraction(1, 2), (3,): 2, (2, 1, 1): -1}),
        SymFunc(N, {(3,): 1, (2, 1, 1): -1, (4, 1): Fraction(1, 7)}),
        SymFunc.zero(N),
    ):
        assert g.valuation() is None or g.valuation() >= 2
        assert plethysm(f, g) == plethysm_ref(f, g)
    assert plethysm(f, SymFunc.zero(N)) == SymFunc.one(N) * 3


@st.composite
def series_argument(draw, cls):
    """A value of cls at a truncation N <= 12 with valuation 1, 2 or 3."""
    N = draw(st.integers(1, 12))
    val = draw(st.integers(1, min(3, N)))
    terms = draw(st.dictionaries(keys(cls, N, val), coefficients, max_size=4))
    lowest = draw(keys(cls, val, val))
    terms[lowest] = draw(coefficients.filter(bool))
    f = cls(N, terms)
    assert f.valuation() == val
    return f


@pytest.mark.parametrize("cls", ALGEBRAS)
@LAWS
@given(data=st.data())
def test_series_match_the_power_sums(cls, data):
    f = data.draw(series_argument(cls))
    assert geom(f) == geom_ref(f)
    assert log_inv(f) == log_inv_ref(f)
    assert _cyclic_sum(f) == cyclic_sum_ref(f)


@pytest.mark.parametrize("cls", ALGEBRAS)
def test_series_of_zero_and_of_a_constant_term(cls):
    for N in (1, 2, 12):
        zero, one = cls.zero(N), cls.one(N)
        p1 = SymFunc.p(1, N) if cls is SymFunc else WreathSymFunc.gen_p(1, N)
        assert geom(zero) == geom_ref(zero) == one
        assert log_inv(zero) == log_inv_ref(zero) == zero
        assert _cyclic_sum(zero) == cyclic_sum_ref(zero) == zero
        for f in (one, p1 - one * Fraction(1, 2)):
            for call in (geom, log_inv, _cyclic_sum, geom_ref, log_inv_ref, cyclic_sum_ref):
                with pytest.raises(
                    ValueError, match="^a power series in f requires f to have no constant term$"
                ):
                    call(f)
