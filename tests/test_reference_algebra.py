"""The ring product, plethysm and ``specialize_s2`` against a naive reference.

The reference below works on plain dicts from keys to ``Fraction``s and
shares no code with the truncated-series core: the product takes every
pair of terms and keeps those of degree at most N, and a substitution
multiplies out every monomial factor by factor, with no image cache and no
early exit.  The program's product stops at the first right-hand term
above the room left by the left-hand one, and its substitution caches each
factor's image and stops on a zero partial product; every one of these
shortcuts must give the same values as the reference.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from plethys.symfunc import SymFunc, _substitute, adams, plethysm
from plethys.wreath import E_CLASS, WreathSymFunc, specialize_s2
from test_properties import LAWS, value_at, values

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


def specialize_s2_ref(w, f):
    N = f.truncation
    fterms = dict(f.terms())
    fpp = partial_ref(1, partial_ref(1, fterms))
    fdot = partial_ref(2, fterms)

    def image(factor):
        k, tag = factor
        if tag == E_CLASS:
            return adams_ref(k, fpp, N)
        return {lam: 2 * c for lam, c in adams_ref(k, fdot, N).items()}

    return SymFunc(N, substitute_ref(w.terms(), image, N))


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
    assert specialize_s2(w, f) == specialize_s2_ref(w, f)
