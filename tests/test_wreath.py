import random
from fractions import Fraction

import pytest

from plethys.groups import hyperoct_dihedral, ind_trivial_char_wreath
from plethys.symfunc import SymFunc, adams, geom, h_gen, log_inv, partial_p, partitions_of
from plethys.wreath import (
    WreathSymFunc,
    deg1_iso,
    dih_char_closed,
    dih_series_closed,
    plethysm_deg1,
    specialize_s2,
)

P = WreathSymFunc.gen_p
Q = WreathSymFunc.gen_q


def random_wreath(rng, truncation, max_terms=4):
    out = WreathSymFunc.zero(truncation)
    for _ in range(rng.randint(1, max_terms)):
        factors = WreathSymFunc.one(truncation)
        budget = rng.randint(1, truncation)
        while budget > 0:
            k = rng.randint(1, budget)
            gen = P(k, truncation) if rng.random() < 0.5 else Q(k, truncation)
            factors = factors * gen
            budget -= k
        out = out + factors * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return out


def random_symfunc(rng, truncation, min_degree=1):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(min_degree, truncation)
        lam = rng.choice(partitions_of(d))
        terms[lam] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SymFunc(truncation, terms)


def test_ring_ops():
    N = 3
    assert P(1, N) * Q(1, N) == WreathSymFunc(N, {((1, "e"), (1, "t")): 1})
    w = random_wreath(random.Random(1), N)
    assert w + WreathSymFunc.zero(N) == w
    assert P(2, N) * P(2, N) == WreathSymFunc.zero(N)


def test_truncation_mismatch():
    with pytest.raises(ValueError):
        P(1, 3) + P(1, 4)


def test_generators_above_truncation_vanish():
    assert P(5, 4).is_zero()
    assert Q(5, 4).is_zero()


def test_dih_char_closed_small():
    N = 6
    assert dih_char_closed(1, N) == (P(1, N) + Q(1, N)) * Fraction(1, 2)
    assert dih_char_closed(2, N) == (
        P(1, N) ** 2 + P(2, N) * 2 + Q(1, N) ** 2
    ) * Fraction(1, 4)
    assert dih_char_closed(3, N) == (P(1, N) ** 3 + P(3, N) * 2) * Fraction(1, 6) + Q(
        1, N
    ) * P(2, N) * Fraction(1, 2)


def test_dih_char_closed_matches_subgroup_average():
    N = 8
    for n in range(1, N + 1):
        assert dih_char_closed(n, N) == ind_trivial_char_wreath(hyperoct_dihedral(n), N)


def test_dih_series_degree_parts():
    N = 7
    series = dih_series_closed(N)
    for n in range(1, N + 1):
        assert series.degree_part(n) == dih_char_closed(n, N)


def test_log_inv_geom_on_wreath():
    N = 4
    p1 = P(1, N)
    assert log_inv(p1) == p1 + p1 ** 2 * Fraction(1, 2) + p1 ** 3 * Fraction(
        1, 3
    ) + p1 ** 4 * Fraction(1, 4)
    assert geom(P(2, N)) == WreathSymFunc.one(N) + P(2, N) + P(2, N) ** 2
    with pytest.raises(ValueError):
        log_inv(WreathSymFunc.one(N))


def test_specialize_s2_generators():
    N = 6
    rng = random.Random(9)
    f = random_symfunc(rng, N, min_degree=3)
    fpp = partial_p(1, partial_p(1, f))
    fdot = partial_p(2, f)
    assert specialize_s2(P(1, N), f) == fpp
    assert specialize_s2(Q(1, N), f) == fdot * 2
    assert specialize_s2(Q(1, N) * P(2, N), f) == (fdot * 2) * adams(2, fpp)


def test_specialize_s2_multiplicative_and_linear():
    rng = random.Random(15)
    for _ in range(25):
        N = rng.randint(3, 6)
        a = random_wreath(rng, N)
        b = random_wreath(rng, N)
        f = random_symfunc(rng, N, min_degree=3)
        assert specialize_s2(a * b, f) == specialize_s2(a, f) * specialize_s2(b, f)
        assert specialize_s2(a + b, f) == specialize_s2(a, f) + specialize_s2(b, f)


def test_specialize_s2_adams_compatibility():
    rng = random.Random(19)
    for _ in range(15):
        N = rng.randint(3, 6)
        f = random_symfunc(rng, N, min_degree=3)
        for n in range(1, N + 1):
            assert specialize_s2(P(n, N), f) == adams(n, specialize_s2(P(1, N), f))
            assert specialize_s2(Q(n, N), f) == adams(n, specialize_s2(Q(1, N), f) * Fraction(1, 2)) * 2


def test_deg1_iso():
    N = 5
    assert deg1_iso((1, 1), N) == SymFunc(N, {(1, 1): 1})
    assert deg1_iso((2,), N) == SymFunc.p(2, N)
    assert deg1_iso((1,), N) == SymFunc.p(1, N)


def test_plethysm_deg1_anchors():
    N = 6
    rng = random.Random(21)
    g = random_symfunc(rng, N, min_degree=1)
    p1 = SymFunc.p(1, N)
    p2 = SymFunc.p(2, N)
    assert plethysm_deg1(p1 * p1, g) == partial_p(1, partial_p(1, g))
    assert plethysm_deg1(p2, g) == partial_p(2, g) * 2


def test_plethysm_deg1_h2_h4():
    N = 6
    got = plethysm_deg1(h_gen(2, N), h_gen(4, N))
    assert got == h_gen(2, N)
    with pytest.raises(ValueError):
        plethysm_deg1(SymFunc.p(1, N) + SymFunc.p(2, N), h_gen(4, N))


def test_json_roundtrip_and_canonical_key_order():
    N = 5
    w = dih_series_closed(N)
    obj = w.to_json_obj()
    assert WreathSymFunc.from_json_obj(obj) == w
    for term in obj["terms"]:
        for factor in term["key"]:
            assert factor["class"] in ("e", "t")
            assert factor["exp"] >= 1
    # terms in (degree, key) order
    def decode(term):
        key = []
        for factor in term["key"]:
            key.extend([(factor["k"], factor["class"])] * factor["exp"])
        return (sum(k for k, _ in key), tuple(key))

    keys = [decode(t) for t in obj["terms"]]
    assert keys == sorted(keys)


def test_str_rendering():
    N = 4
    assert str(WreathSymFunc.zero(N)) == "0"
    assert str(dih_char_closed(1, N)) == "1/2*P1 + 1/2*Q1"
