import random
from fractions import Fraction

import pytest

from plethys.groups import hyperoct_dihedral, ind_trivial_char_wreath
from plethys.symfunc import (
    SymFunc,
    adams,
    d_operator,
    euler_phi,
    geom,
    h_gen,
    log_inv,
    partitions_of,
)
from plethys.wreath import (
    WreathSymFunc,
    dih_series_closed,
    specialize_s2,
)
from test_properties import legs

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


def test_truncated_rejects_truncations_below_one():
    # the truncations the constructor refuses
    for n in (0, -2, True):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            dih_series_closed(6).truncated(n)
    # True is an int, but neither a truncation nor a generator index
    for build in (lambda: dih_series_closed(True), lambda: P(1, True)):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            build()
    for build in (
        lambda: P(True, 3),
        lambda: Q(True, 3),
        lambda: WreathSymFunc(3, {((True, "e"),): 1}),
    ):
        with pytest.raises(ValueError, match="generator index must be a positive integer"):
            build()


def test_generators_above_truncation_vanish():
    assert P(5, 4).is_zero()
    assert Q(5, 4).is_zero()


def test_dih_series_closed_small():
    N = 6
    series = dih_series_closed(N)
    assert series.degree_part(1) == (P(1, N) + Q(1, N)) * Fraction(1, 2)
    assert series.degree_part(2) == (
        P(1, N) ** 2 + P(2, N) * 2 + Q(1, N) ** 2
    ) * Fraction(1, 4)
    assert series.degree_part(3) == (P(1, N) ** 3 + P(3, N) * 2) * Fraction(1, 6) + Q(
        1, N
    ) * P(2, N) * Fraction(1, 2)


def test_dih_char_closed_matches_subgroup_average():
    """The closed-form dihedral characters are the subgroup averages."""
    N = 8
    series = dih_series_closed(N)
    assert series.degree_part(0).is_zero()
    for n in range(1, N + 1):
        assert series.degree_part(n) == ind_trivial_char_wreath(hyperoct_dihedral(n), N)


def test_dih_series_degree_parts():
    """Each degree part is the rotation sum plus the reflection term that
    the ``dih_series_closed`` docstring states."""
    N = 7
    series = dih_series_closed(N)
    for n in range(1, N + 1):
        rotations = WreathSymFunc.zero(N)
        for d in range(1, n + 1):
            if n % d == 0:
                rotations = rotations + P(d, N) ** (n // d) * Fraction(euler_phi(d), 2 * n)
        if n % 2:
            reflections = Q(1, N) * P(2, N) ** ((n - 1) // 2) * Fraction(1, 2)
        else:
            reflections = (
                Q(1, N) ** 2 * P(2, N) ** (n // 2 - 1) + P(2, N) ** (n // 2)
            ) * Fraction(1, 4)
        assert series.degree_part(n) == rotations + reflections


def test_log_inv_geom_on_wreath():
    N = 4
    p1 = P(1, N)
    assert log_inv(p1) == p1 + p1 ** 2 * Fraction(1, 2) + p1 ** 3 * Fraction(
        1, 3
    ) + p1 ** 4 * Fraction(1, 4)
    assert geom(P(2, N)) == WreathSymFunc.one(N) + P(2, N) + P(2, N) ** 2
    with pytest.raises(ValueError):
        log_inv(WreathSymFunc.one(N))


def test_adams_scales_both_classes():
    N = 8
    assert adams(2, P(1, N) * Q(3, N) + Q(1, N)) == P(2, N) * Q(6, N) + Q(2, N)
    assert adams(3, Q(3, N)).is_zero()


def test_specialize_s2_generators():
    N = 6
    rng = random.Random(9)
    fpp, fdot = legs(random_symfunc(rng, N, min_degree=3))
    assert specialize_s2(P(1, N), fpp, fdot) == fpp
    assert specialize_s2(Q(1, N), fpp, fdot) == fdot * 2
    assert specialize_s2(Q(1, N) * P(2, N), fpp, fdot) == (fdot * 2) * adams(2, fpp)


def test_specialize_s2_truncation_mismatch():
    fpp, fdot = legs(h_gen(3, 4) + h_gen(4, 4))
    with pytest.raises(ValueError, match="truncation mismatch"):
        specialize_s2(P(1, 4), fpp, fdot.truncated(3))
    with pytest.raises(ValueError, match="truncation mismatch"):
        specialize_s2(P(1, 4), fpp.truncated(3), fdot)
    with pytest.raises(ValueError, match="truncation mismatch"):
        specialize_s2(P(1, 3), fpp, fdot)


def test_specialize_s2_rejects_constant_terms():
    # as plethysm does: a constant term would give the result a degree-0
    # part that depends on the truncation
    N = 4
    core, adot = legs(h_gen(3, N) + h_gen(4, N))
    one = SymFunc.one(N)
    for name, inputs in (("core", (core + one, adot)), ("adot", (core, adot + one))):
        with pytest.raises(ValueError, match=f"requires {name} to have no constant term"):
            specialize_s2(dih_series_closed(N), *inputs)


def test_specialize_s2_rejects_wrong_types():
    N = 4
    core, adot = legs(h_gen(3, N) + h_gen(4, N))
    with pytest.raises(TypeError, match="expected WreathSymFunc, got SymFunc"):
        specialize_s2(core, core, adot)
    with pytest.raises(TypeError, match="expected SymFunc, got WreathSymFunc"):
        specialize_s2(P(1, N), core, Q(1, N))


def test_specialize_s2_multiplicative_and_linear():
    rng = random.Random(15)
    for _ in range(25):
        N = rng.randint(3, 6)
        a = random_wreath(rng, N)
        b = random_wreath(rng, N)
        f = legs(random_symfunc(rng, N, min_degree=3))
        assert specialize_s2(a * b, *f) == specialize_s2(a, *f) * specialize_s2(b, *f)
        assert specialize_s2(a + b, *f) == specialize_s2(a, *f) + specialize_s2(b, *f)


def test_specialize_s2_adams_compatibility():
    rng = random.Random(19)
    for _ in range(15):
        N = rng.randint(3, 6)
        f = legs(random_symfunc(rng, N, min_degree=3))
        for n in range(1, N + 1):
            assert specialize_s2(P(n, N), *f) == adams(n, specialize_s2(P(1, N), *f))
            assert specialize_s2(Q(n, N), *f) == adams(n, specialize_s2(Q(1, N), *f) * Fraction(1, 2)) * 2


def test_deg1_iso():
    # degree-one dictionary: the class of cycle type lam maps to p_lam
    N = 5
    assert SymFunc(N, {(1, 1): Fraction(1)}) == SymFunc(N, {(1, 1): 1})
    assert SymFunc(N, {(2,): Fraction(1)}) == SymFunc.p(2, N)
    assert SymFunc(N, {(1,): Fraction(1)}) == SymFunc.p(1, N)


def test_plethysm_deg1_h2_h4():
    N = 6
    got = d_operator(h_gen(2, N), h_gen(4, N))
    assert got == h_gen(2, N)


def test_json_roundtrip_and_canonical_key_order():
    N = 5
    w = dih_series_closed(N)
    obj = w.to_json_obj()
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


@pytest.mark.parametrize(
    "key, groups",
    [
        ((), []),
        (((1, "e"),), [(1, "e", 1)]),
        (((1, "t"),), [(1, "t", 1)]),
        (((1, "e"), (1, "e")), [(1, "e", 2)]),
        (((1, "t"), (1, "e")), [(1, "e", 1), (1, "t", 1)]),
        (((2, "e"), (1, "e"), (1, "e")), [(1, "e", 2), (2, "e", 1)]),
        (((1, "t"),) * 3, [(1, "t", 3)]),
        (((2, "t"), (1, "e"), (2, "t")), [(1, "e", 1), (2, "t", 2)]),
        (((1, "e"), (1, "t"), (1, "e"), (2, "e")), [(1, "e", 2), (1, "t", 1), (2, "e", 1)]),
    ],
    ids=["one", "P1", "Q1", "P1^2", "P1*Q1", "P1^2*P2", "Q1^3", "P1*Q2^2", "P1^2*Q1*P2"],
)
def test_to_json_obj_groups_equal_factors(key, groups):
    # a key is written in its sorted order, one {k, class, exp} group per
    # run of equal factors
    w = WreathSymFunc(6, {key: Fraction(-1, 3)})
    assert w.to_json_obj() == {
        "truncation": 6,
        "terms": [{"key": [{"k": k, "class": c, "exp": e} for k, c, e in groups], "num": "-1", "den": "3"}],
    }


def test_str_rendering():
    N = 4
    assert str(WreathSymFunc.zero(N)) == "0"
    assert str(dih_series_closed(1)) == "1/2*P1 + 1/2*Q1"
