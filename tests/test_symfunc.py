import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from plethys.symfunc import (
    SymFunc,
    adams,
    d_operator,
    euler_phi,
    geom,
    h_gen,
    h_lambda,
    log_inv,
    partial_p,
    partitions_of,
    plethysm,
    z_of,
)
from plethys.wreath import WreathSymFunc
from test_wreath import random_wreath


def brute_partitions(n):
    """Independent oracle: weakly decreasing positive tuples summing to n."""
    if n == 0:
        return {()}
    found = set()
    for first in range(1, n + 1):
        for rest in brute_partitions(n - first):
            if not rest or rest[0] <= first:
                found.add((first,) + rest)
    return found


def random_symfunc(rng, truncation, min_degree=1, max_terms=4):
    terms = {}
    degrees = list(range(min_degree, truncation + 1))
    for _ in range(rng.randint(1, max_terms)):
        d = rng.choice(degrees)
        lam = rng.choice(partitions_of(d))
        terms[lam] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SymFunc(truncation, terms)


def test_partitions_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert len(partitions_of(4)) == 5


def test_partitions_match_brute_force():
    for n in range(9):
        assert set(partitions_of(n)) == brute_partitions(n)
        assert len(partitions_of(n)) == len(set(partitions_of(n)))


@pytest.mark.parametrize("bad", [-1, True, False, 2.0, "3"])
def test_partitions_of_rejects_non_ints(bad):
    # True is an int, but not a size; 0 stays the one size with the empty partition
    with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {bad!r}$"):
        partitions_of(bad)


def test_partitions_reverse_lex_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(9):
        parts = partitions_of(n)
        keys = [tuple(-p for p in lam) for lam in parts]
        assert keys == sorted(keys)


def test_z_of_examples():
    assert z_of((1, 1, 1)) == 6
    assert z_of((2, 1)) == 2
    for n in range(1, 9):
        assert z_of((n,)) == n


def test_z_of_counts_conjugacy_classes():
    # sum over partitions of n!/z_lam is n! distributed over classes
    for n in range(1, 7):
        assert sum(math.factorial(n) // z_of(lam) for lam in partitions_of(n)) == math.factorial(n)


def test_z_reciprocals_sum_to_one():
    for n in range(1, 9):
        assert sum(Fraction(1, z_of(lam)) for lam in partitions_of(n)) == 1


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, 2.0])
def test_euler_phi_rejects_non_positive_ints(bad):
    with pytest.raises(ValueError, match=f"^n must be a positive integer, got {bad!r}$"):
        euler_phi(bad)


def test_euler_phi_unit_count_oracle():
    for n in range(1, 60):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_h_gen_small():
    N = 6
    assert h_gen(1, N) == SymFunc.p(1, N)
    assert h_gen(2, N) == SymFunc(N, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert h_gen(3, N) == SymFunc(
        N, {(3,): Fraction(1, 3), (2, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6)}
    )


def test_h_gen_rejects_above_truncation():
    with pytest.raises(ValueError):
        h_gen(4, 3)


def test_ring_ops():
    N = 3
    p1 = SymFunc.p(1, N)
    assert p1 * p1 == SymFunc(N, {(1, 1): 1})
    f = h_gen(3, N)
    assert f + SymFunc.zero(N) == f
    # degree-4 products vanish at truncation 3
    assert h_gen(2, N) * SymFunc.p(2, N) == SymFunc.zero(N)


def test_truncation_mismatch_rejected():
    with pytest.raises(ValueError):
        SymFunc.p(1, 3) + SymFunc.p(1, 4)
    with pytest.raises(ValueError):
        SymFunc.p(1, 3) * SymFunc.p(1, 4)


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        SymFunc(3, {(1, 2): 1})  # not weakly decreasing
    with pytest.raises(ValueError):
        SymFunc(3, {(4,): 1})  # above truncation
    with pytest.raises(TypeError):
        SymFunc(3, {(1,): 0.5})  # inexact coefficient
    # True is an int, but neither a truncation nor a generator index
    for build in (lambda: SymFunc(True, {}), lambda: SymFunc.p(1, True)):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            build()
    with pytest.raises(ValueError, match="generator index must be a positive integer"):
        SymFunc.p(True, 3)


@pytest.mark.parametrize("bad", [0, -1, True, 1.0])
def test_indices_must_be_positive_ints(bad):
    f = SymFunc.p(1, 3)
    for call, name in (
        (lambda: h_gen(bad, 3), "n"),
        (lambda: adams(bad, f), "Adams index"),
        (lambda: partial_p(bad, f), "derivative index"),
        (lambda: SymFunc.p(bad, 3), "generator index"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {bad!r}$"):
            call()


def test_plethysm_examples():
    N = 6
    assert plethysm(SymFunc.p(2, N), SymFunc.p(3, N)) == SymFunc.p(6, N)
    g = random_symfunc(random.Random(7), N)
    assert plethysm(h_gen(1, N), g) == g
    assert plethysm(h_gen(2, N), SymFunc.p(2, N)) == SymFunc(
        N, {(4,): Fraction(1, 2), (2, 2): Fraction(1, 2)}
    )


def test_plethysm_rejects_constant_term():
    N = 4
    g = SymFunc.one(N) + SymFunc.p(1, N)
    with pytest.raises(ValueError):
        plethysm(SymFunc.p(1, N), g)


def test_plethysm_left_constant_passes_through():
    N = 4
    f = SymFunc.one(N) * Fraction(3, 2) + SymFunc.p(2, N)
    g = SymFunc.p(1, N)
    assert plethysm(f, g) == SymFunc(N, {(): Fraction(3, 2), (2,): 1})


def test_plethysm_associative_randomized():
    rng = random.Random(2024)
    for _ in range(30):
        N = rng.randint(3, 6)
        f = random_symfunc(rng, N)
        g = random_symfunc(rng, N)
        h = random_symfunc(rng, N)
        assert plethysm(plethysm(f, g), h) == plethysm(f, plethysm(g, h))


def test_adams_examples():
    N = 6
    assert adams(2, SymFunc.p(1, N)) == SymFunc.p(2, N)
    f = random_symfunc(random.Random(3), N)
    assert adams(1, f) == f
    assert adams(2, h_gen(2, N)) == plethysm(h_gen(2, N), SymFunc.p(2, N))


def test_adams_is_plethysm_by_power_sum():
    rng = random.Random(11)
    for _ in range(20):
        N = rng.randint(3, 6)
        g = random_symfunc(rng, N)
        for k in range(1, N + 1):
            assert plethysm(SymFunc.p(k, N), g) == adams(k, g)


def test_adams_semigroup_and_ring_hom():
    # on both rings: in the wreath ring adams scales P_j and Q_j alike
    rng = random.Random(13)
    for _ in range(20):
        N = rng.randint(4, 6)
        pairs = (
            (random_symfunc(rng, N, min_degree=0), random_symfunc(rng, N, min_degree=0)),
            (random_wreath(rng, N) + WreathSymFunc.one(N), random_wreath(rng, N)),
        )
        for f, g in pairs:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            assert type(adams(m, f)) is type(f)
            assert adams(m, adams(n, f)) == adams(m * n, f)
            assert adams(m, f * g) == adams(m, f) * adams(m, g)
            assert adams(m, f + g) == adams(m, f) + adams(m, g)


def test_partial_p_examples():
    N = 6
    f = SymFunc(N, {(2, 1, 1): 1})  # p1^2 p2
    assert partial_p(1, f) == SymFunc(N, {(2, 1): 2})
    assert partial_p(2, h_gen(2, N)) == SymFunc(N, {(): Fraction(1, 2)})
    h3pp = partial_p(1, partial_p(1, h_gen(3, N)))
    assert h3pp == SymFunc.p(1, N)


def test_second_derivative_of_h_shifts_index():
    N = 8
    for n in range(3, 9):
        hn = h_gen(n, N)
        assert partial_p(1, partial_p(1, hn)) == h_gen(n - 2, N)


def test_d_operator_examples():
    N = 6
    rng = random.Random(5)
    g = random_symfunc(rng, N, min_degree=1)
    p1 = SymFunc.p(1, N)
    p2 = SymFunc.p(2, N)
    assert d_operator(p1 * p1, g) == partial_p(1, partial_p(1, g))
    assert d_operator(p2, g) == partial_p(2, g) * 2
    assert d_operator(p1, p1) == SymFunc.one(N)


def test_d_operator_composition():
    rng = random.Random(17)
    for _ in range(20):
        N = rng.randint(4, 6)
        f1 = random_symfunc(rng, N)
        f2 = random_symfunc(rng, N)
        g = random_symfunc(rng, N)
        assert d_operator(SymFunc.p(1, N), g) == partial_p(1, g)
        assert d_operator(f1 * f2, g) == d_operator(f1, d_operator(f2, g))


@pytest.mark.parametrize("bad", [-1, True, False, 2.0])
def test_power_rejects_non_int_exponents(bad):
    for f in (SymFunc.p(1, 3), random_wreath(random.Random(5), 3)):
        with pytest.raises(ValueError, match=f"^exponent must be a nonnegative integer, got {bad!r}$"):
            f**bad


def test_log_inv_and_geom():
    N = 3
    p1 = SymFunc.p(1, N)
    assert log_inv(p1) == SymFunc(
        N, {(1,): 1, (1, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 3)}
    )
    N = 5
    p2 = SymFunc.p(2, N)
    assert geom(p2) == SymFunc(N, {(): 1, (2,): 1, (2, 2): 1})
    assert log_inv(SymFunc.zero(N)) == SymFunc.zero(N)
    assert geom(SymFunc.zero(N)) == SymFunc.one(N)
    with pytest.raises(ValueError):
        log_inv(SymFunc.one(N))
    with pytest.raises(ValueError):
        geom(SymFunc.one(N))


def test_log_geom_inverse_relation():
    # exp/log consistency: geom(f) * (1 - f) = 1 exactly up to truncation
    rng = random.Random(23)
    for _ in range(15):
        N = rng.randint(3, 6)
        f = random_symfunc(rng, N)
        assert geom(f) * (SymFunc.one(N) - f) == SymFunc.one(N)


def test_degree_bookkeeping():
    rng = random.Random(29)
    for _ in range(20):
        N = rng.randint(3, 6)
        f = random_symfunc(rng, N)
        g = random_symfunc(rng, N)
        fg = f * g
        for lam, _ in fg.terms():
            assert sum(lam) <= N
        for k in range(1, 4):
            for lam, _ in adams(k, f).terms():
                assert sum(lam) % k == 0


def test_truncated():
    N = 6
    f = h_gen(4, N) + SymFunc.p(2, N)
    g = f.truncated(3)
    assert g.truncation == 3
    assert g == SymFunc.p(2, 3)
    with pytest.raises(ValueError):
        g.truncated(5)
    # the truncations the constructor refuses
    for n in (0, -2, True):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            f.truncated(n)


@pytest.mark.parametrize("bad", [True, 2.0, 1.5, -1, None, "1", Fraction(1)], ids=repr)
def test_degree_part_rejects_non_int_degrees(bad):
    # True and 2.0 would pick the degree-1 and degree-2 parts, 1.5 none
    f = SymFunc.one(4) + h_gen(2, 4) + SymFunc.p(1, 4)
    with pytest.raises(ValueError, match=f"^degree must be a nonnegative integer, got {re.escape(repr(bad))}$"):
        f.degree_part(bad)
    # degree 0 is a degree
    assert f.degree_part(0) == SymFunc.one(4)


@pytest.mark.parametrize("cls", [SymFunc, WreathSymFunc])
def test_degree_part_splits_a_series_by_degree(cls):
    N = 5
    f = geom(cls.p(1, N) + cls.p(2, N)) if cls is SymFunc else random_wreath(random.Random(4), N, 6)
    parts = [f.degree_part(d) for d in range(N + 1)]
    assert sum(parts, cls.zero(N)) == f
    for d, part in enumerate(parts):
        assert all(f._key_degree(key) == d for key, _ in part.terms())
    # a degree above the truncation has no terms
    assert f.degree_part(N + 1).is_zero()


# each place a SymFunc-only operation takes a series, with a value v put there
SYMFUNC_PLACES = {
    "partial_p": lambda v, f: partial_p(1, v),
    "plethysm-left": lambda v, f: plethysm(v, f),
    "plethysm-right": lambda v, f: plethysm(f, v),
    "d_operator-left": lambda v, f: d_operator(v, f),
    "d_operator-right": lambda v, f: d_operator(f, v),
}


@pytest.mark.parametrize("place", SYMFUNC_PLACES)
@pytest.mark.parametrize(
    "value", [WreathSymFunc.gen_p(1, 3), 1, Fraction(1, 2), None], ids=lambda v: type(v).__name__
)
def test_symfunc_operations_refuse_other_values(place, value):
    # a WreathSymFunc would make partial_p return zero, and plethysm and
    # d_operator take a wreath factor for an Adams or derivative index
    f = SymFunc.p(1, 3)
    with pytest.raises(TypeError, match=f"^expected SymFunc, got {type(value).__name__}$"):
        SYMFUNC_PLACES[place](value, f)


def test_json_roundtrip_and_order():
    N = 5
    f = h_gen(3, N) - SymFunc.p(2, N) * Fraction(7, 3)
    obj = f.to_json_obj()
    # canonical order: by degree, then reverse-lex
    partitions = [tuple(t["partition"]) for t in obj["terms"]]
    keys = [(sum(lam), tuple(-p for p in lam)) for lam in partitions]
    assert keys == sorted(keys)
    # numerators and denominators serialize as decimal strings
    assert all(isinstance(t["num"], str) and isinstance(t["den"], str) for t in obj["terms"])


@pytest.mark.parametrize(
    "coeff, num, den",
    [
        (1, "1", "1"),
        (-1, "-1", "1"),
        (Fraction(6, 4), "3", "2"),
        (Fraction(-3, 2), "-3", "2"),
        (Fraction(10, -4), "-5", "2"),
        (Fraction(-22, 7), "-22", "7"),
        (2**70, str(2**70), "1"),
        (-(2**70), str(-(2**70)), "1"),
        (Fraction(1, 3**40), "1", str(3**40)),
        (Fraction(2**64 + 1, 2**64), str(2**64 + 1), str(2**64)),
    ],
    ids=["one", "minus-one", "six-quarters", "minus-three-halves", "ten-over-minus-four",
         "minus-22-sevenths", "two-to-70", "minus-two-to-70", "one-over-three-to-40",
         "near-one"],
)
def test_to_json_obj_writes_lowest_terms_as_decimal_strings(coeff, num, den):
    # the sign rides on num, den is positive, and neither is cut to a float
    f = SymFunc(3, {(2, 1): coeff})
    assert f.to_json_obj() == {"truncation": 3, "terms": [{"partition": [2, 1], "num": num, "den": den}]}


def test_coefficients_are_ints_or_fractions():
    f = SymFunc.p(1, 3)
    w = WreathSymFunc.gen_p(1, 3)
    for bad in (True, False, 1.0, 0.5):
        for build in (lambda: SymFunc(3, {(1,): bad}), lambda: WreathSymFunc(3, {((1, "e"),): bad})):
            with pytest.raises(TypeError, match="coefficients must be exact rationals"):
                build()
        for product in (lambda: f * bad, lambda: bad * f, lambda: w * bad, lambda: bad * w):
            with pytest.raises(TypeError):
                product()
    assert f * 2 == 2 * f == f * Fraction(2) == SymFunc(3, {(1,): 2})


def test_str_rendering():
    N = 4
    assert str(SymFunc.zero(N)) == "0"
    assert str(SymFunc.p(2, N)) == "p2"
    assert str(h_gen(2, N)) == "1/2*p2 + 1/2*p1^2"


def test_h_lambda_multiplicativity():
    N = 6
    assert h_lambda((2, 2), N) == h_gen(2, N) * h_gen(2, N)
    assert h_lambda((3, 2), N) == h_gen(3, N) * h_gen(2, N)
    assert h_lambda((), N) == SymFunc.one(N)
