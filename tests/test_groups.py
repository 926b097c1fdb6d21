import itertools
import math
import random
from fractions import Fraction

import pytest

from plethys.groups import (
    CLOSURE_CAP,
    Perm,
    closure,
    cycle_type,
    cyclic_subgroup,
    hyperoct_dihedral,
    ind_trivial_char,
    ind_trivial_char_wreath,
    signed_cycle_monomial,
    signed_perm,
)
from plethys.symfunc import SymFunc, euler_phi, h_gen, partitions_of
from plethys.wreath import E_CLASS, T_CLASS, WreathSymFunc


def inverse(x):
    return Perm(sorted(range(1, x.degree + 1), key=x))


def dihedral_in_sym(n):
    """The plain dihedral group D_n inside S_n: long cycle plus reversal."""
    return closure([Perm.long_cycle(n), Perm.reversal(n)])


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Perm(images)


def random_signs(rng, n):
    return tuple(rng.choice((1, -1)) for _ in range(n))


def random_signed_perm(rng, n):
    return signed_perm(random_signs(rng, n), random_perm(rng, n))


def sign_product_monomial(signs, perm):
    """Reference wreath cycle-map key of (signs, perm): one (length, class)
    factor per cycle of perm, the class given by the product of signs
    along it."""
    key = []
    for cyc in perm.cycles():
        sign = math.prod(signs[i - 1] for i in cyc)
        key.append((len(cyc), E_CLASS if sign == 1 else T_CLASS))
    return tuple(sorted(key))


def test_perm_basics():
    x = Perm((2, 3, 1))
    assert x(1) == 2 and x(3) == 1
    assert (x * x).images == (3, 1, 2)
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    # 1.0 and True compare equal to 1, but only an int is a point
    for images in ((1.0, 2), (2.0, 1.0), (True, 2), (2, True), ("1", 2), (None, 1)):
        with pytest.raises(ValueError, match="not a bijection"):
            Perm(images)


def test_cycle_type_examples():
    assert cycle_type(Perm.identity(4)) == (1, 1, 1, 1)
    for n in range(1, 8):
        assert cycle_type(Perm.long_cycle(n)) == (n,)
    # (12)(345) on 5 points
    x = Perm((2, 1, 4, 5, 3))
    assert cycle_type(x) == (3, 2)


def test_cycle_map_sym_examples():
    # the average over {x} is the cycle-map monomial p_{cycle_type(x)}
    N = 6
    assert ind_trivial_char([Perm.identity(3)], N) == SymFunc(N, {(1, 1, 1): 1})
    assert ind_trivial_char([Perm((2, 3, 1))], N) == SymFunc.p(3, N)
    assert ind_trivial_char([Perm((2, 1, 4, 3))], N) == SymFunc(N, {(2, 2): 1})
    with pytest.raises(ValueError):
        ind_trivial_char([Perm.identity(4)], 3)


def test_constructors_reject_nonpositive_n():
    for n in (0, -2, True):
        for build in (
            Perm.identity,
            Perm.long_cycle,
            Perm.reversal,
            cyclic_subgroup,
            hyperoct_dihedral,
        ):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                build(n)
    # a degree-0 identity would average to the constant 1
    with pytest.raises(ValueError, match="n must be a positive integer"):
        ind_trivial_char([Perm.identity(-1)], 3)


def test_signed_perm_is_a_homomorphism():
    # the semidirect-product rule (s, x) * (t, y) = (s . x(t), x y), where
    # x(t) moves the sign at position i to position x(i)
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 6)
        s, t = random_signs(rng, n), random_signs(rng, n)
        x, y = random_perm(rng, n), random_perm(rng, n)
        moved = [0] * n
        for i in range(1, n + 1):
            moved[x(i) - 1] = t[i - 1]
        st = tuple(a * b for a, b in zip(s, moved))
        assert signed_perm(s, x) * signed_perm(t, y) == signed_perm(st, x * y)


def test_signed_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        signed_perm((1, 0), Perm.identity(2))
    with pytest.raises(ValueError):
        signed_perm((1,), Perm.identity(2))
    # True == 1 and 1.0 == 1, but neither is a sign
    for signs in ((True,), (1.0,), (-1.0,), (1, True)):
        with pytest.raises(ValueError, match="^signs must be the ints 1 and -1"):
            signed_perm(signs, Perm.identity(len(signs)))
    assert signed_perm((1, -1), Perm.identity(2)) == Perm((1, 4, 3, 2))


def test_signed_cycle_monomial_matches_sign_products():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 7)
        signs, perm = random_signs(rng, n), random_perm(rng, n)
        assert signed_cycle_monomial(signed_perm(signs, perm)) == sign_product_monomial(signs, perm)


def test_signed_cycle_monomial_rejects_non_signed():
    for x in (Perm((2, 1, 3, 4)), Perm((2, 3, 1)), Perm((1, 3, 2, 4))):
        with pytest.raises(ValueError):
            signed_cycle_monomial(x)
        with pytest.raises(ValueError):
            ind_trivial_char_wreath([x], 6)


def test_signed_closure_is_flip_centralizer():
    # a sign change, a transposition and the long cycle generate the whole
    # hyperoctahedral group: the permutations of 2n points commuting with
    # the flip i <-> i + n, of order 2^n n!
    for n in range(1, 4):
        plus = (1,) * n
        gens = [
            signed_perm((-1,) + plus[1:], Perm.identity(n)),
            signed_perm(plus, Perm.long_cycle(n)),
        ]
        if n >= 2:
            gens.append(signed_perm(plus, Perm((2, 1) + tuple(range(3, n + 1)))))
        flip = Perm(tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1)))
        centralizer = {
            x
            for x in map(Perm, itertools.permutations(range(1, 2 * n + 1)))
            if x * flip == flip * x
        }
        group = closure(gens)
        assert len(group) == 2**n * math.factorial(n)
        assert set(group) == centralizer


def test_wreath_cycle_map_examples():
    # the average over {x} is the wreath cycle-map monomial of x
    N = 6
    x = signed_perm((1, 1), Perm((2, 1)))
    assert ind_trivial_char_wreath([x], N) == WreathSymFunc(N, {((2, "e"),): 1})
    y = signed_perm((-1, 1), Perm.identity(2))
    assert ind_trivial_char_wreath([y], N) == WreathSymFunc(N, {((1, "e"), (1, "t")): 1})
    z = signed_perm((-1, -1), Perm((2, 1)))
    assert ind_trivial_char_wreath([z], N) == WreathSymFunc(N, {((2, "e"),): 1})


def test_closure_basics():
    assert len(closure([Perm.identity(4)])) == 1
    for n in range(1, 8):
        assert len(closure([Perm.long_cycle(n)])) == n
    gens = [
        signed_perm((1, 1, 1), Perm((2, 3, 1))),
        signed_perm((-1, -1, -1), Perm((3, 2, 1))),
    ]
    assert len(closure(gens)) == 6


def test_closure_contains_identity_and_inverses():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 5)
        gens = [random_perm(rng, n) for _ in range(2)]
        group = closure(gens)
        elems = set(group)
        assert Perm.identity(n) in elems
        for x in group:
            assert inverse(x) in elems
            for g in gens:
                assert x * g in elems


def test_closure_cap():
    # S_8 has 40,320 elements, more than the closure holds
    assert CLOSURE_CAP < math.factorial(8)
    with pytest.raises(ValueError, match="closure exceeded cap"):
        closure([Perm.long_cycle(8), Perm((2, 1, 3, 4, 5, 6, 7, 8))])


def test_subgroup_orders():
    assert len(dihedral_in_sym(4)) == 8
    for n in range(3, 9):
        assert len(dihedral_in_sym(n)) == 2 * n
    assert len(hyperoct_dihedral(1)) == 2
    assert signed_perm((-1,), Perm.identity(1)) in set(hyperoct_dihedral(1))
    for n in range(2, 9):
        assert len(hyperoct_dihedral(n)) == 2 * n


def test_ind_trivial_char_cyclic():
    N = 6
    assert ind_trivial_char(cyclic_subgroup(3), N) == SymFunc(
        N, {(1, 1, 1): Fraction(1, 3), (3,): Fraction(2, 3)}
    )
    assert ind_trivial_char([Perm.identity(1)], N) == SymFunc.p(1, N)


def test_ind_trivial_char_full_symmetric_group_is_h():
    # the cycle index of the full symmetric group is the complete
    # homogeneous function; generate S_n from a transposition and the cycle
    N = 6
    for n in range(2, 6):
        sn = closure([Perm((2, 1) + tuple(range(3, n + 1))), Perm.long_cycle(n)])
        assert len(sn) == [1, 1, 2, 6, 24, 120][n]
        assert ind_trivial_char(sn, N) == h_gen(n, N)


def test_ind_trivial_char_cyclic_closed_form():
    N = 8
    for n in range(1, N + 1):
        expected = SymFunc.zero(N)
        for d in range(1, n + 1):
            if n % d == 0:
                expected = expected + SymFunc(N, {(d,) * (n // d): Fraction(euler_phi(d), n)})
        assert ind_trivial_char(cyclic_subgroup(n), N) == expected


def test_ind_trivial_char_wreath_examples():
    N = 6
    assert ind_trivial_char_wreath(hyperoct_dihedral(2), N) == WreathSymFunc(
        N,
        {
            ((1, "e"), (1, "e")): Fraction(1, 4),
            ((2, "e"),): Fraction(1, 2),
            ((1, "t"), (1, "t")): Fraction(1, 4),
        },
    )
    assert ind_trivial_char_wreath(hyperoct_dihedral(1), N) == WreathSymFunc(
        N, {((1, "e"),): Fraction(1, 2), ((1, "t"),): Fraction(1, 2)}
    )
    assert ind_trivial_char_wreath([signed_perm((1,), Perm.identity(1))], N) == WreathSymFunc(
        N, {((1, "e"),): 1}
    )


def test_ind_trivial_char_empty_rejected():
    with pytest.raises(ValueError):
        ind_trivial_char([], 4)
    with pytest.raises(ValueError):
        ind_trivial_char_wreath([], 4)


def test_cycle_maps_conjugation_invariant():
    rng = random.Random(47)
    N = 6
    for _ in range(60):
        n = rng.randint(1, 6)
        x = random_perm(rng, n)
        g = random_perm(rng, n)
        assert ind_trivial_char([g * x * inverse(g)], N) == ind_trivial_char([x], N)
        sx = random_signed_perm(rng, n)
        sg = random_signed_perm(rng, n)
        conj = sg * sx * inverse(sg)
        assert ind_trivial_char_wreath([conj], N) == ind_trivial_char_wreath([sx], N)


def test_burnside_counts_are_integers():
    # |H| times the averaged cycle map recovers per-type element counts
    rng = random.Random(53)
    N = 6
    for _ in range(20):
        n = rng.randint(2, 5)
        gens = [random_perm(rng, n) for _ in range(rng.randint(1, 2))]
        group = closure(gens)
        char = ind_trivial_char(group, N)
        for lam in partitions_of(n):
            scaled = char.coefficient(lam) * len(group)
            assert scaled.denominator == 1
            assert scaled == sum(1 for h in group if cycle_type(h) == lam)


def test_signed_cycle_monomial_total_degree():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(1, 6)
        x = random_signed_perm(rng, n)
        key = signed_cycle_monomial(x)
        assert sum(k for k, _ in key) == n
