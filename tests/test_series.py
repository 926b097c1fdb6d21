import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from test_properties import LAWS, young_modules

from plethys.series import (
    ModuleSpec,
    ModuleSpecError,
    a_series,
    ass_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    second_leg_series,
    tree_fixed_point,
    working_truncation,
)
from plethys import dih_series_closed, partial_p, specialize_s2
from plethys.groups import cyclic_subgroup, ind_trivial_char
from plethys.symfunc import SymFunc, adams, geom, h_gen, h_lambda, plethysm
from plethys.wreath import WreathSymFunc


def test_module_spec_validation():
    spec = ModuleSpec(genus0={3: [(3,)], 4: [(4,), (2, 2)]}, genus1={1: [(1,)]})
    assert spec.genus0[4] == ((4,), (2, 2))
    with pytest.raises(ModuleSpecError):
        ModuleSpec(genus0={2: [(2,)]})  # arity below 3
    with pytest.raises(ModuleSpecError):
        ModuleSpec(genus1={0: [()]})  # arity below 1
    with pytest.raises(ModuleSpecError):
        ModuleSpec(genus0={3: [(2,)]})  # partition does not sum to arity
    with pytest.raises(ModuleSpecError):
        ModuleSpec(genus0={3: [(1, 2)]})  # not weakly decreasing
    # True == 1, but it is not an arity
    with pytest.raises(ModuleSpecError, match="^genus1 arity must be an integer >= 1, got True$"):
        ModuleSpec(genus1={True: [(1,)]})
    with pytest.raises(ModuleSpecError, match="^genus0 arity must be an integer >= 3, got 3.0$"):
        ModuleSpec(genus0={3.0: [(3,)]})


@pytest.mark.parametrize("section", ["abc", [(3, [(3,)])], (), 5])
def test_module_spec_refuses_a_section_that_is_not_a_mapping(section):
    with pytest.raises(ModuleSpecError, match="^genus0 must be a mapping from arities"):
        ModuleSpec(genus0=section)


@pytest.mark.parametrize("lams", [5, "3", [5], [(3,), 3], {(3,): 1}, None])
def test_module_spec_refuses_an_arity_that_is_not_a_list_of_partitions(lams):
    with pytest.raises(ModuleSpecError, match=r"^genus0\[3\] must be a list of partitions"):
        ModuleSpec(genus0={3: lams})
    # lists and tuples of lists and tuples all read alike
    assert ModuleSpec(genus0={3: ([3],)}) == ModuleSpec(genus0={3: [(3,)]})


def test_module_spec_json_roundtrip():
    spec = ModuleSpec.standard()
    obj = spec.to_json_obj()
    assert ModuleSpec.from_json_obj(obj) == spec
    text = json.dumps(obj)
    assert ModuleSpec.from_json_obj(json.loads(text)) == spec
    assert obj["genus0"]["4"] == [[4], [2, 2]]
    with pytest.raises(ModuleSpecError):
        ModuleSpec.from_json_obj({"genus0": {"x": [[3]]}})
    # arity keys are plain runs of ASCII digits: int() would read "1_0" as
    # 10 and accept the others
    for key, misread in (("1_0", 10), (" 3", 3), ("3 ", 3), ("+3", 3), ("\uff13", 3)):
        with pytest.raises(ModuleSpecError, match=re.escape(f"genus1 key {key!r}")):
            ModuleSpec.from_json_obj({"genus1": {key: [[misread]]}})
    # two keys naming one arity would leave only the later one
    with pytest.raises(ModuleSpecError, match="repeats arity 3"):
        ModuleSpec.from_json_obj({"genus0": {"3": [[3]], "03": [[2, 1]]}})
    with pytest.raises(ModuleSpecError):
        ModuleSpec.from_json_obj({"bogus": {}})
    # JSON true is a bool, which Python counts as the int 1
    with pytest.raises(ModuleSpecError, match="positive integers"):
        ModuleSpec.from_json_obj({"genus0": {"3": [[True, 1, 1]]}})


def test_standard_spec_contents():
    spec = ModuleSpec.standard()
    assert sorted(spec.genus0) == [3, 4, 5, 6]
    assert sorted(spec.genus1) == [1, 2, 3, 4]
    assert (2, 2) in spec.genus0[4]
    assert spec.max_arity() == 6


def test_a_series_examples():
    N = 6
    spec = ModuleSpec(genus0={3: [(3,)], 4: [(4,)]})
    assert a_series(spec, 0, N) == h_gen(3, N) + h_gen(4, N)
    spec22 = ModuleSpec(genus0={4: [(2, 2)]})
    assert a_series(spec22, 0, N) == h_gen(2, N) * h_gen(2, N)
    empty = ModuleSpec()
    assert a_series(empty, 0, N) == SymFunc.zero(N)
    assert a_series(empty, 1, N) == SymFunc.zero(N)
    with pytest.raises(ValueError):
        a_series(empty, 2, N)
    # False == 0 and 1.0 == 1, but neither is a genus
    for bad in (False, True, 0.0, 1.0):
        with pytest.raises(ValueError, match=f"^genus must be 0 or 1, got {bad!r}$"):
            a_series(spec, bad, N)


def test_a_series_truncates_high_arity():
    spec = ModuleSpec.standard()
    assert a_series(spec, 0, 4) == h_gen(3, 4) + h_gen(4, 4) + h_lambda((2, 2), 4)


def test_ass_series_degree_parts():
    N = 6
    ass = ass_series(N)
    assert ass.degree_part(1) == SymFunc.p(1, N)
    assert ass.degree_part(2) == SymFunc(N, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert ass.degree_part(4) == SymFunc(
        N,
        {
            (1, 1, 1, 1): Fraction(1, 4),
            (2, 2): Fraction(1, 4),
            (4,): Fraction(1, 2),
        },
    )


def test_ass_series_two_paths_agree():
    # the closed form against the cyclic-subgroup averages of the bb suite
    for N in (6, 12):
        series = ass_series(N)
        assert series.degree_part(0).is_zero()
        for n in range(1, N + 1):
            assert series.degree_part(n) == ind_trivial_char(cyclic_subgroup(n), N)


def test_cyclic_necklace_series_examples():
    N = 6
    assert cyclic_necklace_series(SymFunc.zero(N)) == SymFunc.zero(N)
    got = cyclic_necklace_series(h_gen(3, N))
    assert got.degree_part(1) == SymFunc.p(1, N)
    assert got.degree_part(2) == SymFunc(N, {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        cyclic_necklace_series(SymFunc.p(2, N))


def test_cyclic_necklace_series_is_ass_plethysm():
    N = 6
    spec = ModuleSpec.standard()
    a0 = a_series(spec, 0, N)
    core = second_leg_series(a0)
    assert cyclic_necklace_series(a0) == plethysm(ass_series(N), core)


def test_necklace_series_zero_and_paths():
    N = 5
    assert necklace_series(SymFunc.zero(N)) == SymFunc.zero(N)
    a0 = h_gen(3, N) + h_gen(4, N) + h_gen(5, N)
    assert necklace_series(a0, "direct") == necklace_series(a0, "wreath")
    with pytest.raises(ValueError):
        necklace_series(a0, "bogus")


def test_necklace_series_quarter_term_matters():
    a0 = a_series(ModuleSpec.standard(), 0, 6)
    full = necklace_series(a0)
    # drop the through-edge reflection term (1/4) psi2 / (1 - psi2)
    psi2 = adams(2, second_leg_series(a0))
    dropped = full - psi2 * geom(psi2) * Fraction(1, 4)
    assert full != dropped
    # the two variants first differ in degree 2
    assert full.degree_part(1) == dropped.degree_part(1)
    assert full.degree_part(2) != dropped.degree_part(2)


def _genus0_fed(build):
    """A builder fed the genus-0 series at the working truncation."""
    return lambda spec, N: build(a_series(spec, 0, working_truncation(spec, N)))


TRUNCATION_BUILDERS = {
    "ass_series": lambda spec, N: ass_series(N),
    "dih_series_closed": lambda spec, N: dih_series_closed(N),
    "cyclic_necklace_series": _genus0_fed(cyclic_necklace_series),
    "necklace_series-direct": _genus0_fed(lambda a0: necklace_series(a0, "direct")),
    "necklace_series-wreath": _genus0_fed(lambda a0: necklace_series(a0, "wreath")),
    "tree_fixed_point": _genus0_fed(tree_fixed_point),
    "b1_series": b1_series,
}

ARITY8 = ModuleSpec(
    genus0={3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)], 6: [(6,)], 8: [(5, 3)]},
    genus1={1: [(1,)], 2: [(2,)], 3: [(3,)], 4: [(4,)]},
)


@pytest.mark.parametrize("spec", [ModuleSpec.standard(), ARITY8], ids=["standard", "arity8"])
@pytest.mark.parametrize("builder", TRUNCATION_BUILDERS)
def test_series_do_not_depend_on_the_truncation(builder, spec):
    # a series built for degree 9 and cut to 6 is the one built for 6
    build = TRUNCATION_BUILDERS[builder]
    assert build(spec, 9).truncated(6) == build(spec, 6).truncated(6)


def test_tree_fixed_point_examples():
    N = 3
    assert tree_fixed_point(SymFunc.zero(N)) == SymFunc.p(1, N)
    got = tree_fixed_point(h_gen(3, N))
    h2 = h_gen(2, N)
    assert got == SymFunc.p(1, N) + h2 + SymFunc.p(1, N) * h2


def test_tree_fixed_point_pass_count():
    # N - 1 passes: none at N = 1, and at N <= 2 every genus-0 summand
    # (arity >= 3) is truncated away
    for N in (1, 2):
        assert tree_fixed_point(a_series(ModuleSpec.standard(), 0, N)) == SymFunc.p(1, N)
    # at N = 3 the second pass brings in p1*h2; one pass stops at p1 + h2
    h2 = h_gen(2, 3)
    assert tree_fixed_point(h_gen(3, 3)) == SymFunc.p(1, 3) + h2 + SymFunc.p(1, 3) * h2
    # a module with no genus-0 summand has only the bare root leg
    genus1_only = ModuleSpec(genus1={1: [(1,)], 2: [(2,)]})
    for N in (1, 2, 3, 8):
        assert tree_fixed_point(a_series(genus1_only, 0, N)) == SymFunc.p(1, N)


def test_tree_fixed_point_satisfies_equation():
    N = 6
    a0 = a_series(ModuleSpec.standard(), 0, N)
    from plethys.symfunc import partial_p

    f = tree_fixed_point(a0)
    assert f == SymFunc.p(1, N) + plethysm(partial_p(1, a0), f)
    assert f.degree_part(1) == SymFunc.p(1, N)


def test_b1_series_examples():
    N = 4
    only_g1 = ModuleSpec(genus1={1: [(1,)]})
    assert b1_series(only_g1, N) == SymFunc.p(1, N)
    empty = ModuleSpec()
    assert b1_series(empty, N) == SymFunc.zero(N)
    loop_spec = ModuleSpec(genus0={3: [(3,)]})
    assert b1_series(loop_spec, 1) == SymFunc.p(1, 1)
    for degree in (0, -2):
        with pytest.raises(ValueError, match="truncation must be a positive integer"):
            b1_series(ModuleSpec.standard(), degree)


def test_b1_series_working_truncation():
    # high-arity summands reach low degrees through the derivative terms:
    # dropping the arity-6 summand must change the degree-4 output
    spec = ModuleSpec.standard()
    smaller = ModuleSpec(
        genus0={n: list(lams) for n, lams in spec.genus0.items() if n <= 5},
        genus1={n: list(lams) for n, lams in spec.genus1.items()},
    )
    assert b1_series(spec, 4) != b1_series(smaller, 4)


def _b1_before_gluing(spec, truncation):
    """The reference composition (a1 + N(a0)) o T, which substitutes the
    whole necklace series into the tree series, cut back to the degree."""
    working = working_truncation(spec, truncation)
    a0 = a_series(spec, 0, working)
    a1 = a_series(spec, 1, working)
    return plethysm(a1 + necklace_series(a0), tree_fixed_point(a0)).truncated(truncation)


STD = ModuleSpec.standard()
GLUING_MODULES = {
    "standard": STD,
    "genus0-only": ModuleSpec(genus0=STD.genus0),
    "genus1-only": ModuleSpec(genus1=STD.genus1),
    "empty": ModuleSpec(),
    "young-heavy": ModuleSpec(
        genus0={3: [(2, 1), (1, 1, 1)], 4: [(2, 2), (3, 1), (2, 1, 1)], 5: [(3, 2)]},
        genus1={1: [(1,)], 2: [(1, 1)], 3: [(2, 1)], 4: [(2, 2)]},
    ),
}


@pytest.mark.parametrize("name", GLUING_MODULES)
def test_b1_series_glues_necklace_inputs(name):
    # plethysm by the tree is a ring homomorphism commuting with adams, so
    # gluing a0'' and da0/dp_2 first gives the same series term by term
    spec = GLUING_MODULES[name]
    for N in range(1, 9):
        assert b1_series(spec, N) == _b1_before_gluing(spec, N)


@LAWS
@given(young_modules(max_arity=6, genus1=True))
def test_b1_series_glues_necklace_inputs_on_young_modules(module):
    spec, N = module
    assert b1_series(spec, N) == _b1_before_gluing(spec, N)


def _b1_paper_route(spec, truncation, dihedral=dih_series_closed):
    """The paper's route for the genus-one series, from public names: a1 o T
    plus the dihedral series specialized along a0'' o T and (da0/dp_2) o T."""
    working = working_truncation(spec, truncation)
    a0 = a_series(spec, 0, working)
    a1 = a_series(spec, 1, working)
    tree = tree_fixed_point(a0)
    core = plethysm(partial_p(1, partial_p(1, a0)), tree)
    adot = plethysm(partial_p(2, a0), tree)
    route = plethysm(a1, tree) + specialize_s2(dihedral(working), core, adot)
    return route.truncated(truncation)


PAPER_ROUTE_CASES = {
    "standard-12": (STD, 12),
    "young-heavy-8": (
        ModuleSpec(
            genus0={3: [(2, 1)], 4: [(3, 1), (2, 2)], 5: [(5,)]},
            genus1={1: [(1,)], 2: [(1, 1)], 3: [(2, 1)]},
        ),
        8,
    ),
}


@pytest.mark.parametrize("name", PAPER_ROUTE_CASES)
def test_b1_series_is_the_paper_route(name):
    spec, N = PAPER_ROUTE_CASES[name]
    assert _b1_paper_route(spec, N) == b1_series(spec, N)


def test_paper_route_negative_control():
    # an extra (1/2) Q_1 in the dihedral series must show in the output
    def perturbed(W):
        return dih_series_closed(W) + WreathSymFunc.gen_q(1, W) * Fraction(1, 2)

    assert _b1_paper_route(STD, 6, perturbed) != b1_series(STD, 6)
