import json
import re
from fractions import Fraction

import pytest

from plethys.series import (
    ModuleSpec,
    ModuleSpecError,
    a_series,
    ass_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    necklace_series_direct,
    second_leg_series,
    tree_fixed_point,
)
from plethys.symfunc import SymFunc, adams, geom, h_gen, h_lambda, plethysm


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
    for N in (6, 12):
        assert ass_series(N, "closed") == ass_series(N, "burnside")
    with pytest.raises(ValueError):
        ass_series(4, "bogus")


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
    full = necklace_series_direct(a0)
    # drop the through-edge reflection term (1/4) psi2 / (1 - psi2)
    psi2 = adams(2, second_leg_series(a0))
    dropped = full - psi2 * geom(psi2) * Fraction(1, 4)
    assert full != dropped
    # the two variants first differ in degree 2
    assert full.degree_part(1) == dropped.degree_part(1)
    assert full.degree_part(2) != dropped.degree_part(2)


def test_tree_fixed_point_examples():
    N = 3
    assert tree_fixed_point(SymFunc.zero(N)) == SymFunc.p(1, N)
    got = tree_fixed_point(h_gen(3, N))
    h2 = h_gen(2, N)
    assert got == SymFunc.p(1, N) + h2 + SymFunc.p(1, N) * h2


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


def test_b1_series_working_truncation():
    # high-arity summands reach low degrees through the derivative terms:
    # dropping the arity-6 summand must change the degree-4 output
    spec = ModuleSpec.standard()
    smaller = ModuleSpec(
        genus0={n: list(lams) for n, lams in spec.genus0.items() if n <= 5},
        genus1={n: list(lams) for n, lams in spec.genus1.items()},
    )
    assert b1_series(spec, 4) != b1_series(smaller, 4)
