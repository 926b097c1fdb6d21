import json

import pytest

from plethys import verify
from plethys.cli import main
from plethys.series import ModuleSpec


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"genus0": {"3": [[3]]}, "genus1": {}}))
    return str(path)


@pytest.fixture
def std_spec(tmp_path):
    path = tmp_path / "std.json"
    path.write_text(json.dumps(ModuleSpec.standard().to_json_obj()))
    return str(path)


@pytest.fixture
def empty_spec(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"genus0": {}, "genus1": {}}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_ass(capsys):
    code, out, _ = run(capsys, ["expand", "ass", "--max-degree", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["truncation"] == 2
    terms = {tuple(t["partition"]): (t["num"], t["den"]) for t in obj["terms"]}
    assert terms == {(1,): ("1", "1"), (2,): ("1", "2"), (1, 1): ("1", "2")}


def test_expand_dih(capsys):
    code, out, _ = run(capsys, ["expand", "dih", "--max-degree", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"key": [{"k": 1, "class": "e", "exp": 1}], "num": "1", "den": "2"},
        {"key": [{"k": 1, "class": "t", "exp": 1}], "num": "1", "den": "2"},
    ]


def test_expand_b1_empty_spec(capsys, empty_spec):
    code, out, _ = run(capsys, ["expand", "b1", "--spec", empty_spec, "--max-degree", "4"])
    assert code == 0
    assert json.loads(out) == {"truncation": 4, "terms": []}


def test_expand_b1_low_truncation_keeps_derivative_terms(capsys, tiny_spec):
    code, out, _ = run(capsys, ["expand", "b1", "--spec", tiny_spec, "--max-degree", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"partition": [1], "num": "1", "den": "1"}]


def test_high_arity_summands_cap_the_working_truncation(capsys, monkeypatch, tmp_path):
    # an arity-m summand reaches no degree below m - 2, so a genus-0
    # arity-16 summand must not lift the assembly at degree 3 past 5
    from plethys import cli, series

    obj = series.ModuleSpec.standard().to_json_obj()
    obj["genus0"]["16"] = [[16]]
    path = tmp_path / "arity16.json"
    path.write_text(json.dumps(obj))
    truncations = []
    a_series = series.a_series

    def recording(spec, genus, truncation):
        truncations.append(truncation)
        assert truncation <= 5
        return a_series(spec, genus, truncation)

    for module in (series, cli, verify):
        monkeypatch.setattr(module, "a_series", recording)
    for target in ("b1", "necklaces", "cyclic-necklaces", "tree"):
        assert run(capsys, ["expand", target, "--max-degree", "3", "--spec", str(path)])[0] == 0
    for suite in ("cyclic", "necklaces", "theorem", "negative-dih"):
        assert run(capsys, ["verify", suite, "--max-degree", "3", "--spec", str(path)])[0] == 0
    assert set(truncations) == {5}


def test_expand_tree_text(capsys, tiny_spec):
    code, out, _ = run(
        capsys,
        ["expand", "tree", "--spec", tiny_spec, "--max-degree", "3", "--format", "text"],
    )
    assert code == 0
    assert out.strip() == "p1 + 1/2*p2 + 1/2*p1^2 + 1/2*p2*p1 + 1/2*p1^3"


def test_expand_requires_spec(capsys):
    code, _, err = run(capsys, ["expand", "necklaces"])
    assert code == 2
    assert "requires --spec" in err


def test_expand_output_deterministic(capsys, tiny_spec):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["expand", "necklaces", "--spec", tiny_spec, "--max-degree", "4"])
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, ["verify", "bb", "--max-degree", "8"])
    assert code == 0
    assert out.strip() == "bb: PASS (exact through degree 8)"


def test_verify_all_small_degrees(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--max-degree", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(": PASS" in line for line in lines)


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, ["verify", "generating", "--max-degree", "4", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report == [{"suite": "generating", "passed": True, "detail": report[0]["detail"]}]


def test_verify_with_spec(capsys, tiny_spec):
    code, out, _ = run(capsys, ["verify", "cyclic", "--spec", tiny_spec, "--max-degree", "3"])
    assert code == 0
    assert "cyclic: PASS" in out


def test_enumerate_necklace(capsys, tiny_spec):
    code, out, _ = run(capsys, ["enumerate", "necklace", "--n", "1", "--spec", tiny_spec])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"classCount": 1}
    assert len(lines) == 2


def test_enumerate_rooted_tree(capsys, tiny_spec):
    code, out, _ = run(capsys, ["enumerate", "rooted-tree", "--n", "2", "--spec", tiny_spec])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"classCount": 1}
    graph = json.loads(lines[0])
    assert graph["genus"] == [0]
    assert sorted(graph["legLabels"]) == [0, 1, 2]


def test_enumerate_rejects_zero_legs(capsys, tiny_spec):
    code, _, err = run(capsys, ["enumerate", "genus1-stable", "--n", "0", "--spec", tiny_spec])
    assert code == 2
    assert "labeled leg" in err


def test_enumerate_budget_exit_code(capsys, tiny_spec):
    code, _, err = run(capsys, ["enumerate", "necklace", "--n", "6", "--spec", tiny_spec])
    assert code == 3
    # necklace characters come from leg-unlabeled classes; the class budget holds
    code, _, err = run(capsys, ["verify", "necklaces", "--max-degree", "3", "--budget-classes", "2"])
    assert code == 3
    assert "budget" in err


def test_enumerate_five_legs_at_defaults(capsys, std_spec):
    # five legs are within the default leg limit, and the legs alone bound
    # the size of every census graph
    code, out, err = run(capsys, ["enumerate", "necklace", "--n", "5", "--spec", std_spec])
    assert code == 0, err
    lines = out.splitlines()
    assert json.loads(lines[-1]) == {"classCount": 1022}
    assert len(lines) == 1023


def test_budget_flag_replaces_only_its_limit(capsys):
    # the flag's value is the default class limit; the leg limit is still
    # sized from the suite's degree
    code, out, err = run(
        capsys, ["verify", "cyclic", "--max-degree", "5", "--budget-classes", "1000000"]
    )
    assert code == 0, err
    assert out.startswith("cyclic: PASS")


@pytest.mark.parametrize("flag", ["--budget-classes"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_flags_below_one_are_input_errors(capsys, tiny_spec, flag, value):
    for argv in (
        ["verify", "cyclic", "--max-degree", "3"],
        ["enumerate", "necklace", "--n", "2", "--spec", tiny_spec],
    ):
        code, out, err = run(capsys, argv + [flag, value])
        assert code == 2
        assert out == ""
        assert f"{flag} must be >= 1" in err


def test_malformed_spec_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"genus0": {"3": [[2]]}}')
    code, _, err = run(capsys, ["expand", "b1", "--spec", str(bad)])
    assert code == 2
    assert "malformed" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    code, _, _ = run(capsys, ["expand", "b1", "--spec", str(notjson)])
    assert code == 2
    code, _, _ = run(capsys, ["expand", "b1", "--spec", str(tmp_path / "missing.json")])
    assert code == 2
    for argv in (["expand", "b1"], ["verify", "bb"], ["enumerate", "necklace", "--n", "1"]):
        code, _, err = run(capsys, argv + ["--spec", str(tmp_path)])
        assert code == 2
        assert err.startswith("error: ")
    boolean = tmp_path / "boolean.json"
    boolean.write_text('{"genus0": {"3": [[true, 1, 1]]}}')
    code, out, err = run(capsys, ["expand", "b1", "--spec", str(boolean)])
    assert code == 2
    assert out == ""
    assert "malformed" in err
    # arity keys that int() would take: "1_0" would read as arity 10
    for key, misread in (("1_0", 10), (" 3", 3), ("+3", 3), ("\uff13", 3)):
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"genus1": {key: [[misread]]}}), encoding="utf-8")
        code, out, err = run(capsys, ["expand", "tree", "--spec", str(loose)])
        assert code == 2
        assert out == ""
        assert f"genus1 key {key!r}" in err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, ["expand", "b1", "--spec", str(binary)])
    assert code == 2
    assert "malformed" in err
    # a repeated key, nesting past the decoder's recursion limit and
    # integers longer than int() converts (as a part and as an arity key)
    for text in (
        '{"genus0": {"3": [[3]], "4": [[4]], "3": [[2, 1]]}}',
        '{"genus0": {"3": [[3]]}, "genus0": {"4": [[4]]}}',
        "[" * 100_000 + "]" * 100_000,
        '{"genus0": {"3": [[' + "1" * 5000 + "]]}}",
        '{"genus0": {"' + "3" * 5000 + '": [[3]]}}',
    ):
        odd = tmp_path / "odd.json"
        odd.write_text(text)
        code, out, err = run(capsys, ["expand", "tree", "--spec", str(odd)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed module spec")
        assert "Traceback" not in err
    # a section that is present must be an object, even when it is falsy
    for text in (
        '{"genus0": false}',
        '{"genus0": [], "genus1": 0}',
        '{"genus0": ""}',
        '{"genus0": null}',
    ):
        odd = tmp_path / "odd.json"
        odd.write_text(text)
        code, out, err = run(capsys, ["expand", "b1", "--spec", str(odd)])
        assert code == 2
        assert out == ""
        assert "genus0 must be an object" in err
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run(capsys, ["expand", "b1", "--spec", str(empty)])[0] == 0
    # each subcommand takes only the options it reads
    for argv in (
        ["enumerate", "necklace", "--n", "1", "--spec", str(tmp_path), "--format", "text"],
        ["expand", "ass", "--max-degree", "2", "--budget-classes", "1"],
        ["verify", "cyclic", "--budget-half-edges", "4"],
        ["enumerate", "necklace", "--n", "1", "--spec", str(tmp_path), "--budget-half-edges", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_fault_exit_code(capsys, monkeypatch):
    # an exception that no input check raised is a fault in plethys, not
    # an input error, whatever its type
    def broken(*args):
        raise ValueError("broken invariant")

    monkeypatch.setattr(verify, "run_all", broken)
    code, out, err = run(capsys, ["verify", "all"])
    assert code == 4
    assert out == ""
    assert "internal fault" in err
    assert "Traceback" in err and "ValueError: broken invariant" in err


def test_verify_failure_exit_code(capsys, empty_spec):
    # the negative control needs reflection-sensitive module data; with an
    # empty module no difference can exist, so the suite must fail
    code, out, _ = run(capsys, ["verify", "negative-dih", "--spec", empty_spec, "--max-degree", "3"])
    assert code == 1
    assert "negative-dih: FAIL" in out


def test_expand_checks_a_given_spec_for_every_target(capsys, tmp_path, std_spec):
    # ass and dih read no module, but a --spec they are given must still load
    arity2 = tmp_path / "arity2.json"
    arity2.write_text('{"genus0": {"2": [[2]]}}')
    for what in ("ass", "dih"):
        code, out, _ = run(capsys, ["expand", what, "--spec", str(tmp_path / "missing.json")])
        assert code == 2
        assert out == ""
        code, out, err = run(capsys, ["expand", what, "--spec", str(arity2)])
        assert code == 2
        assert out == ""
        assert "malformed" in err
    # a valid spec changes nothing in their output
    for what in ("ass", "dih"):
        assert run(capsys, ["expand", what, "--spec", std_spec]) == run(capsys, ["expand", what])
