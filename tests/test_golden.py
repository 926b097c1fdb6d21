"""Byte-level golden outputs of ``plethys expand`` and ``plethys enumerate``.

Each ``expand`` digest is the sha256 of the full stdout of
``plethys expand T --max-degree 8 --format F``, with the standard module
written out as ``--spec`` for the targets that need one.  They pin the
rendering and the JSON form of both ``SymFunc`` and ``WreathSymFunc``
(``dih``) well above degree 1, so a refactor of the algebra that changes a
single byte of output fails here.

``B1_DEGREE_12`` is the sha256 of the full stdout of ``plethys expand b1
--max-degree 12 --spec STANDARD``, the run that the benchmark's
``expand-b1`` workload times; the fixed-point test below checks the tree
series behind it on the standard module and two variants of its genus-0
part.

Each ``enumerate`` digest is the sha256 of the full stdout of
``plethys enumerate F --n N --spec STANDARD``: the canonical encodings of
every class of the labeled census, in order, and the class count.  They pin
the enumerators and the canonical labeling.
"""

import hashlib
import json

import pytest

from plethys.cli import SPEC_REQUIRED, main
from plethys.series import ModuleSpec, a_series, tree_fixed_point
from plethys.symfunc import SymFunc, partial_p, plethysm

GOLDEN = {
    ("ass", "json"): "1e4ce5cec098a45f6c2954bf40a55c3c6cd3b8afbf6108659d28c8da47e90858",
    ("ass", "text"): "0e26b1d01fcb1e18477a97b50a021f6a2e6cc739d04d2ac696ae63e2c8011804",
    ("dih", "json"): "421843b7bcde43c10c0e6fa2ad1149fa351c8103e471dad1ae5a17606baf8d42",
    ("dih", "text"): "9bf4249401b9b9ff6adcd610921ddd14a7020c8671da25b3e187d7aaf842e50a",
    ("cyclic-necklaces", "json"): "3486930cacff97575fd1dcdebf8bb5792a4615d2d9c48050e652be31bbd086a4",
    ("cyclic-necklaces", "text"): "142136dd48f8a68a3076d3d817caab95d9a53a7b9750a2e809c63f6d83a94b88",
    ("necklaces", "json"): "df4395689003a703a3d50e1acf56ec857c2dbadd3cada24afd44f964c6373011",
    ("necklaces", "text"): "34f4a8e8196931a41f93e2b423b22b649ed1c220b04b86903a0b123345e9ba13",
    ("tree", "json"): "8d62b2bf93ab4b1fadb320b74e9089df242916e94673878867e4daf64e77598f",
    ("tree", "text"): "f4ff6bf269425001806df72120810ae5d2a9ac761269fe644ff8f6d779bb8b1c",
    ("b1", "json"): "6c7084141d9c77942a807f5e46da1e564f3c16d77bda06f76d4c07eff1c6fb2a",
    ("b1", "text"): "299185d5785d72591238e1237d81563ee2c4538c88e9cf68546e47f2091bd976",
}

B1_DEGREE_12 = "c7b8f7be5724c08a3398a134893af9bb7a5737048439c11cd3f0dc6c5735af29"

ENUMERATE_GOLDEN = {
    ("necklace", 4): "fdd425f6d03c78314f108d07bb2d956b5222384bfd27aaa2eadf9386cd2e7566",
    ("oriented-necklace", 4): "3a8031c5ca5e33fabd1f0f9fb0487d147b4e9271ef448b2bf8b37b886c83dbac",
    ("genus1-stable", 3): "c41f1f9dd1c1d2475db6c2b03faf423c1fa3a6dfd79ada759a930f35eb741cff",
    ("genus1-stable", 4): "8f45376441833905254222a0cd410f7ad09e72374d61cc930f67533b6b026ab6",
    ("rooted-tree", 4): "3d27551ca68e77e716990d9145549396455a5ccf45c15b2902c5c19ec54c3cd5",
    ("rooted-tree", 5): "a6f270208be4514b65c5bf945c8bd953cc25ab64ff1871f6fa46392c51f7e82c",
}


@pytest.fixture(scope="module")
def standard_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "standard.json"
    path.write_text(json.dumps(ModuleSpec.standard().to_json_obj()))
    return str(path)


@pytest.mark.parametrize("target, fmt", sorted(GOLDEN))
def test_expand_output_digest(capsys, standard_spec, target, fmt):
    argv = ["expand", target, "--max-degree", "8", "--format", fmt]
    if target in SPEC_REQUIRED:
        argv += ["--spec", standard_spec]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[target, fmt]


@pytest.mark.parametrize("family, n", sorted(ENUMERATE_GOLDEN))
def test_enumerate_output_digest(capsys, standard_spec, family, n):
    assert main(["enumerate", family, "--n", str(n), "--spec", standard_spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ENUMERATE_GOLDEN[family, n]


def test_expand_b1_degree_12_digest(capsys, standard_spec):
    assert main(["expand", "b1", "--max-degree", "12", "--spec", standard_spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == B1_DEGREE_12


STD = ModuleSpec.standard()
# the standard module and two genus-0 swaps from the seed pool of the
# benchmark's expand-b1 workload
TREE_MODULES = {
    "standard": STD,
    "genus0[3][0]=2.1": ModuleSpec(genus0={**STD.genus0, 3: [(2, 1)]}, genus1=STD.genus1),
    "genus0[4][1]=1.1.1.1": ModuleSpec(
        genus0={**STD.genus0, 4: [(4,), (1, 1, 1, 1)]}, genus1=STD.genus1
    ),
}


@pytest.mark.parametrize("module", sorted(TREE_MODULES))
def test_tree_fixed_point_at_degree_12(module):
    N = 12
    a0 = a_series(TREE_MODULES[module], 0, N)
    f = tree_fixed_point(a0)
    assert f == SymFunc.p(1, N) + plethysm(partial_p(1, a0), f)
