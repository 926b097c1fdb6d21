"""Byte-level golden outputs of ``plethys expand`` at degree 8.

Each digest is the sha256 of the full stdout of
``plethys expand T --max-degree 8 --format F``, with the standard module
written out as ``--spec`` for the targets that need one.  They pin the
rendering and the JSON form of both ``SymFunc`` and ``WreathSymFunc``
(``dih``) well above degree 1, so a refactor of the algebra that changes a
single byte of output fails here.
"""

import hashlib
import json

import pytest

from plethys.cli import SPEC_REQUIRED, main
from plethys.series import ModuleSpec

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
