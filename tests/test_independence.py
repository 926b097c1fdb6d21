"""The brute-force side and the closed formulas stay independent.

``graphoracle`` takes from the rest of the package only the ring type and
the shared integer check (``SymFunc`` and ``_check_int`` from
``symfunc``), the test module's data (``ModuleSpec`` from ``series``) and
the cycle-index sum over a group (``Perm`` and ``ind_trivial_char`` from
``groups``): no plethysm, no Adams operation, no complete or power-sum
generating series and nothing from ``wreath``.  ``groups``, the side of
the ``bb`` and ``generating`` averages, takes only the ring types, class
tags and the shared integer check: ``Partition``, ``SymFunc``,
``_check_int`` and ``_is_int`` from ``symfunc``, ``E_CLASS``, ``T_CLASS``
and ``WreathSymFunc`` from ``wreath``.  In the other direction, the
closed-form layers ``symfunc``, ``wreath`` and ``series`` import nothing
from the group averages, the censuses, the suites or the command line.
The checks read the modules' import statements, so they hold however the
names are used.
"""

import ast
import pkgutil

import pytest

import plethys
from plethys import graphoracle, groups, series, symfunc, wreath

GRAPHORACLE_ALLOWED = {
    ("symfunc", "SymFunc"),
    ("symfunc", "_check_int"),
    ("series", "ModuleSpec"),
    ("groups", "Perm"),
    ("groups", "ind_trivial_char"),
}
GROUPS_ALLOWED = {
    ("symfunc", "Partition"),
    ("symfunc", "SymFunc"),
    ("symfunc", "_check_int"),
    ("symfunc", "_is_int"),
    ("wreath", "E_CLASS"),
    ("wreath", "T_CLASS"),
    ("wreath", "WreathSymFunc"),
}
PACKAGE_MODULES = {m.name for m in pkgutil.iter_modules(plethys.__path__)} | {"plethys"}


def _imports(source):
    """(module, name) for every imported name; ``name`` is None for a
    whole-module import.  Modules are given relative to the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((alias.name.removeprefix("plethys."), None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("plethys").removeprefix(".")
            for alias in node.names:
                if module:
                    out.append((module, alias.name))
                else:
                    # ``from . import wreath`` imports a whole module
                    out.append((alias.name, None))
    return out


def violations(source, allowed):
    """The package imports of ``source`` outside ``allowed``."""
    return [
        (module, name)
        for module, name in _imports(source)
        if module.split(".")[0] in PACKAGE_MODULES and (module, name) not in allowed
    ]


ORACLE_LAYERS = {"groups", "graphoracle", "verify", "cli"}


def oracle_imports(source):
    """The imports of a closed-form layer that reach an oracle layer."""
    return [
        (module, name) for module, name in _imports(source) if module.split(".")[0] in ORACLE_LAYERS
    ]


def _source(module):
    with open(module.__file__, encoding="utf-8") as f:
        return f.read()


@pytest.mark.parametrize("module", [symfunc, wreath, series], ids=lambda m: m.__name__)
def test_closed_forms_import_no_oracle(module):
    assert oracle_imports(_source(module)) == []


def test_oracle_imports_are_found():
    assert oracle_imports("from .groups import cyclic_subgroup\n") == [("groups", "cyclic_subgroup")]
    assert oracle_imports("from . import verify\n") == [("verify", None)]
    assert oracle_imports("import plethys.graphoracle\n") == [("graphoracle", None)]
    assert oracle_imports("from plethys.cli import main\n") == [("cli", "main")]
    assert oracle_imports("from .symfunc import SymFunc\nfrom .wreath import E_CLASS\n") == []


def test_graphoracle_imports_no_closed_formula():
    assert violations(_source(graphoracle), GRAPHORACLE_ALLOWED) == []


def test_violations_are_found():
    assert violations("from .symfunc import SymFunc, h_gen\n", GRAPHORACLE_ALLOWED) == [
        ("symfunc", "h_gen")
    ]
    assert violations("from .wreath import E_CLASS\n", GRAPHORACLE_ALLOWED) == [("wreath", "E_CLASS")]
    assert violations("from . import series\n", GRAPHORACLE_ALLOWED) == [("series", None)]
    assert violations("import plethys.wreath\n", GRAPHORACLE_ALLOWED) == [("wreath", None)]
    assert violations("from plethys.series import ModuleSpec, b1_series\n", GRAPHORACLE_ALLOWED) == [
        ("series", "b1_series")
    ]
    assert violations("from .symfunc import partitions_of, z_of\n", GRAPHORACLE_ALLOWED) == [
        ("symfunc", "partitions_of"),
        ("symfunc", "z_of"),
    ]
    assert violations(
        "from fractions import Fraction\nfrom .series import ModuleSpec\n"
        "from .groups import Perm, ind_trivial_char\n",
        GRAPHORACLE_ALLOWED,
    ) == []


def test_groups_imports_only_ring_types():
    assert violations(_source(groups), GROUPS_ALLOWED) == []


def test_groups_violations_are_found():
    assert violations("from .wreath import dih_series_closed\n", GROUPS_ALLOWED) == [
        ("wreath", "dih_series_closed")
    ]
    assert violations("from .symfunc import SymFunc, h_gen\n", GROUPS_ALLOWED) == [("symfunc", "h_gen")]
    assert violations("from . import wreath\n", GROUPS_ALLOWED) == [("wreath", None)]
    assert violations("import plethys\n", GROUPS_ALLOWED) == [("plethys", None)]
    assert violations("from plethys.series import ModuleSpec\n", GROUPS_ALLOWED) == [
        ("series", "ModuleSpec")
    ]
    assert violations(
        "from collections import Counter\nfrom .symfunc import Partition, SymFunc\n"
        "from .wreath import E_CLASS, T_CLASS, WreathSymFunc\n",
        GROUPS_ALLOWED,
    ) == []
