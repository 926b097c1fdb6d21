"""The mutant catalogue stays pointed at the code: every snippet of
``mutants.py`` occurs exactly once in its file, and every test it names
exists.  Running the mutants themselves is ``python tests/mutants.py``."""

from __future__ import annotations

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.must_fail
    for node in mutant.must_fail:
        path, name = node.split("::")
        assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), node
