"""A catalogue of mutants: each breaks one shortcut of the engine, and the
tests named with it must catch the break.

An entry names a file (relative to the repository root), a snippet that
occurs exactly once in it, the snippet's replacement, and the pytest node
ids that must all fail once the replacement is made.  ``test_mutants.py``
checks in the tier-1 run that every snippet occurs exactly once and every
named test exists, so a refactor that moves a snippet must re-point its
mutant.

Run as a script, this file applies each mutant to a temporary copy of
``src`` and ``tests``, runs the mutant's node ids there in a fresh
process, and exits 1 if any mutant survives (a named test passes, or the
run does not get as far as failing every one)::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    must_fail: tuple


# geom, log_inv and _cyclic_sum against their power-sum references
SERIES_REFERENCES = (
    "tests/test_reference_algebra.py::test_series_match_the_power_sums[SymFunc]",
    "tests/test_reference_algebra.py::test_series_match_the_power_sums[WreathSymFunc]",
)
GEOM_LAWS = (
    "tests/test_properties.py::test_geom_inverts_one_minus[SymFunc]",
    "tests/test_properties.py::test_geom_inverts_one_minus[WreathSymFunc]",
    "tests/test_symfunc.py::test_log_geom_inverse_relation",
)

MUTANTS = (
    Mutant(
        "geom: the recurrence drops the f_d * g_0 term",
        "src/plethys/symfunc.py",
        "            if j <= d:\n",
        "            if j < d:\n",
        SERIES_REFERENCES + GEOM_LAWS,
    ),
    Mutant(
        "geom: the recurrence starts at g_0 = 0",
        "src/plethys/symfunc.py",
        "    g_parts = [f.one(N)]\n",
        "    g_parts = [f.zero(N)]\n",
        SERIES_REFERENCES + GEOM_LAWS,
    ),
    Mutant(
        "log_inv: the degree-d part is not divided by d",
        "src/plethys/symfunc.py",
        "{key: c / degree(key) for key, c in product._terms.items()}",
        "{key: c for key, c in product._terms.items()}",
        SERIES_REFERENCES
        + (
            "tests/test_properties.py::test_exp_of_log_inv_is_geom[SymFunc]",
            "tests/test_properties.py::test_exp_of_log_inv_is_geom[WreathSymFunc]",
            "tests/test_symfunc.py::test_log_inv_and_geom",
            "tests/test_wreath.py::test_log_inv_geom_on_wreath",
        ),
    ),
    Mutant(
        "_cyclic_sum: adds adams(1, L) in place of adams(n, L)",
        "src/plethys/symfunc.py",
        "out = out + adams(n, log) * Fraction(euler_phi(n), n)",
        "out = out + adams(1, log) * Fraction(euler_phi(n), n)",
        SERIES_REFERENCES
        + (
            "tests/test_wreath.py::test_dih_series_closed_small",
            "tests/test_series.py::test_cyclic_necklace_series_examples",
        ),
    ),
    Mutant(
        "_leg_actions: every automorphism acts on the legs as the identity",
        "src/plethys/graphoracle.py",
        "        image = dict(zip(first, order))\n",
        "        image = dict(zip(first, first))\n",
        ("tests/test_automorphisms.py::test_aut_char_equals_burnside_char[std-genus1-stable]",),
    ),
    Mutant(
        "_canonical_search: refinement stops after one round",
        "src/plethys/graphoracle.py",
        "        if nh_next == nh and nv_next == nv:\n",
        "        if True:\n",
        # more work, the same forms: only the kernel's work counts show it
        ("tests/test_graphoracle.py::test_canonical_kernel_work_counts",),
    ),
    Mutant(
        "_canonical_search: the search key drops the partner's position",
        "src/plethys/graphoracle.py",
        "dec_block[h], vpos[partner_vertex[h]], hcol[h])",
        "dec_block[h], hcol[h])",
        (
            "tests/test_canonical_reference.py::test_kernel_matches_reference",
            "tests/test_golden.py::test_enumerate_output_digest[genus1-stable-3]",
            "tests/test_golden.py::test_enumerate_output_digest[necklace-4]",
        ),
    ),
    Mutant(
        "_fill_shape: twins need not share their internal-port counts",
        "src/plethys/graphoracle.py",
        " and shape[v] == shape[v + 1] and int_counts[v] == int_counts[v + 1]\n",
        " and shape[v] == shape[v + 1]\n",
        (
            "tests/test_twin_rule.py::test_twin_rule_prunes_generation",
            "tests/test_census_symmetry.py::"
            "test_non_decreasing_internal_ports_meet_every_class[standard-genus1-stable-3]",
        ),
    ),
    Mutant(
        "_fill_shape: the twin filter is dropped",
        "src/plethys/graphoracle.py",
        "            if all(a[v] < a[v + 1] for v in twins)\n",
        "",
        ("tests/test_twin_rule.py::test_twin_rule_prunes_generation",),
    ),
    Mutant(
        "_necklace_graphs: every composition is laid out, not only the least",
        "src/plethys/graphoracle.py",
        "            if not _least_up_to_symmetry(comp, oriented):\n                continue\n",
        "",
        # more work, the same classes: only the raw graph count shows it
        ("tests/test_necklace_layouts.py::test_least_layouts_bound_the_raw_graphs",),
    ),
    Mutant(
        "_ordered_set_partitions: repeated labels give repeated assignments",
        "src/plethys/graphoracle.py",
        "dict.fromkeys(combinations(items, sizes[0]))",
        "combinations(items, sizes[0])",
        (
            "tests/test_necklace_layouts.py::test_least_layouts_bound_the_raw_graphs",
            "tests/test_necklace_layouts.py::test_repeated_items_give_each_assignment_once[all-equal]",
        ),
    ),
    Mutant(
        "run_deg1: the unordered and the ordered loop censuses are swapped",
        "src/plethys/verify.py",
        '        unordered = census_char(one_vertex, "necklace", m - 2, N)\n'
        '        ordered = census_char(one_vertex, "oriented-necklace", m - 2, N)\n',
        '        unordered = census_char(one_vertex, "oriented-necklace", m - 2, N)\n'
        '        ordered = census_char(one_vertex, "necklace", m - 2, N)\n',
        # the two agree on h_4, so only the h_(3,2) case shows the swap
        (
            "tests/test_acceptance.py::test_verify_all_cli_defaults_exit_zero",
            "tests/test_cli.py::test_verify_all_small_degrees",
            "tests/test_cli.py::test_verify_failure_exit_code",
        ),
    ),
    Mutant(
        "_necklace_route: the wreath route is the necklace formula",
        "src/plethys/series.py",
        "        return specialize_s2(dih_series_closed(core.truncation), core, adot)\n",
        "        return _necklace_formula(core, adot)\n",
        (
            # the two routes agree, so each theorem perturbation reaches the census
            "tests/test_verify.py::test_suite_fails_on_a_perturbed_closed_form[theorem-b1_series]",
            "tests/test_verify.py::test_suite_fails_on_a_perturbed_closed_form[theorem-paper-route]",
        ),
    ),
    Mutant(
        "to_json_obj: the numerator is written as the denominator",
        "src/plethys/symfunc.py",
        '"den": str(c.denominator),',
        '"den": str(c.numerator),',
        tuple(
            f"tests/test_golden.py::test_expand_output_digest[{target}-json]"
            for target in ("ass", "b1", "cyclic-necklaces", "dih", "necklaces", "tree")
        )
        + (
            "tests/test_golden.py::test_expand_b1_degree_12_digest",
            "tests/test_properties.py::test_json_roundtrip[SymFunc]",
            "tests/test_properties.py::test_json_roundtrip[WreathSymFunc]",
            "tests/test_symfunc.py::test_to_json_obj_writes_lowest_terms_as_decimal_strings[minus-three-halves]",
        ),
    ),
    Mutant(
        "_grouped_key: every wreath key group is written with exp 1",
        "src/plethys/wreath.py",
        '"exp": len(list(run))}',
        '"exp": 1}',
        (
            "tests/test_golden.py::test_expand_output_digest[dih-json]",
            "tests/test_properties.py::test_json_roundtrip[WreathSymFunc]",
            "tests/test_wreath.py::test_json_roundtrip_and_canonical_key_order",
            "tests/test_wreath.py::test_to_json_obj_groups_equal_factors[P1^2*P2]",
        ),
    ),
    Mutant(
        "specialize_s2: Q_k goes to adams(k, adot) without the factor 2",
        "src/plethys/wreath.py",
        "else adams(k, adot) * 2\n",
        "else adams(k, adot)\n",
        (
            "tests/test_series.py::test_b1_series_is_the_paper_route[standard-12]",
            # the paper's route inside the theorem suite
            "tests/test_acceptance.py::test_criterion_5_full_theorem_degree_4",
        ),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Make ``mutant``'s replacement in the copy of the repository at ``root``."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet must occur exactly once in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, pytest's summary line) for ``mutant`` on a temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.must_fail],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True,
            text=True,
        )
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()
    # exit code 1 is "tests ran and some failed"; a collection error is not a kill
    return proc.returncode == 1 and "passed" not in summary, summary


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        killed, summary = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({summary})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
