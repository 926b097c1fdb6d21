"""Seeded inputs and output checks for the four benchmark workloads.

Seed 0 is the standard verification module (``ModuleSpec.standard()``,
written out here so the benchmark's input never moves with the program).
Every other seed swaps one Young module at an arity of at most 4 for
another partition of the same arity, drawn from the workload's pool below.

The pools hold only the swaps that leave the workload's amount of work
near the standard module's, so that the spread across seeds is the spread
of the program's timings rather than of its inputs.  Most genus-0 swaps
multiply the census sizes; ``verify all`` and ``enumerate`` then run for
minutes.  ``perfbench/NOTES.md`` lists what every swap costs, including
those left out.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("verify-defaults", "expand-b1", "necklace-paths", "enumerate-census")

STANDARD = {
    "genus0": {"3": [[3]], "4": [[4], [2, 2]], "5": [[5]], "6": [[6]]},
    "genus1": {"1": [[1]], "2": [[2]], "3": [[3]], "4": [[4]]},
}


def _swaps(genus, arity, pos, *partitions):
    """Swaps of the module at (genus, arity, pos) for each partition."""
    return [(genus, str(arity), pos, lam) for lam in partitions]


GENUS1_SWAPS = (
    _swaps("genus1", 2, 0, (1, 1))
    + _swaps("genus1", 3, 0, (2, 1), (1, 1, 1))
    + _swaps("genus1", 4, 0, (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
)

# A swap is in a workload's pool when the workload's deterministic work
# count on it, measured with the tracer, is within 1% of the standard
# module's: census classes and canonical_form calls for the census
# workloads, symfunc.mul_term_pairs for the algebra ones.  Genus-0 swaps
# shrink the censuses by up to 70% or grow them several-fold.
POOLS = {
    "verify-defaults": GENUS1_SWAPS,
    "expand-b1": (
        _swaps("genus0", 3, 0, (2, 1))
        + _swaps("genus0", 4, 0, (3, 1))
        + _swaps("genus0", 4, 1, (4,), (3, 1), (2, 1, 1), (1, 1, 1, 1))
        + GENUS1_SWAPS
    ),
    # the necklace series reads genus 0 only, so genus-1 swaps would leave
    # its input unchanged
    "necklace-paths": (
        _swaps("genus0", 3, 0, (2, 1))
        + _swaps("genus0", 4, 0, (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        + _swaps("genus0", 4, 1, (4,), (3, 1), (2, 1, 1), (1, 1, 1, 1))
    ),
    "enumerate-census": GENUS1_SWAPS,
}

SUITES = ("bb", "generating", "deg1", "cyclic", "necklaces", "theorem", "negative-dih")

with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)


def swap_label(swap) -> str:
    genus, arity, pos, new = swap
    return f"{genus}[{arity}][{pos}]={'.'.join(map(str, new))}"


def apply_swap(swap) -> dict:
    genus, arity, pos, new = swap
    spec = copy.deepcopy(STANDARD)
    spec[genus][arity][pos] = list(new)
    return spec


def make_spec(workload: str, seed: int):
    """The seeded module spec of a run, with a label naming the swap."""
    if seed == 0:
        return "standard", copy.deepcopy(STANDARD)
    swap = random.Random(seed).choice(POOLS[workload])
    return swap_label(swap), apply_swap(swap)


def check_output(workload: str, label: str, code, stdout: bytes):
    """(ok, note) for one child's exit code and standard output."""
    text = stdout.decode("utf-8", errors="replace")
    if code != 0:
        last = text.strip().splitlines()[-1:] or [""]
        return False, f"exit code {code}: {last[0][:200]}"
    if workload == "verify-defaults":
        lines = text.splitlines()
        got = [line.split(":", 1)[0] for line in lines if ": PASS" in line]
        if len(lines) != len(SUITES) or tuple(got) != SUITES:
            return False, f"expected seven PASS lines {SUITES}, got {lines}"
        return True, "seven PASS lines, negative-dih control included"
    if workload == "necklace-paths":
        if text != "necklace paths at degree 20: equal\n":
            return False, f"direct and wreath paths differ: {text.strip()!r}"
        return True, "direct and wreath paths equal"
    if workload == "enumerate-census":
        lines = text.splitlines()
        counts = [json.loads(line)["classCount"] for line in lines if line.startswith('{"classCount"')]
        if len(counts) != 2 or sum(counts) + 2 != len(lines):
            return False, "census output is not two JSON-line censuses with their class counts"
    elif workload == "expand-b1":
        if "terms" not in json.loads(text):
            return False, "expand b1 did not print a series"
    want = DIGESTS.get(workload, {}).get(label)
    got = hashlib.sha256(stdout).hexdigest()
    if want is None:
        return True, f"output digest {got[:12]} unchecked: none recorded for {label}"
    if got != want:
        return False, f"output digest {got[:12]} differs from recorded {want[:12]}"
    return True, f"output digest {got[:12]} matches the recorded one"
