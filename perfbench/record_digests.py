"""Record the sha256 of the output of every input the digest-checked
workloads can be given (the standard module and each swap in their pools).

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the commit whose output is taken as
correct; it rewrites ``perfbench/digests.json``.  A later commit whose
output changes fails the benchmark's check on the affected inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads

CHECKED = ("expand-b1", "enumerate-census")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    digests = {}
    for workload in CHECKED:
        inputs = [("standard", workloads.STANDARD)]
        inputs += [(workloads.swap_label(s), workloads.apply_swap(s)) for s in workloads.POOLS[workload]]
        digests[workload] = {}
        for label, spec in inputs:
            spec_path = os.path.join(run.WORK, f"digest-spec-{workload}.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh, sort_keys=True)
            args = ["--workload", workload, "--spec", spec_path]
            child = run.spawn(f"digest-{workload}", args, run.RUN_LIMIT_S)
            if child.code != 0:
                print(f"{workload} {label}: exit {child.code}", file=sys.stderr)
                return 1
            digests[workload][label] = hashlib.sha256(child.stdout).hexdigest()
            print(f"{workload:18s} {label:28s} {digests[workload][label]}")
    with open(os.path.join(workloads.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
