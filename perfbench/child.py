"""One timed benchmark process: set up, run one workload, report.

Run by ``run.py``, never by hand:

    python3 perfbench/child.py --workload NAME --spec SPEC.json --report OUT.json
        [--setup-only] [--trace SPANS.bin] [--sample]

Set-up ends once the interpreter is up, ``plethys`` is imported and the
module spec is loaded; the monotonic clock at that moment goes into the
report so the parent can measure set-up from its own spawn time.  The
workload's output goes to standard output, which the parent captures and
checks.  With ``--trace`` the span tracer is installed after set-up and its
spans are written to the given file when the workload ends.  With
``--sample`` the reference sampler of ``calibrate.py`` runs alongside the
workload, and the report holds the workload's wall and CPU time together
with the sampler's measurements of the host's speed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _verify_defaults(cli, spec, spec_path):
    return cli.main(["verify", "all", "--spec", spec_path])


def _expand_b1(cli, spec, spec_path):
    return cli.main(["expand", "b1", "--max-degree", "12", "--spec", spec_path])


def _necklace_paths(cli, spec, spec_path):
    from plethys import a_series, necklace_series

    a0 = a_series(spec, 0, max(20, spec.max_arity()))
    equal = necklace_series(a0, "direct") == necklace_series(a0, "wreath")
    print(f"necklace paths at degree 20: {'equal' if equal else 'DIFFER'}")
    return 0 if equal else 1


def _enumerate_census(cli, spec, spec_path):
    first = cli.main(["enumerate", "genus1-stable", "--n", "4", "--spec", spec_path])
    second = cli.main(["enumerate", "rooted-tree", "--n", "5", "--spec", spec_path])
    return first or second


def _bindings():
    """Identity of every module global and class attribute in plethys, to
    show that importing the tracer rebinds nothing."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "plethys" or name.startswith("plethys."):
            for key, value in vars(mod).items():
                out[name, key] = id(value)
                if isinstance(value, type):
                    out.update(((name, key, k), id(v)) for k, v in vars(value).items())
    return out


RUNNERS = {
    "verify-defaults": _verify_defaults,
    "expand-b1": _expand_b1,
    "necklace-paths": _necklace_paths,
    "enumerate-census": _enumerate_census,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--sample", action="store_true")
    args = ap.parse_args()

    import plethys
    from plethys import cli
    from plethys.series import ModuleSpec

    with open(args.spec, encoding="utf-8") as fh:
        spec = ModuleSpec.from_json_obj(json.load(fh))
    report = {"ready": time.monotonic(), "plethys": plethys.__file__}

    tracer = None
    if args.trace:
        before = _bindings()
        import tracer as tracer_module

        report["import_untouched"] = _bindings() == before
        tracer = tracer_module.Tracer()
        tracer.install()
    else:
        report["import_untouched"] = "tracer" not in sys.modules

    sampler = None
    if args.sample:
        import calibrate

        sampler = calibrate.Sampler()
        sampler.start()
    wall, cpu = time.perf_counter(), time.process_time()
    code = RUNNERS[args.workload](cli, spec, args.spec) if not args.setup_only else 0
    sys.stdout.flush()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if sampler is not None:
        sampler.stop()
        report.update(
            work_wall=wall,
            work_cpu=cpu,
            samples=sampler.samples,
            sampler_spent=sampler.spent,
            sampler_wrong=sampler.wrong,
        )
    if tracer is not None:
        tracer.dump(args.trace)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
