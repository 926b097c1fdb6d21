"""Batch command-line surface.

Subcommands:
  expand     print one generating series as canonical JSON (or text)
  verify     run identity-verification suites; exit 1 on any failure
  enumerate  stream a decorated-graph census as JSON lines

Each subcommand takes only the options it reads; any other is a usage
error.  Exit codes: 0 success, 1 verification failure, 2 input error
(usage errors included), 3 budget exceeded, 4 internal fault (reported
with its traceback).  The environment variable PLETHYS_THREADS caps internal
parallelism; the current implementation is sequential, which satisfies any
cap, but the value is still validated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import graphoracle, verify
from .graphoracle import BudgetExceededError, canon_to_json_obj
from .series import (
    ModuleSpec,
    ModuleSpecError,
    a_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    tree_fixed_point,
    working_truncation,
)
from .wreath import dih_series_closed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

EXPAND_TARGETS = ("ass", "cyclic-necklaces", "necklaces", "dih", "tree", "b1")
SPEC_REQUIRED = {"cyclic-necklaces", "necklaces", "tree", "b1"}


class InputError(Exception):
    pass


def _read_threads() -> int:
    raw = os.environ.get("PLETHYS_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"PLETHYS_THREADS must be a positive integer, got {raw!r}")
    if value < 1:
        raise InputError(f"PLETHYS_THREADS must be a positive integer, got {raw!r}")
    return value


def _check_args(args) -> None:
    _read_threads()  # validated only: every run is sequential
    for flag in ("max_degree", "budget_half_edges", "budget_classes"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise InputError(f"--{flag.replace('_', '-')} must be >= 1")
    if getattr(args, "n", 1) < 1:
        raise InputError("--n must be >= 1: enumeration needs at least one labeled leg")


def _load_spec(path: str) -> ModuleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModuleSpecError(f"spec file is not valid JSON: {exc}")
    return ModuleSpec.from_json_obj(obj)


def _emit_series(series, args) -> None:
    if args.format == "json":
        print(json.dumps(series.to_json_obj()))
    else:
        print(str(series))


def cmd_expand(args) -> int:
    N = args.max_degree
    target = args.what
    if target in SPEC_REQUIRED and args.spec is None:
        raise InputError(f"expand {target} requires --spec")
    if target == "ass":
        from .series import ass_series

        _emit_series(ass_series(N), args)
        return EXIT_OK
    if target == "dih":
        _emit_series(dih_series_closed(N), args)
        return EXIT_OK
    spec = _load_spec(args.spec)
    working = working_truncation(spec, N)
    a0 = a_series(spec, 0, working)
    if target == "cyclic-necklaces":
        _emit_series(cyclic_necklace_series(a0).truncated(N), args)
    elif target == "necklaces":
        _emit_series(necklace_series(a0).truncated(N), args)
    elif target == "tree":
        _emit_series(tree_fixed_point(a0).truncated(N), args)
    elif target == "b1":
        _emit_series(b1_series(spec, N), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec) if args.spec else ModuleSpec.standard()
    # without --max-degree every suite runs at its own default degree, and
    # each suite sizes its census budget from the degree it runs at
    sizing = (args.max_degree, args.budget_half_edges, args.budget_classes)
    if args.suite == "all":
        results = verify.run_all(spec, *sizing)
    else:
        results = [verify.run_suite(args.suite, spec, *sizing)]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"suite": r.suite, "passed": r.passed, "detail": r.detail}
                    for r in results
                ]
            )
        )
    else:
        for r in results:
            print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_enumerate(args) -> int:
    spec = _load_spec(args.spec)
    budget = graphoracle.sized_budget(
        max_half_edges=args.budget_half_edges, max_classes=args.budget_classes
    )
    census = graphoracle.enumerate_decorated(spec, args.family, args.n, budget)
    for canon in census:
        print(json.dumps(canon_to_json_obj(canon)))
    print(json.dumps({"classCount": len(census)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plethys",
        description="Exact symmetric-function series with brute-force graph-census verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def series_options(p, default_degree, default_format):
        p.add_argument("--max-degree", type=int, default=default_degree, dest="max_degree")
        p.add_argument("--spec", type=str, default=None, help="path to a module-spec JSON file")
        p.add_argument("--format", choices=("json", "text"), default=default_format)

    def budgets(p):
        p.add_argument("--budget-half-edges", type=int, default=None, dest="budget_half_edges")
        p.add_argument("--budget-classes", type=int, default=None, dest="budget_classes")

    p_expand = sub.add_parser("expand", help="print one generating series")
    p_expand.add_argument("what", choices=EXPAND_TARGETS)
    series_options(p_expand, 6, "json")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run identity-verification suites")
    p_verify.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    series_options(p_verify, None, "text")
    budgets(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream a census as JSON lines")
    p_enum.add_argument("family", choices=graphoracle.FAMILIES)
    p_enum.add_argument("--n", type=int, required=True, help="number of labeled legs")
    p_enum.add_argument("--spec", type=str, required=True, help="path to a module-spec JSON file")
    budgets(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ModuleSpecError as exc:
        print(f"error: malformed module spec: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # an unreadable --spec path: missing, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception:
        # valid input never gets here: anything else is a fault in plethys
        import traceback  # imported here, it stays out of every start-up

        print("error: internal fault", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
