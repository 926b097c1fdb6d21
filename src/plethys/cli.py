"""Batch command-line surface.

Subcommands:
  expand     print one generating series as canonical JSON (or text)
  verify     run identity-verification suites; exit 1 on any failure
  enumerate  stream a decorated-graph census as JSON lines

Each subcommand takes only the options it reads; any other is a usage
error.  Exit codes: 0 success, 1 verification failure, 2 input error
(usage errors and an unreadable ``--spec`` path included), 3 budget
exceeded, 4 internal fault (reported with its traceback) or output that
could not be written (reported without one).  Every census holds at most
``graphoracle.DEFAULT_BUDGET`` classes, a fixed limit, and ``enumerate
--n`` takes at most ``ENUMERATE_MAX_LEGS`` legs, checked before any graph
is built.
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
    ass_series,
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

# Stability makes 2g_v - 2 + n_v >= 1 at every vertex v of valence n_v, and
# over a census graph with n legs these terms sum to n (n - 1 for a rooted
# tree, whose root is one more leg), so it has at most n vertices and 3n
# half-edges: the leg limit bounds every graph of the census.
ENUMERATE_MAX_LEGS = 5


class InputError(Exception):
    pass


def _check_args(args) -> None:
    max_degree = getattr(args, "max_degree", None)
    if max_degree is not None and max_degree < 1:
        raise InputError("--max-degree must be >= 1")
    n = getattr(args, "n", 1)
    if n < 1:
        raise InputError("--n must be >= 1: enumeration needs at least one labeled leg")
    if n > ENUMERATE_MAX_LEGS:
        raise BudgetExceededError(f"{n} legs exceed budget {ENUMERATE_MAX_LEGS}")


def _unique_keys(pairs) -> dict:
    """JSON object hook: a key given twice is a malformed spec, where
    ``json.load`` alone would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ModuleSpecError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _load_spec(path: str) -> ModuleSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        # an unreadable --spec path: missing, a directory, no permission
        raise InputError(exc) from None
    except ModuleSpecError:
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax or encoding, or an integer longer than
        # int() converts; RecursionError: nesting deeper than the
        # decoder's recursion limit
        raise ModuleSpecError(f"spec file is not valid JSON: {exc}")
    return ModuleSpec.from_json_obj(obj)


def cmd_expand(args) -> int:
    N = args.max_degree
    target = args.what
    if target in SPEC_REQUIRED and args.spec is None:
        raise InputError(f"expand {target} requires --spec")
    # a given spec is checked even by the targets that do not read it
    spec = _load_spec(args.spec) if args.spec is not None else None
    if target == "ass":
        series = ass_series(N)
    elif target == "dih":
        series = dih_series_closed(N)
    elif target == "b1":
        series = b1_series(spec, N)
    else:
        a0 = a_series(spec, 0, working_truncation(spec, N))
        if target == "cyclic-necklaces":
            series = cyclic_necklace_series(a0)
        elif target == "necklaces":
            series = necklace_series(a0)
        else:
            series = tree_fixed_point(a0)
        series = series.truncated(N)
    print(json.dumps(series.to_json_obj()) if args.format == "json" else series)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args.spec) if args.spec is not None else ModuleSpec.standard()
    # without --max-degree every suite runs at its own default degree
    if args.suite == "all":
        results = verify.run_all(spec, args.max_degree)
    else:
        results = [verify.run_suite(args.suite, spec, args.max_degree)]
    if args.format == "json":
        print(json.dumps([r._asdict() for r in results]))
    else:
        for r in results:
            print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_enumerate(args) -> int:
    spec = _load_spec(args.spec)
    census = graphoracle.enumerate_decorated(spec, args.family, args.n)
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

    p_expand = sub.add_parser("expand", help="print one generating series")
    p_expand.add_argument("what", choices=EXPAND_TARGETS)
    series_options(p_expand, 6, "json")
    p_expand.set_defaults(func=cmd_expand)

    p_verify = sub.add_parser("verify", help="run identity-verification suites")
    p_verify.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    series_options(p_verify, None, "text")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream a census as JSON lines")
    p_enum.add_argument("family", choices=graphoracle.FAMILIES)
    p_enum.add_argument("--n", type=int, required=True, help="number of labeled legs")
    p_enum.add_argument("--spec", type=str, required=True, help="path to a module-spec JSON file")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ModuleSpecError as exc:
        print(f"error: malformed module spec: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # stdout is closed or full: point it at the null device, as the
        # signal docs advise for SIGPIPE, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
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
