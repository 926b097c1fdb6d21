"""Batch command-line surface.

Subcommands:
  expand     print one generating series as canonical JSON (or text)
  verify     run identity-verification suites; exit 1 on any failure
  enumerate  stream a decorated-graph census as JSON lines

Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exceeded.  The environment variable PLETHYS_THREADS caps internal
parallelism; the current implementation is sequential, which satisfies any
cap, but the value is still validated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import graphoracle, verify
from .graphoracle import Budget, BudgetExceededError, canon_to_json_obj
from .series import (
    ModuleSpec,
    ModuleSpecError,
    a_series,
    b1_series,
    cyclic_necklace_series,
    necklace_series,
    tree_fixed_point,
)
from .wreath import dih_series_closed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

EXPAND_TARGETS = ("ass", "cyclic-necklaces", "necklaces", "dih", "tree", "b1")
SPEC_REQUIRED = {"cyclic-necklaces", "necklaces", "tree", "b1"}


@dataclass
class RunConfig:
    max_degree: int = 6
    spec_path: str | None = None
    output_format: str = "text"
    budget_half_edges: int | None = None
    budget_classes: int | None = None


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


def _config_from_args(args) -> RunConfig:
    _read_threads()  # validated only: every run is sequential
    cfg = RunConfig(
        max_degree=args.max_degree,
        spec_path=args.spec,
        output_format=args.format,
        budget_half_edges=getattr(args, "budget_half_edges", None),
        budget_classes=getattr(args, "budget_classes", None),
    )
    if cfg.max_degree is not None and cfg.max_degree < 1:
        raise InputError("--max-degree must be >= 1")
    return cfg


def _load_spec(cfg: RunConfig) -> ModuleSpec:
    with open(cfg.spec_path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModuleSpecError(f"spec file is not valid JSON: {exc}")
    return ModuleSpec.from_json_obj(obj)


def _budget(cfg: RunConfig, max_legs: int | None = None) -> Budget:
    base = Budget()
    return Budget(
        max_half_edges=cfg.budget_half_edges or base.max_half_edges,
        max_legs=max_legs if max_legs is not None else base.max_legs,
        max_classes=cfg.budget_classes or base.max_classes,
    )


def _emit_series(series, cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        print(json.dumps(series.to_json_obj()))
    else:
        print(str(series))


def cmd_expand(args) -> int:
    cfg = _config_from_args(args)
    N = cfg.max_degree
    target = args.what
    if target in SPEC_REQUIRED and cfg.spec_path is None:
        raise InputError(f"expand {target} requires --spec")
    if target == "ass":
        from .series import ass_series

        _emit_series(ass_series(N), cfg)
        return EXIT_OK
    if target == "dih":
        _emit_series(dih_series_closed(N), cfg)
        return EXIT_OK
    spec = _load_spec(cfg)
    # high-arity summands feed low degrees through derivatives, so the
    # assembly runs at a truncation covering the whole module and only the
    # printed series is cut to the requested degree (matching b1_series)
    working = max(N, spec.max_arity())
    a0 = a_series(spec, 0, working)
    if target == "cyclic-necklaces":
        _emit_series(cyclic_necklace_series(a0).truncated(N), cfg)
    elif target == "necklaces":
        _emit_series(necklace_series(a0).truncated(N), cfg)
    elif target == "tree":
        _emit_series(tree_fixed_point(a0).truncated(N), cfg)
    elif target == "b1":
        _emit_series(b1_series(spec, N), cfg)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    spec = _load_spec(cfg) if cfg.spec_path else ModuleSpec.standard()
    max_degree = cfg.max_degree if args.max_degree_given else None
    budget = None
    if cfg.budget_half_edges or cfg.budget_classes:
        # censuses need as many legs as the largest compared degree (the
        # per-suite defaults go up to 6)
        budget = _budget(cfg, max_legs=max(Budget().max_legs, max_degree or 6))
    if args.suite == "all":
        results = verify.run_all(spec, max_degree, budget)
    else:
        results = [verify.run_suite(args.suite, spec, max_degree, budget)]
    if cfg.output_format == "json":
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
    cfg = _config_from_args(args)
    if cfg.spec_path is None:
        raise InputError("enumerate requires --spec")
    spec = _load_spec(cfg)
    budget = _budget(cfg)
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

    def common(p, default_degree=6):
        p.add_argument("--max-degree", type=int, default=default_degree, dest="max_degree")
        p.add_argument("--spec", type=str, default=None, help="path to a module-spec JSON file")
        p.add_argument("--format", choices=("json", "text"), default=None)
        p.add_argument("--budget-half-edges", type=int, default=None, dest="budget_half_edges")
        p.add_argument("--budget-classes", type=int, default=None, dest="budget_classes")

    p_expand = sub.add_parser("expand", help="print one generating series")
    p_expand.add_argument("what", choices=EXPAND_TARGETS)
    common(p_expand)
    p_expand.set_defaults(func=cmd_expand, default_format="json")

    p_verify = sub.add_parser("verify", help="run identity-verification suites")
    p_verify.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    common(p_verify, default_degree=None)
    p_verify.set_defaults(func=cmd_verify, default_format="text")

    p_enum = sub.add_parser("enumerate", help="stream a census as JSON lines")
    p_enum.add_argument("family", choices=graphoracle.FAMILIES)
    p_enum.add_argument("--n", type=int, required=True, help="number of labeled legs")
    common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.max_degree_given = args.max_degree is not None
    if args.max_degree is None:
        args.max_degree = 6
    if args.format is None:
        args.format = args.default_format
    try:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
