"""Command-line front end.

``run`` executes a registered scenario and exits 0 iff every expectation
holds.  ``check`` routes ad-hoc JSON inputs to the library: validate,
jm-pair, jm-set, order-audit, partitions.  Exit codes: 0 success, 1 failed
expectation, 2 parse error, 3 precondition error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .feasibility import FeasibilityOptions, FeasibilityProblem, decide, pairwise_vs_global
from .observables import observable_from_json, validate
from .order import joint_observable_order_audit
from .partitioning import partition_compatibility_matrix
from .scenarios import REGISTRY, run_scenario

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3

# every scenario parameter is a ``run`` flag, typed by its default value
_SCENARIO_PARAMS = {k: type(v) for s in REGISTRY.values() for k, v in s.defaults.items()}


def _round_floats(x):
    """12 significant digits everywhere, so reports diff cleanly."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


def _emit(report: dict, json_out: str | None):
    text = json.dumps(_round_floats(report), indent=2, sort_keys=False)
    print(text)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")


def _default_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("JM_DEFAULT_TOL")
    if env is not None:
        try:
            return float(env)
        except ValueError as err:
            raise SystemExit(f"JM_DEFAULT_TOL is not a number: {env!r}") from err
    return 1e-7


def _feas_options(args) -> FeasibilityOptions:
    return FeasibilityOptions(
        tol=_default_tol(args),
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )


def _load_observable(path: str):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise _ParseError(f"cannot read {path}: {err}") from err
    try:
        return observable_from_json(payload)
    except (KeyError, TypeError, ValueError) as err:
        raise _ParseError(f"{path} is not a valid observable: {err}") from err


class _ParseError(Exception):
    pass


def _cmd_run(args) -> int:
    if args.list:
        for name in sorted(REGISTRY):
            s = REGISTRY[name]
            print(f"{name}: {s.summary}  [{s.citation}]")
        return EXIT_OK
    if args.name is None:
        print("run: scenario name required (or --list)", file=sys.stderr)
        return EXIT_PARSE
    overrides = {name: getattr(args, name) for name in _SCENARIO_PARAMS}
    try:
        report = run_scenario(args.name, overrides, _feas_options(args))
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return EXIT_PARSE
    except ValueError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report.to_json(), args.json_out)
    if report.passed:
        return EXIT_OK
    for exp in report.expectations:
        if not exp.passed:
            print(
                f"FAILED {exp.name}: expected {exp.kind} {exp.expected}, observed {exp.observed}",
                file=sys.stderr,
            )
    return EXIT_EXPECTATION


def _check_expectation(observed: str, args) -> int:
    if args.expect is None:
        return EXIT_OK
    if observed == args.expect:
        return EXIT_OK
    print(f"expectation failed: wanted {args.expect}, got {observed}", file=sys.stderr)
    return EXIT_EXPECTATION


def _cmd_check(args) -> int:
    opts = _feas_options(args)
    inputs = args.inputs
    command = args.command
    try:
        if command == "validate":
            if len(inputs) != 1:
                raise _ParseError("validate takes exactly one observable file")
            obs = _load_observable(inputs[0])
            rep = validate(obs, tol=opts.tol)
            _emit({"command": "validate", "report": rep.to_json()}, args.json_out)
            if not rep.passed:
                print(
                    f"validation failed: normalization residual {rep.normalization_residual:.3e}",
                    file=sys.stderr,
                )
                return EXIT_PRECONDITION
            return _check_expectation("valid", args)

        if command == "jm-pair":
            if len(inputs) != 2:
                raise _ParseError("jm-pair takes exactly two observable files")
            a, b = (_load_observable(p) for p in inputs)
            report = decide(FeasibilityProblem((a, b), opts))
            _emit({"command": "jm-pair", "report": report.to_json()}, args.json_out)
            return _check_expectation(report.verdict.value, args)

        if command == "jm-set":
            if len(inputs) < 2:
                raise _ParseError("jm-set takes at least two observable files")
            parents = tuple(_load_observable(p) for p in inputs)
            if len(parents) == 2:
                report = decide(FeasibilityProblem(parents, opts))
                payload = report.to_json()
                verdict = report.verdict.value
            else:
                pg = pairwise_vs_global(parents, opts)
                payload = pg.to_json()
                verdict = pg.global_report.verdict.value
            _emit({"command": "jm-set", "report": payload}, args.json_out)
            return _check_expectation(verdict, args)

        if command == "order-audit":
            if len(inputs) != 3:
                raise _ParseError("order-audit takes a joint observable and its two parents")
            g, a, b = (_load_observable(p) for p in inputs)
            audit = joint_observable_order_audit(g, a, b)
            _emit({"command": "order-audit", "report": audit.to_json()}, args.json_out)
            observed = "all-greatest" if audit.all_greatest else "greatest-refuted"
            return _check_expectation(observed, args)

        if command == "partitions":
            if len(inputs) != 2:
                raise _ParseError("partitions takes exactly two observable files")
            a, b = (_load_observable(p) for p in inputs)
            matrix = partition_compatibility_matrix(a, b, opts)
            _emit({"command": "partitions", "report": matrix.to_json()}, args.json_out)
            observed = "all-feasible" if matrix.all_feasible else "not-all-feasible"
            return _check_expectation(observed, args)

        raise _ParseError(f"unknown check command {command!r}")
    except _ParseError as err:
        print(str(err), file=sys.stderr)
        return EXIT_PARSE
    except ValueError as err:
        print(f"precondition failed: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


def _add_common_flags(parser):
    parser.add_argument("--tol", type=float, default=None, help="feasibility tolerance (env JM_DEFAULT_TOL, then 1e-7)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=20000)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--json-out", type=str, default=None, help="also write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointmeas",
        description="Joint measurability analysis for finite-outcome quantum observables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a registered reproduction scenario")
    run.add_argument("name", nargs="?", default=None)
    run.add_argument("--list", action="store_true", help="list scenarios with citations")
    for name, typ in _SCENARIO_PARAMS.items():
        run.add_argument("--" + name.replace("_", "-"), type=typ, default=None)
    _add_common_flags(run)
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="run an ad-hoc check over JSON observables")
    check.add_argument(
        "command", choices=["validate", "jm-pair", "jm-set", "order-audit", "partitions"]
    )
    check.add_argument("inputs", nargs="+", help="observable JSON files")
    check.add_argument("--expect", type=str, default=None, help="exit 1 unless the outcome matches")
    _add_common_flags(check)
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
