"""The crystaframe command line.

    crystaframe run <file> [--report <out>] [--internal-precision <m>] [--threads <n>]
    crystaframe verify <tag> [--p <p>] [--precision <m>] [--grid <spec>]

Exit codes: 0 success, 1 assertion/command failure, 2 parse error,
3 semantic error, 4 budget exceeded.  Reports are deterministic: the same
scenario and tool version produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import sys

from .report import Report
from .runner import run_scenario
from .scenario import (
    VERIFY_TAGS,
    BudgetExceeded,
    ScenarioParseError,
    ScenarioSemanticError,
    _validate_command,
    apply_env_budget_overrides,
    parse_scenario,
    parse_verify_value,
    validate_scenario,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_BUDGET = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystaframe",
        description="Exact desk-scale frames, windows, Witt vectors and divided powers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("file")
    run_p.add_argument("--report", help="write the machine-readable JSON report here")
    run_p.add_argument(
        "--internal-precision",
        type=int,
        default=None,
        help="re-run precision-sensitive solves at this higher precision",
    )
    run_p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker budget; execution is sequential and deterministic either way",
    )

    ver_p = sub.add_parser("verify", help="run a named lemma battery")
    ver_p.add_argument("tag", choices=VERIFY_TAGS)
    ver_p.add_argument("--p", type=int, default=None)
    ver_p.add_argument("--precision", type=int, default=None)
    ver_p.add_argument(
        "--grid", default=None, help="comma-separated key=value battery parameters"
    )
    return parser


def cmd_run(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"parse error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        sc = parse_scenario(text)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    apply_env_budget_overrides(sc)
    try:
        objects = validate_scenario(sc)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioSemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        report = run_scenario(
            sc, objects, internal_precision=args.internal_precision, threads=args.threads
        )
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    for line in report.human_lines():
        print(line)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    return EXIT_ASSERTION if report.failed else EXIT_OK


def cmd_verify(args) -> int:
    """The flags become key=value tokens, checked as `command verify` is:
    --grid values first, then --p under the battery's prime keyword."""
    from .batteries import battery_parameters, verify

    tokens = args.grid.split(",") if args.grid else []
    given = {tok.split("=", 1)[0] for tok in tokens}
    flags = {"precision": args.precision}
    if args.p is not None:
        defaults = battery_parameters(args.tag)
        flags[next((k for k in ("p", "primes", "p_list") if k in defaults), "p")] = args.p
    tokens += [f"{k}={v}" for k, v in flags.items() if v is not None and k not in given]
    try:
        _validate_command(["verify", args.tag, *tokens], {}, {}, {})
    except ScenarioSemanticError as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    params = dict(tok.split("=", 1) for tok in tokens)
    result = verify(args.tag, **{k: parse_verify_value(v) for k, v in params.items()})
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] verify {args.tag}: {result.checks} checks")
    for key, val in sorted(result.details.items()):
        print(f"    {key}: {val}")
    for cex in result.counterexamples[:8]:
        print(f"    counterexample: {cex}")
    return EXIT_OK if result.passed else EXIT_ASSERTION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.subcommand == "run":
        return cmd_run(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
