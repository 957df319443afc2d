"""Command-line front-end.

Exit codes: 0 success/valid, 1 invalid/unsatisfied, 2 usage or I/O
error, 3 solver budget exceeded.  Diagnostics go to stderr, data to
stdout.

Importing this module loads only what every command needs; each command
imports the rest itself (semantics, the solver, json, dudf), so a run
pays only for the layers it uses.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import textio
from .criteria import CRITERIA, DEFAULT_BUDGET, SIZE_PROPERTIES, MissingSizeProperty
from .model import (
    InvalidDocument,
    NameCollision,
    PropertySchema,
    SchemaRegistry,
    validate_document,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(str(exc)) from exc


class _UsageError(Exception):
    pass


def _json_text(value):
    """json.dumps(value, indent=2) for the dicts, lists, tuples and scalars
    of a report, with no reference cycle left behind: json's indented
    encoder leaves a cycle of closures on every call, which only a
    collection reclaims, and main runs with the collector paused."""
    import json

    return _indented(value, json.dumps, "\n")


def _indented(value, dumps, newline):
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{dumps(k)}: {_indented(v, dumps, inner)}" for k, v in value.items())
    elif isinstance(value, (list, tuple)) and value:
        items = (_indented(v, dumps, inner) for v in value)
    else:
        return dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return opening + inner + ("," + inner).join(items) + newline + closing


def _decimal(n):
    """str(n), however many digits n has.  Past the interpreter's digit
    limit the limit is lifted for this one conversion and then put back,
    so an in-process caller keeps its own."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def _warn_recovered(report):
    """One warning line per stanza or junk line the parse dropped."""
    for e in report.recovered_errors:
        print(f"warning: stanza {e.stanza_index} (line {e.line}): {e.reason}",
              file=sys.stderr)


def _read_problem(path, registry=None):
    """The document of a problem file, with one warning line on stderr per
    stanza or junk line the parse dropped."""
    report = textio.parse_cudf(_read(path), registry=registry)
    _warn_recovered(report)
    return report.document


def _priced_problem(args):
    """(document, costs) of args.path under --criterion or --cost-property.

    The flags are checked before the file is read."""
    from . import solver

    criterion, cost_property = args.criterion, args.cost_property
    if (criterion is None) == (cost_property is None):
        raise _UsageError("exactly one of --criterion / --cost-property is required")
    registry = SchemaRegistry()
    if cost_property is not None:
        try:
            registry.register(PropertySchema(cost_property, "int", "package", "optional", 0))
        except NameCollision as exc:
            raise _UsageError(f"--cost-property: {exc}") from exc
    elif criterion in SIZE_PROPERTIES:
        registry.register(PropertySchema(
            SIZE_PROPERTIES[criterion], "posint", "package", "optional"))
    doc = _read_problem(args.path, registry)
    if cost_property is not None:
        return doc, {p.key: p.extra_value(cost_property, 0) for p in doc.packages}
    return doc, solver.preset_costs(doc, doc.request, criterion)


def cmd_check(args):
    report = textio.parse_cudf(_read(args.path))
    violations = validate_document(report.document)
    payload = {
        "packages": len(report.document.packages),
        "recovered_errors": [
            {"stanza": e.stanza_index, "line": e.line, "bytes": e.byte_range,
             "reason": e.reason}
            for e in report.recovered_errors
        ],
        "violations": [
            {"kind": v.kind, "package": v.package, "version": v.version,
             "reason": v.detail}
            for v in violations
        ],
    }
    if args.json:
        print(_json_text(payload))
    else:
        print(f"packages: {payload['packages']}")
        _warn_recovered(report)
        for v in violations:
            print(f"invalid: {v.detail}", file=sys.stderr)
    if args.strict and (report.recovered_errors or violations):
        return EXIT_INVALID
    return EXIT_OK


def cmd_fmt(args):
    sys.stdout.buffer.write(textio.serialize_cudf(_read_problem(args.path)))
    return EXIT_OK


def cmd_verify(args):
    from . import semantics

    entries = textio.parse_solution(_read(args.solution))  # needs no problem: read first
    problem = _read_problem(args.problem)
    after = textio.apply_solution(problem, entries)
    verdict = semantics.satisfies_request(problem, problem.request, after)
    if args.json:
        print(_json_text(_verdict_json(verdict)))
    elif args.explain:
        _explain(verdict)
    return EXIT_OK if verdict.ok else EXIT_INVALID


def _verdict_json(verdict):
    items = []
    for prefix, violations in (("successor/", verdict.successor.violations),
                               ("consistency/", verdict.consistency.violations),
                               ("", verdict.violations)):
        for v in violations:
            items.append({"clause": prefix + v.kind, "package": v.package,
                          "version": v.version, "reason": v.detail})
    return {"ok": verdict.ok, "violations": items}


def _explain(verdict):
    report = _verdict_json(verdict)
    print("request satisfied" if report["ok"] else "request violated")
    for item in report["violations"]:
        where = item["package"] or ""
        if item["version"] is not None:
            where += f" {item['version']}"
        print(f"  clause {item['clause']}: {item['reason']} [{where.strip()}]",
              file=sys.stderr)


def cmd_solve(args):
    from . import solver

    doc, costs = _priced_problem(args)
    result = solver.solve(doc, doc.request, costs, budget=args.budget)
    if result.status == "budget_exceeded":
        print("budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    if result.status == "no_solution":
        print("no solution", file=sys.stderr)
        return EXIT_INVALID
    data = textio.serialize_solution(result.document)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise _UsageError(str(exc)) from exc
        print(f"cost: {_decimal(result.cost)}")
    else:
        sys.stdout.buffer.write(data)
        print(f"cost: {_decimal(result.cost)}", file=sys.stderr)
    return EXIT_OK


def cmd_cost(args):
    from . import solver

    doc, costs = _priced_problem(args)
    print(_decimal(solver.installation_cost(doc, costs)))
    return EXIT_OK


def cmd_dudf(args):
    from . import dudf

    doc = dudf.xml_to_dudf(_read(args.path))
    if args.action == "validate":
        violations = dudf.validate_dudf(doc)
        for v in violations:
            print(f"{v.level}: {v.path}: {v.detail}", file=sys.stderr)
        errors = [v for v in violations if v.level == "error"]
        return EXIT_INVALID if errors else EXIT_OK
    if args.action == "show":
        kind = "problem/outcome pair" if doc.outcome else "sole problem"
        print(f"dudf {doc.version} ({kind})")
        print(f"  uid: {doc.uid}")
        print(f"  timestamp: {doc.timestamp}")
        print(f"  distribution: {doc.distribution}")
        print(f"  installer: {doc.installer[0]} {doc.installer[1]}")
        print(f"  meta-installer: {doc.meta_installer[0]} {doc.meta_installer[1]}")
        print(f"  package lists: {len(doc.problem.package_universe)}")
        if doc.outcome:
            print(f"  outcome: {doc.outcome.result}")
        return EXIT_OK
    # convert
    try:
        cudf_doc = dudf.toy_convert(doc)
    except dudf.ConversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.buffer.write(textio.serialize_cudf(cudf_doc))
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by every main()."""
    parser = argparse.ArgumentParser(prog="cudfkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a CUDF file and report problems")
    p.add_argument("path")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fmt", help="write the canonical serialization to stdout")
    p.add_argument("path")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("verify", help="check a solution against a problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    priced = argparse.ArgumentParser(add_help=False)  # what solve and cost share
    priced.add_argument("path")
    priced.add_argument("--criterion", choices=CRITERIA)
    priced.add_argument("--cost-property")

    p = sub.add_parser("solve", parents=[priced], help="find a minimum-cost solution")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cost", parents=[priced], help="cost of the current installation")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("dudf", help="DUDF tooling")
    p.add_argument("action", choices=("validate", "show", "convert"))
    p.add_argument("path")
    p.set_defaults(func=cmd_dudf)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # No command makes reference cycles, so a collection inside one would
    # only walk its live objects again; the caller's collector state comes
    # back on every exit.
    with textio.collector_paused():
        try:
            return args.func(args)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (MissingSizeProperty, textio.MalformedSolution) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except textio.FatalParseError as exc:
            print(f"fatal: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except InvalidDocument as exc:
            print(f"invalid: {exc}", file=sys.stderr)
            return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
