"""The ``repro-lint`` command-line interface.

Exit-code contract (uniform across every subcommand, and shared with
``python -m repro``):

* **0** — the tool ran and found nothing;
* **1** — the tool ran and has findings (the negative answer);
* **2** — the tool could not run as invoked (bad flags, unknown rule,
  unreadable path).

Subcommands::

    repro-lint code [PATH...]          # AST rules over Python sources
    repro-lint flow [PATH...]          # whole-program call-chain analyses
    repro-lint spec FILE...            # semantic checks over spec files
    repro-lint rules                   # print the rule catalogue
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Sequence

from repro.analysis.lint.engine import (
    Analyzer,
    Finding,
    all_rules,
    exit_code,
    get_rules,
)
from repro.analysis.lint.reporters import render_json, render_text
from repro.analysis.lint.spec import SPEC_RULES, check_spec_path
from repro.analysis.lint.suppressions import META_RULES

_SPEC_SUFFIXES = (".json", ".jsonl")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "static analysis for the ROTA reproduction: determinism and "
            "exactness rules over the code, well-formedness rules over "
            "spec files (exit 0 clean / 1 findings / 2 usage)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    code = sub.add_parser(
        "code", help="run the AST rules over Python sources"
    )
    code.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    code.add_argument(
        "--rules", default=None, metavar="RULE[,RULE...]",
        help="run only the named rules (suppressions naming other rules "
        "are not checked for staleness)",
    )
    code.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )

    flow = sub.add_parser(
        "flow",
        help="whole-program flow analyses (transitive taint, checkpoint "
        "coverage, shared-state escapes) over Python sources",
    )
    flow.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    flow.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text; json includes call-graph "
        "stats)",
    )

    spec = sub.add_parser(
        "spec", help="semantic well-formedness checks over spec files"
    )
    spec.add_argument(
        "paths", nargs="+",
        help="spec files (.json/.jsonl) or directories to scan for them",
    )
    spec.add_argument(
        "--quick", action="store_true",
        help="smoke mode: cap the records examined per trace/scenario",
    )
    spec.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )

    sub.add_parser("rules", help="print the rule catalogue and exit")
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(findings: List[Finding], files_checked: int, fmt: str) -> int:
    if fmt == "json":
        print(render_json(findings, files_checked))
    else:
        print(render_text(findings, files_checked))
    return exit_code(findings)


def _cmd_code(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            return _usage_error(f"no such file or directory: {path}")
    if args.rules is not None:
        names = [n.strip() for n in args.rules.split(",") if n.strip()]
        if not names:
            return _usage_error("--rules got an empty rule list")
        try:
            rules = get_rules(names)
        except KeyError as exc:
            return _usage_error(
                f"unknown rule {exc.args[0]!r}; see 'repro-lint rules'"
            )
        analyzer = Analyzer(rules)
    else:
        analyzer = Analyzer()
    findings, checked = analyzer.check_paths(paths)
    return _emit(findings, checked, args.format)


def _cmd_flow(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            return _usage_error(f"no such file or directory: {path}")
    # Imported here so `repro-lint code` never pays for the call-graph
    # machinery it does not use.
    from repro.analysis.flow import FlowAnalyzer, render_flow_json

    result = FlowAnalyzer().check_paths(paths)
    if args.format == "json":
        print(render_flow_json(result))
    else:
        print(render_text(result.findings, result.files_checked))
    return exit_code(result.findings)


def _spec_files(paths: Sequence[str]) -> List[Path] | None:
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                sorted(
                    p for suffix in _SPEC_SUFFIXES
                    for p in path.rglob(f"*{suffix}")
                )
            )
        elif path.exists():
            out.append(path)
        else:
            return None
    return out


def _cmd_spec(args: argparse.Namespace) -> int:
    files = _spec_files(args.paths)
    if files is None:
        missing = next(p for p in args.paths if not Path(p).exists())
        return _usage_error(f"no such file or directory: {missing}")
    if not files:
        return _usage_error(
            "no spec files (.json/.jsonl) found under the given paths"
        )
    findings: List[Finding] = []
    for path in files:
        try:
            findings.extend(check_spec_path(path, quick=args.quick))
        except OSError as exc:
            return _usage_error(f"cannot read {path}: {exc}")
    findings.sort()
    return _emit(findings, len(files), args.format)


def _cmd_rules(_args: argparse.Namespace) -> int:
    print("code rules (repro-lint code):")
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "all repro modules"
        print(f"  {rule.name}: {rule.description} [scope: {scope}]")
    print("flow rules (repro-lint flow):")
    from repro.analysis.flow.names import FLOW_RULES

    for name, description in FLOW_RULES.items():
        print(f"  {name}: {description}")
    print("meta rules (suppression machinery):")
    for name, description in META_RULES.items():
        print(f"  {name}: {description}")
    print("spec rules (repro-lint spec):")
    for name, description in SPEC_RULES.items():
        print(f"  {name}: {description}")
    print(
        "suppress a code or flow finding in place with\n"
        "  # repro-lint: disable=<rule>[,<rule>] -- <reason>\n"
        "(the reason is mandatory; unexplained suppressions are findings)"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "code":
        return _cmd_code(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command == "spec":
        return _cmd_spec(args)
    if args.command == "rules":
        return _cmd_rules(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
