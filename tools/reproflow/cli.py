"""Command-line front end: ``python -m tools.reproflow [paths...]``.

Runs all five whole-program passes (parse/RF000, RNG-provenance taint
RF001/RF002, state-machine model checking RF003/RF004, bidirectional
obs coverage RF005/RF006, reachability from the entry points RF007) and
ratchets the result against the checked-in baseline.

Exit codes: 0 — no *new* error-severity findings vs the baseline;
1 — at least one new error (or a baseline failure); 2 — bad
invocation. Baselined findings are reported but never fatal; stale
baseline entries are reported so the file gets pruned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from tools.reproflow.baseline import (
    load_baseline,
    ratchet,
    write_baseline,
)
from tools.reproflow.engine import analyze_paths
from tools.reproflow.sarif import render_sarif

#: The RF rule catalog (docs/static-analysis.md has the long form).
RULES: Dict[str, Dict[str, str]] = {
    "RF000": {
        "summary": "file does not parse; it is excluded from analysis",
        "rationale": (
            "A syntax error in one module must never abort the whole "
            "run — the file gets one finding and the program model is "
            "built from everything else."
        ),
    },
    "RF001": {
        "summary": (
            "RNG draw whose stream has an unseeded root (interprocedural)"
        ),
        "rationale": (
            "Byte-identical same-seed runs require every Generator to "
            "flow from an explicitly seeded root. reprolint RL004 "
            "catches bare default_rng() per file; RF001 follows streams "
            "across returns, parameters, attributes and spawn() to the "
            "draw sites they actually feed."
        ),
    },
    "RF002": {
        "summary": "RNG stream crosses the repro.faults boundary",
        "rationale": (
            "The zero-RNG-when-disabled guarantee holds because fault "
            "randomness lives on its own streams (the fault model "
            "compiles from an integer seed). A simulation stream handed "
            "into repro.faults — or a faults stream escaping — silently "
            "couples the two draw sequences."
        ),
    },
    "RF003": {
        "summary": (
            "state machine disagrees with its declared transition table"
        ),
        "rationale": (
            "Lifecycle edges are a reviewable contract "
            "(tools/reproflow/tables.py). RF003 fires on forbidden "
            "edges implemented (e.g. QUARANTINED->ACTIVE), undeclared "
            "edges, declared-but-unimplemented edges, unhandled states, "
            "and tables that fail model checking (unreachable states, "
            "dead non-terminal states)."
        ),
    },
    "RF004": {
        "summary": "transition constructed without a prior epoch bump",
        "rationale": (
            "Epoch fencing only works if every takeover/handback path "
            "mints a fresh epoch. RF004 is the static form of runtime "
            "invariant R2: each FailoverTransition construction must be "
            "preceded by self._bump() in the same function."
        ),
    },
    "RF005": {
        "summary": "registered obs name/prefix is never emitted",
        "rationale": (
            "Dead inventory in repro.obs.names reads as a promise that "
            "a series exists when it never materializes. RL005 proves "
            "emissions are registered; RF005 proves registrations are "
            "emitted — together the inventory is exact."
        ),
    },
    "RF006": {
        "summary": "emission uses an unregistered obs name/prefix",
        "rationale": (
            "Whole-program restatement of RL005 so the obs pass is "
            "self-contained on partial trees and fixtures."
        ),
    },
    "RF007": {
        "summary": "definition under src/ that no entry point reaches",
        "rationale": (
            "Code no run, report, example or benchmark executes adds "
            "nothing to the reproduction, yet every reader audits it. "
            "Roots: repro.cli:main, every file under examples/, "
            "perfbench/ and tools/, module-level code, "
            "protocol methods (dunders, pickle hooks) and the tooling "
            "allowlist; tests, re-exports and __all__ are not uses."
        ),
    },
}

DEFAULT_BASELINE = os.path.join("tools", "reproflow", "baseline.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reproflow",
        description=(
            "Whole-program analyzer: RNG-provenance taint, state-machine "
            "model checking, bidirectional obs coverage, reachability "
            "(rules RF000-RF007; see docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tools"],
        help="files or directories to analyze (default: src tools)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit findings as a single JSON document",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write findings as SARIF 2.1.0 to PATH",
    )
    parser.add_argument(
        "--select", metavar="RFxxx", action="append", default=None,
        help="keep only these rule codes (repeatable)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=DEFAULT_BASELINE,
        help=f"baseline file for the ratchet (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: every finding counts as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to exactly the current findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _list_rules() -> str:
    return "\n".join(
        f"{code} [error] {RULES[code]['summary']}" for code in sorted(RULES)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if args.select:
        unknown = sorted(set(args.select) - set(RULES))
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(unknown)}")

    findings = analyze_paths(args.paths, select=args.select)

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"reproflow: wrote {len(findings)} finding(s) to "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 0

    entries = []
    if not args.no_baseline:
        try:
            entries = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"reproflow: {exc}", file=sys.stderr)
            return 1
    new, baselined, stale = ratchet(findings, entries)
    new_errors = [f for f in new if f.severity == "error"]

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(findings, RULES))

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in findings],
                    "new": [f.to_dict() for f in new],
                    "baselined": [f.to_dict() for f in baselined],
                    "stale_baseline": stale,
                    "errors": len(new_errors),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in new:
            print(finding.format())
        for finding in baselined:
            print(f"{finding.format()} [baselined]")
        for entry in stale:
            print(
                "reproflow: stale baseline entry "
                f"{entry['code']} {entry['path']}: {entry['message']} "
                "(run --write-baseline to prune)",
                file=sys.stderr,
            )
        if findings:
            print(
                f"reproflow: {len(findings)} finding(s) "
                f"({len(new)} new, {len(baselined)} baselined)",
                file=sys.stderr,
            )
        else:
            print("reproflow: clean", file=sys.stderr)
    return 1 if new_errors else 0
