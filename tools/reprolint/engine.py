"""Core machinery of reprolint: config, file walking, suppressions.

The engine is deliberately dumb: it parses each file once with the
stdlib :mod:`ast` module, hands the tree to every rule whose scope
covers the file, and filters the returned findings through suppression
comments. Rules live in :mod:`tools.reprolint.rules`; everything
repo-specific a rule needs (scopes, allowlists, the registered names
module) is carried by :class:`Config` so tests can substitute their own.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

#: Directory names never descended into when walking lint targets.
#: ``fixtures`` is excluded because the linter's own test fixtures are
#: *intentional* rule violations — data, not code.
DEFAULT_EXCLUDE_DIRS = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "build", "fixtures"}
)

#: ``np.random.<attr>`` accesses that are *not* global-state RNG use.
SEEDED_NP_RANDOM_ATTRS = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@dataclass(frozen=True)
class NameSets:
    """The registered span/metric names RL005 validates against."""

    span_names: FrozenSet[str] = frozenset()
    metric_names: FrozenSet[str] = frozenset()
    span_prefixes: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Config:
    """Everything repo-specific the rules consult.

    Paths are POSIX-style, relative to the repository root (lint is run
    from the repo root). A *scope* is a tuple of path prefixes the rule
    applies under; an *allowlist* is a tuple of exact file paths exempt
    from (part of) a rule.
    """

    exclude_dirs: FrozenSet[str] = DEFAULT_EXCLUDE_DIRS

    #: RL001 — no global-state RNG anywhere in the simulation or tests.
    rl001_scope: Tuple[str, ...] = ("src/repro", "tests")

    #: RL002 — no nondeterminism sources in the simulation.
    rl002_scope: Tuple[str, ...] = ("src/repro",)
    #: Files allowed to *timestamp* (CLI entry, exporter timestamp fields).
    rl002_timestamp_allow: Tuple[str, ...] = (
        "src/repro/cli.py",
        "src/repro/obs/export.py",
    )
    #: Files allowed to read the monotonic wall clock: they measure the
    #: host (span durations, frame wall time), which the determinism
    #: guarantee explicitly excludes.
    rl002_wallclock_allow: Tuple[str, ...] = (
        "src/repro/obs/trace.py",
        "src/repro/experiments/parallel.py",
    )

    #: RL003 — modules whose dataclasses must all be ``frozen=True``.
    rl003_modules: Tuple[str, ...] = (
        "src/repro/net/messages.py",
        "src/repro/net/heartbeat.py",
        "src/repro/net/envelope.py",
        "src/repro/checkpoint.py",
        "src/repro/faults/spec.py",
    )

    #: RL004 — seeds must flow from config/args, never be defaulted.
    rl004_scope: Tuple[str, ...] = ("src/repro", "tests")

    #: RL005 — metric/span names must be registered literals.
    rl005_scope: Tuple[str, ...] = ("src/repro",)
    #: The single registered constants module RL005 reads.
    rl005_names_module: str = "src/repro/obs/names.py"
    #: Preloaded name sets (tests); when ``None`` the module is parsed.
    rl005_names: Optional[NameSets] = None

    #: RL006 — no mutable default arguments.
    rl006_scope: Tuple[str, ...] = ("src/repro", "tests")

    #: RL007 — process-level parallelism is confined to the harness.
    rl007_scope: Tuple[str, ...] = ("src/repro",)
    #: The one module allowed to spawn worker processes.
    rl007_allow: Tuple[str, ...] = (
        "src/repro/experiments/parallel.py",
    )

    #: Rule codes demoted to ``warning`` severity (never fail the run).
    demote_to_warning: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Context:
    """Per-file state shared by all rules: path, config, name sets."""

    def __init__(self, path: str, config: Config) -> None:
        self.path = path
        self.config = config

    _names_cache: Dict[str, NameSets] = {}

    @property
    def name_sets(self) -> NameSets:
        if self.config.rl005_names is not None:
            return self.config.rl005_names
        module = self.config.rl005_names_module
        cached = Context._names_cache.get(module)
        if cached is None:
            cached = load_name_sets(module)
            Context._names_cache[module] = cached
        return cached


def load_name_sets(path: str) -> NameSets:
    """Parse the registered constants module into :class:`NameSets`.

    The module is read syntactically (never imported): every string
    constant inside the ``SPAN_NAMES`` / ``METRIC_NAMES`` /
    ``SPAN_PREFIXES`` assignments is collected. A missing or malformed
    module yields empty sets — RL005 then reports every name, which
    makes the breakage loud rather than silent.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        return NameSets()
    found: Dict[str, FrozenSet[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id in ("SPAN_NAMES", "METRIC_NAMES", "SPAN_PREFIXES"):
            found[target.id] = frozenset(_string_constants(node.value))
    return NameSets(
        span_names=found.get("SPAN_NAMES", frozenset()),
        metric_names=found.get("METRIC_NAMES", frozenset()),
        span_prefixes=found.get("SPAN_PREFIXES", frozenset()),
    )


def _string_constants(node: ast.AST) -> Iterable[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def in_scope(path: str, prefixes: Sequence[str]) -> bool:
    """Is POSIX-relative ``path`` under one of the scope ``prefixes``?"""
    return any(
        path == p or path.startswith(p.rstrip("/") + "/") for p in prefixes
    )


# --------------------------------------------------------------------------
# Suppression comments
# --------------------------------------------------------------------------

_LINE_DISABLE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9,\s]+)")
_FILE_DISABLE = re.compile(r"^\s*#\s*reprolint:\s*disable-file=([A-Z0-9,\s]+)")


def _parse_codes(blob: str) -> Set[str]:
    return {c.strip() for c in blob.split(",") if c.strip()}


def collect_suppressions(
    source: str,
) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """File-level and per-line suppressed rule codes.

    ``# reprolint: disable=RL001[,RL002]`` on a line suppresses those
    codes for findings reported on that line; a standalone
    ``# reprolint: disable-file=RL001`` comment suppresses the codes for
    the whole file.
    """
    file_level: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        file_match = _FILE_DISABLE.search(text)
        if file_match:
            file_level |= _parse_codes(file_match.group(1))
            continue
        line_match = _LINE_DISABLE.search(text)
        if line_match:
            per_line.setdefault(lineno, set()).update(
                _parse_codes(line_match.group(1))
            )
    return file_level, per_line


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str,
    config: Optional[Config] = None,
    rules: Optional[Sequence[object]] = None,
) -> List[Finding]:
    """Lint one buffer. ``path`` anchors scope matching and reporting —
    it does not need to exist on disk, which is how the fixture tests
    place a buffer "inside" ``src/repro``.
    """
    from tools.reprolint.rules import ALL_RULES

    config = config or Config()
    active = list(ALL_RULES if rules is None else rules)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError, RecursionError) as exc:
        # One finding per broken file, never an aborted run. ValueError
        # covers null bytes on older interpreters; RecursionError covers
        # pathological nesting blowing the parser's stack.
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        msg = getattr(exc, "msg", None) or str(exc)
        return [
            Finding(
                code="RL000",
                severity="error",
                path=path,
                line=line,
                col=col,
                message=f"file does not parse: {msg}",
            )
        ]
    ctx = Context(path, config)
    findings: List[Finding] = []
    for rule in active:
        if not rule.applies_to(ctx):  # type: ignore[attr-defined]
            continue
        for finding in rule.check(tree, ctx):  # type: ignore[attr-defined]
            if finding.code in config.demote_to_warning:
                finding = Finding(
                    code=finding.code,
                    severity="warning",
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                )
            findings.append(finding)
    file_level, per_line = collect_suppressions(source)
    findings = [
        f
        for f in findings
        if f.code not in file_level and f.code not in per_line.get(f.line, set())
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(
    paths: Sequence[str], exclude_dirs: FrozenSet[str]
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for target in paths:
        if os.path.isfile(target):
            out.append(target)
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if d not in exclude_dirs
            )
            out.extend(
                os.path.join(dirpath, name)
                for name in sorted(filenames)
                if name.endswith(".py")
            )
    return sorted({p.replace(os.sep, "/") for p in out})


def lint_paths(
    paths: Sequence[str],
    config: Optional[Config] = None,
    rules: Optional[Sequence[object]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    config = config or Config()
    findings: List[Finding] = []
    for file_path in iter_python_files(paths, config.exclude_dirs):
        try:
            with open(file_path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            findings.append(
                Finding(
                    code="RL000",
                    severity="error",
                    path=file_path,
                    line=1,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        findings.extend(lint_source(source, file_path, config, rules))
    return findings
