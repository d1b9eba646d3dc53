"""Whole-program model for reproflow: modules, symbols, call graph.

Where :mod:`tools.reprolint` looks at one file at a time, reproflow
parses the *entire* tree once into a :class:`Program` — every module's
AST, a symbol table of functions/classes/enums, the import aliases that
connect them, and a best-effort call graph — and hands that to the
analysis passes (:mod:`tools.reproflow.taint`,
:mod:`tools.reproflow.machines`, :mod:`tools.reproflow.obscov`,
:mod:`tools.reproflow.reach`). The
program model is deliberately conservative: anything it cannot resolve
statically is *unknown*, and unknown never produces a finding. Findings
reuse the reprolint :class:`~tools.reprolint.engine.Finding` shape (with
RF codes) so the two tools share formatting, JSON output and test
idioms; suppressions are the reprolint comment grammar spelled
``# reproflow: disable=RFxxx`` / ``# reproflow: disable-file=RFxxx``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from tools.reprolint.engine import (
    DEFAULT_EXCLUDE_DIRS,
    Finding,
    iter_python_files,
)

#: ``numpy.random`` bit-generator constructors: unseeded without args.
BITGEN_NAMES = frozenset(
    {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "SeedSequence"}
)

#: Generator methods that consume the stream (draw sites).
DRAW_METHODS = frozenset(
    {
        "random",
        "standard_normal",
        "normal",
        "uniform",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "geometric",
        "poisson",
        "exponential",
        "binomial",
        "gamma",
        "beta",
        "lognormal",
        "multivariate_normal",
        "bytes",
    }
)


def attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); ``None`` for non-trivial receivers."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def module_name(path: str) -> str:
    """POSIX-relative source path -> dotted module name.

    ``src/repro/runtime/health.py`` -> ``repro.runtime.health``;
    ``tools/reproflow/__init__.py`` -> ``tools.reproflow``. Anything
    else keeps its directory spine, so fixture buffers analyzed under a
    virtual path still get stable, unique module names.
    """
    trimmed = path[:-3] if path.endswith(".py") else path
    parts = [p for p in trimmed.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class FunctionInfo:
    """One function or method, addressable by its fully qualified name."""

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
    ) -> None:
        self.module = module
        self.node = node
        self.qualname = qualname  # module-relative, e.g. "Watchdog.observe"
        self.fqn = f"{module.modname}.{qualname}"
        self.class_name = class_name

    @property
    def params(self) -> List[ast.arg]:
        args = self.node.args  # type: ignore[attr-defined]
        out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if self.class_name and out and out[0].arg in ("self", "cls"):
            out = out[1:]
        return out


class ModuleInfo:
    """One parsed module: AST, imports, functions, classes, enums."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.modname = module_name(path)
        self.source = source
        self.tree = tree
        #: local alias -> fully qualified name it binds.
        self.imports: Dict[str, str] = {}
        #: module-relative qualname -> FunctionInfo (methods included).
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> ClassDef node.
        self.classes: Dict[str, ast.ClassDef] = {}
        #: enum class name -> member names (classes deriving from Enum).
        self.enums: Dict[str, Tuple[str, ...]] = {}
        self._collect()

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        package = self.modname
        if not self.path.endswith("__init__.py"):
            package = self.modname.rsplit(".", 1)[0] if "." in self.modname else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".") if package else []
                    anchor = anchor[: len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for node in self.tree.body:
            self._collect_scope(node, prefix="", class_name=None)

    def _collect_scope(
        self, node: ast.AST, prefix: str, class_name: Optional[str]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{node.name}"
            self.functions[qual] = FunctionInfo(self, node, qual, class_name)
        elif isinstance(node, ast.ClassDef):
            self.classes[node.name] = node
            if any(
                (chain := attr_chain(base)) and chain[-1] in ("Enum", "IntEnum")
                for base in node.bases
            ):
                members = tuple(
                    target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name) and not target.id.startswith("_")
                )
                self.enums[node.name] = members
            for stmt in node.body:
                self._collect_scope(
                    stmt, prefix=f"{node.name}.", class_name=node.name
                )


class CallSite:
    """One resolved call edge: caller function, callee fqn, AST node."""

    def __init__(
        self, caller: Optional[FunctionInfo], callee: str, node: ast.Call
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.node = node


class Program:
    """The whole analyzed tree: modules, a symbol table, a call graph."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.modname: m for m in modules}
        #: fqn -> FunctionInfo for every function/method in the tree.
        self.functions: Dict[str, FunctionInfo] = {}
        for mod in self.modules.values():
            for fn in mod.functions.values():
                self.functions[fn.fqn] = fn
        #: callee fqn -> call sites targeting it (resolved edges only).
        self.callers: Dict[str, List[CallSite]] = {}
        #: caller fqn -> callee fqns (the forward call graph).
        self.call_graph: Dict[str, Set[str]] = {}
        self._build_call_graph()

    # -- symbol resolution ---------------------------------------------
    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[str]:
        """A bare name in ``module`` -> the fully qualified thing it binds."""
        if name in module.functions:
            return f"{module.modname}.{name}"
        if name in module.classes:
            return f"{module.modname}.{name}"
        return module.imports.get(name)

    def resolve_call(
        self,
        module: ModuleInfo,
        func: ast.expr,
        enclosing: Optional[FunctionInfo] = None,
    ) -> Optional[str]:
        """Best-effort fqn of a call target; ``None`` when unknown.

        A call to a class resolves to ``<class fqn>.__init__`` when that
        constructor exists in the tree, so rng arguments flow through
        object construction like any other call.
        """
        target: Optional[str] = None
        if isinstance(func, ast.Name):
            target = self.resolve_name(module, func.id)
        elif isinstance(func, ast.Attribute):
            chain = attr_chain(func)
            if chain is None:
                return None
            if chain[0] == "self" and enclosing is not None and enclosing.class_name:
                if len(chain) == 2:
                    target = f"{module.modname}.{enclosing.class_name}.{chain[1]}"
            else:
                base = self.resolve_name(module, chain[0])
                if base is not None:
                    target = ".".join([base, *chain[1:]])
        if target is None:
            return None
        ctor = f"{target}.__init__"
        if target not in self.functions and ctor in self.functions:
            return ctor
        return target

    # -- call graph ----------------------------------------------------
    def _build_call_graph(self) -> None:
        for mod in self.modules.values():
            for fn in mod.functions.values():
                edges = self.call_graph.setdefault(fn.fqn, set())
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.resolve_call(mod, node.func, fn)
                    if callee is None or callee not in self.functions:
                        continue
                    edges.add(callee)
                    self.callers.setdefault(callee, []).append(
                        CallSite(fn, callee, node)
                    )


# --------------------------------------------------------------------------
# Findings and suppressions
# --------------------------------------------------------------------------

_LINE_DISABLE = re.compile(r"#\s*reproflow:\s*disable=([A-Z0-9,\s]+)")
_FILE_DISABLE = re.compile(r"^\s*#\s*reproflow:\s*disable-file=([A-Z0-9,\s]+)")


def _parse_codes(blob: str) -> Set[str]:
    return {c.strip() for c in blob.split(",") if c.strip()}


def collect_suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """reprolint's suppression grammar, spelled ``# reproflow:``."""
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


def rf_finding(
    code: str, path: str, node: ast.AST, message: str, severity: str = "error"
) -> Finding:
    """A reproflow finding anchored at an AST node."""
    return Finding(
        code=code,
        severity=severity,
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def build_program(
    paths: Sequence[str],
    exclude_dirs: FrozenSet[str] = DEFAULT_EXCLUDE_DIRS,
) -> Tuple[Program, List[Finding]]:
    """Parse every ``.py`` file under ``paths`` into one :class:`Program`.

    Unparseable files yield one RF000 finding each (mirroring
    reprolint's RL000 contract) and are excluded from the program —
    a syntax error in one module must never abort the whole analysis.
    """
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for file_path in iter_python_files(paths, exclude_dirs):
        try:
            with open(file_path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            findings.append(
                Finding(
                    code="RF000",
                    severity="error",
                    path=file_path,
                    line=1,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        module = parse_module(source, file_path)
        if isinstance(module, Finding):
            findings.append(module)
        else:
            modules.append(module)
    return Program(modules), findings


def parse_module(source: str, path: str) -> "ModuleInfo | Finding":
    """Parse one buffer; an unparseable buffer becomes an RF000 finding."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError, RecursionError) as exc:
        line = getattr(exc, "lineno", None) or 1
        col = getattr(exc, "offset", None) or 0
        msg = getattr(exc, "msg", None) or str(exc)
        return Finding(
            code="RF000",
            severity="error",
            path=path,
            line=line,
            col=col,
            message=f"file does not parse: {msg}",
        )
    return ModuleInfo(path, source, tree)


def program_from_sources(sources: Dict[str, str]) -> Tuple[Program, List[Finding]]:
    """Build a program straight from ``{path: source}`` buffers (tests)."""
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in sorted(sources):
        module = parse_module(sources[path], path)
        if isinstance(module, Finding):
            findings.append(module)
        else:
            modules.append(module)
    return Program(modules), findings


def apply_suppressions(
    findings: Sequence[Finding], program: Program
) -> List[Finding]:
    """Drop findings suppressed by ``# reproflow:`` comments."""
    by_path: Dict[str, Tuple[Set[str], Dict[int, Set[str]]]] = {}
    for mod in program.modules.values():
        by_path[mod.path] = collect_suppressions(mod.source)
    kept: List[Finding] = []
    for finding in findings:
        file_level, per_line = by_path.get(finding.path, (set(), {}))
        if finding.code in file_level:
            continue
        if finding.code in per_line.get(finding.line, set()):
            continue
        kept.append(finding)
    return kept


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run all five whole-program passes and return sorted findings.

    Reachability (RF007) reads its root files from the repository at
    the working directory, the same root the analyzed paths are
    relative to.
    """
    from tools.reproflow import machines, obscov, reach, taint
    from tools.reproflow.tables import EPOCH_RULES, MACHINE_SPECS, TABLES_PATH

    program, findings = build_program(paths)
    findings.extend(taint.run(program))
    findings.extend(
        machines.run(program, MACHINE_SPECS, EPOCH_RULES, TABLES_PATH)
    )
    findings.extend(obscov.run(program))
    findings.extend(reach.run(program, reach.read_roots(program)))
    findings = apply_suppressions(findings, program)
    if select is not None:
        wanted = set(select)
        findings = [f for f in findings if f.code in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
