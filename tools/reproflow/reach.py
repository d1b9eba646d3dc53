"""Reachability from the repository's entry points (RF007).

A function, method or class under ``src/`` that nothing the repository
runs can reach is a finding. The roots are:

* ``repro.cli.main``, and through it every subcommand it dispatches;
* every file under ``examples/``, ``perfbench/`` and ``tools/`` (read
  from the repository, never added to the program the other passes
  analyze);
* module-level code of every ``src/`` module, which runs on import
  (``if __name__ == "__main__"`` blocks included), minus import
  statements and ``__all__``;
* protocol methods: every dunder of a reached class, and the pickle
  hooks of a ``Pickler``/``Unpickler`` subclass;
* every definition in an allowlisted tooling module (:data:`ALLOWLIST`).

A use is any reference from reached code: a call, a function passed or
stored as a value, a base class, an annotation. Where the receiver of
an attribute is unknown, the attribute reaches every method of that
name; a ``self.m`` that resolves to the enclosing class reaches ``m``
there and in its subclasses. A ``"module:Class.method"`` string in a
root file (perfbench's probe targets) is a use. A reference from
``tests/``, an ``__init__`` re-export, an ``__all__`` entry or a call
from an unreached definition is not.

A tree with no entry point (no ``repro.cli.main`` and no root file) has
nothing to measure reachability from, so the pass reports nothing.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from tools.reproflow.engine import (
    ModuleInfo,
    Program,
    attr_chain,
    parse_module,
    rf_finding,
)
from tools.reprolint.engine import (
    DEFAULT_EXCLUDE_DIRS,
    Finding,
    iter_python_files,
)

#: The command-line entry point (``python -m repro`` calls it).
ENTRY = "repro.cli.main"

#: Repository directories whose every file is a root.
ROOT_DIRS = ("examples", "perfbench", "tools")

#: Tooling packages kept without a caller (ROADMAP, Deferred).
ALLOWLIST = ("repro.io", "repro.analysis", "repro.viz")

#: Hooks :mod:`pickle` calls on its Pickler/Unpickler subclasses.
PICKLE_HOOKS = frozenset(
    {"reducer_override", "find_class", "persistent_id", "persistent_load"}
)
PICKLE_BASES = frozenset({"Pickler", "Unpickler"})

_PROBE = re.compile(r"^([A-Za-z_][\w.]*)?:([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)$")


def _in_src(path: str) -> bool:
    parts = [p for p in path.replace("\\", "/").split("/") if p not in ("", ".")]
    return bool(parts) and parts[0] == "src"


def _is_dunder(name: str) -> bool:
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


def read_roots(program: Program, root_dir: str = ".") -> List[ModuleInfo]:
    """Parse every file under :data:`ROOT_DIRS` of the repository.

    Files the program already holds (``tools/`` when it is analyzed)
    are reused; a file that does not parse is skipped here, since only
    analyzed files get RF000.
    """
    by_path = {os.path.normpath(m.path): m for m in program.modules.values()}
    dirs = [os.path.join(root_dir, d) for d in ROOT_DIRS]
    roots: List[ModuleInfo] = []
    for path in iter_python_files(
        [d for d in dirs if os.path.isdir(d)], DEFAULT_EXCLUDE_DIRS
    ):
        known = by_path.get(os.path.normpath(path))
        if known is not None:
            roots.append(known)
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                module = parse_module(fh.read(), path)
        except OSError:
            continue
        if isinstance(module, ModuleInfo):
            roots.append(module)
    return roots


class _Reach:
    """The transitive closure of uses from the roots."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: fqn -> (module, node) for every function, method and class.
        self.defs: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
        #: attribute name -> methods of that name (unknown receivers).
        self.methods: Dict[str, Set[str]] = {}
        #: class fqn -> direct subclasses in the tree.
        self.subclasses: Dict[str, Set[str]] = {}
        for mod in program.modules.values():
            for name, node in mod.classes.items():
                self.defs[f"{mod.modname}.{name}"] = (mod, node)
            for fn in mod.functions.values():
                self.defs[fn.fqn] = (mod, fn.node)
                if fn.class_name is not None:
                    name = fn.qualname.rsplit(".", 1)[1]
                    self.methods.setdefault(name, set()).add(fn.fqn)
        for mod in program.modules.values():
            for name, node in mod.classes.items():
                for base in node.bases:
                    resolved = self._resolve_expr(mod, base)
                    if resolved is not None and resolved in self.defs:
                        self.subclasses.setdefault(resolved, set()).add(
                            f"{mod.modname}.{name}"
                        )
        self.reached: Set[str] = set()
        self.names: Set[str] = set()
        self._work: List[str] = []

    # -- resolution ----------------------------------------------------
    def canonical(self, dotted: str) -> Tuple[str, Optional[str]]:
        """Follow re-exports: ``("def", fqn)``, ``("member", attr)`` for
        a name inside a tree module that is no definition, or
        ``("none", None)`` for a module or anything outside the tree."""
        for _ in range(16):
            if dotted in self.defs:
                return "def", dotted
            if dotted in self.program.modules:
                return "none", None
            parts = dotted.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                modname = ".".join(parts[:cut])
                mod = self.program.modules.get(modname)
                if mod is None:
                    continue
                head, rest = parts[cut], parts[cut + 1:]
                target = mod.imports.get(head)
                if target is None:
                    return "member", parts[-1]
                dotted = ".".join([target, *rest])
                break
            else:
                return "none", None
        return "none", None

    def _resolve_expr(self, mod: ModuleInfo, node: ast.expr) -> Optional[str]:
        chain = attr_chain(node)
        if chain is None:
            return None
        bound = self.program.resolve_name(mod, chain[0])
        if bound is None:
            return None
        kind, fqn = self.canonical(".".join([bound, *chain[1:]]))
        return fqn if kind == "def" else None

    # -- marking -------------------------------------------------------
    def reach(self, fqn: str) -> None:
        if fqn not in self.reached:
            self.reached.add(fqn)
            self._work.append(fqn)

    def use_name(self, name: str) -> None:
        if name not in self.names:
            self.names.add(name)
            for fqn in self.methods.get(name, ()):
                self.reach(fqn)

    def _reach_override(self, cls: str, name: str) -> None:
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if f"{current}.{name}" in self.defs:
                self.reach(f"{current}.{name}")
            stack.extend(self.subclasses.get(current, ()))

    # -- walking -------------------------------------------------------
    def visit(
        self,
        mod: ModuleInfo,
        nodes: Iterable[ast.AST],
        enclosing: Optional[str] = None,
        probes: bool = False,
    ) -> None:
        """Mark every use in ``nodes``; ``enclosing`` is the class fqn
        that ``self``/``cls`` name, ``probes`` reads probe strings."""
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    bound = self.program.resolve_name(mod, node.id)
                    if bound is not None:
                        kind, fqn = self.canonical(bound)
                        if kind == "def" and fqn is not None:
                            self.reach(fqn)
                elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store
                ):
                    self._visit_attribute(mod, node, enclosing)
                elif (
                    probes
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    self._visit_probe(node.value)

    def _visit_attribute(
        self, mod: ModuleInfo, node: ast.Attribute, enclosing: Optional[str]
    ) -> None:
        chain = attr_chain(node)
        if chain is None:
            self.use_name(node.attr)
            return
        if chain[0] in ("self", "cls") and len(chain) == 2 and enclosing:
            if f"{enclosing}.{chain[1]}" in self.defs:
                self._reach_override(enclosing, chain[1])
            else:
                self.use_name(chain[1])
            return
        bound = self.program.resolve_name(mod, chain[0])
        if bound is None:
            self.use_name(node.attr)
            return
        kind, fqn = self.canonical(".".join([bound, *chain[1:]]))
        if kind == "def" and fqn is not None:
            self.reach(fqn)
        elif kind == "member" and fqn is not None:
            self.use_name(fqn)

    def _visit_probe(self, text: str) -> None:
        match = _PROBE.match(text)
        if match is None:
            return
        suffix, qual = match.group(1) or "", match.group(2)
        for modname in self.program.modules:
            if suffix and not (
                modname == suffix or modname.endswith("." + suffix)
            ):
                continue
            # The probe imports the class, then takes the method off it.
            for dotted in {qual.split(".")[0], qual}:
                kind, fqn = self.canonical(f"{modname}.{dotted}")
                if kind == "def" and fqn is not None:
                    self.reach(fqn)
                elif kind == "member" and fqn is not None:
                    self.use_name(fqn)

    def visit_module_level(self, mod: ModuleInfo) -> None:
        """Code that runs when ``mod`` is imported."""
        self._visit_body(mod, mod.tree.body, None)

    def _visit_body(
        self, mod: ModuleInfo, body: Sequence[ast.stmt], cls: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                if any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in targets
                ):
                    continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args
                self.visit(
                    mod,
                    [
                        *stmt.decorator_list,
                        *args.defaults,
                        *(d for d in args.kw_defaults if d is not None),
                    ],
                    cls,
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                self.visit(
                    mod,
                    [*stmt.decorator_list, *stmt.bases, *stmt.keywords],
                    cls,
                )
                inner = f"{mod.modname}.{stmt.name}"
                self._visit_body(mod, stmt.body, inner)
                continue
            self.visit(mod, [stmt], cls)

    # -- closure -------------------------------------------------------
    def expand(self) -> None:
        while self._work:
            fqn = self._work.pop()
            mod, node = self.defs[fqn]
            if isinstance(node, ast.ClassDef):
                self._expand_class(mod, node, fqn)
                continue
            owner = fqn.rsplit(".", 1)[0]
            self.visit(
                mod, [node], owner if owner in self.defs else None
            )

    def _expand_class(self, mod: ModuleInfo, node: ast.ClassDef, fqn: str) -> None:
        pickler = any(
            (chain := attr_chain(base)) and chain[-1] in PICKLE_BASES
            for base in node.bases
        )
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _is_dunder(stmt.name) or (pickler and stmt.name in PICKLE_HOOKS):
                self.reach(f"{fqn}.{stmt.name}")


def run(program: Program, roots: Sequence[ModuleInfo]) -> List[Finding]:
    """RF007 over ``program``, with ``roots`` as the repository's root files."""
    if ENTRY not in program.functions and not roots:
        return []
    reach = _Reach(program)
    if ENTRY in program.functions:
        reach.reach(ENTRY)
    for mod in roots:
        reach.visit(mod, [mod.tree], probes=True)
    for mod in program.modules.values():
        if _in_src(mod.path):
            reach.visit_module_level(mod)
        if any(
            mod.modname == allowed or mod.modname.startswith(allowed + ".")
            for allowed in ALLOWLIST
        ):
            for name in mod.classes:
                reach.reach(f"{mod.modname}.{name}")
            for fn in mod.functions.values():
                reach.reach(fn.fqn)
    reach.expand()

    findings: List[Finding] = []
    for fqn, (mod, node) in sorted(reach.defs.items()):
        if fqn in reach.reached or not _in_src(mod.path):
            continue
        owner = fqn.rsplit(".", 1)[0]
        if owner in reach.defs and owner not in reach.reached:
            continue  # the unreached class is the finding
        kind = (
            "class"
            if isinstance(node, ast.ClassDef)
            else "method" if owner in reach.defs else "function"
        )
        qualname = fqn[len(mod.modname) + 1:]
        findings.append(
            rf_finding(
                "RF007",
                mod.path,
                node,
                f"{kind} '{qualname}' is reached from no entry point",
            )
        )
    return findings
