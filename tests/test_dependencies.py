"""Every runtime dependency pyproject.toml declares is imported by the package.

A dependency nothing imports still has to be installed, and the docs
repeat the claim that it is used. This reads ``[project].dependencies``
with a regular expression (Python 3.9 has no ``tomllib``) and walks
``src/`` with ``ast`` for the top-level names it imports.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)^\[", text, re.S | re.M)
    assert project, "pyproject.toml has no [project] table"
    found = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project[1], re.S | re.M)
    assert found, "[project] declares no dependencies list"
    return re.findall(r'"([^"]+)"', found[1])


def import_name(requirement):
    """``"Foo-Bar>=1.2"`` -> ``"foo_bar"``."""
    return re.split(r"[<>=!~\[;\s]", requirement, 1)[0].lower().replace("-", "_")


def imported_top_level_names():
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def test_every_runtime_dependency_is_imported_under_src():
    imported = imported_top_level_names()
    unused = [
        req for req in declared_dependencies() if import_name(req) not in imported
    ]
    assert unused == [], f"declared but never imported under src/: {unused}"


def test_requirement_names_map_to_import_names():
    assert import_name("numpy") == "numpy"
    assert import_name("scipy>=1.9") == "scipy"
    assert import_name("Foo-Bar[extra]; python_version>'3.9'") == "foo_bar"
