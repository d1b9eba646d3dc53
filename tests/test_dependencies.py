"""Every dependency pyproject.toml declares is imported by the code it serves.

A dependency nothing imports still has to be installed, and the docs
repeat the claim that it is used. This reads ``[project].dependencies``
and the ``test`` extra with regular expressions (Python 3.9 has no
``tomllib``) and walks ``src/`` and ``tests/`` with ``ast`` for the
top-level names they import.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared(table, key):
    """The quoted requirements of ``key = [...]`` in ``[table]``."""
    text = (ROOT / "pyproject.toml").read_text()
    body = re.search(rf"^\[{re.escape(table)}\]\n(.*?)^\[", text, re.S | re.M)
    assert body, f"pyproject.toml has no [{table}] table"
    found = re.search(rf"^{key}\s*=\s*\[(.*?)\]", body[1], re.S | re.M)
    assert found, f"[{table}] declares no {key} list"
    return re.findall(r'"([^"]+)"', found[1])


def import_name(requirement):
    """``"Foo-Bar>=1.2"`` -> ``"foo_bar"``."""
    return re.split(r"[<>=!~\[;\s]", requirement, 1)[0].lower().replace("-", "_")


def imported_top_level_names(tree):
    names = set()
    for path in sorted((ROOT / tree).rglob("*.py")):
        if "fixtures" in path.parts:
            continue  # linter inputs, some deliberately unparsable
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def test_every_runtime_dependency_is_imported_under_src():
    imported = imported_top_level_names("src")
    unused = [
        req for req in declared("project", "dependencies")
        if import_name(req) not in imported
    ]
    assert unused == [], f"declared but never imported under src/: {unused}"


def test_every_test_extra_package_is_imported_under_tests():
    imported = imported_top_level_names("tests")
    unused = [
        req for req in declared("project.optional-dependencies", "test")
        if import_name(req) not in imported
    ]
    assert unused == [], f"in the test extra but never imported under tests/: {unused}"


def test_requirement_names_map_to_import_names():
    assert import_name("numpy") == "numpy"
    assert import_name("scipy>=1.9") == "scipy"
    assert import_name("Foo-Bar[extra]; python_version>'3.9'") == "foo_bar"
