"""The package source keeps to the oldest Python that pyproject.toml declares.

``requires-python`` says ``>=3.9`` and CI runs the suite on 3.9, but a
keyword argument that only a newer interpreter accepts fails at import
time there: ``@dataclass(slots=True)`` raises ``TypeError: dataclass()
got an unexpected keyword argument 'slots'`` on 3.9. This walks ``src/``
with ``ast``, so it runs on any interpreter, numpy or not.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: dataclass()/field() keywords and the first Python that accepts them.
NEWER_KEYWORDS = {"slots": (3, 10), "kw_only": (3, 10)}


def declared_minimum():
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text)
    assert found, "pyproject.toml declares no requires-python minimum"
    return int(found[1]), int(found[2])


def newer_keyword_uses(source, filename, minimum):
    """``file:line: call(keyword=...)`` for each keyword above ``minimum``."""
    uses = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name not in ("dataclass", "field"):
            continue
        for keyword in node.keywords:
            needs = NEWER_KEYWORDS.get(keyword.arg)
            if needs is not None and needs > minimum:
                uses.append((
                    node.lineno,
                    f"{filename}:{node.lineno}: {name}({keyword.arg}=...) "
                    f"needs Python {needs[0]}.{needs[1]}",
                ))
    return [use for _, use in sorted(uses)]


def test_src_uses_no_dataclass_keyword_newer_than_the_declared_minimum():
    minimum = declared_minimum()
    uses = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        uses += newer_keyword_uses(
            path.read_text(), str(path.relative_to(ROOT)), minimum
        )
    assert uses == []


def test_the_walk_finds_each_newer_keyword():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class A:\n"
        "    x: int = field(kw_only=True)\n"
        "@dataclasses.dataclass(kw_only=True)\n"
        "class B:\n"
        "    y: int\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    z: int\n"
    )
    assert newer_keyword_uses(source, "m.py", (3, 9)) == [
        "m.py:3: dataclass(slots=...) needs Python 3.10",
        "m.py:5: field(kw_only=...) needs Python 3.10",
        "m.py:6: dataclass(kw_only=...) needs Python 3.10",
    ]
    assert newer_keyword_uses(source, "m.py", (3, 10)) == []
