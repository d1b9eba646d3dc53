"""Reachability tests (RF007): roots, uses, non-uses, and the no-root rule."""

import json
from pathlib import Path

from tools.reproflow import reach
from tools.reproflow.cli import main as reproflow_main
from tools.reproflow.engine import (
    analyze_paths,
    apply_suppressions,
    parse_module,
    program_from_sources,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

CLI = "src/repro/cli.py"
LIB = "src/repro/lib.py"


def run_reach(sources, roots=None):
    program, findings = program_from_sources(sources)
    assert findings == []
    root_modules = [
        parse_module(text, path) for path, text in sorted((roots or {}).items())
    ]
    return apply_suppressions(reach.run(program, root_modules), program)


def placed(findings):
    return [(f.code, f.path, f.line) for f in findings]


class TestOneFinding:
    """Each non-use leaves exactly one finding, at the definition."""

    def test_definition_only_tests_call(self):
        findings = run_reach(
            {
                CLI: (
                    "from repro.lib import used\n"
                    "def main():\n"
                    "    return used()\n"
                ),
                LIB: (
                    "def used():\n"
                    "    return 1\n"
                    "def only_tested():\n"
                    "    return 2\n"
                ),
                "tests/test_lib.py": (
                    "from repro.lib import only_tested\n"
                    "VALUE = only_tested()\n"
                    "def test_it():\n"
                    "    assert only_tested() == 2\n"
                ),
            }
        )
        assert placed(findings) == [("RF007", LIB, 3)]
        assert "'only_tested'" in findings[0].message

    def test_definition_only_a_reexport_names(self):
        findings = run_reach(
            {
                CLI: "def main():\n    return 0\n",
                "src/repro/pkg/__init__.py": (
                    "from repro.pkg.mod import exported\n"
                    "__all__ = ['exported']\n"
                ),
                "src/repro/pkg/mod.py": "def exported():\n    return 1\n",
            }
        )
        assert placed(findings) == [("RF007", "src/repro/pkg/mod.py", 1)]

    def test_definition_only_an_unreached_definition_calls(self):
        findings = run_reach(
            {
                CLI: "def main():\n    return 0\n",
                LIB: (
                    "def caller():  # reproflow: disable=RF007 -- the case under test\n"
                    "    return helper()\n"
                    "def helper():\n"
                    "    return 1\n"
                ),
            }
        )
        assert placed(findings) == [("RF007", LIB, 3)]
        assert "'helper'" in findings[0].message

    def test_method_of_a_reached_class(self):
        findings = run_reach(
            {
                CLI: (
                    "from repro.lib import Box\n"
                    "def main():\n"
                    "    return Box().area()\n"
                ),
                LIB: (
                    "class Box:\n"
                    "    def area(self):\n"
                    "        return 1\n"
                    "    def dead(self):\n"
                    "        return 2\n"
                ),
            }
        )
        assert placed(findings) == [("RF007", LIB, 4)]
        assert findings[0].message.startswith("method 'Box.dead'")

    def test_unreached_class_is_one_finding(self):
        findings = run_reach(
            {
                CLI: "def main():\n    return 0\n",
                LIB: (
                    "class Gone:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "    def method(self):\n"
                    "        return self.x\n"
                ),
            }
        )
        assert placed(findings) == [("RF007", LIB, 1)]
        assert findings[0].message.startswith("class 'Gone'")


class TestNoFinding:
    """Uses RF007 must see, or it would report live code."""

    def test_attribute_call_on_unknown_receiver(self):
        assert run_reach(
            {
                CLI: (
                    "from repro.lib import make\n"
                    "def main():\n"
                    "    thing = make()\n"
                    "    return thing.frob()\n"
                ),
                LIB: (
                    "class Thing:\n"
                    "    def frob(self):\n"
                    "        return 1\n"
                    "def make():\n"
                    "    return Thing()\n"
                ),
            }
        ) == []

    def test_function_stored_in_a_module_level_table(self):
        assert run_reach(
            {
                CLI: (
                    "from repro.lib import TABLE\n"
                    "def main():\n"
                    "    return TABLE['a']()\n"
                ),
                LIB: (
                    "def handler():\n"
                    "    return 1\n"
                    "TABLE = {'a': handler}\n"
                ),
            }
        ) == []

    def test_pickle_hooks_on_pickler_subclasses(self):
        assert run_reach(
            {
                CLI: (
                    "from repro.lib import Dumper, Loader\n"
                    "def main(f):\n"
                    "    Dumper(f).dump(1)\n"
                    "    return Loader(f).load()\n"
                ),
                LIB: (
                    "import pickle\n"
                    "class Dumper(pickle.Pickler):\n"
                    "    def reducer_override(self, obj):\n"
                    "        return NotImplemented\n"
                    "    def persistent_id(self, obj):\n"
                    "        return None\n"
                    "class Loader(pickle.Unpickler):\n"
                    "    def find_class(self, module, name):\n"
                    "        return super().find_class(module, name)\n"
                    "    def persistent_load(self, pid):\n"
                    "        return pid\n"
                ),
            }
        ) == []

    def test_dunder_of_a_reached_class(self):
        assert run_reach(
            {
                CLI: (
                    "from repro.lib import Pair\n"
                    "def main():\n"
                    "    return Pair(1) == Pair(1)\n"
                ),
                LIB: (
                    "from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class Pair:\n"
                    "    a: int\n"
                    "    def __post_init__(self):\n"
                    "        assert self.a >= 0\n"
                    "    def __eq__(self, other):\n"
                    "        return self.a == other.a\n"
                ),
            }
        ) == []

    def test_perfbench_probe_target_string(self):
        assert run_reach(
            {
                CLI: "def main():\n    return 0\n",
                "src/repro/runtime/node.py": (
                    "class Node:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
                LIB: "def solve():\n    return 1\n",
            },
            roots={
                "perfbench/bench.py": (
                    "_P = 'repro.runtime.'\n"
                    "PROBES = [_P + 'node:Node.step', 'repro.lib:solve']\n"
                ),
            },
        ) == []

    def test_definition_in_an_allowlisted_module(self):
        assert run_reach(
            {
                CLI: "def main():\n    return 0\n",
                "src/repro/viz/plots.py": (
                    "from repro.lib import helper\n"
                    "def plot():\n"
                    "    return helper()\n"
                ),
                LIB: "def helper():\n    return 1\n",
            }
        ) == []

    def test_root_file_reference_through_a_reexport(self):
        assert run_reach(
            {
                "src/repro/pkg/__init__.py": "from repro.pkg.mod import used\n",
                "src/repro/pkg/mod.py": "def used():\n    return 1\n",
            },
            roots={"examples/demo.py": "from repro.pkg import used\nused()\n"},
        ) == []


class TestNoEntryPoint:
    def test_a_tree_with_no_entry_point_reports_nothing(self):
        # Nothing is known to run, so nothing can be called unreached:
        # the seeded-defect fixtures and partial trees stay RF007-free.
        assert run_reach({LIB: "def orphan():\n    return 1\n"}) == []

    def test_a_root_file_alone_is_an_entry_point(self):
        findings = run_reach(
            {LIB: "def used():\n    return 1\ndef orphan():\n    return 2\n"},
            roots={"examples/demo.py": "from repro.lib import used\nused()\n"},
        )
        assert placed(findings) == [("RF007", LIB, 3)]


class TestRootsStayOutOfTheProgram:
    def test_root_files_are_not_analyzed_by_the_other_passes(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "cli.py").write_text(
            "def main():\n    return 0\n"
        )
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "draw.py").write_text(
            "import numpy as np\n"
            "def draw():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.normal()\n"
        )
        monkeypatch.chdir(tmp_path)
        # Analyzed, the example is an RF001 defect; read as a root, it
        # only marks what it uses.
        assert [f.code for f in analyze_paths(["src", "examples"])] == ["RF001"]
        assert analyze_paths(["src"]) == []

    def test_seeded_fixture_names_its_one_finding(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES / "unreached_def")
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        assert reproflow_main(["src", "--no-baseline", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        (finding,) = doc["findings"]
        assert finding["code"] == "RF007"
        assert finding["path"] == "src/repro/geometry.py"
        assert finding["line"] == 9
        assert "'unused_area'" in finding["message"]
