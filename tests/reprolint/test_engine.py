"""Engine-level tests: suppressions, severity, name-set loading, walking."""

from dataclasses import fields
from pathlib import Path

from tools.reprolint import Config, NameSets, lint_paths, lint_source
from tools.reprolint.engine import (
    DEFAULT_EXCLUDE_DIRS,
    collect_suppressions,
    in_scope,
    iter_python_files,
    load_name_sets,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

RL001_SNIPPET = "import numpy as np\nx = np.random.rand(3)\n"


class TestSuppressions:
    def test_line_disable_parses(self):
        file_level, per_line = collect_suppressions(
            "x = 1  # reprolint: disable=RL001\n"
            "y = 2  # reprolint: disable=RL002, RL006\n"
        )
        assert file_level == set()
        assert per_line == {1: {"RL001"}, 2: {"RL002", "RL006"}}

    def test_file_disable_parses(self):
        file_level, per_line = collect_suppressions(
            "# reprolint: disable-file=RL001\nx = 1\n"
        )
        assert file_level == {"RL001"}
        assert per_line == {}

    def test_line_suppression_kills_only_that_line(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand()  # reprolint: disable=RL001\n"
            "b = np.random.rand()\n"
        )
        findings = lint_source(source, "src/repro/x.py")
        assert [f.line for f in findings if f.code == "RL001"] == [3]

    def test_file_suppression_kills_whole_file(self):
        source = "# reprolint: disable-file=RL001\n" + RL001_SNIPPET
        findings = lint_source(source, "src/repro/x.py")
        assert [f for f in findings if f.code == "RL001"] == []

    def test_unrelated_code_not_suppressed(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand()  # reprolint: disable=RL006\n"
        )
        findings = lint_source(source, "src/repro/x.py")
        assert [f.code for f in findings] == ["RL001"]


class TestSeverity:
    def test_demoted_rule_reports_as_warning(self):
        config = Config(demote_to_warning=frozenset({"RL001"}))
        findings = lint_source(RL001_SNIPPET, "src/repro/x.py", config)
        assert findings and all(f.severity == "warning" for f in findings)

    def test_default_severity_is_error(self):
        findings = lint_source(RL001_SNIPPET, "src/repro/x.py")
        assert findings and all(f.severity == "error" for f in findings)


class TestSyntaxError:
    def test_unparseable_file_yields_rl000(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert [f.code for f in findings] == ["RL000"]
        assert findings[0].severity == "error"


class TestNameSetLoading:
    def test_real_names_module_loads(self):
        sets = load_name_sets(str(REPO_ROOT / "src/repro/obs/names.py"))
        assert "frame" in sets.span_names
        assert "frames_total" in sets.metric_names
        assert "fault." in sets.span_prefixes

    def test_missing_module_yields_empty_sets(self):
        sets = load_name_sets("no/such/file.py")
        assert sets == NameSets()

    def test_empty_sets_make_rl005_loud(self):
        config = Config(rl005_names=NameSets())
        findings = lint_source(
            't.span("frame")\n', "src/repro/x.py", config
        )
        assert [f.code for f in findings] == ["RL005"]


class TestScopesAndWalking:
    def test_in_scope_prefix_semantics(self):
        assert in_scope("src/repro/cli.py", ("src/repro",))
        assert in_scope("src/repro", ("src/repro",))
        assert not in_scope("src/reprolike/x.py", ("src/repro",))

    def test_default_paths_name_existing_files(self):
        """A scope or allowlist entry for a deleted path would be inherited
        silently by a new file created at that path."""
        config = Config()
        named = [
            (field.name, path)
            for field in fields(config)
            if field.name.endswith(("_scope", "_allow", "_modules", "_module"))
            for path in (
                [getattr(config, field.name)]
                if isinstance(getattr(config, field.name), str)
                else getattr(config, field.name)
            )
        ]
        assert len(named) >= 12
        missing = [(name, path) for name, path in named if not (REPO_ROOT / path).exists()]
        assert missing == []

    def test_fixture_dir_excluded_from_walks(self):
        files = iter_python_files(
            [str(FIXTURES.parent)], DEFAULT_EXCLUDE_DIRS
        )
        assert files
        assert not any("fixtures" in f for f in files)

    def test_fixtures_lint_dirty_when_walked_explicitly(self):
        config = Config(
            exclude_dirs=frozenset({"__pycache__"}),
            rl001_scope=("",),  # everything in scope
            rl005_names=NameSets(),
        )
        findings = lint_paths([str(FIXTURES / "rl001_bad.py")], config)
        assert any(f.code == "RL001" for f in findings)
