"""CLI tests: the seeded defect fixtures, exit codes, the baseline
ratchet, SARIF emission, the ``repro flow`` subcommand, and the
meta-test that the repository's own tree analyzes clean in budget."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from tools.reproflow.cli import RULES, main as reproflow_main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_flow(tree, argv, monkeypatch):
    monkeypatch.chdir(tree)
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    return reproflow_main(argv)


class TestSeededDefectFixtures:
    """Each defect class yields exactly one finding, correctly placed."""

    CASES = [
        ("unseeded_flow", "RF001", "src/repro/simstep.py", 8),
        ("forbidden_edge", "RF003", "src/repro/runtime/health.py", 30),
        ("missing_bump", "RF004", "src/repro/runtime/failover.py", 20),
        ("dead_obs_name", "RF005", "src/repro/obs/names.py", 6),
        ("unregistered_obs", "RF006", "src/repro/pipeline.py", 6),
    ]

    @pytest.mark.parametrize("fixture,code,path,line", CASES)
    def test_exactly_one_finding_with_location(
        self, fixture, code, path, line, monkeypatch, capsys
    ):
        rc = run_flow(
            FIXTURES / fixture, ["src", "--no-baseline", "--json"],
            monkeypatch,
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        (finding,) = doc["findings"]
        assert finding["code"] == code
        assert finding["path"] == path
        assert finding["line"] == line
        assert doc["errors"] == 1


class TestExitCodesAndRatchet:
    def test_clean_tree_exits_0(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "fine.py").write_text("x = 1\n")
        assert run_flow(tmp_path, ["src"], monkeypatch) == 0
        assert "clean" in capsys.readouterr().err

    def test_baselined_finding_never_fails(self, monkeypatch, tmp_path,
                                           capsys):
        baseline = tmp_path / "baseline.json"
        tree = FIXTURES / "unseeded_flow"
        assert (
            run_flow(
                tree,
                ["src", "--baseline", str(baseline), "--write-baseline"],
                monkeypatch,
            )
            == 0
        )
        capsys.readouterr()
        rc = run_flow(
            tree, ["src", "--baseline", str(baseline)], monkeypatch
        )
        assert rc == 0
        out = capsys.readouterr()
        assert "[baselined]" in out.out
        assert "1 baselined" in out.err

    def test_stale_baseline_entry_reported(self, tmp_path, monkeypatch,
                                           capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "fine.py").write_text("x = 1\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "findings": [
                        {"code": "RF001", "path": "gone.py",
                         "message": "paid off"}
                    ],
                }
            )
        )
        rc = run_flow(
            tmp_path, ["src", "--baseline", str(baseline)], monkeypatch
        )
        assert rc == 0
        assert "stale baseline entry" in capsys.readouterr().err

    def test_select_filters_codes(self, monkeypatch, capsys):
        rc = run_flow(
            FIXTURES / "unseeded_flow",
            ["src", "--no-baseline", "--select", "RF005"],
            monkeypatch,
        )
        assert rc == 0
        assert "clean" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_flow(
                FIXTURES / "unseeded_flow",
                ["src", "--select", "RF999"],
                monkeypatch,
            )
        assert exc.value.code == 2
        capsys.readouterr()

    def test_suppression_comment_silences_finding(self, tmp_path,
                                                  monkeypatch, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "x.py").write_text(
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.normal()  # reproflow: disable=RF001\n"
        )
        assert run_flow(tmp_path, ["src", "--no-baseline"], monkeypatch) == 0
        assert "clean" in capsys.readouterr().err

    def test_sarif_written(self, tmp_path, monkeypatch, capsys):
        sarif = tmp_path / "flow.sarif"
        rc = run_flow(
            FIXTURES / "unseeded_flow",
            ["src", "--no-baseline", "--sarif", str(sarif)],
            monkeypatch,
        )
        assert rc == 1
        capsys.readouterr()
        doc = json.loads(sarif.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "RF001"


class TestListRules:
    def test_catalog_lists_every_rule(self, capsys):
        assert reproflow_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out
        assert len(RULES) == 8


class TestReproFlowSubcommand:
    def test_repro_flow_on_fixture(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES / "unseeded_flow")
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        assert repro_main(["flow", "--no-baseline", "src"]) == 1
        assert "RF001" in capsys.readouterr().out

    def test_repro_flow_json(self, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES / "missing_bump")
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        assert repro_main(["flow", "--no-baseline", "--json", "src"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 1


class TestRepositoryAnalyzesClean:
    """The meta-test: every pass on the repo's own tree, in budget."""

    def test_module_invocation_exits_0_within_30s(self):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reproflow", "src", "tools"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stderr
        assert elapsed < 30.0

    def test_checked_in_baseline_is_empty(self):
        baseline = json.loads(
            (REPO_ROOT / "tools/reproflow/baseline.json").read_text()
        )
        assert baseline["findings"] == []
