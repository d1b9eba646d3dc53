"""Structural tests of the report cells and merges (scaled down).

Every report section is a grid of cells plus a merge that renders the
table (:mod:`repro.experiments.parallel`). These run the FIG12, FIG13,
FIG14 and TAB2 cells on small runs, check that their rows are well
formed and internally consistent, and that the merges render them; the
paper-shape assertions read the full report golden in ``tests/paper/``.
"""

import dataclasses

import pytest

from repro.experiments import parallel
from repro.experiments.fig13_latency import LATENCY_POLICIES
from repro.experiments.report import _fmt
from repro.runtime.pipeline import PipelineConfig

#: A report profile (S2 only) whose merges read the small runs below.
PROFILE = dataclasses.replace(parallel.QUICK_PROFILE, fig14_horizons=(2, 5))


@pytest.fixture(scope="module")
def small_config():
    return PipelineConfig(
        policy="balb",
        horizon=5,
        n_horizons=6,
        warmup_s=15.0,
        train_duration_s=40.0,
        seed=0,
    )


@pytest.fixture(scope="module", autouse=True)
def trained_once():
    """The cells share one fit through the memo; drop it afterwards."""
    yield
    parallel._TRAINED.clear()


def _rows(table: str):
    """Data rows of a rendered table, split into cells."""
    return [line.split() for line in table.splitlines()[3:]]


class TestFig12Harness:
    def test_rows_structure(self, small_config):
        cells = {
            ("S2", policy): parallel._policy_cell("S2", policy, small_config)
            for policy in parallel.DEFAULT_POLICIES
        }
        for cell in cells.values():
            assert cell["scenario"] == "S2"
            assert 0.0 <= cell["recall"] <= 1.0
        table = parallel._fig12_merge(cells, 0, PROFILE)
        assert _rows(table) == [
            ["S2", policy, _fmt(cells[("S2", policy)]["recall"])]
            for policy in parallel.DEFAULT_POLICIES
        ]


class TestFig13Harness:
    def test_rows_and_summary_consistent(self, small_config):
        cells = {
            ("S2", policy): parallel._policy_cell("S2", policy, small_config)
            for policy in LATENCY_POLICIES
        }
        latency = {p: cells[("S2", p)]["latency_ms"] for p in LATENCY_POLICIES}
        assert all(ms > 0 for ms in latency.values())
        per_policy, headline = parallel._fig13_merge(
            cells, 0, PROFILE
        ).split("\n\n")
        rows = {row[1]: row for row in _rows(per_policy)}
        assert list(rows) == list(LATENCY_POLICIES)
        assert rows["full"][3] == _fmt(1.0)
        for policy in LATENCY_POLICIES:
            assert rows[policy][2] == _fmt(round(latency[policy], 1))
            assert rows[policy][3] == _fmt(latency["full"] / latency[policy])
        assert _rows(headline) == [[
            "S2",
            _fmt(latency["full"] / latency["balb"]),
            _fmt(latency["balb-ind"] / latency["balb"]),
            _fmt(latency["sp"] / latency["balb"]),
        ]]

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            parallel._speedup(10.0, 0.0)


class TestFig14Harness:
    def test_sweep_rows(self, small_config):
        rows = {
            horizon: parallel._fig14_cell("S2", small_config, horizon, 40)
            for horizon in (2, 5)
        }
        assert [r.horizon for r in rows.values()] == [2, 5]
        for row in rows.values():
            assert 0.0 <= row.recall <= 1.0
            assert row.slowest_camera_ms > 0
        # Key-frame amortization: T=5 is cheaper than T=2.
        assert rows[5].slowest_camera_ms < rows[2].slowest_camera_ms
        table = parallel._fig14_merge(rows, 0, PROFILE)
        assert [row[0] for row in _rows(table)] == ["2", "5"]


class TestTable2Harness:
    def test_overhead_row(self, small_config):
        row = parallel._tab2_cell("S2", small_config)
        assert row.scenario == "S2"
        assert row.total_ms == pytest.approx(
            row.central_ms + row.tracking_ms + row.distributed_ms
            + row.batching_ms
        )
        assert row.tracking_ms > 0
        assert row.distributed_ms < 1.0
        table = parallel._tab2_merge({"S2": row}, 0, PROFILE)
        assert _rows(table) == [[
            "S2", *(
                _fmt(round(ms, 2))
                for ms in (row.central_ms, row.tracking_ms,
                           row.distributed_ms, row.batching_ms, row.total_ms)
            ),
        ]]
