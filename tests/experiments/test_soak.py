"""The chaos-soak harness: shrinking, report format, end-to-end verdicts."""

import pytest

from repro.experiments.soak import (
    EpisodeOutcome,
    SoakResult,
    _episode_seed,
    _shrink,
    format_soak_report,
    run_soak,
)
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.faults.spec import parse_fault_spec


class TestShrink:
    def test_shrinks_to_the_single_culprit(self):
        events = list(range(12))
        violates = lambda subset: 7 in subset  # noqa: E731
        shrunk, runs = _shrink(events, violates, budget=32)
        assert shrunk == (7,)
        assert 0 < runs <= 32

    def test_keeps_interacting_pairs_together(self):
        events = list(range(8))
        violates = lambda s: 1 in s and 6 in s  # noqa: E731
        shrunk, _ = _shrink(events, violates, budget=32)
        assert set(shrunk) == {1, 6}

    def test_budget_bounds_the_number_of_runs(self):
        events = list(range(64))
        calls = []
        def violates(subset):
            calls.append(1)
            return 63 in subset
        _shrink(events, violates, budget=5)
        assert len(calls) <= 5

    def test_irreducible_schedule_survives(self):
        shrunk, _ = _shrink([1, 2], lambda s: set(s) == {1, 2}, budget=16)
        assert shrunk == (1, 2)


class TestReportFormat:
    def outcome(self, **kwargs):
        defaults = dict(index=0, fault_seed=0, n_events=3)
        defaults.update(kwargs)
        return EpisodeOutcome(**defaults)

    def result(self, episodes):
        return SoakResult(
            scenario="S1", preset="wire", policy="balb", n_frames=30,
            base_seed=0, fencing=True, episodes=tuple(episodes),
        )

    def test_clean_soak_reports_pass(self):
        report = format_soak_report(self.result([self.outcome()]))
        assert "verdict: PASS" in report
        assert "episodes passed: 1/1" in report
        assert "VIOLATION" not in report

    def test_violating_episode_lists_the_shrunk_schedule(self):
        bad = self.outcome(
            index=1,
            violation="R1 split-brain at frame 10: ...",
            shrunk_events=(
                FaultEvent(
                    FaultKind.SCHEDULER_PARTITION, 9, duration=3,
                    camera_id=1,
                ),
            ),
            shrink_runs=4,
        )
        report = format_soak_report(self.result([self.outcome(), bad]))
        assert "verdict: FAIL" in report
        assert "episodes passed: 1/2" in report
        assert "episode 1 violation: R1 split-brain" in report
        assert "shrunk schedule (1/3 events, 4 shrink runs)" in report
        assert "    sched_partition:cam=1,at=9,for=3\n" in report

    def test_report_is_pure_text_of_its_inputs(self):
        result = self.result([self.outcome()])
        assert format_soak_report(result) == format_soak_report(result)

    def test_episode_seeds_are_decorrelated_and_stable(self):
        seeds = [_episode_seed(0, i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert seeds == [_episode_seed(0, i) for i in range(5)]
        assert _episode_seed(1, 0) != _episode_seed(0, 0)


class TestRunSoak:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="episodes"):
            run_soak(episodes=0)
        with pytest.raises(ValueError, match="preset"):
            run_soak(episodes=1, preset="bogus")

    @pytest.mark.slow
    def test_fenced_episode_passes(self):
        result = run_soak(episodes=1, seed=0)
        assert result.ok
        assert result.episodes[0].n_events > 0
        assert "verdict: PASS" in format_soak_report(result)

    @pytest.mark.slow
    def test_legacy_episode_violates_and_shrinks(self):
        # Episode 1 of seed 0 draws a scheduler partition; without
        # fencing the invariant monitor catches the split-brain and the
        # shrinker reduces the schedule to a replayable core.
        result = run_soak(episodes=2, seed=0, fencing=False)
        assert not result.ok
        bad = result.episodes[1]
        assert bad.violation is not None and "R1" in bad.violation
        assert 0 < len(bad.shrunk_events) <= bad.n_events
        kinds = {e.kind for e in bad.shrunk_events}
        assert FaultKind.SCHEDULER_PARTITION in kinds
        # The printed lines, joined with ';', replay as a --faults spec.
        report = format_soak_report(result)
        block = report.split("shrink runs):\n")[1].split("\n\n")[0]
        spec = ";".join(line.strip() for line in block.splitlines())
        replay = parse_fault_spec(spec)
        assert replay.events == FaultSchedule(bad.shrunk_events).events
