"""The injectable-clock seam of the pipeline.

Every host-time observation (``frame_wall_ms``, span durations) goes
through a :class:`~repro.obs.trace.Clock`, so tests can pin it with a
fake clock — and ``runtime/pipeline.py`` stays off the RL002 wall-clock
allowlist.
"""

import pytest

from repro.obs.trace import WALL_CLOCK, Clock, WallClock
from repro.runtime.pipeline import PipelineConfig, Pipeline, train_models
from repro.scenarios.aic21 import get_scenario


class TickingClock:
    """A fake wall clock: each ``now()`` is 1 ms after the previous."""

    def __init__(self):
        self.calls = 0

    def now(self) -> float:
        self.calls += 1
        return self.calls * 1e-3


class TestClockProtocol:
    def test_wall_clock_satisfies_clock_protocol(self):
        assert isinstance(WallClock(), Clock)
        assert isinstance(WALL_CLOCK, Clock)
        assert isinstance(TickingClock(), Clock)


class TestInjectablePipelineClock:
    @pytest.fixture(scope="class")
    def small_setup(self):
        scenario = get_scenario("S2", seed=0)
        config = PipelineConfig(
            policy="balb", horizon=3, n_horizons=2, warmup_s=5.0,
            train_duration_s=10.0, seed=0,
        )
        return scenario, config, train_models(scenario, config)

    def _wall_stats(self, result):
        return [m for m in result.metrics if m["name"] == "frame_wall_ms"]

    def test_fake_clock_makes_frame_wall_ms_deterministic(self, small_setup):
        scenario, config, trained = small_setup
        runs = [
            Pipeline(scenario, config, trained, clock=TickingClock()).run()
            for _ in range(2)
        ]
        stats = [self._wall_stats(r) for r in runs]
        assert stats[0]  # the histogram is actually exported
        assert stats[0] == stats[1]
        # Each frame spans exactly one start/stop pair of the fake clock,
        # so every observation is exactly 1 ms.
        (hist,) = stats[0]
        assert hist["max"] == pytest.approx(1.0)
        assert hist["min"] == pytest.approx(1.0)

    def test_default_clock_is_the_wall_clock(self, small_setup):
        scenario, config, trained = small_setup
        pipe = Pipeline(scenario, config, trained)
        assert pipe.clock is WALL_CLOCK

    def test_clock_does_not_perturb_simulation(self, small_setup):
        """Fake vs wall clock: identical frames, identical recall."""
        scenario, config, trained = small_setup
        fake = Pipeline(scenario, config, trained, clock=TickingClock()).run()
        wall = Pipeline(scenario, config, trained).run()
        assert fake.frames == wall.frames
