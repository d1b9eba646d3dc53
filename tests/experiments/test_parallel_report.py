"""Report harness: byte-identity, training dedup, caching, timing format.

``run_all(workers=N)`` must produce the **byte-identical** report for
every worker count, section subset, seed and profile, because
parallelism must never change science output; the quick report must
also match its checked-in golden file. These tests check that end to
end on the QUICK profile (a property-based sweep over sections x seeds
plus a deterministic full-report case), prove that each distinct model
set is fit once per report and that a warm artifact cache skips every
fit while leaving the report bytes unchanged, and pin the adaptive
elapsed-time format.
"""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.pipeline as pipeline_mod
from repro.cache import ArtifactCache
from repro.experiments import parallel
from repro.experiments.parallel import (
    QUICK_PROFILE,
    SECTION_ORDER,
    Job,
    _run_waves,
    run_report_sections,
    warm_jobs,
)
from repro.experiments.runner import _fmt_elapsed, run_all

#: ``repro report --quick --no-timings --seed 0`` output (CI cmp's it too).
GOLDEN_QUICK_REPORT = (
    pathlib.Path(__file__).resolve().parents[2]
    / ".github" / "golden" / "report_quick_seed0.txt"
)

#: Cheap-enough sections for the property sweep (QUICK profile).
SWEEP_SECTIONS = ("FIG2", "FIG12", "FIG13", "FIG14", "TAB2", "EXTENSIONS")


class TestByteIdentity:
    @settings(max_examples=2, deadline=None)
    @given(
        sections=st.lists(
            st.sampled_from(SWEEP_SECTIONS), min_size=1, max_size=2,
            unique=True,
        ),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_parallel_report_matches_serial(self, tmp_path_factory, sections,
                                            seed):
        cache_dir = str(tmp_path_factory.mktemp("cache"))
        serial = run_all(
            seed=seed, profile=QUICK_PROFILE, sections=sections,
            timings=False,
        )
        pooled = run_all(
            seed=seed, profile=QUICK_PROFILE, sections=sections,
            timings=False, workers=2, cache=cache_dir,
        )
        assert pooled == serial

    def test_full_quick_report_identical_and_cached(self, tmp_path):
        golden = GOLDEN_QUICK_REPORT.read_text()
        cache = ArtifactCache(str(tmp_path))
        inline = run_all(profile=QUICK_PROFILE, timings=False)
        pooled = run_all(
            profile=QUICK_PROFILE, timings=False, workers=2, cache=cache
        )
        assert inline + "\n" == golden
        assert pooled + "\n" == golden
        # The warm-up wave trains each key once, into the cache.
        assert cache.misses <= len(
            warm_jobs(SECTION_ORDER, 0, QUICK_PROFILE)
        )


class TestTrainingDedup:
    def test_uncached_report_fits_each_training_key_once(self, monkeypatch):
        fits = []
        real_fit = pipeline_mod._train_models

        def counting_fit(scenario, config, need_association):
            fits.append(
                (scenario.name, config.seed, config.warmup_s,
                 config.train_duration_s)
            )
            return real_fit(scenario, config, need_association)

        monkeypatch.setattr(pipeline_mod, "_train_models", counting_fit)
        run_all(profile=QUICK_PROFILE, timings=False)
        keys = [
            (job.args[0], 0, job.args[1], job.args[2])
            for job in warm_jobs(SECTION_ORDER, 0, QUICK_PROFILE)
        ]
        assert sorted(fits) == sorted(keys)
        # The per-process memo does not outlive the report.
        assert parallel._TRAINED == {}

    def test_memo_keys_on_every_training_input(self):
        base = QUICK_PROFILE.policy_config(0)
        try:
            first = parallel._trained("S2", base)
            # Fields training does not read share the entry...
            same = dataclasses.replace(base, policy="sp", horizon=3)
            assert parallel._trained("S2", same) is first
            # ...and each one it reads gets its own.
            for change in (
                {"seed": 1}, {"warmup_s": 7.0}, {"train_duration_s": 13.0}
            ):
                other = dataclasses.replace(base, **change)
                assert parallel._trained("S2", other) is not first
            assert len(parallel._TRAINED) == 4
        finally:
            parallel._TRAINED.clear()


class TestWarmCache:
    def test_warm_rerun_skips_every_fit_and_matches_cold(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactCache(str(tmp_path))
        cold = run_all(
            profile=QUICK_PROFILE, sections=["FIG12"], timings=False,
            cache=cache,
        )
        assert cache.misses > 0
        assert cache.stats().entries > 0

        fits = []
        real_fit = pipeline_mod._train_models

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "_train_models", counting_fit)
        warm_cache = ArtifactCache(str(tmp_path))
        warm = run_all(
            profile=QUICK_PROFILE, sections=["FIG12"], timings=False,
            cache=warm_cache,
        )
        assert warm == cold
        assert fits == []  # every train_models call was a cache hit
        assert warm_cache.hits > 0
        assert warm_cache.misses == 0


class TestRunAllValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown report sections"):
            run_all(sections=["FIG2", "NOPE"])

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_all(workers=0)

    def test_unknown_section_rejected_in_parallel_api(self):
        with pytest.raises(ValueError, match="unknown report sections"):
            run_report_sections(["BOGUS"], seed=0)


class TestJobDedup:
    def test_fig12_fig13_share_policy_runs(self, tmp_path, monkeypatch):
        # FIG13's (scenario, policy) grid is a subset of FIG12's; the
        # job list must run each distinct cell once and hand its result
        # to both merges.
        alone = {
            name: run_report_sections(
                [name], seed=0, profile=QUICK_PROFILE, workers=1
            ).bodies[name]
            for name in ("FIG12", "FIG13")
        }
        runs = []
        real_run = parallel.run_policy

        def counting_run(scenario, policy, config, trained):
            runs.append(policy)
            return real_run(scenario, policy, config, trained)

        monkeypatch.setattr(parallel, "run_policy", counting_run)
        merged = run_report_sections(
            ["FIG12", "FIG13"], seed=0, profile=QUICK_PROFILE, workers=1,
            cache_root=str(tmp_path),
        )
        assert merged.bodies == alone
        # 1 scenario x 5 policies in all: the shared 4 ran once.
        assert sorted(runs) == sorted(parallel.DEFAULT_POLICIES)
        # One training key, fit once by the warm-up job.
        assert merged.cache_misses == 1


def _double(x):
    return 2 * x


class TestRunJobs:
    def test_inline_results_ordered_and_timed(self):
        jobs = [Job("S", i, _double, (i,)) for i in range(4)]
        (results,) = _run_waves([jobs], workers=1, cache_root=None)
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert [r.key for r in results] == [0, 1, 2, 3]
        assert all(r.elapsed_s >= 0 for r in results)
        assert all(r.cache_hits == 0 and r.cache_misses == 0 for r in results)


class TestElapsedFormat:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0.0, "0ms"),
            (0.042, "42ms"),
            (0.0994, "99ms"),
            (0.1, "0.1s"),
            (1.26, "1.3s"),
            (62.0, "62.0s"),
        ],
    )
    def test_adaptive_units(self, seconds, expected):
        assert _fmt_elapsed(seconds) == expected
