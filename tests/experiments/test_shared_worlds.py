"""Sharing scope of the report: equal values inside and out, fewer frames.

Inside :func:`repro.runtime.trajectory.share_worlds`, every pipeline run
of one world replays one recorded trajectory and FIG10/FIG11 evaluate
one association dataset. Every report cell must return the same value
inside the scope as on its own world (floats compared via
``float.hex``), whether a run first records frames or replays them, and
one quick report must step and project far fewer frames than it runs.
"""

import dataclasses
import math

import pytest

import repro.cameras.camera as camera_mod
import repro.cameras.projection as projection_mod
import repro.cameras.rig as rig_mod
import repro.experiments.assoc_data as assoc_data
from repro.experiments import parallel
from repro.experiments.fig10_classification import evaluate_classifiers
from repro.experiments.fig11_regression import evaluate_regressors
from repro.experiments.parallel import QUICK_PROFILE, SECTIONS
from repro.experiments.runner import run_all
from repro.runtime.pipeline import Pipeline
from repro.runtime.trajectory import share_worlds
from repro.world.world import World

#: Every pipeline-running cell kind of the report.
CELL_KINDS = {
    "_policy_cell", "_fig14_cell", "_tab2_cell", "_fault_degradation_cell",
    "_fault_failover_cell", "_ingest_cell", "_ingest_identity_cell",
    "_ext_occ_cell", "_ext_sync_cell",
}


def canon(value):
    """``value`` with every float as its exact hex string."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value.hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__, canon(dataclasses.astuple(value)))
    if isinstance(value, dict):
        return tuple(sorted((k, canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    return value


def quick_cells(seed):
    """The quick report's pipeline cells, once each, in report order."""
    cells, seen = [], set()
    for name in ("FIG12", "FIG14", "TAB2", "EXTENSIONS", "FAULTS", "INGEST"):
        for job in SECTIONS[name].jobs(seed, QUICK_PROFILE):
            fingerprint = parallel._fingerprint(job)
            if job.fn.__name__ in CELL_KINDS and fingerprint not in seen:
                seen.add(fingerprint)
                cells.append(job)
    return cells


class TestEqualInsideAndOutsideTheScope:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_cell_kind(self, monkeypatch, seed):
        monkeypatch.setattr(parallel, "_TRAINED", {})
        cells = quick_cells(seed)
        assert {job.fn.__name__ for job in cells} == CELL_KINDS
        alone = [canon(job.fn(*job.args)) for job in cells]
        # Report order (the longest run records first) and reversed (the
        # shortest records first; longer runs extend the recording).
        for order in (cells, cells[::-1]):
            with share_worlds():
                together = {
                    id(job): canon(job.fn(*job.args)) for job in order
                }
            assert [together[id(job)] for job in cells] == alone

    def test_fig10_fig11_rows_and_one_dataset(self, monkeypatch):
        alone = (
            canon(evaluate_classifiers("S2", 60.0, 0)),
            canon(evaluate_regressors("S2", 60.0, 0)),
        )
        collected = []
        collect = assoc_data.collect_association_dataset

        def counting(*args, **kwargs):
            collected.append(args)
            return collect(*args, **kwargs)

        monkeypatch.setattr(
            assoc_data, "collect_association_dataset", counting
        )
        with share_worlds():
            together = (
                canon(evaluate_classifiers("S2", 60.0, 0)),
                canon(evaluate_regressors("S2", 60.0, 0)),
            )
        assert together == alone
        assert len(collected) == 1
        # The rows are not trivially empty: the 60 s window has test rows.
        assert any(row[1][3] != "0x0.0p+0" for row in alone[0])


#: One quick report at seed 0, before sharing: 556 ``project_objects_multi``
#: calls and 404 world steps inside the 27 runs' frame loops (20 distinct
#: frames of one S2 world).
PARENT_PROJECTIONS = 556
PARENT_RUN_STEPS = 404


def test_quick_report_steps_and_projects_each_frame_once(monkeypatch):
    counts = {"projections": 0, "run_steps": 0, "frames": 0}
    in_loop = [0]
    multi = camera_mod.project_objects_multi

    def counting_multi(*args, **kwargs):
        counts["projections"] += 1
        return multi(*args, **kwargs)

    for module in (camera_mod, projection_mod, rig_mod):
        monkeypatch.setattr(module, "project_objects_multi", counting_multi)
    step = World.step

    def counting_step(self, dt):
        counts["run_steps"] += in_loop[0]
        return step(self, dt)

    frame_loop = Pipeline._frame_loop

    def counting_loop(self, state, tracer):
        in_loop[0] += 1
        try:
            result = frame_loop(self, state, tracer)
        finally:
            in_loop[0] -= 1
        counts["frames"] += result.n_frames
        return result

    monkeypatch.setattr(World, "step", counting_step)
    monkeypatch.setattr(Pipeline, "_frame_loop", counting_loop)
    run_all(seed=0, profile=QUICK_PROFILE, workers=1, timings=False)
    assert counts["frames"] == 404
    assert counts["run_steps"] == 20
    assert counts["projections"] == 94
    assert counts["projections"] < PARENT_PROJECTIONS
    assert counts["run_steps"] < PARENT_RUN_STEPS
