"""Tests of the benchmark itself: tracing, fingerprints, workloads, CLI.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, reference, workloads
from perfbench.layers import FrameClock, LayerTracer, Probe
from repro.runtime.metrics import FrameRecord, RunResult

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


CLOCK = FakeClock()


class Outer:
    def run(self, inner: "Inner", depth: int = 0) -> int:
        CLOCK.advance(5)
        inner.work()
        if depth:
            self.run(inner, depth - 1)
        CLOCK.advance(3)
        return depth


class Inner:
    def work(self) -> None:
        CLOCK.advance(7)
        leaf()


def leaf() -> None:
    CLOCK.advance(2)


def drive(depth: int) -> None:
    if depth:
        drive(depth - 1)
    else:
        Outer().run(Inner(), depth=1)


def test_self_time_of_a_nested_call_tree():
    tracer = LayerTracer(
        [
            Probe("outer_ms", f"{__name__}:Outer.run", calls="outer_calls"),
            Probe("inner_ms", f"{__name__}:Inner.work"),
            Probe("leaf_ms", f"{__name__}:leaf"),
            Probe("total_ms", f"{__name__}:drive", inclusive=True),
        ],
        clock=CLOCK,
    )
    with tracer:
        # run(depth=1) -> [5, work(7, leaf 2), run(depth=0) -> [5, work, 3], 3]
        drive(1)
    assert tracer.totals_ns == {
        "outer_ms": 2 * (5 + 3),
        "inner_ms": 2 * 7,
        "leaf_ms": 2 * 2,
        # Outermost call only: the nested drive is not counted twice.
        "total_ms": 2 * (5 + 7 + 2 + 3),
    }
    assert tracer.counts == {"outer_calls": 2}
    self_time = sum(
        v for k, v in tracer.totals_ns.items() if k != "total_ms"
    )
    assert self_time == tracer.totals_ns["total_ms"]


def test_one_callable_takes_one_probe():
    with pytest.raises(ValueError, match="more than one probe"):
        LayerTracer([
            Probe("a_ms", f"{__name__}:leaf"),
            Probe("b_ms", f"{__name__}:leaf", inclusive=True),
        ])


def test_tracer_restores_originals_after_a_traced_run(tmp_path):
    import repro.association.matcher as matcher
    import repro.runtime.camera_node as camera_node
    from repro.ml.hungarian import hungarian

    session = _short(workloads.WORKLOADS["s1-central"], 2).set_up(0, str(tmp_path))
    tracer = LayerTracer(bench.PROBES)
    before = [
        (owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer.originals()
    ]
    # Hungarian matching is counted at both of its import sites.
    patched = {(o, a) for o, a, _ in tracer.originals()}
    assert (matcher, "hungarian") in patched
    assert (camera_node, "hungarian") in patched
    with tracer:
        assert matcher.hungarian is not hungarian
        session.episode()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    assert matcher.hungarian is hungarian
    assert tracer.totals_ns["association.associate_ms"] > 0
    assert tracer.counts["scheduler.rounds"] == 2 * 2  # parts x key frames


def test_frame_clock_times_gaps_and_restores_add():
    original = RunResult.__dict__["add"]
    first, second = RunResult("balb", "S1", 1), RunResult("balb", "S1", 1)
    with FrameClock(RunResult) as clock:
        for result in (first, first, first, second, second):
            result.add(_record(0))
    assert RunResult.__dict__["add"] is original
    assert clock.frames == 5
    assert len(clock.frame_ns) == 3  # no gap across results
    assert clock.results == [first, second]
    assert first.n_frames == 3 and second.n_frames == 2


def _record(index: int, **changes) -> FrameRecord:
    record = FrameRecord(
        frame_index=index,
        is_key_frame=True,
        inference_ms={1: 10.5, 2: 20.25},
        visible_gt=frozenset({1, 2, 3}),
        detected_gt=frozenset({1, 2}),
        overheads_ms={"tracking": 1.5},
        n_slices={1: 2, 2: 3},
    )
    return dataclasses.replace(record, **changes)


@pytest.mark.parametrize(
    "changes",
    [
        {"frame_index": 2},
        {"is_key_frame": False},
        {"inference_ms": {1: 10.5, 2: 20.250000000000004}},
        {"visible_gt": frozenset({1, 2, 4})},
        {"detected_gt": frozenset({1})},
        {"overheads_ms": {"tracking": 1.25}},
        {"n_slices": {1: 2, 2: 4}},
        {"coverage_lost": frozenset({9})},
    ],
)
def test_fingerprint_changes_with_any_record_field(changes):
    base = workloads.frames_digest([_record(0), _record(1)])
    assert workloads.frames_digest([_record(0), _record(1)]) == base
    assert workloads.frames_digest([_record(0), _record(1, **changes)]) != base


def _short(workload, n_horizons):
    if isinstance(workload, workloads.ReportWorkload):
        return dataclasses.replace(workload, parts=1)
    return dataclasses.replace(workload, n_horizons=n_horizons, parts=2)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_smoke(name, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(
        workloads.WORKLOADS, name, _short(workloads.WORKLOADS[name], 2)
    )
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    work_root = tmp_path / "work"
    record = bench.run_workload(name, 0, 0.0, trace, str(work_root))
    assert record["problems"] == []
    assert record["failed"] == 0
    assert record["episodes"] == (4 if trace else 2)
    section = "per_layer" if trace else "end_to_end"
    assert list(record["metrics"]) == [m["name"] for m in CONTRACT[section]]
    if not trace:
        assert all(v > 0 for v in record["metrics"].values())
    # Set-up directories, the checkpoint's included, are all removed.
    assert os.listdir(work_root) == []


def test_traced_faults_workload_reaches_the_control_plane(tmp_path, monkeypatch):
    name = "s1-faults-ckpt"
    monkeypatch.setitem(
        workloads.WORKLOADS, name, _short(workloads.WORKLOADS[name], 5)
    )
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    metrics = bench.run_workload(name, 0, 0.0, True, str(tmp_path))["metrics"]
    for metric in ("checkpoint.save_ms", "checkpoint.bytes", "net.transfer_ms",
                   "control.failover_ms", "control.health_ms"):
        assert metrics[metric] > 0, metric
    assert metrics["checkpoint.saves"] == pytest.approx(1 / 50)


def test_contract_matches_the_code():
    from perfbench import run

    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]
    names = [w["name"] for w in CONTRACT["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    whys = [w["why"] for w in CONTRACT["workloads"]]
    assert whys == [w.why for w in workloads.WORKLOADS.values()]
    e2e = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["end_to_end"]}
    assert e2e == {n: (u, b) for n, u, b in bench.END_TO_END}
    layers = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert layers == bench.per_layer_units()


def test_reference_holds_the_held_out_seed():
    digests = reference.load()
    for name in workloads.WORKLOADS:
        assert set(digests[name]) == {str(s) for s in reference.REFERENCE_SEEDS}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s1-central",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
