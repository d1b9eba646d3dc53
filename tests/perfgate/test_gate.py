"""The speed gate: host-free quantities from perfbench's traced records."""

import json

import pytest

from tools.perfgate import gate
from tools.perfgate.gate import (
    BOUND,
    COUNTS,
    FLOOR,
    WORKLOADS,
    check,
    gated,
    load_baseline,
    load_records,
    main,
    quantities,
)

#: ms per frame of a made-up traced frame: 6.0 ms in all.
LAYERS = {
    "world.step_ms": 1.0,
    "association.associate_ms": 3.0,
    "ml.hungarian_ms": 0.5,
    "control.health_ms": 0.01,
    "net.transfer_ms": 0.0,
    "pipeline.other_ms": 1.49,
}


def traced_metrics(scale=1.0, **overrides):
    """Per-layer metrics as ``perfbench/run.py --trace 1`` reports them."""
    metrics = {name: ms * scale for name, ms in LAYERS.items()}
    metrics.update({name: 2.0 for name in COUNTS})
    metrics["net.messages"] = 0.0
    metrics.update({
        "experiments.sim_ms": 0.0,
        "experiments.other_ms": 0.0,
        "metrics.modeled_ms": 600.0,
        "trace.frames_per_s": 150.0 / scale,
    })
    metrics.update(overrides)
    return metrics


def record(workload, metrics):
    return {"workload": workload, "failed": 0, "problems": [], "metrics": metrics}


def write_records(tmp_path, by_workload, tag="r"):
    paths = []
    for workload, metrics in by_workload.items():
        path = tmp_path / f"{workload}-{tag}.json"
        path.write_text(json.dumps(record(workload, metrics)))
        paths.append(str(path))
    return paths


def measured(**per_workload):
    """``{workload: quantities}`` with the default frame where not given."""
    return {
        w: quantities(per_workload.get(w.replace("-", "_"), traced_metrics()))
        for w in WORKLOADS
    }


class TestQuantities:
    def test_layer_ratio_is_its_share_of_the_rest_of_the_frame(self):
        q = quantities(traced_metrics())
        assert q["association.associate_ms/rest"] == pytest.approx(3.0 / 3.0)
        assert q["ml.hungarian_ms/rest"] == pytest.approx(0.5 / 5.5)
        assert q["pipeline.other_ms/rest"] == pytest.approx(1.49 / 4.51)
        assert q["net.transfer_ms/rest"] == 0.0

    def test_counts_pass_through_and_nothing_else_is_read(self):
        q = quantities(traced_metrics())
        assert {n for n in q if not n.endswith("/rest")} == set(COUNTS)
        assert not any(n.startswith(("experiments.", "metrics.", "trace.")) for n in q)

    def test_a_slower_host_moves_no_quantity(self):
        base, slow = quantities(traced_metrics()), quantities(traced_metrics(scale=3.0))
        assert slow == pytest.approx(base)

    def test_an_untraced_record_is_refused(self):
        with pytest.raises(ValueError, match="--trace 1"):
            quantities({"frames_per_s": 200.0, "frame_ms_p50": 4.0})


class TestCheck:
    def test_a_slow_layer_fails_by_name_and_only_it(self):
        baseline = measured()
        slow = measured(s1_central=traced_metrics(**{"ml.hungarian_ms": 1.5}))
        lines, failures = check(slow, baseline)
        assert len(failures) == 1
        assert failures[0].startswith("s1-central ml.hungarian_ms/rest: ")
        assert f"> {BOUND:.1f}x" in failures[0]
        assert len(lines) == len(gated(baseline)[0])

    def test_within_the_bound_passes(self):
        baseline = measured()
        slower = measured(s3_distributed=traced_metrics(**{"world.step_ms": 1.8}))
        assert check(slower, baseline)[1] == []

    def test_a_layer_below_the_floor_is_named_and_not_gated(self):
        baseline = measured()
        keep, below = gated(baseline)
        health = "control.health_ms/rest"
        assert baseline["s1-central"][health] < FLOOR
        assert ("s1-central", health) in below
        assert ("s1-central", health) not in keep
        # A layer that never ran is in neither list.
        assert not any(n == "net.transfer_ms/rest" for _, n in keep + below)
        noisy = measured(s1_central=traced_metrics(**{"control.health_ms": 0.2}))
        assert check(noisy, baseline)[1] == []

    def test_work_counts_are_gated_from_zero(self):
        baseline = measured()
        more = measured(s1_faults_ckpt=traced_metrics(**{"net.messages": 0.5}))
        failures = check(more, baseline)[1]
        assert [f.split(":")[0] for f in failures] == ["s1-faults-ckpt net.messages"]

    def test_doubled_work_count_fails(self):
        baseline = measured()
        more = measured(s1_central=traced_metrics(**{"cameras.project_calls": 4.5}))
        assert len(check(more, baseline)[1]) == 1

    def test_a_quantity_missing_from_the_record_fails(self):
        baseline = measured()
        current = measured()
        del current["s3-distributed"]["world.step_ms/rest"]
        failures = check(current, baseline)[1]
        assert failures == ["s3-distributed world.step_ms/rest: missing from the record"]


class TestRecords:
    def test_median_over_several_records_of_one_workload(self, tmp_path):
        paths = []
        for tag, ms in (("a", 0.5), ("b", 5.0), ("c", 0.6)):
            paths += write_records(
                tmp_path, {"s1-central": traced_metrics(**{"ml.hungarian_ms": ms})}, tag
            )
        paths += write_records(
            tmp_path, {w: traced_metrics() for w in WORKLOADS if w != "s1-central"}
        )
        got = load_records(paths)["s1-central"]["ml.hungarian_ms/rest"]
        assert got == pytest.approx(0.6 / 5.5)

    def test_every_workload_needs_a_record(self, tmp_path):
        paths = write_records(tmp_path, {"s1-central": traced_metrics()})
        with pytest.raises(ValueError, match="s3-distributed, s1-faults-ckpt"):
            load_records(paths)

    @pytest.mark.parametrize(
        "fields,reason",
        [
            ({"workload": "report-quick"}, "no workload 'report-quick'"),
            ({"problems": ["digest differs"]}, "reported problems"),
            ({"failed": 400}, "reported problems"),
            ({"metrics": {"frames_per_s": 1.0}}, "--trace 1"),
        ],
    )
    def test_unusable_records_are_refused(self, tmp_path, fields, reason):
        path = tmp_path / "bad.json"
        payload = record("s1-central", traced_metrics())
        payload.update(fields)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=reason):
            load_records([str(path)])


class TestCommandLine:
    def test_write_then_gate_the_same_records(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gate, "BASELINE_PATH", tmp_path / "baseline.json")
        paths = write_records(tmp_path, {w: traced_metrics() for w in WORKLOADS})
        assert main(["--write-baseline"] + paths) == 0
        assert main(paths) == 0
        out = capsys.readouterr().out
        assert "perfgate: OK" in out
        assert f"below the {FLOOR} floor: s1-central: control.health_ms/rest" in out

    def test_regression_exits_1_and_names_the_quantity(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gate, "BASELINE_PATH", tmp_path / "baseline.json")
        assert main(["--write-baseline"] + write_records(
            tmp_path, {w: traced_metrics() for w in WORKLOADS}
        )) == 0
        slow = {w: traced_metrics() for w in WORKLOADS}
        slow["s3-distributed"] = traced_metrics(**{"world.step_ms": 4.0})
        assert main(write_records(tmp_path, slow, "slow")) == 1
        err = capsys.readouterr().err
        assert "PERF REGRESSION: s3-distributed world.step_ms/rest" in err

    def test_bad_input_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2
        assert "not a perfbench record" in capsys.readouterr().err


class TestCheckedInBaseline:
    """The quantities that replaced the retired micro-benchmarks stay gated."""

    def test_gates_the_layers_of_the_retired_entries(self):
        keep, _ = gated(load_baseline(gate.BASELINE_PATH))
        for pair in [
            ("s1-central", "core.balb_ms/rest"),
            ("s1-central", "ml.hungarian_ms/rest"),
            ("s1-central", "association.associate_ms/rest"),
            ("s1-faults-ckpt", "control.health_ms/rest"),
            ("s3-distributed", "camera_node.regular_self_ms/rest"),
            ("s3-distributed", "cameras.project_ms/rest"),
        ]:
            assert pair in keep

    def test_gates_every_work_count_on_every_workload(self):
        keep, _ = gated(load_baseline(gate.BASELINE_PATH))
        assert {(w, n) for w in WORKLOADS for n in COUNTS} <= set(keep)
