"""Tests for persistence (repro.io) and ASCII visualization (repro.viz)."""

import csv

import numpy as np
import pytest

from repro.association.pairwise import PairwiseAssociator
from repro.association.training import (
    AssociationDataset,
    collect_association_dataset,
)
from repro.devices.profiler import profile_device
from repro.devices.profiles import JETSON_NANO, JETSON_TX2, latency_model_for
from repro.geometry.box import BBox, corner_array
from repro.io import (
    export_ground_truth_csv,
    load_association_dataset,
    load_profiles,
    profile_from_dict,
    profile_to_dict,
    save_association_dataset,
    save_profiles,
)
from repro.scenarios.aic21 import scenario_s2
from repro.viz import render_ground_plane, render_workload_series, sparkline


class TestProfilePersistence:
    def test_roundtrip_single(self):
        profile = profile_device(latency_model_for(JETSON_TX2), "tx2", seed=1)
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored == profile

    def test_roundtrip_fleet(self, tmp_path):
        profiles = {
            0: profile_device(latency_model_for(JETSON_TX2), "tx2", seed=1),
            3: profile_device(latency_model_for(JETSON_NANO), "nano", seed=2),
        }
        path = tmp_path / "fleet.json"
        save_profiles(profiles, path)
        restored = load_profiles(path)
        assert restored == profiles

    def test_json_is_human_readable(self, tmp_path):
        profiles = {
            0: profile_device(
                latency_model_for(JETSON_NANO), JETSON_NANO.name, seed=0
            )
        }
        path = tmp_path / "p.json"
        save_profiles(profiles, path)
        text = path.read_text()
        assert "jetson-nano" in text
        assert "t_full" in text


class TestAssociationPersistence:
    def make_dataset(self):
        rng = np.random.default_rng(0)
        ds = AssociationDataset()
        pair = ds.pair(0, 1)
        empty_pair = ds.pair(1, 0)  # all-negative pair
        for _ in range(50):
            cx = float(rng.uniform(0, 800))
            box = BBox.from_xywh(cx, 300, 50, 35)
            pair.add(box, box.translate(100, 0) if cx < 400 else None)
            empty_pair.add(box, None)
        return ds

    def test_roundtrip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "assoc.npz"
        save_association_dataset(ds, path)
        restored = load_association_dataset(path)
        assert set(restored.pairs) == set(ds.pairs)
        for key, pair_ds in ds.pairs.items():
            other = restored.pairs[key]
            assert other.n_samples == pair_ds.n_samples
            assert other.n_positive == pair_ds.n_positive
            assert np.allclose(
                np.asarray(other.features), np.asarray(pair_ds.features)
            )

    def test_restored_dataset_fits_models(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "assoc.npz"
        save_association_dataset(ds, path)
        restored = load_association_dataset(path)
        assoc = PairwiseAssociator().fit(restored)
        visible = BBox.from_xywh(200, 300, 50, 35)
        idx, _ = assoc.model(0, 1).predict_visible_boxes(corner_array([visible]))
        assert idx.tolist() == [0]

    def test_scenario_dataset_roundtrip(self, tmp_path):
        scenario = scenario_s2(seed=1)
        world, rig = scenario.build()
        world.run(20.0, 0.1)
        ds = collect_association_dataset(world, rig, duration_s=20.0)
        path = tmp_path / "s2.npz"
        save_association_dataset(ds, path)
        restored = load_association_dataset(path)
        assert {k: p.n_samples for k, p in restored.pairs.items()} == {
            k: p.n_samples for k, p in ds.pairs.items()
        }


class TestGroundTruthExport:
    def test_csv_structure(self, tmp_path):
        scenario = scenario_s2(seed=2)
        world, rig = scenario.build()
        world.run(30.0, 0.1)
        path = tmp_path / "gt.csv"
        rows = export_ground_truth_csv(world, rig, path, duration_s=10.0)
        with open(path) as f:
            reader = csv.DictReader(f)
            read_rows = list(reader)
        assert len(read_rows) == rows
        if read_rows:
            first = read_rows[0]
            assert set(first) == {
                "frame", "time_s", "camera_id", "object_id",
                "object_class", "x1", "y1", "x2", "y2",
            }
            assert float(first["x2"]) >= float(first["x1"])

    def test_invalid_duration_raises(self, tmp_path):
        scenario = scenario_s2(seed=2)
        world, rig = scenario.build()
        with pytest.raises(ValueError):
            export_ground_truth_csv(world, rig, tmp_path / "x.csv", 0.0)


class TestViz:
    def test_ground_plane_renders(self):
        scenario = scenario_s2(seed=3)
        world, rig = scenario.build()
        world.run(60.0, 0.1)
        art = render_ground_plane(world, rig, width=60, height=20)
        lines = art.splitlines()
        assert len(lines) == 21  # canvas + legend
        assert all(len(line) == 60 for line in lines[:20])
        assert "0" in art and "1" in art  # both cameras plotted
        assert "legend" in lines[-1]

    def test_small_canvas_rejected(self):
        scenario = scenario_s2(seed=3)
        world, rig = scenario.build()
        with pytest.raises(ValueError):
            render_ground_plane(world, rig, width=5, height=2)

    def test_sparkline_basic(self):
        line = sparkline([0, 5, 10])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_pools_long_series(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50

    def test_sparkline_constant_series(self):
        line = sparkline([3.0, 3.0, 3.0])
        assert len(line) == 3

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_workload_series(self):
        art = render_workload_series({0: [1, 2, 3], 1: [5, 5, 5]})
        assert "cam0" in art and "cam1" in art
        assert "max  3" in art or "max 3" in art.replace("  ", " ")
