"""Tests for the Jetson device catalogue."""

import pytest

from repro.devices.latency import LatencyModel
from repro.devices.profiles import (
    DEVICE_CATALOGUE,
    JETSON_AGX_XAVIER,
    JETSON_NANO,
    JETSON_TX2,
    JETSON_XAVIER_NX,
    latency_model_for,
)


class TestCatalogue:
    def test_all_devices_registered(self):
        assert len(DEVICE_CATALOGUE) == 4
        assert "jetson-nano" in DEVICE_CATALOGUE

    def test_lookup_by_name(self):
        assert DEVICE_CATALOGUE["jetson-tx2"] is JETSON_TX2

    def test_heterogeneity_ordering(self):
        """Nano slower than TX2 slower than Xavier NX slower than AGX."""
        fulls = [
            latency_model_for(d).full_frame_latency()
            for d in (JETSON_AGX_XAVIER, JETSON_XAVIER_NX, JETSON_TX2, JETSON_NANO)
        ]
        assert fulls == sorted(fulls)

    def test_nano_cannot_do_realtime_full_frames(self):
        """The paper's premise: full-frame inference exceeds the 100 ms
        frame interval at 10 FPS on the onboard GPUs."""
        model = latency_model_for(JETSON_NANO)
        assert model.full_frame_latency() > 100.0

    def test_slices_are_realtime_capable(self):
        """Sliced inspection of a few objects fits in a frame interval."""
        model = latency_model_for(JETSON_NANO)
        assert model.latency(128, model.batch_limit(128)) < 100.0

    def test_calibration_magnitudes(self):
        """Batch-1 640 px inference times roughly match public YOLOv5
        figures (Nano ~250 ms, TX2 ~110 ms, AGX ~35 ms)."""
        nano = LatencyModel(JETSON_NANO.gpu, size_set=(640,))
        tx2 = LatencyModel(JETSON_TX2.gpu, size_set=(640,))
        agx = LatencyModel(JETSON_AGX_XAVIER.gpu, size_set=(640,))
        assert nano.latency(640, 1) == pytest.approx(250, rel=0.2)
        assert tx2.latency(640, 1) == pytest.approx(110, rel=0.2)
        assert agx.latency(640, 1) == pytest.approx(35, rel=0.3)

    def test_custom_full_frame_size(self):
        fisheye = latency_model_for(JETSON_NANO, full_frame=(1280, 960))
        regular = latency_model_for(JETSON_NANO, full_frame=(1280, 704))
        assert fisheye.full_frame_latency() > regular.full_frame_latency()

    def test_bigger_gpu_bigger_batches(self):
        nano = latency_model_for(JETSON_NANO)
        agx = latency_model_for(JETSON_AGX_XAVIER)
        assert agx.batch_limit(256) > nano.batch_limit(256)
