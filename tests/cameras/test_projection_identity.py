"""The batched projection equals the single-object one, bit for bit.

Every per-frame box table comes from :func:`project_objects_multi`
(through :class:`FrameProjectionCache`, :meth:`CameraRig.project_all`
and training-data collection), and :meth:`Camera.project_object` is the
reference it must reproduce: the same visible ids in the same order, and
every coordinate the same plain ``float`` down to its ``float.hex``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cameras.camera import project_objects_multi
from repro.cameras.projection import FrameProjectionCache
from repro.cameras.rig import CameraRig
from repro.scenarios.aic21 import get_scenario
from repro.world.entities import ObjectClass, WorldObject
from repro.world.soa import FrameArrays

RIGS = {name: CameraRig(get_scenario(name).cameras) for name in ("S1", "S2", "S3")}

_angle = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def placements(draw, n_cameras):
    """(anchor camera, distance, bearing, heading, class, size jitter)."""
    far = draw(st.booleans())
    distance = draw(
        st.floats(95.0, 400.0) if far else st.floats(0.0, 95.0)
    )
    return (
        draw(st.integers(0, n_cameras - 1)),
        distance,
        draw(_angle),
        draw(_angle),
        draw(st.sampled_from(list(ObjectClass))),
        draw(st.floats(0.7, 1.3)),
    )


def _objects(rig, drawn):
    objects = []
    for oid, (anchor, distance, bearing, heading, cls, jitter) in enumerate(drawn):
        pose = rig.cameras[anchor].pose
        objects.append(
            WorldObject.of_class(
                object_id=oid,
                object_class=cls,
                x=pose.x + distance * math.cos(bearing),
                y=pose.y + distance * math.sin(bearing),
                heading=heading,
                speed=5.0,
                size_jitter=jitter,
            )
        )
    return objects


def _reference(camera, objects):
    table = {}
    for obj in objects:
        box = camera.project_object(obj)
        if box is not None:
            table[obj.object_id] = box
    return table


def _assert_same_table(got, want):
    assert list(got) == list(want)
    for oid, box in want.items():
        other = got[oid]
        for a, b in zip(
            (other.x1, other.y1, other.x2, other.y2),
            (box.x1, box.y1, box.x2, box.y2),
        ):
            assert type(a) is float
            assert a.hex() == b.hex()


@pytest.mark.parametrize("name", sorted(RIGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_tables_equal_single_object_projection(name, data):
    rig = RIGS[name]
    drawn = data.draw(
        st.lists(placements(len(rig.cameras)), min_size=0, max_size=12)
    )
    objects = _objects(rig, drawn)
    multi = project_objects_multi(rig.cameras, FrameArrays(objects))
    cache = FrameProjectionCache(rig.cameras)
    per_camera = rig.project_all(objects)
    for camera, table in zip(rig.cameras, multi):
        want = _reference(camera, objects)
        _assert_same_table(table, want)
        _assert_same_table(cache.boxes(camera, objects), want)
        _assert_same_table(per_camera[camera.camera_id], want)


@pytest.mark.parametrize("name", sorted(RIGS))
def test_edge_sweep_equals_single_object_projection(name):
    """A dense sweep across each camera's frame edges and range limit.

    Random placements rarely land next to a visibility threshold; this
    grid walks boxes through the side edges (the one-third clipped-area
    rule), down to the minimum box size and across the range limit, and
    checks that it meets each of those cases on every camera.
    """
    rig = RIGS[name]
    for anchor, camera in enumerate(rig.cameras):
        yaw = camera.pose.yaw
        reach = camera.max_range
        drawn = [
            (anchor, distance, yaw + math.radians(step / 4.0),
             yaw + math.radians(step), cls, 1.0)
            for step in range(-240, 241)
            for distance in (4.0, 25.0, 0.7 * reach, reach - 0.1, reach + 0.1)
            for cls in (ObjectClass.PEDESTRIAN, ObjectClass.TRUCK)
        ]
        objects = _objects(rig, drawn)
        want = _reference(camera, objects)
        multi = project_objects_multi(rig.cameras, FrameArrays(objects))
        _assert_same_table(multi[anchor], want)
        w, h = camera.frame_size
        clipped = [
            b for b in want.values()
            if b.x1 == 0.0 or b.y1 == 0.0 or b.x2 == w or b.y2 == h
        ]
        assert 0 < len(clipped) < len(want) < len(objects)
        assert min(min(b.width, b.height) for b in want.values()) < 10.0
        # Object ids index ``drawn``: some box just inside the range shows.
        assert any(drawn[oid][1] == reach - 0.1 for oid in want)
