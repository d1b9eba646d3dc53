"""The numpy stream identities the detector and flow loops rely on.

The flow draws all of a camera frame's noise in one
``standard_normal(2n)`` call, and the detector draws an object's jitter
with ``standard_normal(4)`` and its confidence with one
``standard_normal()``, in place of one ``normal(loc, scale)`` call per
value. That is exact only because numpy computes ``normal`` as
``loc + scale * z`` from the same standard-normal stream, with no fused
multiply-add and no extra draw. A numpy build that rounds ``loc + scale
* z`` differently would change every golden; these tests name the cause.
Every value is compared by ``float.hex``, and the stream position after.
"""

import numpy as np

#: Flow sigmas (1.5 px grown by 1.6 per unobserved frame), jitter scales
#: of boxes from 2 to 600 px, the size-jitter fraction, and zero.
SCALES = [1.5 * 1.6**k for k in range(7)] + [
    0.03 * w for w in (2.0, 17.3, 64.0, 255.9, 600.0)
] + [0.05, 0.0]


def _hex(values):
    return [float(v).hex() for v in values]


def test_batched_standard_normals_equal_scalar_normals():
    for seed in range(300):
        picks = np.random.default_rng(10_000 + seed)
        scales = [SCALES[i] for i in picks.integers(len(SCALES), size=40)]
        scalar = np.random.default_rng(seed)
        expected = [scalar.normal(0.0, s) for s in scales]
        batched = np.random.default_rng(seed)
        z = batched.standard_normal(len(scales)).tolist()
        got = [0.0 + s * zi for s, zi in zip(scales, z)]
        assert _hex(got) == _hex(expected), seed
        assert batched.bit_generator.state == scalar.bit_generator.state


def test_confidence_normal_equals_its_standard_normal():
    for seed in range(50):
        scalar = np.random.default_rng(seed)
        expected = [scalar.normal(0.85, 0.08) for _ in range(4000)]
        split = np.random.default_rng(seed)
        got = [0.85 + 0.08 * split.standard_normal() for _ in range(4000)]
        assert _hex(got) == _hex(expected), seed
        assert split.bit_generator.state == scalar.bit_generator.state


def test_zero_scale_still_uses_its_draw():
    for seed in range(20):
        scalar = np.random.default_rng(seed)
        values = [scalar.normal(0.0, 0.0) for _ in range(5)]
        after = scalar.standard_normal()
        batched = np.random.default_rng(seed)
        z = batched.standard_normal(5).tolist()
        assert _hex(values) == _hex([0.0 + 0.0 * zi for zi in z]), seed
        assert after.hex() == batched.standard_normal().hex(), seed


def test_detector_draw_sequence():
    """An object's miss, jitter and confidence draws, batched as the
    detector batches them, against one ``normal`` call per value."""
    for seed in range(50):
        sizes = np.random.default_rng(20_000 + seed).uniform(2.0, 600.0, (60, 2))
        scalar = np.random.default_rng(seed)
        split = np.random.default_rng(seed)
        for w, h in sizes.tolist():
            miss = scalar.random()
            assert split.random().hex() == miss.hex()
            if miss < 0.1:
                continue  # missed: one draw
            expected = [
                scalar.normal(0.0, 0.03 * w),
                scalar.normal(0.0, 0.03 * h),
                scalar.normal(0.0, 0.05),
                scalar.normal(0.0, 0.05),
            ]
            z0, z1, z2, z3 = split.standard_normal(4).tolist()
            got = [
                0.0 + (0.03 * w) * z0,
                0.0 + (0.03 * h) * z1,
                0.0 + 0.05 * z2,
                0.0 + 0.05 * z3,
            ]
            assert _hex(got) == _hex(expected), seed
            if miss < 0.2:
                continue  # as if the jittered box clipped to nothing
            confidence = scalar.normal(0.85, 0.08)
            assert (0.85 + 0.08 * split.standard_normal()).hex() == (
                confidence.hex()
            )
        assert split.bit_generator.state == scalar.bit_generator.state
