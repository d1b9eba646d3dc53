"""Planar projective transforms.

Provides the homography machinery used both by the camera projection model
(world ground plane -> image plane) and by the *Homography* baseline of the
paper's Figure 11, estimated from point correspondences with the normalized
Direct Linear Transform (DLT).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

Point = Tuple[float, float]


class Homography:
    """A 3x3 planar projective transform acting on 2D points."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise ValueError(f"homography must be 3x3, got {matrix.shape}")
        if abs(matrix[2, 2]) < 1e-15:
            raise ValueError("homography matrix has a vanishing scale element")
        self.matrix = matrix / matrix[2, 2]

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """Map an ``(n, 2)`` array of points; rows mapping to infinity raise."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("expected an (n, 2) array of points")
        hom = np.hstack([pts, np.ones((len(pts), 1))])
        mapped = hom @ self.matrix.T
        w = mapped[:, 2]
        if np.any(np.abs(w) < 1e-12):
            raise ValueError("some points map to infinity")
        return mapped[:, :2] / w[:, None]

    @classmethod
    def fit(cls, src: Sequence[Point], dst: Sequence[Point]) -> "Homography":
        """Estimate a homography from >= 4 correspondences via normalized DLT.

        This is the estimation procedure behind the paper's *Homography*
        regression baseline (their reference [20]).
        """
        src_arr = np.asarray(src, dtype=float)
        dst_arr = np.asarray(dst, dtype=float)
        if src_arr.shape != dst_arr.shape or src_arr.ndim != 2 or src_arr.shape[1] != 2:
            raise ValueError("src and dst must be matching (n, 2) arrays")
        n = len(src_arr)
        if n < 4:
            raise ValueError(f"homography needs >= 4 correspondences, got {n}")

        t_src, src_n = _normalize(src_arr)
        t_dst, dst_n = _normalize(dst_arr)

        rows = []
        for (x, y), (u, v) in zip(src_n, dst_n):
            rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
            rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
        a = np.asarray(rows)
        _, _, vt = np.linalg.svd(a)
        h_norm = vt[-1].reshape(3, 3)
        matrix = np.linalg.inv(t_dst) @ h_norm @ t_src
        if abs(matrix[2, 2]) < 1e-15:
            raise ValueError("degenerate correspondences: cannot fit homography")
        return cls(matrix)


def _normalize(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hartley normalization: zero mean, mean distance sqrt(2)."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = np.mean(np.linalg.norm(shifted, axis=1))
    scale = np.sqrt(2.0) / mean_dist if mean_dist > 1e-12 else 1.0
    t = np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )
    return t, shifted * scale
