"""Kernel behaviour that no geometry oracle covers."""

import numpy as np
import pytest

from conftest import make_intrinsics
from geovos import kernels
from geovos.geometry import DEFAULT_Z_NEAR


def test_render_axis_parallel_rays():
    # rays with exact zero components exercise the parallel-slab branch
    origin = np.array([0.5, 0.5, -2.0])
    dirs = np.zeros((2, 2, 3))
    dirs[..., 2] = 1.0
    boxes = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
    depth, owner = kernels.render_boxes(origin, dirs, boxes, 1e-9)
    assert np.all(depth == 2.0) and np.all(owner == 0)


def test_erode_radius_validation():
    with pytest.raises(ValueError):
        kernels.erode_mask(np.ones((3, 3), bool), -1)


class TestFrustumMask:
    """Frustum membership boundaries under the identity transform."""

    @staticmethod
    def inside(pts, intr):
        pts = np.asarray(pts, np.float64).reshape(-1, 3)
        return kernels.frustum_mask(pts, np.eye(3), np.zeros(3), intr.fx, intr.fy, intr.cx,
                                    intr.cy, intr.width, intr.height, DEFAULT_Z_NEAR)

    def test_center_point(self):
        intr = make_intrinsics(width=8, height=8, cx=4.0, cy=4.0)
        assert self.inside([0.0, 0.0, 1.0], intr).tolist() == [True]

    def test_behind_camera(self):
        intr = make_intrinsics(width=8, height=8)
        assert self.inside([0.0, 0.0, -1.0], intr).tolist() == [False]

    def test_half_open_right_edge(self):
        # a point projecting to u == width exactly is out
        intr = make_intrinsics(fx=8.0, fy=8.0, width=8, height=8, cx=0.0, cy=0.0)
        assert self.inside([1.0, 0.0, 1.0], intr).tolist() == [False]  # u = 8.0 == width
        assert self.inside([7.9 / 8.0, 0.0, 1.0], intr).tolist() == [True]

    def test_nonfinite_is_false(self):
        intr = make_intrinsics(width=8, height=8)
        pts = [[np.nan, 0.0, 1.0], [0.0, 0.0, np.inf], [np.inf, 0.0, 1.0], [0.0, 0.0, np.nan]]
        with np.errstate(invalid="ignore"):  # 0 * inf in the transform
            assert self.inside(pts, intr).tolist() == [False] * 4

    def test_vectorized(self):
        intr = make_intrinsics(width=8, height=8, cx=4.0, cy=4.0)
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(self.inside(pts, intr), [True, False])
