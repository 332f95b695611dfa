"""Kernel behaviour that no geometry oracle covers."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_intrinsics, naive_render_boxes
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


def assert_renders_like_broadcast(origin, dirs, boxes, z_near=1e-9):
    want_depth, want_owner = naive_render_boxes(origin, dirs, boxes, z_near)
    depth, owner = kernels.render_boxes(origin, dirs, boxes, z_near)
    assert depth.tobytes() == want_depth.tobytes()
    assert owner.dtype == want_owner.dtype == np.int64
    np.testing.assert_array_equal(owner, want_owner)
    return depth, owner


class TestRenderMatchesBroadcast:
    """``render_boxes`` (one box at a time) against the all-boxes broadcast
    in conftest, byte for byte."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lattice_scenes(self, seed):
        # coordinates on a 0.5 lattice: face-touching boxes, origins on slab
        # planes, entry depths equal to z_near, and integer directions with
        # exact zero components all occur, as do boxes behind the camera
        rng = np.random.default_rng(seed)
        lo = rng.integers(-4, 4, size=(12, 3)) * 0.5
        boxes = np.concatenate([lo, lo + rng.integers(1, 3, size=(12, 3)) * 0.5], axis=1)
        origin = rng.integers(-6, 6, size=3) * 0.5
        dirs = rng.integers(-2, 3, size=(24, 24, 3)).astype(np.float64)
        dirs[::3] = rng.normal(size=(8, 24, 3))
        for z_near in (1e-9, 0.5, 1.0, 0.0, -0.5):
            assert_renders_like_broadcast(origin, dirs, boxes, z_near)

    def test_axis_parallel_rays(self):
        origin = np.array([0.5, 0.5, -2.0])
        dirs = np.zeros((3, 3, 3))
        dirs[..., 2] = 1.0
        dirs[1, 1] = 0.0  # a zero direction meets no box
        dirs[2, 2] = [1.0, 0.0, 0.0]
        boxes = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [2.0, 0.0, -3.0, 3.0, 1.0, -1.0]])
        depth, owner = assert_renders_like_broadcast(origin, dirs, boxes)
        assert owner[1, 1] == -1 and depth[1, 1] == 0.0
        assert owner[2, 2] == 1 and depth[2, 2] == 1.5

    def test_origin_on_slab_plane(self):
        # the origin lies on the box's x = 0 and y = 0 planes: 0 / d entries
        origin = np.array([0.0, 0.0, -1.0])
        dirs = np.stack(np.meshgrid([-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5], [1.0],
                                    indexing="ij"), axis=-1).reshape(3, 3, 3)
        boxes = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        depth, owner = assert_renders_like_broadcast(origin, dirs, boxes)
        assert owner.tolist() == [[-1, -1, -1], [-1, 0, 0], [-1, 0, 0]]
        assert_renders_like_broadcast(origin, dirs, boxes, z_near=-1.0)
        # on the edge x = 0, y = 1: the slab entries are +0.0 and -0.0, and a
        # negative z_near keeps the entry, so its sign bit is compared too
        dirs = np.array([[[1.0, -1.0, 0.0], [1.0, -1.0, 0.5], [-1.0, 1.0, 0.0]]])
        depth, owner = assert_renders_like_broadcast(np.array([0.0, 1.0, 0.5]), dirs, boxes,
                                                     z_near=-1.0)
        assert owner.tolist() == [[0, 0, -1]] and depth[0, 0] == 0.0

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_face_touching_tie_goes_to_lower_index(self, order):
        # the boxes touch at x = 1; the ray enters both there at t = 2
        pair = np.array([[0.0, 0.0, 2.0, 1.0, 1.0, 3.0], [1.0, 0.0, 2.0, 2.0, 1.0, 3.0]])
        boxes = pair[list(order)]
        dirs = np.array([[[0.0, 0.0, 1.0]]])
        depth, owner = assert_renders_like_broadcast(np.array([1.0, 0.5, 0.0]), dirs, boxes)
        assert owner[0, 0] == 0 and depth[0, 0] == 2.0

    def test_boxes_behind_camera(self):
        origin = np.zeros(3)
        dirs = np.array([[[0.0, 0.0, 1.0], [0.1, 0.0, 1.0]]])
        boxes = np.array([[-1.0, -1.0, -3.0, 1.0, 1.0, -2.0], [-1.0, -1.0, 4.0, 1.0, 1.0, 5.0]])
        depth, owner = assert_renders_like_broadcast(origin, dirs, boxes)
        assert owner.tolist() == [[1, 1]] and depth.tolist() == [[4.0, 4.0]]

    def test_hit_at_z_near_is_not_a_hit(self):
        origin = np.zeros(3)
        dirs = np.array([[[0.0, 0.0, 1.0]]])
        boxes = np.array([[-1.0, -1.0, 2.0, 1.0, 1.0, 3.0], [-1.0, -1.0, 4.0, 1.0, 1.0, 5.0]])
        depth, owner = assert_renders_like_broadcast(origin, dirs, boxes, z_near=2.0)
        assert owner[0, 0] == 1 and depth[0, 0] == 4.0
        depth, owner = assert_renders_like_broadcast(origin, dirs, boxes,
                                                     z_near=np.nextafter(2.0, 0.0))
        assert owner[0, 0] == 0 and depth[0, 0] == 2.0


def test_render_memory_is_a_few_frame_buffers():
    # one 512 x 512 frame of 16 boxes; the all-boxes broadcast peaked at
    # ~495 MB here, five (H*W, B, 3) float64 temporaries at once
    size, f = 512, 512.0
    us = (np.arange(size) - (size - 1) / 2.0) / f
    dirs = np.empty((size, size, 3))
    dirs[..., 0], dirs[..., 1], dirs[..., 2] = us[np.newaxis, :], us[:, np.newaxis], 1.0
    centers = [((c - 1.5) * 1.2, (r - 1.5) * 1.2, 6.0) for r in range(4) for c in range(4)]
    boxes = np.array([[x - 0.25, y - 0.25, z - 0.25, x + 0.25, y + 0.25, z + 0.25]
                      for x, y, z in centers])
    origin = np.zeros(3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        depth, owner = kernels.render_boxes(origin, dirs, boxes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert set(np.unique(owner).tolist()) == set(range(-1, 16))
    assert peak < 64 * 2**20, f"render_boxes peaked at {peak / 2**20:.1f} MB"


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
