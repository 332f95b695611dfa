"""Kernel behaviour that no geometry oracle covers."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_intrinsics, naive_back_project, naive_render_boxes, random_pose
from geovos import ingest, kernels
from geovos.geometry import DEFAULT_Z_NEAR, CameraIntrinsics, CameraPose


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


def window_scene(seed):
    """A seeded pinhole camera (non-square raster, fx != fy) and boxes of
    every kind a window must handle: in view, partly and wholly off the
    raster, sub-pixel, straddling the camera plane, behind the camera, and
    face-touching pairs. Even seeds put an axis-aligned camera at the origin
    with dyadic intrinsics and add a pair whose shared face meets a pixel
    column at their common front face: equal entry depths. Returns
    ``(pose, intr, bounds, tie_pair)``, ``tie_pair`` None on odd seeds."""
    rng = np.random.default_rng(seed)
    w, h = (int(n) for n in rng.integers(17, 48, size=2))
    if seed % 2 == 0:
        intr = CameraIntrinsics(fx=16.0, fy=8.0, cx=float(w // 2), cy=float(h // 2),
                                width=w, height=h)
        pose = CameraPose.identity()
    else:
        fx, fy = rng.uniform(10.0, 60.0, size=2)
        intr = CameraIntrinsics(fx=float(fx), fy=float(fy), cx=float(rng.uniform(0, w)),
                                cy=float(rng.uniform(0, h)), width=w, height=h)
        pose = random_pose(rng, spread=2.0)

    def box(cam_center, size):
        # world-axis-aligned, centred at a camera-frame point
        c = pose.to_world(np.asarray(cam_center, np.float64).reshape(1, 3))[0]
        return np.concatenate([c - np.asarray(size) / 2.0, c + np.asarray(size) / 2.0])

    def seen(u, v, z):
        # the camera-frame point at depth z on the ray of pixel (u, v)
        return ((u - intr.cx) / intr.fx * z, (v - intr.cy) / intr.fy * z, z)

    boxes = []
    for _ in range(6):  # in view
        z = rng.uniform(1.5, 8.0)
        boxes.append(box(seen(rng.uniform(0, w), rng.uniform(0, h), z), rng.uniform(0.05, 0.8, 3)))
    for u, v in [(0.0, rng.uniform(0, h)), (rng.uniform(0, w), h - 1.0)]:  # across the border
        boxes.append(box(seen(u, v, 4.0), rng.uniform(0.3, 0.8, 3)))
    boxes.append(box(seen(-3.0 * w, h / 2.0, 4.0), (0.5, 0.5, 0.5)))  # wholly off the raster
    for _ in range(2):  # sub-pixel
        boxes.append(box(seen(rng.uniform(0, w), rng.uniform(0, h), 5.0), (1e-3, 1e-3, 1e-3)))
    for side in (-1.0, 1.0):  # straddling the camera plane, beside the camera
        boxes.append(box((side * rng.uniform(0.6, 1.0), 0.0, rng.uniform(-0.2, 0.2)),
                         (0.5, 0.5, 1.0)))
    boxes.append(box((0.0, 0.0, -rng.uniform(1.5, 8.0)), (1.0, 1.0, 1.0)))  # behind
    for b in (0, 1):  # a neighbour sharing the +x face of an in-view box
        lo, hi = boxes[b][:3], boxes[b][3:]
        boxes.append(np.array([hi[0], lo[1], lo[2], hi[0] + rng.uniform(0.1, 0.5), hi[1], hi[2]]))
    tie_pair = None
    if seed % 2 == 0:
        # front faces at z0 in {1, 2, 4}, shared face x = x0 on the 0.25
        # lattice: column cx + 16 * x0 / z0 is a whole pixel
        z0 = float(rng.choice([1.0, 2.0, 4.0]))
        x0 = 0.25 * float(rng.integers(-2, 3))
        tie_pair = (len(boxes), len(boxes) + 1)
        boxes.append(np.array([x0, -0.5, z0, x0 + 0.5, 0.5, z0 + 0.5]))
        boxes.append(np.array([x0 - 0.5, -0.5, z0, x0, 0.5, z0 + 0.5]))
    return pose, intr, np.stack(boxes), tie_pair


class TestWindowedRender:
    """``render_boxes`` with ``generate_boxworld``'s pixel windows, on the
    scenes of ``window_scene``."""

    SEEDS = range(12)

    @staticmethod
    def render_inputs(seed):
        pose, intr, bounds, tie_pair = window_scene(seed)
        dirs = ingest._ray_dirs_world(intr, pose)
        return pose.translation, dirs, bounds, ingest._box_windows(bounds, intr, pose), tie_pair

    @pytest.mark.parametrize("seed", SEEDS)
    def test_windowed_render_matches_broadcast(self, seed):
        origin, dirs, bounds, windows, _ = self.render_inputs(seed)
        want_depth, want_owner = naive_render_boxes(origin, dirs, bounds)
        depth, owner = kernels.render_boxes(origin, dirs, bounds, windows=windows)
        assert depth.tobytes() == want_depth.tobytes()
        assert owner.dtype == np.int64
        np.testing.assert_array_equal(owner, want_owner)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_hit_lies_inside_its_window(self, seed):
        # each box rendered alone, so that pixels where it is occluded (and
        # so every pixel it owns in the full render) count too
        origin, dirs, bounds, windows, _ = self.render_inputs(seed)
        for b, (v0, v1, u0, u1) in enumerate(windows.tolist()):
            _, alone = naive_render_boxes(origin, dirs, bounds[b:b + 1])
            vs, us = np.nonzero(alone == 0)
            assert np.all((v0 <= vs) & (vs < v1) & (u0 <= us) & (us < u1)), b

    def test_scenes_hold_every_window_kind(self):
        non_square = False
        for seed in self.SEEDS:
            origin, dirs, bounds, windows, tie_pair = self.render_inputs(seed)
            h, w = dirs.shape[:2]
            areas = (windows[:, 1] - windows[:, 0]) * (windows[:, 3] - windows[:, 2])
            assert np.any(areas == h * w) and np.any(areas == 0), seed  # behind, off raster
            assert np.any((0 < areas) & (areas < h * w)), seed
            non_square |= h != w
            if tie_pair is not None:
                (da, oa), (db, ob) = (naive_render_boxes(origin, dirs, bounds[b:b + 1])
                                      for b in tie_pair)
                assert np.any((oa == 0) & (ob == 0) & (da == db)), seed  # equal entry depths
        assert non_square

    def test_box_behind_or_across_camera_plane_gets_whole_raster(self):
        intr = make_intrinsics(width=12, height=9)
        bounds = np.array([[-1.0, -1.0, -3.0, 1.0, 1.0, -2.0],  # behind
                           [2.0, -1.0, -0.5, 3.0, 1.0, 0.5],  # across z = 0
                           [-0.1, -0.1, 2.0, 0.1, 0.1, 2.2]])  # in front, centred
        windows = ingest._box_windows(bounds, intr, CameraPose.identity())
        assert windows.tolist()[:2] == [[0, 9, 0, 12]] * 2
        assert 0 < windows[2, 0] < windows[2, 1] < 9 and 0 < windows[2, 2] < windows[2, 3] < 12

    @pytest.mark.parametrize("window", [[0, 3, 0, 5], [-1, 2, 0, 2], [0, 2, 2, 1],
                                        [0, 1, 0, 2, 0]])
    def test_window_outside_the_raster_rejected(self, window):
        dirs = np.zeros((2, 2, 3))
        dirs[..., 2] = 1.0
        with pytest.raises(ValueError, match="windows"):
            kernels.render_boxes(np.zeros(3), dirs, np.array([[0.0, 0.0, 1.0, 1.0, 1.0, 2.0]]),
                                 windows=[window])


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


class TestBackprojectMasks:
    """The batched back-projection against the per-pixel loop, item by item."""

    SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -1.5])

    def random_items(self, rng, intr):
        """0-5 items of one width and random heights; their depths mix the
        special values, float32 and float64; some masks are empty, some
        cover no valid depth."""
        items = []
        for _ in range(int(rng.integers(0, 6))):
            h = int(rng.integers(1, 12))
            depth = rng.uniform(0.1, 8.0, size=(h, intr.width))
            bad = rng.random(depth.shape) < rng.uniform(0.0, 0.5)
            depth[bad] = rng.choice(self.SPECIALS, size=int(bad.sum()))
            mask = rng.random(depth.shape) < rng.uniform(0.0, 1.0)
            if rng.random() < 0.2:
                depth[mask] = np.nan
            if rng.random() < 0.3:  # a strided view
                mask = np.repeat(mask, 2, axis=1)[:, ::2]
            items.append((mask, depth.astype(rng.choice([np.float32, np.float64]))))
        return items

    def test_matches_per_pixel_loop(self):
        seen = dict(empty_mask=0, no_valid_depth=0, overflow=0, items=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the kernel warns of nothing
            for seed in range(60):
                rng = np.random.default_rng(seed)
                w = int(rng.integers(1, 14))
                # every fifth seed puts the principal point where points overflow
                cx = -1e308 if seed % 5 == 4 else float(rng.uniform(-2, w + 2))
                intr = make_intrinsics(fx=float(rng.uniform(0.5, 40)),
                                       fy=float(rng.uniform(5, 40)), width=w, height=1, cx=cx,
                                       cy=float(rng.uniform(-2, 14)))
                items = self.random_items(rng, intr)
                camera = (intr.fx, intr.fy, intr.cx, intr.cy)
                pts, counts, skipped = kernels.backproject_masks(
                    [m for m, _ in items], [d for _, d in items], *camera)
                want = [naive_back_project(m, d, make_intrinsics(
                    fx=intr.fx, fy=intr.fy, width=w, height=m.shape[0], cx=intr.cx, cy=intr.cy))
                    for m, d in items]
                assert pts.dtype == np.float64 and pts.shape == (sum(len(p) for p, _ in want), 3)
                assert pts.tobytes() == b"".join(p.tobytes() for p, _ in want), f"seed {seed}"
                assert counts.dtype == skipped.dtype == np.int64
                assert counts.tolist() == [len(p) for p, _ in want], f"seed {seed}"
                assert skipped.tolist() == [k for _, k in want], f"seed {seed}"
                for (m, d), (p, k) in zip(items, want):  # the one-item case
                    one, one_skipped = kernels.backproject_mask(m, d, *camera)
                    assert one.tobytes() == p.tobytes() and one_skipped == k
                    seen["empty_mask"] += not m.any()
                    seen["no_valid_depth"] += m.any() and not len(p)
                seen["overflow"] += not np.isfinite(pts).all()
                seen["items"] += len(items) > 1
        assert all(seen.values()), seen

    def test_no_items(self):
        pts, counts, skipped = kernels.backproject_masks([], [], 1.0, 1.0, 0.0, 0.0)
        assert pts.shape == (0, 3) and counts.shape == skipped.shape == (0,)

    def test_masks_of_other_widths_raise(self):
        with pytest.raises(ValueError, match="^masks differ in width: 5 vs 4$"):
            kernels.backproject_masks([np.ones((3, 4), bool), np.ones((3, 5), bool)],
                                      [np.ones((3, 4)), np.ones((3, 5))], 1.0, 1.0, 0.0, 0.0)


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

    def test_overflowing_transform_warns_of_nothing(self):
        # finite points whose rotated coordinates pass the float64 range
        intr = make_intrinsics(width=8, height=8)
        c = np.sqrt(0.5)
        rot = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        pts = np.array([[1.7e308, 1.7e308, 1.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels.frustum_mask(pts, rot, np.zeros(3), intr.fx, intr.fy, intr.cx,
                                       intr.cy, intr.width, intr.height, DEFAULT_Z_NEAR)
        assert got.tolist() == [False, True]


def per_point_count(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """How many points land in the frustum, tested one point at a time."""
    r, t = rot.tolist(), trans.tolist()
    count = 0
    for px, py, pz in pts.tolist():
        x = r[0][0] * px + r[0][1] * py + r[0][2] * pz + t[0]
        y = r[1][0] * px + r[1][1] * py + r[1][2] * pz + t[1]
        z = r[2][0] * px + r[2][1] * py + r[2][2] * pz + t[2]
        if z > z_near:
            u = fx * x / z + cx
            v = fy * y / z + cy
            count += 0.0 <= u < width and 0.0 <= v < height
    return count


class TestCountInFrustum:
    """``count_in_frustum`` against the per-point count."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_points_with_non_finite_rows(self, seed):
        rng = np.random.default_rng(seed)
        intr = make_intrinsics(fx=float(rng.uniform(5, 30)), fy=float(rng.uniform(5, 30)),
                               width=int(rng.integers(4, 40)), height=int(rng.integers(4, 40)))
        pose = random_pose(rng)
        camera = (intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height, DEFAULT_Z_NEAR)
        # points whose images spread over twice the raster, a few behind the camera
        z = rng.uniform(-0.5, 5.0, size=500)
        u = rng.uniform(-0.5, 1.5, size=500) * intr.width
        v = rng.uniform(-0.5, 1.5, size=500) * intr.height
        cam = np.stack([(u - intr.cx) * z / intr.fx, (v - intr.cy) * z / intr.fy, z], axis=1)
        pts = (cam - pose.translation) @ pose.rotation  # rotation @ p + translation = cam
        bad = rng.random(pts.shape) < 0.02
        pts[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
        finite = np.isfinite(pts).all(axis=1)
        assert 0 < finite.sum() < len(pts)
        with np.errstate(invalid="ignore"):  # 0 * inf in the transform
            got = kernels.count_in_frustum(pts, pose.rotation, pose.translation, *camera)
            assert kernels.count_in_frustum(pts[~finite], pose.rotation, pose.translation,
                                            *camera) == 0
        assert type(got) is int and 0 < got < finite.sum()
        assert got == per_point_count(pts, pose.rotation, pose.translation, *camera)

    def test_boundaries(self):
        # identity transform, cx = cy = 0: u = 8 x / z and v = 6 y / z exactly
        camera = (8.0, 6.0, 0.0, 0.0, 8, 6, DEFAULT_Z_NEAR)
        inside = [[0.0, 0.0, 2 * DEFAULT_Z_NEAR],  # u = v = 0
                  [0.0, 0.5, 1.0],  # u = 0
                  [0.5, 0.0, 1.0]]  # v = 0
        outside = [[0.0, 0.0, DEFAULT_Z_NEAR],  # z == z_near
                   [1.0, 0.5, 1.0],  # u == width
                   [0.5, 1.0, 1.0],  # v == height
                   [np.nan, 0.0, 1.0], [0.0, 0.0, np.nan], [0.0, 0.0, np.inf], [np.inf, 0.0, 1.0]]
        rot, trans = np.eye(3), np.zeros(3)
        with np.errstate(invalid="ignore"):
            assert kernels.count_in_frustum(np.array(inside), rot, trans, *camera) == 3
            assert kernels.count_in_frustum(np.array(outside), rot, trans, *camera) == 0
            for p in inside + outside:
                assert kernels.count_in_frustum(np.array([p]), rot, trans, *camera) == \
                    per_point_count(np.array([p]), rot, trans, *camera)
