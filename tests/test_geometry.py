"""Geometry: back-projection, frustum overlap, immutable frames, depth agreement."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from conftest import (batched_ratios, make_intrinsics, naive_back_project, naive_frustum_overlap,
                      pair_frustum_overlap, random_pose, random_rotation, random_sampler_scene,
                      random_scene_frames)
from geovos import geometry
from geovos.geometry import (CameraFrame, CameraIntrinsics, CameraPose, PointCloud,
                             back_project, depth_agreement_score, frustum_overlap_ratio)


class TestTypes:
    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=0, height=4)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=np.nan, cy=0, width=4, height=4)
        for fx, fy in ((np.inf, 1), (1, np.inf), (np.nan, 1)):
            with pytest.raises(ValueError, match="^focal lengths must be positive and finite"):
                CameraIntrinsics(fx=fx, fy=fy, cx=0, cy=0, width=4, height=4)

    def test_pose_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            CameraPose(bad, np.zeros(3))

    def test_pose_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraPose(refl, np.zeros(3))

    @pytest.mark.parametrize("rows", [
        [[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [0.0, 0.0, 1.0]],  # Gram overflows
        [[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # NaN > tol is False
    ])
    def test_orthonormality_error_is_inf_when_not_finite(self, rows):
        with np.errstate(all="raise"):  # and it warns of nothing
            assert geometry.rotation_checks(np.array([rows]))[0][0] == np.inf

    def test_pose_rejects_overflowing_rotation(self):
        rows = [[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [0.0, 0.0, 1.0]]
        with np.errstate(all="raise"), pytest.raises(ValueError, match="not orthonormal"):
            CameraPose(np.array(rows), np.zeros(3))

    def test_point_cloud_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_frame_shape_check(self):
        intr = make_intrinsics(width=4, height=4)
        with pytest.raises(ValueError):
            CameraFrame(0, intr, CameraPose.identity(), np.zeros((5, 4), np.float32))


def _pose_outcome(make):
    """What ``make()`` gives: each pose's arrays (dtype, shape, bytes, and
    whether they are read-only), or the type and text of what it raised."""
    try:
        poses = make()
    except Exception as e:  # noqa: BLE001 - compared between the two constructors
        return type(e), str(e)
    return [(a.dtype, a.shape, a.tobytes(), a.flags.writeable)
            for p in poses for a in (p.rotation, p.translation)]


def _pose_cases(rng):
    """Random float64 (rotation, translation) pairs: valid poses, both sides
    of the 1e-6 orthonormality and determinant tolerances, reflections,
    non-finite and overflowing entries."""
    cases = []
    for _ in range(60):
        rot, tra = random_rotation(rng), rng.normal(size=3)
        kind = int(rng.integers(0, 9))
        if kind == 1:  # scaled: err ~2e, det ~1+3e, so err or det fails first
            rot = rot * (1.0 + rng.choice([3e-7, 4e-7, 6e-7, -4e-7]))
        elif kind == 2:  # one entry moved near the orthonormality tolerance
            i, j = rng.integers(0, 3, size=2)
            rot[i, j] += rng.choice([-1, 1]) * 10 ** rng.uniform(-7, -5)
        elif kind == 3:  # a reflection
            rot[:, int(rng.integers(0, 3))] *= -1
        elif kind == 4:
            rot[tuple(rng.integers(0, 3, size=2))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 5:
            tra[int(rng.integers(0, 3))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 6:  # the Gram product overflows
            rot = np.array([[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])
        elif kind == 7:  # -0.0 entries and a translation of another 3-entry shape
            rot = np.array([[1.0, -0.0, 0.0], [-0.0, -1.0, -0.0], [0.0, 0.0, -1.0]])
            tra = tra.reshape([(3, 1), (1, 3), (3,)][int(rng.integers(0, 3))])
        cases.append((rot, tra))
    return cases


# wrong shapes and types, and other inputs than float64 arrays
_ODD_POSES = [(np.eye(3)[:2], np.zeros(3)), (np.eye(3).ravel(), np.zeros(3)), (1.0, np.zeros(3)),
              (np.eye(4), np.zeros(3)), (np.eye(3)[..., None], np.zeros(3)),
              (np.eye(3), np.zeros(4)), (np.eye(3), np.zeros(2)), (np.eye(3), 0.0),
              (np.eye(3)[:2], np.zeros(4)), (np.eye(3).tolist(), [0, 0, 0]),
              (np.eye(3, dtype=np.float32), np.zeros(3, np.int64)), (np.eye(3), ["x", 0, 0]),
              (np.full((3, 3), np.nan), np.zeros(3)), (-np.eye(3), np.zeros(3))]


class TestPoseStack:
    """``CameraPose`` and ``CameraPose.stack`` run one stacked check."""

    def test_rotation_checks_equal_the_per_block_products(self):
        # stacked Gram products and determinants, bit for bit the per-block
        # ones, on contiguous blocks and on the 3x3 views of 4x4 matrices
        rng = np.random.default_rng(0)
        near = np.stack([random_rotation(rng) for _ in range(1500)])
        near += rng.normal(size=near.shape) * 10 ** rng.uniform(-12, -3, size=(1500, 1, 1))
        matrices = np.zeros((3000, 4, 4))
        matrices[:, :3, :3] = np.concatenate([near, rng.normal(size=(1500, 3, 3))])
        for blocks in (matrices[:, :3, :3], np.ascontiguousarray(matrices[:, :3, :3])):
            err, det = geometry.rotation_checks(blocks)
            want_err = [np.abs(b.T @ b - np.eye(3)).max() for b in blocks]
            want_det = [np.linalg.det(b) for b in blocks]
            assert err.tobytes() == np.array(want_err).tobytes()
            assert det.tobytes() == np.array(want_det).tobytes()

    def test_stack_of_one_rejects_what_camera_pose_rejects(self):
        cases = _pose_cases(np.random.default_rng(1)) + _ODD_POSES
        outcomes = set()
        for rot, tra in cases:
            single = _pose_outcome(lambda: [CameraPose(rot, tra)])
            stacked = _pose_outcome(lambda: CameraPose.stack([rot], [tra]))
            assert stacked == single, (rot, tra)
            outcomes.add(single[1] if type(single) is tuple else "ok")
        assert len(outcomes) >= 8, outcomes  # every kind of fault was met

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_raises_for_the_first_pose_camera_pose_rejects(self, seed):
        rng = np.random.default_rng(seed)
        cases = [(r, t.reshape(3)) for r, t in _pose_cases(rng)]
        for _ in range(200):
            pick = [cases[i] for i in rng.integers(0, len(cases), size=rng.integers(1, 12))]
            rots, tras = np.stack([r for r, _ in pick]), np.stack([t for _, t in pick])
            want = _pose_outcome(lambda: [CameraPose(r.copy(), t.copy()) for r, t in pick])
            assert _pose_outcome(lambda: CameraPose.stack(rots, tras)) == want

    def test_stack_shapes(self):
        with pytest.raises(ValueError, match=r"^pose stacks must have one length"):
            CameraPose.stack(np.zeros((2, 3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"^pose stacks must have one length"):
            CameraPose.stack(np.eye(3)[0, 0], np.zeros(3))
        assert CameraPose.stack(np.zeros((0, 3, 3)), np.zeros((0, 3))) == []

    def test_poses_copy_what_they_freeze(self):
        # the caller's arrays stay writable, and writing them (or a view of
        # them, or an (n, 3) translations stack) changes no pose
        rng = np.random.default_rng(3)
        for shape in [(3, 3), (3, 3, 1), (3, 1, 3)]:
            rots, tras = np.stack([random_rotation(rng) for _ in range(3)]), rng.normal(size=shape)
            rot, tra = random_rotation(rng), rng.normal(size=3)
            poses = ([CameraPose(rot, tra)] + [CameraPose(r, t) for r, t in zip(rots, tras)]
                     + CameraPose.stack(rots, tras))
            before = _pose_outcome(lambda: poses)
            for a in (rot, tra, rots, tras, rots[0], tras[0]):
                assert a.flags.writeable
            rot[0, 0] = tra[0] = rots[0, 0, 0] = 5.0
            tras[...] = 7.0
            assert _pose_outcome(lambda: poses) == before

    def test_stack_poses_are_read_only(self):
        rng = np.random.default_rng(2)
        poses = CameraPose.stack(np.stack([random_rotation(rng) for _ in range(3)]),
                                 rng.normal(size=(3, 3)))
        for pose in poses:
            for a in (pose.rotation, pose.translation):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
        assert dataclasses.replace(poses[1]).rotation.tobytes() == poses[1].rotation.tobytes()


class TestBackProject:
    def test_principal_point_ray(self):
        intr = make_intrinsics(fx=100.0, fy=100.0, width=9, height=9, cx=4.0, cy=4.0)
        mask = np.zeros((9, 9), bool)
        mask[4, 4] = True
        depth = np.full((9, 9), 2.0)
        pc, skipped = back_project(mask, depth, intr)
        assert skipped == 0
        np.testing.assert_allclose(pc.points, [[0.0, 0.0, 2.0]])

    def test_one_focal_length_off_axis(self):
        # pixel (cx + fx, cy) at depth 2 -> x = 2
        intr = make_intrinsics(fx=3.0, fy=3.0, width=9, height=9, cx=4.0, cy=4.0)
        mask = np.zeros((9, 9), bool)
        mask[4, 7] = True  # u = cx + fx = 7
        depth = np.full((9, 9), 2.0)
        pc, _ = back_project(mask, depth, intr)
        np.testing.assert_allclose(pc.points, [[2.0, 0.0, 2.0]])

    def test_frontoparallel_plane_grid(self):
        # closed-form plane render: 3x3 mask at z=1, xy spacing 1/fx
        fx = 10.0
        intr = make_intrinsics(fx=fx, fy=fx, width=5, height=5, cx=2.0, cy=2.0)
        mask = np.zeros((5, 5), bool)
        mask[1:4, 1:4] = True
        depth = np.ones((5, 5))
        pc, _ = back_project(mask, depth, intr)
        assert len(pc) == 9
        np.testing.assert_allclose(pc.points[:, 2], 1.0)
        xs = np.unique(pc.points[:, 0])
        np.testing.assert_allclose(np.diff(xs), 1.0 / fx)
        ys = np.unique(pc.points[:, 1])
        np.testing.assert_allclose(np.diff(ys), 1.0 / fx)

    def test_invalid_depth_skipped_and_counted(self):
        intr = make_intrinsics(width=4, height=4)
        mask = np.ones((4, 4), bool)
        depth = np.full((4, 4), 2.0)
        depth[0, 0] = 0.0
        depth[1, 1] = np.nan
        depth[2, 2] = np.inf
        pc, skipped = back_project(mask, depth, intr)
        assert skipped == 3
        assert len(pc) == 13

    def test_empty_mask_is_empty_cloud(self):
        intr = make_intrinsics(width=4, height=4)
        pc, skipped = back_project(np.zeros((4, 4), bool), np.ones((4, 4)), intr)
        assert len(pc) == 0 and skipped == 0

    def test_dimension_mismatch_raises(self):
        intr = make_intrinsics(width=4, height=4)
        with pytest.raises(ValueError):
            back_project(np.ones((5, 4), bool), np.ones((5, 4)), intr)
        with pytest.raises(ValueError):
            back_project(np.ones((4, 4), bool), np.ones((4, 5)), intr)

    def test_matches_per_pixel_loop(self):
        # bit for bit and in row-major order, on masks of every memory layout
        # and on float32 / float64 depths holding NaN, +-inf, 0 and negatives
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -1.5])
        layouts = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            h, w = (int(x) for x in rng.integers(1, 24, size=2))
            intr = make_intrinsics(fx=float(rng.uniform(5, 40)), fy=float(rng.uniform(5, 40)),
                                   width=w, height=h, cx=float(rng.uniform(-2, w + 2)),
                                   cy=float(rng.uniform(-2, h + 2)))
            depth = rng.uniform(0.1, 8.0, size=(h, w))
            bad = rng.random((h, w)) < 0.3
            depth[bad] = rng.choice(specials, size=int(bad.sum()))
            depth = depth.astype(rng.choice([np.float32, np.float64]))
            mask = rng.random((h, w)) < rng.uniform(0.0, 1.0)
            layout = seed % 4
            if layout == 1:  # Fortran order
                mask, depth = np.asfortranarray(mask), np.asfortranarray(depth)
            elif layout == 2:  # strided views into larger buffers
                mask_buf = np.zeros((2 * h, 3 * w), bool)
                mask_buf[::2, ::3] = mask
                depth_buf = np.zeros((2 * h, 3 * w), depth.dtype)
                depth_buf[::2, ::3] = depth
                mask, depth = mask_buf[::2, ::3], depth_buf[::2, ::3]
            elif layout == 3:  # transposed views
                mask, depth = np.ascontiguousarray(mask.T).T, np.ascontiguousarray(depth.T).T
            layouts.add((layout, mask.flags.c_contiguous, depth.dtype.name))
            pc, skipped = back_project(mask, depth, intr)
            want, want_skipped = naive_back_project(mask, depth, intr)
            assert skipped == want_skipped, f"seed {seed}"
            assert pc.points.dtype == np.float64 and pc.points.shape == want.shape
            assert pc.points.tobytes() == want.tobytes(), f"seed {seed}"
        assert {layout for layout, _, _ in layouts} == {0, 1, 2, 3}
        assert {dtype for _, _, dtype in layouts} == {"float32", "float64"}

    def test_project_roundtrip_identity(self):
        # back_project then the pinhole projection returns the pixel centers
        # within 1e-5 px
        rng = np.random.default_rng(7)
        intr = make_intrinsics(fx=17.3, fy=23.1, width=12, height=10)
        depth = rng.uniform(0.5, 4.0, size=(10, 12))
        mask = rng.random((10, 12)) < 0.5
        pc, _ = back_project(mask, depth, intr)
        x, y, z = pc.points.T
        uv = np.stack([intr.fx * x / z + intr.cx, intr.fy * y / z + intr.cy], axis=1)
        vs, us = np.nonzero(mask)
        np.testing.assert_allclose(uv[:, 0], us, atol=1e-5)
        np.testing.assert_allclose(uv[:, 1], vs, atol=1e-5)


class TestFrustumOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        intr = make_intrinsics()
        frame = random_scene_frames(rng, 1, intr)[0]
        r = frustum_overlap_ratio(frame, frame.masks["obj"], frame)
        assert r.defined and r.ratio == 1.0

    def test_reference_facing_away(self):
        intr = make_intrinsics()
        depth = np.full((16, 16), 2.0, np.float32)
        mask = np.ones((16, 16), bool)
        cand = CameraFrame(0, intr, CameraPose.identity(), depth, {"o": mask})
        flip = CameraPose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))  # 180 deg about x
        ref = CameraFrame(1, intr, flip, depth, {})
        r = frustum_overlap_ratio(cand, mask, ref)
        assert r.ratio == 0.0 and r.defined

    def test_half_plane_leaves_reference(self):
        # shift the reference so half the masked columns fall outside
        fx, w = 8.0, 8
        intr = make_intrinsics(fx=fx, fy=fx, width=w, height=w, cx=3.5, cy=3.5)
        depth = np.full((w, w), 1.0, np.float32)
        mask = np.ones((w, w), bool)
        cand = CameraFrame(0, intr, CameraPose.identity(), depth, {"o": mask})
        # columns back-project to x = (u - 3.5)/8; shift ref by +0.5 m so
        # u' = u + 4: columns 4..7 land outside
        ref = CameraFrame(1, intr, CameraPose(np.eye(3), np.array([-0.5, 0.0, 0.0])),
                          depth, {})
        r = frustum_overlap_ratio(cand, mask, ref)
        assert r.n_points == 64
        assert abs(r.ratio - 0.5) <= 1.0 / r.n_points
        expected, inside, n = naive_frustum_overlap(cand, mask, ref)
        assert r.ratio == expected and (r.n_inside, r.n_points) == (inside, n)

    def test_no_valid_points_flagged(self):
        intr = make_intrinsics(width=4, height=4)
        depth = np.zeros((4, 4), np.float32)
        mask = np.ones((4, 4), bool)
        frame = CameraFrame(0, intr, CameraPose.identity(), depth, {"o": mask})
        r = frustum_overlap_ratio(frame, mask, frame)
        assert r.ratio == 0.0 and not r.defined

    def test_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(42)
        intr = make_intrinsics()
        for _ in range(20):
            frames = random_scene_frames(rng, 2, intr)
            cand, ref = frames
            got = frustum_overlap_ratio(cand, cand.masks["obj"], ref)
            want, inside, n = naive_frustum_overlap(cand, cand.masks["obj"], ref)
            assert got.ratio == want
            assert (got.n_inside, got.n_points) == (inside, n)

    def test_invariant_under_shared_world_motion(self):
        rng = np.random.default_rng(5)
        intr = make_intrinsics()
        cand, ref = random_scene_frames(rng, 2, intr)
        base = frustum_overlap_ratio(cand, cand.masks["obj"], ref)
        g_rot, g_t = random_rotation(rng), rng.normal(size=3)
        moved = []
        for f in (cand, ref):
            pose = CameraPose(g_rot @ f.pose.rotation, g_rot @ f.pose.translation + g_t)
            moved.append(CameraFrame(f.frame_id, f.intrinsics, pose, f.depth, f.masks))
        after = frustum_overlap_ratio(moved[0], cand.masks["obj"], moved[1])
        assert abs(after.ratio - base.ratio) < 1e-6

    @pytest.mark.parametrize("block, solo", [(1, 1 << 40), (7, 1 << 40), (1 << 20, 1 << 40),
                                             (7, 1), (7, 3), (1 << 16, 512)])
    def test_batched_matches_per_pair(self, monkeypatch, block, solo):
        monkeypatch.setattr(geometry, "FRUSTUM_BLOCK", block)
        monkeypatch.setattr(geometry, "FRUSTUM_SOLO_POINTS", solo)
        for seed in range(20):
            scene = random_sampler_scene(np.random.default_rng(seed), n_frames=8)
            cands = [f for f in scene.frames if "obj" in f.masks]
            for ref in scene.frames:
                want = [pair_frustum_overlap(c, c.masks["obj"], ref).ratio for c in cands]
                got = batched_ratios(cands, "obj", ref)
                assert got.dtype == np.float64 and got.tolist() == want, f"seed {seed}"
        assert batched_ratios([], "obj", scene.frames[0]).tolist() == []


def masked_frame(seed=0, size=6):
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.5, 3.0, size=(size, size))
    depth[0, :] = np.nan
    mask = rng.random((size, size)) < 0.5
    mask[1, 1] = True
    intr = make_intrinsics(width=size, height=size)
    return CameraFrame(0, intr, random_pose(rng), depth, {"o": mask})


def points_of(frame, obj="o"):
    return back_project(frame.masks[obj], frame.depth, frame.intrinsics)[0].points


class TestFrame:
    def test_frozen(self):
        frame = masked_frame()
        # no memo fields: whatever is derived from the rasters is kept by its user
        assert [f.name for f in dataclasses.fields(frame)] == \
            ["frame_id", "intrinsics", "pose", "depth", "masks"]
        for name, value in [("depth", None), ("masks", {}), ("frame_id", 1),
                            ("intrinsics", make_intrinsics(width=6, height=6))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frame, name, value)
        with pytest.raises(TypeError):
            frame.masks["o"] = np.ones((6, 6), bool)
        with pytest.raises(TypeError):
            frame.masks["late"] = np.ones((6, 6), bool)
        with pytest.raises(TypeError):
            del frame.masks["o"]
        assert list(frame.masks) == ["o"]

    def test_pickles_and_copies(self):
        frame = masked_frame()
        for twin in (pickle.loads(pickle.dumps(frame)), copy.deepcopy(frame), copy.copy(frame)):
            assert twin.frame_id == frame.frame_id and twin.intrinsics == frame.intrinsics
            np.testing.assert_array_equal(twin.pose.matrix(), frame.pose.matrix())
            np.testing.assert_array_equal(twin.depth, frame.depth)
            assert list(twin.masks) == ["o"]
            np.testing.assert_array_equal(points_of(twin), points_of(frame))
            with pytest.raises(TypeError):
                twin.masks["o"] = None

    def test_rasters_read_only(self):
        depth = np.ones((4, 4))
        mask = np.ones((4, 4), bool)
        frame = CameraFrame(0, make_intrinsics(width=4, height=4), CameraPose.identity(),
                            depth, {"o": mask})
        with pytest.raises(ValueError, match="read-only"):
            frame.depth[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = False

    def test_views_are_copied(self):
        # rasters handed over as views of larger buffers: writes through the
        # buffers must not reach the frame, and the buffers stay writable
        depth_stack = np.random.default_rng(1).uniform(0.5, 3.0, size=(3, 6, 6))
        mask_buf = np.random.default_rng(2).random((3, 6, 6)) < 0.5
        frame = CameraFrame(0, make_intrinsics(width=6, height=6), CameraPose.identity(),
                            depth_stack[0], {"o": mask_buf[0]})
        want = points_of(frame)
        depth_stack *= 2.0
        mask_buf[:] = ~mask_buf
        np.testing.assert_array_equal(points_of(frame), want)
        assert depth_stack.flags.writeable and mask_buf.flags.writeable
        # the same for views handed to dataclasses.replace
        frame = dataclasses.replace(frame, depth=depth_stack[1], masks={"late": mask_buf[1]})
        want = points_of(frame, "late")
        depth_stack *= 2.0
        mask_buf[:] = ~mask_buf
        np.testing.assert_array_equal(points_of(frame, "late"), want)
        with pytest.raises(ValueError, match="read-only"):
            frame.depth[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            frame.masks["late"][0, 0] = False


class TestDepthAgreement:
    def test_self_consistency(self):
        rng = np.random.default_rng(9)
        intr = make_intrinsics()
        depth = rng.uniform(0.5, 4.0, size=(16, 16))
        mask = rng.random((16, 16)) < 0.7
        pc, _ = back_project(mask, depth, intr)
        assert depth_agreement_score(pc, depth, intr, eps_rel=0.05) == 1.0

    def test_offset_misses_tolerance(self):
        intr = make_intrinsics()
        depth = np.ones((16, 16))
        mask = np.ones((16, 16), bool)
        pc, _ = back_project(mask, depth, intr)
        shifted = PointCloud(pc.points + [0.0, 0.0, 1.0])
        assert depth_agreement_score(shifted, depth, intr, eps_rel=0.05) == 0.0

    def test_known_inlier_fraction(self):
        # push exactly k of n points out of tolerance
        rng = np.random.default_rng(13)
        intr = make_intrinsics()
        depth = rng.uniform(1.0, 2.0, size=(16, 16))
        mask = np.zeros((16, 16), bool)
        mask[4:8, 4:9] = True  # 20 points
        pc, _ = back_project(mask, depth, intr)
        pts = pc.points.copy()
        k = 7
        # depth range is [1, 2]; a 10x z keeps no point within 5% of any depth
        pts[:k, 2] = pts[:k, 2] * 10.0
        got = depth_agreement_score(PointCloud(pts), depth, intr, eps_rel=0.05)
        assert got == (20 - k) / 20
        inl = 0
        for p in pts:
            u = int(np.rint(intr.fx * p[0] / p[2] + intr.cx))
            v = int(np.rint(intr.fy * p[1] / p[2] + intr.cy))
            if 0 <= u < 16 and 0 <= v < 16:
                d = depth[v, u]
                if np.isfinite(d) and d > 0 and abs(p[2] - d) <= 0.05 * d:
                    inl += 1
        assert got == inl / 20

    def test_empty_cloud_raises(self):
        intr = make_intrinsics()
        with pytest.raises(ValueError):
            depth_agreement_score(PointCloud(np.zeros((0, 3))), np.ones((16, 16)), intr,
                                  eps_rel=0.05)
