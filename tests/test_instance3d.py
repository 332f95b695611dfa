"""Erosion, lifting, fragment merging, superpoint voting, AP."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (forward_track, make_intrinsics, naive_assign_superpoints, naive_eval_ap,
                      naive_merge_instances, naive_temporal_overlap2d, overlap3d, voxel_set)
from geovos.cli import _look_at_pose, boxworld_preset
from geovos.geometry import CameraIntrinsics, CameraPose, PointCloud
from geovos.ingest import Box, generate_boxworld
from geovos.instance3d import (_TABLE_CELLS_PER_VALUE, Fragment, Instance, InstanceSet,
                               MergeConfig, SuperpointPartition, _cells, _distinct,
                               _overlap_series, _rank_keys, _suffix_means, assign_superpoints,
                               erode, eval_ap, lift_all, lift_fragment, merge_instances,
                               run_pipeline, temporal_overlap2d, voxel_index, voxel_keys)
from geovos.metrics import MaskTrack


def frag(points, source=(0, "a"), track=None):
    return Fragment(PointCloud(np.asarray(points, float)), source, track)


def centers(voxels, voxel_size=1.0):
    return [((np.asarray(v) + 0.5) * voxel_size).tolist() for v in voxels]


def hex_pairs(pairs):
    return [x.hex() for pair in pairs for x in pair]


def suffix_means(fa, fb):
    """The merge's temporal scores of two tracked fragments: their tracks'
    _overlap_series averaged from the later keyframe on."""
    series = _overlap_series(fa.track, fb.track)
    return _suffix_means(series, max(fa.source[0], fb.source[0]))


class TestErode:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(0)
        m = rng.random((10, 10)) < 0.5
        np.testing.assert_array_equal(erode(m, 0), m)

    def test_full_frame_loses_border_ring(self):
        m = np.ones((6, 8), bool)
        out = erode(m, 1)
        expected = np.zeros((6, 8), bool)
        expected[1:-1, 1:-1] = True
        np.testing.assert_array_equal(out, expected)

    def test_plus_shape_leaves_center(self):
        m = np.zeros((5, 5), bool)
        m[2, :] = True
        m[:, 2] = True
        out = erode(m, 1)
        expected = np.zeros((5, 5), bool)
        expected[2, 2] = True
        np.testing.assert_array_equal(out, expected)

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = np.zeros((24, 24), bool)
            m[4:20, 4:20] = rng.random((16, 16)) < 0.8
            a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            np.testing.assert_array_equal(erode(erode(m, a), b), erode(m, a + b))


class TestLiftFragment:
    def test_frontoparallel_square_lands_at_predicted_world(self):
        fx, w = 10.0, 9
        intr = make_intrinsics(fx=fx, fy=fx, width=w, height=w, cx=4.0, cy=4.0)
        depth = np.full((w, w), 2.0)
        mask = np.zeros((w, w), bool)
        mask[2:7, 2:7] = True  # erodes to 3..5
        rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        pose = CameraPose(rot, np.array([1.0, 2.0, 3.0]))
        cfg = MergeConfig(erosion_radius=1)
        res = lift_fragment(mask, depth, pose, intr, cfg, source=(0, "sq"))
        assert res.ok and res.fragment.n_points == 9
        us, vs = np.meshgrid(np.arange(3, 6), np.arange(3, 6))
        cam = np.stack([(us.ravel() - 4.0) * 2.0 / fx,
                        (vs.ravel() - 4.0) * 2.0 / fx,
                        np.full(9, 2.0)], axis=1)
        expected = cam @ rot.T + pose.translation
        got = res.fragment.points.points
        assert got.shape == (9, 3)
        np.testing.assert_allclose(sorted(map(tuple, got)), sorted(map(tuple, expected)),
                                   atol=1e-12)

    def test_all_invalid_depth_rejected(self):
        intr = make_intrinsics(width=8, height=8)
        res = lift_fragment(np.ones((8, 8), bool), np.zeros((8, 8)),
                            CameraPose.identity(), intr, MergeConfig())
        assert not res.ok and "depth" in res.reason

    def test_over_erosion_rejected(self):
        intr = make_intrinsics(width=8, height=8)
        mask = np.zeros((8, 8), bool)
        mask[4, 4] = True
        res = lift_fragment(mask, np.ones((8, 8)), CameraPose.identity(), intr,
                            MergeConfig(erosion_radius=2))
        assert not res.ok and "erosion" in res.reason


    @pytest.mark.parametrize("where", ["camera", "world"])
    def test_non_finite_points_name_the_source(self, where):
        # at depth 4 the camera-frame x passes the float64 range; at depth
        # 0.9 x and y stay finite and the 45 degree turn about z overflows
        intr = make_intrinsics(fx=1.0, fy=1.0, width=4, height=4, cx=-1.7e308, cy=-1.7e308)
        c = math.sqrt(0.5)
        pose = CameraPose(np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))
        depth = np.full((4, 4), 4.0 if where == "camera" else 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^frame 7: object 'sq': point cloud contains "
                                                 "non-finite coordinates$"):
                lift_fragment(np.ones((4, 4), bool), depth, pose, intr,
                              MergeConfig(erosion_radius=0), source=(7, "sq"))


class TestOverlap3d:
    def test_identical(self):
        f = frag(centers([(0, 0, 0), (1, 0, 0), (2, 2, 2)]))
        assert overlap3d(f, f, 1.0) == 1.0

    def test_disjoint(self):
        a = frag(centers([(0, 0, 0), (1, 0, 0)]))
        b = frag(centers([(5, 5, 5), (6, 5, 5)]))
        assert overlap3d(a, b, 1.0) == 0.0

    def test_constructed_half_overlap(self):
        a_vox = [(i, 0, 0) for i in range(8)]
        b_vox = a_vox[:4] + [(i, 9, 9) for i in range(6)]
        a, b = frag(centers(a_vox)), frag(centers(b_vox))
        va, vb = voxel_set(a.points.points, 1.0), voxel_set(b.points.points, 1.0)
        assert overlap3d(a, b, 1.0) == len(va & vb) / min(len(va), len(vb)) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = frag(rng.normal(size=(40, 3)))
            b = frag(rng.normal(size=(30, 3)))
            assert overlap3d(a, b, 0.5) == overlap3d(b, a, 0.5)

    def test_lattice_snapped_shift_invariance(self):
        rng = np.random.default_rng(3)
        voxel = 0.5
        pts_a = (rng.integers(0, 6, size=(30, 3)) + 0.5) * voxel
        pts_b = (rng.integers(0, 6, size=(30, 3)) + 0.5) * voxel
        base = overlap3d(frag(pts_a), frag(pts_b), voxel)
        shift = rng.integers(-4, 5, size=3) * voxel
        moved = overlap3d(frag(pts_a + shift), frag(pts_b + shift), voxel)
        assert base == moved

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            overlap3d(frag(np.zeros((0, 3))), frag(centers([(0, 0, 0)])), 1.0)


class TestTemporalOverlap:
    def test_identical_tracks(self):
        m = np.zeros((4, 4), bool)
        m[1:3, 1:3] = True
        t = MaskTrack([m, None, m])
        assert temporal_overlap2d(t, t) == (1.0, 1.0)

    def test_never_covisible(self):
        m = np.ones((4, 4), bool)
        a = MaskTrack([m, None])
        b = MaskTrack([None, m])
        assert temporal_overlap2d(a, b) == (0.0, 0.0)

    def test_containment_scores_full_precision(self):
        big = np.zeros((4, 4), bool)
        big[0:2, 0:4] = True  # 8 px
        small = np.zeros((4, 4), bool)
        small[0, 0:4] = True  # 4 px inside big
        iou, prec = temporal_overlap2d(MaskTrack([small]), MaskTrack([big]))
        assert (iou, prec) == (0.5, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            temporal_overlap2d(MaskTrack([None]), MaskTrack([None, None]))


class TestMergeInstances:
    def test_single_fragment(self):
        out = merge_instances([frag(centers([(0, 0, 0)]))], MergeConfig())
        assert len(out) == 1
        assert out.instances[0].confidence == 1.0

    def test_colocated_fragments_merge(self):
        box = Box((0.0, 0.0, 0.25), (0.5, 0.5, 0.5))
        _, cams = boxworld_preset("one-box", 32)
        world = generate_boxworld([box], cams[:2], resolution=(32, 32))
        res = run_pipeline(world.scene, world.gt_tracks, MergeConfig())
        assert len(res.fragments) == 2
        assert len(res.instances) == 1

    def test_separated_cubes_stay_apart(self):
        boxes, cams = boxworld_preset("two-cubes", 32)
        world = generate_boxworld(boxes, cams, resolution=(32, 32))
        res = run_pipeline(world.scene, world.gt_tracks, MergeConfig(theta_3d=0.25))
        assert len(res.instances) == 2

    def test_order_independence_up_to_relabeling(self):
        rng = np.random.default_rng(4)
        frags = []
        for i in range(6):
            base = rng.normal(size=3) * 4
            frags.append(frag(base + rng.normal(scale=0.2, size=(30, 3)), (i, "o")))
        cfg = MergeConfig(voxel_size=0.5, theta_3d=0.2)

        def components(fragments):
            out = merge_instances(fragments, cfg)
            return {frozenset(i.sources) for i in out.instances}

        base = components(frags)
        for _ in range(5):
            perm = rng.permutation(6)
            assert components([frags[i] for i in perm]) == base

    def test_voxel_key_past_int64_raises(self):
        # keys of 9 / 1e-20 do not fit int64; a silent cast would merge the two
        frags = [frag([[0.0, 0.0, 0.0]], (0, "a")), frag([[9.0, 0.0, 0.0]], (0, "b"))]
        assert len(merge_instances(frags, MergeConfig())) == 2
        for size in (1e-20, 1e-320):  # the second overflows the division itself
            # the error names the first fragment whose keys leave int64
            with pytest.raises(ValueError,
                               match=f"^frame 0: object 'b': voxel_size {size} puts a voxel key"):
                merge_instances(frags, MergeConfig(voxel_size=size))

    def test_co_visible_masks_of_other_shapes_raise(self):
        # far apart in 3D, so only the temporal criterion compares the tracks
        a = MaskTrack([np.ones((4, 4), bool), None])
        b = MaskTrack([np.ones((5, 5), bool), None])
        with pytest.raises(ValueError, match=r"^mask shapes differ: \(4, 4\) vs \(5, 5\)$"):
            merge_instances(two_fragments(a, b), MergeConfig())
        # masks that are never co-visible are never compared
        b = MaskTrack([None, np.ones((5, 5), bool)])
        assert len(merge_instances(two_fragments(a, b), MergeConfig())) == 2

    def test_requires_fragments(self):
        with pytest.raises(ValueError):
            merge_instances([], MergeConfig())
        with pytest.raises(ValueError, match="nonempty"):
            merge_instances([frag(centers([(0, 0, 0)])), frag(np.zeros((0, 3)))], MergeConfig())


def dilate(mask, radius):
    """4-connected dilation, the dual of erode; None stays None."""
    if mask is None:
        return None
    out = mask.astype(bool)
    for _ in range(radius):
        p = np.pad(out, 1)
        out = p[1:-1, 1:-1] | p[:-2, 1:-1] | p[2:, 1:-1] | p[1:-1, :-2] | p[1:-1, 2:]
    return out


def ring_boxworld(n_cams, res):
    """``n_cams`` cameras on a ring around 8 cubes, at ``res`` px."""
    intr = CameraIntrinsics(fx=float(res), fy=float(res), cx=(res - 1) / 2.0,
                            cy=(res - 1) / 2.0, width=res, height=res)
    boxes = [Box(((b % 4 - 1.5) * 1.2, (b // 4 - 0.5) * 1.2, 0.25), (0.5, 0.5, 0.5))
             for b in range(8)]
    cams = []
    for i in range(n_cams):
        a = 0.3 + 2.0 * math.pi * i / n_cams
        cams.append((_look_at_pose((6.0 * math.cos(a), 6.0 * math.sin(a), 2.5),
                                   (0.0, 0.0, 0.25)), intr))
    return generate_boxworld(boxes, cams, resolution=(res, res))


@pytest.fixture(scope="module")
def ring_world():
    """8 cameras on a ring around 8 cubes at 48 px; dilated masks merge cubes."""
    world = ring_boxworld(8, 48)
    fragments = {}
    for r in range(4):
        # one dilated array per (object, frame), shared by all its fragments
        tracks = {k: MaskTrack([dilate(m, r) for m in t.masks])
                  for k, t in world.gt_tracks.items()}
        fragments[r] = run_pipeline(world.scene, tracks, MergeConfig()).fragments
    return world.scene, fragments


ORACLE_CONFIGS = {
    "default": MergeConfig(),
    "temporal-only": MergeConfig(theta_3d=1.0),
    "lowered-temporal": MergeConfig(theta_3d=1.0, theta_iou=0.2, theta_prec=0.35),
    "lowered-all": MergeConfig(theta_3d=0.4, theta_iou=0.4, theta_prec=0.7),
}


def assert_same_instances(new, old):
    assert [i.sources for i in new.instances] == [i.sources for i in old.instances]
    assert [i.confidence for i in new.instances] == [i.confidence for i in old.instances]
    assert [i.superpoint_ids for i in new.instances] == [i.superpoint_ids for i in old.instances]
    for a, b in zip(new.instances, old.instances):
        if b.point_ids is None:
            assert a.point_ids is None
        else:
            np.testing.assert_array_equal(a.point_ids, b.point_ids)


def random_fragments(rng, lengths):
    """Fragments around a few centres, with no track or a random track and a
    keyframe inside it. A fragment's track is often an earlier fragment's
    track object of the same length, sometimes a new track holding that
    track's very mask arrays, otherwise freshly drawn."""
    centres = rng.normal(scale=1.5, size=(3, 3))
    frags, drawn = [], []
    for i, length in enumerate(lengths):
        pts = centres[rng.integers(3)] + rng.normal(scale=rng.uniform(0.2, 1.0),
                                                    size=(int(rng.integers(1, 40)), 3))
        track, keyframe = None, 0
        if length is not None:
            earlier = [t for t in drawn if len(t) == length]
            u = rng.random()
            if earlier and u < 0.5:
                track = earlier[rng.integers(len(earlier))]
            elif earlier and u < 0.6:
                track = MaskTrack(earlier[rng.integers(len(earlier))].masks)
            else:
                masks = []
                for _ in range(length):
                    u = rng.random()
                    if u < 0.25:
                        masks.append(None)
                    elif u < 0.35:
                        masks.append(np.zeros((6, 6), np.uint8))
                    else:
                        masks.append((rng.random((6, 6)) < rng.uniform(0.05, 0.6))
                                     .astype(np.uint8))
                track = MaskTrack(masks)
                drawn.append(track)
            keyframe = int(rng.integers(length))
        frags.append(frag(pts, (keyframe, f"r{i}"), track))
    return frags


def random_config(rng):
    theta = rng.random(3)
    theta[rng.random(3) < 0.15] = 0.0
    return MergeConfig(voxel_size=float(rng.uniform(0.2, 1.0)), theta_3d=float(theta[0]),
                       theta_iou=float(theta[1]), theta_prec=float(theta[2]))


class TestMergeMatchesOracle:
    """merge_instances and assign_superpoints equal the pair and point loops exactly."""

    @pytest.mark.parametrize("config", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_dilated_pipeline_fragments(self, ring_world, radius, config):
        scene, fragments = ring_world
        frags, cfg = fragments[radius], ORACLE_CONFIGS[config]
        new, old = merge_instances(frags, cfg), naive_merge_instances(frags, cfg)
        assert_same_instances(new, old)
        part = SuperpointPartition(scene.superpoints)
        assert_same_instances(
            assign_superpoints(new, part, scene.scene_points, cfg.voxel_size),
            naive_assign_superpoints(old, part, scene.scene_points, cfg.voxel_size))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_fragment_sets(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, length = int(rng.integers(2, 16)), int(rng.integers(1, 6))
        frags = random_fragments(rng, [None if rng.random() < 0.3 else length
                                       for _ in range(n)])
        cfg = random_config(rng)
        new, old = merge_instances(frags, cfg), naive_merge_instances(frags, cfg)
        assert_same_instances(new, old)
        # the per-pair means themselves are bit-identical, not only the edges
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if frags[i].track is not None and frags[j].track is not None]
        assert hex_pairs(suffix_means(frags[i], frags[j]) for i, j in pairs) == hex_pairs(
            naive_temporal_overlap2d(forward_track(frags[i]), forward_track(frags[j]))
            for i, j in pairs)
        scene_pts = rng.normal(scale=1.5, size=(200, 3))
        labels = rng.integers(0, 12, size=200)
        labels = np.unique(labels, return_inverse=True)[1]
        part = SuperpointPartition(labels)
        assert_same_instances(assign_superpoints(new, part, scene_pts, cfg.voxel_size),
                              naive_assign_superpoints(old, part, scene_pts, cfg.voxel_size))

    @pytest.mark.parametrize("seed", range(12))
    def test_mismatched_track_lengths_raise_where_oracle_raises(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 10))
        frags = random_fragments(rng, [int(rng.integers(2, 4)) for _ in range(n)])
        cfg = random_config(rng)
        try:
            old = naive_merge_instances(frags, cfg)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                merge_instances(frags, cfg)
        else:
            assert_same_instances(merge_instances(frags, cfg), old)

    def test_lifted_fragments_share_their_objects_track(self):
        boxes, cams = boxworld_preset("two-cubes", 32)
        world = generate_boxworld(boxes, cams, resolution=(32, 32))
        fragments, _ = lift_all(world.scene, world.gt_tracks, MergeConfig())
        for obj, track in world.gt_tracks.items():
            mine = [f for f in fragments if f.source[1] == obj]
            assert len(mine) > 1 and all(f.track is track for f in mine)

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_temporal_means_on_mask_boxes(self, dtype):
        # bounding boxes that touch (edge, one corner pixel), overlap, nest
        # (a ring around a block, a block inside a block), are disjoint, or
        # overlap with no common pixel (crossing diagonals of even size);
        # and frames where one or both masks are empty or missing
        def rect(r0, r1, c0, c1):
            m = np.zeros((10, 12), dtype)
            m[r0:r1, c0:c1] = 1
            return m

        ring = rect(0, 10, 0, 12)
        ring[1:9, 1:11] = 0
        diag = np.zeros((10, 12), dtype)
        diag[np.arange(8), np.arange(8)] = 1
        cases = [
            (rect(2, 5, 2, 5), rect(5, 8, 2, 5)), (rect(2, 5, 2, 5), rect(4, 8, 4, 8)),
            (rect(1, 6, 1, 6), rect(3, 9, 4, 11)), (ring, rect(3, 6, 3, 6)),
            (rect(0, 10, 0, 12), rect(3, 6, 3, 6)), (rect(0, 2, 0, 2), rect(7, 10, 9, 12)),
            (diag, diag[::-1].copy()), (diag, diag), (None, rect(1, 3, 1, 3)),
            (rect(1, 3, 1, 3), np.zeros((10, 12), dtype)), (None, None),
        ]
        rng = np.random.default_rng(5)
        cases += [tuple((rng.random((10, 12)) < rng.uniform(0.02, 0.3)).astype(dtype)
                        for _ in range(2)) for _ in range(6)]
        a, b = MaskTrack([ma for ma, _ in cases]), MaskTrack([mb for _, mb in cases])
        n = len(cases)
        frags = [frag(centers([(3 * k, 0, 0)]), (k % (n + 2), "a" if k % 2 else "b"),
                      a if k % 2 else b) for k in range(2 * n + 4)]
        pairs = [(i, j) for i in range(len(frags)) for j in range(i + 1, len(frags))]
        want = [naive_temporal_overlap2d(forward_track(frags[i]), forward_track(frags[j]))
                for i, j in pairs]
        assert hex_pairs(suffix_means(frags[i], frags[j]) for i, j in pairs) == hex_pairs(want)
        assert len(set(want)) > 10

    def test_masks_before_the_keyframe_never_count(self):
        same, left, right = (np.zeros((4, 4), bool) for _ in range(3))
        same[:], left[:, :2], right[:, 2:] = True, True, True
        a = MaskTrack([same] * 3 + [left] * 3)
        b = MaskTrack([same] * 3 + [right] * 3)
        cfg = MergeConfig(theta_3d=1.0)  # disjoint points: only the 2D criterion links

        def linked(ka, kb):
            frags = [frag(centers([(0, 0, 0)]), (ka, "a"), a),
                     frag(centers([(5, 5, 5)]), (kb, "b"), b)]
            assert hex_pairs([suffix_means(*frags)]) == \
                hex_pairs([naive_temporal_overlap2d(*map(forward_track, frags))])
            return len(merge_instances(frags, cfg)) == 1

        assert linked(0, 0)  # mean IoU over all six frames: (3 * 1 + 3 * 0) / 6 = 0.5
        # a later keyframe on either side drops the identical frames 0-2;
        # one past the end leaves no frame at all
        for ka, kb in [(1, 0), (0, 2), (3, 3), (6, 0), (9, 9)]:
            assert not linked(ka, kb)

    def test_pipeline_rejects_tracks_of_other_length(self):
        boxes, cams = boxworld_preset("two-cubes", 32)
        world = generate_boxworld(boxes, cams, resolution=(32, 32))
        tracks = dict(world.gt_tracks)
        obj = sorted(tracks)[-1]
        tracks[obj] = MaskTrack(tracks[obj].masks[:3])
        with pytest.raises(ValueError, match=f"track '{obj}' has 3 frames, scene has 6"):
            run_pipeline(world.scene, tracks, MergeConfig())


def two_fragments(track_a, track_b, keyframes=(0, 0), shared_points=False):
    """Two one-point fragments, in one voxel or in voxels far apart."""
    return [frag(centers([(0, 0, 0)]), (keyframes[0], "a"), track_a),
            frag(centers([(0, 0, 0) if shared_points else (5, 5, 5)]), (keyframes[1], "b"),
                 track_b)]


class TestMergeExactnessTraps:
    """Edge cases where a merge over groups could part from the pair loop."""

    def assert_components(self, frags, cfg, n_instances):
        new, old = merge_instances(frags, cfg), naive_merge_instances(frags, cfg)
        assert_same_instances(new, old)
        assert len(new) == n_instances

    @pytest.mark.parametrize("cfg, n_instances", [
        (MergeConfig(theta_3d=1.0), 2),
        (MergeConfig(theta_3d=1.0, theta_iou=0.0), 1),
        (MergeConfig(theta_3d=1.0, theta_prec=0.0), 1),
    ])
    def test_empty_temporal_series_scores_zero(self, cfg, n_instances):
        m = np.ones((4, 4), bool)
        frags = two_fragments(MaskTrack([m, None]), MaskTrack([None, m]))
        assert suffix_means(*frags) == (0.0, 0.0)
        self.assert_components(frags, cfg, n_instances)

    @pytest.mark.parametrize("theta_3d, n_instances", [(0.0, 1), (0.25, 2)])
    def test_zero_voxel_intersection_fires_at_theta_zero(self, theta_3d, n_instances):
        self.assert_components(two_fragments(None, None), MergeConfig(theta_3d=theta_3d),
                               n_instances)

    @pytest.mark.parametrize("cfg, n_instances", [(MergeConfig(), 2),
                                                  (MergeConfig(theta_prec=0.0), 1)])
    def test_fragment_keyed_after_its_tracks_last_visible_frame(self, cfg, n_instances):
        # the later keyframe leaves the shared track no frame to compare on
        m = np.ones((4, 4), bool)
        track = MaskTrack([m, m, None, None])
        self.assert_components(two_fragments(track, track, keyframes=(0, 3)), cfg, n_instances)

    def test_later_edge_joins_two_components_of_two_groups(self):
        # untracked fragments a, b, c, d are groups 0-3 and voxel runs along x;
        # pairs in order link a-c, then b-d, then c-d, which joins {a, c} and {b, d}
        a, b, c, d = (frag(centers([(x, 0, 0) for x in range(lo, lo + 4)]), (i, "o"))
                      for i, lo in enumerate((0, 8, 2, 5)))
        cfg = MergeConfig(voxel_size=1.0)
        self.assert_components([a, b, c, d], cfg, 1)
        self.assert_components([a, b, c], cfg, 2)

    def test_track_lengths_are_checked_even_when_every_pair_links_in_3d(self):
        m = np.ones((4, 4), bool)
        frags = two_fragments(MaskTrack([m, m]), MaskTrack([m, m, m]), shared_points=True)
        for merge in (merge_instances, naive_merge_instances):
            with pytest.raises(ValueError, match="^track lengths differ: 2 vs 3$"):
                merge(frags, MergeConfig())

    def test_memory_does_not_grow_with_fragment_pairs(self):
        world = ring_boxworld(128, 32)
        frags, _ = lift_all(world.scene, world.gt_tracks, MergeConfig())
        n = len(frags)
        assert n >= 700
        tracemalloc.start()
        try:
            out = merge_instances(frags, MergeConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 8
        # one n x n float64 matrix over the fragment pairs alone would take 8 n^2 bytes
        assert peak < 8 * n * n, (peak, n)


class TestAssignSuperpoints:
    def _setup(self):
        # instance 0 observes voxel (0,0,0); instance 1 observes (1,0,0)
        inst = InstanceSet([
            Instance(fragments=[frag(centers([(0, 0, 0)]))], confidence=1.0),
            Instance(fragments=[frag(centers([(1, 0, 0)]))], confidence=0.5),
        ])
        pts = np.array(
            centers([(0, 0, 0)] * 3 + [(1, 0, 0)] * 2      # sp0: 3 vs 2
                    + [(0, 0, 0)] * 2 + [(1, 0, 0)] * 2    # sp1: tie 2 vs 2
                    + [(9, 9, 9)] * 2))                    # sp2: unobserved
        labels = np.array([0] * 5 + [1] * 4 + [2] * 2)
        return inst, SuperpointPartition(labels), pts

    def test_majority_and_tie_and_unobserved(self):
        inst, part, pts = self._setup()
        out = assign_superpoints(inst, part, pts, 1.0)
        assert out.instances[0].superpoint_ids == frozenset({0, 1})
        assert out.instances[1].superpoint_ids == frozenset()
        assigned = set(out.instances[0].point_ids) | set(out.instances[1].point_ids)
        assert 9 not in assigned and 10 not in assigned

    def test_single_observer(self):
        inst = InstanceSet([Instance(fragments=[frag(centers([(2, 2, 2)]))])])
        pts = np.array(centers([(2, 2, 2)] * 4))
        out = assign_superpoints(inst, SuperpointPartition(np.zeros(4, int)), pts, 1.0)
        assert out.instances[0].superpoint_ids == frozenset({0})
        np.testing.assert_array_equal(out.instances[0].point_ids, [0, 1, 2, 3])

    def test_no_instances_leave_every_superpoint_unassigned(self):
        pts = np.array(centers([(0, 0, 0), (1, 0, 0), (2, 0, 0)]))
        part = SuperpointPartition(np.zeros(3, int))
        for index in (None, voxel_index([], 1.0, pts)):
            out = assign_superpoints(InstanceSet([]), part, pts, 1.0, index=index)
            assert out.instances == []
        assert naive_assign_superpoints(InstanceSet([]), part, pts, 1.0).instances == []

    def test_assignment_is_partial_function(self):
        inst, part, pts = self._setup()
        out = assign_superpoints(inst, part, pts, 1.0)
        seen = set()
        for instance in out.instances:
            assert not (seen & instance.superpoint_ids)
            seen |= instance.superpoint_ids

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SuperpointPartition(np.array([0, 2]))  # not dense
        with pytest.raises(ValueError):
            SuperpointPartition(np.array([-1, 0]))
        # a label past the point count fails before any per-label allocation
        with pytest.raises(ValueError, match=r"^superpoint ids must be dense 0\.\.max$"):
            SuperpointPartition(np.array([0, 2**62, 1]))
        assert SuperpointPartition(np.array([2, 0, 1, 1])).n_superpoints == 3
        assert SuperpointPartition(np.zeros(0, np.int64)).n_superpoints == 0

    def test_sorted_unique_is_np_unique(self):
        from geovos.instance3d import _sorted_unique
        rng = np.random.default_rng(0)
        for x in (rng.integers(-5, 5, size=40), rng.integers(0, 2**62, size=(7, 3)),
                  np.zeros(0, np.int64), np.array([3])):
            got, want = _sorted_unique(x), np.unique(x)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def unique_rows(keys):
    """np.unique(keys, axis=0, return_inverse=True), inverse flattened."""
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1)


def box_cells(keys) -> int:
    """Cells in the bounding box of (N, 3) integer keys."""
    return math.prod(int(keys[:, a].max()) - int(keys[:, a].min()) + 1 for a in range(3))


class TestVoxelIndex:
    """voxel ranking and the shared index against np.unique over voxel_keys."""

    @staticmethod
    def cloud(kind, rng):
        if kind == "dense":  # ~1000 cells for 2000 points: the table path
            return rng.uniform(-1.0, 1.0, (2000, 3)), 0.2
        if kind == "sparse":  # ~8e9 cells for 300 points: the sort path
            return rng.uniform(-1e3, 1e3, (300, 3)), 1.0
        if kind == "huge":  # a box of >= 2**62 cells: the row sort
            pts = rng.uniform(-4e18, 4e18, (200, 3))
            return np.concatenate([pts, pts[:50]]), 1.0
        if kind == "negative":
            return rng.uniform(-9.0, -1.0, (500, 3)), 0.5
        return rng.uniform(-3.0, 3.0, (1, 3)), 0.1  # one point

    @pytest.mark.parametrize("kind", ["dense", "sparse", "huge", "negative", "one"])
    def test_rank_keys_is_np_unique(self, kind):
        for seed in range(3):
            points, size = self.cloud(kind, np.random.default_rng(seed))
            keys = voxel_keys(points, size)
            cells = box_cells(keys)
            if kind == "dense":
                assert cells <= _TABLE_CELLS_PER_VALUE * len(keys)
            elif kind == "sparse":
                assert _TABLE_CELLS_PER_VALUE * len(keys) < cells < 2**62
            elif kind == "huge":
                assert cells >= 2**62
            got, want = _rank_keys(keys), unique_rows(keys)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tolist() == w.tolist()

    def test_rank_keys_of_no_keys(self):
        keys, ids = _rank_keys(voxel_keys(np.zeros((0, 3)), 1.0))
        assert keys.shape == (0, 3) and ids.shape == (0,)

    @pytest.mark.parametrize("kind", ["dense", "sparse", "huge", "negative", "one"])
    def test_index_of_fragments_and_scene(self, kind):
        rng = np.random.default_rng(7)
        points, size = self.cloud(kind, rng)
        cuts = np.sort(rng.integers(0, len(points) + 1, size=4))
        # five fragments, an empty one among them, then the scene points
        sets = np.split(points, [cuts[0], cuts[0], *cuts[1:]])
        frags = [frag(p) for p in sets[:-1]]
        assert any(f.n_points == 0 for f in frags)
        for scene in (sets[-1], np.zeros((0, 3)), None):
            index = voxel_index(frags, size, scene)
            ends = np.cumsum([len(p) for p in sets[:-1]])
            all_keys = voxel_keys(np.concatenate(sets[:-1] + ([] if scene is None else [scene])),
                                  size)
            distinct, inverse = unique_rows(all_keys)
            assert index.keys.tolist() == distinct.tolist()
            for f, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
                mine = index.voxels[index.starts[f]:index.starts[f + 1]]
                assert mine.tolist() == np.unique(inverse[lo:hi]).tolist()
            assert index.scene.tolist() == inverse[ends[-1]:].tolist()
            picked = frags[1::2]
            want = np.unique(np.concatenate([voxel_keys(f.points.points, size)
                                             for f in picked]), axis=0)
            assert index.voxels_of(picked).tolist() == want.tolist()
            assert index.voxels_of([]).shape == (0, 3)
        with pytest.raises(ValueError, match="not in the voxel index"):
            index.voxels_of([frag(points[:1])])

    def test_key_past_int64_names_the_first_set_that_leaves_it(self):
        near, far = [[0.5, 0.5, 0.5]], [[0.0, -1e19, 0.0]]
        frags = [frag(near, (0, "a")), frag(far, (2, "b")), frag(far, (1, "c"))]
        with pytest.raises(ValueError, match=r"^frame 2: object 'b': voxel_size 1.0 puts"):
            voxel_index(frags, 1.0, far)
        with pytest.raises(ValueError, match=r"^scene points: voxel_size 1.0 puts"):
            voxel_index(frags[:1], 1.0, far)

    def test_distinct_and_cells(self):
        rng = np.random.default_rng(3)
        for n, bound in ((500, 100), (500, 10**9), (0, 5), (1, 1)):
            x = rng.integers(0, bound, size=n)
            want, inverse = np.unique(x, return_inverse=True)
            for path_bound in (bound, _TABLE_CELLS_PER_VALUE * n + 1):  # table, sort
                if x.size and path_bound <= x.max():
                    continue
                assert _distinct(x, path_bound).tolist() == want.tolist()
                got = _distinct(x, path_bound, inverse=True)
                assert [g.tolist() for g in got] == [want.tolist(), inverse.tolist()]
            for shift in (0, -(2**40)):
                cells, n_cells = _cells(x + shift)
                assert ((cells[:, None] == cells[None, :]) == (x[:, None] == x[None, :])).all()
                assert cells.size == 0 or 0 <= cells.min() <= cells.max() < n_cells


def random_cluster_world(rng):
    """2-4 cubes of 0.3-0.6 m, jittered on a 2 x 2 grid of 0.9 m pitch (gaps
    of 0.1 m or more), seen by 4-7 cameras on a ring at 32 px."""
    res = 32
    intr = CameraIntrinsics(fx=float(res), fy=float(res), cx=(res - 1) / 2.0,
                            cy=(res - 1) / 2.0, width=res, height=res)
    cells = rng.permutation(4)[:int(rng.integers(2, 5))]
    boxes = [Box((float(0.9 * (c % 2) - 0.45 + dx), float(0.9 * (c // 2) - 0.45 + dy), 0.3),
                 (float(e),) * 3)
             for c, (dx, dy), e in zip(cells, rng.uniform(-0.1, 0.1, (4, 2)),
                                       rng.uniform(0.3, 0.6, 4))]
    n_cams, phase = int(rng.integers(4, 8)), float(rng.uniform(0.0, 2.0 * math.pi))
    cams = [(_look_at_pose((4.5 * math.cos(phase + 2.0 * math.pi * i / n_cams),
                            4.5 * math.sin(phase + 2.0 * math.pi * i / n_cams), 2.0),
                           (0.0, 0.0, 0.3)), intr) for i in range(n_cams)]
    return generate_boxworld(boxes, cams, resolution=(res, res))


class TestPipelineSharedIndex:
    """run_pipeline with its one voxel index against the merge, voting and AP
    oracles run on the fragments it lifted."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracles_with_and_without_superpoints(self, seed):
        rng = np.random.default_rng(seed)
        world = random_cluster_world(rng)
        radius = int(rng.choice([0, 0, 1, 2]))  # dilated masks merge neighbouring cubes
        tracks = {k: MaskTrack([dilate(m, radius) for m in t.masks])
                  for k, t in world.gt_tracks.items()}
        cfg = MergeConfig(voxel_size=float(rng.choice([0.05, 0.1, 0.25])),
                          theta_3d=float(rng.uniform(0.2, 0.9)))
        scene = world.scene
        for voting in (True, False):
            s = scene if voting else dataclasses.replace(scene, superpoints=None)
            result = run_pipeline(s, tracks, cfg)
            assert result.voted is voting
            want = naive_merge_instances(result.fragments, cfg)
            if voting:
                want = naive_assign_superpoints(want, SuperpointPartition(s.superpoints),
                                                s.scene_points, cfg.voxel_size)
                assert eval_ap(result.instances, s.gt_instances) == \
                    naive_eval_ap(want, s.gt_instances)
            assert_same_instances(result.instances, want)
            # the voxel records of an unvoted run: the union of the members' keys
            for inst in result.instances.instances:
                keys = np.concatenate([voxel_keys(f.points.points, cfg.voxel_size)
                                       for f in inst.fragments])
                assert result.index.voxels_of(inst.fragments).tolist() == \
                    np.unique(keys, axis=0).tolist()

    def test_one_index_per_run(self, monkeypatch):
        import geovos.instance3d as instance3d

        built = []
        original = instance3d.voxel_index

        def counted(*args, **kwargs):
            built.append(args[2] if len(args) > 2 else kwargs.get("scene_points"))
            return original(*args, **kwargs)

        monkeypatch.setattr(instance3d, "voxel_index", counted)
        world = random_cluster_world(np.random.default_rng(0))
        result = run_pipeline(world.scene, world.gt_tracks, MergeConfig())
        assert result.voted and len(built) == 1 and built[0] is world.scene.scene_points

    def test_index_of_other_fragments_raises(self):
        world = random_cluster_world(np.random.default_rng(1))
        cfg = MergeConfig()
        result = run_pipeline(world.scene, world.gt_tracks, cfg)
        frags = result.fragments
        with pytest.raises(ValueError, match="voxel index holds other fragments"):
            merge_instances(frags[1:], cfg, index=result.index)
        part = SuperpointPartition(world.scene.superpoints)
        merged = merge_instances(frags, cfg)
        unscened = voxel_index(frags, cfg.voxel_size)
        for index in (unscened, voxel_index(frags[1:], cfg.voxel_size, world.scene.scene_points)):
            with pytest.raises(ValueError, match="voxel index holds other|not in the voxel"):
                assign_superpoints(merged, part, world.scene.scene_points, cfg.voxel_size,
                                   index=index)


def labeled(point_sets, confidences=None):
    confidences = confidences or [1.0] * len(point_sets)
    return InstanceSet([
        Instance(confidence=c, point_ids=np.asarray(ids, np.int64))
        for ids, c in zip(point_sets, confidences)
    ])


class TestEvalAp:
    def test_perfect_prediction(self):
        x = labeled([range(10), range(10, 25)])
        scores = eval_ap(x, x)
        assert scores == {"ap": 1.0, "ap50": 1.0, "ap25": 1.0}

    def test_empty_prediction(self):
        gt = labeled([range(10)])
        scores = eval_ap(InstanceSet([]), gt)
        assert scores == {"ap": 0.0, "ap50": 0.0, "ap25": 0.0}

    def test_one_of_two_found_is_half(self):
        gt = labeled([range(10), range(10, 20)])
        pred = labeled([range(10)])
        scores = eval_ap(pred, gt)
        assert scores["ap50"] == 0.5 and scores["ap25"] == 0.5 and scores["ap"] == 0.5

    def test_empty_gt_raises(self):
        with pytest.raises(ValueError):
            eval_ap(labeled([range(4)]), InstanceSet([]))

    def test_unlabeled_raises(self):
        gt = labeled([range(4)])
        with pytest.raises(ValueError):
            eval_ap(InstanceSet([Instance()]), gt)

    def test_self_evaluation_on_random_partitions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(1, 6))
            labels = rng.integers(0, k, size=n)
            sets = [np.nonzero(labels == i)[0] for i in range(k)
                    if np.any(labels == i)]
            conf = list(rng.random(len(sets)))
            x = labeled(sets, conf)
            scores = eval_ap(x, x)
            assert scores == {"ap": 1.0, "ap50": 1.0, "ap25": 1.0}

    def test_duplicate_prediction_matches_once(self):
        gt = labeled([range(10)])
        dup = labeled([range(10), range(10)], confidences=[0.9, 0.8])
        scores = eval_ap(dup, gt)
        # second copy cannot re-match; full recall is reached first, so the
        # trailing false positive does not dent the interpolated area
        assert scores["ap50"] == 1.0

    def test_false_positive_lowers_precision(self):
        gt = labeled([range(10), range(10, 20)])
        # high-confidence junk first, then both exact matches
        pred = labeled([range(50, 60), range(10), range(10, 20)],
                       confidences=[0.9, 0.8, 0.7])
        scores = eval_ap(pred, gt)
        # tp = [0, 1, 1]: precision [0, 1/2, 2/3], recall [0, 1/2, 1];
        # running-max envelope lifts precision at recall 1/2 to 2/3, so
        # AP50 = 1/2 * 2/3 + 1/2 * 2/3 = 2/3
        assert abs(scores["ap50"] - 2 / 3) < 1e-12

    def test_matches_per_threshold_oracle(self):
        # one IoU table read at every threshold gives the oracle's scores bit
        # for bit: overlapping instances on both sides, tied confidences,
        # empty point sets and empty prediction sets
        seen = dict(gt_overlap=0, pred_overlap=0, tie=0, empty_set=0, no_pred=0, partial=0)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))

            def random_sets(k):
                return [np.flatnonzero(rng.random(n) < rng.uniform(0.0, 0.5)) for _ in range(k)]

            gt_sets = random_sets(int(rng.integers(1, 6)))
            pred_sets = random_sets(int(rng.integers(0, 9)))
            # perturbed copies of ground truth, so some IoUs sit mid-band
            for g in gt_sets:
                if rng.random() < 0.6:
                    keep = g[rng.random(g.size) < rng.uniform(0.5, 1.0)]
                    pred_sets.append(np.union1d(keep, rng.integers(0, n, size=2)))
            conf = rng.choice([0.25, 0.5, 1.0], size=len(pred_sets)).tolist()
            pred, gt = labeled(pred_sets, conf), labeled(gt_sets)
            assert eval_ap(pred, gt) == naive_eval_ap(pred, gt), f"seed {seed}"
            seen["gt_overlap"] += any(np.intersect1d(a, b).size
                                      for i, a in enumerate(gt_sets) for b in gt_sets[i + 1:])
            seen["pred_overlap"] += any(np.intersect1d(a, b).size for i, a in enumerate(pred_sets)
                                        for b in pred_sets[i + 1:])
            seen["tie"] += len(set(conf)) < len(conf)
            seen["empty_set"] += any(s.size == 0 for s in pred_sets + gt_sets)
            seen["no_pred"] += not pred_sets
            seen["partial"] += 0.0 < eval_ap(pred, gt)["ap"] < 1.0
        assert all(seen.values()), seen
