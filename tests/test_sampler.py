"""Frame sampling strategies: continuous, random, FOV-aware, mixed."""

import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import (make_cluster_scene, make_intrinsics, mixed_intrinsics_scene,
                      naive_back_project, naive_candidate_ratios, naive_sample,
                      naive_frustum_overlap, random_sampler_scene, random_scene_frames,
                      small_rotation)
from geovos import geometry, kernels, sampler
from geovos.geometry import CameraFrame, CameraPose
from geovos.ingest import Scene
from geovos.sampler import (SamplerConfig, candidate_ratios, sample_continuous,
                            sample_fov, sample_mixed, sample_random, visible_frames)

CLUSTER = {0, 3, 5}
STRAYS = {1, 2, 4}


def make_gapped_scene(visible_ids, n_frames=16, width=8):
    intr = make_intrinsics(fx=8.0, fy=8.0, width=width, height=width)
    frames = []
    for fid in range(n_frames):
        depth = np.full((width, width), 2.0, np.float32)
        masks = {}
        if fid in visible_ids:
            masks["obj"] = np.ones((width, width), bool)
        frames.append(CameraFrame(fid, intr, CameraPose.identity(), depth, masks))
    return Scene("gapped", frames)


def batched_items(monkeypatch) -> list:
    """Wraps ``kernels.backproject_masks``: the returned list gets, per call,
    the list of masks (the items) that the call received."""
    calls = []
    original = kernels.backproject_masks

    def wrapper(masks, depths, *camera):
        calls.append(list(masks))
        return original(masks, depths, *camera)
    monkeypatch.setattr(kernels, "backproject_masks", wrapper)
    return calls


def replaced(scene, changes: dict):
    """A new scene whose frame at position i is ``dataclasses.replace``d with
    the fields ``changes[i]``; the other frames are the same objects."""
    frames = list(scene.frames)
    for i, fields in changes.items():
        frames[i] = dataclasses.replace(frames[i], **fields)
    return dataclasses.replace(scene, frames=frames)


class TestContinuous:
    def test_exact_fit_window(self):
        scene = make_gapped_scene(range(8), n_frames=8)
        cfg = SamplerConfig(n_frames=8)
        res = sample_continuous(scene, cfg, rng=0, obj_id="obj")
        assert res.frames == list(range(8))
        assert res.reference_frame == 0 and res.mode == "continuous"

    def test_start_range(self):
        scene = make_gapped_scene(range(10), n_frames=10)
        cfg = SamplerConfig(n_frames=8)
        starts = set()
        rng = np.random.default_rng(1)
        for _ in range(200):
            res = sample_continuous(scene, cfg, rng, obj_id="obj")
            starts.add(res.frames[0])
        assert starts == {0, 1, 2}

    def test_window_over_visible_subsequence(self):
        visible = list(range(0, 16, 2))
        scene = make_gapped_scene(visible)
        res = sample_continuous(scene, SamplerConfig(n_frames=8), rng=3, obj_id="obj")
        assert res.frames == visible

    def test_deterministic_given_seed(self):
        scene = make_gapped_scene(range(12), n_frames=12)
        cfg = SamplerConfig(n_frames=8, seed=9)
        a = sample_continuous(scene, cfg, obj_id="obj")
        b = sample_continuous(scene, cfg, obj_id="obj")
        assert a.to_dict() == b.to_dict()

    def test_too_few_frames_error_reports_count(self):
        scene = make_gapped_scene(range(5), n_frames=5)
        with pytest.raises(ValueError, match="5"):
            sample_continuous(scene, SamplerConfig(n_frames=8), rng=0, obj_id="obj")


class TestRandom:
    def test_distinct_and_reference_first(self):
        scene = make_gapped_scene(range(12), n_frames=12)
        res = sample_random(scene, SamplerConfig(n_frames=8), rng=5, obj_id="obj")
        assert len(set(res.frames)) == 8
        assert res.reference_frame == res.frames[0]
        assert res.mode == "random"

    def test_deterministic(self):
        scene = make_gapped_scene(range(12), n_frames=12)
        cfg = SamplerConfig(n_frames=8, seed=2)
        assert sample_random(scene, cfg, obj_id="obj").to_dict() == \
            sample_random(scene, cfg, obj_id="obj").to_dict()


class TestFov:
    def test_default_tau_is_quarter(self):
        assert SamplerConfig().tau == 0.25
        assert SamplerConfig().p_fov == 0.8

    def test_cluster_scene_eligible_set(self):
        scene = make_cluster_scene()
        cfg = SamplerConfig(n_frames=3, tau=0.25)
        # validate the construction with the brute-force oracle
        by_id = {f.frame_id: f for f in scene.frames}
        for ref in CLUSTER:
            for cand in range(6):
                if cand == ref:
                    continue
                ratio, _, _ = naive_frustum_overlap(by_id[cand], by_id[cand].masks["wall"],
                                                    by_id[ref])
                if cand in CLUSTER:
                    assert ratio > cfg.tau
                else:
                    assert ratio == 0.0
        rng = np.random.default_rng(0)
        saw_cluster_ref = saw_stray_ref = False
        for _ in range(300):
            res = sample_fov(scene, cfg, rng, obj_id="wall")
            non_fallback = [f for f in res.frames if f not in res.fallback_frames]
            if res.reference_frame in CLUSTER:
                saw_cluster_ref = True
                assert not res.fallback_frames
                assert set(non_fallback) <= CLUSTER
            else:
                saw_stray_ref = True
                assert non_fallback == [res.reference_frame]
        assert saw_cluster_ref and saw_stray_ref

    def test_tau_zero_pool_is_every_overlapping_candidate(self):
        # all-cluster scene: every candidate has >= 1 valid masked point and
        # positive overlap, so the pool degenerates to all candidates
        scene = make_cluster_scene()
        cluster_only = Scene("c", [f for f in scene.frames if f.frame_id in CLUSTER])
        cfg = SamplerConfig(n_frames=3, tau=0.0)
        rng = np.random.default_rng(1)
        res = sample_fov(cluster_only, cfg, rng, obj_id="wall")
        assert set(res.ratios) == CLUSTER - {res.reference_frame}
        assert not res.fallback_frames
        assert set(res.frames) == CLUSTER

    def test_occluded_but_overlapping_retained(self):
        # tiny mask (heavy occlusion elsewhere) still passes when all its
        # points land in the reference frustum
        scene = make_cluster_scene()
        small = np.zeros((32, 32), bool)
        small[10:12, 10:12] = True
        scene = replaced(scene, {3: {"masks": {"wall": small}}})
        cfg = SamplerConfig(n_frames=3, tau=0.25)
        ratios = candidate_ratios(scene, "wall", 0, cfg)
        assert ratios[3] == 1.0

    def test_fallback_fill_flagged_and_ordered(self):
        scene = make_cluster_scene()
        # only frames 0, 1, 2 visible: 0 overlaps nothing in {1, 2}
        scene = replaced(scene, dict.fromkeys((3, 4, 5), {"masks": {}}))
        cfg = SamplerConfig(n_frames=3, tau=0.25)
        rng = np.random.default_rng(7)
        res = sample_fov(scene, cfg, rng, obj_id="wall")
        assert res.fallback_frames
        assert len(res.frames) == 3
        for fid in res.fallback_frames:
            assert res.ratios[fid] <= cfg.tau
        # fallback frames are the best ineligible ratios, ties by index
        ineligible = sorted((f for f in res.ratios if res.ratios[f] <= cfg.tau),
                            key=lambda f: (-res.ratios[f], f))
        assert res.fallback_frames == ineligible[: len(res.fallback_frames)]

    def test_monotonicity_raising_tau_shrinks_pool(self):
        rng = np.random.default_rng(11)
        intr = make_intrinsics()
        for _ in range(20):
            frames = random_scene_frames(rng, 5, intr)
            scene = Scene("r", frames)
            cfg = SamplerConfig(n_frames=3)
            ratios = candidate_ratios(scene, "obj", 0, cfg)
            taus = sorted(rng.uniform(0, 1, size=3))
            pools = [{f for f, r in ratios.items() if r > t} for t in taus]
            assert pools[2] <= pools[1] <= pools[0]

    def test_no_visible_frames_error(self):
        scene = make_gapped_scene([], n_frames=4)
        with pytest.raises(ValueError):
            sample_fov(scene, SamplerConfig(n_frames=3), rng=0, obj_id="obj")

    def test_too_few_visible_frames_error_reports_count(self):
        # 5 visible frames cannot fill an 8-frame batch, through either entry point
        scene = make_gapped_scene(range(5), n_frames=12)
        cfg = SamplerConfig(n_frames=8, p_fov=1.0)
        for fn in (sample_fov, sample_mixed):
            with pytest.raises(ValueError, match="need 8 object-visible frames, scene has 5"):
                fn(scene, cfg, rng=0, obj_id="obj")

    def test_max_candidates_must_fill_a_batch(self):
        scene = make_gapped_scene(range(20), n_frames=20)
        short = SamplerConfig(n_frames=8, max_candidates=2, p_fov=1.0)
        for fn in (sample_fov, sample_mixed):
            with pytest.raises(ValueError, match="FOV draws need max_candidates >= "
                                                 "n_frames - 1 = 7, got 2"):
                fn(scene, short, rng=0, obj_id="obj")
        # continuous and random draws never read max_candidates
        for fn in (sample_continuous, sample_random):
            assert len(fn(scene, short, rng=0, obj_id="obj").frames) == 8
        cfg = SamplerConfig(n_frames=8, max_candidates=7, p_fov=1.0)
        rng = np.random.default_rng(0)
        for fn in (sample_fov, sample_mixed):
            for _ in range(10):
                res = fn(scene, cfg, rng, obj_id="obj")
                assert len(res.frames) == 8 and len(res.ratios) == 7

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_candidates_below_one_rejected(self, value):
        with pytest.raises(ValueError, match=f"^max_candidates must be >= 1, got {value}$"):
            SamplerConfig(max_candidates=value)

    def test_batch_larger_than_default_max_candidates(self):
        # 600 frames exceed the default cap of 512 candidates: only FOV draws refuse
        scene = make_gapped_scene(range(600), n_frames=600, width=2)
        cfg = SamplerConfig(n_frames=600)
        assert sample_continuous(scene, cfg, rng=0, obj_id="obj").frames == list(range(600))
        assert sorted(sample_random(scene, cfg, rng=0, obj_id="obj").frames) == list(range(600))
        with pytest.raises(ValueError, match="max_candidates >= n_frames - 1 = 599, got 512"):
            sample_fov(scene, cfg, rng=0, obj_id="obj")

    def test_deterministic(self):
        scene = make_cluster_scene()
        cfg = SamplerConfig(n_frames=3, seed=4)
        assert sample_fov(scene, cfg, obj_id="wall").to_dict() == \
            sample_fov(scene, cfg, obj_id="wall").to_dict()


class TestMixed:
    def test_p_one_always_fov(self):
        scene = make_cluster_scene(width=8, fx=8.0)
        cfg = SamplerConfig(n_frames=3, p_fov=1.0)
        rng = np.random.default_rng(0)
        assert all(sample_mixed(scene, cfg, rng, "wall").mode == "fov" for _ in range(20))

    def test_p_zero_always_continuous(self):
        scene = make_cluster_scene(width=8, fx=8.0)
        cfg = SamplerConfig(n_frames=3, p_fov=0.0)
        rng = np.random.default_rng(0)
        assert all(sample_mixed(scene, cfg, rng, "wall").mode == "continuous"
                   for _ in range(20))

    def test_mode_fraction_matches_probability(self):
        scene = make_cluster_scene(width=8, fx=8.0)
        cfg = SamplerConfig(n_frames=3, p_fov=0.8)
        rng = np.random.default_rng(123)
        n = 10_000
        fov = sum(sample_mixed(scene, cfg, rng, "wall").mode == "fov" for _ in range(n))
        assert abs(fov / n - 0.8) <= 0.02


class TestVisibility:
    def test_visible_frames(self):
        scene = make_gapped_scene({1, 3}, n_frames=5)
        assert visible_frames(scene, "obj") == [1, 3]

    def test_empty_mask_not_visible(self):
        scene = make_gapped_scene({1}, n_frames=3)
        empty = {"obj": np.zeros((8, 8), bool)}
        scene = replaced(scene, {1: {"masks": empty}})
        assert visible_frames(scene, "obj") == []

    def test_nonempty_masks_only(self):
        empty = np.zeros((4, 4), bool)
        pixel = empty.copy()
        pixel[3, 0] = True
        frame = CameraFrame(0, make_intrinsics(width=4, height=4), CameraPose.identity(), None,
                            {"full": ~empty, "empty": empty, "pixel": pixel})
        scene = Scene("v", [frame])
        assert [visible_frames(scene, obj) for obj in ("full", "pixel", "empty", "missing")] \
            == [[0], [0], [], []]

    def test_never_back_projects(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "backproject_mask", lambda *a: calls.append(a))
        batched = batched_items(monkeypatch)
        scene = random_sampler_scene(np.random.default_rng(5), n_frames=10)
        cfg = SamplerConfig(n_frames=2)
        assert visible_frames(scene, "obj")
        sample_continuous(scene, cfg, rng=0, obj_id="obj")
        sample_random(scene, cfg, rng=0, obj_id="obj")
        assert calls == [] and batched == []


class TestBatchedRatios:
    """The batched candidate_ratios against the per-pair loop and the
    pure-python oracle, on seeded random scenes."""

    SEEDS = range(60)

    @pytest.mark.parametrize("solo", [geometry.FRUSTUM_SOLO_POINTS, 20])
    def test_ratios_match_per_pair_loop_and_oracle(self, monkeypatch, solo):
        # at 20 points, clouds go both to the shared pass and to calls of their own
        monkeypatch.setattr(geometry, "FRUSTUM_SOLO_POINTS", solo)
        seen = dict(same_camera=0, same_camera_no_points=0, no_points=0, partial=0, strided=0)
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            scene = random_sampler_scene(rng, n_frames=int(rng.integers(4, 13)))
            by_id = {f.frame_id: f for f in scene.frames}
            visible = visible_frames(scene, "obj")
            cfg = SamplerConfig(n_frames=2, max_candidates=int(rng.integers(1, len(scene.frames))))
            seen["strided"] += len(visible) - 1 > cfg.max_candidates
            for ref in visible:
                got = candidate_ratios(scene, "obj", ref, cfg)
                want = naive_candidate_ratios(scene, "obj", ref, cfg)
                assert list(got.items()) == list(want.items()), f"seed {seed}, reference {ref}"
                for fid, ratio in got.items():
                    cand = by_id[fid]
                    oracle, inside, n = naive_frustum_overlap(cand, cand.masks["obj"], by_id[ref])
                    assert ratio == oracle, f"seed {seed}, candidate {fid}, reference {ref}"
                    same = (cand.intrinsics == by_id[ref].intrinsics
                            and np.array_equal(cand.pose.rotation, by_id[ref].pose.rotation)
                            and np.array_equal(cand.pose.translation,
                                               by_id[ref].pose.translation))
                    seen["same_camera"] += same and n > 0
                    seen["same_camera_no_points"] += same and n == 0
                    seen["no_points"] += n == 0
                    seen["partial"] += 0.0 < ratio < 1.0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("solo", [geometry.FRUSTUM_SOLO_POINTS, 20])
    def test_draws_match_per_pair_loop(self, monkeypatch, solo):
        monkeypatch.setattr(geometry, "FRUSTUM_SOLO_POINTS", solo)
        cfg = SamplerConfig(n_frames=3, max_candidates=4, p_fov=0.7)

        def draws(sample):
            # 40 draws per 9-frame scene: references repeat, so most FOV
            # draws read a kept row
            out = []
            for seed in self.SEEDS:
                scene = random_sampler_scene(np.random.default_rng(seed), n_frames=9)
                rng = np.random.default_rng(seed)
                for kind in ("fov", "mixed"):
                    try:
                        out += [sample(kind, scene, cfg, rng, "obj").to_dict() for _ in range(20)]
                    except ValueError as e:
                        out.append(str(e))
            return out

        passes = []
        original = geometry.frustum_overlap_ratios
        monkeypatch.setattr(geometry, "frustum_overlap_ratios",
                            lambda *a: passes.append(1) or original(*a))
        batched = draws(lambda kind, *a: getattr(sampler, f"sample_{kind}")(*a))
        looped = draws(naive_sample)
        assert batched == looped
        fov = sum(isinstance(d, dict) and d["mode"] == "fov" for d in batched)
        assert fov > 1000 and len(passes) < fov / 3, (fov, len(passes))

    def test_reference_that_does_not_show_the_object(self):
        # such a reference is the last scene frame of its id, as the oracle
        # finds every frame: frame 3 without its mask; then a later unmasked
        # frame under id 3, and one under the visible id 0, each posed as
        # frame 1, so that only candidate 1 sees all it shows
        full = make_cluster_scene(width=8, fx=8.0)
        cfg = SamplerConfig(n_frames=2)
        masked = replaced(full, {3: {"masks": {}}})

        def plus(scene, frame_id):
            return dataclasses.replace(scene, frames=scene.frames + (
                dataclasses.replace(full.frames[1], frame_id=frame_id, masks={}),))

        for scene, reference, whole in ((masked, 3, [5]), (plus(masked, 3), 3, [1]),
                                        (plus(full, 0), 0, [1])):
            got = candidate_ratios(scene, "wall", reference, cfg)
            assert list(got.items()) == \
                list(naive_candidate_ratios(scene, "wall", reference, cfg).items())
            assert [fid for fid, r in got.items() if r == 1.0] == whole

    def test_candidate_without_depth_raises_same_message(self, monkeypatch):
        full = make_cluster_scene(width=8, fx=8.0)
        scene = replaced(full, dict.fromkeys((3, 5), {"depth": None}))
        cfg = SamplerConfig(n_frames=3)
        with pytest.raises(ValueError) as want:
            naive_candidate_ratios(scene, "wall", 0, cfg)
        calls = batched_items(monkeypatch)
        with pytest.raises(ValueError, match="^frame 3 has no depth raster$") as got:
            candidate_ratios(scene, "wall", 0, cfg)
        assert str(got.value) == str(want.value)
        # the depth check runs before any pixel work: no candidate, before
        # frame 3 or after it, was back-projected or kept
        assert calls == []
        assert sampler._object_index(scene, "wall")[1].points == [None] * 6
        # the reference itself needs no depth
        scene = replaced(scene, {5: {"depth": full.frames[0].depth}})
        assert list(candidate_ratios(scene, "wall", 3, cfg).items()) == \
            list(naive_candidate_ratios(scene, "wall", 3, cfg).items())

    def test_back_projects_only_strided_candidates(self, monkeypatch):
        scene = make_gapped_scene(range(12), n_frames=12)
        calls = batched_items(monkeypatch)
        cfg = SamplerConfig(n_frames=2, max_candidates=3)
        ratios = candidate_ratios(scene, "obj", 0, cfg)
        # one call, whose items are the strided candidates' masks, in order
        assert len(ratios) == 3 and len(calls) == 1
        assert list(map(id, calls[0])) == [id(scene.frames[fid].masks["obj"]) for fid in ratios]
        candidate_ratios(scene, "obj", 0, cfg)
        assert len(calls) == 1

    def test_replaced_scene_gets_its_own_index(self, monkeypatch):
        rng = np.random.default_rng(3)
        scene = random_sampler_scene(rng, n_frames=8)
        cfg = SamplerConfig(n_frames=2)
        ref = visible_frames(scene, "obj")[0]
        before = list(candidate_ratios(scene, "obj", ref, cfg).items())  # fill the index
        changes = {i: {"masks": {"obj": np.roll(f.masks["obj"], 1, axis=1)}}
                   for i, f in enumerate(scene.frames) if i > 0 and "obj" in f.masks}
        changes[2] = {"depth": np.flipud(scene.frames[2].depth)}
        changes[3] = {"masks": {}}
        changed = replaced(scene, changes)
        twin = dataclasses.replace(scene)  # the very same frames
        calls = batched_items(monkeypatch)
        for new in (changed, twin):
            calls.clear()
            got = list(candidate_ratios(new, "obj", ref, cfg).items())
            # every candidate back-projected again: no old row or points read
            assert sum(map(len, calls)) == len(got)
            assert got == list(naive_candidate_ratios(new, "obj", ref, cfg).items())
        assert got == before
        calls.clear()
        assert list(candidate_ratios(scene, "obj", ref, cfg).items()) == before
        assert calls == []


class TestMixedIntrinsics:
    """Rows and draws on scenes whose frames carry two or three cameras."""

    SEEDS = range(30)

    @pytest.mark.parametrize("max_candidates", [512, 3], ids=["default", "strided"])
    def test_ratios_match_per_pair_loop_and_oracle(self, max_candidates):
        cfg = SamplerConfig(n_frames=2, max_candidates=max_candidates)
        seen = dict(same_pose_other_camera=0, same_place_other_rotation=0, same_camera=0,
                    partial=0)
        for seed in self.SEEDS:
            scene = mixed_intrinsics_scene(np.random.default_rng(seed))
            by_id = {f.frame_id: f for f in scene.frames}
            for ref in visible_frames(scene, "obj"):
                got = candidate_ratios(scene, "obj", ref, cfg)
                want = naive_candidate_ratios(scene, "obj", ref, cfg)
                assert list(got.items()) == list(want.items()), f"seed {seed}, reference {ref}"
                for fid, ratio in got.items():
                    cand, reference = by_id[fid], by_id[ref]
                    oracle, _, n = naive_frustum_overlap(cand, cand.masks["obj"], reference)
                    assert ratio == oracle, f"seed {seed}, candidate {fid}, reference {ref}"
                    same_pose = (np.array_equal(cand.pose.rotation, reference.pose.rotation)
                                 and np.array_equal(cand.pose.translation,
                                                    reference.pose.translation))
                    other_camera = cand.intrinsics != reference.intrinsics
                    seen["same_place_other_rotation"] += (
                        np.array_equal(cand.pose.translation, reference.pose.translation)
                        and not same_pose and ratio < 1.0)
                    seen["same_pose_other_camera"] += same_pose and other_camera and ratio < 1.0
                    seen["same_camera"] += same_pose and not other_camera and n > 0
                    seen["partial"] += 0.0 < ratio < 1.0
        assert all(seen.values()), seen

    @pytest.mark.parametrize("max_candidates", [512, 7], ids=["default", "strided"])
    def test_draws_match_naive_sample(self, max_candidates):
        cfg = SamplerConfig(n_frames=4, max_candidates=max_candidates, p_fov=0.7)

        def draws(sample):
            out = []
            for seed in self.SEEDS:
                scene = mixed_intrinsics_scene(np.random.default_rng(seed))
                rng = np.random.default_rng(seed)
                for kind in ("fov", "mixed"):
                    out += [sample(kind, scene, cfg, rng, "obj").to_dict() for _ in range(10)]
            return out

        assert draws(lambda kind, *a: getattr(sampler, f"sample_{kind}")(*a)) == \
            draws(naive_sample)

    def test_signed_zero_pose_is_the_same_camera(self):
        # -0.0 equals 0.0, so a pose that differs from the reference's only in
        # the sign of its zeros is the reference's camera, as in the per-pair
        # function; these depths do not all survive the float round trip
        intr = make_intrinsics(width=8, height=8)
        depth = np.random.default_rng(2).uniform(0.5, 5.0, size=(8, 8))
        mask = np.ones((8, 8), bool)
        rot = np.eye(3)
        rot[0, 1] = rot[1, 2] = rot[2, 0] = -0.0
        scene = Scene("signed-zero", [
            CameraFrame(0, intr, CameraPose.identity(), depth, {"obj": mask}),
            CameraFrame(1, intr, CameraPose(rot, [-0.0, 0.0, -0.0]), depth, {"obj": mask})])
        cfg = SamplerConfig(n_frames=2)
        for ref in (0, 1):
            assert candidate_ratios(scene, "obj", ref, cfg) == \
                naive_candidate_ratios(scene, "obj", ref, cfg) == {1 - ref: 1.0}

    def test_row_spans_several_blocks(self, monkeypatch):
        monkeypatch.setattr(geometry, "FRUSTUM_BLOCK", 16)
        scene = mixed_intrinsics_scene(np.random.default_rng(0), n_frames=16)
        cfg = SamplerConfig(n_frames=2)
        blocks = []
        original = kernels.frustum_mask
        monkeypatch.setattr(kernels, "frustum_mask", lambda *a: blocks.append(1) or original(*a))
        got = candidate_ratios(scene, "obj", 0, cfg)
        assert len(blocks) >= 10
        assert list(got.items()) == list(naive_candidate_ratios(scene, "obj", 0, cfg).items())


def special_depth_scene(rng, n_frames):
    """``mixed_intrinsics_scene`` (two or three cameras) with NaN, infinite,
    zero and negative depths in float32 or float64, some frames whose mask
    covers no valid depth, and sometimes one frame past the first without
    a depth raster."""
    scene = mixed_intrinsics_scene(rng, n_frames)
    changes = {}
    for i, f in enumerate(scene.frames):
        depth = f.depth.astype(rng.choice([np.float32, np.float64]))
        bad = rng.random(depth.shape) < 0.2
        depth[bad] = rng.choice([np.nan, np.inf, 0.0, -1.0], size=int(bad.sum()))
        if i > 3 and rng.random() < 0.2:
            depth[f.masks["obj"]] = rng.choice([np.nan, 0.0, -2.0])
        changes[i] = {"depth": depth}
    if rng.random() < 0.3:
        changes[int(rng.integers(1, n_frames))] = {"depth": None}
    return replaced(scene, changes)


class TestBatchedBackProjection:
    """A row miss back-projects its missing candidates in one batched pass
    per camera; the kept clouds and the rows match the per-pixel and
    per-pair oracles."""

    SEEDS = range(40)

    @pytest.mark.parametrize("chunk, splits", [(sampler.BACKPROJECT_CHUNK, False), (40, True)],
                             ids=["default", "split"])
    def test_clouds_and_rows_match_oracles(self, monkeypatch, chunk, splits):
        monkeypatch.setattr(sampler, "BACKPROJECT_CHUNK", chunk)
        calls = batched_items(monkeypatch)
        seen = dict(cameras=0, strided=0, no_valid_depth=0, no_depth=0, split=0)
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            scene = special_depth_scene(rng, n_frames=int(rng.integers(6, 14)))
            frame_of = {id(f.masks["obj"]): f for f in scene.frames}
            visible = visible_frames(scene, "obj")
            cfg = SamplerConfig(n_frames=2, max_candidates=int(rng.integers(1, len(visible) + 1)))
            seen["strided"] += len(visible) - 1 > cfg.max_candidates
            seen["cameras"] += len({f.intrinsics for f in scene.frames}) > 1
            for ref in visible:
                calls.clear()
                try:
                    got = list(candidate_ratios(scene, "obj", ref, cfg).items())
                except ValueError as e:
                    got = str(e)
                    # raised before any pixel work: no candidate was touched
                    assert calls == [], f"seed {seed}, reference {ref}"
                    seen["no_depth"] += 1
                try:
                    want = list(naive_candidate_ratios(scene, "obj", ref, cfg).items())
                except ValueError as e:
                    want = str(e)
                assert got == want, f"seed {seed}, reference {ref}"
                for call in calls:  # one camera per call
                    assert len({frame_of[id(m)].intrinsics for m in call}) == 1
                cameras = {frame_of[id(m)].intrinsics for call in calls for m in call}
                seen["split"] += len(calls) > len(cameras)
            index = sampler._object_index(scene, "obj")[1]
            for fid, points in zip(index.visible, index.points):
                if points is not None:
                    f = scene.frames[fid]
                    want, _ = naive_back_project(f.masks["obj"], f.depth, f.intrinsics)
                    assert points.tobytes() == want.tobytes(), f"seed {seed}, frame {fid}"
                    assert not points.flags.writeable
                    seen["no_valid_depth"] += not len(points)
        assert bool(seen.pop("split")) == splits and all(seen.values()), seen

    def test_non_finite_points_name_first_candidate(self):
        # cameras B and C put the principal point where points overflow at
        # depth 4 but not at depth 1; C is met first (frame 1), so its bad
        # frame 5 is found before B's frame 3, which comes first in the row
        a = make_intrinsics(width=6, height=6)
        b = make_intrinsics(fx=2.0, width=6, height=6, cx=-1e308)
        c = make_intrinsics(fx=1.0, width=6, height=6, cx=-1e308)
        cameras = {0: (a, 2.0), 1: (c, 1.0), 2: (a, 2.0), 3: (b, 4.0), 4: (a, 2.0), 5: (c, 4.0)}
        scene = Scene("overflow", [
            CameraFrame(fid, intr, CameraPose(np.eye(3), [0.1 * fid, 0.0, 0.0]),
                        np.full((6, 6), depth), {"obj": np.ones((6, 6), bool)})
            for fid, (intr, depth) in cameras.items()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^frame 3: object 'obj': point cloud contains "
                                                 "non-finite coordinates$"):
                candidate_ratios(scene, "obj", 0, SamplerConfig(n_frames=2))
        # the finite clouds are kept, the non-finite ones are not
        index = sampler._object_index(scene, "obj")[1]
        assert [p is not None for p in index.points] == [False, True, True, False, True, False]

    def test_transient_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # twelve 128x128 masks of ~16k masked pixels each; with one mask per
        # run the pass holds ~1.2 MB beyond the ~4.3 MB of points it keeps
        # (~74 bytes a masked pixel), where one run over all would hold ~12 MB
        size, chunk = 128, 1 << 14
        monkeypatch.setattr(sampler, "BACKPROJECT_CHUNK", chunk)
        rng = np.random.default_rng(4)
        intr = make_intrinsics(width=size, height=size)
        frames = []
        for fid in range(12):
            depth = rng.uniform(0.5, 5.0, size=(size, size)).astype(np.float32)
            depth[rng.random(depth.shape) < 0.05] = np.nan
            mask = np.ones((size, size), bool)
            mask[:2] = False
            frames.append(CameraFrame(fid, intr, CameraPose(np.eye(3), [0.1 * fid, 0.0, 0.0]),
                                      depth, {"obj": mask}))
        scene = Scene("large", frames)
        index = sampler._object_index(scene, "obj")[1]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            clouds = index.clouds(list(range(1, 12)), "obj")
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(c.nbytes for c in clouds)
        assert now - before >= kept > 11 * 15000 * 24
        assert peak - before - kept < 112 * size * size, (peak - before - kept)

    def test_row_memory_per_entry_is_bounded(self):
        # once every cloud is kept, each further row costs its ratio dict (an
        # entry and a float a candidate) and, at one tau, its two pool lists:
        # ~74 bytes per (reference, candidate) entry
        intr = make_intrinsics(fx=4.0, fy=4.0, width=4, height=4)
        scene = Scene("rows", [
            CameraFrame(fid, intr, CameraPose(np.eye(3), [0.05 * fid, 0.0, 0.0]),
                        np.full((4, 4), 2.0), {"obj": np.ones((4, 4), bool)})
            for fid in range(60)])
        cfg = SamplerConfig(n_frames=2)
        index = sampler._object_index(scene, "obj")[1]
        for ref in (0, 1):  # between them, these rows back-project every frame
            candidate_ratios(scene, "obj", ref, cfg)
        assert all(points is not None for points in index.points)
        refs = index.visible[2:]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for ref in refs:
                candidate_ratios(scene, "obj", ref, cfg)
                pool, rest = sampler._pools(index.row(ref, cfg.max_candidates), cfg.tau)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert pool and rest  # the ratios straddle tau
        entries = sum(len(index.rows[ref][1]) for ref in refs)
        assert entries == 58 * 59
        assert grown / entries < 100, grown / entries


def object_points(scene, obj_id, frame_id):
    """The points that the scene's draw index keeps for one frame's mask."""
    index = sampler._object_index(scene, obj_id)[1]
    return index.clouds([index.visible.index(frame_id)], obj_id)[0]


def masked_scene(seed=0, n_frames=3, size=6):
    """Frames that all mask "obj", with a row of invalid depth each."""
    rng = np.random.default_rng(seed)
    intr = make_intrinsics(width=size, height=size)
    frames = []
    for fid in range(n_frames):
        depth = rng.uniform(0.5, 3.0, size=(size, size))
        depth[0, :] = np.nan
        mask = rng.random((size, size)) < 0.5
        mask[1, 1] = True
        pose = CameraPose(small_rotation(rng, 0.3), rng.normal(scale=0.2, size=3))
        frames.append(CameraFrame(fid, intr, pose, depth, {"obj": mask}))
    return Scene("masked", frames)


class TestObjectPoints:
    """Back-projected masks, kept per (scene, frame, object) in the draw index."""

    def test_backprojects_once_per_frame(self, monkeypatch):
        scene = masked_scene(n_frames=6)
        calls = batched_items(monkeypatch)
        cfg = SamplerConfig(n_frames=2)
        for ref in range(6):  # every frame is a candidate of five references
            candidate_ratios(scene, "obj", ref, cfg)
        kept = [object_points(scene, "obj", fid) for fid in range(6)]
        # each frame's mask was an item once: five in the first row, frame 0 in the second
        items = [id(mask) for call in calls for mask in call]
        assert sorted(items) == sorted(id(f.masks["obj"]) for f in scene.frames)
        for frame, points in zip(scene.frames, kept):
            assert object_points(scene, "obj", frame.frame_id) is points
            np.testing.assert_array_equal(points, geometry.back_project(
                frame.masks["obj"], frame.depth, frame.intrinsics)[0].points)

    def test_points_read_only(self):
        scene = masked_scene()
        with pytest.raises(ValueError, match="read-only"):
            object_points(scene, "obj", 1)[0, 0] = 1.0

    def test_views_are_copied(self):
        # rasters handed over as views of larger buffers: writes through the
        # buffers reach neither the frames nor the points kept for them
        rng = np.random.default_rng(1)
        depth_stack = rng.uniform(0.5, 3.0, size=(4, 6, 6))
        mask_buf = rng.random((4, 6, 6)) < 0.5
        mask_buf[:, 2, 2] = True
        intr = make_intrinsics(width=6, height=6)
        scene = Scene("views", [CameraFrame(i, intr, CameraPose(np.eye(3), [0.2 * i, 0.0, 0.0]),
                                            depth_stack[i], {"obj": mask_buf[i]})
                                for i in range(4)])
        cfg = SamplerConfig(n_frames=2)
        want = list(naive_candidate_ratios(scene, "obj", 0, cfg).items())
        assert list(candidate_ratios(scene, "obj", 0, cfg).items()) == want
        kept = {fid: object_points(scene, "obj", fid) for fid in (1, 2, 3)}
        copies = {fid: points.copy() for fid, points in kept.items()}
        depth_stack *= 2.0
        mask_buf[:] = ~mask_buf
        for fid, points in kept.items():
            np.testing.assert_array_equal(points, copies[fid])
        assert list(candidate_ratios(dataclasses.replace(scene), "obj", 0, cfg).items()) == want

    @pytest.mark.parametrize("change", [
        lambda f: {"masks": {"obj": np.roll(f.masks["obj"], 2, axis=0)}},
        lambda f: {"masks": {"obj": np.zeros_like(f.masks["obj"])}},
        lambda f: {"masks": {}},
        lambda f: {"depth": f.depth * 2.0},
        lambda f: {"depth": None},
        lambda f: {"intrinsics": dataclasses.replace(f.intrinsics, fx=3.0 * f.intrinsics.fx)},
    ], ids=["mask-moved", "mask-emptied", "mask-dropped", "depth-scaled", "depth-dropped",
            "intrinsics"])
    def test_replaced_frame_gets_fresh_points(self, change):
        scene = masked_scene()
        cfg = SamplerConfig(n_frames=2)
        before = list(candidate_ratios(scene, "obj", 0, cfg).items())
        points = object_points(scene, "obj", 1)
        changed = replaced(scene, {1: change(scene.frames[1])})
        got, want = [], []
        for out, fn in ((got, candidate_ratios), (want, naive_candidate_ratios)):
            try:
                out += fn(changed, "obj", 0, cfg).items()
            except ValueError as e:
                out.append(str(e))
        assert got == want
        # the original scene, its row and its points are untouched
        assert object_points(scene, "obj", 1) is points
        assert list(candidate_ratios(scene, "obj", 0, cfg).items()) == before


def _replace_reference(scene, ref):
    return replaced(scene, {ref: {}})


def _replace_candidate(scene, ref):
    i = next(f for f in visible_frames(scene, "obj") if f != ref)
    return replaced(scene, {i: {"pose": CameraPose.identity()}})


def _remove_mask(scene, ref):
    return replaced(scene, {visible_frames(scene, "obj")[-1]: {"masks": {}}})


def _move_mask(scene, ref):
    i = visible_frames(scene, "obj")[-1]
    return replaced(scene, {i: {"masks": {"obj": np.roll(scene.frames[i].masks["obj"], 3,
                                                           axis=0)}}})


class TestRowMemo:
    """The reference frame's memoised row of candidate ratios."""

    @staticmethod
    def count_passes(monkeypatch):
        """Calls of the frustum kernel and of the batched ratio pass."""
        calls = {"frustum_mask": 0, "ratios": 0}
        mask, ratios = kernels.frustum_mask, geometry.frustum_overlap_ratios

        def counted_mask(*a):
            calls["frustum_mask"] += 1
            return mask(*a)

        def counted_ratios(*a):
            calls["ratios"] += 1
            return ratios(*a)

        monkeypatch.setattr(kernels, "frustum_mask", counted_mask)
        monkeypatch.setattr(geometry, "frustum_overlap_ratios", counted_ratios)
        return calls

    @staticmethod
    def scene(seed=4, n_frames=9):
        """A random sampler scene whose first visible frame has at least
        five candidates, at least one of them tested in a frustum pass."""
        scene = random_sampler_scene(np.random.default_rng(seed), n_frames=n_frames)
        visible = visible_frames(scene, "obj")
        assert len(visible) >= 6
        return scene, visible[0]

    def test_second_call_runs_no_frustum_pass(self, monkeypatch):
        scene, ref = self.scene()
        cfg = SamplerConfig(n_frames=2)
        calls = self.count_passes(monkeypatch)
        first = candidate_ratios(scene, "obj", ref, cfg)
        assert calls["frustum_mask"] > 0 and calls["ratios"] == 1
        calls.update(frustum_mask=0, ratios=0)
        second = candidate_ratios(scene, "obj", ref, cfg)
        assert calls == {"frustum_mask": 0, "ratios": 0}
        assert list(second.items()) == list(first.items())
        assert list(second.items()) == list(naive_candidate_ratios(scene, "obj", ref, cfg).items())
        assert all(type(r) is float for r in second.values())

    def test_returned_dict_is_new(self):
        scene, ref = self.scene()
        cfg = SamplerConfig(n_frames=2)
        first = candidate_ratios(scene, "obj", ref, cfg)
        want = list(first.items())
        first.clear()
        second = candidate_ratios(scene, "obj", ref, cfg)
        assert list(second.items()) == want
        second[next(iter(second))] = -1.0
        second[10**6] = 0.5
        assert list(candidate_ratios(scene, "obj", ref, cfg).items()) == want

    @pytest.mark.parametrize("change", [_replace_reference, _replace_candidate, _remove_mask,
                                        _move_mask, "max_candidates"],
                             ids=["reference", "candidate", "removed-mask", "moved-mask",
                                  "max-candidates"])
    def test_change_recomputes_row(self, monkeypatch, change):
        scene, ref = self.scene()
        cfg = SamplerConfig(n_frames=2)
        before = candidate_ratios(scene, "obj", ref, cfg)
        if change == "max_candidates":
            cfg = SamplerConfig(n_frames=2, max_candidates=len(before) - 2)
        else:
            scene = change(scene, ref)
        calls = self.count_passes(monkeypatch)
        got = candidate_ratios(scene, "obj", ref, cfg)
        assert calls["ratios"] == 1
        assert list(got.items()) == list(naive_candidate_ratios(scene, "obj", ref, cfg).items())
        # the new row is read again, and the old list recomputes once more
        assert list(candidate_ratios(scene, "obj", ref, cfg).items()) == list(got.items())
        assert calls["ratios"] == 1
        if change == "max_candidates":
            assert list(candidate_ratios(scene, "obj", ref, SamplerConfig(n_frames=2)).items()) \
                == list(before.items())
            assert calls["ratios"] == 2

    def test_rows_per_reference_and_object(self, monkeypatch):
        scene, _ = self.scene()
        other = "obj2"
        scene = dataclasses.replace(scene, frames=[
            dataclasses.replace(f, masks={**f.masks, other: f.masks["obj"]})
            if "obj" in f.masks else f for f in scene.frames])
        cfg = SamplerConfig(n_frames=2)
        visible = visible_frames(scene, "obj")
        want = {(ref, obj): list(naive_candidate_ratios(scene, obj, ref, cfg).items())
                for ref in visible for obj in ("obj", other)}
        for ref, obj in want:
            candidate_ratios(scene, obj, ref, cfg)
        calls = self.count_passes(monkeypatch)
        for (ref, obj), items in want.items():
            assert list(candidate_ratios(scene, obj, ref, cfg).items()) == items
        assert calls == {"frustum_mask": 0, "ratios": 0}


def _two_object_scene(seed, n_frames=12):
    """A random sampler scene with a second object, "obj2", on most frames."""
    rng = np.random.default_rng(seed)
    scene = random_sampler_scene(rng, n_frames=n_frames)
    return replaced(scene, {
        i: {"masks": {**f.masks, "obj2": rng.random(f.depth.shape) < rng.uniform(0.1, 0.7)}}
        for i, f in enumerate(scene.frames) if i % 4 != 3})


def _append_frame(scene, rng):
    """The scene plus a copy of a random frame under a new id and a new pose."""
    f = scene.frames[int(rng.integers(0, len(scene.frames)))]
    pose = CameraPose(f.pose.rotation, f.pose.translation + rng.normal(scale=0.3, size=3))
    new = dataclasses.replace(f, frame_id=max(g.frame_id for g in scene.frames) + 1, pose=pose)
    return dataclasses.replace(scene, frames=scene.frames + (new,))


def _replace_frame(scene, rng):
    i = int(rng.integers(0, len(scene.frames)))
    f = scene.frames[i]
    return replaced(scene, {i: {"pose": CameraPose(
        f.pose.rotation, f.pose.translation + rng.normal(scale=0.3, size=3))}})


def _remove_masks(scene, rng):
    return replaced(scene, {int(rng.integers(0, len(scene.frames))): {"masks": {}}})


class TestDrawIndex:
    """The scene's draw index against a sampler that keeps nothing."""

    STRATEGIES = {"mixed": sample_mixed, "fov": sample_fov, "continuous": sample_continuous,
                  "random": sample_random}
    CHANGES = (_replace_frame, _remove_masks, _append_frame)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_draws_equal_the_naive_reference(self, seed):
        scene = _two_object_scene(seed)
        rng, naive_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        change_rng = np.random.default_rng(100 + seed)
        kinds = list(self.STRATEGIES)
        counted = dict.fromkeys(kinds + ["changes", "fallback", "errors"], 0)
        for k in range(320):
            if k % 40 == 39:
                scene = self.CHANGES[k // 40 % 3](scene, change_rng)
                counted["changes"] += 1
            kind = kinds[k % 4]
            # every 25th draw asks for more frames than the object shows
            cfg = SamplerConfig(n_frames=16 if k % 25 == 24 else 3,
                                tau=(0.0, 0.25, 0.6)[k // 4 % 3],
                                max_candidates=(512, 4)[k // 12 % 2], p_fov=0.7)
            obj = ("obj", "obj2", None)[k % 3]
            try:
                got = self.STRATEGIES[kind](scene, cfg, rng, obj).to_dict()
            except ValueError as e:
                got = str(e)
            try:
                want = naive_sample(kind, scene, cfg, naive_rng, obj).to_dict()
            except ValueError as e:
                want = str(e)
            assert got == want, f"draw {k}"
            if isinstance(got, dict):
                counted[kind] += 1
                counted["fallback"] += bool(got["fallback_frames"])
            else:
                counted["errors"] += 1
        assert sum(counted[kind] for kind in kinds) >= 250 and all(counted.values()), counted

    def test_scenes_and_frames_compare_by_identity(self):
        # the draw index is keyed by scene: an equal-valued replacement of a
        # scene or of a frame is never the one it replaced
        scene = _two_object_scene(0)
        frame = scene.frames[0]
        for old, twin in ((frame, dataclasses.replace(frame)),
                          (scene, dataclasses.replace(scene))):
            assert old == old and twin != old and not (twin == old)
            assert len({old, twin, old}) == 2 and {old: 1}[old] == 1

    def test_index_goes_with_its_scene(self):
        scene = make_gapped_scene(range(8), n_frames=8)
        sample_fov(scene, SamplerConfig(n_frames=2), rng=0, obj_id="obj")
        assert scene in sampler._INDEXES
        alive = weakref.ref(scene)
        del scene
        gc.collect()
        assert alive() is None

    def test_warm_draws_find_nothing_again(self, monkeypatch):
        scene = _two_object_scene(3)
        cfg = SamplerConfig(n_frames=3, p_fov=0.7)
        rng = np.random.default_rng(0)
        visible = set(visible_frames(scene, "obj"))
        references = set()
        for _ in range(2000):
            res = sample_fov(scene, cfg, rng)
            references.add(res.reference_frame)
            if references == visible:
                break
        assert references == visible
        calls = TestRowMemo.count_passes(monkeypatch)
        calls.update(visible_frames=0, candidate_ratios=0, backproject_mask=0,
                     backproject_masks=0)

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*a):
                calls[name] += 1
                return fn(*a)
            monkeypatch.setattr(module, name, wrapper)

        counted(sampler, "visible_frames")
        counted(sampler, "candidate_ratios")
        counted(kernels, "backproject_mask")
        counted(kernels, "backproject_masks")
        # the same frames, in a tuple that counts every read of itself
        frames = CountedFrames(scene.frames)
        object.__setattr__(scene, "frames", frames)
        modes = set()
        for k in range(200):
            fn = (sample_mixed, sample_fov, sample_continuous, sample_random)[k % 4]
            modes.add(fn(scene, cfg, rng, (None, "obj")[k % 2]).mode)
        assert modes == {"fov", "continuous", "random"}
        assert calls == dict.fromkeys(calls, 0) and frames.reads == 0
        # a replaced scene is a new one: its first draw finds its own index
        sample_continuous(dataclasses.replace(scene), cfg, rng)
        assert calls["visible_frames"] == 1


class CountedFrames(tuple):
    """A frames tuple that counts its reads: iteration, indexing and ``len``."""

    def __new__(cls, frames):
        self = super().__new__(cls, frames)
        self.reads = 0
        return self

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __len__(self):
        self.reads += 1
        return super().__len__()
