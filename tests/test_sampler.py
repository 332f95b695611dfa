"""Frame sampling strategies: continuous, random, FOV-aware, mixed."""

import dataclasses

import numpy as np
import pytest

from conftest import (make_cluster_scene, make_intrinsics, naive_candidate_ratios, naive_sample,
                      naive_frustum_overlap, random_sampler_scene, random_scene_frames)
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
        scene.frames[3] = dataclasses.replace(scene.frames[3], masks={"wall": small})
        cfg = SamplerConfig(n_frames=3, tau=0.25)
        ratios = candidate_ratios(scene, "wall", 0, cfg)
        assert ratios[3] == 1.0

    def test_fallback_fill_flagged_and_ordered(self):
        scene = make_cluster_scene()
        # only frames 0, 1, 2 visible: 0 overlaps nothing in {1, 2}
        for fid in (3, 4, 5):
            scene.frames[fid] = dataclasses.replace(scene.frames[fid], masks={})
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
        scene.frames[1] = dataclasses.replace(scene.frames[1], masks=empty)
        assert visible_frames(scene, "obj") == []

    def test_never_back_projects(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "backproject_mask", lambda *a: calls.append(a))
        scene = random_sampler_scene(np.random.default_rng(5), n_frames=10)
        cfg = SamplerConfig(n_frames=2)
        assert visible_frames(scene, "obj")
        sample_continuous(scene, cfg, rng=0, obj_id="obj")
        sample_random(scene, cfg, rng=0, obj_id="obj")
        assert calls == []


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

        def draws():
            # 40 draws per 9-frame scene: references repeat, so most FOV
            # draws read a memoised row
            out = []
            for seed in self.SEEDS:
                scene = random_sampler_scene(np.random.default_rng(seed), n_frames=9)
                rng = np.random.default_rng(seed)
                for fn in (sample_fov, sample_mixed):
                    try:
                        out += [fn(scene, cfg, rng, "obj").to_dict() for _ in range(20)]
                    except ValueError as e:
                        out.append(str(e))
            return out

        passes = []
        original = geometry.frustum_overlap_ratios
        monkeypatch.setattr(geometry, "frustum_overlap_ratios",
                            lambda *a: passes.append(1) or original(*a))
        batched = draws()
        monkeypatch.setattr(sampler, "candidate_ratios", naive_candidate_ratios)
        looped = draws()
        assert batched == looped
        fov = sum(isinstance(d, dict) and d["mode"] == "fov" for d in batched)
        assert fov > 1000 and len(passes) < fov / 3, (fov, len(passes))

    def test_candidate_without_depth_raises_same_message(self):
        scene = make_cluster_scene(width=8, fx=8.0)
        for fid in (3, 5):
            scene.frames[fid] = dataclasses.replace(scene.frames[fid], depth=None)
        cfg = SamplerConfig(n_frames=3)
        with pytest.raises(ValueError) as want:
            naive_candidate_ratios(scene, "wall", 0, cfg)
        with pytest.raises(ValueError, match="^frame 3 has no depth raster$") as got:
            candidate_ratios(scene, "wall", 0, cfg)
        assert str(got.value) == str(want.value)
        # the reference itself needs no depth
        scene.frames[5] = dataclasses.replace(scene.frames[5], depth=scene.frames[0].depth)
        assert list(candidate_ratios(scene, "wall", 3, cfg).items()) == \
            list(naive_candidate_ratios(scene, "wall", 3, cfg).items())

    def test_back_projects_only_strided_candidates(self, monkeypatch):
        scene = make_gapped_scene(range(12), n_frames=12)
        calls = []
        original = kernels.backproject_mask
        monkeypatch.setattr(kernels, "backproject_mask",
                            lambda *a: calls.append(1) or original(*a))
        cfg = SamplerConfig(n_frames=2, max_candidates=3)
        ratios = candidate_ratios(scene, "obj", 0, cfg)
        assert len(ratios) == 3 and len(calls) == 3
        candidate_ratios(scene, "obj", 0, cfg)
        assert len(calls) == 3

    def test_replaced_frames_seen_between_calls(self):
        rng = np.random.default_rng(3)
        scene = random_sampler_scene(rng, n_frames=8)
        cfg = SamplerConfig(n_frames=2)
        ref = visible_frames(scene, "obj")[0]
        candidate_ratios(scene, "obj", ref, cfg)  # fill every memo
        for i, frame in enumerate(scene.frames[1:], 1):
            if "obj" in frame.masks:
                moved = {"obj": np.roll(frame.masks["obj"], 1, axis=1)}
                scene.frames[i] = dataclasses.replace(frame, masks=moved)
        scene.frames[2] = dataclasses.replace(scene.frames[2],
                                              depth=np.flipud(scene.frames[2].depth))
        scene.frames[3] = dataclasses.replace(scene.frames[3], masks={})
        assert list(candidate_ratios(scene, "obj", ref, cfg).items()) == \
            list(naive_candidate_ratios(scene, "obj", ref, cfg).items())


def _replace_reference(scene, ref):
    scene.frames[ref] = dataclasses.replace(scene.frames[ref])


def _replace_candidate(scene, ref):
    i = next(f for f in visible_frames(scene, "obj") if f != ref)
    scene.frames[i] = dataclasses.replace(scene.frames[i], pose=CameraPose.identity())


def _remove_mask(scene, ref):
    i = visible_frames(scene, "obj")[-1]
    scene.frames[i] = dataclasses.replace(scene.frames[i], masks={})


def _move_mask(scene, ref):
    i = visible_frames(scene, "obj")[-1]
    moved = {"obj": np.roll(scene.frames[i].masks["obj"], 3, axis=0)}
    scene.frames[i] = dataclasses.replace(scene.frames[i], masks=moved)


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
            change(scene, ref)
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
        scene.frames[:] = [dataclasses.replace(f, masks={**f.masks, other: f.masks["obj"]})
                           if "obj" in f.masks else f for f in scene.frames]
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
    for i, f in enumerate(scene.frames):
        if i % 4 != 3:
            other = rng.random(f.depth.shape) < rng.uniform(0.1, 0.7)
            scene.frames[i] = dataclasses.replace(f, masks={**f.masks, "obj2": other})
    return scene


def _append_frame(scene, rng):
    """A copy of a random frame under a new id and a new pose."""
    f = scene.frames[int(rng.integers(0, len(scene.frames)))]
    pose = CameraPose(f.pose.rotation, f.pose.translation + rng.normal(scale=0.3, size=3))
    scene.frames.append(dataclasses.replace(f, frame_id=max(g.frame_id for g in scene.frames) + 1,
                                            pose=pose))


def _replace_frame(scene, rng):
    i = int(rng.integers(0, len(scene.frames)))
    f = scene.frames[i]
    scene.frames[i] = dataclasses.replace(f, pose=CameraPose(
        f.pose.rotation, f.pose.translation + rng.normal(scale=0.3, size=3)))


def _remove_masks(scene, rng):
    i = int(rng.integers(0, len(scene.frames)))
    scene.frames[i] = dataclasses.replace(scene.frames[i], masks={})


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
                self.CHANGES[k // 40 % 3](scene, change_rng)
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
        calls.update(mask_nonempty=0, object_ids=0)

        def counted(key, fn):
            def wrapper(*a):
                calls[key] += 1
                return fn(*a)
            return wrapper

        monkeypatch.setattr(CameraFrame, "mask_nonempty",
                            counted("mask_nonempty", CameraFrame.mask_nonempty))
        monkeypatch.setattr(Scene, "object_ids",
                            property(counted("object_ids", Scene.object_ids.fget)))
        modes = set()
        for k in range(200):
            fn = (sample_mixed, sample_fov, sample_continuous, sample_random)[k % 4]
            modes.add(fn(scene, cfg, rng, (None, "obj")[k % 2]).mode)
        assert modes == {"fov", "continuous", "random"}
        assert calls == dict.fromkeys(calls, 0)
        # a replaced frame is seen on the next draw
        scene.frames[0] = dataclasses.replace(scene.frames[0])
        sample_continuous(scene, cfg, rng)
        assert calls["mask_nonempty"] == len(scene.frames) and calls["object_ids"] == 1
