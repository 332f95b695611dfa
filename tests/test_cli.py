"""End-to-end command-line runs in temp directories."""

import json

import numpy as np
import pytest

from conftest import make_intrinsics
from geovos import instance3d
from geovos.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from geovos.geometry import CameraFrame, CameraPose, PointCloud, depth_agreement_score
from geovos.ingest import Scene, load_scene, load_tracks, save_scene, save_tracks
from geovos.instance3d import MergeConfig, run_pipeline, voxel_set
from geovos.metrics import MaskTrack

TINY_MERGER = {"selected_layers": ["encoder", 4], "c_in": 4, "c_mid": 4,
               "c_out": 2, "c_f2d": 2, "heads": 2, "ffn_ratio": 2}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main(["synth", "--out", str(out), "--preset", "two-cubes",
                 "--resolution", "32"]) == EXIT_OK
    return out


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSample:
    def test_seeded_run_reproducible_bytes(self, scene_dir, tmp_path):
        manifest = scene_dir / "manifest.json"
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(["sample", "--scene", str(manifest), "--n", "3",
                         "--mode", "fov", "--seed", "7", "--draws", "5",
                         "--out", str(out)])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_default_tau_echoed(self, scene_dir, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["sample", "--scene", str(scene_dir / "manifest.json"), "--n", "3",
              "--mode", "fov", "--out", str(out)])
        header = read_lines(out)[0]
        assert header["config"]["tau"] == 0.25
        assert header["config"]["p_fov"] == 0.8

    def test_bad_scene_path_exit_2(self, tmp_path, capsys):
        code = main(["sample", "--scene", str(tmp_path / "missing.json"), "--n", "3"])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one_exit_2(self, scene_dir, tmp_path, capsys, draws):
        out = tmp_path / "r.jsonl"
        code = main(["sample", "--scene", str(scene_dir / "manifest.json"), "--n", "3",
                     "--draws", draws, "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --draws must be >= 1, got {draws}"]
        assert not out.exists()

    def test_batch_above_default_max_candidates(self, tmp_path, capsys):
        # 520 frames need 519 candidates, above the default cap of 512: a
        # continuous draw works, a FOV draw exits 2 naming the cap
        intr = make_intrinsics(width=2, height=2)
        frames = [CameraFrame(fid, intr, CameraPose.identity(), np.full((2, 2), 2.0, np.float32),
                              {"obj": np.ones((2, 2), bool)}) for fid in range(520)]
        manifest = save_scene(Scene("long", frames), tmp_path / "scene")
        out = tmp_path / "r.jsonl"
        assert main(["sample", "--scene", str(manifest), "--n", "520", "--mode", "continuous",
                     "--out", str(out)]) == EXIT_OK
        assert read_lines(out)[1]["item"]["frames"] == list(range(520))
        code = main(["sample", "--scene", str(manifest), "--n", "520", "--mode", "fov"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: FOV draws need max_candidates >= n_frames - 1 = 519, got 512"]


class TestPipeline:
    def test_two_cube_scene_perfect_ap(self, scene_dir, tmp_path):
        mc = tmp_path / "merge.json"
        mc.write_text(json.dumps({"voxel_size": 0.1, "theta_3d": 0.10}))
        out = tmp_path / "p.jsonl"
        code = main(["pipeline", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--merge-config", str(mc), "--out", str(out)])
        assert code == EXIT_OK
        agg = read_lines(out)[-1]["aggregate"]
        assert agg["n_instances"] == 2 and agg["voted"]
        assert agg["ap"] == 1.0 and agg["ap50"] == 1.0 and agg["ap25"] == 1.0

    def test_empty_tracks_zero_instances_ap_zero(self, scene_dir, tmp_path):
        empty = {"a": MaskTrack([None] * 6)}
        tr = save_tracks(empty, tmp_path / "empty_tracks")
        out = tmp_path / "p.jsonl"
        code = main(["pipeline", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(tr), "--out", str(out)])
        assert code == EXIT_OK
        agg = read_lines(out)[-1]["aggregate"]
        assert agg["n_instances"] == 0
        assert agg["ap"] == 0.0 and agg["ap50"] == 0.0

    def test_missing_superpoints_warns_and_emits_voxels(self, scene_dir, tmp_path, capsys):
        stripped = _strip_superpoints(scene_dir)
        out = tmp_path / "p.jsonl"
        code = main(["pipeline", "--scene", str(stripped),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "voting skipped" in capsys.readouterr().err
        lines = read_lines(out)
        agg = lines[-1]["aggregate"]
        assert not agg["voted"] and agg["n_instances"] == 2
        assert all("voxels" in line["item"] for line in lines[1:-1])

    def test_lift_then_merge_subcommands(self, scene_dir, tmp_path):
        lift_out = tmp_path / "frags.jsonl"
        code = main(["lift", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--out", str(lift_out)])
        assert code == EXIT_OK
        agg = frag_agg = read_lines(lift_out)[-1]["aggregate"]
        # at 32x32 the two thin rim masks erode away; every (keyframe, object)
        # pair is accounted for either as a fragment or a named rejection
        assert agg["n_fragments"] + len(agg["rejections"]) == 12
        assert all(r["reason"] for r in frag_agg["rejections"])
        merge_out = tmp_path / "inst.jsonl"
        code = main(["merge", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--out", str(merge_out)])
        assert code == EXIT_OK
        assert read_lines(merge_out)[-1]["aggregate"]["n_instances"] == 2

    def test_lift_writes_pointsets(self, scene_dir, tmp_path):
        from geovos.ingest import load_pointset
        pts_dir = tmp_path / "pts"
        code = main(["lift", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--points-dir", str(pts_dir)])
        assert code == EXIT_OK
        files = sorted(pts_dir.glob("*.json"))
        assert files
        pts = load_pointset(files[0])
        assert pts.shape[1] == 3 and pts.shape[0] > 0

    @pytest.mark.parametrize("command", ["pipeline", "lift", "merge"])
    def test_tracks_shorter_than_scene_exit_2(self, scene_dir, tmp_path, capsys, command):
        tracks = load_tracks(scene_dir / "tracks" / "tracks.json")
        short = save_tracks({k: MaskTrack(t.masks[:3]) for k, t in tracks.items()},
                            tmp_path / "short")
        code = main([command, "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(short)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert f"track '{sorted(tracks)[0]}' has 3 frames, scene has 6" in err[0]

    @pytest.mark.parametrize("doc, named", [
        ('{"voxel_sz": 0.1}', "'voxel_sz'"),
        ("[1, 2]", "list"),
        ('{"voxel_size": "0.1"}', "'voxel_size' must be a number"),
    ])
    def test_malformed_merge_config_exit_2(self, scene_dir, tmp_path, capsys, doc, named):
        mc = tmp_path / "merge.json"
        mc.write_text(doc)
        code = main(["pipeline", "--scene", str(scene_dir / "manifest.json"),
                     "--merge-config", str(mc)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(mc) in err[0] and named in err[0]

    @pytest.mark.parametrize("command", ["pipeline", "lift", "merge"])
    def test_track_mask_of_wrong_size_exit_2(self, scene_dir, tmp_path, capsys, command):
        tracks = load_tracks(scene_dir / "tracks" / "tracks.json")
        obj = sorted(tracks)[-1]
        t = max(k for k, m in enumerate(tracks[obj].masks) if m is not None)
        masks = list(tracks[obj].masks)
        masks[t] = np.ones((40, 40), bool)
        path = save_tracks({**tracks, obj: MaskTrack(masks)}, tmp_path / "big")
        code = main([command, "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(path)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {path}: track '{obj}' frame {t}: mask is 40x40, "
                       f"frame is 32x32"]

    def test_eval_3d_self(self, scene_dir, tmp_path):
        out = tmp_path / "e.jsonl"
        gt = scene_dir / "instances.json"
        code = main(["eval-3d", "--pred", str(gt), "--gt", str(gt), "--out", str(out)])
        assert code == EXIT_OK
        agg = read_lines(out)[-1]["aggregate"]
        assert agg == {"ap": 1.0, "ap50": 1.0, "ap25": 1.0}


def _strip_superpoints(scene_dir):
    """A manifest of the same scene without superpoints or ground truth."""
    doc = json.loads((scene_dir / "manifest.json").read_text())
    doc["superpoints"] = None
    doc["gt_instances"] = None
    stripped = scene_dir / "stripped.json"  # same dir: relative paths resolve
    stripped.write_text(json.dumps(doc))
    return stripped


class TestStages:
    """Each 3D command runs the stages its report needs and no others."""

    def _count_stages(self, monkeypatch):
        calls = {"merge_instances": 0, "assign_superpoints": 0, "depth_agreement_score": 0}
        for name in calls:
            original = getattr(instance3d, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(instance3d, name, counted)
        return calls

    def test_lift_reports_depth_agreement_of_plain_loop(self, scene_dir, tmp_path):
        tracks = load_tracks(scene_dir / "tracks" / "tracks.json")
        # box1 leaves frame 3: fragments keyed before it skip that frame
        tracks["box1"] = MaskTrack([None if t == 3 else m
                                    for t, m in enumerate(tracks["box1"].masks)])
        masks = save_tracks(tracks, tmp_path / "gap")
        mc = tmp_path / "merge.json"
        mc.write_text(json.dumps({"eps_rel": 0.002}))
        out = tmp_path / "frags.jsonl"
        assert main(["lift", "--scene", str(scene_dir / "manifest.json"), "--masks", str(masks),
                     "--merge-config", str(mc), "--out", str(out)]) == EXIT_OK
        frames = load_scene(scene_dir / "manifest.json").frames
        items = [line["item"] for line in read_lines(out)[1:-1]]
        assert items
        seen_none = seen_gap = False
        for item in items:
            k, obj = item["source"]
            pts = np.array(item["points"])
            scores = []
            for t in range(k + 1, len(frames)):
                ref = frames[t]
                if ref.depth is None or not tracks[obj].visible(t):
                    seen_gap |= t == 3
                    continue
                scores.append(depth_agreement_score(PointCloud(ref.pose.to_camera(pts), "camera"),
                                                    ref.depth, ref.intrinsics, 0.002))
            want = float(np.mean(scores)) if scores else None
            assert item["depth_agreement"] == want, item["source"]
            seen_none |= want is None
        assert seen_none and seen_gap
        assert len({item["depth_agreement"] for item in items}) > 3

    def test_lift_neither_merges_nor_votes(self, scene_dir, monkeypatch):
        calls = self._count_stages(monkeypatch)
        assert main(["lift", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json")]) == EXIT_OK
        assert calls["merge_instances"] == calls["assign_superpoints"] == 0
        assert calls["depth_agreement_score"] > 0

    @pytest.mark.parametrize("command", ["merge", "pipeline"])
    def test_merge_and_pipeline_score_no_depth(self, scene_dir, monkeypatch, command):
        calls = self._count_stages(monkeypatch)
        assert main([command, "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json")]) == EXIT_OK
        assert calls == {"merge_instances": 1, "assign_superpoints": 1,
                         "depth_agreement_score": 0}

    def test_voxel_records_equal_voxel_set_union(self, scene_dir, tmp_path):
        stripped = _strip_superpoints(scene_dir)
        out = tmp_path / "m.jsonl"
        assert main(["merge", "--scene", str(stripped),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--out", str(out)]) == EXIT_OK
        records = [line["item"] for line in read_lines(out)[1:-1]]
        cfg = MergeConfig()
        result = run_pipeline(load_scene(stripped),
                              load_tracks(scene_dir / "tracks" / "tracks.json"), cfg)
        assert not result.voted and len(records) == len(result.instances) == 2
        for rec, inst in zip(records, result.instances.instances):
            union = set().union(*(voxel_set(f.points.points, cfg.voxel_size)
                                  for f in inst.fragments))
            assert rec["voxels"] == sorted([int(a), int(b), int(c)] for a, b, c in union)
        assert any(c < 0 for rec in records for key in rec["voxels"] for c in key)


class TestEvalVos:
    def test_self_evaluation_all_ones(self, scene_dir, tmp_path):
        tracks = scene_dir / "tracks" / "tracks.json"
        out = tmp_path / "v.jsonl"
        code = main(["eval-vos", "--pred", str(tracks), "--gt", str(tracks),
                     "--lmin", "1", "--segmin", "1", "--out", str(out)])
        assert code == EXIT_OK
        agg = read_lines(out)[-1]["aggregate"]
        assert agg["whole_set"]["iou"] == 1.0
        assert agg["whole_set"]["positive_iou"] == 1.0
        assert agg["whole_set"]["successful_iou"] == 1.0

    def test_known_fixture_scores(self, tmp_path):
        rng = np.random.default_rng(0)
        gt_masks = [rng.random((6, 6)) < 0.5 for _ in range(4)] + [None]
        pred_masks = [gt_masks[0], None, gt_masks[2], gt_masks[3], None]
        gt_p = save_tracks({"o": MaskTrack(gt_masks)}, tmp_path / "gt")
        pr_p = save_tracks({"o": MaskTrack(pred_masks)}, tmp_path / "pr")
        out = tmp_path / "v.jsonl"
        assert main(["eval-vos", "--pred", str(pr_p), "--gt", str(gt_p),
                     "--out", str(out)]) == EXIT_OK
        from geovos.metrics import track_metrics
        want = track_metrics(MaskTrack(pred_masks), MaskTrack(gt_masks))
        row = read_lines(out)[1]["item"]
        assert row["iou"] == want.iou
        assert row["positive_iou"] == want.positive_iou
        assert row["successful_iou"] == want.successful_iou

    def test_mismatched_lengths_exit_2(self, tmp_path, capsys):
        m = np.ones((4, 4), bool)
        gt_p = save_tracks({"o": MaskTrack([m, m])}, tmp_path / "gt")
        pr_p = save_tracks({"o": MaskTrack([m])}, tmp_path / "pr")
        code = main(["eval-vos", "--pred", str(pr_p), "--gt", str(gt_p)])
        assert code == EXIT_INPUT_ERROR
        assert "lengths differ" in capsys.readouterr().err


class TestGradcheck:
    def test_tiny_config_passes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_MERGER))
        assert main(["gradcheck", "--config", str(cfg), "--seed", "1"]) == EXIT_OK

    def test_corrupt_hook_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_MERGER))
        code = main(["gradcheck", "--config", str(cfg), "--seed", "1",
                     "--self-test-corrupt"])
        assert code == EXIT_CHECK_FAILED

    def test_same_seed_identical_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_MERGER))
        blobs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["gradcheck", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_default_desk_config_passes(self):
        # the unmodified CLI default: desk-scale merger, full FD sweep
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
