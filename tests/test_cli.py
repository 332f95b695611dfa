"""End-to-end command-line runs in temp directories."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import make_intrinsics, perturb_proj_w_gradient, voxel_set
import geovos
from geovos import cli, instance3d
from geovos.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, _look_at_pose,
                        boxworld_preset, main)
from geovos.geometry import CameraFrame, CameraPose, PointCloud, depth_agreement_score
from geovos.ingest import (ManifestError, Scene, load_dmap, load_scene, load_tracks, save_dmap,
                           save_mask_pgm, save_scene, save_tracks)
from geovos.instance3d import MergeConfig, run_pipeline
from geovos.metrics import MaskTrack

TINY_MERGER = {"selected_layers": ["encoder", 4], "c_in": 4, "c_mid": 4,
               "c_out": 2, "c_f2d": 2, "heads": 2, "ffn_ratio": 2}


def numpy_look_at_pose(eye, target, up=(0.0, 0.0, 1.0)):
    """``cli._look_at_pose`` as it was written with ``np.cross``."""
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, dtype=np.float64))
    if np.linalg.norm(right) < 1e-8:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    return CameraPose(np.stack([right, down, fwd], axis=1), eye)


class TestLookAtPose:
    """The scalar cross products give the ``np.cross`` poses bit for bit."""

    @staticmethod
    def assert_same_pose(eye, target, up=(0.0, 0.0, 1.0)):
        got, want = _look_at_pose(eye, target, up), numpy_look_at_pose(eye, target, up)
        assert got.rotation.tobytes() == want.rotation.tobytes()
        assert got.translation.tobytes() == want.translation.tobytes()

    @pytest.mark.parametrize("preset", ["two-cubes", "two-cubes-touching", "one-box"])
    def test_presets(self, preset):
        boxes, cams = boxworld_preset(preset, 32)
        center = np.mean([b.center for b in boxes], axis=0)
        for pose, _ in cams:
            self.assert_same_pose(pose.translation, center)

    def test_random_eyes_and_targets(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            eye, target = rng.normal(scale=rng.choice([0.1, 3.0, 100.0]), size=(2, 3))
            self.assert_same_pose(eye, target)
            self.assert_same_pose(eye, target, up=tuple(rng.normal(size=3)))

    @pytest.mark.parametrize("eye, target", [((0.0, 0.0, 3.0), (0.0, 0.0, 0.0)),
                                             ((1.0, 2.0, -1.0), (1.0, 2.0, 4.0)),
                                             ((0.0, 0.0, 1e-9), (0.0, 0.0, 0.0))])
    def test_degenerate_up(self, eye, target):
        # looking along up: the cross product with up vanishes, y is used
        self.assert_same_pose(eye, target)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main(["synth", "--out", str(out), "--preset", "two-cubes",
                 "--resolution", "32"]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def json_scene_dir(scene_dir, tmp_path_factory):
    """The scene with its superpoints moved to a ``superpoints.json`` written
    by json.dumps, which its manifest names: the JSON reader that older and
    hand-written scenes go through."""
    out = tmp_path_factory.mktemp("json_scene") / "scene"
    shutil.copytree(scene_dir, out)
    with np.load(out / "superpoints.npz") as npz:
        doc = {"schema": "geovos.superpoints/1", "points": npz["points"].tolist(),
               "labels": npz["labels"].tolist()}
    (out / "superpoints.npz").unlink()
    (out / "superpoints.json").write_text(json.dumps(doc))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["superpoints"] = "superpoints.json"
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def demo_parent(tmp_path_factory):
    """A directory holding ``demo``, the ``geovos synth`` default scene."""
    out = tmp_path_factory.mktemp("demo")
    assert main(["synth", "--out", str(out / "demo")]) == EXIT_OK
    return out


class TestSample:
    @pytest.mark.parametrize("name, args", [("fov", ["--mode", "fov"]),
                                            ("mixed", ["--mode", "mixed"]),
                                            ("fov-box1", ["--mode", "fov", "--obj", "box1"])])
    def test_reports_equal_the_committed_bytes(self, demo_parent, tmp_path, monkeypatch, name,
                                               args):
        # tests/data/sample-NAME.jsonl: these very runs, from the scene's
        # directory, before the row pass tested boxes (the header echoes
        # the relative scene path)
        monkeypatch.chdir(demo_parent)
        out = tmp_path / "r.jsonl"
        assert main(["sample", "--scene", "demo/manifest.json", *args, "--n", "4",
                     "--draws", "50", "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (DATA / f"sample-{name}.jsonl").read_bytes()

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

    @pytest.mark.parametrize("command", ["lift", "merge", "pipeline"])
    def test_masks_default_to_the_scene_tracks(self, scene_dir, tmp_path, command):
        # the synth scene's tracks file holds its own masks: the item and
        # aggregate lines are the same bytes; the header echoes "masks": null
        manifest, masks = scene_dir / "manifest.json", scene_dir / "tracks" / "tracks.json"
        reports = []
        for extra in ([], ["--masks", str(masks)]):
            out = tmp_path / f"{command}-{len(extra)}.jsonl"
            assert main([command, "--scene", str(manifest), *extra,
                         "--out", str(out)]) == EXIT_OK
            reports.append(out.read_text().splitlines())
        (own_header, *own), (given_header, *given) = reports
        assert own == given and len(own) > 1
        own_header, given_header = json.loads(own_header), json.loads(given_header)
        assert own_header["config"]["masks"] is None
        assert given_header["config"]["masks"] == str(masks)
        own_header["config"]["masks"] = str(masks)
        assert own_header == given_header

    def test_merge_with_empty_ground_truth(self, scene_dir, tmp_path):
        # merge reads instances.json but scores no AP against it
        d = tmp_path / "scene"
        shutil.copytree(scene_dir, d)
        (d / "instances.json").write_text(json.dumps({"schema": "geovos.instances/1",
                                                      "instances": []}))
        out = tmp_path / "m.jsonl"
        assert main(["merge", "--scene", str(d / "manifest.json"), "--out", str(out)]) == EXIT_OK
        agg = read_lines(out)[-1]["aggregate"]
        assert agg["n_instances"] == 2 and agg["voted"]

    def test_lift_stride_two_lifts_even_keyframes(self, scene_dir, tmp_path):
        def keyframes(stride):
            out = tmp_path / f"frags{stride}.jsonl"
            assert main(["lift", "--scene", str(scene_dir / "manifest.json"),
                         "--masks", str(scene_dir / "tracks" / "tracks.json"),
                         "--stride", str(stride), "--out", str(out)]) == EXIT_OK
            lines = read_lines(out)
            assert lines[0]["config"]["stride"] == stride
            lifted = [item["item"]["source"] for item in lines[1:-1]]
            rejected = [[r["keyframe"], r["obj"]] for r in lines[-1]["aggregate"]["rejections"]]
            return lifted, rejected

        every_lifted, every_rejected = keyframes(1)
        lifted, rejected = keyframes(2)
        assert lifted and {k for k, _ in lifted + rejected} == {0, 2, 4}
        assert lifted == [s for s in every_lifted if s[0] % 2 == 0]
        assert rejected == [r for r in every_rejected if r[0] % 2 == 0]

    def test_eval_3d_accepts_any_int64_id(self, tmp_path):
        # without a scene nothing bounds a predicted id: 10**9 is a label
        # that matches no ground truth, not an input error
        gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
        gt.write_text(json.dumps({"schema": "geovos.instances/1",
                                  "instances": [{"point_ids": [0, 1, 2]}]}))
        pred.write_text(json.dumps({"schema": "geovos.instances/1",
                                    "instances": [{"point_ids": [0, 1, 2, 10**9]}]}))
        out = tmp_path / "e.jsonl"
        assert main(["eval-3d", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(out)]) == EXIT_OK
        # IoU 3/4 clears the thresholds 0.50 to 0.75: six of the ten
        assert read_lines(out)[-1]["aggregate"] == {"ap": 0.6, "ap50": 1.0, "ap25": 1.0}

    def test_json_superpoints_give_the_same_report(self, scene_dir, json_scene_dir, tmp_path):
        outs = []
        for d in (scene_dir, json_scene_dir):
            out = tmp_path / f"{d.name}.jsonl"
            assert main(["pipeline", "--scene", str(d / "manifest.json"),
                         "--out", str(out)]) == EXIT_OK
            outs.append(read_lines(out))
        assert outs[0][-1]["aggregate"]["voted"] and outs[0][-1]["aggregate"]["ap"] == 1.0
        assert outs[0][1:] == outs[1][1:]

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
                scores.append(depth_agreement_score(PointCloud(ref.pose.to_camera(pts)),
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

    def test_voxel_record_lines_as_from_per_instance_unique(self, scene_dir, tmp_path):
        # every record line, byte for byte, as written from np.unique(axis=0)
        # of the members' voxel_keys: the records before the shared voxel index
        stripped = _strip_superpoints(scene_dir)
        tracks = scene_dir / "tracks" / "tracks.json"
        out = tmp_path / "m.jsonl"
        assert main(["merge", "--scene", str(stripped), "--masks", str(tracks),
                     "--out", str(out)]) == EXIT_OK
        cfg = MergeConfig()
        result = run_pipeline(load_scene(stripped), load_tracks(tracks), cfg)
        lines = out.read_text().splitlines()[1:-1]
        assert len(lines) == len(result.instances) == 2
        for line, inst in zip(lines, result.instances.instances):
            keys = np.concatenate([instance3d.voxel_keys(f.points.points, cfg.voxel_size)
                                   for f in inst.fragments])
            item = {"confidence": float(inst.confidence),
                    "sources": [[int(k), str(o)] for k, o in inst.sources],
                    "voxels": np.unique(keys, axis=0).tolist()}
            assert line == json.dumps({"item": item}, sort_keys=True, separators=(",", ":"))


class TestSideFiles:
    """Only merge and pipeline read superpoints.npz and instances.json."""

    @pytest.fixture
    def broken(self, scene_dir, tmp_path):
        """The scene with a truncated superpoints.npz and no instances.json."""
        d = tmp_path / "broken"
        shutil.copytree(scene_dir, d)
        sp = d / "superpoints.npz"
        sp.write_bytes(sp.read_bytes()[:-100])
        (d / "instances.json").unlink()
        return d

    @pytest.mark.parametrize("command", ["sample", "lift"])
    def test_sample_and_lift_as_on_the_intact_scene(self, scene_dir, broken, tmp_path,
                                                   command):
        extra = {"sample": ["--n", "3", "--mode", "mixed", "--draws", "12", "--seed", "4"],
                 "lift": ["--masks", str(scene_dir / "tracks" / "tracks.json")]}[command]
        reports = []
        for d in (scene_dir, broken):
            out = tmp_path / f"{d.name}.jsonl"
            assert main([command, "--scene", str(d / "manifest.json"), *extra,
                         "--out", str(out)]) == EXIT_OK
            reports.append(read_lines(out)[1:])
        assert reports[0] == reports[1] and len(reports[0]) > 2

    @pytest.mark.parametrize("command", ["merge", "pipeline"])
    def test_merge_and_pipeline_name_the_bad_file(self, broken, capsys, command):
        assert main([command, "--scene", str(broken / "manifest.json"),
                     "--masks", str(broken / "tracks" / "tracks.json")]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {broken / 'superpoints.npz'}: "
                                                   f"not an npz archive"), err

    def test_run_pipeline_raises_rather_than_skip_the_vote(self, broken):
        scene = load_scene(broken / "manifest.json")  # reads no side file
        with pytest.raises(ManifestError, match=re.escape(str(broken / "superpoints.npz"))):
            run_pipeline(scene, scene.tracks(), MergeConfig())


SCENE_MASK_FAULTS = ("truncated-raster", "missing-file", "wrong-size")


def _break_scene_mask(d, fault) -> str:
    """Break the scene's frame 2 box0 mask file by ``fault``; returns the
    stderr line of a command that reads it."""
    path = d / "mask" / "0002_box0.pgm"
    if fault == "truncated-raster":
        path.write_bytes(path.read_bytes()[:-1])
        return f"error: {path}: expected 1024 raster bytes, got 1023"
    if fault == "missing-file":
        path.unlink()
        return f"error: mask file not found: {path}"
    save_mask_pgm(path, np.ones((16, 32), bool))
    return f"error: {d / 'manifest.json'}: frames[2]: mask 'box0' is 32x16, frame is 32x32"


class TestSceneMasks:
    """A scene's mask files are read on first use: a faulty one stops only a
    command that reads it (a draw for its object, a 3D command without
    --masks; see the scene-mask rows of CORRUPTIONS)."""

    @pytest.mark.parametrize("fault", SCENE_MASK_FAULTS)
    @pytest.mark.parametrize("command", ["sample", "lift", "merge", "pipeline"])
    def test_unread_mask_leaves_the_report_byte_identical(self, scene_dir, tmp_path, command,
                                                          fault):
        d = tmp_path / "scene"
        shutil.copytree(scene_dir, d)
        out = tmp_path / "report.jsonl"
        extra = (["--obj", "box1", "--n", "3", "--mode", "mixed", "--draws", "12", "--seed", "4"]
                 if command == "sample" else ["--masks", str(d / "tracks" / "tracks.json")])
        argv = [command, "--scene", str(d / "manifest.json"), *extra, "--out", str(out)]
        assert main(argv) == EXIT_OK
        intact = out.read_bytes()
        out.unlink()
        _break_scene_mask(d, fault)
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == intact


def _scene_mask_fault(command, fault):
    """``command`` on the scene with frame 2's box0 mask file broken: sample
    draws for box0 (the first object), a 3D command runs on the scene's own
    tracks (no --masks)."""
    def run(d):
        line = _break_scene_mask(d, fault)
        args = _scene_args(command, d)
        return (args if command == "sample" else args[:3]), [line]
    return run


# ---------------------------------------------------------------------------
# corrupt inputs: every case gets its own copy of the scene and returns the
# command line plus the strings its one stderr line must name


def _instances_file(path, point_ids, **fields):
    path.write_text(json.dumps({"schema": "geovos.instances/1",
                                "instances": [{"point_ids": point_ids, **fields}]}))
    return path


def _eval_3d(pred_ids, **fields):
    """eval-3d of a predicted file holding ``pred_ids`` against GT [0, 1, 2]."""
    def run(d):
        pred = _instances_file(d / "pred.json", pred_ids, **fields)
        gt = _instances_file(d / "gt.json", [0, 1, 2])
        field = "confidence" if fields else "point_ids"
        return (["eval-3d", "--pred", str(pred), "--gt", str(gt)],
                [f"{pred}: instances[0]: field '{field}'"])
    return run


def _scene_args(command, d, masks=None):
    args = [command, "--scene", str(d / "manifest.json")]
    if command == "sample":
        return args + ["--n", "3", "--mode", "fov"]
    return args + ["--masks", str(masks or d / "tracks" / "tracks.json")]


def _short_dmap(command):
    def run(d):
        depth = d / "depth" / "0002.dmap"
        depth.write_bytes(depth.read_bytes()[:-4])
        return _scene_args(command, d), [str(depth)]
    return run


def _bad_pose(command, entry, detail, at=1):
    """``command`` on the scene after the token ``at`` (a rotation entry) of
    its pose file 0001 became the bytes ``entry`` (a list for a slice)."""
    def run(d):
        pose = d / "pose" / "0001.txt"
        tokens = pose.read_bytes().split()
        tokens[at] = entry
        pose.write_bytes(b" ".join(tokens) + b"\n")
        return _scene_args(command, d), [f"{pose}: {detail}"]
    return run


def _edit_json(rel, edit, named):
    """pipeline on the scene after ``edit`` changed its JSON file ``rel``;
    the error names the file ``named`` and the text ``detail``."""
    def run(d):
        path = d / rel
        doc = json.loads(path.read_text())
        detail = edit(doc)
        path.write_text(json.dumps(doc))
        return _scene_args("pipeline", d), [str(d / named), detail]
    return run


def _json_list(rel, what):
    """pipeline on the scene after its JSON file ``rel`` became a list."""
    def run(d):
        (d / rel).write_text("[1]")
        return _scene_args("pipeline", d), [f"{d / rel}: {what} file must hold a JSON object"]
    return run


def _npz(rewrite, detail):
    """pipeline on the scene after ``rewrite(path, points, labels)`` replaced
    its superpoints.npz; the error names that file and ``detail``."""
    def run(d):
        path = d / "superpoints.npz"
        with np.load(path) as npz:
            points, labels = npz["points"], npz["labels"]
        rewrite(path, points, labels)
        return _scene_args("pipeline", d), [str(path), detail]
    return run


def _truncated(path, points, labels):
    path.write_bytes(path.read_bytes()[:-100])


def _npy_under_npz_name(path, points, labels):
    with open(path, "wb") as f:
        np.save(f, points)


def _with_label(value):
    def rewrite(path, points, labels):
        labels = labels.copy()
        labels[3] = value
        np.savez(path, points=points, labels=labels)
    return rewrite


def _nan_point(path, points, labels):
    points = points.copy()
    points[5, 1] = np.nan
    np.savez(path, points=points, labels=labels)


NOT_NPZ = "not an npz archive of arrays 'points' and 'labels'"

NPZ_CORRUPTIONS = {
    "pipeline-npz-truncated": _npz(_truncated, NOT_NPZ),
    "pipeline-npz-not-a-zip": _npz(lambda path, p, lab: path.write_text("points, labels\n"),
                                   f"{NOT_NPZ} (not a zip archive)"),
    "pipeline-npz-holds-npy": _npz(_npy_under_npz_name, f"{NOT_NPZ} (not a zip archive)"),
    "pipeline-npz-object-array": _npz(
        lambda path, p, lab: np.savez(path, points=p.astype(object), labels=lab),
        "array 'points' cannot be read"),
    "pipeline-npz-missing-array": _npz(lambda path, p, lab: np.savez(path, points=p),
                                       "arrays must be exactly 'points' and 'labels'"),
    "pipeline-npz-extra-array": _npz(
        lambda path, p, lab: np.savez(path, points=p, labels=lab, normals=p),
        "arrays must be exactly 'points' and 'labels', got ['labels', 'normals', 'points']"),
    "pipeline-npz-two-coordinate-points": _npz(
        lambda path, p, lab: np.savez(path, points=p[:, :2].copy(), labels=lab),
        "array 'points' must have shape (N, 3)"),
    "pipeline-npz-float32-points": _npz(
        lambda path, p, lab: np.savez(path, points=p.astype(np.float32), labels=lab),
        "array 'points' must be float64, got float32"),
    "pipeline-npz-float-labels": _npz(
        lambda path, p, lab: np.savez(path, points=p, labels=lab.astype(np.float64)),
        "array 'labels' must be int64, got float64"),
    "pipeline-npz-nan-point": _npz(_nan_point, "array 'points' must hold finite numbers"),
    "pipeline-npz-short-labels": _npz(
        lambda path, p, lab: np.savez(path, points=p, labels=lab[:-1]),
        "array 'labels' has"),
    "pipeline-npz-negative-label": _npz(_with_label(-1), "array 'labels': superpoint labels "
                                                         "must be >= 0"),
    # without the size guard bincount would size 2**62 counters from this label
    "pipeline-npz-label-past-n": _npz(_with_label(2**62), "array 'labels': superpoint ids "
                                                          "must be dense 0..max"),
}


def _json_not_text(rel):
    """pipeline on the scene after its JSON file ``rel`` got bytes that are
    not UTF-8 (the head of a zip archive)."""
    def run(d):
        (d / rel).write_bytes(b"PK\x03\x04\xff\xfe\x00")
        return _scene_args("pipeline", d), [f"{d / rel}: invalid JSON"]
    return run


def _negative_label(doc):
    doc["labels"][0] = -1
    return "superpoint labels must be >= 0"


def _short_label_list(doc):
    doc["labels"].pop()
    return "field 'labels'"


def _string_labels(doc):
    doc["labels"] = "x"
    return "field 'labels' must be a flat list of integers"


def _two_coordinate_points(doc):
    doc["points"] = [[1, 2]]
    return "field 'points' must be a list of [x, y, z] numbers"


def _bool_in_point_row(doc):
    doc["points"][0][1] = True
    return "field 'points' must be a list of [x, y, z] numbers"


def _dangling_gt_id(doc):
    doc["instances"][0]["point_ids"].append(10**6)
    return "gt_instances[0] references point 1000000"


def _fractional_gt_id(doc):
    doc["instances"][0]["point_ids"] = [0.5]
    return "instances[0]: field 'point_ids'"


def _tracks_field_list(doc):
    doc["tracks"] = list(doc["tracks"].values())
    return "field 'tracks' must be an object"


def _track_entry_number(doc):
    obj = sorted(doc["tracks"])[0]
    doc["tracks"][obj] = 5
    return f"track '{obj}' must be a list of null or file names"


def _track_frame_number(doc):
    obj = sorted(doc["tracks"])[-1]
    doc["tracks"][obj][0] = 7
    return f"track '{obj}' must be a list of null or file names"


def _tracks_length_string(doc):
    doc["length"] = str(doc["length"])
    return "field 'length' must be an integer"


def _frames_number(doc):
    doc["frames"] = 5
    return "field 'frames' must be a list of objects"


def _frame_not_object(doc):
    doc["frames"][1] = "depth/0001.dmap"
    return "field 'frames' must be a list of objects"


def _frame_masks_list(doc):
    doc["frames"][2]["masks"] = list(doc["frames"][2]["masks"].values())
    return "frames[2]: field 'masks' must be an object"


def _frame_mask_number(doc):
    obj = sorted(doc["frames"][2]["masks"])[0]
    doc["frames"][2]["masks"][obj] = 3
    return "frames[2]: field 'masks' must be an object of file names"


def _frame_depth_number(doc):
    doc["frames"][0]["depth"] = 0
    return "frames[0]: field 'depth' must be a file name"


def _superpoints_number(doc):
    doc["superpoints"] = 5
    return "field 'superpoints' must be a file name or null"


def _gt_instances_list(doc):
    doc["gt_instances"] = [doc["gt_instances"]]
    return "field 'gt_instances' must be a file name or null"


def _short_tracks(command):
    """tracks of 3 frames on the 6-frame scene."""
    def run(d):
        tracks = load_tracks(d / "tracks" / "tracks.json")
        path = save_tracks({k: MaskTrack(t.masks[:3]) for k, t in tracks.items()}, d / "short")
        return (_scene_args(command, d, masks=path),
                [f"{path}: field 'length' is 3, scene has 6 frames"])
    return run


def _big_track_mask(command):
    def run(d):
        tracks = load_tracks(d / "tracks" / "tracks.json")
        obj = sorted(tracks)[-1]
        masks = list(tracks[obj].masks)
        masks[1] = np.ones((40, 40), bool)
        path = save_tracks({**tracks, obj: MaskTrack(masks)}, d / "big")
        return (_scene_args(command, d, masks=path),
                [f"{path}: track '{obj}' frame 1: mask is 40x40, frame is 32x32"])
    return run


def _merge_config(command, doc, detail):
    def run(d):
        mc = d / "merge.json"
        mc.write_text(doc)
        return _scene_args(command, d) + ["--merge-config", str(mc)], [f"{mc}: ", detail]
    return run


def _gradcheck_config(doc, detail):
    def run(d):
        cfg = d / "merger.json"
        cfg.write_text(doc)
        return ["gradcheck", "--config", str(cfg)], [f"{cfg}: ", detail]
    return run


def _tiny_voxel(command):
    """A voxel size whose keys of the scene's points do not fit int64."""
    def run(d):
        argv, _ = _merge_config(command, '{"voxel_size": 1e-20}', None)(d)
        return argv, ["voxel_size 1e-20 puts a voxel key outside int64"]
    return run


def _config_file(command, content, detail):
    """``command`` with a config file of the bytes ``content`` (no file when
    None); the error names the file in ``detail``'s braces."""
    def run(d):
        cfg = d / "config.json"
        if content is not None:
            cfg.write_bytes(content)
        flag = (["gradcheck", "--config"] if command == "gradcheck"
                else _scene_args(command, d) + ["--merge-config"])
        return flag + [str(cfg)], [detail.format(cfg)]
    return run


def _frame_0_keys_past_int64(edit):
    """pipeline on the scene after ``edit(d)`` sent frame 0's lifted points
    past int64 voxel keys; frame 0's first fragment is box1's (box0's mask
    erodes to nothing there)."""
    def run(d):
        edit(d)
        return _scene_args("pipeline", d), [
            "error: frame 0: object 'box1': voxel_size 0.05 puts a voxel key outside int64"]
    return run


def _tiny_fx(d):
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["frames"][0]["intrinsics"]["fx"] = 1e-300
    (d / "manifest.json").write_text(json.dumps(manifest))


def _huge_depth(d):
    path = d / "depth" / "0000.dmap"
    save_dmap(path, np.full_like(load_dmap(path), 1e31))


def _frame_0_intrinsics(command, field, value, detail):
    """``command`` on the scene after frame 0's intrinsics field ``field``
    became ``value``: exit 2 naming the frame and the field."""
    def run(d):
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["frames"][0]["intrinsics"][field] = value
        (d / "manifest.json").write_text(json.dumps(manifest))
        return _scene_args(command, d), [f"manifest.json: frames[0]: bad intrinsics ({detail}"]
    return run


def _frame_0_intrinsics_record(command, value):
    """``command`` on the scene after frame 0's intrinsics became ``value``,
    which is no JSON object."""
    def run(d):
        manifest = json.loads((d / "manifest.json").read_text())
        manifest["frames"][0]["intrinsics"] = value
        (d / "manifest.json").write_text(json.dumps(manifest))
        return _scene_args(command, d), [f"manifest.json: frames[0]: field 'intrinsics' must be "
                                         f"an object, got {json.dumps(value)}"]
    return run


def _stride_zero(command):
    def run(d):
        return _scene_args(command, d) + ["--stride", "0"], ["stride must be >= 1, got 0"]
    return run


def _flag(command, flag, value):
    """``command`` with ``flag value`` out of range; the error names both."""
    def run(d):
        args = _scene_args("sample", d) if command == "sample" else [command]
        return args + [flag, value], [f"error: {flag} must be ", f"got {value}"]
    return run


def _empty_gt(command, lifts_nothing=False):
    """``command`` with ground truth that holds no instance: eval-3d's --gt
    file, the pipeline scene's instances.json; with ``lifts_nothing`` the
    pipeline runs on tracks whose one track is absent from all 6 frames."""
    def run(d):
        gt = d / "instances.json"
        gt.write_text(json.dumps({"schema": "geovos.instances/1", "instances": []}))
        if command == "eval-3d":
            argv, where = ["eval-3d", "--pred", str(_instances_file(d / "pred.json", [0, 1])),
                           "--gt", str(gt)], gt
        else:
            masks = save_tracks({"box0": MaskTrack([None] * 6)}, d / "absent") \
                if lifts_nothing else None
            argv = _scene_args(command, d, masks=masks)
            where = f"{d / 'manifest.json'}: field 'gt_instances'"
        return argv, [f"error: {where}: eval_ap requires a nonempty ground-truth set"]
    return run


_3D = ("pipeline", "lift", "merge")

# run on the scene of json_scene_dir: its superpoints.json is read as JSON
JSON_SUPERPOINT_CORRUPTIONS = {
    "pipeline-negative-superpoint-label": _edit_json("superpoints.json", _negative_label,
                                                     "manifest.json"),
    "pipeline-short-label-list": _edit_json("superpoints.json", _short_label_list,
                                            "superpoints.json"),
    "pipeline-string-label-list": _edit_json("superpoints.json", _string_labels,
                                             "superpoints.json"),
    "pipeline-two-coordinate-points": _edit_json("superpoints.json", _two_coordinate_points,
                                                 "superpoints.json"),
    "pipeline-bool-in-point-row": _edit_json("superpoints.json", _bool_in_point_row,
                                             "superpoints.json"),
    "pipeline-superpoints-not-object": _json_list("superpoints.json", "superpoints"),
    "pipeline-superpoints-json-not-text": _json_not_text("superpoints.json"),
}

CORRUPTIONS = {
    "eval-3d-fractional-ids": _eval_3d([0.5, 1.7, 2.2]),
    "eval-3d-negative-id": _eval_3d([-1, 0, 1]),
    "eval-3d-nested-ids": _eval_3d([[0, 1], [2, 3]]),
    "eval-3d-id-past-int64": _eval_3d([10**30]),
    "eval-3d-string-id": _eval_3d(["a"]),
    "eval-3d-string-confidence": _eval_3d([0, 1], confidence="x"),
    "eval-3d-nan-confidence": _eval_3d([0, 1], confidence=float("nan")),
    **{f"{c}-short-dmap": _short_dmap(c) for c in _3D + ("sample",)},
    "pipeline-pose-nan": _bad_pose("pipeline", b"nan", "non-finite pose entry"),
    "sample-pose-inf": _bad_pose("sample", b"-inf", "non-finite pose entry"),
    "merge-pose-not-utf8": _bad_pose("merge", b"\xff0.5", "non-numeric pose entry"),
    # finite rows whose Gram product overflows: numpy warned on stderr first
    "sample-pose-overflow": _bad_pose("sample", b"1e200 1e200 0 0 -1e200 1e200 0 0".split(),
                                      "rotation block not orthonormal", at=slice(0, 8)),
    **JSON_SUPERPOINT_CORRUPTIONS,
    **NPZ_CORRUPTIONS,
    "pipeline-dangling-gt-point-id": _edit_json("instances.json", _dangling_gt_id,
                                                "manifest.json"),
    "pipeline-fractional-gt-id": _edit_json("instances.json", _fractional_gt_id,
                                            "instances.json"),
    "pipeline-manifest-not-object": _json_list("manifest.json", "manifest"),
    "pipeline-tracks-not-object": _json_list("tracks/tracks.json", "tracks"),
    **{f"pipeline-{name}": _edit_json("tracks/tracks.json", edit, "tracks/tracks.json")
       for name, edit in [("tracks-field-list", _tracks_field_list),
                          ("track-entry-number", _track_entry_number),
                          ("track-frame-number", _track_frame_number),
                          ("tracks-length-string", _tracks_length_string)]},
    **{f"pipeline-{name}": _edit_json("manifest.json", edit, "manifest.json")
       for name, edit in [("frames-number", _frames_number),
                          ("frame-not-object", _frame_not_object),
                          ("frame-masks-list", _frame_masks_list),
                          ("frame-mask-number", _frame_mask_number),
                          ("frame-depth-number", _frame_depth_number),
                          ("superpoints-number", _superpoints_number),
                          ("gt-instances-list", _gt_instances_list)]},
    **{f"{c}-tracks-shorter-than-scene": _short_tracks(c) for c in _3D},
    **{f"{c}-track-mask-wrong-size": _big_track_mask(c) for c in _3D},
    **{f"{c}-merge-config-out-of-range": _merge_config(c, '{"theta_3d": 2.0}', "theta_3d")
       for c in _3D},
    "pipeline-merge-config-unknown-key": _merge_config("pipeline", '{"voxel_sz": 0.1}',
                                                       "'voxel_sz'"),
    "pipeline-merge-config-list": _merge_config("pipeline", "[1, 2]", "list"),
    "pipeline-merge-config-string-value": _merge_config("pipeline", '{"voxel_size": "0.1"}',
                                                        "'voxel_size' must be a number"),
    **{f"{c}-merge-config-tiny-voxel": _tiny_voxel(c) for c in ("merge", "pipeline")},
    "pipeline-merge-config-infinite-voxel": _merge_config(
        "pipeline", '{"voxel_size": Infinity}', "voxel_size must be finite and > 0, got inf"),
    "pipeline-merge-config-nan-voxel": _merge_config(
        "pipeline", '{"voxel_size": NaN}', "voxel_size must be finite and > 0, got nan"),
    "lift-merge-config-negative-eps-rel": _merge_config(
        "lift", '{"eps_rel": -1}', "eps_rel must be finite and >= 0, got -1"),
    "lift-merge-config-nan-eps-rel": _merge_config(
        "lift", '{"eps_rel": NaN}', "eps_rel must be finite and >= 0, got nan"),
    "pipeline-merge-config-infinite-eps-rel": _merge_config(
        "pipeline", '{"eps_rel": Infinity}', "eps_rel must be finite and >= 0, got inf"),
    "pipeline-merge-config-not-utf8": _config_file("pipeline", b"\xff{}",
                                                   "error: {}: invalid JSON ("),
    "pipeline-merge-config-missing": _config_file("pipeline", None,
                                                  "error: config file not found: {}"),
    "pipeline-tiny-fx-keys-past-int64": _frame_0_keys_past_int64(_tiny_fx),
    "pipeline-huge-depth-keys-past-int64": _frame_0_keys_past_int64(_huge_depth),
    # frame 0's intrinsics: an infinite focal length, a pixel field that is no JSON
    # number or past the float range, a raster size that is no JSON integer
    **{f"{c}-{name}": _frame_0_intrinsics(c, field, value, detail)
       for c in ("lift", "pipeline", "sample")
       for name, field, value, detail in [
           ("infinite-fx", "fx", float("inf"),
            "focal lengths must be positive and finite, got fx=inf"),
           ("fractional-width", "width", 32.7, "field 'width' must be an integer, got 32.7"),
           ("string-fx", "fx", "32", 'field \'fx\' must be a number, got "32"'),
           ("bool-width", "width", True, "field 'width' must be an integer, got true"),
           ("fx-past-float", "fx", 10**400, "field 'fx' is too large for a float")]},
    **{f"{c}-intrinsics-{name}": _frame_0_intrinsics_record(c, value)
       for c in ("lift", "pipeline", "sample")
       for name, value in [("list", [32]), ("string", "x"), ("null", None)]},
    # frame 2's box0 mask file, which a draw for box0 and a 3D command without --masks read
    **{f"{c}-scene-mask-{fault}": _scene_mask_fault(c, fault)
       for c in ("sample", *_3D) for fault in SCENE_MASK_FAULTS},
    **{f"{c}-stride-zero": _stride_zero(c) for c in _3D},
    "gradcheck-config-list": _gradcheck_config("[1, 2]", "list"),
    "gradcheck-config-invalid-json": _gradcheck_config("{", "invalid JSON"),
    "gradcheck-config-unknown-key": _gradcheck_config('{"nope": 3}', "'nope'"),
    "gradcheck-config-threshold-key": _gradcheck_config('{"threshold": 1}', "'threshold'"),
    "gradcheck-config-seed-key": _gradcheck_config('{"seed": 1}', "unknown config key 'seed'"),
    "gradcheck-config-string-heads": _gradcheck_config('{"heads": "2"}',
                                                       "'heads' must be an integer"),
    "gradcheck-config-fractional-width": _gradcheck_config('{"c_in": 1.5}',
                                                           "'c_in' must be an integer"),
    "gradcheck-config-layers-string": _gradcheck_config('{"selected_layers": "encoder"}',
                                                        "'selected_layers' must be a list"),
    "gradcheck-config-zero-heads": _gradcheck_config('{"heads": 0}', "heads must be >= 1"),
    "gradcheck-config-zero-c-mid": _gradcheck_config('{"c_mid": 0}', "c_mid must be >= 1"),
    "gradcheck-config-zero-c-f2d": _gradcheck_config('{"c_f2d": 0}', "c_f2d must be >= 1"),
    "gradcheck-config-not-utf8": _config_file("gradcheck", b"\xff{}",
                                              "error: {}: invalid JSON ("),
    "gradcheck-config-missing": _config_file("gradcheck", None,
                                             "error: config file not found: {}"),
    "sample-unknown-object": lambda d: (
        _scene_args("sample", d) + ["--obj", "nope"],
        ["error: object 'nope' has no mask in any frame (scene objects: box0, box1)"]),
    **{f"{c}-empty-gt": _empty_gt(c) for c in ("eval-3d", "pipeline")},
    "pipeline-empty-gt-no-fragment": _empty_gt("pipeline", lifts_nothing=True),
    "sample-negative-seed": _flag("sample", "--seed", "-1"),
    "gradcheck-negative-seed": _flag("gradcheck", "--seed", "-1"),
    "gradcheck-nan-threshold": _flag("gradcheck", "--threshold", "nan"),
    "gradcheck-zero-threshold": _flag("gradcheck", "--threshold", "0.0"),
    "gradcheck-infinite-threshold": _flag("gradcheck", "--threshold", "inf"),
}


def _child_env() -> dict:
    """This environment, with the imported geovos first on PYTHONPATH."""
    src = str(Path(geovos.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_input_exit_2(scene_dir, json_scene_dir, tmp_path, case):
    """Each subcommand x corruption exits 2 with one stderr line naming the
    path or field, and no traceback."""
    d = tmp_path / "scene"
    shutil.copytree(json_scene_dir if case in JSON_SUPERPOINT_CORRUPTIONS else scene_dir, d)
    argv, named = CORRUPTIONS[case](d)
    proc = subprocess.run([sys.executable, "-m", "geovos.cli", *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    # numpy's reason for a file that is no npz at all would name pickles
    assert "pickled" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    for name in named:
        assert name in err[0], (name, err[0])


@pytest.mark.parametrize("command", ["lift", "pipeline", "sample"])
def test_non_finite_points_exit_2_naming_the_frame(scene_dir, tmp_path, command):
    """A principal point that sends frame 2's back-projected points past the
    float64 range: one stderr line that names the frame, no numpy warning."""
    d = tmp_path / "scene"
    shutil.copytree(scene_dir, d)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["frames"][2]["intrinsics"]["cx"] = -1e308
    (d / "manifest.json").write_text(json.dumps(manifest))
    proc = subprocess.run([sys.executable, "-m", "geovos.cli", *_scene_args(command, d)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == EXIT_INPUT_ERROR, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1, err
    assert re.fullmatch(r"error: frame 2: object 'box\d': point cloud contains non-finite "
                        r"coordinates", err[0]), err


def test_cli_import_leaves_out_sampler_and_merger():
    """The 3D commands load neither the sampler nor the feature merger:
    ``sample`` and ``gradcheck`` import them when they run."""
    code = ("import sys, geovos.cli; "
            "print(sorted(m for m in ('geovos.sampler', 'geovos.merger') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _entry_outcome(entry: str, argv: list, report=None):
    """Exit code, stdout (wall times masked), stderr and report bytes of one
    process that runs ``argv`` through ``geovos.cli``'s ``entry``:
    ``"run"`` as ``python -m geovos.cli``, ``"main"`` called directly."""
    if entry == "run":
        cmd = [sys.executable, "-m", "geovos.cli", *argv]
    else:
        cmd = [sys.executable, "-c", "import sys; from geovos import cli; "
               f"sys.argv[1:] = {argv!r}; sys.exit(cli.main())"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), timeout=120)
    report_bytes = None
    if report is not None and report.exists():
        report_bytes = report.read_bytes()
        report.unlink()
    return (proc.returncode, re.sub(r"\(\d+\.\d+s\)", "(T)", proc.stdout), proc.stderr,
            report_bytes)


class TestRunEntry:
    """``cli.run`` (the console script and ``python -m geovos.cli``) is
    ``main`` followed by ``gc.freeze()``."""

    def test_same_outcome_as_main(self, scene_dir, tmp_path):
        d = tmp_path / "scene"
        shutil.copytree(scene_dir, d)
        report = tmp_path / "report.jsonl"
        pipeline = ["pipeline", "--scene", str(d / "manifest.json"),
                    "--masks", str(d / "tracks" / "tracks.json"), "--out", str(report)]
        codes = []
        for argv in (["synth", "--out", str(tmp_path / "synth"), "--resolution", "16"],
                     pipeline):
            run = _entry_outcome("run", argv, report)
            assert run == _entry_outcome("main", argv, report)
            codes.append(run[0])
        assert run[3]  # the pipeline wrote its report
        _bad_pose("pipeline", b"nan", "")(d)
        run = _entry_outcome("run", pipeline, report)
        assert run == _entry_outcome("main", pipeline, report)
        assert codes + [run[0]] == [EXIT_OK, EXIT_OK, EXIT_INPUT_ERROR]
        assert run[2].startswith("error: ") and run[2].count("\n") == 1 and run[3] is None

    def test_run_freezes_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_INPUT_ERROR)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        assert cli.run() == EXIT_INPUT_ERROR
        assert calls == ["main", "freeze"]

    def test_main_does_not_freeze(self, scene_dir, tmp_path):
        before = gc.get_freeze_count()
        assert main(["pipeline", "--scene", str(scene_dir / "manifest.json"),
                     "--masks", str(scene_dir / "tracks" / "tracks.json"),
                     "--out", str(tmp_path / "r.jsonl")]) == EXIT_OK
        assert main(["sample", "--scene", str(tmp_path / "none.json")]) == EXIT_INPUT_ERROR
        assert gc.get_freeze_count() == before


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
        err = capsys.readouterr().err
        assert f"error: {pr_p}: track 'o': track lengths differ: pred 1 vs gt 2" in err

    def test_mask_sizes_differ_exit_2(self, tmp_path, capsys):
        gt_p = save_tracks({"o": MaskTrack([np.ones((4, 4), bool)])}, tmp_path / "gt")
        pr_p = save_tracks({"o": MaskTrack([np.ones((5, 5), bool)])}, tmp_path / "pr")
        code = main(["eval-vos", "--pred", str(pr_p), "--gt", str(gt_p)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"error: {pr_p}: track 'o': mask shapes differ: (5, 5) vs (4, 4)" in err


class TestGradcheck:
    def test_header_echoes_the_config(self, tmp_path):
        from geovos.merger import MergerConfig

        headers = []
        for c_f2d in (2, 3):
            cfg, out = tmp_path / f"cfg{c_f2d}.json", tmp_path / f"{c_f2d}.jsonl"
            cfg.write_text(json.dumps({**TINY_MERGER, "c_f2d": c_f2d}))
            assert main(["gradcheck", "--config", str(cfg), "--seed", "1",
                         "--out", str(out)]) == EXIT_OK
            headers.append(read_lines(out)[0]["config"])
        assert headers[0] == {"seed": 1, "threshold": 1e-3, **TINY_MERGER}
        assert headers[1] == {**headers[0], "c_f2d": 3}
        assert set(TINY_MERGER) == {f.name for f in fields(MergerConfig)}

    def test_tiny_config_passes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_MERGER))
        assert main(["gradcheck", "--config", str(cfg), "--seed", "1"]) == EXIT_OK

    def test_corrupt_hook_fails(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_MERGER))
        perturb_proj_w_gradient(monkeypatch)
        out = tmp_path / "report.jsonl"
        code = main(["gradcheck", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert code == EXIT_CHECK_FAILED
        aggregate = json.loads(out.read_text().splitlines()[-1])["aggregate"]
        assert aggregate["failed_tensors"] == ["param:proj.w"]

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
