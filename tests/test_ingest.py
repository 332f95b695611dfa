"""File formats, manifests, and the synthetic box world."""

import json
import re

import numpy as np
import pytest

from conftest import make_intrinsics, random_pose
from geovos.cli import boxworld_preset
from geovos.geometry import CameraFrame, CameraPose, back_project
from geovos.ingest import (BadMagicError, BadMaskError, BadPoseError, Box,
                           FormatVersionError, LengthMismatchError, ManifestError,
                           MissingFileError, Scene, generate_boxworld, load_dmap, load_instances,
                           load_mask_pgm, load_pose, load_scene, load_tracks, save_dmap,
                           save_instances, save_mask_pgm, save_pose, save_scene,
                           save_tracks)
from geovos.metrics import MaskTrack


class TestDmap:
    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 5, size=(7, 11)).astype(np.float32)
        values[0, 0] = 0.0
        values[1, 1] = np.inf
        p1, p2 = tmp_path / "a.dmap", tmp_path / "b.dmap"
        save_dmap(p1, values)
        loaded = load_dmap(p1)
        save_dmap(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded, values)

    def test_truncated_length_error(self, tmp_path):
        p = tmp_path / "t.dmap"
        save_dmap(p, np.ones((4, 4), np.float32))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(LengthMismatchError):
            load_dmap(p)

    def test_trailing_garbage_error(self, tmp_path):
        p = tmp_path / "t.dmap"
        save_dmap(p, np.ones((4, 4), np.float32))
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(LengthMismatchError):
            load_dmap(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.dmap"
        save_dmap(p, np.ones((2, 2), np.float32))
        blob = p.read_bytes()
        p.write_bytes(b"XMAP" + blob[4:])
        with pytest.raises(BadMagicError):
            load_dmap(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "t.dmap"
        save_dmap(p, np.ones((2, 2), np.float32))
        blob = bytearray(p.read_bytes())
        blob[4] = 9
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionError):
            load_dmap(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dmap(tmp_path / "nope.dmap")


class TestMaskPgm:
    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((9, 6)) < 0.4
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_mask_pgm(p1, mask)
        loaded = load_mask_pgm(p1)
        save_mask_pgm(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded, mask)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n15\n" + bytes(4))
        with pytest.raises(BadMaskError):
            load_mask_pgm(p)

    def test_not_p5(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(BadMaskError):
            load_mask_pgm(p)

    def test_short_raster(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n3 3\n255\n" + bytes(5))
        with pytest.raises(LengthMismatchError):
            load_mask_pgm(p)


class TestPoseFile:
    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        pose = random_pose(rng)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_pose(p1, pose)
        loaded = load_pose(p1)
        save_pose(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.rotation, pose.rotation)
        np.testing.assert_array_equal(loaded.translation, pose.translation)

    def test_wrong_token_count(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1 0 0\n")
        with pytest.raises(BadPoseError):
            load_pose(p)

    def test_last_row_must_be_exact(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0.1 1\n")
        with pytest.raises(BadPoseError):
            load_pose(p)

    def test_non_orthonormal_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1 0.01 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(BadPoseError):
            load_pose(p)

    def test_near_miss_snapped_to_rotation(self, tmp_path):
        rng = np.random.default_rng(3)
        rot = random_pose(rng).rotation.copy()
        rot[0, 0] += 3e-5  # inside the 1e-4 file tolerance, outside 1e-6
        p = tmp_path / "p.txt"
        rows = [" ".join(repr(float(x)) for x in rot[i]) + " 0.0" for i in range(3)]
        p.write_text("\n".join(rows) + "\n0 0 0 1\n")
        pose = load_pose(p)  # CameraPose would reject an unsnapped block
        assert np.max(np.abs(pose.rotation.T @ pose.rotation - np.eye(3))) < 1e-9

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text(" ".join(["x"] * 16))
        with pytest.raises(BadPoseError):
            load_pose(p)


class TestSceneRoundtrip:
    def test_save_load_save_identical_tree(self, tmp_path):
        boxes, cams = boxworld_preset("two-cubes", 24)
        world = generate_boxworld(boxes, cams)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        m1 = save_scene(world.scene, d1)
        scene = load_scene(m1)
        m2 = save_scene(scene, d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_save_scene_twice_same_superpoints_bytes(self, tmp_path, monkeypatch):
        # the npz entries carry a fixed timestamp: a later clock changes nothing
        import time

        world = generate_boxworld(*boxworld_preset("two-cubes", 16))
        save_scene(world.scene, tmp_path / "one")
        monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
        manifest = save_scene(world.scene, tmp_path / "two")
        assert json.loads(manifest.read_text())["superpoints"] == "superpoints.npz"
        first = (tmp_path / "one" / "superpoints.npz").read_bytes()
        assert first == (tmp_path / "two" / "superpoints.npz").read_bytes()

    def test_loaded_scene_matches(self, tmp_path):
        boxes, cams = boxworld_preset("one-box", 16)
        world = generate_boxworld(boxes, cams)
        manifest = save_scene(world.scene, tmp_path)
        scene = load_scene(manifest)
        assert len(scene.frames) == len(world.scene.frames)
        for a, b in zip(scene.frames, world.scene.frames):
            np.testing.assert_array_equal(a.depth, b.depth)
            np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-14)
            assert sorted(a.masks) == sorted(b.masks)
            for k in a.masks:
                np.testing.assert_array_equal(a.masks[k], b.masks[k])
        np.testing.assert_allclose(scene.scene_points, world.scene.scene_points)
        np.testing.assert_array_equal(scene.superpoints, world.scene.superpoints)
        for a, b in zip(scene.gt_instances.instances, world.gt_instances.instances):
            np.testing.assert_array_equal(a.point_ids, b.point_ids)

    def test_missing_depth_file_named(self, tmp_path):
        boxes, cams = boxworld_preset("one-box", 16)
        world = generate_boxworld(boxes, cams)
        manifest = save_scene(world.scene, tmp_path)
        (tmp_path / "depth" / "0002.dmap").unlink()
        with pytest.raises(MissingFileError, match="0002"):
            load_scene(manifest)

    def test_bad_schema(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"schema": "other/9", "frames": []}')
        with pytest.raises(ManifestError, match="schema"):
            load_scene(p)

    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"schema": "geovos.scene/1"}')
        with pytest.raises(ManifestError, match="frames"):
            load_scene(p)

    def test_three_frame_fixture_loads(self, tmp_path):
        boxes, cams = boxworld_preset("two-cubes", 16)
        world = generate_boxworld(boxes, cams[:3])
        manifest = save_scene(world.scene, tmp_path)
        scene = load_scene(manifest)
        assert len(scene.frames) == 3
        assert scene.object_ids == ["box0", "box1"]


class TestTracksFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        tracks = {
            "a": MaskTrack([rng.random((5, 5)) < 0.5, None, rng.random((5, 5)) < 0.5]),
            "b": MaskTrack([None, None, np.ones((5, 5), bool)]),
        }
        path = save_tracks(tracks, tmp_path / "tr")
        loaded = load_tracks(path)
        assert sorted(loaded) == ["a", "b"]
        for key in tracks:
            for got, want in zip(loaded[key].masks, tracks[key].masks):
                if want is None or not want.any():
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want)

    def test_box_world_set_up_leaves_extents_uncomputed(self, tmp_path):
        # generating and saving a scene's tracks makes no extent pass over the masks
        boxes, cams = boxworld_preset("two-cubes", 16)
        world = generate_boxworld(boxes, cams, resolution=(16, 16))
        save_tracks(world.gt_tracks, tmp_path / "tr")
        assert not any("extents" in vars(t) for t in world.gt_tracks.values())
        # and the tracks share the frames' read-only masks, no copies
        for obj, track in world.gt_tracks.items():
            assert all(m is f.masks.get(obj) for m, f in zip(track.masks, world.scene.frames))

    def test_masks_checked_against_scene(self, tmp_path):
        intr = make_intrinsics(width=5, height=5)
        frames = [CameraFrame(t, intr, CameraPose.identity()) for t in range(3)]
        good, bad = np.ones((5, 5), bool), np.ones((4, 6), bool)
        path = save_tracks({"a": MaskTrack([good, None, good]),
                            "b": MaskTrack([None, good, bad])}, tmp_path / "tr")
        assert sorted(load_tracks(path)) == ["a", "b"]  # no scene, no check
        with pytest.raises(BadMaskError) as err:
            load_tracks(path, Scene("s", frames))
        assert str(err.value) == f"{path}: track 'b' frame 2: mask is 6x4, frame is 5x5"
        # a scene of another length is named by the file's 'length' field
        with pytest.raises(ManifestError) as err:
            load_tracks(path, Scene("s", frames[:2]))
        assert str(err.value) == f"{path}: field 'length' is 3, scene has 2 frames"

    def test_instances_roundtrip(self, tmp_path):
        from geovos.instance3d import Instance, InstanceSet
        inst = InstanceSet([Instance(confidence=0.25,
                                     point_ids=np.array([3, 1, 2], np.int64))])
        p = tmp_path / "inst.json"
        save_instances(p, inst)
        loaded = load_instances(p)
        assert loaded.instances[0].confidence == 0.25
        np.testing.assert_array_equal(loaded.instances[0].point_ids, [3, 1, 2])

    def test_instances_missing_field(self, tmp_path):
        p = tmp_path / "inst.json"
        p.write_text('{"schema": "geovos.instances/1", "instances": [{"confidence": 1}]}')
        with pytest.raises(ManifestError, match="point_ids"):
            load_instances(p)

    @pytest.mark.parametrize("field, value", [
        ("point_ids", [0.5, 1.7, 2.2]),
        ("point_ids", [1.0]),
        ("point_ids", [-1, 0, 1]),
        ("point_ids", [[0, 1], [2, 3]]),
        ("point_ids", [[0], [1, 2]]),
        ("point_ids", [10**30]),
        ("point_ids", [2**63]),
        ("point_ids", ["a"]),
        ("point_ids", [None]),
        ("point_ids", [True]),
        ("point_ids", [1, True]),
        ("point_ids", 3),
        ("point_ids", "012"),
        ("confidence", "x"),
        ("confidence", None),
        ("confidence", True),
        ("confidence", float("nan")),
        ("confidence", float("inf")),
        ("confidence", 10**400),
    ], ids=["fractional", "float", "negative", "nested", "ragged", "past-int64", "2**63",
            "string", "null", "bool", "int-and-bool", "scalar", "string-list", "conf-string", "conf-null",
            "conf-bool", "conf-nan", "conf-inf", "conf-past-float"])
    def test_instances_malformed_field(self, tmp_path, field, value):
        rec = {"point_ids": [0, 1], "confidence": 0.5, field: value}
        p = tmp_path / "inst.json"
        p.write_text(json.dumps({"schema": "geovos.instances/1",
                                 "instances": [{"point_ids": [2]}, rec]}))
        with pytest.raises(ManifestError) as err:
            load_instances(p)
        msg = str(err.value)
        assert msg.startswith(f"{p}: instances[1]: field '{field}' must be ")
        assert "\n" not in msg

    def test_instances_accepted_ids(self, tmp_path):
        # any non-negative int64 is an id: no scene bounds them here
        p = tmp_path / "inst.json"
        biggest = 2**63 - 1
        p.write_text(json.dumps({"schema": "geovos.instances/1", "instances": [
            {"point_ids": [5, 5, 0, 10**9, biggest], "confidence": 2},
            {"point_ids": []},
        ]}))
        loaded = load_instances(p).instances
        assert loaded[0].point_ids.dtype == np.int64
        assert loaded[0].point_ids.tolist() == [5, 5, 0, 10**9, biggest]
        assert loaded[0].confidence == 2.0 and type(loaded[0].confidence) is float
        assert loaded[1].point_ids.dtype == np.int64 and loaded[1].point_ids.size == 0
        assert loaded[1].confidence == 1.0

    @pytest.mark.parametrize("doc, named", [
        ([], "must hold a JSON object, got list"),
        ({"schema": "geovos.instances/1", "instances": {"a": 1}}, "field 'instances'"),
        ({"schema": "geovos.instances/1", "instances": [[0, 1]]}, "instances[0] missing"),
    ], ids=["list-document", "instances-object", "instance-list"])
    def test_instances_malformed_document(self, tmp_path, doc, named):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=re.escape(named)):
            load_instances(p)

    def test_pointset_roundtrip(self, tmp_path):
        from geovos.ingest import load_pointset, save_pointset
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(17, 3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_pointset(p1, pts)
        loaded = load_pointset(p1)
        save_pointset(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded, pts)

    def test_superpoints_npz_roundtrip(self, tmp_path):
        from geovos.ingest import load_superpoints, save_superpoints
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3)) * 1e3
        pts[0] = [-0.0, 1e-308, 2**53]
        labels = rng.integers(0, 7, size=50)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_superpoints(p1, pts.T.copy().T, labels)  # F-ordered input, C-ordered file
        points, loaded = load_superpoints(p1)
        save_superpoints(p2, points, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert points.dtype == np.float64 and loaded.dtype == np.int64
        assert points.tobytes() == pts.tobytes() and loaded.tolist() == labels.tolist()
        with np.load(p1) as npz:
            assert sorted(npz.files) == ["labels", "points"]
        save_superpoints(p1, np.zeros((0, 3)), np.zeros(0, np.int64))
        points, loaded = load_superpoints(p1)
        assert points.shape == (0, 3) and loaded.shape == (0,)

    def test_superpoints_reader_by_suffix(self, tmp_path):
        from geovos.ingest import load_superpoints, save_superpoints
        doc = {"schema": "geovos.superpoints/1", "points": [[0.5, 1, 2]], "labels": [0]}
        for name in ("sp.json", "sp.dat", "sp"):
            (tmp_path / name).write_text(json.dumps(doc))
            points, labels = load_superpoints(tmp_path / name)
            assert points.tolist() == [[0.5, 1.0, 2.0]] and labels.tolist() == [0]
        save_superpoints(tmp_path / "sp.json", [[0.5, 1, 2]], [0])  # npz bytes, JSON name
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_superpoints(tmp_path / "sp.json")
        with pytest.raises(MissingFileError, match="superpoints file not found"):
            load_superpoints(tmp_path / "gone.npz")

    @pytest.mark.parametrize("field, value", [
        ("labels", "x"), ("labels", ["x"]), ("labels", [1.5]), ("labels", [True]),
        ("labels", [0, True]), ("labels", [[0]]), ("labels", [2**63]),
        ("points", [[1, 2]]), ("points", [1.0, 2.0, 3.0]), ("points", [["a", "b", "c"]]),
        ("points", [[1.0, None, 2.0]]), ("points", [[True, False, True]]),
        ("points", [[1, 2, 3], [4, 5]]), ("points", "xyz"), ("points", [[1, True, 2]]),
        ("points", [[0.5, 1.5, 2.5], [1, 2, False]]), ("points", [[1, 2, 3], "abc"]),
        ("points", [[1, 2, 3], 4]), ("points", [[1, 2, {"z": 3}]]),
    ], ids=["labels-string", "labels-strings", "labels-float", "labels-bool",
            "labels-int-and-bool", "labels-nested", "labels-past-int64", "points-two-coords",
            "points-flat", "points-strings", "points-null", "points-bools", "points-ragged",
            "points-string", "points-int-and-bool", "points-float-and-bool",
            "points-string-row", "points-number-row", "points-object-coordinate"])
    def test_superpoints_malformed_field(self, tmp_path, field, value):
        from geovos.ingest import load_pointset, load_superpoints
        doc = {"schema": "geovos.superpoints/1", "points": [[0.0, 1.0, 2.0]], "labels": [0],
               field: value}
        p = tmp_path / "sp.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as err:
            load_superpoints(p)
        assert str(err.value).startswith(f"{p}: field '{field}' must be ")
        if field == "points":
            p.write_text(json.dumps({"schema": "geovos.points/1", "points": value}))
            with pytest.raises(ManifestError, match=re.escape(f"{p}: field 'points' must be ")):
                load_pointset(p)

    def test_superpoints_accept_int_coordinates_and_empty(self, tmp_path):
        from geovos.ingest import load_pointset, load_superpoints
        p = tmp_path / "sp.json"
        p.write_text(json.dumps({"schema": "geovos.superpoints/1",
                                 "points": [[1, 2, 3], [0.5, -1, 2**40]], "labels": [3, 0]}))
        points, labels = load_superpoints(p)
        assert points.dtype == np.float64 and points.tolist() == [[1, 2, 3], [0.5, -1, 2**40]]
        assert labels.dtype == np.int64 and labels.tolist() == [3, 0]
        p.write_text(json.dumps({"schema": "geovos.points/1", "points": []}))
        assert load_pointset(p).shape == (0, 3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_point_lists_as_written_elementwise(self, tmp_path, dtype):
        # tolist() writes the same bytes as converting coordinate by coordinate
        from geovos.ingest import save_pointset
        pts = (np.random.default_rng(7).normal(size=(11, 3)) * 100).astype(dtype)
        save_pointset(tmp_path / "p.json", pts)
        want = {"schema": "geovos.points/1", "points": [[float(c) for c in p] for p in pts]}
        assert (tmp_path / "p.json").read_text() == json.dumps(want, indent=2) + "\n"


class TestJsonWriter:
    """``_write_json`` writes the bytes of ``json.dumps(obj, indent=2) + "\\n"``."""

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], {"a": {}, "b": [], "c": [[]]}, [[], [1]], [[1], []],
        [None, True, False, 0, -7, 10**30, 2.5, -0.0, 1e-300, float("nan"), float("inf"),
         -float("inf")],
        [[None, True], [1, 2.5, float("nan")], [-float("inf")]],
        ["a, b", "], [", "[[1, 2], [3]]"], [["], [", 1], [2, ", "]], {"k, v": ", ", "], [": [1, 2]},
        [[1, 2, 3], [4], [5, 6]], [[1, [2, [3, [4]]]], [{"x": [[1.5, 2.5]]}]],
        {"a": {"b": {"c": {"d": [[1, 2], [3, 4]], "e": [{"f": []}]}}}},
        {"ünï": [1, 2], "κλειδί": {"键": [[0.5]]}, "\n\t\"": "x"},
        {1: [1, 2], "b": 2}, {"t": (1, [2, 3]), "n": [np.float64(1.5), 2]},
        "text", 7, None, [[1, 2], "a"], [[True]], [[[1]]],
    ], ids=["empty-dict", "empty-list", "empty-row", "empty-values", "empty-first-row",
            "empty-last-row", "scalars", "scalar-rows", "strings-with-separators",
            "rows-with-strings", "keys-with-separators", "ragged-rows", "deep-lists",
            "deep-dicts", "non-ascii-keys", "int-key", "tuple-and-numpy-scalar", "string",
            "int", "null", "row-then-string", "bool-row", "nested-rows"])
    def test_matches_indent_2(self, tmp_path, obj):
        from geovos.ingest import _write_json
        p = tmp_path / "doc.json"
        _write_json(p, obj)
        assert p.read_text() == json.dumps(obj, indent=2) + "\n"

    def test_boxworld_files_match_plain_encoder(self, tmp_path, monkeypatch):
        from pathlib import Path

        from geovos import ingest
        world = generate_boxworld(*boxworld_preset("two-cubes", 16))

        def save(out):
            save_scene(world.scene, out)
            save_tracks(world.gt_tracks, out / "tracks")
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        fast = save(tmp_path / "fast")
        # the savers hand numpy arrays to the writer: the plain encoder takes
        # each as its tolist()
        monkeypatch.setattr(ingest, "_write_json", lambda path, obj: Path(path).write_text(
            json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"))
        plain = save(tmp_path / "plain")
        assert {p.name for p in fast} >= {"manifest.json", "instances.json", "tracks.json"}
        assert fast == plain

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_blocks_and_arrays_match_indent_2(self, tmp_path, monkeypatch, block):
        from geovos import ingest
        monkeypatch.setattr(ingest, "JSON_BLOCK", block)
        rows = np.random.default_rng(0).normal(size=(7, 3))
        rows[1, 2] = np.nan
        obj = {
            "rows": rows, "row-list": rows.tolist(), "f32-rows": rows.astype(np.float32),
            "int-rows": np.arange(12, dtype=np.int64).reshape(4, 3) - 5,
            "ints": np.arange(7, dtype=np.int64), "int-list": list(range(7)),
            "uints": np.arange(3, dtype=np.uint8), "bools": np.array([True, False, True]),
            "one-row": rows[:1], "one-int": np.array([4]), "empty": np.zeros(0, np.int64),
            "empty-rows": np.zeros((0, 3)), "no-columns": np.zeros((2, 0)),
            "zero-d": np.array(3.5), "cube": np.arange(8).reshape(2, 2, 2),
            "strings": np.array(["a, b", "], ["]), "nested": [{"a": np.arange(3)}, [rows[:2]]],
        }
        p = tmp_path / "doc.json"
        ingest._write_json(p, obj)
        assert p.read_text() == json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n"

    def test_save_superpoints_transient_memory(self, tmp_path):
        # ~128k points, as in a dense box-world scene: a JSON writer that
        # converts the whole lists and builds the whole text peaks at ~55 MB
        # here; the bound is half that. The npz writer copies at most one
        # array's bytes (~3 MB)
        import tracemalloc

        from geovos.ingest import save_superpoints
        points = np.random.default_rng(0).uniform(-3, 3, size=(128_000, 3))
        labels = np.arange(128_000, dtype=np.int64) // 97
        tracemalloc.start()
        try:
            save_superpoints(tmp_path / "sp.npz", points, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * 2**20, peak / 2**20


class TestBoxWorld:
    def test_single_box_projected_rectangle(self):
        intr = make_intrinsics(fx=16.0, fy=16.0, width=16, height=16, cx=7.5, cy=7.5)
        pose = CameraPose.identity()
        box = Box((0.0, 0.0, 1.5), (0.8, 0.8, 1.0))  # front face at z = 1
        world = generate_boxworld([box], [(pose, intr)])
        frame = world.scene.frames[0]
        mask = frame.masks["box0"]
        us = np.arange(16)
        inside = np.abs((us - 7.5) / 16.0) < 0.4
        expected = np.outer(inside, inside)
        np.testing.assert_array_equal(mask, expected)
        np.testing.assert_allclose(frame.depth[mask], 1.0, atol=1e-7)
        assert np.all(frame.depth[~mask] == 0.0)

    def test_camera_facing_away(self):
        intr = make_intrinsics(width=8, height=8)
        flip = CameraPose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
        box = Box((0.0, 0.0, 2.0), (1.0, 1.0, 1.0))
        world = generate_boxworld([box], [(flip, intr)])
        frame = world.scene.frames[0]
        assert frame.masks == {}
        assert np.all(frame.depth == 0.0)

    def test_occlusion_near_box_owns_contested_pixels(self):
        intr = make_intrinsics(fx=16.0, fy=16.0, width=16, height=16, cx=7.5, cy=7.5)
        pose = CameraPose.identity()
        near = Box((0.0, 0.0, 1.25), (0.4, 0.4, 0.5))
        far = Box((0.0, 0.0, 2.5), (1.0, 1.0, 1.0))
        world = generate_boxworld([far, near], [(pose, intr)])  # far listed first
        frame = world.scene.frames[0]
        owner = world.owners[0]
        center = owner[7, 7]
        assert center == 1  # the near box despite its later index
        assert frame.depth[7, 7] == np.float32(1.0)
        # pixel (4, 4) looks past the near box but into the far one
        assert owner[4, 4] == 0 and frame.depth[4, 4] == np.float32(2.0)

    def test_depth_self_consistency_on_surface(self):
        boxes, cams = boxworld_preset("two-cubes", 32)
        world = generate_boxworld(boxes, cams)
        bounds = [b.bounds() for b in boxes]
        for frame, owner in zip(world.scene.frames, world.owners):
            for b, bb in enumerate(bounds):
                mask = owner == b
                if not mask.any():
                    continue
                pc, _ = back_project(mask, frame.depth, frame.intrinsics)
                pts = frame.pose.to_world(pc.points)
                center = (bb[:3] + bb[3:]) / 2
                half = (bb[3:] - bb[:3]) / 2
                q = np.abs(pts - center) - half
                sdf = (np.linalg.norm(np.maximum(q, 0), axis=1)
                       + np.minimum(q.max(axis=1), 0))
                assert np.max(np.abs(sdf)) < 1e-5

    def test_intersecting_boxes_rejected(self):
        intr = make_intrinsics(width=8, height=8)
        a = Box((0.0, 0.0, 2.0), (1.0, 1.0, 1.0))
        b = Box((0.4, 0.0, 2.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="intersect"):
            generate_boxworld([a, b], [(CameraPose.identity(), intr)])

    def test_touching_boxes_allowed(self):
        intr = make_intrinsics(width=8, height=8)
        a = Box((0.0, 0.0, 2.0), (1.0, 1.0, 1.0))
        b = Box((1.0, 0.0, 2.0), (1.0, 1.0, 1.0))
        world = generate_boxworld([a, b], [(CameraPose.identity(), intr)])
        assert len(world.gt_instances.instances) == 2

    def test_camera_inside_box_rejected(self):
        intr = make_intrinsics(width=8, height=8)
        box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="inside"):
            generate_boxworld([box], [(CameraPose.identity(), intr)])

    def test_deterministic(self):
        boxes, cams = boxworld_preset("two-cubes", 16)
        w1 = generate_boxworld(boxes, cams)
        w2 = generate_boxworld(boxes, cams)
        for f1, f2 in zip(w1.scene.frames, w2.scene.frames):
            np.testing.assert_array_equal(f1.depth, f2.depth)
        np.testing.assert_array_equal(w1.scene.scene_points, w2.scene.scene_points)
        np.testing.assert_array_equal(w1.scene.superpoints, w2.scene.superpoints)
