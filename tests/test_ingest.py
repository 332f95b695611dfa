"""File formats, manifests, and the synthetic box world."""

import copy
import dataclasses
import gc
import json
import pickle
import re
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import (make_intrinsics, naive_boxworld_lift, naive_load_dmap, naive_load_mask_pgm,
                      naive_load_pose, random_pose, random_rotation)
from geovos import geometry, ingest
from geovos.cli import _look_at_pose, boxworld_preset
from geovos.geometry import CameraFrame, CameraPose, back_project, rotation_checks
from geovos.ingest import (DMAP_MAGIC, BadMagicError, BadMaskError, BadPoseError, Box,
                           FormatVersionError, IngestError, LengthMismatchError, ManifestError,
                           MissingFileError, Scene, _read_json, generate_boxworld, load_dmap,
                           load_instances, load_mask_pgm, load_pose, load_scene,
                           load_superpoints, load_tracks, save_dmap, save_instances,
                           save_mask_pgm, save_pose, save_scene, save_tracks)
from geovos.metrics import MaskTrack
from geovos.sampler import SamplerConfig, sample_fov, sample_mixed


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

    @pytest.mark.parametrize("mask", [
        np.array([[True, False, True]]),
        np.array([[0, 1, 2], [255, 0, 7]], np.int64),
        np.array([[0, 1], [2, 255]], np.uint8),
        np.array([[0.0, 0.5, -1.0], [np.nan, -0.0, np.inf]]),
        np.zeros((5, 3), bool),
        np.zeros((0, 4), np.int32),
        np.eye(7, 3, dtype=np.int16)[::2],  # strided rows
        np.asfortranarray(np.arange(15).reshape(3, 5) % 3),
        (np.arange(35).reshape(5, 7) % 4 == 1).T,
    ])
    def test_bytes_as_written_by_where(self, tmp_path, mask):
        p = tmp_path / "m.pgm"
        save_mask_pgm(p, mask)
        h, w = mask.shape
        body = np.where(mask.astype(bool), 255, 0).astype(np.uint8)
        assert p.read_bytes() == f"P5\n{w} {h}\n255\n".encode() + body.tobytes()

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

    def test_header_ending_at_maxval_is_truncated(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5 2 2 255")
        with pytest.raises(BadMaskError, match=f"^{re.escape(str(p))}: truncated PGM header$"):
            load_mask_pgm(p)

    def test_negative_size_is_malformed(self, tmp_path):
        # -2 x -2 promises 4 raster bytes, which numpy cannot shape
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5 -2 -2 255\n" + bytes(4))
        with pytest.raises(BadMaskError, match="malformed PGM header"):
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

    @pytest.mark.parametrize("entry", [b"nan", b"inf", b"-inf", b"1e999"])
    def test_non_finite_named(self, tmp_path, entry):
        p = tmp_path / "p.txt"
        p.write_bytes(b"1 0 0 0\n0 1 0 " + entry + b"\n0 0 1 0\n0 0 0 1\n")
        with pytest.raises(BadPoseError, match=f"^{re.escape(str(p))}: non-finite pose entry$"):
            load_pose(p)

    def test_not_utf8_is_non_numeric(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_bytes(b"1 0 0 0\n0 1 0 0\n0 0 1 \xff\n0 0 0 1\n")
        with pytest.raises(BadPoseError, match=f"^{re.escape(str(p))}: non-numeric pose entry$"):
            load_pose(p)


def _outcome(read, path):
    """What ``read(path)`` gives: the bytes of its arrays, or the type and
    text of what it raised."""
    try:
        value = read(path)
    except Exception as e:  # noqa: BLE001 - compared with the oracle's
        return type(e), str(e)
    if isinstance(value, CameraPose):
        return value.rotation.tobytes(), value.translation.tobytes()
    return value.dtype, value.shape, value.tobytes()


def _assert_matches_oracle(read, oracle, path, blob):
    """The reader, given ``path`` as a string, gives what the oracle gives
    for the Path; a failure is an IngestError."""
    path.write_bytes(blob)
    got = _outcome(read, str(path))
    assert got == _outcome(oracle, path), blob
    assert not isinstance(got[0], type) or issubclass(got[0], IngestError), (got, blob)


# whitespace and comments between header tokens; of the last three, one
# glues a comment to the token before it and two leave a comment open, so
# that it swallows the token after it
_PGM_GAPS = [b" ", b"\t", b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c", b"  ", b" #c\n", b"\n#\n",
             b"\t# 1 2\r\n", b" #c\n\t", b"#c\n", b"#", b"\n#c"]
# what follows the maxval; the last two glue it to the raster
_PGM_ENDS = [b"\n", b" ", b"\t", b"\r\n", b"\r", b"", b"#"]


def _pgm_token(rng, value: int, wild: bool) -> bytes:
    """``value`` in decimal, or another spelling of it; when ``wild``, now
    and then a token no loader accepts, or two tokens."""
    text = str(value).encode()
    if not wild or rng.random() < 0.7:
        return [text, text, b"+" + text, b"0" + text,
                text[:1] + b"_" + text[1:] if value >= 10 else text][int(rng.integers(0, 5))]
    return [b"-1", b"-" + text, text + b"#c", b"x", b"12 3"][int(rng.integers(0, 5))]


def _random_pgm(rng) -> bytes:
    """A PGM file; half of them have a well-formed 8-bit header."""
    wild = rng.random() < 0.5
    w, h = (int(x) for x in rng.integers(0, 14, size=2))
    maxval = [255, 255, 15, 0, 256, 65535][int(rng.integers(0, 6))] if wild else 255
    n_gaps, n_ends = (len(_PGM_GAPS), len(_PGM_ENDS)) if wild else (len(_PGM_GAPS) - 3,
                                                                     len(_PGM_ENDS) - 2)
    gaps = [_PGM_GAPS[int(i)] for i in rng.integers(0, n_gaps, size=3)]
    if rng.random() < 0.5:
        gaps[0] = b""  # tokens may follow the magic directly
    header = b"P5" + b"".join(g + _pgm_token(rng, v, wild) for g, v in zip(gaps, (w, h, maxval)))
    raster = rng.integers(0, 256, size=max(w * h + int(rng.integers(-2, 3)), 0), dtype=np.uint8)
    return header + _PGM_ENDS[int(rng.integers(0, n_ends))] + raster.tobytes()


_POSE_GAPS = [b" ", b"\t", b"\n", b"\r\n", b"  ", b" \n"]


def _random_pose_file(rng) -> bytes:
    m = np.eye(4)
    m[:3, :3] = random_rotation(rng)
    m[:3, 3] = rng.normal(size=3)
    kind = int(rng.integers(0, 8))
    if kind == 1:  # either side of the snap (1e-7) and reject (1e-4) thresholds
        i, j = rng.integers(0, 3, size=2)
        m[i, j] += rng.choice([-1, 1]) * 10 ** rng.uniform(-9, -3)
    elif kind == 2:  # det < 0
        m[:3, int(rng.integers(0, 3))] *= -1
    elif kind == 3:  # last row one ulp off, or -0.0
        j = int(rng.integers(0, 4))
        m[3, j] = rng.choice([np.nextafter(m[3, j], 2.0), np.nextafter(m[3, j], -2.0), -m[3, j]])
    fmt = [repr, repr, "{:.17g}".format, "{:.7f}".format][int(rng.integers(0, 4))]
    tokens = [fmt(float(x)).encode() for x in m.flat]
    if kind == 4:  # 15 or 17 entries
        if rng.random() < 0.5:
            del tokens[int(rng.integers(0, 16))]
        else:
            tokens.insert(int(rng.integers(0, 17)), b"0")
    elif kind == 5:
        tokens[int(rng.integers(0, 16))] = [b"nan", b"inf", b"-inf", b"1e999", b"NaN"][
            int(rng.integers(0, 5))]
    elif kind == 6:
        tokens[int(rng.integers(0, 16))] = [b"x", b"\xff", b"1,5", b"0x1p3", b"1_0", b"+1"][
            int(rng.integers(0, 6))]
    gaps = [_POSE_GAPS[int(i)] for i in rng.integers(0, len(_POSE_GAPS), size=len(tokens))]
    return b"".join(g + t for g, t in zip(gaps, tokens)) + b"\n"


def _random_dmap(rng) -> bytes:
    w, h = (int(x) for x in rng.integers(0, 5, size=2))
    magic = [DMAP_MAGIC, DMAP_MAGIC, DMAP_MAGIC, b"XMAP", b"DMA"][int(rng.integers(0, 5))]
    version = [1, 1, 1, 0, 2, 256][int(rng.integers(0, 6))]
    data = rng.uniform(0, 5, size=w * h + 1).astype("<f4").tobytes()
    blob = magic + struct.pack("<HII", version, w, h) + data[:4 * w * h]
    cut = [len(blob), len(blob), len(blob) - 1, len(blob) + 2, int(rng.integers(0, 15))][
        int(rng.integers(0, 5))]
    return (blob + b"xy")[:cut]


class TestReadersMatchOracles:
    """The loaders against the byte-at-a-time readers in conftest, on
    generated files: equal arrays, or the same exception and message."""

    @pytest.mark.parametrize("seed", range(3))
    def test_pgm(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "m.pgm"
        for _ in range(400):
            _assert_matches_oracle(load_mask_pgm, naive_load_mask_pgm, path, _random_pgm(rng))

    def test_pgm_truncated_at_every_byte(self, tmp_path):
        path = tmp_path / "m.pgm"
        for blob in (b"P5\n# made by\thand\r\n12 3\n# size\n255\n" + bytes(range(36)),
                     b"P5 12\t3#c\n255 " + bytes(36)):
            for end in range(len(blob) + 1):
                _assert_matches_oracle(load_mask_pgm, naive_load_mask_pgm, path, blob[:end])

    @pytest.mark.parametrize("seed", range(3))
    def test_pose(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "p.txt"
        for _ in range(300):
            _assert_matches_oracle(load_pose, naive_load_pose, path, _random_pose_file(rng))

    @pytest.mark.parametrize("seed", range(3))
    def test_dmap(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "d.dmap"
        for _ in range(300):
            _assert_matches_oracle(load_dmap, naive_load_dmap, path, _random_dmap(rng))

    @pytest.mark.parametrize("kind", ["directory", "dangling symlink"])
    def test_not_a_file(self, tmp_path, kind):
        path, npz = tmp_path / "x", tmp_path / "x.npz"
        for p in (path, npz):
            if kind == "directory":
                p.mkdir()
            else:
                p.symlink_to(tmp_path / "gone")
        for read, oracle in [(load_dmap, naive_load_dmap), (load_pose, naive_load_pose),
                             (load_mask_pgm, naive_load_mask_pgm)]:
            got = _outcome(read, str(path))
            assert got == _outcome(oracle, path)
            assert got[0] is MissingFileError
        with pytest.raises(MissingFileError, match=f"^tracks file not found: {path}$"):
            _read_json(str(path), "tracks")
        with pytest.raises(MissingFileError, match=f"^superpoints file not found: {npz}$"):
            load_superpoints(str(npz))


def _pose_text(rot, tra) -> str:
    rows = [[*rot[i], tra[i]] for i in range(3)] + [[0.0, 0.0, 0.0, 1.0]]
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in rows)


def _block_at(rng, target) -> np.ndarray:
    """A random rotation with one entry moved until the orthonormality
    error (the oracle's ``max |R.T @ R - I|``) is within 1e-15 of
    ``target``, found by bisection on the offset."""
    def err(m):
        return float(np.max(np.abs(m.T @ m - np.eye(3))))

    while True:
        rot, (i, j) = random_rotation(rng), rng.integers(0, 3, size=2)
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = rot.copy()
            mid[i, j] += (lo + hi) / 2
            lo, hi = ((lo + hi) / 2, hi) if err(mid) < target else (lo, (lo + hi) / 2)
        mid = rot.copy()
        mid[i, j] += hi
        if abs(err(mid) - target) < 1e-15:
            return mid


def _good_block(rng) -> np.ndarray:
    """An exact rotation, a near miss that load snaps, or a block within
    1e-12 of the snap (1e-7) or the reject (1e-4) threshold, on the
    accepted side of the latter."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return random_rotation(rng)
    if kind == 1:
        return _block_at(rng, 10 ** rng.uniform(-7, -4))
    if kind == 2:
        return _block_at(rng, ingest.POSE_FILE_ROTATION_TOL - rng.uniform(0.0, 1e-12))
    return _block_at(rng, 1e-7 + rng.uniform(-1e-12, 1e-12))


def _bad_block(rng) -> np.ndarray:
    """A block that load rejects: off by more than 1e-4 (just past it or
    far), a reflection, or rows whose Gram product overflows."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return _block_at(rng, ingest.POSE_FILE_ROTATION_TOL + rng.uniform(1e-14, 1e-12))
    if kind == 1:
        return _block_at(rng, 10 ** rng.uniform(-4, -1))
    if kind == 2:
        rot = random_rotation(rng)
        rot[:, int(rng.integers(0, 3))] *= -1
        return rot
    return np.array([[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])


def _pose_scene(path, n: int):
    """A scene of ``n`` 2x2 frames without masks; its pose files are
    ``path / "pose" / f"{i:04d}.txt"``."""
    intr = make_intrinsics(width=2, height=2)
    frames = [CameraFrame(i, intr, CameraPose.identity(), np.ones((2, 2), np.float32))
              for i in range(n)]
    return save_scene(Scene("poses", frames), path)


def _load_outcome(manifest):
    """The poses of ``load_scene`` (rotation and translation bytes), or
    the type and text of what it raised; it must warn of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scene = load_scene(manifest)
        except Exception as e:  # noqa: BLE001 - compared with the oracle's
            return type(e), str(e)
    return [(f.pose.rotation.tobytes(), f.pose.translation.tobytes()) for f in scene.frames]


class TestScenePoses:
    """``load_scene`` checks all pose files in one stacked pass and gives
    what ``naive_load_pose`` gives file by file."""

    @pytest.mark.parametrize("seed", range(3))
    def test_fuzz_against_per_file_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        for k in range(12):
            n = int(rng.integers(1, 41))
            manifest = _pose_scene(tmp_path / f"s{k}", n)
            paths = [tmp_path / f"s{k}" / "pose" / f"{i:04d}.txt" for i in range(n)]
            for p in paths:
                p.write_text(_pose_text(_good_block(rng), rng.normal(size=3)))
            want = [_outcome(naive_load_pose, p) for p in paths]
            assert _load_outcome(manifest) == want
            assert [_outcome(load_pose, p) for p in paths] == want
            # one bad block: the oracle's error for that file
            bad = int(rng.integers(0, n))
            paths[bad].write_text(_pose_text(_bad_block(rng), rng.normal(size=3)))
            want = _outcome(naive_load_pose, paths[bad])
            assert want[0] is BadPoseError
            assert _load_outcome(manifest) == want
            # a second one: the first in frame order is named
            other = int(rng.integers(0, n))
            if other != bad:
                paths[other].write_text(_pose_text(_bad_block(rng), rng.normal(size=3)))
                assert _load_outcome(manifest) == \
                    _outcome(naive_load_pose, paths[min(bad, other)])

    def test_each_pose_checked_once_per_load(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        intr = make_intrinsics(width=2, height=2)
        frames = [CameraFrame(i, intr, random_pose(rng), np.ones((2, 2), np.float32))
                  for i in range(240)]
        manifest = save_scene(Scene("orbit", frames), tmp_path)
        blocks = []

        def spy(rot):
            blocks.append(len(rot))
            return rotation_checks(rot)

        monkeypatch.setattr(geometry, "rotation_checks", spy)
        monkeypatch.setattr(ingest, "rotation_checks", spy)
        scene = load_scene(manifest)
        assert blocks == [240]
        for a, b in zip(scene.frames, frames):
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        # snapped blocks are checked once more, after the snap
        for i in (3, 100, 239):
            (tmp_path / "pose" / f"{i:04d}.txt").write_text(
                _pose_text(_block_at(rng, 1e-5), np.zeros(3)))
        blocks.clear()
        load_scene(manifest)
        assert blocks == [240, 3]

    def test_one_intrinsics_per_distinct_record(self, tmp_path):
        a, b = make_intrinsics(width=2, height=2), make_intrinsics(width=2, height=2, cx=0.0)
        negative = make_intrinsics(width=2, height=2, cx=-0.0)
        frames = [CameraFrame(i, intr, CameraPose.identity(), np.ones((2, 2), np.float32))
                  for i, intr in enumerate([a, b, a, negative, b, negative])]
        scene = load_scene(save_scene(Scene("intr", frames), tmp_path))
        got = [f.intrinsics for f in scene.frames]
        assert got == [a, b, a, negative, b, negative]
        assert got[0] is got[2] and got[1] is got[4] and got[3] is got[5]
        assert got[1] is not got[3] and str(got[3].cx) == "-0.0" and str(got[1].cx) == "0.0"

    @pytest.mark.parametrize("record, message", [
        ({"fx": 1, "fy": 1, "cx": 0, "cy": 0, "width": 2}, "missing intrinsics field 'height'"),
        ({"fx": "x", "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2}, "bad intrinsics"),
        ({"fx": -1, "fy": 1, "cx": 0, "cy": 0, "width": 2, "height": 2},
         "bad intrinsics (focal lengths must be positive"),
        ([32], "field 'intrinsics' must be an object, got [32]"),
        ("x", 'field \'intrinsics\' must be an object, got "x"'),
        (None, "field 'intrinsics' must be an object, got null"),
    ])
    def test_intrinsics_errors_name_their_frame(self, tmp_path, record, message):
        manifest = _pose_scene(tmp_path, 3)
        doc = json.loads(manifest.read_text())
        doc["frames"][2]["intrinsics"] = record
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=re.escape(f"frames[2]: {message}")):
            load_scene(manifest)


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
        for a, b in zip(scene.gt_instances.instances,
                        world.scene.gt_instances.instances):
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
        assert scene.object_ids == ("box0", "box1")


class TestScene:
    @staticmethod
    def scene():
        intr = make_intrinsics(width=4, height=4)
        mask = np.ones((4, 4), bool)
        frames = [CameraFrame(i, intr, CameraPose.identity(), None, {obj: mask})
                  for i, obj in enumerate(("b", "a", "b"))]
        return Scene("s", frames)

    def test_frozen(self):
        scene = self.scene()
        assert type(scene.frames) is tuple
        for name, value in [("frames", []), ("scene_id", "t"), ("scene_points", None)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(scene, name, value)
        with pytest.raises(TypeError):
            scene.frames[0] = scene.frames[1]
        with pytest.raises(AttributeError):
            scene.frames.append(scene.frames[0])
        assert [f.frame_id for f in scene.frames] == [0, 1, 2]

    def test_replace_gives_a_new_scene(self):
        scene = self.scene()
        assert scene.object_ids == ("a", "b") and scene.object_ids is scene.object_ids
        fewer = dataclasses.replace(scene, frames=scene.frames[:1])
        assert fewer != scene and fewer.object_ids == ("b",)
        assert type(fewer.frames) is tuple and fewer.frames[0] is scene.frames[0]
        assert scene.object_ids == ("a", "b") and len(scene.frames) == 3


class TestSideFilesOnFirstUse:
    """A loaded scene reads superpoints.npz and instances.json on the first
    access of scene_points, superpoints or gt_instances, not in load_scene."""

    @pytest.fixture
    def saved(self, tmp_path):
        world = generate_boxworld(*boxworld_preset("two-cubes", 16))
        return world, save_scene(world.scene, tmp_path)

    @staticmethod
    def assert_side_values(scene, world):
        np.testing.assert_array_equal(scene.scene_points, world.scene.scene_points)
        np.testing.assert_array_equal(scene.superpoints, world.scene.superpoints)
        assert len(scene.gt_instances) == len(world.scene.gt_instances)
        for a, b in zip(scene.gt_instances.instances,
                        world.scene.gt_instances.instances):
            np.testing.assert_array_equal(a.point_ids, b.point_ids)

    def test_frames_and_draws_without_side_files(self, saved):
        world, manifest = saved
        scene = load_scene(manifest)
        sp, gt = manifest.parent / "superpoints.npz", manifest.parent / "instances.json"
        sp_bytes = sp.read_bytes()
        sp.unlink()
        gt.unlink()
        assert len(scene.frames) == 6 and scene.object_ids == ("box0", "box1")
        draw = sample_fov(scene, SamplerConfig(n_frames=4), np.random.default_rng(0), "box0")
        assert len(draw.frames) == 4
        # superpoints first, as load_scene read them; getattr's default
        # must not swallow the error
        with pytest.raises(MissingFileError, match=re.escape(str(sp))):
            getattr(scene, "superpoints", None)
        sp.write_bytes(sp_bytes)
        # a failed read is retried on the next access
        with pytest.raises(MissingFileError, match=re.escape(str(gt))):
            scene.gt_instances
        with pytest.raises(MissingFileError, match="instances.json"):
            scene.scene_points

    def test_read_errors_as_load_scene_raised_them(self, saved):
        world, manifest = saved
        doc = json.loads((manifest.parent / "instances.json").read_text())
        doc["instances"][0]["point_ids"].append(10**6)
        (manifest.parent / "instances.json").write_text(json.dumps(doc))
        scene = load_scene(manifest)
        with pytest.raises(ManifestError,
                           match=f"^{re.escape(str(manifest))}: gt_instances\\[0\\] references "
                                 f"point 1000000, scene has "):
            scene.scene_points

    def test_replace_keeps_side_values(self, saved):
        world, manifest = saved
        loaded = load_scene(manifest)
        fewer = dataclasses.replace(loaded, frames=loaded.frames[:2])
        assert len(fewer.frames) == 2
        self.assert_side_values(fewer, world)
        assert fewer.gt_instances is loaded.gt_instances

    @pytest.mark.parametrize("copy_of", ["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, saved, copy_of):
        world, manifest = saved
        duplicate = {"pickle": lambda s: pickle.loads(pickle.dumps(s)),
                     "deepcopy": copy.deepcopy}[copy_of]
        loaded = load_scene(manifest)
        deferred = len(pickle.dumps(loaded))
        before = duplicate(loaded)  # holds the side files' paths only
        self.assert_side_values(loaded, world)
        assert len(pickle.dumps(loaded)) > deferred + world.scene.scene_points.nbytes
        after = duplicate(loaded)
        for name in ("superpoints.npz", "instances.json"):
            (manifest.parent / name).unlink()
        self.assert_side_values(after, world)
        with pytest.raises(MissingFileError):
            before.superpoints
        assert len(before.frames) == len(after.frames) == 6

    def test_concurrent_first_access_reads_once(self, saved, monkeypatch):
        world, manifest = saved
        scene = load_scene(manifest)
        calls = []
        read = ingest.load_superpoints

        def slow_read(path):
            calls.append(path)
            time.sleep(0.05)  # long enough for every other thread to arrive
            return read(path)

        monkeypatch.setattr(ingest, "load_superpoints", slow_read)
        names = ("gt_instances", "scene_points", "superpoints") * 3
        start, seen = threading.Barrier(len(names)), []

        def first_access(name):
            start.wait()
            getattr(scene, name)
            seen.append((scene.scene_points, scene.superpoints, scene.gt_instances))

        threads = [threading.Thread(target=first_access, args=(n,)) for n in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(seen) == len(names)
        assert all(a is b for values in seen for a, b in zip(values, seen[0]))
        self.assert_side_values(scene, world)


class TestMasksOnFirstUse:
    """A loaded frame reads each mask file on the first access of its key,
    with the checks and errors that reading it in load_scene had."""

    @pytest.fixture
    def saved(self, tmp_path):
        world = generate_boxworld(*boxworld_preset("two-cubes", 16))
        return world, save_scene(world.scene, tmp_path)

    @staticmethod
    def spy(monkeypatch, delay=0.0):
        """The paths that ``ingest.load_mask_pgm`` reads from now on."""
        reads, read = [], ingest.load_mask_pgm

        def spy(path):
            reads.append(str(path))
            time.sleep(delay)
            return read(path)

        monkeypatch.setattr(ingest, "load_mask_pgm", spy)
        return reads

    @pytest.mark.parametrize("seed", range(3))
    def test_masks_match_the_per_file_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        for k in range(6):
            manifest = save_scene(generate_boxworld(*TestBoxWorld.random_layout(rng)).scene,
                                  tmp_path / f"s{k}")
            records = json.loads(manifest.read_text())["frames"]
            scene = load_scene(manifest)
            for frame, rec in zip(scene.frames, records, strict=True):
                assert list(frame.masks) == sorted(rec["masks"]) and "box9" not in frame.masks
                for obj_id, rel in rec["masks"].items():
                    mask, want = frame.masks[obj_id], naive_load_mask_pgm(manifest.parent / rel)
                    assert (mask.dtype, mask.shape) == (want.dtype, want.shape)
                    assert mask.tobytes() == want.tobytes()
                    assert not mask.flags.writeable and frame.masks[obj_id] is mask
                assert frame.masks.get("box9") is None

    @pytest.mark.parametrize("fault", ["missing-file", "bad-magic", "truncated-header",
                                       "short-raster", "wrong-size"])
    def test_fault_raised_at_first_access(self, saved, fault):
        world, manifest = saved
        path = manifest.parent / "mask" / "0002_box0.pgm"
        intact = path.read_bytes()
        if fault == "missing-file":
            path.unlink()
            want = MissingFileError, f"mask file not found: {path}"
        elif fault == "bad-magic":
            path.write_bytes(b"P6" + intact[2:])
            want = BadMaskError, f"{path}: not a binary PGM (P5) file"
        elif fault == "truncated-header":
            path.write_bytes(b"P5\n16 16")
            want = BadMaskError, f"{path}: truncated PGM header"
        elif fault == "short-raster":
            path.write_bytes(intact[:-1])
            want = LengthMismatchError, f"{path}: expected 256 raster bytes, got 255"
        else:
            save_mask_pgm(path, np.ones((8, 12), bool))
            want = BadMaskError, f"{manifest}: frames[2]: mask 'box0' is 12x8, frame is 16x16"
        scene = load_scene(manifest)  # names the file, reads none
        masks = scene.frames[2].masks
        assert scene.object_ids == ("box0", "box1") and "box0" in masks and len(masks) == 2
        np.testing.assert_array_equal(masks["box1"], world.scene.frames[2].masks["box1"])
        for _ in range(2):  # a failed read keeps nothing: the next access reads again
            with pytest.raises(IngestError) as err:
                masks["box0"]
            assert (type(err.value), str(err.value)) == want
        path.write_bytes(intact)
        np.testing.assert_array_equal(masks["box0"], world.scene.frames[2].masks["box0"])

    def test_replace_reads_no_mask(self, saved, monkeypatch):
        world, manifest = saved
        scene = load_scene(manifest)
        reads = self.spy(monkeypatch)
        frame = scene.frames[1]
        moved = dataclasses.replace(frame, depth=frame.depth * 2)
        assert moved.masks is frame.masks and sorted(moved.masks) == ["box0", "box1"]
        with pytest.raises(ValueError, match=re.escape("masks shape (16, 16) != intrinsics")):
            dataclasses.replace(frame, intrinsics=make_intrinsics(width=8, height=8), depth=None)
        assert reads == []
        np.testing.assert_array_equal(moved.masks["box0"], world.scene.frames[1].masks["box0"])
        assert frame.masks["box0"] is moved.masks["box0"] and len(reads) == 1

    @pytest.mark.parametrize("copy_of", ["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, saved, copy_of):
        world, manifest = saved
        duplicate = {"pickle": lambda s: pickle.loads(pickle.dumps(s)),
                     "deepcopy": copy.deepcopy}[copy_of]
        scene = load_scene(manifest)
        scene.frames[0].masks["box0"]  # one mask read before the copy, the rest not
        copied = duplicate(scene)
        for a, b in zip(copied.frames, world.scene.frames, strict=True):
            assert list(a.masks) == list(b.masks)
            for obj_id in b.masks:
                np.testing.assert_array_equal(a.masks[obj_id], b.masks[obj_id])
                assert not a.masks[obj_id].flags.writeable
        # the copy keeps the mask read before it, and reads the others from their files
        again = duplicate(scene)
        for path in (manifest.parent / "mask").iterdir():
            path.unlink()
        np.testing.assert_array_equal(again.frames[0].masks["box0"],
                                      world.scene.frames[0].masks["box0"])
        with pytest.raises(MissingFileError, match="0000_box1.pgm"):
            again.frames[0].masks["box1"]

    def test_a_sample_session_reads_its_objects_masks_once(self, saved, monkeypatch):
        world, manifest = saved
        records = json.loads(manifest.read_text())["frames"]
        scene = load_scene(manifest)
        reads = self.spy(monkeypatch)
        cfg, rng = SamplerConfig(n_frames=4), np.random.default_rng(0)
        for obj_id in ("box1", "box0"):
            before = len(reads)
            for _ in range(30):
                sample_mixed(scene, cfg, rng, obj_id)
            want = [str(manifest.parent / rec["masks"][obj_id]) for rec in records
                    if obj_id in rec["masks"]]
            assert sorted(reads[before:]) == sorted(want) and len(want) == 6

    def test_concurrent_first_access_returns_one_array(self, saved, monkeypatch):
        world, manifest = saved
        masks = load_scene(manifest).frames[3].masks
        reads = self.spy(monkeypatch, delay=0.05)  # every thread arrives during a read
        start, seen = threading.Barrier(8), []

        def first_access():
            start.wait()
            seen.append(masks["box1"])

        threads = [threading.Thread(target=first_access) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and len(seen) == 8 and reads
        assert all(mask is masks["box1"] for mask in seen)
        np.testing.assert_array_equal(seen[0], world.scene.frames[3].masks["box1"])


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

    @pytest.mark.parametrize("rewrite", [
        lambda path: path.write_bytes(path.read_bytes()[:-100]),
        lambda path: path.write_text("points, labels\n"),
    ], ids=["truncated", "not-a-zip"])
    def test_bad_superpoints_npz_closes_its_file(self, tmp_path, rewrite):
        from geovos.ingest import save_superpoints
        path = tmp_path / "sp.npz"
        save_superpoints(path, np.zeros((40, 3)), np.zeros(40, np.int64))
        rewrite(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ManifestError, match="not an npz archive"):
                load_superpoints(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)], \
            [str(w.message) for w in caught]

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
        far_mask, near_mask = frame.masks["box0"], frame.masks["box1"]
        assert not (far_mask & near_mask).any()
        # the near box despite its later index
        assert near_mask[7, 7] and frame.depth[7, 7] == np.float32(1.0)
        # pixel (4, 4) looks past the near box but into the far one
        assert far_mask[4, 4] and frame.depth[4, 4] == np.float32(2.0)

    def test_depth_self_consistency_on_surface(self):
        boxes, cams = boxworld_preset("two-cubes", 32)
        world = generate_boxworld(boxes, cams)
        bounds = [b.bounds() for b in boxes]
        for frame in world.scene.frames:
            for b, bb in enumerate(bounds):
                mask = frame.masks.get(f"box{b}")
                if mask is None:
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
        assert len(world.scene.gt_instances.instances) == 2

    def test_camera_inside_box_rejected(self):
        intr = make_intrinsics(width=8, height=8)
        box = Box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="inside"):
            generate_boxworld([box], [(CameraPose.identity(), intr)])

    @staticmethod
    def ring_of_16(resolution=512):
        # 16 cubes on a 4 x 4 grid at 1.2 m pitch, three cameras on a ring
        boxes = [Box(((c - 1.5) * 1.2, (r - 1.5) * 1.2, 0.25), (0.5, 0.5, 0.5))
                 for r in range(4) for c in range(4)]
        intr = make_intrinsics(fx=float(resolution), fy=float(resolution),
                               width=resolution, height=resolution)
        eyes = [(6.0 * np.cos(a), 6.0 * np.sin(a), 2.5) for a in (0.3, 2.4, 4.5)]
        return boxes, [(_look_at_pose(eye, (0.0, 0.0, 0.25)), intr) for eye in eyes]

    @pytest.mark.parametrize("scene", ["two-cubes", "two-cubes-touching", "one-box",
                                       "ring-of-16"])
    def test_windows_leave_the_world_unchanged(self, scene, monkeypatch):
        boxes, cams = (self.ring_of_16() if scene == "ring-of-16"
                       else boxworld_preset(scene, 64))
        windowed = generate_boxworld(boxes, cams)
        pose, intr = cams[0]
        windows = ingest._box_windows(np.stack([b.bounds() for b in boxes]), intr, pose)
        areas = (windows[:, 1] - windows[:, 0]) * (windows[:, 3] - windows[:, 2])
        assert np.all(areas < intr.width * intr.height)  # the windows do cut the work
        monkeypatch.setattr(ingest, "_box_windows", lambda bounds, intr, pose: np.tile(
            [0, intr.height, 0, intr.width], (len(bounds), 1)))
        whole = generate_boxworld(boxes, cams)
        for f1, f2 in zip(windowed.scene.frames, whole.scene.frames):
            assert f1.depth.tobytes() == f2.depth.tobytes()
            assert sorted(f1.masks) == sorted(f2.masks)
            for k in f1.masks:
                np.testing.assert_array_equal(f1.masks[k], f2.masks[k])
        assert windowed.scene.scene_points.tobytes() == whole.scene.scene_points.tobytes()
        np.testing.assert_array_equal(windowed.scene.superpoints, whole.scene.superpoints)
        for a, b in zip(windowed.scene.gt_instances.instances,
                        whole.scene.gt_instances.instances):
            np.testing.assert_array_equal(a.point_ids, b.point_ids)
        assert len(windowed.scene.scene_points) > 0

    def test_deterministic(self):
        boxes, cams = boxworld_preset("two-cubes", 16)
        w1 = generate_boxworld(boxes, cams)
        w2 = generate_boxworld(boxes, cams)
        for f1, f2 in zip(w1.scene.frames, w2.scene.frames):
            np.testing.assert_array_equal(f1.depth, f2.depth)
        np.testing.assert_array_equal(w1.scene.scene_points, w2.scene.scene_points)
        np.testing.assert_array_equal(w1.scene.superpoints, w2.scene.superpoints)

    @staticmethod
    def random_layout(rng):
        """1-4 disjoint boxes and 1-3 cameras of one 4-40 px intrinsics,
        placed about the origin; half the time the last box sits behind
        camera 0."""
        res = int(rng.integers(4, 41))
        intr = make_intrinsics(fx=res * rng.uniform(0.5, 2.0), fy=res * rng.uniform(0.5, 2.0),
                               width=res, height=res)
        eyes = rng.normal(size=(int(rng.integers(1, 4)), 3))
        eyes *= rng.uniform(3.0, 5.0, (len(eyes), 1)) / np.linalg.norm(eyes, axis=1, keepdims=True)
        cams = [(_look_at_pose(eye, rng.uniform(-0.5, 0.5, 3)), intr) for eye in eyes]
        while True:
            n = int(rng.integers(1, 5))
            centers = rng.uniform(-1.5, 1.5, (n, 3))
            if rng.random() < 0.5:
                pose = cams[0][0]
                centers[-1] = pose.translation - rng.uniform(1.0, 2.0) * pose.rotation[:, 2]
            sizes = rng.uniform(0.2, 1.0, (n, 3))
            lo, hi = centers - sizes / 2, centers + sizes / 2
            apart = [not np.all(np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j]))
                     for i in range(n) for j in range(i + 1, n)]
            clear = [not np.any(np.all((eye > lo) & (eye < hi), axis=1)) for eye in eyes]
            if all(apart) and all(clear):
                return [Box(tuple(c), tuple(s)) for c, s in zip(centers, sizes)], cams

    def test_lifting_matches_the_per_box_oracle(self):
        """Scene points, superpoints and ground truth equal, byte for byte,
        those of the per-box loops in conftest, on the touching-cubes preset
        and random layouts; unseen boxes and boxes behind a camera occur."""
        rng = np.random.default_rng(28)
        layouts = [boxworld_preset("two-cubes-touching", 24)]
        layouts += [self.random_layout(rng) for _ in range(60)]
        unseen = behind = 0
        for boxes, cams in layouts:
            world = generate_boxworld(boxes, cams)
            points, labels, gt = naive_boxworld_lift(boxes, world.scene.frames)
            scene = world.scene
            assert scene.scene_points.dtype == points.dtype
            assert scene.scene_points.shape == points.shape
            assert scene.scene_points.tobytes() == points.tobytes()
            assert scene.superpoints.dtype == np.int64
            np.testing.assert_array_equal(scene.superpoints, labels)
            for inst, (point_ids, superpoint_ids) in zip(scene.gt_instances.instances, gt,
                                                         strict=True):
                assert inst.point_ids.dtype == np.int64
                np.testing.assert_array_equal(inst.point_ids, point_ids)
                assert inst.superpoint_ids == superpoint_ids
            unseen += sum(all(m is None for m in t.masks) for t in world.gt_tracks.values())
            corners = np.stack([b.bounds()[ingest._BOX_CORNERS] for b in boxes])
            behind += sum(np.any(np.all(pose.to_camera(corners.reshape(-1, 3))[:, 2]
                                        .reshape(len(boxes), 8) <= 0, axis=1))
                          for pose, _ in cams)
        assert unseen > 0 and behind > 0
