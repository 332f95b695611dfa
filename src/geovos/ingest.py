"""Bit-exact file formats, scene manifests, and the synthetic box world.

Formats (all round-trip byte-identically through save -> load -> save):

* DMAP depth raster: magic ``DMAP``, u16 LE version (=1), u32 LE width,
  u32 LE height, then width*height little-endian float32 meters,
  row-major. File length is exactly 14 + 4*W*H bytes.
* Mask raster: binary PGM (P5), 8-bit, maxval 255, nonzero = foreground.
  The header is ``P5``, then width, height and maxval: three tokens, each
  a run of non-whitespace bytes not starting with ``#``, separated by
  ASCII whitespace and ``#`` comments (to the end of the line). Each token
  is a non-negative integer as Python's ``int`` reads it (``+3`` and
  ``1_0`` are 3 and 10). Exactly one whitespace byte follows the maxval,
  then width*height raster bytes, row-major.
* Pose file: text, 16 whitespace-separated finite decimals, row-major 4x4
  world-from-camera matrix whose last row parses to exactly 0 0 0 1.
  The rotation block must be orthonormal within 1e-4; blocks between
  1e-7 and 1e-4 are snapped to the nearest rotation on load.
* Scene manifest: JSON, schema ``geovos.scene/1``; paths are relative to
  the manifest. Optional ground-truth instance and track files are JSON
  with their own schema tags.
* Superpoints: an uncompressed ``.npz`` holding exactly two arrays,
  ``points`` (N, 3) float64 (finite) and ``labels`` (N,) int64, with fixed
  entry timestamps, so the same arrays always give the same bytes;
  ``save_scene`` always writes this. ``load_superpoints`` picks the reader
  by suffix: a ``.npz`` name is read as this layout, any other as JSON
  (schema ``geovos.superpoints/1`` with ``points`` and ``labels`` lists), so
  older and hand-written scenes still load.

The box-world generator renders axis-aligned boxes analytically (slab
ray-box intersection) and emits exact depth, per-box masks with correct
occlusion ordering, ground-truth 3D instances over the lifted scene
points, and per-box mask tracks. It is fully deterministic.
"""

import contextlib
import io
import json
import math
import os
import re
import struct
import threading
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import kernels
from .geometry import CameraFrame, CameraIntrinsics, CameraPose, back_project, rotation_checks
from .instance3d import Instance, InstanceSet
from .metrics import MaskTrack

MANIFEST_SCHEMA = "geovos.scene/1"
SUPERPOINTS_SCHEMA = "geovos.superpoints/1"
INSTANCES_SCHEMA = "geovos.instances/1"
TRACKS_SCHEMA = "geovos.tracks/1"
POINTSET_SCHEMA = "geovos.points/1"

DMAP_MAGIC = b"DMAP"
DMAP_VERSION = 1

POSE_FILE_ROTATION_TOL = 1e-4


class IngestError(Exception):
    """Base for all file/manifest errors."""


class ManifestError(IngestError):
    pass


class MissingFileError(IngestError):
    pass


class BadMagicError(IngestError):
    pass


class FormatVersionError(IngestError):
    pass


class LengthMismatchError(IngestError):
    pass


class BadPoseError(IngestError):
    pass


class BadMaskError(IngestError):
    pass


def _read(path, what: str, size: int = -1) -> bytes:
    """The file's bytes (its first ``size`` bytes when ``size`` >= 0), read
    with one open; a missing file or a directory raises MissingFileError."""
    try:
        with io.FileIO(path) as f:
            return f.read(size)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        raise MissingFileError(f"{what} file not found: {Path(path)}") from None


# ---------------------------------------------------------------------------
# DMAP depth rasters


def save_dmap(path, values: np.ndarray):
    values = np.asarray(values, dtype="<f4")
    if values.ndim != 2:
        raise ValueError(f"depth raster must be 2-D, got {values.shape}")
    h, w = values.shape
    header = DMAP_MAGIC + np.uint16(DMAP_VERSION).tobytes() \
        + np.uint32(w).tobytes() + np.uint32(h).tobytes()
    Path(path).write_bytes(header + values.tobytes())


def load_dmap(path) -> np.ndarray:
    blob = _read(path, "depth")
    if len(blob) < 14 or blob[:4] != DMAP_MAGIC:
        raise BadMagicError(f"{Path(path)}: not a DMAP file (bad magic)")
    _, version, w, h = struct.unpack_from("<4sHII", blob)
    if version != DMAP_VERSION:
        raise FormatVersionError(f"{Path(path)}: unsupported DMAP version {version}")
    expected = 14 + 4 * w * h
    if len(blob) != expected:
        raise LengthMismatchError(f"{Path(path)}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob, "<f4", count=w * h, offset=14).reshape(h, w).copy()


# ---------------------------------------------------------------------------
# PGM masks


def save_mask_pgm(path, mask: np.ndarray):
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got {mask.shape}")
    h, w = mask.shape
    body = mask.astype(bool).view(np.uint8) * np.uint8(255)
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + body.tobytes())


# magic, then width, height and maxval, each a maximal run of non-whitespace
# bytes not starting with '#', after any whitespace and '#' comments (each
# running to the end of its line); then one whitespace byte
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*(?![^\n]))*(?!#)(\S+)(?!\S)" * 3 + rb"\s")


def load_mask_pgm(path) -> np.ndarray:
    blob = _read(path, "mask")
    if not blob.startswith(b"P5"):
        raise BadMaskError(f"{Path(path)}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise BadMaskError(f"{Path(path)}: truncated PGM header")
    try:
        w, h, maxval = map(int, header.groups())
        if w < 0 or h < 0:
            raise ValueError
    except ValueError:
        raise BadMaskError(f"{Path(path)}: malformed PGM header") from None
    if maxval != 255:
        raise BadMaskError(f"{Path(path)}: only 8-bit PGM supported, maxval={maxval}")
    i = header.end()
    if len(blob) - i != w * h:
        raise LengthMismatchError(f"{Path(path)}: expected {w * h} raster bytes, "
                                  f"got {len(blob) - i}")
    return (np.frombuffer(blob, np.uint8, count=w * h, offset=i).reshape(h, w) != 0)


# ---------------------------------------------------------------------------
# pose files


def save_pose(path, pose: CameraPose):
    m = pose.matrix()
    lines = [" ".join(repr(float(x)) for x in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def load_pose(path) -> CameraPose:
    return _poses([_pose_values(path)], [path])[0]


def _pose_values(path) -> list:
    """The 16 numbers of a pose file, row-major, after the checks that need
    the file alone; each failure raises BadPoseError naming the file."""
    tokens = _read(path, "pose").split()
    if len(tokens) != 16:
        raise BadPoseError(f"{Path(path)}: expected 16 values, got {len(tokens)}")
    try:
        values = list(map(float, tokens))
    except ValueError:
        raise BadPoseError(f"{Path(path)}: non-numeric pose entry") from None
    if not all(map(math.isfinite, values)):
        raise BadPoseError(f"{Path(path)}: non-finite pose entry")
    if values[12:] != [0.0, 0.0, 0.0, 1.0]:
        raise BadPoseError(f"{Path(path)}: last row must be exactly 0 0 0 1, got {values[12:]}")
    return values


def _poses(values: list, paths: list) -> list:
    """The CameraPoses of pose files given by their ``_pose_values``, whose
    rotation blocks are checked in one stacked pass, each once.

    A block must be orthonormal within POSE_FILE_ROTATION_TOL with a
    positive determinant, else BadPoseError names the first such file in
    order. Blocks off by more than 1e-7 are snapped to the nearest rotation
    and checked again; ``CameraPose.stack`` then applies the pose checks to
    the errors and determinants found here.
    """
    m = np.array(values, dtype=np.float64).reshape(-1, 4, 4)
    rot = m[:, :3, :3]
    err, det = rotation_checks(rot)
    bad = (err > POSE_FILE_ROTATION_TOL) | (det < 0)
    if bad.any():
        i = bad.argmax()
        raise BadPoseError(f"{Path(paths[i])}: rotation block not orthonormal within 1e-4 "
                           f"(err={err[i]:.2e})")
    snap = err > 1e-7
    if snap.any():
        # snap near-misses to the closest rotation; exactly-saved poses are
        # untouched so the text round-trip stays byte-identical
        u, _, vt = np.linalg.svd(rot[snap])
        rot[snap] = u @ vt
        err[snap], det[snap] = rotation_checks(rot[snap])
    return CameraPose.stack(rot, m[:, :3, 3], (err, det))


# ---------------------------------------------------------------------------
# JSON side files


JSON_BLOCK = 4096  # array entries (or rows) encoded per call of the C encoder


def _blocks(arr: np.ndarray, pad: str, rows: bool):
    """Pieces of the indented list ``arr.tolist()`` of a non-empty 1-D
    array, or of a 2-D array of non-empty rows, at indentation ``pad``.

    Each block of JSON_BLOCK entries is converted with ``tolist()`` and
    encoded by one call of the C encoder (``json.dumps`` without
    ``indent``), whose ``", "`` and ``"], ["`` separators are swapped for the
    indented ones; no number can contain them.
    """
    inner = pad + "  "
    yield "[" + inner
    for lo in range(0, len(arr), JSON_BLOCK):
        text = json.dumps(arr[lo:lo + JSON_BLOCK].tolist())
        if rows:
            text = text[2:-2].replace("], [", f"{inner}],{inner}[{inner}  ")
            text = f"[{inner}  " + text.replace(", ", f",{inner}  ") + f"{inner}]"
        else:
            text = text[1:-1].replace(", ", "," + inner)
        yield ("," + inner if lo else "") + text
    yield pad + "]"


def _chunks(obj, pad: str):
    """Pieces of ``json.dumps(obj, indent=2)`` written at indentation ``pad``,
    a numpy array taken as its ``tolist()``.

    A non-empty 1-D or 2-D number array goes block by block
    (:func:`_blocks`). Other lists and str-keyed dicts recurse; every other
    value is the plain encoder's output, re-indented to ``pad``.
    """
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim in (1, 2) and obj.size and obj.dtype.kind in "biuf":
            yield from _blocks(obj, pad, obj.ndim == 2)
            return
        obj = obj.tolist()
    if type(obj) is list and obj:
        for k, x in enumerate(obj):
            yield ("," if k else "[") + inner
            yield from _chunks(x, inner)
        yield pad + "]"
        return
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        for k, (key, value) in enumerate(obj.items()):
            yield f"{',' if k else '{'}{inner}{json.dumps(key)}: "
            yield from _chunks(value, inner)
        yield pad + "}"
        return
    yield json.dumps(obj, indent=2).replace("\n", pad)


def _write_json(path, obj):
    """Write ``json.dumps(obj, indent=2) + "\\n"``, byte for byte, a numpy
    array taken as its ``tolist()``.

    The text goes to the file piece by piece, so beyond ``obj`` itself the
    writer holds at most one block of JSON_BLOCK list entries as Python
    objects and text at a time.
    """
    with open(path, "w") as f:
        f.writelines(_chunks(obj, "\n"))
        f.write("\n")


def _read_json(path, what: str):
    try:
        doc = json.loads(_read(path, what).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ManifestError(f"{Path(path)}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"{Path(path)}: {what} file must hold a JSON object, "
                            f"got {type(doc).__name__}")
    return doc


_SUPERPOINT_ARRAYS = {"points": (np.float64, 2), "labels": (np.int64, 1)}  # dtype, ndim
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # every npz entry's timestamp
_NPZ_ERRORS = (zipfile.BadZipFile, EOFError, ValueError, OSError)
# the leading bytes by which np.load tells an npz archive from anything else
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")


def save_superpoints(path, points: np.ndarray, labels: np.ndarray):
    """Write ``points`` (N, 3) float64 and ``labels`` (N,) int64 as an
    uncompressed npz, byte for byte the same for the same arrays."""
    arrays = {"points": np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3),
              "labels": np.ascontiguousarray(labels, dtype=np.int64).reshape(-1)}
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            entry = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            with zf.open(entry, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, arr, allow_pickle=False)


def _load_superpoints_npz(path: Path):
    """(points, labels) of an npz written by save_superpoints; every other
    content raises ManifestError naming the file and the array."""
    arrays = {}
    # np.load reads an open file that the stack closes, also when np.load raises
    with contextlib.ExitStack() as stack:
        try:
            if _read(path, "superpoints", 4) not in _ZIP_MAGIC:
                raise ValueError("not a zip archive")
            npz = stack.enter_context(np.load(stack.enter_context(open(path, "rb")),
                                              allow_pickle=False))
        except _NPZ_ERRORS as e:
            raise ManifestError(f"{path}: not an npz archive of arrays 'points' and 'labels' "
                                f"({e})") from None
        if sorted(npz.files) != sorted(_SUPERPOINT_ARRAYS):
            raise ManifestError(f"{path}: arrays must be exactly 'points' and 'labels', "
                                f"got {sorted(npz.files)}")
        for name, (dtype, ndim) in _SUPERPOINT_ARRAYS.items():
            try:
                arr = arrays[name] = npz[name]
            except _NPZ_ERRORS as e:
                raise ManifestError(f"{path}: array '{name}' cannot be read ({e})") from None
            if arr.dtype != dtype:
                raise ManifestError(f"{path}: array '{name}' must be {np.dtype(dtype)}, "
                                    f"got {arr.dtype}")
            if arr.ndim != ndim or (ndim == 2 and arr.shape[1] != 3):
                raise ManifestError(f"{path}: array '{name}' must have shape "
                                    f"{'(N, 3)' if ndim == 2 else '(N,)'}, got {arr.shape}")
    points, labels = arrays["points"], arrays["labels"]
    if labels.shape[0] != points.shape[0]:
        raise ManifestError(f"{path}: array 'labels' has {labels.shape[0]} entries "
                            f"for {points.shape[0]} points")
    if not np.isfinite(points).all():
        raise ManifestError(f"{path}: array 'points' must hold finite numbers")
    return points, labels


def load_superpoints(path):
    """(points (N, 3) float64, labels (N,) int64) of a superpoints file: the
    npz layout of save_superpoints for a ``.npz`` name, the JSON schema
    ``geovos.superpoints/1`` for any other."""
    path = Path(path)
    if path.suffix == ".npz":
        return _load_superpoints_npz(path)
    doc = _read_json(path, "superpoints")
    if doc.get("schema") != SUPERPOINTS_SCHEMA:
        raise ManifestError(f"{path}: schema must be {SUPERPOINTS_SCHEMA}")
    points = _points(doc, path)
    labels = _int_list(doc.get("labels", []))
    if labels is None:
        raise ManifestError(f"{path}: field 'labels' must be a flat list of integers "
                            f"that fit int64")
    if labels.shape[0] != points.shape[0]:
        raise ManifestError(f"{path}: field 'labels' has {labels.shape[0]} entries "
                            f"for {points.shape[0]} points")
    return points, labels


def save_instances(path, instances: InstanceSet):
    _write_json(path, {
        "schema": INSTANCES_SCHEMA,
        "instances": [
            {
                "point_ids": (np.asarray(inst.point_ids, dtype=np.int64)
                              if inst.point_ids is not None else []),
                "confidence": float(inst.confidence),
            }
            for inst in instances.instances
        ],
    })


def _int_list(values) -> np.ndarray | None:
    """``values`` as an int64 array when it is a flat list of integers that
    fit int64, else None. Checked on the whole list at once: the set of
    entry types, which map and set build without a python-level loop, must
    be at most {int} (so no bool, float, string, null or nested list), and
    numpy refuses an int past int64."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        return None
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return None


def _point_ids(ids) -> np.ndarray | None:
    """``ids`` as an int64 array when it is a flat list of non-negative
    integers that fit int64, else None."""
    arr = _int_list(ids)
    return None if arr is None or (arr.size and arr.min() < 0) else arr


def _points(doc, path) -> np.ndarray:
    """Field ``points`` as (N, 3) float64 when it is a list of [x, y, z]
    number rows; otherwise ManifestError names the file and the field.
    Checked on the whole list at once: the rows must be lists and the set of
    their entry types at most {int, float} (so no bool, string or null),
    then numpy must build a numeric (N, 3) array from them (no ragged rows,
    no int too large for a numeric dtype)."""
    points = doc.get("points", [])
    arr = None
    if isinstance(points, list) and set(map(type, points)) <= {list} \
            and set(map(type, chain.from_iterable(points))) <= {int, float}:
        try:
            arr = np.asarray(points)
        except ValueError:  # ragged rows
            pass
    if arr is None or arr.size and (arr.ndim != 2 or arr.shape[1] != 3
                                    or arr.dtype.kind not in "iuf"):
        raise ManifestError(f"{path}: field 'points' must be a list of [x, y, z] numbers")
    return arr.astype(np.float64, copy=False).reshape(-1, 3)


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def load_instances(path) -> InstanceSet:
    """Load instances written by save_instances.

    Every ``point_ids`` must be a flat list of non-negative integers that
    fit int64 and every ``confidence`` a finite number; otherwise
    ManifestError names the file, the instance and the field. Ids are not
    checked against any scene here (load_scene does that for ground truth).
    """
    doc = _read_json(path, "instances")
    if doc.get("schema") != INSTANCES_SCHEMA:
        raise ManifestError(f"{path}: schema must be {INSTANCES_SCHEMA}")
    records = doc.get("instances", [])
    if not isinstance(records, list):
        raise ManifestError(f"{path}: field 'instances' must be a list")
    out = []
    for k, rec in enumerate(records):
        where = f"{path}: instances[{k}]"
        if not isinstance(rec, dict) or "point_ids" not in rec:
            raise ManifestError(f"{where} missing field 'point_ids'")
        point_ids = _point_ids(rec["point_ids"])
        if point_ids is None:
            raise ManifestError(f"{where}: field 'point_ids' must be a flat list of "
                                f"non-negative integers that fit int64")
        confidence = rec.get("confidence", 1.0)
        if not _finite_number(confidence):
            raise ManifestError(f"{where}: field 'confidence' must be a finite number, "
                                f"got {confidence!r}")
        out.append(Instance(fragments=[], confidence=float(confidence), point_ids=point_ids))
    return InstanceSet(out)


def save_pointset(path, points: np.ndarray):
    """Write a bare world-frame point set (the fragment exchange format)."""
    _write_json(path, {
        "schema": POINTSET_SCHEMA,
        "points": np.asarray(points, dtype=np.float64).reshape(-1, 3),
    })


def load_pointset(path) -> np.ndarray:
    doc = _read_json(path, "point set")
    if doc.get("schema") != POINTSET_SCHEMA:
        raise ManifestError(f"{path}: schema must be {POINTSET_SCHEMA}")
    return _points(doc, path)


def save_tracks(tracks: dict, out_dir, name="tracks.json"):
    """Write mask tracks: one PGM per visible frame plus a JSON index."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lengths = {len(t) for t in tracks.values()}
    if len(lengths) > 1:
        raise ValueError(f"tracks have differing lengths: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    index = {"schema": TRACKS_SCHEMA, "length": length, "tracks": {}}
    for obj_id in sorted(tracks):
        entries = []
        for t, mask in enumerate(tracks[obj_id].masks):
            if mask is None or not np.any(mask):
                entries.append(None)
            else:
                rel = f"{obj_id}_{t:04d}.pgm"
                save_mask_pgm(out_dir / rel, mask)
                entries.append(rel)
        index["tracks"][obj_id] = entries
    path = out_dir / name
    _write_json(path, index)
    return path


def load_tracks(path, scene=None) -> dict:
    """Load mask tracks written by save_tracks.

    ``tracks`` must be an object of lists of null or file names and
    ``length`` an integer; otherwise ManifestError names the file and the
    field. With a ``scene``, ``length`` must be the scene's frame count and
    every mask must match its frame's intrinsics; a size mismatch raises
    BadMaskError naming the tracks file, the object, the frame and both
    sizes.
    """
    path = Path(path)
    doc = _read_json(path, "tracks")
    if doc.get("schema") != TRACKS_SCHEMA:
        raise ManifestError(f"{path}: schema must be {TRACKS_SCHEMA}")
    length, records = doc.get("length", 0), doc.get("tracks", {})
    if isinstance(length, bool) or not isinstance(length, int):
        raise ManifestError(f"{path}: field 'length' must be an integer, got {length!r}")
    if not isinstance(records, dict):
        raise ManifestError(f"{path}: field 'tracks' must be an object")
    frames = scene.frames if scene is not None else []
    if scene is not None and length != len(frames):
        raise ManifestError(f"{path}: field 'length' is {length}, scene has "
                            f"{len(frames)} frames")
    root = str(path.parent)
    tracks = {}
    for obj_id, entries in records.items():
        if not isinstance(entries, list) or \
                not all(rel is None or isinstance(rel, str) for rel in entries):
            raise ManifestError(f"{path}: field 'tracks': track '{obj_id}' must be a list "
                                f"of null or file names")
        if len(entries) != length:
            raise ManifestError(f"{path}: track '{obj_id}' has {len(entries)} frames, "
                                f"manifest says {length}")
        masks = [None if rel is None else load_mask_pgm(os.path.join(root, rel))
                 for rel in entries]
        for t, (mask, frame) in enumerate(zip(masks, frames)):
            intr = frame.intrinsics
            if mask is not None and mask.shape != (intr.height, intr.width):
                raise BadMaskError(f"{path}: track '{obj_id}' frame {t}: mask is "
                                   f"{mask.shape[1]}x{mask.shape[0]}, frame is "
                                   f"{intr.width}x{intr.height}")
        tracks[obj_id] = MaskTrack(masks)
    return tracks


# ---------------------------------------------------------------------------
# scenes


_SIDE_FIELDS = ("scene_points", "superpoints", "gt_instances")
_SIDE_FILE_KEYS = ("superpoints", "gt_instances")  # the manifest fields naming side files
_SIDE_LOCK = threading.Lock()  # one first read of a scene's side files at a time


class _SideField:
    """A Scene field that a loaded scene reads from its side files when it
    is first accessed.

    An in-memory scene holds its value in the instance ``__dict__``, which
    this non-data descriptor never overrides. ``load_scene`` leaves the three
    side fields out of that dict and keeps the manifest path and the two
    side-file names under ``_side_files`` instead; the first access of any
    of them then reads and checks both files (``_read_side_files``) and puts
    all three values into the dict at once, under a lock, so concurrent
    callers see one set of values. A read error propagates as the
    IngestError it is, and the next access reads again.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, scene, owner=None):
        if scene is None:
            return None  # the field's default
        state = vars(scene)
        with _SIDE_LOCK:
            if self.name not in state:
                state.update(_read_side_files(*state["_side_files"]))
                del state["_side_files"]
        return state[self.name]


@dataclass(frozen=True, eq=False)
class Scene:
    """A loaded scene: dense frames plus optional 3D ground truth.

    A scene is immutable, like its frames: its fields cannot be reassigned
    and ``frames`` is a tuple. A changed scene is a new scene
    (``dataclasses.replace``); scenes compare and hash by identity, so
    whatever a caller keeps per scene (the sampler's draw index) can never
    go stale.

    A scene from ``load_scene`` reads its side files (superpoints and
    ground-truth instances) on the first access of ``scene_points``,
    ``superpoints`` or ``gt_instances``, and keeps all three values; until
    then it holds only their paths, so it pickles and copies as it is.
    ``dataclasses.replace`` reads every field, so it reads them too.
    """

    scene_id: str
    frames: tuple
    scene_points: np.ndarray | None = _SideField()
    superpoints: np.ndarray | None = _SideField()
    gt_instances: InstanceSet | None = _SideField()

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))

    @cached_property
    def object_ids(self) -> tuple:
        """The sorted ids of the objects that any frame holds a mask for."""
        return tuple(sorted({obj for f in self.frames for obj in f.masks}))

    def track(self, obj_id: str) -> MaskTrack:
        return MaskTrack([f.masks.get(obj_id) for f in self.frames])

    def tracks(self) -> dict:
        return {obj: self.track(obj) for obj in self.object_ids}


def _intrinsics_from_record(rec: dict, where: str, known: dict) -> CameraIntrinsics:
    """The intrinsics of a manifest record; ``known`` maps the converted
    records seen so far to their intrinsics, so that each distinct one is
    built once."""
    try:
        values = (float(rec["fx"]), float(rec["fy"]), float(rec["cx"]), float(rec["cy"]),
                  int(rec["width"]), int(rec["height"]))
        # 0.0 == -0.0, so the signs keep such records apart
        key = values + tuple(math.copysign(1.0, v) for v in values[:4])
        intr = known.get(key)
        if intr is None:
            intr = known[key] = CameraIntrinsics(*values)
        return intr
    except KeyError as e:
        raise ManifestError(f"{where}: missing intrinsics field {e}") from None
    except (TypeError, ValueError) as e:
        raise ManifestError(f"{where}: bad intrinsics ({e})") from None


def _load_frames(records: list, manifest_path: Path) -> list:
    """The frames of a manifest's ``frames`` records.

    Each frame's files are read and checked in frame order; the pose files'
    rotation blocks are then checked together, in one stacked pass
    (``_poses``), so with several faulty files a later frame's depth or mask
    error can be named before an earlier frame's bad rotation. What the
    frames do not keep goes when this returns, before the scene's side
    files are read.
    """
    root = str(manifest_path.parent)
    intrinsics, pose_values, pose_paths, parts = {}, [], [], []
    for i, rec in enumerate(records):
        where = f"{manifest_path}: frames[{i}]"
        for key in ("depth", "pose", "intrinsics"):
            if key not in rec:
                raise ManifestError(f"{where}: missing field '{key}'")
        for key in ("depth", "pose"):
            if not isinstance(rec[key], str):
                raise ManifestError(f"{where}: field '{key}' must be a file name")
        mask_files = rec.get("masks", {})
        if not isinstance(mask_files, dict) or \
                not all(isinstance(rel, str) for rel in mask_files.values()):
            raise ManifestError(f"{where}: field 'masks' must be an object of file names")
        intr = _intrinsics_from_record(rec["intrinsics"], where, intrinsics)
        depth = load_dmap(os.path.join(root, rec["depth"]))
        if depth.shape != (intr.height, intr.width):
            raise ManifestError(f"{where}: depth raster is {depth.shape[1]}x{depth.shape[0]}, "
                                f"intrinsics say {intr.width}x{intr.height}")
        pose_paths.append(os.path.join(root, rec["pose"]))
        pose_values.append(_pose_values(pose_paths[-1]))
        masks = {}
        for obj_id, rel in sorted(mask_files.items()):
            mask = load_mask_pgm(os.path.join(root, rel))
            if mask.shape != (intr.height, intr.width):
                raise BadMaskError(f"{where}: mask '{obj_id}' is {mask.shape[1]}x{mask.shape[0]}, "
                                   f"frame is {intr.width}x{intr.height}")
            masks[obj_id] = mask
        parts.append((intr, depth, masks))
    return [CameraFrame(i, intr, pose, depth, masks)
            for i, ((intr, depth, masks), pose)
            in enumerate(zip(parts, _poses(pose_values, pose_paths)))]


def load_scene(manifest_path) -> Scene:
    """Load a scene manifest and every frame file it names.

    The manifest and every frame's depth, pose and mask files are read and
    checked here; type errors name the offending file and field. The side
    files (``superpoints`` and ``gt_instances``) are only named here: the
    scene reads and checks both on the first access of ``scene_points``,
    ``superpoints`` or ``gt_instances`` (see ``Scene``), with the same
    errors. So ``merge`` and ``pipeline``, which vote and score against
    them, read them, while ``sample`` and ``lift`` read neither.
    """
    manifest_path = Path(manifest_path)
    doc = _read_json(manifest_path, "manifest")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(f"{manifest_path}: field 'schema' must be {MANIFEST_SCHEMA}, "
                            f"got {doc.get('schema')!r}")
    if "frames" not in doc:
        raise ManifestError(f"{manifest_path}: missing field 'frames'")
    if not isinstance(doc["frames"], list) or not all(isinstance(r, dict) for r in doc["frames"]):
        raise ManifestError(f"{manifest_path}: field 'frames' must be a list of objects")
    for key in _SIDE_FILE_KEYS:
        if doc.get(key) is not None and not isinstance(doc[key], str):
            raise ManifestError(f"{manifest_path}: field '{key}' must be a file name or null")
    frames = _load_frames(doc["frames"], manifest_path)
    scene = Scene(str(doc.get("scene_id", manifest_path.stem)), frames)
    side_files = [doc.get(key) or None for key in _SIDE_FILE_KEYS]
    if any(side_files):
        state = vars(scene)
        for name in _SIDE_FIELDS:
            del state[name]
        state["_side_files"] = (manifest_path, *side_files)
    return scene


def _read_side_files(manifest_path: Path, sp_name, gt_name) -> dict:
    """The three side fields of the scene of ``manifest_path`` whose side
    files are named ``sp_name`` and ``gt_name`` (each a name relative to
    the manifest, or None), read and checked in that order.

    The superpoint labels must form a partition, and every ground-truth
    point id must index the scene points; both errors are ManifestErrors
    naming the manifest.
    """
    scene_points = superpoints = None
    if sp_name:
        sp_path = manifest_path.parent / sp_name
        scene_points, labels = load_superpoints(sp_path)
        try:
            from .instance3d import SuperpointPartition
            SuperpointPartition(labels)
        except ValueError as e:
            kind = "array" if sp_path.suffix == ".npz" else "field"
            raise ManifestError(f"{manifest_path}: superpoints: {sp_path}: {kind} 'labels': "
                                f"{e}") from None
        superpoints = labels
    gt_instances = None
    if gt_name:
        gt_instances = load_instances(manifest_path.parent / gt_name)
        if scene_points is not None:
            n = scene_points.shape[0]
            for k, inst in enumerate(gt_instances.instances):
                if inst.point_ids.size and inst.point_ids.max() >= n:
                    raise ManifestError(f"{manifest_path}: gt_instances[{k}] references "
                                        f"point {int(inst.point_ids.max())}, scene has {n}")
    return {"scene_points": scene_points, "superpoints": superpoints,
            "gt_instances": gt_instances}


def save_scene(scene: Scene, out_dir) -> Path:
    """Write a scene to disk in the manifest layout; returns the manifest path."""
    out_dir = Path(out_dir)
    for sub in ("depth", "pose", "mask"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    frames_doc = []
    for f in scene.frames:
        depth_rel = f"depth/{f.frame_id:04d}.dmap"
        pose_rel = f"pose/{f.frame_id:04d}.txt"
        save_dmap(out_dir / depth_rel, f.depth if f.depth is not None
                  else np.zeros((f.intrinsics.height, f.intrinsics.width), np.float32))
        save_pose(out_dir / pose_rel, f.pose)
        masks_doc = {}
        for obj_id in sorted(f.masks):
            rel = f"mask/{f.frame_id:04d}_{obj_id}.pgm"
            save_mask_pgm(out_dir / rel, f.masks[obj_id])
            masks_doc[obj_id] = rel
        intr = f.intrinsics
        frames_doc.append({
            "depth": depth_rel,
            "pose": pose_rel,
            "intrinsics": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                           "width": intr.width, "height": intr.height},
            "masks": masks_doc,
        })
    doc = {
        "schema": MANIFEST_SCHEMA,
        "scene_id": scene.scene_id,
        "frames": frames_doc,
        "superpoints": None,
        "gt_instances": None,
    }
    if scene.superpoints is not None and scene.scene_points is not None:
        save_superpoints(out_dir / "superpoints.npz", scene.scene_points, scene.superpoints)
        doc["superpoints"] = "superpoints.npz"
    if scene.gt_instances is not None:
        save_instances(out_dir / "instances.json", scene.gt_instances)
        doc["gt_instances"] = "instances.json"
    manifest = out_dir / "manifest.json"
    _write_json(manifest, doc)
    return manifest


# ---------------------------------------------------------------------------
# synthetic box world


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and edge lengths (meters)."""

    center: tuple
    size: tuple

    def bounds(self) -> np.ndarray:
        c = np.asarray(self.center, dtype=np.float64)
        s = np.asarray(self.size, dtype=np.float64)
        if np.any(s <= 0):
            raise ValueError(f"box size must be positive, got {tuple(s)}")
        return np.concatenate([c - s / 2.0, c + s / 2.0])


@dataclass
class BoxWorld:
    scene: Scene
    gt_instances: InstanceSet
    gt_tracks: dict
    owners: list = field(default_factory=list)


def _ray_dirs_world(intr: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    us = np.arange(intr.width, dtype=np.float64)
    vs = np.arange(intr.height, dtype=np.float64)
    dx = (us[np.newaxis, :] - intr.cx) / intr.fx
    dy = (vs[:, np.newaxis] - intr.cy) / intr.fy
    rot = pose.rotation
    dirs = np.empty((intr.height, intr.width, 3), np.float64)
    # camera ray (dx, dy, 1) rotated to world; z-component 1 makes the slab
    # entry parameter equal the pinhole depth
    dirs[:, :, 0] = rot[0, 0] * dx + rot[0, 1] * dy + rot[0, 2]
    dirs[:, :, 1] = rot[1, 0] * dx + rot[1, 1] * dy + rot[1, 2]
    dirs[:, :, 2] = rot[2, 0] * dx + rot[2, 1] * dy + rot[2, 2]
    return dirs


# corner c of a box takes the low (index k) or high (index k + 3) bound on
# axis k as bit k of c is 0 or 1
_BOX_CORNERS = np.array([[k + 3 * ((c >> k) & 1) for k in range(3)] for c in range(8)])


def _box_windows(bounds: np.ndarray, intr: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    """Per-box pixel windows [v0, v1, u0, u1] for ``kernels.render_boxes``.

    A window is the bounding rectangle of the box's 8 projected corners,
    widened by at least 1 px on every side and clipped to the raster. A box
    is convex, so when every corner is in front of the camera its silhouette
    lies inside the rectangle, and a pixel ray outside the window passes the
    box 1 px or more away, orders of magnitude beyond rounding error. A box
    with a corner at camera depth <= 0, or with a non-finite projection,
    gets the whole raster.
    """
    # (B, 8, 3) camera-frame corners: rotation.T @ (corner - translation)
    cam = (bounds[:, _BOX_CORNERS] - pose.translation) @ pose.rotation
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (B, 8, 2) projections as (v, u): stacking min and max per axis
        # gives [v0, v1, u0, u1]
        vu = cam[..., 1::-1] / cam[..., 2:] * (intr.fy, intr.fx) + (intr.cy, intr.cx)
        windows = np.stack([np.floor(vu.min(axis=1)) - 1.0, np.floor(vu.max(axis=1)) + 2.0],
                           axis=2).reshape(-1, 4)
        ok = np.all(cam[..., 2] > 0.0, axis=1) & np.all(np.isfinite(windows), axis=1)
        windows = np.minimum(np.maximum(windows, 0.0),
                             (intr.height, intr.height, intr.width, intr.width))
    windows[~ok] = (0, intr.height, 0, intr.width)
    return windows.astype(np.int64)


def generate_boxworld(boxes, cameras, resolution=None) -> BoxWorld:
    """Render axis-aligned boxes into an exact synthetic scene.

    Args:
        boxes: list of Box (axis-aligned, interiors must not intersect;
            face-touching is allowed).
        cameras: list of (CameraPose, CameraIntrinsics) pairs.
        resolution: optional (width, height) sanity check against every
            camera's intrinsics.

    Returns:
        BoxWorld with the scene (float32 depth, per-box masks), ground
        truth instances over the lifted scene points, per-box mask tracks,
        and per-frame owner rasters.

    Each frame is rendered with one pixel window per box (``_box_windows``):
    the bounding rectangle of the box's projected corners widened by at
    least 1 px and clipped to the raster, or the whole raster when a corner
    lies at camera depth <= 0 or projects to a non-finite pixel. No ray
    outside a window hits its box, so the output is the same, byte for
    byte, as a render of every box over every ray.
    """
    bounds = np.stack([b.bounds() for b in boxes])
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo = np.maximum(bounds[i, :3], bounds[j, :3])
            hi = np.minimum(bounds[i, 3:], bounds[j, 3:])
            if np.all(lo < hi):
                raise ValueError(f"boxes {i} and {j} intersect")
    frames = []
    owners = []
    all_points = []
    all_owner_ids = []
    for fid, (pose, intr) in enumerate(cameras):
        if resolution is not None and (intr.width, intr.height) != tuple(resolution):
            raise ValueError(f"camera {fid} is {intr.width}x{intr.height}, "
                             f"expected {resolution[0]}x{resolution[1]}")
        origin = pose.translation
        for b, bb in enumerate(bounds):
            if np.all(origin > bb[:3]) and np.all(origin < bb[3:]):
                raise ValueError(f"camera {fid} origin lies inside box {b}")
        dirs = _ray_dirs_world(intr, pose)
        depth64, owner = kernels.render_boxes(origin, dirs, bounds,
                                              windows=_box_windows(bounds, intr, pose))
        depth = depth64.astype(np.float32)
        masks = {}
        for b in range(len(boxes)):
            m = owner == b
            if not m.any():
                continue
            masks[f"box{b}"] = m
            pc, _ = back_project(m, depth, intr)
            all_points.append(pose.to_world(pc.points))
            all_owner_ids.append(np.full(len(pc), b, np.int64))
        frames.append(CameraFrame(fid, intr, pose, depth, masks))
        owners.append(owner)
    if all_points:
        scene_points = np.concatenate(all_points)
        owner_ids = np.concatenate(all_owner_ids)
    else:
        scene_points = np.zeros((0, 3), np.float64)
        owner_ids = np.zeros(0, np.int64)

    # superpoints: each box's points split by octant around the box center
    centers = np.asarray([b.center for b in boxes], dtype=np.float64)
    sp_labels = np.full(scene_points.shape[0], -1, np.int64)
    next_id = 0
    for b in range(len(boxes)):
        sel = np.nonzero(owner_ids == b)[0]
        if sel.size == 0:
            continue
        rel = scene_points[sel] > centers[b]
        octant = rel[:, 0] * 4 + rel[:, 1] * 2 + rel[:, 2] * 1
        for oc in np.unique(octant):
            sp_labels[sel[octant == oc]] = next_id
            next_id += 1

    gt_instances = InstanceSet([
        Instance(
            fragments=[],
            confidence=1.0,
            superpoint_ids=frozenset(int(s) for s in np.unique(sp_labels[owner_ids == b]))
            if np.any(owner_ids == b) else frozenset(),
            point_ids=np.nonzero(owner_ids == b)[0].astype(np.int64),
        )
        for b in range(len(boxes))
    ])
    gt_tracks = {
        f"box{b}": MaskTrack([f.masks.get(f"box{b}") for f in frames])
        for b in range(len(boxes))
    }
    scene = Scene("boxworld", frames, scene_points, sp_labels, gt_instances)
    return BoxWorld(scene, gt_instances, gt_tracks, owners)
