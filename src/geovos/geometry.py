"""Pinhole camera geometry: back-projection, rigid transforms, frustums.

Coordinate conventions
----------------------
* Camera frame: x right, y down, z forward (optical axis).
* Pose: world-from-camera, ``p_world = R @ p_cam + t``.
* Pixels: (u, v) = (column, row); integer coordinates at pixel centers;
  a continuous projection is inside the image iff 0 <= u < width and
  0 <= v < height (half-open bounds).
* Frustum: positive-depth half-space (z > z_near) intersected with the
  image rectangle; no far plane.

All operations are pure functions of their inputs. What the sampler keeps
between draws (visibility, back-projected masks, rows of overlap ratios)
lives in its own draw index.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import kernels

DEFAULT_Z_NEAR = 1e-4

ROTATION_TOL = 1e-6
_IDENTITY3 = np.eye(3)
_IDENTITY3.setflags(write=False)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(f"focal lengths must be positive and finite, got fx={self.fx}, "
                             f"fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be >= 1, got {self.width}x{self.height}")
        if not (np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError("principal point must be finite")


@dataclass(frozen=True)
class CameraPose:
    """World-from-camera rigid transform: ``p_world = rotation @ p_cam + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        # copies: a pose freezes its own arrays, never the caller's
        rot = np.array(self.rotation, dtype=np.float64)
        tra = np.array(self.translation, dtype=np.float64)
        check_poses(rot[None], tra[None])
        tra = tra.reshape(3)
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def stack(cls, rotations, translations, checks=None) -> list:
        """The poses ``CameraPose(rotations[i], translations[i])``, checked in
        one pass over the stacks (:func:`check_poses`, which raises the
        ``ValueError`` of the first pose that ``CameraPose`` rejects).

        ``checks`` is the ``rotation_checks`` of these very rotations, for a
        caller that has already computed it. The poses hold read-only views
        of copies of the two stacks, so the caller's arrays stay writable
        and no write to them reaches a pose.
        """
        rot = np.array(rotations, dtype=np.float64)
        tra = check_poses(rot, np.array(translations, dtype=np.float64), checks)
        rot.setflags(write=False)
        tra.setflags(write=False)
        poses = []
        for r, t in zip(rot, tra):
            pose = object.__new__(cls)
            object.__setattr__(pose, "rotation", r)
            object.__setattr__(pose, "translation", t)
            poses.append(pose)
        return poses

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def to_world(self, points: np.ndarray) -> np.ndarray:
        return apply_rigid(points, self.rotation, self.translation)

    def to_camera(self, points_world: np.ndarray) -> np.ndarray:
        rot = self.rotation.T
        return apply_rigid(points_world, rot, -rot @ self.translation)


@np.errstate(all="ignore")
def rotation_checks(rot: np.ndarray) -> tuple:
    """``(errors, dets)`` of an (n, 3, 3) stack of blocks: per block the
    largest entry of ``|block.T @ block - I|``, or ``inf`` when that is not
    finite (entries whose Gram product overflows), so that no block escapes
    a ``> tol`` check through a NaN; and its determinant.

    Both are computed once per block, with the same products (stacked
    ``np.matmul``, ``np.linalg.det``) as on each block alone, and warn of
    nothing.
    """
    err = np.abs(np.matmul(rot.swapaxes(-1, -2), rot) - _IDENTITY3).max(axis=(-2, -1))
    err[~np.isfinite(err)] = np.inf
    return err, np.linalg.det(rot)


def check_poses(rot: np.ndarray, tra: np.ndarray, checks=None) -> np.ndarray:
    """Check a stack of n float64 poses; returns the translations as (n, 3).

    ``rot`` must be (n, 3, 3) and ``tra`` hold 3 entries per pose. Every
    pose must be finite, its rotation orthonormal within ROTATION_TOL and
    of determinant +1 within ROTATION_TOL. Otherwise a ``ValueError`` names
    what is wrong with the first pose in stack order that fails, with the
    message that pose gives as ``CameraPose``. ``checks`` is the
    :func:`rotation_checks` of ``rot`` when the caller has it; otherwise it
    is computed here, once per pose.
    """
    if rot.ndim == 0 or tra.ndim == 0 or len(rot) != len(tra):
        raise ValueError(f"pose stacks must have one length, got rotations {rot.shape} "
                         f"and translations {tra.shape}")
    if tra.size != 3 * len(tra):
        raise ValueError(f"translation must have 3 entries, got shape {tra.shape[1:]}")
    tra = tra.reshape(len(tra), 3)
    if rot.shape[1:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rot.shape[1:]}")
    err, det = rotation_checks(rot) if checks is None else checks
    # a rotation within the tolerance is finite: its error would be inf
    ok = (err <= ROTATION_TOL) & (np.abs(det - 1.0) <= ROTATION_TOL) & np.isfinite(tra).all(axis=1)
    if not ok.all():
        i = ok.argmin()
        raise ValueError("pose contains non-finite values"
                         if not (np.isfinite(rot[i]).all() and np.isfinite(tra[i]).all()) else
                         "rotation is not orthonormal within 1e-6" if err[i] > ROTATION_TOL else
                         "rotation determinant is not +1 within 1e-6")
    return tra


class NonFiniteError(ValueError):
    """A point cloud holds a non-finite coordinate."""


NON_FINITE = "point cloud contains non-finite coordinates"


@dataclass
class PointCloud:
    """Finite 3D points, (N, 3) float64.

    Raises:
        NonFiniteError: if a coordinate is not finite.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise NonFiniteError(NON_FINITE)
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


def _read_only(raster: np.ndarray) -> np.ndarray:
    """``raster`` marked read-only; a view of another array is copied first,
    so that no write through the array it views can reach it."""
    if raster.base is not None:
        raster = raster.copy()
    raster.setflags(write=False)
    return raster


class LazyMasks(Mapping):
    """Base of a read-only mapping of masks that reads each one on its first
    access (a loaded scene's frames hold one, see ``ingest.load_scene``).

    A subclass returns every mask read-only and of size ``shape`` (rows,
    columns), or raises; a frame keeps such a mapping as it is and never
    iterates its values.
    """

    __slots__ = ()
    shape: tuple


@dataclass(frozen=True, eq=False)
class CameraFrame:
    """One observation: intrinsics, pose, depth raster, per-object masks.

    A frame is immutable: its fields cannot be reassigned, ``masks`` is a
    read-only mapping, and the depth raster and masks are read-only arrays
    (a view of another array is copied first). A changed frame is a new
    frame (``dataclasses.replace``); frames compare and hash by identity, so
    it never equals the old one, even when their values do. A frame keeps
    nothing derived from its rasters. Not covered: a write through some
    other view of a raster's memory made before the raster was handed to
    the frame.

    In-memory masks are checked against the intrinsics and frozen here. A
    :class:`LazyMasks` (a loaded frame's) is kept as it is, once its
    ``shape`` matches: it reads, checks and freezes each mask on that mask's
    first access, so a replaced frame shares it and reads no mask.
    """

    frame_id: int
    intrinsics: CameraIntrinsics
    pose: CameraPose
    depth: np.ndarray | None = None
    masks: Mapping = field(default_factory=dict)

    def __post_init__(self):
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth is not None and self.depth.shape != shape:
            raise ValueError(
                f"frame {self.frame_id}: depth shape {self.depth.shape} != intrinsics {shape}"
            )
        if isinstance(self.masks, LazyMasks):
            if self.masks.shape != shape:
                raise ValueError(f"frame {self.frame_id}: masks shape {self.masks.shape} "
                                 f"!= intrinsics {shape}")
        else:
            for obj, mask in self.masks.items():
                if mask.shape != shape:
                    raise ValueError(f"frame {self.frame_id}: mask '{obj}' shape {mask.shape} "
                                     f"!= intrinsics {shape}")
            masks = {obj: _read_only(mask) for obj, mask in self.masks.items()}
            object.__setattr__(self, "masks", MappingProxyType(masks))
        if self.depth is not None:
            object.__setattr__(self, "depth", _read_only(self.depth))

    def __reduce__(self):
        # a mapping proxy cannot be pickled or copied: rebuild from a plain dict;
        # lazy masks pickle themselves, unread masks as their paths
        masks = self.masks if isinstance(self.masks, LazyMasks) else dict(self.masks)
        return type(self), (self.frame_id, self.intrinsics, self.pose, self.depth, masks)


class OverlapRatio(NamedTuple):
    """frustum_overlap_ratio result; ``defined`` is False when no valid masked point exists."""

    ratio: float
    n_inside: int
    n_points: int

    @property
    def defined(self) -> bool:
        return self.n_points > 0


def apply_rigid(points: np.ndarray, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Apply ``p' = rot @ p + trans`` to (N, 3) points.

    Written elementwise (not matmul) so the kernels and the python oracles
    used in tests evaluate the identical IEEE expression.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    out = np.empty_like(pts)
    px, py, pz = pts[:, 0], pts[:, 1], pts[:, 2]
    out[:, 0] = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
    out[:, 1] = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
    out[:, 2] = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
    return out


def back_project(mask: np.ndarray, depth: np.ndarray, intr: CameraIntrinsics):
    """Back-project masked valid-depth pixels into the camera frame.

    Each masked pixel (u, v) with valid depth z yields
    ``((u - cx) * z / fx, (v - cy) * z / fy, z)``. Masked pixels with
    invalid depth are skipped and counted.

    Returns:
        (PointCloud, skipped) where skipped is the invalid-depth count.

    Raises:
        ValueError: if mask/depth dimensions disagree with the intrinsics.
    """
    expected = (intr.height, intr.width)
    if mask.shape != expected:
        raise ValueError(f"mask shape {mask.shape} != intrinsics {expected}")
    if depth.shape != expected:
        raise ValueError(f"depth shape {depth.shape} != intrinsics {expected}")
    pts, skipped = kernels.backproject_mask(mask, depth, intr.fx, intr.fy, intr.cx, intr.cy)
    return PointCloud(pts), skipped


def frustum_overlap_ratio(candidate: CameraFrame, obj_mask: np.ndarray,
                          reference: CameraFrame) -> OverlapRatio:
    """Fraction of the candidate's masked 3D points visible to the reference.

    The candidate's masked valid-depth pixels are back-projected, moved
    into the reference camera frame and tested against its frustum. The
    denominator counts only valid-depth masked pixels; with an empty
    denominator the ratio is 0.0 and ``defined`` is False. This is the
    one-candidate case of :func:`frustum_overlap_ratios`.

    Raises:
        ValueError: if the candidate has no depth raster, or a mask or
        depth shape other than its intrinsics'.
    """
    if candidate.depth is None:
        raise ValueError(f"frame {candidate.frame_id} has no depth raster")
    pc, _ = back_project(obj_mask, candidate.depth, candidate.intrinsics)
    same_camera = (candidate.intrinsics == reference.intrinsics
                   and np.array_equal(candidate.pose.rotation, reference.pose.rotation)
                   and np.array_equal(candidate.pose.translation, reference.pose.translation))
    (inside,), (n,) = _inside_counts([pc.points], candidate.pose.rotation[None],
                                     candidate.pose.translation[None], [same_camera], reference)
    return OverlapRatio(float(_ratios(inside, n)), int(inside), int(n))


FRUSTUM_BLOCK = 1 << 16  # points per block of the shared frustum pass
# A cloud of at least this many points is tested on its own, with scalar
# coefficients. The shared pass costs ~30 ns a point; a call of its own costs
# ~25 us plus ~18 ns a point, so the two break even near 2,000 points
# (clouds of 40-20,000 points, 2-vCPU x86 VM, numpy 2.4).
FRUSTUM_SOLO_POINTS = 2048


def _inside_counts(clouds, rotations, translations, same_camera,
                   reference: CameraFrame) -> tuple:
    """``(inside, n)``, int64 per candidate of :func:`frustum_overlap_ratios`:
    its points in the reference frustum, and all its points."""
    ri = reference.intrinsics
    camera = tuple(float(c) for c in (ri.fx, ri.fy, ri.cx, ri.cy, ri.width, ri.height,
                                        DEFAULT_Z_NEAR))
    ref_rot, ref_trans = reference.pose.rotation, reference.pose.translation
    rot = np.matmul(ref_rot.T, rotations)
    trans = np.matmul(ref_rot.T, (translations - ref_trans)[..., None])[..., 0]
    n = np.fromiter(map(len, clouds), np.int64, len(clouds))
    solo = n >= FRUSTUM_SOLO_POINTS
    inside = np.zeros(len(n), np.int64)
    for i in np.flatnonzero(solo).tolist():
        inside[i] = kernels.count_in_frustum(clouds[i], rot[i], trans[i], *camera)
    shared = np.where(solo, 0, n)
    ends = np.cumsum(shared)
    starts = ends - shared
    small = [c for c, s in zip(clouds, solo.tolist()) if not s]
    points = np.concatenate(small) if small else np.zeros((0, 3))
    coef = np.concatenate([rot.reshape(-1, 9), trans], axis=1).T  # (12, candidates)
    ok = np.empty(len(points), bool)
    for lo in range(0, len(points), FRUSTUM_BLOCK):
        hi = lo + FRUSTUM_BLOCK
        in_block = np.maximum(np.minimum(ends, hi) - np.maximum(starts, lo), 0)
        c = np.repeat(coef, in_block, axis=1)
        ok[lo:hi] = kernels.frustum_mask(points[lo:hi], c[:9].reshape(3, 3, -1), c[9:], *camera)
    counted = shared > 0
    inside[counted] += np.add.reduceat(ok, starts[counted], dtype=np.int64)
    # a pixel's back-projection lies in its own frustum by construction;
    # skipping the float round trip keeps the self-overlap exactly 1
    return np.where(same_camera, n, inside), n


def _ratios(inside, n):
    """``inside / n``, and 0.0 for an empty cloud (which has none inside)."""
    return inside / np.maximum(n, 1)


def frustum_overlap_ratios(clouds, rotations, translations, same_camera,
                           reference: CameraFrame) -> np.ndarray:
    """:func:`frustum_overlap_ratio` of many candidates against one reference.

    ``clouds[i]`` is candidate i's object points in its camera frame (the
    :func:`back_project` cloud of its masked valid-depth pixels), its pose
    is ``rotations[i]`` (3, 3) and ``translations[i]`` (3,), and
    ``same_camera[i]`` says whether its intrinsics and pose equal the
    reference's. The candidate to reference transforms are composed in one
    stacked matmul. Clouds of at least FRUSTUM_SOLO_POINTS points are counted
    one by one (``kernels.count_in_frustum``); all smaller clouds are tested
    in one shared pass, in blocks of at most FRUSTUM_BLOCK points, with the
    coefficients repeated over the clouds' sizes. Both evaluate the
    per-point expression of ``kernels.frustum_mask``. Returns the float64
    ratios in candidate order.
    """
    return _ratios(*_inside_counts(clouds, rotations, translations, same_camera, reference))


def depth_agreement_score(pc: PointCloud, ref_depth: np.ndarray, intr: CameraIntrinsics,
                          eps_rel: float) -> float:
    """Fraction of reference-frame points agreeing with a depth raster.

    A point agrees iff its nearest pixel is inside the raster with valid
    depth d and ``|z - d| <= eps_rel * d``. Points behind the camera never
    agree.

    Raises:
        ValueError: on an empty cloud.
    """
    if len(pc) == 0:
        raise ValueError("depth_agreement_score needs a nonempty point cloud")
    if ref_depth.shape != (intr.height, intr.width):
        raise ValueError(f"depth shape {ref_depth.shape} != intrinsics "
                         f"{(intr.height, intr.width)}")
    inliers = kernels.depth_agreement_count(
        pc.points, ref_depth, intr.fx, intr.fy, intr.cx, intr.cy, eps_rel
    )
    return inliers / len(pc)
