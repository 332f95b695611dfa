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

All operations are pure functions of their inputs, apart from the memo of
back-projected masks that each immutable ``CameraFrame`` keeps. Rows of
overlap ratios are kept by the sampler, not here.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import kernels

DEFAULT_Z_NEAR = 1e-4
DEFAULT_EPS_REL = 0.05

ROTATION_TOL = 1e-6


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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
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
        rot = np.asarray(self.rotation, dtype=np.float64)
        tra = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        if not np.all(np.isfinite(rot)) or not np.all(np.isfinite(tra)):
            raise ValueError("pose contains non-finite values")
        if np.max(np.abs(rot.T @ rot - np.eye(3))) > ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-6")
        if abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
            raise ValueError("rotation determinant is not +1 within 1e-6")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

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


@dataclass
class PointCloud:
    """Finite 3D points, (N, 3) float64."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
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


@dataclass(frozen=True)
class CameraFrame:
    """One observation: intrinsics, pose, depth raster, per-object masks.

    A frame is immutable: its fields cannot be reassigned, ``masks`` is a
    read-only mapping, and the depth raster and masks are read-only arrays
    (a view of another array is copied first). A changed frame is a new
    frame (``dataclasses.replace``) with memos of its own. Which objects
    have a nonempty mask is found once, at construction
    (:meth:`mask_nonempty`), and each object's back-projected points are
    memoised on first use (:meth:`object_points`). Not covered: a write
    through some other view of a raster's memory made before the raster was
    handed to the frame.
    """

    frame_id: int
    intrinsics: CameraIntrinsics
    pose: CameraPose
    depth: np.ndarray | None = None
    masks: Mapping = field(default_factory=dict)
    _visible: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = (self.intrinsics.height, self.intrinsics.width)
        if self.depth is not None and self.depth.shape != shape:
            raise ValueError(
                f"frame {self.frame_id}: depth shape {self.depth.shape} != intrinsics {shape}"
            )
        for obj, mask in self.masks.items():
            if mask.shape != shape:
                raise ValueError(
                    f"frame {self.frame_id}: mask '{obj}' shape {mask.shape} != intrinsics {shape}"
                )
        masks = {obj: _read_only(mask) for obj, mask in self.masks.items()}
        if self.depth is not None:
            object.__setattr__(self, "depth", _read_only(self.depth))
        object.__setattr__(self, "masks", MappingProxyType(masks))
        object.__setattr__(self, "_visible", frozenset(obj for obj, m in masks.items() if m.any()))

    def __reduce__(self):
        # a mapping proxy cannot be pickled or copied: rebuild from a plain dict
        return type(self), (self.frame_id, self.intrinsics, self.pose, self.depth,
                            dict(self.masks))

    def mask_nonempty(self, obj_id) -> bool:
        """Whether the frame holds a nonempty mask for the object."""
        return obj_id in self._visible

    def object_points(self, obj_id):
        """Camera-frame points of one object's mask, memoised.

        The points are the :func:`back_project` cloud of the masked
        valid-depth pixels (read-only), or None when the frame has no depth
        raster or no mask for the object. They are computed on the first
        call and kept for the frame's lifetime, 24 bytes per point.
        Concurrent callers may share a frame: a race only repeats the work.
        """
        mask = self.masks.get(obj_id)
        if mask is None or self.depth is None:
            return None
        points = self._points.get(obj_id)
        if points is None:
            points = back_project(mask, self.depth, self.intrinsics)[0].points
            points.setflags(write=False)
            self._points[obj_id] = points
        return points


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
                          reference: CameraFrame,
                          z_near: float = DEFAULT_Z_NEAR) -> OverlapRatio:
    """Fraction of the candidate's masked 3D points visible to the reference.

    The candidate's masked valid-depth pixels are back-projected, moved
    into the reference camera frame and tested against its frustum. The
    denominator counts only valid-depth masked pixels; with an empty
    denominator the ratio is 0.0 and ``defined`` is False.

    This per-pair form is the reference that :func:`frustum_overlap_ratios`,
    which the sampler runs, equals bit for bit.
    """
    if candidate.depth is None:
        raise ValueError(f"frame {candidate.frame_id} has no depth raster")
    pc, _ = back_project(obj_mask, candidate.depth, candidate.intrinsics)
    n = len(pc)
    if n == 0:
        return OverlapRatio(0.0, 0, 0)
    same_camera = (
        candidate.intrinsics == reference.intrinsics
        and np.array_equal(candidate.pose.rotation, reference.pose.rotation)
        and np.array_equal(candidate.pose.translation, reference.pose.translation)
    )
    if same_camera:
        # a pixel's back-projection lies in its own frustum by construction;
        # skipping the float round trip keeps the self-overlap exactly 1
        return OverlapRatio(1.0, n, n)
    rot = reference.pose.rotation.T @ candidate.pose.rotation
    trans = reference.pose.rotation.T @ (candidate.pose.translation - reference.pose.translation)
    ri = reference.intrinsics
    inside = kernels.count_in_frustum(
        pc.points, rot, trans, ri.fx, ri.fy, ri.cx, ri.cy, ri.width, ri.height, z_near
    )
    return OverlapRatio(inside / n, inside, n)


FRUSTUM_BLOCK = 1 << 16  # points per block of the shared frustum pass
# A cloud of at least this many points is tested on its own, with scalar
# coefficients. Per-point coefficients cost ~85 ns a point in the shared
# pass; a call of its own costs ~25 us plus ~20 ns a point, so the two
# break even near 600 points (measured on a 2-vCPU x86 VM, numpy 2.4).
FRUSTUM_SOLO_POINTS = 512


def frustum_overlap_ratios(candidates, obj_id, reference: CameraFrame) -> list:
    """:func:`frustum_overlap_ratio` of many candidates against one reference.

    Every candidate must hold a mask for ``obj_id``; its points come from
    the frame's memo (:meth:`CameraFrame.object_points`). The candidate to
    reference transforms are composed in one stacked matmul. Clouds of at
    least FRUSTUM_SOLO_POINTS points are tested one by one; all smaller
    clouds are tested in one shared pass with per-point coefficients, in
    blocks of at most FRUSTUM_BLOCK points. Both evaluate the per-point
    expression of ``kernels.count_in_frustum``, so the results equal the
    per-pair function's bit for bit, in candidate order.

    Raises:
        ValueError: at the first candidate without a depth raster.
    """
    ri = reference.intrinsics
    camera = tuple(float(c) for c in (ri.fx, ri.fy, ri.cx, ri.cy, ri.width, ri.height,
                                        DEFAULT_Z_NEAR))
    ref_rot, ref_trans = reference.pose.rotation, reference.pose.translation
    clouds = []
    for cand in candidates:
        if cand.depth is None:
            raise ValueError(f"frame {cand.frame_id} has no depth raster")
        clouds.append(cand.object_points(obj_id))
    if not clouds:
        return []
    n = np.array([len(pts) for pts in clouds], np.int64)
    cand_rot = np.array([c.pose.rotation for c in candidates])
    cand_trans = np.array([c.pose.translation for c in candidates])
    # a pixel's back-projection lies in its own frustum by construction;
    # skipping the float round trip keeps the self-overlap exactly 1
    same_camera = (np.array([c.intrinsics == ri for c in candidates], bool)
                   & np.all(cand_rot == ref_rot, axis=(1, 2))
                   & np.all(cand_trans == ref_trans, axis=1))
    counted = (n > 0) & ~same_camera
    inside = np.where(same_camera, n, 0)
    if counted.any():
        rot = np.matmul(ref_rot.T, cand_rot)
        trans = np.matmul(ref_rot.T, (cand_trans - ref_trans)[..., None])[..., 0]
        solo = counted & (n >= FRUSTUM_SOLO_POINTS)
        for i in np.flatnonzero(solo):
            inside[i] = np.count_nonzero(kernels.frustum_mask(clouds[i], rot[i], trans[i],
                                                              *camera))
        shared = counted & ~solo
        if shared.any():
            # per-point coefficients (3, 3, P) and (3, P), gathered by candidate index
            rot, trans = rot.transpose(1, 2, 0), trans.T
            seg = np.repeat(np.arange(len(clouds)), np.where(shared, n, 0))
            pts = np.concatenate([c for c, k in zip(clouds, shared) if k])
            for lo in range(0, len(pts), FRUSTUM_BLOCK):
                s = seg[lo:lo + FRUSTUM_BLOCK]
                ok = kernels.frustum_mask(pts[lo:lo + FRUSTUM_BLOCK], rot[:, :, s], trans[:, s],
                                          *camera)
                inside += np.bincount(s[ok], minlength=len(clouds))
    ratio = np.where(n == 0, 0.0, inside / np.maximum(n, 1))
    return [OverlapRatio(*r) for r in zip(ratio.tolist(), inside.tolist(), n.tolist())]


def depth_agreement_score(pc: PointCloud, ref_depth: np.ndarray, intr: CameraIntrinsics,
                          eps_rel: float = DEFAULT_EPS_REL) -> float:
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
