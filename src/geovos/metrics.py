"""VOS track metrics: IoU / Positive IoU / Successful IoU and track selection.

A track stores one optional binary mask per frame; ``None`` means the
object is absent (not visible / not predicted) and an all-false mask is
treated the same way. Frame indices are dense 0..T-1.

Per-frame IoU convention: two empty masks score 1.0 (correct absence is a
success, penalizing it would make the all-frame average punish correct
rejections), exactly one empty scores 0.0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import _read_only


class TrackLengthMismatchError(ValueError):
    """Prediction and ground-truth tracks cover different frame counts."""


@dataclass(frozen=True, eq=False)
class MaskTrack:
    """Per-frame optional binary masks for one object identity.

    A track is immutable: ``masks`` is a tuple of None or read-only bool
    arrays (a view of another array is copied first, as in CameraFrame).
    Each frame's pixel count and bounding box (:attr:`extents`) are found
    once, on first use, and every visibility and area query reads them.
    """

    masks: tuple

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(
            None if m is None else _read_only(np.asarray(m, dtype=bool)) for m in self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def extents(self) -> np.ndarray:
        """(T, 5) int64 rows (area, first row, row end, first column, column
        end) of each frame's mask bounding box; all 0 where the mask is
        absent or empty."""
        out = np.zeros((len(self.masks), 5), np.int64)
        for t, m in enumerate(self.masks):
            rows = () if m is None else np.flatnonzero(m.any(axis=1))
            if len(rows):
                cols = np.flatnonzero(m[rows[0]:rows[-1] + 1].any(axis=0))
                out[t] = np.count_nonzero(m), rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
        out.setflags(write=False)
        return out

    @property
    def areas(self) -> np.ndarray:
        return self.extents[:, 0]

    def visible(self, t: int) -> bool:
        return bool(self.areas[t])

    def visibility(self) -> list:
        return (self.areas > 0).tolist()


def co_visible_overlap(a: MaskTrack, b: MaskTrack):
    """(frames, inter): the frames where both tracks of one length are
    visible, and the pixel count their masks share on each.

    The count is taken on the overlap of the two bounding boxes only (0
    where they are disjoint): the same integer as on the whole masks.

    Raises:
        ValueError: if two co-visible masks differ in shape.
    """
    frames = np.flatnonzero((a.areas > 0) & (b.areas > 0))
    for t in frames.tolist():
        if a.masks[t].shape != b.masks[t].shape:
            raise ValueError(f"mask shapes differ: {a.masks[t].shape} vs {b.masks[t].shape}")
    lo = np.maximum(a.extents[frames, 1::2], b.extents[frames, 1::2])  # first row, column
    hi = np.minimum(a.extents[frames, 2::2], b.extents[frames, 2::2])  # row, column end
    inter = np.zeros(len(frames), np.int64)
    for i in np.flatnonzero((lo < hi).all(axis=1)).tolist():
        (r0, c0), (r1, c1), t = lo[i], hi[i], frames[i]
        inter[i] = np.count_nonzero(a.masks[t][r0:r1, c0:c1] & b.masks[t][r0:r1, c0:c1])
    return frames, inter


@dataclass
class TrackScores:
    """Aggregate scores for one track; undefined metrics are None with count 0."""

    iou: float
    positive_iou: float | None
    successful_iou: float | None
    n_frames: int
    n_positive: int
    n_successful: int


@dataclass(frozen=True)
class SubsetConfig:
    """Selection rule for reappearance-heavy tracks.

    A visible segment counts when its length strictly exceeds ``l_min``; a
    track enters the subset with at least ``seg_min`` such segments. The
    defaults are calibration placeholders.
    """

    l_min: int = 5
    seg_min: int = 2

    def __post_init__(self):
        if self.l_min < 1 or self.seg_min < 1:
            raise ValueError("l_min and seg_min must be >= 1")


def frame_iou(pred, gt) -> float:
    """IoU of two optional masks; both empty -> 1.0, exactly one empty -> 0.0.
    Array arguments become read-only, as in MaskTrack."""
    return track_metrics(MaskTrack([pred]), MaskTrack([gt])).iou


def track_metrics(pred: MaskTrack, gt: MaskTrack) -> TrackScores:
    """Score a predicted track against ground truth.

    * iou: mean frame IoU over all frames (absent frames included).
    * positive_iou: mean over frames with a nonempty GT mask.
    * successful_iou: mean over GT-visible frames with frame IoU > 0.

    Positive/successful are None when their support is empty.
    """
    if len(pred) != len(gt):
        raise TrackLengthMismatchError(
            f"track lengths differ: pred {len(pred)} vs gt {len(gt)}"
        )
    frames, inter = co_visible_overlap(pred, gt)
    ious = ((pred.areas == 0) & (gt.areas == 0)).astype(np.float64)
    ious[frames] = inter / (pred.areas[frames] + gt.areas[frames] - inter)
    pos = ious[gt.areas > 0]
    suc = pos[pos > 0]
    return TrackScores(
        iou=float(np.mean(ious)) if len(ious) else 1.0,
        positive_iou=float(np.mean(pos)) if len(pos) else None,
        successful_iou=float(np.mean(suc)) if len(suc) else None,
        n_frames=len(ious),
        n_positive=len(pos),
        n_successful=len(suc),
    )


def count_visible_segments(gt: MaskTrack, l_min: int) -> int:
    """Number of maximal contiguous visible runs longer than l_min frames."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], gt.areas > 0, [0]))))
    return int(np.count_nonzero(edges[1::2] - edges[::2] > l_min))


def select_subset(tracks, cfg: SubsetConfig):
    """Ids of tracks with at least cfg.seg_min qualifying visible segments."""
    return {
        tid for tid, track in tracks.items()
        if count_visible_segments(track, cfg.l_min) >= cfg.seg_min
    }


def pick_conditioning_frame(gt: MaskTrack) -> int:
    """Frame with the largest visible mask area; ties go to the earliest frame.

    Raises:
        ValueError: if the track has no visible frame.
    """
    if not gt.areas.any():
        raise ValueError("track has no visible frame")
    return int(np.argmax(gt.areas))
