"""VOS track metrics: IoU / Positive IoU / Successful IoU and track selection.

A track stores one optional binary mask per frame; ``None`` means the
object is absent (not visible / not predicted) and an all-false mask is
treated the same way. Frame indices are dense 0..T-1.

Per-frame IoU convention: two empty masks score 1.0 (correct absence is a
success, penalizing it would make the all-frame average punish correct
rejections), exactly one empty scores 0.0.
"""

from dataclasses import dataclass

import numpy as np


class TrackLengthMismatchError(ValueError):
    """Prediction and ground-truth tracks cover different frame counts."""


@dataclass
class MaskTrack:
    """Per-frame optional binary masks for one object identity."""

    masks: list

    def __post_init__(self):
        self.masks = list(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def visible(self, t: int) -> bool:
        m = self.masks[t]
        return m is not None and bool(np.any(m))

    def area(self, t: int) -> int:
        m = self.masks[t]
        return 0 if m is None else int(np.count_nonzero(m))

    def visibility(self) -> list:
        return [self.visible(t) for t in range(len(self.masks))]


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
    """IoU of two optional masks; both empty -> 1.0, exactly one empty -> 0.0."""
    p_empty = pred is None or not np.any(pred)
    g_empty = gt is None or not np.any(gt)
    if p_empty and g_empty:
        return 1.0
    if p_empty or g_empty:
        return 0.0
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred.astype(bool)
    g = gt.astype(bool)
    inter = int(np.count_nonzero(p & g))
    union = int(np.count_nonzero(p | g))
    return inter / union


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
    ious = [frame_iou(pred.masks[t], gt.masks[t]) for t in range(len(gt))]
    pos = [ious[t] for t in range(len(gt)) if gt.visible(t)]
    suc = [x for x in pos if x > 0]
    return TrackScores(
        iou=float(np.mean(ious)) if ious else 1.0,
        positive_iou=float(np.mean(pos)) if pos else None,
        successful_iou=float(np.mean(suc)) if suc else None,
        n_frames=len(ious),
        n_positive=len(pos),
        n_successful=len(suc),
    )


def count_visible_segments(gt: MaskTrack, l_min: int) -> int:
    """Number of maximal contiguous visible runs longer than l_min frames."""
    count = 0
    run = 0
    for t in range(len(gt)):
        if gt.visible(t):
            run += 1
        else:
            if run > l_min:
                count += 1
            run = 0
    if run > l_min:
        count += 1
    return count


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
    best_t = -1
    best_area = 0
    for t in range(len(gt)):
        area = gt.area(t)
        if area > best_area:
            best_area = area
            best_t = t
    if best_t < 0:
        raise ValueError("track has no visible frame")
    return best_t
