"""Track metrics against plain-python brute-force oracles."""

import dataclasses

import numpy as np
import pytest

from geovos.metrics import (MaskTrack, SubsetConfig, TrackLengthMismatchError,
                            co_visible_overlap, count_visible_segments, frame_iou,
                            pick_conditioning_frame, select_subset, track_metrics)


def random_track(rng, n_frames=20, shape=(6, 6), p_absent=0.3):
    masks = []
    for _ in range(n_frames):
        r = rng.random()
        if r < p_absent:
            masks.append(None)
        elif r < p_absent + 0.1:
            masks.append(np.zeros(shape, bool))  # present but empty
        else:
            masks.append(rng.random(shape) < rng.uniform(0.1, 0.9))
    return MaskTrack(masks)


# ---------------------------------------------------------------------------
# oracles: python sets and linear scans


def pixels(m):
    if m is None:
        return set()
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(m))}


def naive_frame_iou(p, g):
    ps, gs = pixels(p), pixels(g)
    if not ps and not gs:
        return 1.0
    if not ps or not gs:
        return 0.0
    return len(ps & gs) / len(ps | gs)


def naive_track_metrics(pred, gt):
    ious = [naive_frame_iou(p, g) for p, g in zip(pred.masks, gt.masks)]
    pos = [iou for iou, g in zip(ious, gt.masks) if pixels(g)]
    suc = [iou for iou in pos if iou > 0]
    return (float(np.mean(ious)),
            float(np.mean(pos)) if pos else None,
            float(np.mean(suc)) if suc else None,
            len(pos), len(suc))


def naive_segments(gt, l_min):
    vis = [bool(pixels(m)) for m in gt.masks]
    count, run = 0, 0
    for v in vis + [False]:
        if v:
            run += 1
        else:
            if run > l_min:
                count += 1
            run = 0
    return count


def naive_conditioning(gt):
    areas = [len(pixels(m)) for m in gt.masks]
    best = max(areas)
    assert best > 0
    return areas.index(best)


def naive_extent(m):
    """(area, first row, row end, first column, column end) by a pixel scan."""
    px = pixels(m)
    if not px:
        return (0, 0, 0, 0, 0)
    rows, cols = [i for i, _ in px], [j for _, j in px]
    return (len(px), min(rows), max(rows) + 1, min(cols), max(cols) + 1)


class TestMaskTrack:
    def test_immutable_read_only_bool_masks(self):
        m = np.zeros((3, 4), np.uint8)
        m[1, 2] = 7
        track = MaskTrack([m, None])
        assert isinstance(track.masks, tuple) and track.masks[1] is None
        assert track.masks[0].dtype == bool and not track.masks[0].flags.writeable
        with pytest.raises(ValueError):
            track.masks[0][0, 0] = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.masks = ()

    def test_a_view_is_copied(self):
        base = np.zeros((4, 4), bool)
        track = MaskTrack([base[1:]])
        base[2, 2] = True  # a write through the viewed array never reaches the track
        assert not track.visible(0)

    def test_extents_on_first_use_only(self):
        track = random_track(np.random.default_rng(8))
        assert "extents" not in vars(track)
        track.visible(0)
        extents = vars(track)["extents"]
        assert track.extents is extents
        assert not extents.flags.writeable

    def test_extents_match_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            track = random_track(rng, shape=(5, 7))
            assert [tuple(row) for row in track.extents.tolist()] == \
                [naive_extent(m) for m in track.masks]
            assert track.visibility() == [bool(pixels(m)) for m in track.masks]


class TestCoVisibleOverlap:
    def test_matches_whole_mask_count(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = random_track(rng), random_track(rng)
            frames, inter = co_visible_overlap(a, b)
            want = [t for t in range(len(a)) if pixels(a.masks[t]) and pixels(b.masks[t])]
            assert frames.tolist() == want
            assert inter.tolist() == [len(pixels(a.masks[t]) & pixels(b.masks[t]))
                                      for t in want]

    def test_disjoint_boxes_count_zero(self):
        a, b = np.zeros((6, 6), bool), np.zeros((6, 6), bool)
        a[:2, :2], b[4:, 4:] = True, True
        frames, inter = co_visible_overlap(MaskTrack([a]), MaskTrack([b]))
        assert frames.tolist() == [0] and inter.tolist() == [0]

    def test_shapes_checked_on_co_visible_frames_only(self):
        small, big = np.ones((3, 3), bool), np.ones((4, 4), bool)
        frames, _ = co_visible_overlap(MaskTrack([small, None]), MaskTrack([None, big]))
        assert frames.tolist() == []
        with pytest.raises(ValueError, match=r"^mask shapes differ: \(3, 3\) vs \(4, 4\)$"):
            co_visible_overlap(MaskTrack([None, small]), MaskTrack([big, big]))


class TestFrameIou:
    def test_both_absent(self):
        assert frame_iou(None, None) == 1.0
        assert frame_iou(np.zeros((3, 3), bool), None) == 1.0

    def test_one_empty(self):
        m = np.ones((3, 3), bool)
        assert frame_iou(None, m) == 0.0
        assert frame_iou(m, np.zeros((3, 3), bool)) == 0.0

    def test_quarter_overlap(self):
        pred = np.zeros((4, 4), bool)
        gt = np.zeros((4, 4), bool)
        pred[0, 0:4] = True   # 4 px
        gt[0:2, 0:3] = True   # 6 px, intersection 3... build |i|=2, |u|=8
        pred = np.zeros((4, 4), bool)
        gt = np.zeros((4, 4), bool)
        pred[0, 0:5] = True
        pred[0, :4] = True
        gt[0, 2:4] = True
        gt[1, 0:4] = True
        # pred = 4 px row0, gt = 2 px row0 + 4 px row1; inter 2, union 8
        assert frame_iou(pred, gt) == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frame_iou(np.ones((3, 3), bool), np.ones((4, 4), bool))


class TestTrackMetrics:
    def test_perfect_track(self):
        rng = np.random.default_rng(0)
        gt = random_track(rng)
        scores = track_metrics(gt, gt)
        assert scores.iou == 1.0
        if scores.n_positive:
            assert scores.positive_iou == 1.0 and scores.successful_iou == 1.0

    def test_always_empty_prediction(self):
        gt_masks = [np.ones((4, 4), bool) if t % 2 == 0 else None for t in range(10)]
        pred = MaskTrack([None] * 10)
        scores = track_metrics(pred, MaskTrack(gt_masks))
        assert scores.iou == 0.5
        assert scores.positive_iou == 0.0
        assert scores.successful_iou is None and scores.n_successful == 0

    def test_length_mismatch_is_typed(self):
        with pytest.raises(TrackLengthMismatchError):
            track_metrics(MaskTrack([None]), MaskTrack([None, None]))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred, gt = random_track(rng), random_track(rng)
            scores = track_metrics(pred, gt)
            iou, pos, suc, n_pos, n_suc = naive_track_metrics(pred, gt)
            assert scores.iou == iou
            assert scores.positive_iou == pos
            assert scores.successful_iou == suc
            assert (scores.n_positive, scores.n_successful) == (n_pos, n_suc)

    def test_successful_at_least_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = track_metrics(random_track(rng), random_track(rng))
            if scores.successful_iou is not None:
                assert scores.successful_iou >= scores.positive_iou

    def test_support_counts_partition_frames(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = random_track(rng)
            pred = random_track(rng)
            scores = track_metrics(pred, gt)
            invisible = sum(1 for t in range(len(gt)) if not gt.visible(t))
            assert scores.n_positive + invisible == scores.n_frames

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pred, gt = random_track(rng), random_track(rng)
        base = track_metrics(pred, gt)
        perm = rng.permutation(len(gt))
        shuffled = track_metrics(MaskTrack([pred.masks[i] for i in perm]),
                                 MaskTrack([gt.masks[i] for i in perm]))
        assert np.isclose(base.iou, shuffled.iou)
        assert (base.positive_iou is None) == (shuffled.positive_iou is None)
        if base.positive_iou is not None:
            assert np.isclose(base.positive_iou, shuffled.positive_iou)


class TestSegments:
    def test_two_runs(self):
        vis = [1, 1, 0, 0, 1, 1, 1]
        masks = [np.ones((2, 2), bool) if v else None for v in vis]
        assert count_visible_segments(MaskTrack(masks), l_min=1) == 2

    def test_all_visible_single_run(self):
        masks = [np.ones((2, 2), bool)] * 7
        assert count_visible_segments(MaskTrack(masks), l_min=5) == 1
        assert count_visible_segments(MaskTrack(masks), l_min=7) == 0

    def test_all_hidden(self):
        assert count_visible_segments(MaskTrack([None] * 5), l_min=1) == 0

    def test_appending_hidden_frame_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gt = random_track(rng)
            longer = MaskTrack(list(gt.masks) + [None])
            assert count_visible_segments(gt, 2) == count_visible_segments(longer, 2)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gt = random_track(rng)
            for l_min in (1, 2, 5):
                assert count_visible_segments(gt, l_min) == naive_segments(gt, l_min)


class TestSelectSubset:
    def test_single_segment_excluded(self):
        track = MaskTrack([np.ones((2, 2), bool)] * 8)
        assert select_subset({"a": track}, SubsetConfig(l_min=2, seg_min=2)) == set()

    def test_seg_min_one_keeps_any_qualifier(self):
        track = MaskTrack([np.ones((2, 2), bool)] * 8)
        hidden = MaskTrack([None] * 8)
        got = select_subset({"a": track, "b": hidden}, SubsetConfig(l_min=2, seg_min=1))
        assert got == {"a"}

    def test_mixed_fixture(self):
        def seg_track(runs):
            masks = []
            for length, visible in runs:
                masks += [np.ones((2, 2), bool) if visible else None] * length
            return MaskTrack(masks)

        tracks = {
            "t0": seg_track([(3, True), (2, False), (3, True)]),   # 2 segments at l_min 2
            "t1": seg_track([(8, True)]),                          # 1 segment
            "t2": seg_track([(2, True), (2, False), (2, True)]),   # runs too short
            "t3": seg_track([(4, True), (1, False), (4, True), (1, False), (3, True)]),
            "t4": seg_track([(8, False)]),
        }
        cfg = SubsetConfig(l_min=2, seg_min=2)
        assert select_subset(tracks, cfg) == {"t0", "t3"}
        for tid, track in tracks.items():
            want = naive_segments(track, cfg.l_min) >= cfg.seg_min
            assert (tid in select_subset(tracks, cfg)) == want


class TestConditioningFrame:
    def test_single_visible(self):
        masks = [None, np.ones((2, 2), bool), None]
        assert pick_conditioning_frame(MaskTrack(masks)) == 1

    def test_tie_breaks_earliest(self):
        m3 = np.zeros((4, 4), bool); m3[0, :3] = True
        m9a = np.zeros((4, 4), bool); m9a[:3, :3] = True
        m9b = np.zeros((4, 4), bool); m9b[1:, 1:] = True
        assert pick_conditioning_frame(MaskTrack([m3, m9a, m9b])) == 1

    def test_no_visible_raises(self):
        with pytest.raises(ValueError):
            pick_conditioning_frame(MaskTrack([None, np.zeros((2, 2), bool)]))

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gt = random_track(rng)
            if not any(gt.visibility()):
                continue
            assert pick_conditioning_frame(gt) == naive_conditioning(gt)

