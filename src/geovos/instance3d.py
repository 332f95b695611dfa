"""Class-agnostic 3D instances from tracked 2D masks.

The pipeline is a chain of stages that callers compose as they need:

* ``lift_all`` erodes each keyframe mask and lifts it through depth and
  pose into a world-frame fragment;
* ``score_depth`` scores each fragment against the later depth rasters
  (a diagnostic that only ``geovos lift`` reports);
* ``merge_instances`` groups the fragments of each track and joins two
  groups when some pair of their fragments has a high enough 3D voxel
  overlap or temporal 2D overlap from the later keyframe on (OR across
  criteria);
* ``assign_superpoints`` resolves duplicate geometry by majority voting at
  the superpoint level.

``run_pipeline`` is lift, merge and vote. It builds one ``voxel_index``
per run, over the fragments' points and, when the scene has superpoints,
the scene points: voxel_keys runs once, and the merge, the vote and the
voxel records of an unvoted run all read that index. Called on their own,
merge_instances and assign_superpoints build an index of their own.
Evaluation follows the usual scan-benchmark AP protocol on point sets.
"""

from dataclasses import dataclass, field
from itertools import combinations
from operator import is_

import numpy as np

from . import kernels
from .geometry import (CameraIntrinsics, CameraPose, NonFiniteError, PointCloud, back_project,
                       depth_agreement_score)
from .metrics import MaskTrack, co_visible_overlap

AP_BAND = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class MergeConfig:
    """Thresholds for lifting and merging; defaults are calibration knobs."""

    voxel_size: float = 0.05
    theta_3d: float = 0.25
    theta_iou: float = 0.5
    theta_prec: float = 0.8
    erosion_radius: int = 1
    eps_rel: float = 0.05

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be > 0")
        for name in ("theta_3d", "theta_iou", "theta_prec"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.erosion_radius < 0:
            raise ValueError("erosion_radius must be >= 0")


@dataclass
class Fragment:
    """World-frame points lifted from one keyframe mask.

    ``source`` is (keyframe id, mask id); ``track`` is the object's whole
    track, shared by its fragments; the merge reads it from the keyframe
    ``source[0]`` on (propagation is forward-only).
    """

    points: PointCloud
    source: tuple
    track: MaskTrack | None = None
    depth_agreement: float | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass
class LiftResult:
    """Outcome of lift_fragment; ``reason`` is set when the lift was rejected."""

    fragment: Fragment | None
    reason: str | None = None
    n_skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.fragment is not None


@dataclass
class SuperpointPartition:
    """Dense superpoint labels, one per scene point."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if labels.size and labels.min() < 0:
            raise ValueError("superpoint labels must be >= 0")
        # the size guard comes first: bincount allocates max + 1 counters
        if labels.size and not (labels.max() < labels.size and np.bincount(labels).all()):
            raise ValueError("superpoint ids must be dense 0..max")
        self.labels = labels

    @property
    def n_superpoints(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


@dataclass
class Instance:
    """One merged 3D instance."""

    fragments: list = field(default_factory=list)
    confidence: float = 1.0
    superpoint_ids: frozenset | None = None
    point_ids: np.ndarray | None = None

    @property
    def sources(self):
        return tuple(f.source for f in self.fragments)


@dataclass
class InstanceSet:
    instances: list

    def __len__(self) -> int:
        return len(self.instances)


def erode(mask: np.ndarray, radius: int) -> np.ndarray:
    """Erode a binary mask; see kernels.erode_mask for the exact definition."""
    return kernels.erode_mask(mask, radius)


def voxel_keys(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """(N, 3) int64 voxel key of every point: floor(coordinate / voxel_size) per axis;
    a key past int64 raises ValueError naming ``voxel_size``."""
    with np.errstate(over="ignore"):
        keys = np.asarray(points, dtype=np.float64).reshape(-1, 3) / voxel_size
    np.floor(keys, out=keys)
    # NaN fails both comparisons
    if keys.size and not (keys.min() > -2.0**63 and keys.max() < 2.0**63):
        raise ValueError(f"voxel_size {voxel_size} puts a voxel key outside int64")
    return keys.astype(np.int64)


def lift_fragment(mask: np.ndarray, depth: np.ndarray, pose: CameraPose,
                  intr: CameraIntrinsics, cfg: MergeConfig,
                  source: tuple = (0, "obj"), track: MaskTrack | None = None) -> LiftResult:
    """Erode, back-project and lift one mask into a world-frame fragment.

    Rejections (empty eroded mask, no valid depth under the mask) come back
    as a LiftResult with a reason, not an exception.

    Raises:
        ValueError: naming the frame and object of ``source`` when a point,
            in the camera or the world frame, is not finite.
    """
    eroded = erode(mask, cfg.erosion_radius)
    if not eroded.any():
        return LiftResult(None, "empty mask after erosion")
    try:
        pc, skipped = back_project(eroded, depth, intr)
        if len(pc) == 0:
            return LiftResult(None, "no valid depth under eroded mask", skipped)
        with np.errstate(over="ignore", invalid="ignore"):
            world = PointCloud(pose.to_world(pc.points))
    except NonFiniteError as e:
        raise ValueError(f"frame {source[0]}: object {source[1]!r}: {e}") from None
    return LiftResult(Fragment(world, source, track), None, skipped)


def temporal_overlap2d(track_a: MaskTrack, track_b: MaskTrack):
    """Mean IoU and mean precision over frames where both masks are nonempty.

    Precision uses min(|A|, |B|) as the denominator so containment of a
    small mask in a large one scores 1. Returns (0.0, 0.0) when the tracks
    are never co-visible. This is the merge's temporal score of two tracks
    from frame 0 on (``_overlap_series``, ``_suffix_means``).
    """
    if len(track_a) != len(track_b):
        raise ValueError(f"track lengths differ: {len(track_a)} vs {len(track_b)}")
    return _suffix_means(_overlap_series(track_a, track_b), 0)


class UnionFind:
    """Array union-find with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


# Voxel columns per block of the fragment x voxel incidence: bounds the
# dense block at about _BLOCK_CELLS cells whatever the scene size.
_BLOCK_CELLS = 1 << 20

# Integers in [0, bound) are ranked through a bool table over the range when
# it holds at most this many cells per integer, and sorted otherwise: the
# table is O(n + bound) time, the sort is what bounds memory on sparse input.
_TABLE_CELLS_PER_VALUE = 4


def _distinct(values: np.ndarray, bound: int, inverse: bool = False):
    """np.unique(values), and with ``inverse`` also its inverse, of int64
    ``values`` in [0, bound): through a bool table over the range when
    ``bound`` is at most _TABLE_CELLS_PER_VALUE per value, else by a sort."""
    if bound > _TABLE_CELLS_PER_VALUE * len(values):
        return np.unique(values, return_inverse=True) if inverse else _sorted_unique(values)
    table = np.zeros(bound, bool)
    table[values] = True
    distinct = np.flatnonzero(table)
    if not inverse:
        return distinct
    rank = np.empty(bound, np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[values]


def _cells(x: np.ndarray):
    """(cell of each value, cell count) for int64 ``x``: equal values share a
    cell and distinct values get distinct cells. A cell is the offset from
    the smallest value when the values span at most _TABLE_CELLS_PER_VALUE
    cells per value, else the position among the distinct values."""
    if not x.size:
        return x, 0
    low = int(x.min())
    span = int(x.max()) - low + 1
    if span <= _TABLE_CELLS_PER_VALUE * x.size:
        return x - low, span
    distinct, inverse = np.unique(x, return_inverse=True)
    return inverse, len(distinct)


def _rank_keys(keys: np.ndarray):
    """np.unique(keys, axis=0, return_inverse=True) of (N, 3) int64 keys: the
    distinct keys in lexicographic order and each key's position among them."""
    if not len(keys):
        return keys.reshape(0, 3), np.zeros(0, np.int64)
    # one column at a time: a reduction along axis 0 of an (N, 3) array is slow
    low = [int(keys[:, a].min()) for a in range(3)]
    span = [int(keys[:, a].max()) - lo + 1 for a, lo in enumerate(low)]  # python ints: no wrap
    cells = span[0] * span[1] * span[2]
    if cells >= 2**62:
        distinct, ids = np.unique(keys, axis=0, return_inverse=True)
        return distinct, ids.reshape(-1)
    # the row-major rank in the bounding box orders keys lexicographically
    rank = keys[:, 0] - low[0]
    rank *= span[1]
    rank += keys[:, 1] - low[1]
    rank *= span[2]
    rank += keys[:, 2] - low[2]
    ranks, ids = _distinct(rank, cells, inverse=True)
    return np.stack(np.unravel_index(ranks, span), axis=1) + low, ids


@dataclass(frozen=True, eq=False)
class VoxelIndex:
    """One numbering of the voxels of some fragments and, optionally, scene
    points; build it with voxel_index.

    Voxel ids number the distinct voxel_keys of all the points in
    lexicographic key order: ``keys[i]`` is voxel i's key. ``voxels`` holds
    each fragment's distinct voxel ids, ascending, fragment after fragment:
    fragment f's are ``voxels[starts[f]:starts[f + 1]]``. ``scene`` is the
    voxel id of each scene point (empty without scene points).
    """

    fragments: tuple
    keys: np.ndarray
    voxels: np.ndarray
    starts: np.ndarray
    scene: np.ndarray
    _row: dict = field(init=False, repr=False)  # fragment identity -> position

    def __post_init__(self):
        object.__setattr__(self, "_row", {id(f): i for i, f in enumerate(self.fragments)})

    def rows(self, fragments) -> list:
        """The position of each of ``fragments`` among the index's own.

        Raises:
            ValueError: if one of them is not a fragment of the index.
        """
        try:
            return [self._row[id(f)] for f in fragments]
        except KeyError:
            raise ValueError("fragment is not in the voxel index") from None

    def voxels_of(self, fragments) -> np.ndarray:
        """The distinct voxel keys of ``fragments``' points in lexicographic
        order: np.unique(keys, axis=0) of their voxel_keys."""
        ids = [self.voxels[self.starts[r]:self.starts[r + 1]] for r in self.rows(fragments)]
        return self.keys[_sorted_unique(np.concatenate(ids))] if ids else self.keys[:0]


def voxel_index(fragments: list, voxel_size: float, scene_points=None) -> VoxelIndex:
    """The VoxelIndex of ``fragments`` and, when given, ``scene_points``.

    voxel_keys runs once over all the points. When their bounding box holds
    at most _TABLE_CELLS_PER_VALUE cells per point, keys are ranked through
    a table over the box, in O(points + cells); otherwise they are sorted.

    Raises:
        ValueError: as voxel_keys.
    """
    sets = [f.points.points for f in fragments]
    sizes = [len(p) for p in sets]
    if scene_points is not None:
        sets.append(np.asarray(scene_points, dtype=np.float64).reshape(-1, 3))
    keys, ids = _rank_keys(voxel_keys(np.concatenate(sets) if sets else np.zeros((0, 3)),
                                      voxel_size))
    n_frag_points, n_voxels = sum(sizes), len(keys)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    pairs = _distinct(owner * n_voxels + ids[:n_frag_points], len(sizes) * n_voxels)
    starts = np.searchsorted(pairs, np.arange(len(sizes) + 1) * n_voxels)
    return VoxelIndex(tuple(fragments), keys, pairs % max(n_voxels, 1), starts,
                      ids[n_frag_points:])


def _pair_intersections(frag: np.ndarray, vox: np.ndarray, n: int, n_vox: int) -> np.ndarray:
    """Exact |Va & Vb| for all fragment pairs from distinct (fragment, voxel) pairs.

    Sums dense 0/1 incidence blocks of voxel columns; every product and
    partial sum is an integer below 2**24, so float32 BLAS is exact.
    """
    inter = np.zeros((n, n))
    step = max(1, _BLOCK_CELLS // n)
    order = np.argsort(vox, kind="stable")
    frag, vox = frag[order], vox[order]
    cuts = np.searchsorted(vox, np.arange(0, n_vox + step, step))
    for lo, a, b in zip(range(0, n_vox, step), cuts[:-1], cuts[1:]):
        block = np.zeros((n, min(step, n_vox - lo)), dtype=np.float32)
        block[frag[a:b], vox[a:b] - lo] = 1.0
        inter += block @ block.T
    return inter


def _overlap_series(a: MaskTrack, b: MaskTrack) -> np.ndarray:
    """(frame, IoU, precision) rows of the frames where tracks ``a`` and
    ``b`` are both visible: the union is |A| + |B| - |A & B| of
    co_visible_overlap's integers."""
    frames, inter = co_visible_overlap(a, b)
    na, nb = a.areas[frames], b.areas[frames]
    return np.stack([frames, inter / (na + nb - inter), inter / np.minimum(na, nb)])


def _suffix_means(series: np.ndarray, start: int):
    """Mean IoU and mean precision of the _overlap_series rows from frame
    ``start`` on; (0.0, 0.0) if none."""
    frames, ious, precs = series
    first = np.searchsorted(frames, start)
    if first == len(frames):
        return 0.0, 0.0
    return float(np.mean(ious[first:])), float(np.mean(precs[first:]))


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) by one sort of the flattened array, or none when it is
    strictly increasing already: plain np.unique of integers takes a hash
    path that is many times slower here."""
    x = x.reshape(-1)
    if (x[1:] > x[:-1]).all():
        return x
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _voxel_link(ga: tuple, gb: tuple, sizes: np.ndarray, theta_3d: float) -> bool:
    """Whether some fragment of group ``ga`` and some of ``gb`` (see
    merge_instances) have |Va & Vb| / min(|Va|, |Vb|) >= theta_3d, counted on
    the voxels both groups hold."""
    (ma, fa, xa, va), (mb, fb, xb, vb) = ga, gb
    common = np.intersect1d(va, vb, assume_unique=True)
    if not len(common):
        return 0.0 >= theta_3d
    ka, kb = np.isin(xa, common), np.isin(xb, common)
    inter = _pair_intersections(np.concatenate([fa[ka], fb[kb] + len(ma)]),
                                np.searchsorted(common, np.concatenate([xa[ka], xb[kb]])),
                                len(ma) + len(mb), len(common))[:len(ma), len(ma):]
    return bool((inter / np.minimum.outer(sizes[ma], sizes[mb]) >= theta_3d).any())


def _temporal_link(series: np.ndarray, starts_a: list, starts_b: list, cfg: MergeConfig) -> bool:
    """Whether some fragment keyed at a frame of ``starts_a`` and some keyed
    at one of ``starts_b`` reach mean IoU >= theta_iou or mean precision >=
    theta_prec on their tracks' ``series`` from the later keyframe on."""
    lo = max(min(starts_a), min(starts_b))
    # with no common pixel in any frame every mean is 0.0, so one start tells
    later = sorted({s for s in (*starts_a, *starts_b) if s >= lo}) if series[2].any() else [lo]
    return any(iou >= cfg.theta_iou or prec >= cfg.theta_prec
               for iou, prec in (_suffix_means(series, s) for s in later))


def merge_instances(fragments: list, cfg: MergeConfig,
                    index: VoxelIndex | None = None) -> InstanceSet:
    """Group fragments into instances: the connected components of the edges.

    An edge links two fragments when any criterion fires (recall-oriented
    OR; superpoint voting resolves duplicates later): 3D voxel overlap
    |Va & Vb| / min(|Va|, |Vb|) >= theta_3d or, when both have a track,
    temporal_overlap2d of the tracks from the later keyframe ``source[0]``
    on with mean IoU >= theta_iou or mean precision >= theta_prec.
    Confidence is the component's point count over the largest one's.
    Components are ordered by their smallest member fragment index.

    The fragments of one track object form one group: any two of them score
    IoU 1 on the track's masks from the later keyframe on. A fragment with no
    track, or keyed after its track's last visible frame, is a group of its
    own. Two groups join at the first edge between their fragments.

    ``index`` is the voxel_index of these very fragments, in this order (it
    may hold scene points too); without one, one is built.

    Raises:
        ValueError: if there are no fragments, one is empty, two tracks
        differ in length, or ``index`` holds other fragments.
    """
    if not fragments:
        raise ValueError("merge_instances requires at least one fragment")
    if index is None:
        index = voxel_index(fragments, cfg.voxel_size)
    elif len(index.fragments) != len(fragments) or not all(map(is_, index.fragments, fragments)):
        raise ValueError("voxel index holds other fragments")
    sizes = np.diff(index.starts)
    frag, vox = np.repeat(np.arange(len(fragments)), sizes), index.voxels
    if not sizes.all():
        raise ValueError("merge_instances requires nonempty fragments")
    lengths = dict.fromkeys(len(f.track) for f in fragments if f.track is not None)
    if len(lengths) > 1:  # the first two lengths, in fragment order
        raise ValueError("track lengths differ: {} vs {}".format(*lengths))

    # tracks numbered in first-fragment order, not by address, so that a pair
    # of tracks is compared in the same order on every run
    numbers = {}
    track = [None if f.track is None else numbers.setdefault(id(f.track), len(numbers))
             for f in fragments]
    tracks = {t: f.track for t, f in zip(track, fragments) if t is not None}
    last = {t: max(np.flatnonzero(tr.areas).tolist(), default=-1) for t, tr in tracks.items()}
    # the frame a fragment's series starts at; one past the end leaves it empty
    start = [0 if f.track is None else min(max(f.source[0], 0), len(f.track)) for f in fragments]
    keys = {}  # a track's group, or a group of the fragment's own
    gid = np.array([keys.setdefault(("own", i) if t is None or s > last[t] else t, len(keys))
                    for i, (t, s) in enumerate(zip(track, start))])
    members = np.split(np.argsort(gid, kind="stable"), np.cumsum(np.bincount(gid))[:-1])
    rows = np.split(np.argsort(gid[frag], kind="stable"), np.cumsum(np.bincount(gid[frag]))[:-1])
    # per group: members, then member index and voxel of each (fragment, voxel), then voxel set
    groups = [(m, np.searchsorted(m, frag[r]), vox[r], _sorted_unique(vox[r]))
              for m, r in zip(members, rows)]
    group_track = [track[m[0]] for m in members]
    group_starts = [{start[i] for i in m.tolist()} for m in members]

    uf, series = UnionFind(len(groups)), {}
    for a, b in combinations(range(len(groups)), 2):
        if uf.find(a) == uf.find(b):
            continue
        linked = _voxel_link(groups[a], groups[b], sizes, cfg.theta_3d)
        if not linked and group_track[a] is not None and group_track[b] is not None:
            pair = tuple(sorted((group_track[a], group_track[b])))
            if pair not in series:
                series[pair] = _overlap_series(tracks[pair[0]], tracks[pair[1]])
            linked = _temporal_link(series[pair], group_starts[a], group_starts[b], cfg)
        if linked:
            uf.union(a, b)
    components: dict[int, list[int]] = {}
    for i, g in enumerate(gid.tolist()):
        components.setdefault(uf.find(g), []).append(i)
    ordered = list(components.values())  # by first member, which is the smallest
    totals = [sum(fragments[i].n_points for i in grp) for grp in ordered]
    top = max(totals)
    return InstanceSet([Instance(fragments=[fragments[i] for i in grp], confidence=total / top)
                        for grp, total in zip(ordered, totals)])


def assign_superpoints(instances: InstanceSet, partition: SuperpointPartition,
                       scene_points: np.ndarray, voxel_size: float,
                       index: VoxelIndex | None = None) -> InstanceSet:
    """Majority-vote each superpoint to the instance observing it most.

    A scene point is observed by an instance once per member fragment whose
    voxel set contains the point's voxel. Superpoints with zero
    observations stay unassigned; ties go to the lowest instance id. The
    returned set carries superpoint id sets and scene point ids per
    instance.

    ``index`` is the voxel_index of the instances' fragments (each once, in
    any order) and these scene points; without one, one is built over the
    instances' members and the scene points.

    Raises:
        ValueError: if the partition does not cover the scene points, or
        ``index`` holds other fragments or another number of scene points.
    """
    scene_points = np.asarray(scene_points, dtype=np.float64).reshape(-1, 3)
    if partition.labels.shape[0] != scene_points.shape[0]:
        raise ValueError(
            f"partition covers {partition.labels.shape[0]} points, "
            f"scene has {scene_points.shape[0]}"
        )
    n_sp = partition.n_superpoints
    n_inst = len(instances)
    members = [f for inst in instances.instances for f in inst.fragments]
    member_inst = np.repeat(np.arange(n_inst), [len(i.fragments) for i in instances.instances])
    if index is None:
        index, inst_of = voxel_index(members, voxel_size, scene_points), member_inst
    else:
        rows = index.rows(members)
        if sorted(rows) != list(range(len(index.fragments))) \
                or len(index.scene) != len(scene_points):
            raise ValueError("voxel index holds other fragments or scene points")
        inst_of = np.empty(len(rows), np.int64)
        inst_of[rows] = member_inst
    n_vox = len(index.keys)
    counts = np.zeros((n_sp, n_inst), dtype=np.int64)
    if n_inst:
        # observers of each (voxel, instance): member fragments holding the voxel
        frag = np.repeat(np.arange(len(inst_of)), np.diff(index.starts))
        obs_key, observers = np.unique(index.voxels * n_inst + inst_of[frag], return_counts=True)
        obs_vox, obs_inst = obs_key // n_inst, obs_key % n_inst
        # scene points of each (superpoint, voxel), joined to that voxel's observers
        sp_key, n_pts = np.unique(partition.labels * n_vox + index.scene, return_counts=True)
        sp, sp_vox = sp_key // n_vox, sp_key % n_vox
        lo = np.searchsorted(obs_vox, sp_vox, "left")
        width = np.searchsorted(obs_vox, sp_vox, "right") - lo
        row = np.repeat(np.arange(len(sp_key)), width)
        col = lo[row] + np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)
        np.add.at(counts, (sp[row], obs_inst[col]), n_pts[row] * observers[col])
    assigned = np.full(n_sp, -1, dtype=np.int64)
    observed = counts.sum(axis=1) > 0
    if n_inst:  # argmax has no answer over zero instances
        assigned[observed] = np.argmax(counts[observed], axis=1)
    point_owner = assigned[partition.labels]  # each scene point goes with its superpoint
    return InstanceSet([
        Instance(fragments=inst.fragments, confidence=inst.confidence,
                 superpoint_ids=frozenset(np.flatnonzero(assigned == k).tolist()),
                 point_ids=np.flatnonzero(point_owner == k).astype(np.int64))
        for k, inst in enumerate(instances.instances)])


def _ap_at(ious: np.ndarray, threshold: float) -> float:
    """AP at one IoU threshold; ``ious[i, j]`` is prediction i's IoU with
    ground truth j, predictions in matching order."""
    matched = np.zeros(ious.shape[1], bool)
    tp = []
    for row in ious:
        unmatched = np.where(matched, 0.0, row)
        j = int(np.argmax(unmatched))  # the first of the best
        tp.append(unmatched[j] > 0.0 and unmatched[j] >= threshold)
        matched[j] |= tp[-1]
    if not tp:
        return 0.0
    cum = np.cumsum(tp)
    recall = cum / ious.shape[1]
    precision = cum / np.arange(1, len(tp) + 1)
    # all-point interpolation: integrate the running-max precision envelope
    mrec = np.concatenate([[0.0], recall])
    mpre = np.maximum.accumulate(np.concatenate([[1.0], precision])[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def eval_ap(pred: InstanceSet, gt: InstanceSet, band=AP_BAND) -> dict:
    """Class-agnostic AP of predicted vs ground-truth instances.

    Predictions are sorted by confidence (descending, stable) and greedily
    matched one-to-one to ground truth at point-set IoU >= t. Each
    prediction x ground-truth IoU is computed once and read at every
    threshold. Each point id gets a cell (_cells). One table holds a
    ground-truth label per cell, and the memberships of overlapping
    ground-truth sets that it cannot hold are kept apart; a prediction
    counts its intersections from the labels of its cells, plus those kept
    memberships whose cells it marks in one reused boolean table. Returns
    {"ap": mean over ``band``, "ap50": t=0.5, "ap25": t=0.25}.

    Raises:
        ValueError: if the ground-truth set is empty or point ids are
        missing on either side.
    """
    if len(gt) == 0:
        raise ValueError("eval_ap requires a nonempty ground-truth set")
    for name, iset in (("gt", gt), ("pred", pred)):
        for inst in iset.instances:
            if inst.point_ids is None:
                raise ValueError(f"{name} instance lacks point ids; run superpoint voting "
                                 "or label the set over scene points")
    gt_sets = [_sorted_unique(i.point_ids) for i in gt.instances]
    order = sorted(range(len(pred)), key=lambda k: (-pred.instances[k].confidence, k))
    pred_sets = [_sorted_unique(pred.instances[k].point_ids) for k in order]
    gt_sizes = np.array([g.size for g in gt_sets])
    gt_index = np.repeat(np.arange(len(gt_sets)), gt_sizes)
    cells, n_cells = _cells(np.concatenate(gt_sets + pred_sets))
    gt_cells = cells[:gt_index.size]
    label = np.full(n_cells, -1)
    label[gt_cells] = gt_index
    # ground-truth sets may overlap: a cell's other memberships are kept apart
    apart = label[gt_cells] != gt_index
    apart_cells, apart_index = gt_cells[apart], gt_index[apart]
    marked = np.zeros(n_cells, bool)  # cleared again after each prediction
    ious = np.zeros((len(pred_sets), len(gt_sets)))
    start = gt_index.size
    for row, p in zip(ious, pred_sets):
        own = cells[start:start + p.size]
        start += p.size
        hits = label[own]
        marked[own] = True
        inter = np.bincount(np.concatenate([hits[hits >= 0], apart_index[marked[apart_cells]]]),
                            minlength=len(gt_sets))
        marked[own] = False
        union = p.size + gt_sizes - inter
        np.divide(inter, union, out=row, where=union > 0)
    aps = {t: _ap_at(ious, t) for t in set(band) | {0.5, 0.25}}
    return {
        "ap": float(np.mean([aps[t] for t in band])),
        "ap50": aps[0.5],
        "ap25": aps[0.25],
    }


@dataclass
class PipelineResult:
    """``index`` is the voxel index that merging and voting read (None when
    no fragment was lifted)."""

    fragments: list
    rejections: list
    instances: InstanceSet | None
    voted: bool
    warnings: list
    index: VoxelIndex | None = None


def lift_all(scene, tracks: dict, cfg: MergeConfig, keyframe_stride: int = 1):
    """Lift every track visible at a keyframe into a fragment.

    For every keyframe (frames strided by ``keyframe_stride``, skipping
    frames without depth) and every track visible there, in that order, the
    keyframe mask is lifted into a fragment that keeps a reference to the
    whole track; the merge reads it from the keyframe on.

    Returns ``(fragments, rejections)``, a rejection being
    ``((keyframe, obj_id), reason)``.

    Raises:
        ValueError: if ``keyframe_stride`` is below 1, or a track's length
            differs from the scene's frame count.
    """
    if keyframe_stride < 1:
        raise ValueError(f"stride must be >= 1, got {keyframe_stride}")
    frames = scene.frames
    for obj_id in sorted(tracks):
        if len(tracks[obj_id]) != len(frames):
            raise ValueError(f"track '{obj_id}' has {len(tracks[obj_id])} frames, "
                             f"scene has {len(frames)}")
    fragments, rejections = [], []
    for k in range(0, len(frames), keyframe_stride):
        frame = frames[k]
        if frame.depth is None:
            continue
        for obj_id in sorted(tracks):
            track = tracks[obj_id]
            if not track.visible(k):
                continue
            res = lift_fragment(track.masks[k], frame.depth, frame.pose,
                                frame.intrinsics, cfg, source=(k, obj_id), track=track)
            if res.ok:
                fragments.append(res.fragment)
            else:
                rejections.append(((k, obj_id), res.reason))
    return fragments, rejections


def score_depth(frames: list, fragments: list, eps_rel: float) -> None:
    """Set each fragment's ``depth_agreement``.

    The score is the mean depth_agreement_score of the fragment's points
    against every frame after its keyframe that has depth and, when the
    fragment has a track, where the track is visible; None when there is
    no such frame.
    """
    for frag in fragments:
        k, _ = frag.source
        scores = []
        for t in range(k + 1, len(frames)):
            ref = frames[t]
            if ref.depth is None or (frag.track is not None and not frag.track.visible(t)):
                continue
            cam_pts = ref.pose.to_camera(frag.points.points)
            scores.append(depth_agreement_score(
                PointCloud(cam_pts), ref.depth, ref.intrinsics, eps_rel))
        frag.depth_agreement = float(np.mean(scores)) if scores else None


def run_pipeline(scene, tracks: dict, cfg: MergeConfig, keyframe_stride: int = 1) -> PipelineResult:
    """lift_all, then merge_instances, then assign_superpoints when the
    scene has superpoints.

    Depth agreement is not scored here (see score_depth). Merging and
    voting are single-threaded and deterministic.

    Raises:
        ValueError: as lift_all.
    """
    fragments, rejections = lift_all(scene, tracks, cfg, keyframe_stride)
    if not fragments:
        return PipelineResult([], rejections, None, False, ["no fragments lifted"])
    vote = scene.superpoints is not None and scene.scene_points is not None
    index = voxel_index(fragments, cfg.voxel_size, scene.scene_points if vote else None)
    instances = merge_instances(fragments, cfg, index=index)
    if not vote:
        return PipelineResult(fragments, rejections, instances, False,
                              ["scene has no superpoints; voting skipped, voxel labels emitted"],
                              index)
    instances = assign_superpoints(instances, SuperpointPartition(scene.superpoints),
                                   scene.scene_points, cfg.voxel_size, index=index)
    return PipelineResult(fragments, rejections, instances, True, [], index)
