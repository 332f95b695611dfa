"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately plain python loops (or set arithmetic)
kept separate from the library's vectorized paths; they share only
the algebraic form of each per-point expression so bitwise comparisons are
meaningful.
"""

import math
from pathlib import Path

import numpy as np

from geovos import kernels
from geovos.geometry import (DEFAULT_Z_NEAR, CameraFrame, CameraIntrinsics, CameraPose,
                             OverlapRatio, back_project, frustum_overlap_ratios)


def make_intrinsics(fx=20.0, fy=20.0, width=16, height=16, cx=None, cy=None):
    return CameraIntrinsics(
        fx=fx, fy=fy,
        cx=(width - 1) / 2.0 if cx is None else cx,
        cy=(height - 1) / 2.0 if cy is None else cy,
        width=width, height=height,
    )


def random_rotation(rng) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(rng, spread=1.0) -> CameraPose:
    return CameraPose(random_rotation(rng), rng.normal(scale=spread, size=3))


def random_scene_frames(rng, n_frames, intr, max_masked=100, invalid_frac=0.2):
    """Frames with random poses, random depths (some invalid), sparse masks."""
    frames = []
    for fid in range(n_frames):
        depth = rng.uniform(0.5, 5.0, size=(intr.height, intr.width))
        bad = rng.random(depth.shape) < invalid_frac
        depth[bad] = rng.choice([0.0, np.nan, np.inf])
        mask = np.zeros(depth.shape, bool)
        n_px = int(rng.integers(1, max_masked + 1))
        flat = rng.choice(depth.size, size=n_px, replace=False)
        mask.flat[flat] = True
        frames.append(CameraFrame(fid, intr, random_pose(rng), depth.astype(np.float32),
                                  {"obj": mask}))
    return frames


# ---------------------------------------------------------------------------
# back-projection oracle: pure python per-pixel loop


def object_clouds(frames, obj_id) -> list:
    """Each frame's ``back_project`` cloud of its mask of ``obj_id``: the
    clouds that ``geometry.frustum_overlap_ratios`` takes."""
    return [back_project(f.masks[obj_id], f.depth, f.intrinsics)[0].points for f in frames]


def batched_ratios(candidates, obj_id, reference):
    """``geometry.frustum_overlap_ratios`` of the candidates' masks of
    ``obj_id`` against ``reference``, its arguments taken from the frames."""
    return frustum_overlap_ratios(
        object_clouds(candidates, obj_id),
        np.array([c.pose.rotation for c in candidates]).reshape(-1, 3, 3),
        np.array([c.pose.translation for c in candidates]).reshape(-1, 3),
        [c.intrinsics == reference.intrinsics
         and np.array_equal(c.pose.rotation, reference.pose.rotation)
         and np.array_equal(c.pose.translation, reference.pose.translation)
         for c in candidates], reference)


def naive_back_project(mask, depth, intr):
    """``(points, skipped)`` of the masked pixels in row-major order: each
    valid (finite, positive) depth d gives ``((u - cx) * d / fx,
    (v - cy) * d / fy, d)``, each invalid one is skipped and counted."""
    points, skipped = [], 0
    for v in range(intr.height):
        for u in range(intr.width):
            if not mask[v, u]:
                continue
            d = float(depth[v, u])
            if not (math.isfinite(d) and d > 0.0):
                skipped += 1
                continue
            points.append(((u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d))
    return np.array(points, np.float64).reshape(-1, 3), skipped


# ---------------------------------------------------------------------------
# frustum-overlap oracle: pure python per-point loop


def naive_frustum_overlap(candidate: CameraFrame, mask, reference: CameraFrame,
                          z_near=1e-4):
    ci = candidate.intrinsics
    ri = reference.intrinsics
    same_camera = (
        ci == ri
        and np.array_equal(candidate.pose.rotation, reference.pose.rotation)
        and np.array_equal(candidate.pose.translation, reference.pose.translation)
    )
    if same_camera:
        # valid masked pixels are inside their own frustum by construction
        valid = np.isfinite(candidate.depth) & (candidate.depth > 0) & mask
        n = int(valid.sum())
        return (1.0 if n else 0.0), n, n
    rot = reference.pose.rotation.T @ candidate.pose.rotation
    trans = reference.pose.rotation.T @ (candidate.pose.translation
                                         - reference.pose.translation)
    n = inside = 0
    for v in range(ci.height):
        for u in range(ci.width):
            if not mask[v, u]:
                continue
            d = float(candidate.depth[v, u])
            if not (math.isfinite(d) and d > 0.0):
                continue
            n += 1
            px = (u - ci.cx) * d / ci.fx
            py = (v - ci.cy) * d / ci.fy
            pz = d
            x = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
            y = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
            z = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
            if z > z_near:
                uu = ri.fx * x / z + ri.cx
                vv = ri.fy * y / z + ri.cy
                if 0.0 <= uu < ri.width and 0.0 <= vv < ri.height:
                    inside += 1
    return (inside / n if n else 0.0), inside, n


def pair_frustum_overlap(candidate: CameraFrame, obj_mask, reference: CameraFrame):
    """``geometry.frustum_overlap_ratio`` computed for one pair on its own:
    one back-projection, the pose product of this pair alone and one
    ``kernels.count_in_frustum`` call, with the empty-cloud and same-camera
    cases answered before any point is tested."""
    if candidate.depth is None:
        raise ValueError(f"frame {candidate.frame_id} has no depth raster")
    pc, _ = back_project(obj_mask, candidate.depth, candidate.intrinsics)
    n = len(pc)
    if n == 0:
        return OverlapRatio(0.0, 0, 0)
    if (candidate.intrinsics == reference.intrinsics
            and np.array_equal(candidate.pose.rotation, reference.pose.rotation)
            and np.array_equal(candidate.pose.translation, reference.pose.translation)):
        return OverlapRatio(1.0, n, n)
    rot = reference.pose.rotation.T @ candidate.pose.rotation
    trans = reference.pose.rotation.T @ (candidate.pose.translation - reference.pose.translation)
    ri = reference.intrinsics
    inside = kernels.count_in_frustum(pc.points, rot, trans, ri.fx, ri.fy, ri.cx, ri.cy,
                                      ri.width, ri.height, DEFAULT_Z_NEAR)
    return OverlapRatio(inside / n, inside, n)


def naive_candidate_ratios(scene, obj_id, reference, cfg):
    """The per-pair loop over ``pair_frustum_overlap`` that the batched
    ``sampler.candidate_ratios`` replaced: same candidates, same striding,
    one back-projection per candidate per call, nothing kept between calls."""
    by_id = {f.frame_id: f for f in scene.frames}
    visible = [f.frame_id for f in scene.frames
               if f.masks.get(obj_id) is not None and f.masks[obj_id].any()]
    cands = [fid for fid in visible if fid != reference]
    if len(cands) > cfg.max_candidates:
        idx = np.unique(np.linspace(0, len(cands) - 1, cfg.max_candidates).round().astype(int))
        cands = [cands[i] for i in idx]
    out = {}
    for fid in cands:
        frame = by_id[fid]
        out[fid] = pair_frustum_overlap(frame, frame.masks[obj_id], by_id[reference]).ratio
    return out


def naive_sample(strategy, scene, cfg, rng, obj_id=None):
    """The draw of ``sampler.sample_<strategy>`` found from scratch: every
    draw finds the object ids, the visible frames and the candidate ratios
    (``naive_candidate_ratios``) again and keeps nothing for the next one.
    ``rng`` is a generator; it is consumed as the sampler consumes it."""
    from geovos.sampler import SampleResult

    if strategy == "mixed":
        strategy = "fov" if rng.random() < cfg.p_fov else "continuous"
    if strategy == "fov" and cfg.max_candidates < cfg.n_frames - 1:
        raise ValueError(f"FOV draws need max_candidates >= n_frames - 1 = {cfg.n_frames - 1}, "
                         f"got {cfg.max_candidates}")
    if obj_id is None:
        ids = sorted({obj for f in scene.frames for obj in f.masks})
        if not ids:
            raise ValueError("scene has no object masks")
        obj_id = ids[0]
    visible = [f.frame_id for f in scene.frames
               if f.masks.get(obj_id) is not None and f.masks[obj_id].any()]
    if len(visible) < cfg.n_frames:
        raise ValueError(f"need {cfg.n_frames} object-visible frames, scene has {len(visible)}")
    if strategy == "continuous":
        start = int(rng.integers(0, len(visible) - cfg.n_frames + 1))
        window = visible[start:start + cfg.n_frames]
        return SampleResult(window[0], window, "continuous")
    if strategy == "random":
        frames = [visible[int(i)] for i in rng.choice(len(visible), size=cfg.n_frames,
                                                      replace=False)]
        return SampleResult(frames[0], frames, "random")
    reference = visible[int(rng.integers(0, len(visible)))]
    ratios = naive_candidate_ratios(scene, obj_id, reference, cfg)
    pool = [fid for fid, r in ratios.items() if r > cfg.tau]
    need = cfg.n_frames - 1
    if len(pool) >= need:
        chosen = [pool[int(i)] for i in rng.choice(len(pool), size=need, replace=False)]
        fallback = []
    else:
        chosen = [pool[int(i)] for i in rng.permutation(len(pool))]
        rest = sorted((fid for fid in ratios if fid not in pool),
                      key=lambda fid: (-ratios[fid], fid))
        fallback = rest[: need - len(pool)]
    return SampleResult(reference, [reference] + chosen + fallback, "fov",
                        ratios=ratios, fallback_frames=fallback)


def small_rotation(rng, max_angle) -> np.ndarray:
    """Rodrigues rotation by a uniform angle in [0, max_angle) about a random axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    theta = rng.uniform(0.0, max_angle)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def random_sampler_scene(rng, n_frames=10, size=12):
    """Frames around one view of a random depth field, for the FOV sampler.

    Besides ordinary frames (partial overlaps, invalid depths) it mixes in
    frames whose masked pixels all have invalid depth, frames sharing an
    earlier frame's camera (by value, sometimes by identity), frames facing
    anywhere, frames with an empty mask and frames with no mask.
    """
    from geovos.ingest import Scene

    intr = make_intrinsics(width=size, height=size)
    frames = []
    for fid in range(n_frames):
        depth = rng.uniform(0.5, 5.0, size=(size, size))
        depth[rng.random(depth.shape) < 0.2] = rng.choice([0.0, np.nan, np.inf])
        mask = rng.random(depth.shape) < rng.uniform(0.05, 0.6)
        pose = CameraPose(small_rotation(rng, 0.6), rng.normal(scale=0.5, size=3))
        frame_intr = intr
        kind = int(rng.integers(0, 8))
        if kind == 0:
            mask = ~(np.isfinite(depth) & (depth > 0))
        elif kind == 1 and frames:
            twin = frames[int(rng.integers(0, len(frames)))]
            pose = twin.pose
            if rng.random() < 0.5:
                pose = CameraPose(twin.pose.rotation.copy(), twin.pose.translation.copy())
                frame_intr = CameraIntrinsics(**vars(twin.intrinsics))
        elif kind == 2:
            pose = random_pose(rng)
        elif kind == 3:
            mask[:] = False
        masks = {} if kind == 4 else {"obj": mask}
        frames.append(CameraFrame(fid, frame_intr, pose, depth.astype(np.float32), masks))
    return Scene("random", frames)


def mixed_intrinsics_scene(rng, n_frames=12):
    """Frames of two or three cameras around one view, for the FOV sampler.

    The cameras differ in focal length, principal point and raster size.
    Frame 1 repeats frame 0's exact pose through a wider camera, so it must
    not count as frame 0's camera; frame 2 repeats frame 0's camera by value
    (a new intrinsics object and new pose arrays), so it must. Frame 3 has
    frame 0's camera and position but turns away, so it must not. Later
    frames sometimes repeat an earlier frame's pose, with its camera or
    another.
    """
    from geovos.ingest import Scene

    cameras = [make_intrinsics(fx=16.0, fy=16.0, width=12, height=12),
               make_intrinsics(fx=9.0, fy=11.0, width=12, height=12, cx=4.0),
               make_intrinsics(fx=13.0, fy=13.0, width=16, height=10)]
    cameras = cameras[:int(rng.integers(2, 4))]
    frames = []
    for fid in range(n_frames):
        intr = cameras[int(rng.integers(0, len(cameras)))]
        pose = CameraPose(small_rotation(rng, 0.6), rng.normal(scale=0.5, size=3))
        if fid == 0:
            intr = cameras[0]
        elif fid == 1:
            intr, pose = cameras[1], frames[0].pose
        elif fid == 2:
            intr = CameraIntrinsics(**vars(frames[0].intrinsics))
            pose = CameraPose(frames[0].pose.rotation.copy(), frames[0].pose.translation.copy())
        elif fid == 3:
            intr, pose = cameras[0], CameraPose(pose.rotation, frames[0].pose.translation)
        elif rng.random() < 0.3:
            pose = frames[int(rng.integers(0, len(frames)))].pose
        depth = rng.uniform(0.5, 5.0, size=(intr.height, intr.width))
        depth[rng.random(depth.shape) < 0.2] = np.nan
        mask = rng.random(depth.shape) < rng.uniform(0.2, 0.8)
        frames.append(CameraFrame(fid, intr, pose, depth.astype(np.float32), {"obj": mask}))
    return Scene("mixed", frames)


# ---------------------------------------------------------------------------
# cluster scene: frames 0, 3, 5 share a view, frames 1, 2, 4 are far away


def make_cluster_scene(width=32, fx=32.0):
    """Six cameras viewing a wall at z=2; only {0, 3, 5} mutually overlap.

    All frames mask the full image (the wall spans everything), so every
    frame is object-visible; the FOV filter alone separates the cluster
    from the strays.
    """
    from geovos.ingest import Scene

    intr = make_intrinsics(fx=fx, fy=fx, width=width, height=width)
    xs = {0: 0.0, 3: 0.1, 5: 0.2, 1: 10.0, 2: 20.0, 4: 30.0}
    frames = []
    for fid in range(6):
        pose = CameraPose(np.eye(3), np.array([xs[fid], 0.0, 0.0]))
        depth = np.full((width, width), 2.0, np.float32)
        mask = np.ones((width, width), bool)
        frames.append(CameraFrame(fid, intr, pose, depth, {"wall": mask}))
    return Scene("cluster", frames)


# ---------------------------------------------------------------------------
# merge and voting oracles: the fragment-pair loop and the points x fragments
# loop over python voxel sets


def voxel_set(points, voxel_size) -> set:
    """The distinct voxel keys of a point set, as tuples."""
    from geovos.instance3d import voxel_keys

    return set(map(tuple, voxel_keys(points, voxel_size)))


def overlap3d(a, b, voxel_size) -> float:
    """Voxel-set overlap |Va & Vb| / min(|Va|, |Vb|) of two fragments, the
    pairwise 3D score that ``merge_instances`` computes for all pairs at once.

    Raises:
        ValueError: if either fragment is empty.
    """
    if a.n_points == 0 or b.n_points == 0:
        raise ValueError("overlap3d requires nonempty fragments")
    va = voxel_set(a.points.points, voxel_size)
    vb = voxel_set(b.points.points, voxel_size)
    return len(va & vb) / min(len(va), len(vb))


def forward_track(fragment):
    """The fragment's track with every frame before its keyframe
    ``source[0]`` set to None: the padded view of the track that the merge's
    temporal criterion reads (a keyframe past the end leaves no frame)."""
    from geovos.metrics import MaskTrack

    masks = fragment.track.masks
    k = min(max(fragment.source[0], 0), len(masks))
    return MaskTrack((None,) * k + masks[k:])


def naive_temporal_overlap2d(track_a, track_b):
    """Mean IoU and mean precision (over min(|A|, |B|)) of two tracks, one
    frame at a time on the whole masks, over the frames where both masks
    are nonempty; (0.0, 0.0) when there is none. The per-frame loop that
    ``instance3d.temporal_overlap2d`` and the merge's temporal criterion
    must equal bit for bit."""
    if len(track_a) != len(track_b):
        raise ValueError(f"track lengths differ: {len(track_a)} vs {len(track_b)}")
    ious, precs = [], []
    for a, b in zip(track_a.masks, track_b.masks):
        if a is None or b is None or not (a.any() and b.any()):
            continue
        inter = int(np.count_nonzero(a & b))
        ious.append(inter / int(np.count_nonzero(a | b)))
        precs.append(inter / min(int(np.count_nonzero(a)), int(np.count_nonzero(b))))
    if not ious:
        return 0.0, 0.0
    return float(np.mean(ious)), float(np.mean(precs))


def naive_merge_instances(fragments, cfg):
    from geovos.instance3d import Instance, InstanceSet, UnionFind

    if not fragments:
        raise ValueError("merge_instances requires at least one fragment")
    # every track is checked up front, whether or not its pairs need it
    lengths = [len(f.track) for f in fragments if f.track is not None]
    for length in lengths:
        if length != lengths[0]:
            raise ValueError(f"track lengths differ: {lengths[0]} vs {length}")
    n = len(fragments)
    voxels = [voxel_set(f.points.points, cfg.voxel_size) for f in fragments]
    uf = UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            score3d = len(voxels[i] & voxels[j]) / min(len(voxels[i]), len(voxels[j]))
            if score3d >= cfg.theta_3d:
                uf.union(i, j)
                continue
            if fragments[i].track is not None and fragments[j].track is not None:
                iou, prec = naive_temporal_overlap2d(forward_track(fragments[i]),
                                                     forward_track(fragments[j]))
                if iou >= cfg.theta_iou or prec >= cfg.theta_prec:
                    uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    ordered = sorted(groups.values(), key=min)
    totals = [sum(fragments[i].n_points for i in grp) for grp in ordered]
    top = max(totals)
    return InstanceSet([
        Instance(fragments=[fragments[i] for i in grp], confidence=total / top)
        for grp, total in zip(ordered, totals)
    ])


def naive_assign_superpoints(instances, partition, scene_points, voxel_size):
    from geovos.instance3d import Instance, InstanceSet

    scene_points = np.asarray(scene_points, dtype=np.float64).reshape(-1, 3)
    n_sp = partition.n_superpoints
    n_inst = len(instances)
    point_voxels = [tuple(v) for v in np.floor(scene_points / voxel_size).astype(np.int64)]
    counts = np.zeros((n_sp, n_inst), dtype=np.int64)
    for k, inst in enumerate(instances.instances):
        frag_voxels = [voxel_set(f.points.points, voxel_size) for f in inst.fragments]
        for vox, sp in zip(point_voxels, partition.labels):
            for fv in frag_voxels:
                if vox in fv:
                    counts[sp, k] += 1
    assigned = np.full(n_sp, -1, dtype=np.int64)
    observed = counts.sum(axis=1) > 0
    if n_inst:
        assigned[observed] = np.argmax(counts[observed], axis=1)
    out = []
    for k, inst in enumerate(instances.instances):
        sp_ids = frozenset(int(s) for s in np.nonzero(assigned == k)[0])
        member = (np.isin(partition.labels, sorted(sp_ids)) if sp_ids
                  else np.zeros(len(partition.labels), bool))
        out.append(Instance(fragments=inst.fragments, confidence=inst.confidence,
                            superpoint_ids=sp_ids,
                            point_ids=np.nonzero(member)[0].astype(np.int64)))
    return InstanceSet(out)


# ---------------------------------------------------------------------------
# AP oracle: the greedy matching loop run afresh at every threshold, each
# IoU computed where the loop needs it


def naive_eval_ap(pred, gt, band=None):
    from geovos.instance3d import AP_BAND

    band = AP_BAND if band is None else band

    def point_iou(a, b):
        inter = np.intersect1d(a, b, assume_unique=True).size
        union = a.size + b.size - inter
        return inter / union if union else 0.0

    def ap_at(pred_sets, gt_sets, threshold):
        matched = [False] * len(gt_sets)
        tp = []
        for pset in pred_sets:
            best_iou, best_j = 0.0, -1
            for j, gset in enumerate(gt_sets):
                if matched[j]:
                    continue
                iou = point_iou(pset, gset)
                if iou > best_iou:
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou >= threshold:
                matched[best_j] = True
                tp.append(1)
            else:
                tp.append(0)
        if not tp:
            return 0.0
        cum = np.cumsum(tp)
        recall = cum / len(gt_sets)
        precision = cum / np.arange(1, len(tp) + 1)
        mrec = np.concatenate([[0.0], recall])
        mpre = np.concatenate([[1.0], precision])
        for i in range(len(mpre) - 2, -1, -1):
            mpre[i] = max(mpre[i], mpre[i + 1])
        return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))

    gt_sets = [np.unique(i.point_ids) for i in gt.instances]
    order = sorted(range(len(pred)), key=lambda k: (-pred.instances[k].confidence, k))
    pred_sets = [np.unique(pred.instances[k].point_ids) for k in order]
    aps = {t: ap_at(pred_sets, gt_sets, t) for t in set(band) | {0.5, 0.25}}
    return {"ap": float(np.mean([aps[t] for t in band])), "ap50": aps[0.5], "ap25": aps[0.25]}


# ---------------------------------------------------------------------------
# box-render oracle: the slab test broadcast over (pixels, boxes, axes) at
# once, then one argmin per pixel (the first minimum wins ties)


def naive_render_boxes(origin, dirs, boxes, z_near=1e-9):
    NEG_INF, POS_INF = float("-inf"), float("inf")
    origin = np.ascontiguousarray(origin, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 6)
    z_near = float(z_near)
    h, w = dirs.shape[0], dirs.shape[1]
    d = dirs.reshape(h * w, 1, 3)
    lo = boxes[np.newaxis, :, :3]
    hi = boxes[np.newaxis, :, 3:]
    o = origin.reshape(1, 1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    parallel = d == 0.0
    inside = (o >= lo) & (o <= hi)
    near = np.where(parallel, np.where(inside, NEG_INF, POS_INF), np.minimum(t1, t2))
    far = np.where(parallel, np.where(inside, POS_INF, NEG_INF), np.maximum(t1, t2))
    tmin = near.max(axis=2)
    tmax = far.min(axis=2)
    hit = (tmin <= tmax) & (tmin > z_near)
    s = np.where(hit, tmin, POS_INF)
    best_b = np.argmin(s, axis=1)
    best_s = s[np.arange(h * w), best_b]
    owner = np.where(np.isfinite(best_s), best_b, -1).reshape(h, w)
    depth = np.where(np.isfinite(best_s), best_s, 0.0).reshape(h, w)
    return depth, owner.astype(np.int64)


# ---------------------------------------------------------------------------
# file-reader oracles: the byte-at-a-time readers that ``ingest`` replaced,
# each path checked with ``is_file`` before it is read. A non-finite pose
# entry, a pose file that is not UTF-8, a PGM header that ends at its maxval
# and a PGM with a negative width or height are rejected as the loaders
# reject them.


def naive_load_dmap(path):
    from geovos.ingest import (DMAP_MAGIC, DMAP_VERSION, BadMagicError, FormatVersionError,
                               LengthMismatchError, MissingFileError)

    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"depth file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < 14 or blob[:4] != DMAP_MAGIC:
        raise BadMagicError(f"{path}: not a DMAP file (bad magic)")
    version = int(np.frombuffer(blob, "<u2", count=1, offset=4)[0])
    if version != DMAP_VERSION:
        raise FormatVersionError(f"{path}: unsupported DMAP version {version}")
    w = int(np.frombuffer(blob, "<u4", count=1, offset=6)[0])
    h = int(np.frombuffer(blob, "<u4", count=1, offset=10)[0])
    expected = 14 + 4 * w * h
    if len(blob) != expected:
        raise LengthMismatchError(f"{path}: expected {expected} bytes, got {len(blob)}")
    return np.frombuffer(blob, "<f4", count=w * h, offset=14).reshape(h, w).copy()


def naive_load_mask_pgm(path):
    from geovos.ingest import BadMaskError, LengthMismatchError, MissingFileError

    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"mask file not found: {path}")
    blob = path.read_bytes()
    if not blob.startswith(b"P5"):
        raise BadMaskError(f"{path}: not a binary PGM (P5) file")
    fields = []
    i = 2
    while len(fields) < 3:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise BadMaskError(f"{path}: truncated PGM header")
        fields.append(blob[start:i])
    if i == len(blob):  # no whitespace byte after the maxval
        raise BadMaskError(f"{path}: truncated PGM header")
    i += 1
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError:
        raise BadMaskError(f"{path}: malformed PGM header") from None
    if w < 0 or h < 0:
        raise BadMaskError(f"{path}: malformed PGM header")
    if maxval != 255:
        raise BadMaskError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(blob) - i != w * h:
        raise LengthMismatchError(f"{path}: expected {w * h} raster bytes, got {len(blob) - i}")
    return (np.frombuffer(blob, np.uint8, count=w * h, offset=i).reshape(h, w) != 0)


def naive_load_pose(path):
    from geovos.ingest import POSE_FILE_ROTATION_TOL, BadPoseError, MissingFileError

    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"pose file not found: {path}")
    tokens = path.read_bytes().split()
    if len(tokens) != 16:
        raise BadPoseError(f"{path}: expected 16 values, got {len(tokens)}")
    try:
        m = np.array([float(t) for t in tokens], dtype=np.float64).reshape(4, 4)
    except ValueError:
        raise BadPoseError(f"{path}: non-numeric pose entry") from None
    if not np.all(np.isfinite(m)):
        raise BadPoseError(f"{path}: non-finite pose entry")
    if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
        raise BadPoseError(f"{path}: last row must be exactly 0 0 0 1, got {m[3].tolist()}")
    rot = m[:3, :3]
    with np.errstate(all="ignore"):  # an overflowing Gram product is an error of inf
        err = float(np.max(np.abs(rot.T @ rot - np.eye(3))))
    err = err if np.isfinite(err) else np.inf
    if err > POSE_FILE_ROTATION_TOL or np.linalg.det(rot) < 0:
        raise BadPoseError(f"{path}: rotation block not orthonormal within 1e-4 (err={err:.2e})")
    if err > 1e-7:
        u, _, vt = np.linalg.svd(rot)
        rot = u @ vt
    return CameraPose(rot, m[:3, 3])
