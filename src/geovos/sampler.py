"""Training-frame selection: continuous, naive random, FOV-aware, mixed.

All strategies draw among frames where the target object is visible (a
frame with no mask for the object cannot anchor or support the geometric
overlap test). The FOV-aware strategy keeps a candidate only if the
fraction of its masked 3D points landing inside the reference camera
frustum exceeds the threshold tau; partially occluded frames are retained
on purpose, since frustum overlap measures viewing-direction alignment,
not visibility.

Every sampler is deterministic given (scene, config, seed) and pure given
an owned generator; concurrent callers need independent generator states.

Cost: the sampler keeps one draw index per object of a scene, and nothing
else keeps anything for it. The indexes live in a module-level weak-key map
from each scene to ``{obj_id: _ObjectIndex}``, so they go when their scene
goes; scenes and their frames are immutable and hash by identity, so an
index can never go stale: a changed scene is a new scene
(``dataclasses.replace``) and gets indexes of its own. An object's index is
made at its first draw by one ``mask.any()`` pass over the frames, which is
also when a loaded scene reads that object's mask files, and no other
object's (``ingest.load_scene`` reads each mask on first use); it keeps
the visible frames by position, with their ids, so continuous and random
draws never back-project. With them it stacks, from the poses alone, the
visible frames' rotations and translations (~115 bytes per visible frame).
Per reference frame the index keeps the row of candidate ratios that the
first FOV draw from it finds. That row pass first checks that every
candidate not back-projected yet has a depth raster, then back-projects all
of them in one batched pass per camera (``kernels.backproject_masks``, in
runs of at most ``BACKPROJECT_CHUNK`` masked pixels) and keeps each one's
points as a read-only view of its run's array (24 bytes per masked
valid-depth pixel), so a frame is back-projected once per (scene, object)
whatever the references it serves. Then the candidates' pose slices are
composed against the reference in one stacked matmul, compared with the
reference's pose for the same-camera shortcut, and all their points are
tested against the reference frustum in one array pass
(``geometry.frustum_overlap_ratios``). A row is a plain
``(max_candidates, ratios, {tau: (pool, rest)})`` tuple, kept for the latest
``max_candidates`` of that reference, ~74 bytes per candidate at one tau (a
dict entry, its float and the pool lists, measured with ``tracemalloc``):
per tau in use the eligible pool and the ineligible candidates best first.
A warm draw finds its index in two lookups and does Python work only for
its batch, plus a C-level copy of the row into ``SampleResult.ratios``: no
step of it grows with the length of the video. Concurrent callers may share
a scene: a race on an index only repeats the same work.

``visible_frames`` and ``candidate_ratios`` are called through this module
when the index misses, and ``frustum_overlap_ratio``, the one-candidate
case of the row pass, stays importable here: these are the names the
benchmark's tracer (``perfbench/tracer.py``) wraps.
"""

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import geometry, kernels
from .geometry import frustum_overlap_ratio  # noqa: F401  (re-exported one-pair case)

# Masked pixels per batched back-projection call of a row miss: bounds the
# pass's transient arrays, ~75 bytes a masked pixel beyond the 24 it keeps.
BACKPROJECT_CHUNK = 1 << 15


@dataclass(frozen=True)
class SamplerConfig:
    """Defaults: 8-frame batches, tau 0.25, FOV-aware with probability 0.8."""

    n_frames: int = 8
    tau: float = 0.25
    p_fov: float = 0.8
    max_candidates: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 2:
            raise ValueError(f"n_frames must be >= 2, got {self.n_frames}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if not 0.0 <= self.p_fov <= 1.0:
            raise ValueError(f"p_fov must be in [0, 1], got {self.p_fov}")
        if self.max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")


@dataclass
class SampleResult:
    """One sampled batch; ``ratios`` are per-candidate diagnostics and
    ``fallback_frames`` flags slots filled from below the threshold."""

    reference_frame: int
    frames: list
    mode: str
    ratios: dict = field(default_factory=dict)
    fallback_frames: list = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.frames)) != len(self.frames):
            raise ValueError("sampled frames must be distinct")
        if self.reference_frame not in self.frames:
            raise ValueError("reference frame must be among the sampled frames")

    def to_dict(self) -> dict:
        return {
            "reference_frame": int(self.reference_frame),
            "frames": [int(f) for f in self.frames],
            "mode": self.mode,
            "ratios": {str(k): float(v) for k, v in sorted(self.ratios.items())},
            "fallback_frames": [int(f) for f in self.fallback_frames],
        }


def _as_rng(rng, cfg: SamplerConfig) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(cfg.seed)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


class _ObjectIndex:
    """One object's visible frames by position: the frames, their ids, their
    poses as arrays and their back-projected points; and the object's rows
    by reference frame id, each ``(max_candidates, ratios, {tau: (pool,
    rest)})``."""

    __slots__ = ("frames", "visible", "ids", "rotations", "translations", "points", "rows")

    def __init__(self, scene, obj_id):
        by_id = {f.frame_id: f for f in scene.frames}
        # through the module attribute, which a tracer may wrap
        self.frames = [by_id[fid] for fid in visible_frames(scene, obj_id)]
        self.visible = [f.frame_id for f in self.frames]
        self.ids = np.array(self.visible, np.int64)
        self.rotations = np.array([f.pose.rotation for f in self.frames]).reshape(-1, 3, 3)
        self.translations = np.array([f.pose.translation for f in self.frames]).reshape(-1, 3)
        self.points = [None] * len(self.frames)
        self.rows = {}

    def row(self, reference: int, max_candidates: int):
        """The reference's row if it was computed for ``max_candidates``, else None."""
        row = self.rows.get(reference)
        return row if row is not None and row[0] == max_candidates else None

    def clouds(self, pos: list, obj_id) -> list:
        """The camera-frame points (read-only) of the object's masks in the
        frames at positions ``pos``, in that order.

        The frames whose points are not kept yet are back-projected and
        kept: ``kernels.backproject_masks`` runs once per camera
        (intrinsics) over them, in runs of at most BACKPROJECT_CHUNK masked
        pixels (a frame with more is a run of its own), and each frame keeps
        a read-only view of its run's points.

        Raises:
            ValueError: at the first such frame, in ``pos`` order, that has
                no depth raster (before any pixel is read), else at the first
                whose points are not all finite (none of those is kept).
        """
        points = self.points
        missing = [i for i in pos if points[i] is None]
        frames = [self.frames[i] for i in missing]
        for f in frames:
            if f.depth is None:
                raise ValueError(f"frame {f.frame_id} has no depth raster")
        cameras = {}
        for k, f in enumerate(frames):
            cameras.setdefault(f.intrinsics, []).append(k)
        bad = []
        for intr, ks in cameras.items():
            masks = [frames[k].masks[obj_id] for k in ks]
            for lo, hi in _runs(masks):
                pts, counts, _ = kernels.backproject_masks(
                    masks[lo:hi], [frames[k].depth for k in ks[lo:hi]],
                    intr.fx, intr.fy, intr.cx, intr.cy)
                pts.setflags(write=False)
                finite = np.isfinite(pts).all()
                ends = np.cumsum(counts).tolist()
                for k, start, end in zip(ks[lo:hi], [0] + ends, ends):
                    if finite or np.isfinite(pts[start:end]).all():
                        points[missing[k]] = pts[start:end]
                    else:
                        bad.append(k)
        if bad:
            f = frames[min(bad)]
            raise ValueError(f"frame {f.frame_id}: object {obj_id!r}: {geometry.NON_FINITE}")
        return [points[i] for i in pos]


def _runs(masks: list):
    """``(lo, hi)`` bounds that cut ``masks``, in order, into runs of at most
    BACKPROJECT_CHUNK masked pixels together; a mask with more is a run of
    its own."""
    lo, pixels = 0, 0
    for hi, mask in enumerate(masks):
        n = int(np.count_nonzero(mask))
        if hi > lo and pixels + n > BACKPROJECT_CHUNK:
            yield lo, hi
            lo, pixels = hi, 0
        pixels += n
    if masks:
        yield lo, len(masks)


def _pools(row: tuple, tau: float) -> tuple:
    """The row's eligible pool at tau and its ineligible candidates best first."""
    _, ratios, pools = row
    got = pools.get(tau)
    if got is None:
        pool = [fid for fid, r in ratios.items() if r > tau]
        rest = sorted((fid for fid, r in ratios.items() if not r > tau),
                      key=lambda fid: (-ratios[fid], fid))
        got = pools[tau] = (pool, rest)
    return got


_INDEXES = weakref.WeakKeyDictionary()  # scene -> {obj_id: _ObjectIndex}


def _object_index(scene, obj_id, n_frames: int = 0) -> tuple:
    """``(obj_id, its index)``, made at the object's first draw;
    ``obj_id=None`` is the first object id.

    Raises:
        ValueError: for ``obj_id=None`` when no frame holds a mask, or when
            fewer than n_frames frames show the object.
    """
    if obj_id is None:
        if not scene.object_ids:
            raise ValueError("scene has no object masks")
        obj_id = scene.object_ids[0]
    objects = _INDEXES.get(scene)
    if objects is None:
        objects = _INDEXES[scene] = {}
    index = objects.get(obj_id)
    if index is None:
        index = objects[obj_id] = _ObjectIndex(scene, obj_id)
    if len(index.visible) < n_frames:
        raise ValueError(f"need {n_frames} object-visible frames, "
                         f"scene has {len(index.visible)}")
    return obj_id, index


def visible_frames(scene, obj_id) -> list:
    """Frame ids where the object's mask exists and is nonempty."""
    return [f.frame_id for f in scene.frames
            if (mask := f.masks.get(obj_id)) is not None and mask.any()]


def candidate_ratios(scene, obj_id, reference: int, cfg: SamplerConfig) -> dict:
    """Frustum-overlap ratio of every other visible frame w.r.t. a reference.

    Long videos are capped at cfg.max_candidates uniformly strided
    candidates to bound cost. The row of ratios is kept in the object's draw
    index; every call returns a new dict.

    Raises:
        ValueError: at the first candidate without a depth raster.
    """
    obj_id, index = _object_index(scene, obj_id)
    row = index.row(reference, cfg.max_candidates)
    if row is None:
        pos = np.flatnonzero(index.ids != reference)
        if len(pos) > cfg.max_candidates:
            pos = pos[np.unique(np.linspace(0, len(pos) - 1, cfg.max_candidates).round()
                                .astype(int))]
        clouds = index.clouds(pos.tolist(), obj_id)
        if reference in index.visible:
            ref = index.frames[index.visible.index(reference)]
        else:  # a reference that does not show the object: the last frame of that id
            ref = {f.frame_id: f for f in scene.frames}[reference]
        rotations, translations = index.rotations[pos], index.translations[pos]
        same_camera = (np.all(rotations == ref.pose.rotation, axis=(1, 2))
                       & np.all(translations == ref.pose.translation, axis=1))
        for k in np.flatnonzero(same_camera).tolist():  # the reference's pose: rare
            same_camera[k] = index.frames[pos[k]].intrinsics == ref.intrinsics
        ratios = geometry.frustum_overlap_ratios(clouds, rotations, translations, same_camera,
                                                 ref)
        row = index.rows[reference] = (cfg.max_candidates,
                                       dict(zip(index.ids[pos].tolist(), ratios.tolist())), {})
    return dict(row[1])


def sample_continuous(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """A uniformly random window of n_frames consecutive object-visible frames.

    The first frame of the window is the reference.

    Raises:
        ValueError: when fewer than n_frames visible frames exist (the
        message carries the available count).
    """
    visible = _object_index(scene, obj_id, cfg.n_frames)[1].visible
    rng = _as_rng(rng, cfg)
    start = int(rng.integers(0, len(visible) - cfg.n_frames + 1))
    window = visible[start:start + cfg.n_frames]
    return SampleResult(window[0], window, "continuous")


def sample_random(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """n_frames drawn uniformly without replacement among visible frames;
    the first draw is the reference."""
    visible = _object_index(scene, obj_id, cfg.n_frames)[1].visible
    rng = _as_rng(rng, cfg)
    draw = rng.choice(len(visible), size=cfg.n_frames, replace=False)
    frames = [visible[i] for i in draw.tolist()]
    return SampleResult(frames[0], frames, "random")


def sample_fov(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """FOV-aware draw: reference first, then candidates above the threshold.

    The reference is a uniform draw among visible frames. Candidates whose
    frustum-overlap ratio exceeds cfg.tau form the eligible pool;
    n_frames - 1 are drawn uniformly without replacement. When the pool is
    too small the remaining slots are filled by the highest-ratio
    ineligible candidates (ties by frame index) and flagged in
    ``fallback_frames``.

    Raises:
        ValueError: when cfg.max_candidates < n_frames - 1 (too few
        candidates to fill a batch), or when fewer than n_frames visible
        frames exist (the message carries the available count).
    """
    if cfg.max_candidates < cfg.n_frames - 1:
        raise ValueError(f"FOV draws need max_candidates >= n_frames - 1 = {cfg.n_frames - 1}, "
                         f"got {cfg.max_candidates}")
    obj_id, index = _object_index(scene, obj_id, cfg.n_frames)
    rng = _as_rng(rng, cfg)
    reference = index.visible[int(rng.integers(0, len(index.visible)))]
    row = index.row(reference, cfg.max_candidates)
    if row is None:
        # through the module attribute, which a tracer may wrap; the call stores the row
        candidate_ratios(scene, obj_id, reference, cfg)
        row = index.row(reference, cfg.max_candidates)
    pool, rest = _pools(row, cfg.tau)
    need = cfg.n_frames - 1
    if len(pool) >= need:
        draw = rng.choice(len(pool), size=need, replace=False)
        chosen = [pool[i] for i in draw.tolist()]
        fallback = []
    else:
        perm = rng.permutation(len(pool))
        chosen = [pool[i] for i in perm.tolist()]
        fallback = rest[: need - len(pool)]
    return SampleResult(reference, [reference] + chosen + fallback, "fov",
                        ratios=dict(row[1]), fallback_frames=fallback)


def sample_mixed(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """Bernoulli(p_fov) choice between FOV-aware and continuous sampling."""
    rng = _as_rng(rng, cfg)
    if rng.random() < cfg.p_fov:
        return sample_fov(scene, cfg, rng, obj_id)
    return sample_continuous(scene, cfg, rng, obj_id)
