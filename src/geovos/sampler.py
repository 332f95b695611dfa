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

Cost: the sampler keeps one draw index per scene, and nothing else keeps
anything for it. The index lives in a module-level weak-key map, so it goes
when its scene goes; scenes and their frames are immutable and hash by
identity, so an index can never go stale: a changed scene is a new scene
(``dataclasses.replace``) and gets an index of its own. The index holds the
frame-id map and, per object, the visible frame ids, found by one
``mask.any()`` pass over the frames at the object's first draw; so
continuous and random draws never back-project. With them it stacks, from
the poses alone, the visible frames' rotations and translations (~115 bytes
per visible frame). Each candidate's mask is back-projected the first time
the frame is a FOV candidate (read-only, 24 bytes per masked valid-depth
pixel). Per reference frame the index keeps the row of candidate ratios
that the first FOV draw from it finds: the candidates' pose slices are
composed against the reference in one stacked matmul, compared with the
reference's pose for the same-camera shortcut, and all their points are
tested against the reference frustum in one array pass
(``geometry.frustum_overlap_ratios``). A row is kept for the latest
``max_candidates`` of that reference, ~64 bytes per candidate (a dict entry
and its float) plus ~10 per tau in use (the eligible pool and the
ineligible candidates best first). A warm draw finds the index in one
weak-map lookup and does Python work only for its batch, plus a C-level
copy of the row into ``SampleResult.ratios``: no step of it grows with the
length of the video. Concurrent callers may share a scene: a race on the
index only repeats the same work.

``visible_frames`` and ``candidate_ratios`` are called through this module
when the index misses, and ``frustum_overlap_ratio`` stays importable here
as the per-pair reference: these are the names the benchmark's tracer
(``perfbench/tracer.py``) wraps.
"""

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import frustum_overlap_ratio  # noqa: F401  (re-exported per-pair reference)


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


class _Row:
    """The candidate ratios of one reference and ``max_candidates``, and
    per tau the eligible pool and the ineligible candidates best first."""

    __slots__ = ("max_candidates", "ratios", "pools")

    def __init__(self, max_candidates: int, ratios: dict):
        self.max_candidates, self.ratios, self.pools = max_candidates, ratios, {}

    def pool(self, tau: float) -> tuple:
        pools = self.pools.get(tau)
        if pools is None:
            ratios = self.ratios
            pool = [fid for fid, r in ratios.items() if r > tau]
            rest = sorted((fid for fid, r in ratios.items() if not r > tau),
                          key=lambda fid: (-ratios[fid], fid))
            pools = self.pools[tau] = (pool, rest)
        return pools


class _ObjectIndex:
    """One object's visible frames: their ids and poses as arrays by
    position, their back-projected points, and the object's rows by
    reference frame."""

    __slots__ = ("visible", "ids", "rotations", "translations", "points", "rows")

    def __init__(self, frames: list):
        self.visible = [f.frame_id for f in frames]
        self.ids = np.array(self.visible, np.int64)
        self.rotations = np.array([f.pose.rotation for f in frames]).reshape(-1, 3, 3)
        self.translations = np.array([f.pose.translation for f in frames]).reshape(-1, 3)
        self.points = [None] * len(frames)
        self.rows = {}

    def row(self, reference: int, max_candidates: int):
        """The reference's row if it was computed for ``max_candidates``, else None."""
        row = self.rows.get(reference)
        return row if row is not None and row.max_candidates == max_candidates else None

    def cloud(self, i: int, by_id, obj_id) -> np.ndarray:
        """The camera-frame points of the object's mask in the frame at
        position i (read-only), back-projected the first time it is asked for.

        Raises:
            ValueError: when the frame has no depth raster.
        """
        points = self.points[i]
        if points is None:
            f = by_id[self.visible[i]]
            if f.depth is None:
                raise ValueError(f"frame {f.frame_id} has no depth raster")
            points = geometry.back_project(f.masks[obj_id], f.depth, f.intrinsics)[0].points
            points.setflags(write=False)
            self.points[i] = points
        return points


class _DrawIndex:
    """What draws from one scene share: its frames by id and its objects' indexes."""

    __slots__ = ("by_id", "objects")

    def __init__(self, frames):
        self.by_id = {f.frame_id: f for f in frames}
        self.objects = {}

    def object(self, scene, obj_id):
        """``(obj_id, its index)``; ``obj_id=None`` is the first object id.

        Raises:
            ValueError: for ``obj_id=None`` when no frame holds a mask.
        """
        if obj_id is None:
            if not scene.object_ids:
                raise ValueError("scene has no object masks")
            obj_id = scene.object_ids[0]
        index = self.objects.get(obj_id)
        if index is None:
            visible = visible_frames(scene, obj_id)
            index = self.objects[obj_id] = _ObjectIndex([self.by_id[fid] for fid in visible])
        return obj_id, index


_INDEXES = weakref.WeakKeyDictionary()  # scene -> its _DrawIndex


def _draw_index(scene) -> _DrawIndex:
    """The scene's draw index, made at the scene's first draw."""
    index = _INDEXES.get(scene)
    if index is None:
        index = _INDEXES[scene] = _DrawIndex(scene.frames)
    return index


def _object_index(scene, cfg: SamplerConfig, obj_id) -> tuple:
    """``(obj_id, its index)`` once at least n_frames frames show the object."""
    obj_id, index = _draw_index(scene).object(scene, obj_id)
    if len(index.visible) < cfg.n_frames:
        raise ValueError(f"need {cfg.n_frames} object-visible frames, "
                         f"scene has {len(index.visible)}")
    return obj_id, index


def visible_frames(scene, obj_id) -> list:
    """Frame ids where the object's mask exists and is nonempty."""
    return [f.frame_id for f in scene.frames
            if (mask := f.masks.get(obj_id)) is not None and mask.any()]


def candidate_ratios(scene, obj_id, reference: int, cfg: SamplerConfig) -> dict:
    """Frustum-overlap ratio of every other visible frame w.r.t. a reference.

    Long videos are capped at cfg.max_candidates uniformly strided
    candidates to bound cost. The row of ratios is kept in the scene's draw
    index; every call returns a new dict.

    Raises:
        ValueError: at the first candidate without a depth raster.
    """
    draws = _draw_index(scene)
    _, index = draws.object(scene, obj_id)
    row = index.row(reference, cfg.max_candidates)
    if row is None:
        pos = np.flatnonzero(index.ids != reference)
        if len(pos) > cfg.max_candidates:
            pos = pos[np.unique(np.linspace(0, len(pos) - 1, cfg.max_candidates).round()
                                .astype(int))]
        # in candidate order, so the first frame without depth raises first
        clouds = [index.cloud(i, draws.by_id, obj_id) for i in pos.tolist()]
        ref = draws.by_id[reference]
        rotations, translations = index.rotations[pos], index.translations[pos]
        same_camera = (np.all(rotations == ref.pose.rotation, axis=(1, 2))
                       & np.all(translations == ref.pose.translation, axis=1))
        for k in np.flatnonzero(same_camera).tolist():  # the reference's pose: rare
            same_camera[k] = draws.by_id[index.visible[pos[k]]].intrinsics == ref.intrinsics
        ratios = geometry.frustum_overlap_ratios(clouds, rotations, translations, same_camera,
                                                 ref)
        row = index.rows[reference] = _Row(cfg.max_candidates,
                                           dict(zip(index.ids[pos].tolist(), ratios.tolist())))
    return dict(row.ratios)


def sample_continuous(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """A uniformly random window of n_frames consecutive object-visible frames.

    The first frame of the window is the reference.

    Raises:
        ValueError: when fewer than n_frames visible frames exist (the
        message carries the available count).
    """
    visible = _object_index(scene, cfg, obj_id)[1].visible
    rng = _as_rng(rng, cfg)
    start = int(rng.integers(0, len(visible) - cfg.n_frames + 1))
    window = visible[start:start + cfg.n_frames]
    return SampleResult(window[0], window, "continuous")


def sample_random(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """n_frames drawn uniformly without replacement among visible frames;
    the first draw is the reference."""
    visible = _object_index(scene, cfg, obj_id)[1].visible
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
    obj_id, index = _object_index(scene, cfg, obj_id)
    rng = _as_rng(rng, cfg)
    reference = index.visible[int(rng.integers(0, len(index.visible)))]
    row = index.row(reference, cfg.max_candidates)
    if row is None:
        # through the module attribute, which a tracer may wrap; the call stores the row
        candidate_ratios(scene, obj_id, reference, cfg)
        row = index.row(reference, cfg.max_candidates)
    pool, rest = row.pool(cfg.tau)
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
                        ratios=dict(row.ratios), fallback_frames=fallback)


def sample_mixed(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """Bernoulli(p_fov) choice between FOV-aware and continuous sampling."""
    rng = _as_rng(rng, cfg)
    if rng.random() < cfg.p_fov:
        return sample_fov(scene, cfg, rng, obj_id)
    return sample_continuous(scene, cfg, rng, obj_id)
