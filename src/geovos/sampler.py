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

Cost: each scene keeps one draw index, which the sampler owns
(``Scene._draw_index``). It holds a snapshot tuple of ``scene.frames``,
the frame-id map and the sorted object ids of that snapshot, and per
object the visible frame ids and, per reference frame, the row of
candidate ratios and, per tau, the eligible pool and the ineligible
candidates best first. A draw checks the snapshot with one identity pass
over ``scene.frames``; a frame replaced, added or removed since rebuilds
the index on that draw. Whether a frame shows an object is found once, when
the frame is built (``CameraFrame.mask_nonempty``), so continuous and random
draws never back-project. The first FOV draw from a reference back-projects
each candidate's mask the first time that frame is a candidate (kept on the
frame, ``CameraFrame.object_points``, 24 bytes per masked valid-depth
pixel) and tests every candidate's points against the reference frustum in
one vectorised pass (``geometry.frustum_overlap_ratios``). The row it gives
is kept for the latest ``max_candidates`` of that reference, ~65 bytes per
candidate (a dict entry and its float) plus 8 per tau in use (the pool
lists), for the scene's lifetime. A later draw from the reference reads it,
so a warm draw does Python work only for its batch, plus a C-level copy of
the row into ``SampleResult.ratios``. Concurrent callers may share a scene:
a race on the index only repeats the same work.

``visible_frames`` and ``candidate_ratios`` are called through this module
when the index misses, and ``frustum_overlap_ratio`` stays importable here
as the per-pair reference: these are the names the benchmark's tracer
(``perfbench/tracer.py``) wraps.
"""

from dataclasses import dataclass, field
from operator import is_

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
    """One object's visible frame ids and its rows by reference frame."""

    __slots__ = ("visible", "rows")

    def __init__(self, visible: list):
        self.visible, self.rows = visible, {}

    def row(self, reference: int, max_candidates: int):
        """The reference's row if it was computed for ``max_candidates``, else None."""
        row = self.rows.get(reference)
        return row if row is not None and row.max_candidates == max_candidates else None


class _DrawIndex:
    """What draws from one snapshot of ``scene.frames`` share."""

    __slots__ = ("frames", "by_id", "object_ids", "objects")

    def __init__(self, frames: tuple):
        self.frames = frames
        self.by_id = {f.frame_id: f for f in frames}
        self.object_ids = None
        self.objects = {}

    def object(self, scene, obj_id):
        """``(obj_id, its index)``; ``obj_id=None`` is the first object id.

        Raises:
            ValueError: for ``obj_id=None`` when no frame holds a mask.
        """
        if obj_id is None:
            if self.object_ids is None:
                self.object_ids = scene.object_ids
            if not self.object_ids:
                raise ValueError("scene has no object masks")
            obj_id = self.object_ids[0]
        index = self.objects.get(obj_id)
        if index is None:
            index = self.objects[obj_id] = _ObjectIndex(visible_frames(scene, obj_id))
        return obj_id, index


def _draw_index(scene) -> _DrawIndex:
    """The scene's draw index, rebuilt when ``scene.frames`` no longer holds
    the very frames of its snapshot."""
    index, frames = scene._draw_index, scene.frames
    if index is None or len(index.frames) != len(frames) or not all(map(is_, index.frames, frames)):
        index = scene._draw_index = _DrawIndex(tuple(frames))
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
    return [f.frame_id for f in scene.frames if f.mask_nonempty(obj_id)]


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
        cands = [fid for fid in index.visible if fid != reference]
        if len(cands) > cfg.max_candidates:
            idx = np.unique(np.linspace(0, len(cands) - 1, cfg.max_candidates).round().astype(int))
            cands = [cands[i] for i in idx]
        ratios = geometry.frustum_overlap_ratios([draws.by_id[fid] for fid in cands], obj_id,
                                                 draws.by_id[reference])
        row = index.rows[reference] = _Row(cfg.max_candidates,
                                         dict(zip(cands, [r.ratio for r in ratios])))
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
        # through the module attribute, which a tracer or a test may wrap
        row = index.rows[reference] = _Row(cfg.max_candidates,
                                           candidate_ratios(scene, obj_id, reference, cfg))
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
