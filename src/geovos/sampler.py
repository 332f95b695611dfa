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

Cost: frames are immutable, so whether a frame shows the object is found
once, when the frame is built (``CameraFrame.mask_nonempty``), and
continuous and random draws never back-project. A FOV draw back-projects
each candidate frame's mask the first time that frame is a candidate, once
per frame and object, and keeps the points on the frame
(``CameraFrame.object_points``, 24 bytes per masked valid-depth pixel); it
then tests every candidate's points against the reference frustum in one
vectorised pass (``geometry.frustum_overlap_ratios``). The reference frame
keeps the resulting row of ratios per object (``CameraFrame.overlap_row``,
16 bytes per candidate, for the reference's lifetime), so a later draw from
the same reference reads the row instead of repeating the pass. The row
holds its candidate frames and is read only when the candidates are the
same frame objects in the same order: a frame replaced in
``scene.frames``, a changed visible set or another ``max_candidates``
recomputes it, and the row keeps the candidates it was computed from
alive while the reference lives. Concurrent callers may share a scene: a
race on a memo only repeats the same work.
``frustum_overlap_ratio`` stays importable here as the per-pair reference,
the name the benchmark's tracer (``perfbench/tracer.py``) wraps.
"""

from dataclasses import dataclass, field

import numpy as np

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


def _default_obj(scene, obj_id):
    if obj_id is not None:
        return obj_id
    ids = scene.object_ids
    if not ids:
        raise ValueError("scene has no object masks")
    return ids[0]


def visible_frames(scene, obj_id) -> list:
    """Frame ids where the object's mask exists and is nonempty."""
    return [f.frame_id for f in scene.frames if f.mask_nonempty(obj_id)]


def candidate_ratios(scene, obj_id, reference: int, cfg: SamplerConfig, *,
                     visible: list | None = None) -> dict:
    """Frustum-overlap ratio of every other visible frame w.r.t. a reference.

    Long videos are capped at cfg.max_candidates uniformly strided
    candidates to bound cost. ``visible`` is ``visible_frames(scene,
    obj_id)`` when the caller already has it. The row of ratios is
    memoised on the reference frame (``CameraFrame.overlap_row``); every
    call returns a new dict.

    Raises:
        ValueError: at the first candidate without a depth raster.
    """
    by_id = {f.frame_id: f for f in scene.frames}
    if visible is None:
        visible = visible_frames(scene, obj_id)
    cands = [fid for fid in visible if fid != reference]
    if len(cands) > cfg.max_candidates:
        idx = np.unique(np.linspace(0, len(cands) - 1, cfg.max_candidates).round().astype(int))
        cands = [cands[i] for i in idx]
    frames = [by_id[fid] for fid in cands]
    return dict(zip(cands, by_id[reference].overlap_row(obj_id, frames)))


def sample_continuous(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """A uniformly random window of n_frames consecutive object-visible frames.

    The first frame of the window is the reference.

    Raises:
        ValueError: when fewer than n_frames visible frames exist (the
        message carries the available count).
    """
    obj_id = _default_obj(scene, obj_id)
    rng = _as_rng(rng, cfg)
    visible = visible_frames(scene, obj_id)
    if len(visible) < cfg.n_frames:
        raise ValueError(f"need {cfg.n_frames} object-visible frames, scene has {len(visible)}")
    start = int(rng.integers(0, len(visible) - cfg.n_frames + 1))
    window = visible[start:start + cfg.n_frames]
    return SampleResult(window[0], list(window), "continuous")


def sample_random(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """n_frames drawn uniformly without replacement among visible frames;
    the first draw is the reference."""
    obj_id = _default_obj(scene, obj_id)
    rng = _as_rng(rng, cfg)
    visible = visible_frames(scene, obj_id)
    if len(visible) < cfg.n_frames:
        raise ValueError(f"need {cfg.n_frames} object-visible frames, scene has {len(visible)}")
    draw = rng.choice(len(visible), size=cfg.n_frames, replace=False)
    frames = [visible[int(i)] for i in draw]
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
    obj_id = _default_obj(scene, obj_id)
    rng = _as_rng(rng, cfg)
    visible = visible_frames(scene, obj_id)
    if len(visible) < cfg.n_frames:
        raise ValueError(f"need {cfg.n_frames} object-visible frames, scene has {len(visible)}")
    reference = visible[int(rng.integers(0, len(visible)))]
    ratios = candidate_ratios(scene, obj_id, reference, cfg, visible=visible)
    pool = [fid for fid, r in ratios.items() if r > cfg.tau]
    need = cfg.n_frames - 1
    if len(pool) >= need:
        draw = rng.choice(len(pool), size=need, replace=False)
        chosen = [pool[int(i)] for i in draw]
        fallback = []
    else:
        perm = rng.permutation(len(pool))
        chosen = [pool[int(i)] for i in perm]
        rest = sorted((fid for fid in ratios if fid not in pool),
                      key=lambda fid: (-ratios[fid], fid))
        fallback = rest[: need - len(pool)]
    return SampleResult(reference, [reference] + chosen + fallback, "fov",
                        ratios=ratios, fallback_frames=fallback)


def sample_mixed(scene, cfg: SamplerConfig, rng=None, obj_id=None) -> SampleResult:
    """Bernoulli(p_fov) choice between FOV-aware and continuous sampling."""
    rng = _as_rng(rng, cfg)
    if rng.random() < cfg.p_fov:
        return sample_fov(scene, cfg, rng, obj_id)
    return sample_continuous(scene, cfg, rng, obj_id)
