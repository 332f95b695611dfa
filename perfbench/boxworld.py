"""Seeded box-world workloads, their set-up, oracle checks and digests.

Every workload is a ring (or orbit) of pinhole cameras around 0.5 m cubes
laid on a 4-wide grid at 1.2 m pitch. The workload seed sets a small jitter
of the box centres (at most 0.1 m per axis, so neighbouring cubes keep a gap
of at least 0.5 m), the phase of the camera ring and the sampler's random
stream. The program under test sees only the files written by ``set_up``. The
module imports ``geovos`` only when a scene is built, so the oracle checks
load without the program.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PITCH = 1.2
CUBE = 0.5
GRID_WIDTH = 4
JITTER = 0.1
RING_RADIUS = 6.0
RING_HEIGHT = 2.5

# paper defaults for the FOV-aware sampler
SAMPLE_N, SAMPLE_TAU, SAMPLE_P_FOV = 8, 0.25, 0.8
DIGEST_DRAWS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "sample"
    n_cams: int
    n_boxes: int
    resolution: int
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("ring-merge", "pipeline", 24, 8, 96,
             "192 fragments over 24 views: the fragment-pair merge dominates"),
    Workload("few-view-dense", "pipeline", 3, 16, 512,
             "few fragments, ~128k scene points: voting, loading and AP dominate"),
    Workload("long-video-sample", "sample", 240, 4, 64,
             "240-frame orbit, FOV-aware draws: candidate ratios dominate, the pipeline idles"),
]}


def scene_layout(w: Workload, seed: int):
    """Boxes and cameras of a workload; a pure function of (workload, seed)."""
    from geovos.cli import _look_at_pose
    from geovos.geometry import CameraIntrinsics
    from geovos.ingest import Box

    rng = np.random.default_rng(seed)
    rows = math.ceil(w.n_boxes / GRID_WIDTH)
    jitter = rng.uniform(-JITTER, JITTER, size=(w.n_boxes, 2))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    boxes = []
    for b in range(w.n_boxes):
        col, row = b % GRID_WIDTH, b // GRID_WIDTH
        x = (col - (GRID_WIDTH - 1) / 2.0) * PITCH + jitter[b, 0]
        y = (row - (rows - 1) / 2.0) * PITCH + jitter[b, 1]
        boxes.append(Box((float(x), float(y), CUBE / 2.0), (CUBE, CUBE, CUBE)))
    res = w.resolution
    intr = CameraIntrinsics(fx=float(res), fy=float(res), cx=(res - 1) / 2.0,
                            cy=(res - 1) / 2.0, width=res, height=res)
    target = np.array([0.0, 0.0, CUBE / 2.0])
    cameras = []
    for i in range(w.n_cams):
        a = phase + 2.0 * math.pi * i / w.n_cams
        eye = (RING_RADIUS * math.cos(a), RING_RADIUS * math.sin(a), RING_HEIGHT)
        cameras.append((_look_at_pose(eye, target), intr))
    return boxes, cameras


def _eroded_nonempty(mask: np.ndarray) -> bool:
    """One 4-connected erosion step (the pipeline default radius) leaves a pixel."""
    m = mask.astype(bool)
    core = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return bool(core.any())


def set_up(w: Workload, seed: int, out_dir) -> dict:
    """Generate the box world and write the scene and its tracks.

    Returns the oracle: the box count and the number of fragments a correct
    pipeline lifts (one per keyframe mask that survives one erosion step).
    """
    from geovos import ingest

    boxes, cameras = scene_layout(w, seed)
    world = ingest.generate_boxworld(boxes, cameras, resolution=(w.resolution, w.resolution))
    out_dir = Path(out_dir)
    manifest = ingest.save_scene(world.scene, out_dir)
    tracks = ingest.save_tracks(world.gt_tracks, out_dir / "tracks")
    n_fragments = sum(
        1 for track in world.gt_tracks.values() for m in track.masks
        if m is not None and _eroded_nonempty(m))
    return {"manifest": str(manifest), "tracks": str(tracks), "n_boxes": len(boxes),
            "n_fragments": n_fragments,
            "n_scene_points": int(world.scene.scene_points.shape[0])}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_pipeline_report(report_path, oracle: dict):
    """Oracle check of one ``geovos pipeline`` report.

    Returns ``(problems, digest_input)``; ``problems`` is empty for a pass.
    """
    lines = [json.loads(s) for s in Path(report_path).read_text().splitlines()]
    agg = lines[-1]["aggregate"]
    items = [ln["item"] for ln in lines[1:-1]]
    problems = []
    for key in ("ap", "ap50", "ap25"):
        if agg.get(key) != 1.0:
            problems.append(f"{key}={agg.get(key)}")
    if agg.get("n_instances") != oracle["n_boxes"]:
        problems.append(f"n_instances={agg.get('n_instances')} != {oracle['n_boxes']}")
    if agg.get("n_fragments") != oracle["n_fragments"]:
        problems.append(f"n_fragments={agg.get('n_fragments')} != {oracle['n_fragments']}")
    summary = {
        "instances": [{"sources": it["sources"], "confidence": it["confidence"]}
                      for it in items],
        "ap": [agg.get("ap"), agg.get("ap50"), agg.get("ap25")],
    }
    return problems, summary


def check_draw(draw: dict) -> list:
    """Oracle check of one sampler draw (a ``SampleResult.to_dict()``)."""
    frames = draw["frames"]
    problems = []
    if len(frames) != SAMPLE_N:
        problems.append(f"{len(frames)} frames, expected {SAMPLE_N}")
    if len(set(frames)) != len(frames):
        problems.append("frames not distinct")
    if draw["reference_frame"] not in frames:
        problems.append("reference frame missing")
    if draw["mode"] == "fov":
        fallback = set(draw["fallback_frames"])
        for f in frames:
            if f == draw["reference_frame"] or f in fallback:
                continue
            ratio = draw["ratios"].get(str(f))
            if ratio is None or not ratio > SAMPLE_TAU:
                problems.append(f"frame {f} ratio {ratio} not above tau")
    return problems


def draw_summary(draw: dict) -> list:
    """The part of a draw the sampler digest covers: frames and their ratios."""
    return [draw["frames"], [draw["ratios"].get(str(f)) for f in draw["frames"]]]
