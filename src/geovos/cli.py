"""Command-line surface for batch use.

Subcommands: ``synth`` (box-world scenes), ``sample`` (training-frame
selection), ``lift`` / ``merge`` / ``eval-3d`` / ``pipeline`` (3D instance
construction and scoring), ``eval-vos`` (track metrics), ``gradcheck``
(feature-merger derivative verification).

The 3D commands run only the stages their reports need: ``lift`` lifts and
scores depth agreement, ``merge`` lifts, merges and votes, and ``pipeline``
adds AP to that. ``sample`` and ``gradcheck`` import the sampler and the
feature merger when they run, so no other command loads them.

Reports are line-oriented JSON with a versioned schema: a header line
(schema, command, config echo), one line per item, one aggregate line.
Lines are serialized with sorted keys, so a seeded run is reproducible
byte-for-byte; wall time is printed to stdout only, never written into
the report.

Exit codes: 0 success, 1 metric/check failure, 2 input error.
All paths are relative to the current working directory unless absolute.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ingest
from .geometry import CameraIntrinsics, CameraPose
from .ingest import Box, generate_boxworld
from .instance3d import MergeConfig, eval_ap, lift_all, run_pipeline, score_depth, voxel_keys
from .metrics import MaskTrack, SubsetConfig, pick_conditioning_frame, select_subset, track_metrics

REPORT_SCHEMA = "geovos.report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@dataclass
class RunReport:
    command: str
    config: dict
    items: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def lines(self):
        yield {"schema": REPORT_SCHEMA, "command": self.command, "config": self.config}
        for item in self.items:
            yield {"item": item}
        yield {"aggregate": self.aggregate}

    def write(self, path):
        text = "\n".join(json.dumps(line, sort_keys=True, separators=(",", ":"))
                         for line in self.lines()) + "\n"
        Path(path).write_text(text)


def _finish(report: RunReport, out, t0: float) -> None:
    report.wall_time = time.perf_counter() - t0
    if out:
        report.write(out)
    print(f"{report.command}: {json.dumps(report.aggregate, sort_keys=True)} "
          f"({report.wall_time:.2f}s)")


_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
          tuple: ((list,), "a list")}


def _load_config(path, cls, defaults=None):
    """``cls`` built from ``defaults`` updated by the JSON object in the
    file ``path`` (``defaults`` alone when there is no path).

    Every key must be a field of ``cls`` and every value of its default's
    kind: a number for a float, an integer for an int, a list for a tuple
    (taken as the tuple). Each error names the path.
    """
    doc = {}
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON ({e})") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(doc).__name__}")
    kinds = {f.name: _KINDS[type(f.default)] for f in fields(cls)}
    for key, value in doc.items():
        if key not in kinds:
            raise ValueError(f"{path}: unknown config key '{key}' "
                             f"(known: {', '.join(sorted(kinds))})")
        types, kind = kinds[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{path}: config key '{key}' must be {kind}, "
                             f"got {type(value).__name__}")
    try:
        return cls(**{**(defaults or {}),
                      **{k: tuple(v) if type(v) is list else v for k, v in doc.items()}})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# synth


def _look_at_pose(eye, target, up=(0.0, 0.0, 1.0)) -> CameraPose:
    eye = np.asarray(eye, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - eye
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-8:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd], axis=1)
    return CameraPose(rot, eye)


def boxworld_preset(name: str, resolution: int = 64):
    """Boxes + ring-of-cameras for a named preset scene."""
    z_c, y_c = 0.22, -0.03
    cube = (0.5, 0.5, 0.5)
    if name == "two-cubes":
        boxes = [Box((-0.70, y_c, z_c), cube), Box((0.80, y_c, z_c), cube)]
    elif name == "two-cubes-touching":
        # shared face plane sits mid-voxel (x = 0.05) so co-visible strips
        # of both cubes fall in one voxel column
        boxes = [Box((-0.20, y_c, z_c), cube), Box((0.30, y_c, z_c), cube)]
    elif name == "one-box":
        boxes = [Box((0.05, y_c, z_c), cube)]
    else:
        raise ValueError(f"unknown preset '{name}'")
    center = np.mean([b.center for b in boxes], axis=0)
    intr = CameraIntrinsics(fx=float(resolution), fy=float(resolution),
                            cx=(resolution - 1) / 2.0, cy=(resolution - 1) / 2.0,
                            width=resolution, height=resolution)
    eyes = [
        center + np.array([3.0, 0.0, 0.55]),
        center + np.array([0.0, 3.0, 0.55]),
        center + np.array([-3.0, 0.0, 0.55]),
        center + np.array([0.0, -3.0, 0.55]),
        center + np.array([0.02, 0.01, 3.0]),
        center + np.array([1.7, 1.5, 2.0]),
    ]
    cameras = [(_look_at_pose(eye, center), intr) for eye in eyes]
    return boxes, cameras


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    boxes, cameras = boxworld_preset(args.preset, args.resolution)
    world = generate_boxworld(boxes, cameras, resolution=(args.resolution, args.resolution))
    out_dir = Path(args.out)
    manifest = ingest.save_scene(world.scene, out_dir)
    tracks_path = ingest.save_tracks(world.gt_tracks, out_dir / "tracks")
    report = RunReport("synth", {
        "preset": args.preset,
        "resolution": args.resolution,
        "boxes": [{"center": list(b.center), "size": list(b.size)} for b in boxes],
    })
    report.items = [{"frame": f.frame_id, "objects": sorted(f.masks)} for f in world.scene.frames]
    report.aggregate = {
        "manifest": str(manifest),
        "tracks": str(tracks_path),
        "n_frames": len(world.scene.frames),
        "n_scene_points": int(world.scene.scene_points.shape[0]),
        "n_superpoints": int(world.scene.superpoints.max()) + 1
        if world.scene.superpoints.size else 0,
    }
    _finish(report, out_dir / "synth_report.jsonl", t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def cmd_sample(args) -> int:
    from .sampler import (SamplerConfig, sample_continuous, sample_fov, sample_mixed,
                          sample_random)

    t0 = time.perf_counter()
    if args.draws < 1:
        raise ValueError(f"--draws must be >= 1, got {args.draws}")
    _check_seed(args.seed)
    scene = ingest.load_scene(args.scene)
    cfg = SamplerConfig(n_frames=args.n, tau=args.tau, p_fov=args.p_fov, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    obj = args.obj or (scene.object_ids[0] if scene.object_ids else None)
    fn = {"continuous": sample_continuous, "random": sample_random,
          "fov": sample_fov, "mixed": sample_mixed}[args.mode]
    report = RunReport("sample", {
        "scene": str(args.scene), "obj": obj, "mode": args.mode, "n_frames": cfg.n_frames,
        "tau": cfg.tau, "p_fov": cfg.p_fov, "seed": args.seed, "draws": args.draws,
    })
    modes = {}
    for k in range(args.draws):
        result = fn(scene, cfg, rng, obj)
        report.items.append(result.to_dict())
        modes[result.mode] = modes.get(result.mode, 0) + 1
    report.aggregate = {"draws": args.draws, "modes": modes}
    _finish(report, args.out, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# 3D pipeline pieces


def _pipeline_inputs(args):
    """Scene, tracks (the scene's own without --masks), merge config and
    config echo of a lift, merge or pipeline run."""
    scene = ingest.load_scene(args.scene)
    tracks = ingest.load_tracks(args.masks, scene) if args.masks else scene.tracks()
    cfg = _load_config(args.merge_config, MergeConfig)
    echo = {"scene": str(args.scene), "masks": str(args.masks) if args.masks else None,
            "stride": args.stride, "merge_config": asdict(cfg)}
    return scene, tracks, cfg, echo


def _fragment_record(frag) -> dict:
    return {
        "source": [int(frag.source[0]), str(frag.source[1])],
        "n_points": frag.n_points,
        "depth_agreement": frag.depth_agreement,
        "points": frag.points.points.tolist(),
    }


def _instance_records(instances, cfg: MergeConfig, voted: bool):
    records = []
    for inst in instances.instances:
        rec = {
            "confidence": float(inst.confidence),
            "sources": [[int(k), str(o)] for k, o in inst.sources],
        }
        if voted:
            rec["superpoint_ids"] = sorted(inst.superpoint_ids or ())
            rec["point_ids"] = inst.point_ids.tolist()
        else:
            keys = np.concatenate([voxel_keys(f.points.points, cfg.voxel_size)
                                   for f in inst.fragments])
            rec["voxels"] = np.unique(keys, axis=0).tolist()
        records.append(rec)
    return records


def cmd_lift(args) -> int:
    t0 = time.perf_counter()
    scene, tracks, cfg, echo = _pipeline_inputs(args)
    fragments, rejections = lift_all(scene, tracks, cfg, keyframe_stride=args.stride)
    score_depth(scene.frames, fragments, cfg.eps_rel)
    report = RunReport("lift", echo)
    report.items = [_fragment_record(f) for f in fragments]
    if args.points_dir:
        points_dir = Path(args.points_dir)
        points_dir.mkdir(parents=True, exist_ok=True)
        for f in fragments:
            ingest.save_pointset(points_dir / f"{f.source[0]:04d}_{f.source[1]}.json",
                                 f.points.points)
    report.aggregate = {
        "n_fragments": len(fragments),
        "rejections": [{"keyframe": int(k), "obj": str(o), "reason": r}
                       for (k, o), r in rejections],
    }
    _finish(report, args.out, t0)
    return EXIT_OK


def cmd_merge(args) -> int:
    t0 = time.perf_counter()
    scene, tracks, cfg, echo = _pipeline_inputs(args)
    result = run_pipeline(scene, tracks, cfg, keyframe_stride=args.stride)
    report = RunReport("merge", echo)
    if result.instances is None:
        report.aggregate = {"n_instances": 0, "voted": False, "warnings": result.warnings}
        _finish(report, args.out, t0)
        return EXIT_OK
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    report.items = _instance_records(result.instances, cfg, result.voted)
    report.aggregate = {"n_instances": len(result.instances), "voted": result.voted,
                        "warnings": result.warnings}
    _finish(report, args.out, t0)
    return EXIT_OK


def cmd_eval_3d(args) -> int:
    t0 = time.perf_counter()
    pred = ingest.load_instances(args.pred)
    gt = ingest.load_instances(args.gt)
    scores = eval_ap(pred, gt)
    report = RunReport("eval-3d", {"pred": str(args.pred), "gt": str(args.gt)})
    report.aggregate = {k: round(v, 10) for k, v in scores.items()}
    _finish(report, args.out, t0)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    scene, tracks, cfg, echo = _pipeline_inputs(args)
    result = run_pipeline(scene, tracks, cfg, keyframe_stride=args.stride)
    report = RunReport("pipeline", echo)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    agg = {
        "n_fragments": len(result.fragments),
        "n_instances": len(result.instances) if result.instances is not None else 0,
        "voted": result.voted,
        "warnings": result.warnings,
    }
    if result.instances is not None:
        report.items = _instance_records(result.instances, cfg, result.voted)
    if scene.gt_instances is not None:
        if result.voted and result.instances is not None:
            scores = eval_ap(result.instances, scene.gt_instances)
            agg.update({k: round(v, 10) for k, v in scores.items()})
        elif result.instances is None:
            agg.update({"ap": 0.0, "ap50": 0.0, "ap25": 0.0})
        else:
            agg["warnings"] = agg["warnings"] + ["instances unlabeled, AP skipped"]
    report.aggregate = agg
    _finish(report, args.out, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval-vos


def cmd_eval_vos(args) -> int:
    t0 = time.perf_counter()
    pred = ingest.load_tracks(args.pred)
    gt = ingest.load_tracks(args.gt)
    missing = sorted(set(gt) - set(pred))
    empty_len = len(next(iter(gt.values()))) if gt else 0
    for obj in missing:
        pred[obj] = MaskTrack([None] * empty_len)
    cfg = SubsetConfig(l_min=args.lmin, seg_min=args.segmin)
    report = RunReport("eval-vos", {"pred": str(args.pred), "gt": str(args.gt),
                                    "l_min": cfg.l_min, "seg_min": cfg.seg_min})
    subset = select_subset(gt, cfg)
    per_track = {}
    for obj in sorted(gt):
        scores = track_metrics(pred[obj], gt[obj])
        per_track[obj] = scores
        report.items.append({
            "track": obj,
            "iou": scores.iou,
            "positive_iou": scores.positive_iou,
            "successful_iou": scores.successful_iou,
            "n_positive": scores.n_positive,
            "n_successful": scores.n_successful,
            "conditioning_frame": pick_conditioning_frame(gt[obj])
            if any(gt[obj].visibility()) else None,
            "selected_subset": obj in subset,
        })

    def _mean(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    def _rows(ids):
        return {
            "n_tracks": len(ids),
            "iou": _mean([per_track[o].iou for o in ids]),
            "positive_iou": _mean([per_track[o].positive_iou for o in ids]),
            "successful_iou": _mean([per_track[o].successful_iou for o in ids]),
        }

    report.aggregate = {
        "whole_set": _rows(sorted(gt)),
        "selected_subset": _rows(sorted(subset)),
    }
    _finish(report, args.out, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    from .merger import MergerConfig, grad_check

    t0 = time.perf_counter()
    _check_seed(args.seed)
    # a NaN threshold would pass every tensor: v >= nan is False
    if not (math.isfinite(args.threshold) and args.threshold > 0):
        raise ValueError(f"--threshold must be a finite number > 0, got {args.threshold}")
    cfg = _load_config(args.config, MergerConfig, {
        "selected_layers": ("encoder", 4, 7, 11), "c_in": 8, "c_mid": 8,
        "c_out": 4, "c_f2d": 4, "heads": 2})
    report_obj = grad_check(cfg, seed=args.seed, corrupt=args.self_test_corrupt)
    failed = report_obj.failures(args.threshold)
    report = RunReport("gradcheck", {
        "seed": args.seed, "threshold": args.threshold,
        "selected_layers": list(cfg.selected_layers),
        "c_in": cfg.c_in, "c_mid": cfg.c_mid, "c_out": cfg.c_out, "c_f2d": cfg.c_f2d,
        "heads": cfg.heads, "ffn_ratio": cfg.ffn_ratio,
    })
    report.items = [{"tensor": name, "max_rel_err": err}
                    for name, err in sorted(report_obj.per_tensor.items())]
    report.aggregate = {
        "n_tensors": report_obj.n_tensors,
        "max_rel_err": report_obj.max_rel_err,
        "failed_tensors": sorted(failed),
        "passed": not failed,
    }
    _finish(report, args.out, t0)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geovos",
                                     description="geometry-aware VOS toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic box-world scene")
    p.add_argument("--out", required=True, help="output scene directory")
    p.add_argument("--preset", default="two-cubes",
                   choices=["two-cubes", "two-cubes-touching", "one-box"])
    p.add_argument("--resolution", type=int, default=64)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("sample", help="sample training frames from a scene")
    p.add_argument("--scene", required=True, help="scene manifest path")
    p.add_argument("--n", type=int, default=8, help="frames per batch")
    p.add_argument("--tau", type=float, default=0.25, help="FOV overlap threshold")
    p.add_argument("--p-fov", type=float, default=0.8, dest="p_fov")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report path (JSONL)")
    p.add_argument("--obj", default=None, help="object id (default: first in scene)")
    p.add_argument("--mode", default="mixed",
                   choices=["continuous", "random", "fov", "mixed"])
    p.add_argument("--draws", type=int, default=1)
    p.set_defaults(fn=cmd_sample)

    for name, fn, help_text in [
        ("lift", cmd_lift, "lift tracked masks into 3D fragments"),
        ("merge", cmd_merge, "lift and merge fragments into instances"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scene", required=True)
        p.add_argument("--masks", required=True, help="tracks JSON path")
        p.add_argument("--merge-config", default=None, dest="merge_config")
        p.add_argument("--stride", type=int, default=1, help="keyframe stride")
        p.add_argument("--out", default=None)
        if name == "lift":
            p.add_argument("--points-dir", default=None, dest="points_dir",
                           help="also write one point-set JSON per fragment")
        p.set_defaults(fn=fn)

    p = sub.add_parser("eval-3d", help="AP of predicted vs ground-truth instances")
    p.add_argument("--pred", required=True, help="predicted instances JSON")
    p.add_argument("--gt", required=True, help="ground-truth instances JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval_3d)

    p = sub.add_parser("pipeline", help="lift + merge + vote + eval-3d")
    p.add_argument("--scene", required=True)
    p.add_argument("--masks", default=None, help="tracks JSON (default: scene GT masks)")
    p.add_argument("--merge-config", default=None, dest="merge_config")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("eval-vos", help="track IoU / positive IoU / successful IoU")
    p.add_argument("--pred", required=True, help="predicted tracks JSON")
    p.add_argument("--gt", required=True, help="ground-truth tracks JSON")
    p.add_argument("--lmin", type=int, default=5)
    p.add_argument("--segmin", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval_vos)

    p = sub.add_parser("gradcheck", help="finite-difference check of the feature merger")
    p.add_argument("--config", default=None, help="JSON with MergerConfig overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.add_argument("--self-test-corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ingest.IngestError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
