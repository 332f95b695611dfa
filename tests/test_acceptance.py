"""Acceptance criteria, one test per criterion, one printed line each.

Run standalone with:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from conftest import (make_cluster_scene, make_intrinsics, naive_frustum_overlap, overlap3d,
                      random_scene_frames)
from geovos.cli import boxworld_preset
from geovos.geometry import frustum_overlap_ratio, frustum_overlap_ratios
from geovos.ingest import (BadMagicError, BadMaskError, BadPoseError,
                           FormatVersionError, LengthMismatchError, ManifestError,
                           MissingFileError, generate_boxworld, load_dmap,
                           load_mask_pgm, load_pose, load_scene, save_dmap,
                           load_instances, save_mask_pgm, save_pose, save_scene)
from geovos.instance3d import Instance, InstanceSet, MergeConfig, eval_ap, run_pipeline
from geovos.merger import (AttnParams, MergerConfig, attention, grad_check,
                           softmax_rows)
from geovos.metrics import SubsetConfig
from geovos.sampler import SamplerConfig, candidate_ratios, sample_fov
from geovos.ingest import Scene


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_geometry_oracle_equivalence():
    # the batched function the sampler runs and the per-pair reference both
    # equal the per-point loop on every pair
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        intr = make_intrinsics(fx=float(rng.uniform(8, 30)), fy=float(rng.uniform(8, 30)))
        n_frames = int(rng.integers(2, 11))
        frames = random_scene_frames(rng, n_frames, intr, max_masked=100)
        for _ in range(3):
            i, j = rng.choice(n_frames, size=2, replace=False)
            cand, ref = frames[int(i)], frames[int(j)]
            want = naive_frustum_overlap(cand, cand.masks["obj"], ref)
            (batched,) = frustum_overlap_ratios([cand], "obj", ref)
            assert tuple(batched) == want, (batched, want)
            assert tuple(frustum_overlap_ratio(cand, cand.masks["obj"], ref)) == want
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(1, "geometry oracle equivalence",
            checked == 600 and elapsed < 5.0,
            f"{checked} pairs, batched and per-pair exact, in {elapsed:.2f}s")


def test_criterion_2_fov_sampler():
    scene = make_cluster_scene()
    cluster = {0, 3, 5}
    cfg = SamplerConfig(n_frames=3, tau=0.25)
    by_id = {f.frame_id: f for f in scene.frames}
    # the constructed eligible set, verified by the brute-force oracle
    for ref in cluster:
        for cand in set(range(6)) - {ref}:
            ratio, _, _ = naive_frustum_overlap(by_id[cand], by_id[cand].masks["wall"],
                                                by_id[ref])
            assert (ratio > cfg.tau) == (cand in cluster)
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(1000):
        res = sample_fov(scene, cfg, rng, obj_id="wall")
        non_fallback = set(res.frames) - set(res.fallback_frames)
        if not non_fallback <= (cluster | {res.reference_frame}):
            violations += 1

    rng = np.random.default_rng(8)
    intr = make_intrinsics()
    mono_ok = True
    for _ in range(50):
        frames = random_scene_frames(rng, int(rng.integers(3, 7)), intr)
        ratios = candidate_ratios(Scene("r", frames), "obj", 0, cfg)
        t1, t2 = sorted(rng.uniform(0, 1, size=2))
        pool_lo = {f for f, r in ratios.items() if r > t1}
        pool_hi = {f for f, r in ratios.items() if r > t2}
        mono_ok &= pool_hi <= pool_lo
    _report(2, "FOV sampler correctness", violations == 0 and mono_ok,
            f"1000 draws, {violations} violations; tau monotonicity on 50 scenes")


def test_criterion_3_metric_oracles():
    from test_metrics import (naive_conditioning, naive_segments,
                              naive_track_metrics, random_track)
    from geovos.metrics import (count_visible_segments, pick_conditioning_frame,
                                select_subset, track_metrics)

    rng = np.random.default_rng(99)
    invariant_ok = True
    for _ in range(500):
        pred, gt = random_track(rng), random_track(rng)
        scores = track_metrics(pred, gt)
        iou, pos, suc, n_pos, n_suc = naive_track_metrics(pred, gt)
        assert (scores.iou, scores.positive_iou, scores.successful_iou) == (iou, pos, suc)
        assert (scores.n_positive, scores.n_successful) == (n_pos, n_suc)
        if scores.successful_iou is not None and scores.successful_iou < scores.positive_iou:
            invariant_ok = False
        l_min = int(rng.integers(1, 6))
        assert count_visible_segments(gt, l_min) == naive_segments(gt, l_min)
        if any(gt.visibility()):
            assert pick_conditioning_frame(gt) == naive_conditioning(gt)
        cfg = SubsetConfig(l_min=l_min, seg_min=int(rng.integers(1, 4)))
        tracks = {"p": pred, "g": gt}
        want = {tid for tid, tr in tracks.items()
                if naive_segments(tr, cfg.l_min) >= cfg.seg_min}
        assert select_subset(tracks, cfg) == want
    _report(3, "metric oracle equivalence", invariant_ok,
            "500 track pairs exact; successful_iou >= positive_iou held")


def test_criterion_4_feature_merger():
    t0 = time.perf_counter()
    cfg = MergerConfig(selected_layers=("encoder", 4, 7, 11), c_in=8, c_mid=8,
                       c_out=4, c_f2d=4, heads=2)
    report = grad_check(cfg, seed=0, hw=(4, 4), h=1e-5)
    fd_ok = report.max_rel_err < 1e-4

    rng = np.random.default_rng(0)
    sm = softmax_rows(rng.normal(scale=30.0, size=(64, 9)))
    softmax_ok = bool(np.all(np.abs(sm.sum(axis=1) - 1.0) <= 1e-6) and np.all(sm >= 0))

    p = AttnParams.init(8, 2, rng)
    q, k, v = rng.normal(size=(16, 8)), rng.normal(size=(12, 8)), rng.normal(size=(12, 8))
    base = attention(q, k, v, p)
    perm = rng.permutation(12)
    perm_ok = bool(np.max(np.abs(attention(q, k[perm], v[perm], p) - base)) <= 1e-6)

    elapsed = time.perf_counter() - t0
    _report(4, "feature merger verification",
            fd_ok and softmax_ok and perm_ok and elapsed < 30.0,
            f"max rel err {report.max_rel_err:.2e} over {report.n_tensors} tensors "
            f"in {elapsed:.1f}s")


def test_criterion_5_end_to_end_pipeline():
    t0 = time.perf_counter()
    cfg = MergeConfig(voxel_size=0.1, theta_3d=0.10)

    boxes, cams = boxworld_preset("two-cubes", 64)
    world = generate_boxworld(boxes, cams, resolution=(64, 64))
    res = run_pipeline(world.scene, world.gt_tracks, cfg)
    two_ok = len(res.instances) == 2 and res.voted
    scores = eval_ap(res.instances, world.gt_instances)
    ap_ok = all(abs(scores[k] - 1.0) <= 1e-9 for k in ("ap", "ap50", "ap25"))

    boxes_t, cams_t = boxworld_preset("two-cubes-touching", 64)
    world_t = generate_boxworld(boxes_t, cams_t, resolution=(64, 64))
    res_t = run_pipeline(world_t.scene, world_t.gt_tracks, cfg)
    # the construction really does push one cross-cube pair past theta_3d
    cross = max(
        overlap3d(a, b, cfg.voxel_size)
        for i, a in enumerate(res_t.fragments)
        for b in res_t.fragments[i + 1:]
        if a.source[1] != b.source[1]
    )
    one_ok = len(res_t.instances) == 1 and cross >= cfg.theta_3d

    elapsed = time.perf_counter() - t0
    _report(5, "end-to-end 3D pipeline",
            two_ok and ap_ok and one_ok and elapsed < 10.0,
            f"disjoint: 2 instances, AP {scores['ap']:.10f}; touching: 1 instance "
            f"(cross overlap {cross:.3f}) in {elapsed:.1f}s")


def test_criterion_6_ap_protocol():
    gt = InstanceSet([
        Instance(confidence=1.0, point_ids=np.arange(0, 10)),
        Instance(confidence=1.0, point_ids=np.arange(10, 25)),
    ])
    pred = InstanceSet([Instance(confidence=1.0, point_ids=np.arange(0, 10))])
    half = eval_ap(pred, gt)
    hand_ok = half["ap50"] == 0.5

    rng = np.random.default_rng(6)
    self_ok = True
    for _ in range(20):
        n = int(rng.integers(8, 50))
        k = int(rng.integers(1, 6))
        labels = rng.integers(0, k, size=n)
        sets = [np.nonzero(labels == i)[0] for i in range(k) if np.any(labels == i)]
        x = InstanceSet([Instance(confidence=float(c), point_ids=s)
                         for c, s in zip(rng.random(len(sets)), sets)])
        scores = eval_ap(x, x)
        self_ok &= scores == {"ap": 1.0, "ap50": 1.0, "ap25": 1.0}
    _report(6, "AP protocol sanity", hand_ok and self_ok,
            f"hand-walked AP50 {half['ap50']}; 20 self-evaluations all 1.0")


def test_criterion_7_format_roundtrips(tmp_path):
    from conftest import random_pose
    rng = np.random.default_rng(77)

    for i in range(50):
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        values = rng.uniform(0, 9, size=(h, w)).astype(np.float32)
        if rng.random() < 0.3:
            values[rng.integers(0, h), rng.integers(0, w)] = 0.0
        p1, p2 = tmp_path / f"d{i}a.dmap", tmp_path / f"d{i}b.dmap"
        save_dmap(p1, values)
        save_dmap(p2, load_dmap(p1))
        assert p1.read_bytes() == p2.read_bytes()

        mask = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        m1, m2 = tmp_path / f"m{i}a.pgm", tmp_path / f"m{i}b.pgm"
        save_mask_pgm(m1, mask)
        save_mask_pgm(m2, load_mask_pgm(m1))
        assert m1.read_bytes() == m2.read_bytes()

        pose = random_pose(rng, spread=5.0)
        q1, q2 = tmp_path / f"p{i}a.txt", tmp_path / f"p{i}b.txt"
        save_pose(q1, pose)
        save_pose(q2, load_pose(q1))
        assert q1.read_bytes() == q2.read_bytes()

    for i in range(50):
        res = int(rng.integers(6, 12))
        boxes, cams = boxworld_preset("one-box", res)
        world = generate_boxworld(boxes, cams[: int(rng.integers(1, 4))])
        d1, d2 = tmp_path / f"s{i}a", tmp_path / f"s{i}b"
        manifest = save_scene(world.scene, d1)
        save_scene(load_scene(manifest), d2)
        for rel in sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file()):
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    # malformed fixtures raise their named typed errors
    good = tmp_path / "good.dmap"
    save_dmap(good, np.ones((3, 3), np.float32))
    blob = good.read_bytes()
    cases = []
    f = tmp_path / "bad_magic.dmap"
    f.write_bytes(b"ZMAP" + blob[4:])
    cases.append((BadMagicError, load_dmap, f))
    f = tmp_path / "bad_version.dmap"
    f.write_bytes(blob[:4] + b"\x07\x00" + blob[6:])
    cases.append((FormatVersionError, load_dmap, f))
    f = tmp_path / "short.dmap"
    f.write_bytes(blob[:-1])
    cases.append((LengthMismatchError, load_dmap, f))
    cases.append((MissingFileError, load_dmap, tmp_path / "absent.dmap"))
    f = tmp_path / "bad.pgm"
    f.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    cases.append((BadMaskError, load_mask_pgm, f))
    f = tmp_path / "short.pgm"
    f.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    cases.append((LengthMismatchError, load_mask_pgm, f))
    f = tmp_path / "skew.txt"
    f.write_text("1 0.01 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    cases.append((BadPoseError, load_pose, f))
    f = tmp_path / "lastrow.txt"
    f.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 1 1\n")
    cases.append((BadPoseError, load_pose, f))
    f = tmp_path / "schema.json"
    f.write_text('{"schema": "nope/0", "frames": []}')
    cases.append((ManifestError, load_scene, f))
    f = tmp_path / "nofield.json"
    f.write_text('{"schema": "geovos.scene/1"}')
    cases.append((ManifestError, load_scene, f))
    f = tmp_path / "noinst.json"
    f.write_text('{"schema": "geovos.instances/1", "instances": [{}]}')
    cases.append((ManifestError, load_instances, f))
    for err, loader, path in cases:
        with pytest.raises(err):
            loader(path)
    _report(7, "format round-trips", True,
            f"150 raster/pose + 50 manifest fixtures byte-identical; "
            f"{len(cases)} malformed fixtures raised typed errors")


def test_criterion_8_constant_echo():
    scfg = SamplerConfig()
    mcfg = MergerConfig()
    ok = (
        scfg.tau == 0.25
        and scfg.p_fov == 0.8
        and mcfg.selected_layers == ("encoder", 4, 7, 11)
        and mcfg.c_in == 1024
        and mcfg.c_mid == 768
    )
    _report(8, "constant echo", ok,
            f"tau={scfg.tau}, p_fov={scfg.p_fov}, layers={mcfg.selected_layers}, "
            f"projection {mcfg.c_in}->{mcfg.c_mid}")
