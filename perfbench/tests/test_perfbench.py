"""Tests of the benchmark's own code: statistics, span arithmetic, wrappers,
workload generation and the oracle. Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import boxworld as bw  # noqa: E402
import hostspeed as hs  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from geovos import cli, ingest, instance3d, kernels, sampler  # noqa: E402

# ---------------------------------------------------------------------------
# percentile rule


def test_median_odd_and_even():
    assert tr.median([3.0, 1.0, 2.0]) == 2.0
    assert tr.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        tr.median([])


@pytest.mark.parametrize("n, rung", [
    (39, None),  # p75 leaves 9 beyond
    (40, 75.0),
    (199, 90.0),  # p95 at rank 190 leaves 9 beyond
    (200, 95.0),  # rank 190, exactly 10 beyond
    (999, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_rung_with_ten_beyond(n, rung):
    values = list(range(1, n + 1))
    got = tr.tail(values[::-1])
    if rung is None:
        assert got is None
        return
    p, value = got
    assert p == rung
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10
    assert beyond == n - math.ceil(Fraction(str(p)) / 100 * n)


# ---------------------------------------------------------------------------
# span arithmetic


def _span(name, parent, start, end):
    return tr.Span(name, parent, start, end)


def test_covered_merges_overlaps_and_clips():
    assert tr.covered([], 0, 10) == 0.0
    assert tr.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5.0
    assert tr.covered([(-5, 2), (9, 20)], 0, 10) == 3.0
    assert tr.covered([(4, 4), (6, 5)], 0, 10) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.inner", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 6.0),
    ]
    assert tr.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    totals = tr.layer_totals(spans + [_span("b", 0, 7.0, 9.0)])
    assert totals["b"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert totals["root"]["self_s"] == 4.0


def test_self_time_subtracts_parallel_children_once():
    # two pool threads under one parent: [1, 5] and [3, 8] cover 7 of 10
    spans = [_span("run", None, 0.0, 10.0), _span("lift", 0, 1.0, 5.0),
             _span("lift", 0, 3.0, 8.0)]
    assert tr.self_times(spans) == [3.0, 4.0, 5.0]
    assert tr.layer_totals(spans)["lift"] == {"calls": 2, "s": 9.0, "self_s": 9.0}


def test_pool_thread_spans_attach_to_enclosing_span():
    t = tr.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        with t.span("child"):
            barrier.wait()
            with t.span("grandchild"):
                pass

    with t.span("run"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(2)))
    names = [s.name for s in t.spans]
    assert names.count("child") == 2
    for s in t.spans:
        if s.name == "child":
            assert s.parent == 0
        elif s.name == "grandchild":
            assert t.spans[s.parent].name == "child"
    run_self = tr.self_times(t.spans)[0]
    children = [(s.start, s.end) for s in t.spans if s.name == "child"]
    assert run_self == pytest.approx(
        t.spans[0].end - t.spans[0].start - tr.covered(children, t.spans[0].start, t.spans[0].end))
    assert run_self < t.spans[0].end - t.spans[0].start


# ---------------------------------------------------------------------------
# wrappers


def _sites(layers):
    return [tr._resolve(layer.site) for layer in layers]


def test_install_swaps_the_looked_up_attribute_and_restores_it():
    layers = tr.OP_LAYERS + tr.SETUP_LAYERS
    before = [getattr(o, a) for o, a in _sites(layers)]
    t = tr.Tracer()
    with tr.installed(t, layers):
        during = [getattr(o, a) for o, a in _sites(layers)]
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
        kernels.erode_mask(np.ones((4, 4), bool), 1)
        instance3d.erode(np.ones((3, 5), bool), 1)  # reaches kernels.erode_mask
    after = [getattr(o, a) for o, a in _sites(layers)]
    assert all(x is y for x, y in zip(after, before))
    assert [s.name for s in t.spans] == ["kernels.erode_mask"] * 2
    assert t.counts["kernels.erode_mask.elements"] == 16 + 15
    # calls after restore are no longer recorded
    kernels.erode_mask(np.ones((4, 4), bool), 1)
    assert len(t.spans) == 2


def test_install_restores_after_an_exception():
    original = instance3d.merge_instances
    with pytest.raises(ValueError):
        with tr.installed(tr.Tracer(), tr.OP_LAYERS):
            instance3d.merge_instances([], instance3d.MergeConfig())
    assert instance3d.merge_instances is original


def test_install_reports_a_site_left_patched():
    original = sampler.candidate_ratios
    layer = tr.Layer("sampler.candidate_ratios", "geovos.sampler:candidate_ratios")
    try:
        with pytest.raises(RuntimeError, match="not restored"):
            with tr.installed(tr.Tracer(), [layer, layer]):
                pass  # the second patch wraps the first; restoring leaves it wrapped
    finally:
        sampler.candidate_ratios = original


def test_traced_pipeline_attributes_lifts_and_merge(monkeypatch, tmp_path):
    monkeypatch.setenv("GEOVOS_THREADS", "2")
    boxes, cameras = cli.boxworld_preset("two-cubes", 32)
    world = ingest.generate_boxworld(boxes, cameras)
    t = tr.Tracer()
    with tr.installed(t, tr.OP_LAYERS):
        with t.span(tr.OP):
            cli.run_pipeline(world.scene, world.gt_tracks, instance3d.MergeConfig())
    by_name = {}
    for i, s in enumerate(t.spans):
        by_name.setdefault(s.name, []).append(i)
    (run_idx,) = by_name["cli.run_pipeline"]
    assert all(t.spans[i].parent == run_idx for i in by_name["instance3d.lift_fragment"])
    assert t.spans[by_name["instance3d.merge_instances"][0]].parent == run_idx
    summary = {**tr.summarize(t, tr.OP_LAYERS), **tr.root_summary(t)}
    assert summary["instance3d.lift_fragment.calls"] == len(by_name["instance3d.lift_fragment"])
    assert summary["instance3d.assign_superpoints.points"] == len(world.scene.scene_points)
    assert summary["sampler.candidate_ratios.calls"] == 0
    assert 0.0 <= summary["trace.unattributed_s"] < summary["op.s"]


# ---------------------------------------------------------------------------
# workload generation and oracle

SEEDS = (0, 1, 2)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """Every workload set up on SEEDS, plus a second set-up of seed 0."""
    root = tmp_path_factory.mktemp("scenes")
    out = {}
    for w in bw.WORKLOADS.values():
        for seed in SEEDS:
            out[w.name, seed] = bw.set_up(w, seed, root / f"{w.name}-{seed}")
        out[w.name, "again"] = bw.set_up(w, 0, root / f"{w.name}-again")
    yield out
    shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_same_seed_gives_byte_identical_scene(scenes, name):
    a = Path(scenes[name, 0]["manifest"]).parent
    b = Path(scenes[name, "again"]["manifest"]).parent
    assert _files(a) == _files(b)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_other_seeds_move_the_boxes(scenes, name):
    w = bw.WORKLOADS[name]
    centers = [tuple(b.center for b in bw.scene_layout(w, s)[0]) for s in SEEDS]
    assert len(set(centers)) == len(SEEDS)
    depths = {_files(Path(scenes[name, s]["manifest"]).parent)["depth/0000.dmap"]
              for s in SEEDS}
    assert len(depths) == len(SEEDS)


@pytest.mark.parametrize("name", sorted(bw.WORKLOADS))
def test_boxes_stay_well_apart(name):
    w = bw.WORKLOADS[name]
    for seed in SEEDS:
        boxes, _ = bw.scene_layout(w, seed)
        c = np.array([b.center for b in boxes])
        gaps = [np.max(np.abs(c[i] - c[j])) - bw.CUBE
                for i in range(len(c)) for j in range(i + 1, len(c))]
        assert min(gaps) >= bw.PITCH - bw.CUBE - 2 * bw.JITTER


@pytest.mark.parametrize("name", ["ring-merge", "few-view-dense"])
def test_pipeline_passes_the_oracle_on_every_seed(scenes, tmp_path, name):
    digests = set()
    for seed in SEEDS:
        oracle = scenes[name, seed]
        report = tmp_path / f"{seed}.jsonl"
        code = cli.main(["pipeline", "--scene", oracle["manifest"], "--masks",
                         oracle["tracks"], "--out", str(report)])
        assert code == 0
        problems, summary = bw.check_pipeline_report(report, oracle)
        assert problems == []
        digests.add(bw.digest(summary))
    assert len(digests) == len(SEEDS)


def test_pipeline_oracle_rejects_a_wrong_report(scenes, tmp_path):
    oracle = scenes["ring-merge", 0]
    report = tmp_path / "r.jsonl"
    lines = [{"schema": "x"}, {"item": {"sources": [], "confidence": 1.0}},
             {"aggregate": {"ap": 1.0, "ap50": 1.0, "ap25": 0.5, "n_instances": 7,
                            "n_fragments": oracle["n_fragments"]}}]
    report.write_text("\n".join(json.dumps(x) for x in lines))
    problems, _ = bw.check_pipeline_report(report, oracle)
    assert any("ap25" in p for p in problems)
    assert any("n_instances" in p for p in problems)


def test_sampler_draws_pass_the_oracle_on_every_seed(scenes):
    cfg = sampler.SamplerConfig(n_frames=bw.SAMPLE_N, tau=bw.SAMPLE_TAU, p_fov=bw.SAMPLE_P_FOV)
    modes = set()
    for seed in SEEDS:
        scene = ingest.load_scene(scenes["long-video-sample", seed]["manifest"])
        rng = np.random.default_rng(seed)
        for _ in range(12):
            draw = sampler.sample_mixed(scene, cfg, rng, scene.object_ids[0]).to_dict()
            assert bw.check_draw(draw) == []
            modes.add(draw["mode"])
    assert modes == {"fov", "continuous"}


def test_draw_oracle_rejects_bad_draws():
    good = {"reference_frame": 0, "frames": list(range(8)), "mode": "fov",
            "ratios": {str(f): 0.5 for f in range(1, 8)}, "fallback_frames": []}
    assert bw.check_draw(good) == []
    low = dict(good, ratios={**good["ratios"], "3": 0.25})
    assert bw.check_draw(low) and bw.check_draw(dict(low, fallback_frames=[3])) == []
    assert bw.check_draw(dict(good, frames=[0, 1, 1, 2, 3, 4, 5, 6]))
    assert bw.check_draw(dict(good, reference_frame=9))


# ---------------------------------------------------------------------------
# host speed


def test_scale_divides_by_the_mean_reading():
    assert hs.scale(2.0, hs.REF_S, hs.REF_S) == pytest.approx(2.0)
    # a host twice as slow as the reference halves the scaled time
    assert hs.scale(2.0, 2 * hs.REF_S, 2 * hs.REF_S) == pytest.approx(1.0)
    assert hs.scale(3.0, hs.REF_S, 2 * hs.REF_S) == pytest.approx(2.0)
    assert hs.scale(4.0, hs.REF_S, hs.REF_S, 4 * hs.REF_S) == pytest.approx(2.0)


def test_calibrate_reads_the_fastest_try():
    cal = hs.calibrate(repeat=2)
    assert 0.0 < cal < 1.0


def test_read_on_the_cpu_of_a_process_restores_the_cpu_set():
    cpu = hs.cpu_of(os.getpid())
    assert hs.cpu_of(2**22 + 1) is None  # above the kernel's pid limit
    assert 0.0 < hs.read_on(None) < 1.0
    if cpu is not None and hasattr(os, "sched_getaffinity"):
        before = os.sched_getaffinity(0)
        assert cpu in before
        assert 0.0 < hs.read_on(cpu) < 1.0
        assert os.sched_getaffinity(0) == before


def test_sampler_session_scales_every_draw(tmp_path):
    oracle = bw.set_up(bw.WORKLOADS["long-video-sample"], 0, tmp_path / "scene")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "sample", "--spawned-at", "0",
         "--manifest", oracle["manifest"], "--seed", "0", "--budget", "0", "--max-draws", "7"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(res["draw_s"]) == len(res["draw_ref_s"]) == 7
    assert res["first_batch_ref_s"] > 0 and all(t > 0 for t in res["draw_ref_s"])


# ---------------------------------------------------------------------------
# the benchmark's contract


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit(m["name"]) for m in spec["per_layer"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ring-merge",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
