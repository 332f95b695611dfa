"""One operation in a fresh interpreter, started by run.py.

    child.py pipeline --spawned-at T --trace OUT -- <geovos cli arguments>
    child.py sample --spawned-at T --manifest M --seed S --budget SEC
                    [--max-draws N] [--trace OUT]

``pipeline`` runs ``geovos.cli.main`` once under the tracer and writes the
per-layer totals to OUT (untraced pipeline ops run ``python -m geovos.cli``
instead, with no benchmark code in the process). ``sample`` loads a scene
once and draws FOV-aware batches in a closed loop, checking every draw, and
prints one JSON line; untraced, it reads the host's speed before the load,
after the first draw and then every CAL_EVERY_S, and gives every time also
scaled to the reference speed (see hostspeed.py). Needs the checkout's
``src`` on PYTHONPATH.
"""

import time

import geovos.cli  # noqa: F401  (process start-up ends with this import)

IMPORTED_AT = time.monotonic()
CAL_EVERY_S = 0.25

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

import boxworld  # noqa: E402
import hostspeed as hs  # noqa: E402
import tracer as tr  # noqa: E402
from geovos import cli, ingest, sampler  # noqa: E402


def traced_pipeline(args) -> int:
    t = tr.Tracer()
    with tr.installed(t, tr.OP_LAYERS):
        with t.span(tr.OP):
            code = cli.main(args.cli_args)
    metrics = {**tr.summarize(t, tr.OP_LAYERS), **tr.root_summary(t),
               "process.startup_s": IMPORTED_AT - args.spawned_at}
    with open(args.trace, "w") as f:
        json.dump({"exit": code, "metrics": metrics}, f)
    return code


def sample_session(args) -> int:
    """Load once, then draw until DIGEST_DRAWS are done and the budget is
    spent, or until ``max_draws`` draws when that is set."""
    cfg = sampler.SamplerConfig(n_frames=boxworld.SAMPLE_N, tau=boxworld.SAMPLE_TAU,
                                p_fov=boxworld.SAMPLE_P_FOV, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    t = tr.Tracer() if args.trace else None
    draw_s, draw_ref_s, summaries, problems = [], [], [], []
    failed = 0
    cal = hs.calibrate() if t is None else None
    first_batch_ref_s, stretch = None, 0  # stretch: draws since the last reading
    with tr.installed(t, tr.OP_LAYERS) if t else nullcontext():
        t0 = time.perf_counter()
        scene = ingest.load_scene(args.manifest)
        obj = scene.object_ids[0]
        first_batch_s = None
        while len(draw_s) < (args.max_draws or float("inf")) and (
                len(draw_s) < boxworld.DIGEST_DRAWS or time.perf_counter() - t0 < args.budget):
            start = time.perf_counter()
            try:
                with t.span(tr.OP) if t else nullcontext():
                    draw = sampler.sample_mixed(scene, cfg, rng, obj)
                end = time.perf_counter()
                record = draw.to_dict()
                found = boxworld.check_draw(record)
            except ValueError as e:
                end = time.perf_counter()
                record, found = None, [f"draw raised: {e}"]
            draw_s.append(end - start)
            stretch += 1
            if first_batch_s is None:
                first_batch_s = end - t0
            if cal is not None and (len(draw_s) == 1 or end - cal_at >= CAL_EVERY_S):
                cal, cal_before = hs.calibrate(), cal
                cal_at = time.perf_counter()
                if first_batch_ref_s is None:
                    first_batch_ref_s = hs.scale(first_batch_s, cal_before, cal)
                draw_ref_s += [hs.scale(d, cal_before, cal) for d in draw_s[-stretch:]]
                stretch = 0
            if found:
                failed += 1
                problems.extend(found[: 5 - len(problems)])
            if len(summaries) < boxworld.DIGEST_DRAWS:
                summaries.append(boxworld.draw_summary(record) if record else None)
    if cal is not None and stretch:
        cal_before, cal = cal, hs.calibrate()
        draw_ref_s += [hs.scale(d, cal_before, cal) for d in draw_s[-stretch:]]
    out = {
        "startup_s": IMPORTED_AT - args.spawned_at,
        "first_batch_s": first_batch_s,
        "first_batch_ref_s": first_batch_ref_s,
        "draw_s": draw_s,
        "draw_ref_s": draw_ref_s,
        "failed": failed,
        "problems": problems,
        "digest": boxworld.digest(summaries),
    }
    if t is not None:
        metrics = {**tr.summarize(t, tr.OP_LAYERS), **tr.root_summary(t),
                   "process.startup_s": out["startup_s"]}
        with open(args.trace, "w") as f:
            json.dump({"exit": 0, "metrics": metrics}, f)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pipeline")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("sample")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--max-draws", type=int, default=0, help="0: no cap")
    p.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "pipeline":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        return traced_pipeline(args)
    return sample_session(args)


if __name__ == "__main__":
    sys.exit(main())
