#!/usr/bin/env python3
"""Box-world benchmark of ``geovos pipeline`` and the FOV-aware sampler.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the ``src`` directory of the checkout that
holds this file. Scenes are written under ``.perfbench_work/`` there and
removed afterwards. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it give sample counts, the oracle digest and
the environment. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import boxworld as bw
import hostspeed as hs
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS = 3  # set-ups per untraced run; setup_s is their median
SAMPLER_SESSIONS = 5  # sampler processes per run; each loads the scene once
FIRST_BATCH_PROBES = 10  # extra processes that only load and draw once
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
READ_EVERY_S = 0.2  # host-speed readings while a pipeline op runs

# Every gated time is scaled to a reference host speed by readings taken on
# the CPU the work runs on (hostspeed.py); the wall times are printed beside
# them. ops_per_s is ops over their summed time; first_op_s and setup_s are
# medians. The op latency median and tail are printed, not gated.
END_TO_END = {
    "ops_per_s": "1/s",
    "first_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> list:
    names = []
    for layer in tr.OP_LAYERS + tr.SETUP_LAYERS:
        names += [f"{layer.name}.{k}" for k in tr.SPAN_METRICS]
        names += [c for c in layer.counters if c not in names]
    names += ["sampler.frustum_overlap_ratio.reuse_ratio", "op.calls", "op.s",
              "trace.unattributed_s", "trace.overhead_s", "process.startup_s"]
    return names


def unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "_s")):
        return "s"
    if name == tr.BYTES_READ:
        return "B"
    if name.endswith("reuse_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# child processes


class Child(NamedTuple):
    """Result of one child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _read_while_running(pid: int, readings: list):
    """Read the host's speed on the child's CPU every READ_EVERY_S until it
    exits; returns as soon as it does."""
    if not hasattr(os, "pidfd_open"):
        return
    fd = os.pidfd_open(pid)
    try:
        while not select.select([fd], [], [], READ_EVERY_S)[0]:
            readings.append(hs.read_on(hs.cpu_of(pid)))
    finally:
        os.close(fd)


def run_child(argv, log_dir: Path, deadline: float, readings=None) -> Child:
    """Run argv to completion; peak RSS comes from the child's own rusage.
    With a ``readings`` list, read the host's speed while the child runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            if readings is not None:
                _read_while_running(proc.pid, readings)
            _, status, usage = os.wait4(proc.pid, 0)
            code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0
        except ChildProcessError:  # reaped by the kill on timeout
            code, rss_mb = -9, 0.0
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = code
    return Child(code, wall, rss_mb, out_path.read_text(), err_path.read_text())


def _child_argv(mode: str, *args) -> list:
    return [sys.executable, str(HERE / "child.py"), mode,
            "--spawned-at", repr(time.monotonic()), *args]


# ---------------------------------------------------------------------------
# workloads


class Tally:
    """Ops attempted and failed, the first problems, timings and digests."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {False: set(), True: set()}  # by traced
        self.op_s, self.first_op_s, self.rss_mb, self.layer_rows = [], [], [], []
        self.op_ref_s, self.first_op_ref_s = [], []  # scaled to the reference speed
        self.wall_s = {False: [], True: []}  # per child process, by traced

    def record(self, n: int, failed: int, problems=()):
        self.attempted += n
        self.failed += failed
        self.problems.extend(list(problems)[: max(0, 5 - len(self.problems))])


class SetUps:
    """The set-ups of one run. The first comes before any op; the others are
    spread over the measured seconds, between ops, so that set-up and ops
    sample the same stretch of the host's time. Each is timed alone."""

    def __init__(self, w, seed: int, work: Path, traced: bool, seconds: float):
        self.w, self.seed, self.work, self.traced = w, seed, work, traced
        self.due = [seconds * i / SETUPS for i in range(1, 1 if traced else SETUPS)]
        self.setup_s, self.setup_ref_s, self.rows = [], [], []

    def _one(self, out_dir: Path) -> dict:
        t = tr.Tracer()
        cal = None if self.traced else hs.calibrate()
        start = time.perf_counter()
        with tr.installed(t, tr.SETUP_LAYERS) if self.traced else nullcontext():
            oracle = bw.set_up(self.w, self.seed, out_dir)
        self.setup_s.append(time.perf_counter() - start)
        if self.traced:
            self.rows.append(tr.summarize(t, tr.SETUP_LAYERS))
        else:
            self.setup_ref_s.append(hs.scale(self.setup_s[-1], cal, hs.calibrate()))
        return oracle

    def first(self) -> dict:
        oracle = self._one(self.work / "scene")
        oracle["seed"] = self.seed
        return oracle

    def between(self, elapsed: float = float("inf")):
        """Run the set-ups due by ``elapsed`` seconds into the measurement;
        the default runs every one still due."""
        while self.due and self.due[0] <= elapsed:
            self.due.pop(0)
            out_dir = self.work / f"scene{len(self.setup_s)}"
            self._one(out_dir)
            shutil.rmtree(out_dir)


def _units(traced: bool, seconds: float, setups: SetUps):
    """(unit index, traced) pairs until ``seconds`` have passed, alternating
    untraced and traced units when ``traced``; at least one of each kind.
    The set-ups due run between units and count towards ``seconds``."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if traced else (False,)):
            yield k, with_trace
            k += 1
        setups.between(time.perf_counter() - start)
    setups.between()


def run_pipeline_ops(oracle, work: Path, seconds: float, traced: bool, deadline: float,
                     tally: Tally, setups: SetUps):
    """One ``geovos pipeline`` process per op, until ``seconds`` have passed."""
    cli_args = ["pipeline", "--scene", oracle["manifest"], "--masks", oracle["tracks"]]
    for k, with_trace in _units(traced, seconds, setups):
        op_dir = work / f"op{k}"
        op_dir.mkdir()
        report, trace_path = op_dir / "report.jsonl", op_dir / "trace.json"
        args = cli_args + ["--out", str(report)]
        if with_trace:
            argv = _child_argv("pipeline", "--trace", str(trace_path), "--", *args)
        else:
            argv = [sys.executable, "-m", "geovos.cli", *args]
        readings = None if with_trace else []
        child = run_child(argv, op_dir, deadline, readings)
        if child.code != 0 or not report.is_file():
            problems = [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
        else:
            problems, summary = bw.check_pipeline_report(report, oracle)
            tally.digests[with_trace].add(bw.digest(summary))
        if with_trace and not problems:
            tally.layer_rows.append(json.loads(trace_path.read_text())["metrics"])
        tally.record(1, 1 if problems else 0, problems)
        tally.wall_s[with_trace].append(child.wall_s)
        if not with_trace:
            tally.op_s.append(child.wall_s)
            tally.first_op_s.append(child.wall_s)
            ref_s = hs.scale(child.wall_s, *(readings or [hs.calibrate()]))
            tally.op_ref_s.append(ref_s)
            tally.first_op_ref_s.append(ref_s)
            tally.rss_mb.append(child.rss_mb)
        shutil.rmtree(op_dir)


def _sample_plan(seconds: float, setups: SetUps, probe_walls: list):
    """Untraced sampler units (index, traced, budget, max draws): SAMPLER_SESSIONS
    sessions, each after its share of FIRST_BATCH_PROBES, so that first_op_s
    samples the whole run. The sessions' drawing budgets share what is left of
    ``seconds`` once the probes, the set-ups and each session's own start-up
    and load (taken to last as long as a probe) still to come are paid for."""
    start = time.perf_counter()
    per_session = FIRST_BATCH_PROBES // SAMPLER_SESSIONS
    k = 0
    for left in range(SAMPLER_SESSIONS, 0, -1):
        setups.between(time.perf_counter() - start)
        for _ in range(per_session):
            yield k, False, 0.0, 1
            k += 1
        probe_s = sum(probe_walls) / len(probe_walls) if probe_walls else 0.0
        still_due = ((left - 1) * per_session + left) * probe_s \
            + len(setups.due) * setups.setup_s[0]
        elapsed = time.perf_counter() - start
        yield k, False, max(0.0, seconds - elapsed - still_due) / left, 0
        k += 1
    setups.between()


def run_sample_sessions(oracle, work: Path, seconds: float, traced: bool, deadline: float,
                        tally: Tally, setups: SetUps):
    """Sampler processes: SAMPLER_SESSIONS sharing ``seconds``, each followed
    by its share of FIRST_BATCH_PROBES that stop after one draw; or, traced,
    pairs of sessions of exactly DIGEST_DRAWS draws each."""
    if traced:
        plan = ((k, t, 0.0, bw.DIGEST_DRAWS) for k, t in _units(True, seconds, setups))
    else:
        probe_walls = []
        plan = _sample_plan(seconds, setups, probe_walls)
    for k, with_trace, budget, max_draws in plan:
        op_dir = work / f"session{k}"
        op_dir.mkdir()
        trace_path = op_dir / "trace.json"
        argv = _child_argv("sample", "--manifest", oracle["manifest"],
                           "--seed", str(oracle["seed"]), "--budget", repr(budget),
                           "--max-draws", str(max_draws),
                           *(["--trace", str(trace_path)] if with_trace else []))
        child = run_child(argv, op_dir, deadline)
        if max_draws == 1:
            probe_walls.append(child.wall_s)
        if child.code != 0:
            tally.record(1, 1, [f"exit {child.code}: {child.stderr.strip()[-300:]}"])
        else:
            res = json.loads(child.stdout.strip().splitlines()[-1])
            tally.record(len(res["draw_s"]), res["failed"], res["problems"])
            tally.first_op_s.append(res["first_batch_s"])
            tally.first_op_ref_s.append(res["first_batch_ref_s"])
        if child.code == 0 and max_draws != 1:  # a probe is too short for the rest
            tally.digests[with_trace].add(res["digest"])
            tally.wall_s[with_trace].append(child.wall_s)
            if with_trace:
                tally.layer_rows.append(json.loads(trace_path.read_text())["metrics"])
            else:
                tally.op_s += res["draw_s"]
                tally.op_ref_s += res["draw_ref_s"]
                tally.rss_mb.append(child.rss_mb)
        shutil.rmtree(op_dir)


# ---------------------------------------------------------------------------
# environment


def environment(workload: str, seed: int) -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "geovos").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba_imports": has_numba, "GEOVOS_THREADS": os.environ.get("GEOVOS_THREADS"),
        "commit": commit, "src_sha256": src.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geovos" / "cli.py").is_file():
        print(f"error: no geovos sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(bw.WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def run(w, args, work: Path) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    traced = bool(args.trace)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {w.why}")
    print("env " + json.dumps(environment(w.name, args.seed), sort_keys=True))

    # set-up: generate the box world and write scene and tracks
    setups = SetUps(w, args.seed, work, traced, args.seconds)
    oracle = setups.first()
    print("oracle " + json.dumps({k: oracle[k] for k in ("n_boxes", "n_fragments",
                                                          "n_scene_points")}))

    tally = Tally()
    runner = run_pipeline_ops if w.kind == "pipeline" else run_sample_sessions
    runner(oracle, work, args.seconds, traced, deadline, tally, setups)

    consistent = len(tally.digests[False]) == 1 and (
        not traced or tally.digests[True] == tally.digests[False])
    if not consistent:
        tally.problems.append(f"digests differ: untraced {sorted(tally.digests[False])}, "
                              f"traced {sorted(tally.digests[True])}")
    print(f"digest {w.name}: {','.join(sorted(tally.digests[False])) or '-'}"
          + (f" traced: {','.join(sorted(tally.digests[True])) or '-'}" if traced else ""))
    print(f"error_rate: {tally.failed}/{tally.attempted} ops failed")
    for p in tally.problems:
        print(f"  problem: {p}")
    if not tally.op_s:
        print("error: no op completed", file=sys.stderr)
        return 1

    if traced:
        units = {name: unit(name) for name in per_layer_names()}
        metrics = per_layer(tally, setups.rows)
        per = "pipeline op" if w.kind == "pipeline" else f"session of {bw.DIGEST_DRAWS} draws"
        print(f"traced units: {len(tally.layer_rows)}; per-layer values are per {per}, "
              f"set-up layers per set-up")
    else:
        units = END_TO_END
        metrics = end_to_end(w, tally, setups)
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def end_to_end(w, tally: Tally, setups: SetUps) -> dict:
    """The gated metrics, from the scaled times; the same quantities in wall
    time, the host's speed and the op latency are printed beside them."""
    def figures(op_s, first_op_s, setup_s):
        return {
            "ops_per_s": len(op_s) / sum(op_s),
            "first_op_s": tr.median(first_op_s),
            "setup_s": tr.median(setup_s),
        }

    metrics = {**figures(tally.op_ref_s, tally.first_op_ref_s, setups.setup_ref_s),
               "peak_rss_mb": tr.median(tally.rss_mb)}
    wall = figures(tally.op_s, tally.first_op_s, setups.setup_s)
    speed = {"set-ups": zip(setups.setup_ref_s, setups.setup_s),
             "ops": zip(tally.op_ref_s, tally.op_s)}
    speed = {k: tr.median([r / s for r, s in pairs]) for k, pairs in speed.items()}
    what = ("pipeline_s, one `geovos pipeline` process" if w.kind == "pipeline"
            else "sample_draw_ms, one sample_mixed draw")
    for kind, times in (("wall time", tally.op_s), ("scaled", tally.op_ref_s)):
        op_ms = [s * 1000.0 for s in times]
        tail = tr.tail(op_ms)
        print(f"op ({what}), {kind}: median {tr.median(op_ms):.3f} ms, "
              + (f"p{tail[0]:g} {tail[1]:.3f} ms, " if tail else "too few for a tail, ")
              + f"n={len(op_ms)}")
    print(f"ops_per_s: {len(tally.op_s)} ops in {sum(tally.op_s):.3f} s of op time")
    print(f"first_op_s: median of n={len(tally.first_op_s)}; setup_s: median of "
          f"n={len(setups.setup_s)}; peak_rss_mb: median of n={len(tally.rss_mb)} processes")
    print("wall time, unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items())
          + "; host speed / reference: "
          + ", ".join(f"{k} {v:.3f}" for k, v in speed.items()))
    return metrics


def per_layer(tally: Tally, setup_rows) -> dict:
    """Mean over traced units; op and set-up rows share no metric names."""
    rows = tally.layer_rows + setup_rows
    out = {}
    for name in per_layer_names():
        values = [r[name] for r in rows if name in r]
        out[name] = sum(values) / len(values) if values else 0.0
    if tally.wall_s[True] and tally.wall_s[False]:
        out["trace.overhead_s"] = tr.median(tally.wall_s[True]) - tr.median(tally.wall_s[False])
    return out


if __name__ == "__main__":
    sys.exit(main())
