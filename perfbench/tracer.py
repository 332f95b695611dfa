"""Spans and counters recorded from outside the program.

A layer is a function of a ``geovos`` module. Tracing swaps the
module attribute that the caller looks up (``geovos.instance3d.merge_instances``
for the merge that ``run_pipeline`` calls, ``geovos.cli.eval_ap`` for the AP
that the CLI calls) for a wrapper that records a span, and puts the original
back afterwards. No file of the program changes.

Spans live in memory. Each span knows its parent: the innermost open span on
its own thread or, on a thread with no open span (the lift thread pool), the
innermost open span of the thread that created the tracer.
"""

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

OP = "op"  # root span the benchmark opens around each operation


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent, start: float = 0.0, end: float = 0.0):
        self.name, self.parent, self.start, self.end = name, parent, start, end


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str):
        """Start a span; returns the token that ``close`` takes."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and stack is not home else None
        span = Span(name, parent)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        return stack, span

    @staticmethod
    def close(token):
        stack, span = token
        span.end = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def add(self, key: str, value: float = 1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def see(self, key: str, item):
        with self._lock:
            self.distinct.setdefault(key, set()).add(item)


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    Children running in parallel (thread-pool spans) overlap; the union of
    their intervals is subtracted once.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans) -> dict:
    """``{name: {"calls", "s", "self_s"}}`` summed over all spans of a name."""
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += self_s
    return out


# ---------------------------------------------------------------------------
# timing statistics


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return v[mid] if n % 2 else (v[mid - 1] + v[mid]) / 2.0


def tail(values):
    """The highest ladder percentile with at least 10 samples beyond it.

    Nearest-rank percentile: p is the value at rank ceil(p/100 * n) of the
    sorted samples, and the samples beyond it are those of higher rank.
    Returns ``(p, value)``, or None when even the lowest rung has fewer
    than 10 samples beyond it.
    """
    v = sorted(values)
    n = len(v)
    for p in TAIL_LADDER:
        rank = max(1, -(-round(p * 10) * n // 1000))  # exact ceil(p/100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, v[rank - 1]
    return None


# ---------------------------------------------------------------------------
# wrappers


@dataclass(frozen=True)
class Layer:
    """One traced function: metric prefix, patch site and optional counters.

    ``site`` is ``"module:attr.path"``, the attribute the caller looks up.
    ``count(tracer, args, kwargs, result)`` records the counters named in
    ``counters`` after a call.
    """

    name: str
    site: str
    count: Callable | None = None
    counters: tuple = ()


def _resolve(site: str):
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _wrap(tracer: Tracer, layer: Layer, fn):
    name = layer.name

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        token = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token)
        if layer.count is not None:
            layer.count(tracer, args, kwargs, result)
        return result

    return timed


@contextmanager
def installed(tracer: Tracer, layers):
    """Swap every layer's site for a timing wrapper; restore on exit.

    Raises RuntimeError on exit if any site does not hold its original
    function again.
    """
    patches = []
    try:
        for layer in layers:
            owner, attr = _resolve(layer.site)
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, layer, original))
            patches.append((layer.site, owner, attr, original))
        yield
    finally:
        for _, owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    stale = [site for site, owner, attr, original in patches
             if getattr(owner, attr) is not original]
    if stale:
        raise RuntimeError(f"wrappers not restored: {stale}")


# ---------------------------------------------------------------------------
# the layers of geovos

BYTES_READ = "ingest.bytes_read"
DISTINCT_PAIRS = "sampler.frustum_overlap_ratio.distinct_pairs"
DISTINCT_CANDIDATES = "sampler.frustum_overlap_ratio.distinct_candidates"


def _bytes_of_path(tracer, args, kwargs, result):
    tracer.add(BYTES_READ, os.path.getsize(args[0]))


def _lift_counts(tracer, args, kwargs, result):
    tracer.add("instance3d.lift_fragment.points", result.fragment.n_points if result.ok else 0)
    tracer.add("instance3d.lift_fragment.rejected", 0 if result.ok else 1)


def _vote_counts(tracer, args, kwargs, result):
    instances, _, scene_points = args[:3]
    tracer.add("instance3d.assign_superpoints.points", len(scene_points))
    tracer.add("instance3d.assign_superpoints.fragments",
               sum(len(inst.fragments) for inst in instances.instances))


def _fov_counts(tracer, args, kwargs, result):
    candidate, reference = args[0], args[2]
    tracer.see(DISTINCT_PAIRS, (candidate.frame_id, reference.frame_id))
    tracer.see(DISTINCT_CANDIDATES, candidate.frame_id)


def _kernel(name, size):
    key = f"kernels.{name}.elements"

    def count(tracer, args, kwargs, result):
        tracer.add(key, size(args))

    return Layer(f"kernels.{name}", f"geovos.kernels:{name}", count, (key,))


def _reader(name):
    return Layer(f"ingest.{name}", f"geovos.ingest:{name}", _bytes_of_path, (BYTES_READ,))


OP_LAYERS = (
    Layer("cli.run_pipeline", "geovos.cli:run_pipeline"),
    Layer("cli.RunReport.write", "geovos.cli:RunReport.write"),
    Layer("instance3d.eval_ap", "geovos.cli:eval_ap"),
    Layer("ingest.load_scene", "geovos.ingest:load_scene"),
    Layer("ingest.load_tracks", "geovos.ingest:load_tracks"),
    _reader("load_dmap"),
    _reader("load_mask_pgm"),
    _reader("load_pose"),
    _reader("_read_json"),
    Layer("instance3d.lift_fragment", "geovos.instance3d:lift_fragment", _lift_counts,
          ("instance3d.lift_fragment.points", "instance3d.lift_fragment.rejected")),
    Layer("instance3d.depth_agreement_score", "geovos.instance3d:depth_agreement_score"),
    Layer("instance3d.merge_instances", "geovos.instance3d:merge_instances"),
    Layer("instance3d.temporal_overlap2d", "geovos.instance3d:temporal_overlap2d"),
    Layer("instance3d.assign_superpoints", "geovos.instance3d:assign_superpoints", _vote_counts,
          ("instance3d.assign_superpoints.points", "instance3d.assign_superpoints.fragments")),
    Layer("sampler.visible_frames", "geovos.sampler:visible_frames"),
    Layer("sampler.candidate_ratios", "geovos.sampler:candidate_ratios"),
    Layer("sampler.frustum_overlap_ratio", "geovos.sampler:frustum_overlap_ratio", _fov_counts,
          (DISTINCT_PAIRS, DISTINCT_CANDIDATES)),
    _kernel("backproject_mask", lambda a: a[0].size),
    _kernel("count_in_frustum", lambda a: len(a[0])),
    _kernel("depth_agreement_count", lambda a: len(a[0])),
    _kernel("erode_mask", lambda a: a[0].size),
)

SETUP_LAYERS = (
    Layer("ingest.generate_boxworld", "geovos.ingest:generate_boxworld"),
    Layer("ingest.save_scene", "geovos.ingest:save_scene"),
    Layer("ingest.save_tracks", "geovos.ingest:save_tracks"),
    _kernel("render_boxes", lambda a: a[1].shape[0] * a[1].shape[1]),
)

SPAN_METRICS = ("calls", "s", "self_s")


def summarize(tracer: Tracer, layers) -> dict:
    """Flat ``{metric: value}`` totals of the given layers over one tracer.

    Every layer and counter appears, with 0 where nothing called it.
    """
    totals = layer_totals(tracer.spans)
    out = {}
    for layer in layers:
        row = totals.get(layer.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in SPAN_METRICS:
            out[f"{layer.name}.{key}"] = row[key]
        for key in layer.counters:
            out[key] = (len(tracer.distinct[key]) if key in tracer.distinct
                        else tracer.counts.get(key, 0))
    calls = out.get("sampler.frustum_overlap_ratio.calls")
    if calls is not None:
        out["sampler.frustum_overlap_ratio.reuse_ratio"] = (
            out[DISTINCT_PAIRS] / calls if calls else 0.0)
    return out


def root_summary(tracer: Tracer) -> dict:
    """Time of the root ``op`` spans and the part no named span covers."""
    op = layer_totals(tracer.spans).get(OP, {"calls": 0, "s": 0.0, "self_s": 0.0})
    return {"op.calls": op["calls"], "op.s": op["s"], "trace.unattributed_s": op["self_s"]}
