"""Hot numeric kernels: numba loops with vectorized numpy fallbacks.

Every kernel has a ``_numba``-jitted loop form and a ``_numpy`` vectorized
form; the public name dispatches on :data:`geovos._accel.NUMBA_ENABLED`.
The two lanes evaluate the same per-element expressions in the same order,
so they agree bit-for-bit (benchmarks/bench_kernels.py compares them).
``frustum_mask`` is the numpy lane's per-point frustum test on its own; the
batched frustum-overlap ratios in ``geometry`` share it.

Conventions: pixel (u, v) = (column, row), integer coordinates at pixel
centers; rasters indexed ``[v, u]``; depths are metric and a depth value is
valid iff it is finite and > 0.
"""

import numpy as np

from ._accel import NUMBA_ENABLED, njit

NEG_INF = float("-inf")
POS_INF = float("inf")


# ---------------------------------------------------------------------------
# back-projection


@njit(cache=True)
def _backproject_mask_numba(mask, depth, fx, fy, cx, cy):
    h, w = mask.shape
    n = 0
    for v in range(h):
        for u in range(w):
            if mask[v, u]:
                d = depth[v, u]
                if d > 0.0 and np.isfinite(d):
                    n += 1
    pts = np.empty((n, 3), np.float64)
    skipped = 0
    i = 0
    for v in range(h):
        for u in range(w):
            if mask[v, u]:
                d = depth[v, u]
                if d > 0.0 and np.isfinite(d):
                    pts[i, 0] = (u - cx) * d / fx
                    pts[i, 1] = (v - cy) * d / fy
                    pts[i, 2] = d
                    i += 1
                else:
                    skipped += 1
    return pts, skipped


def _backproject_mask_numpy(mask, depth, fx, fy, cx, cy):
    vs, us = np.nonzero(mask)
    d = depth[vs, us]
    valid = np.isfinite(d) & (d > 0.0)
    skipped = int(valid.size - np.count_nonzero(valid))
    us, vs, d = us[valid], vs[valid], d[valid]
    pts = np.empty((d.size, 3), np.float64)
    pts[:, 0] = (us - cx) * d / fx
    pts[:, 1] = (vs - cy) * d / fy
    pts[:, 2] = d
    return pts, skipped


def backproject_mask(mask, depth, fx, fy, cx, cy):
    """Lift masked valid-depth pixels to camera-frame points.

    Returns ``(points, skipped)`` where points is (N, 3) float64 in
    row-major pixel order and skipped counts masked pixels with invalid
    depth.
    """
    mask = np.ascontiguousarray(mask, dtype=np.bool_)
    depth = np.ascontiguousarray(depth, dtype=np.float64)
    if NUMBA_ENABLED:
        return _backproject_mask_numba(mask, depth, float(fx), float(fy), float(cx), float(cy))
    return _backproject_mask_numpy(mask, depth, float(fx), float(fy), float(cx), float(cy))


# ---------------------------------------------------------------------------
# frustum membership count (fused rigid transform + projection + bounds)


@njit(cache=True)
def _count_in_frustum_numba(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    n = 0
    for i in range(pts.shape[0]):
        px, py, pz = pts[i, 0], pts[i, 1], pts[i, 2]
        x = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
        y = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
        z = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
        if z > z_near:
            u = fx * x / z + cx
            v = fy * y / z + cy
            if 0.0 <= u < width and 0.0 <= v < height:
                n += 1
    return n


def frustum_mask(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """Per-point frustum membership after a rigid transform (numpy only).

    ``rot`` is (3, 3) and ``trans`` (3,), or per-point coefficients of shape
    (3, 3, N) and (3, N); either way every point is evaluated with the same
    IEEE expression as :func:`count_in_frustum`.
    """
    px, py, pz = pts[:, 0], pts[:, 1], pts[:, 2]
    x = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
    y = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
    z = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = fx * x / z + cx
        v = fy * y / z + cy
        return (z > z_near) & (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)


def _count_in_frustum_numpy(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    return int(np.count_nonzero(
        frustum_mask(pts, rot, trans, fx, fy, cx, cy, width, height, z_near)))


def count_in_frustum(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """Count points landing in a pinhole frustum after a rigid transform.

    ``rot``/``trans`` map the points' frame into the target camera frame.
    Non-finite points never count (NaN comparisons are false in both lanes).
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    rot = np.ascontiguousarray(rot, dtype=np.float64)
    trans = np.ascontiguousarray(trans, dtype=np.float64)
    args = (pts, rot, trans, float(fx), float(fy), float(cx), float(cy),
            float(width), float(height), float(z_near))
    if NUMBA_ENABLED:
        return int(_count_in_frustum_numba(*args))
    return _count_in_frustum_numpy(*args)


# ---------------------------------------------------------------------------
# depth agreement count


@njit(cache=True)
def _depth_agreement_numba(pts, depth, fx, fy, cx, cy, eps_rel):
    h, w = depth.shape
    n = 0
    for i in range(pts.shape[0]):
        x, y, z = pts[i, 0], pts[i, 1], pts[i, 2]
        if not z > 0.0:
            continue
        u = np.rint(fx * x / z + cx)
        v = np.rint(fy * y / z + cy)
        if 0.0 <= u < w and 0.0 <= v < h:
            d = depth[int(v), int(u)]
            if d > 0.0 and np.isfinite(d) and abs(z - d) <= eps_rel * d:
                n += 1
    return n


def _depth_agreement_numpy(pts, depth, fx, fy, cx, cy, eps_rel):
    h, w = depth.shape
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    front = z > 0.0
    x, y, z = x[front], y[front], z[front]
    u = np.rint(fx * x / z + cx)
    v = np.rint(fy * y / z + cy)
    ok = (u >= 0.0) & (u < w) & (v >= 0.0) & (v < h)
    u, v, z = u[ok].astype(np.int64), v[ok].astype(np.int64), z[ok]
    d = depth[v, u]
    good = np.isfinite(d) & (d > 0.0) & (np.abs(z - d) <= eps_rel * d)
    return int(np.count_nonzero(good))


def depth_agreement_count(pts, depth, fx, fy, cx, cy, eps_rel):
    """Count points whose projected depth matches the raster within eps_rel.

    A point counts iff it is in front of the camera, its nearest pixel is
    inside the raster with valid depth d, and ``|z - d| <= eps_rel * d``.
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    depth = np.ascontiguousarray(depth, dtype=np.float64)
    args = (pts, depth, float(fx), float(fy), float(cx), float(cy), float(eps_rel))
    if NUMBA_ENABLED:
        return int(_depth_agreement_numba(*args))
    return _depth_agreement_numpy(*args)


# ---------------------------------------------------------------------------
# binary mask erosion (4-connected structuring element, iterated)


@njit(cache=True)
def _erode_once_numba(mask):
    h, w = mask.shape
    out = np.zeros((h, w), np.bool_)
    for v in range(h):
        for u in range(w):
            if mask[v, u]:
                if v > 0 and v < h - 1 and u > 0 and u < w - 1:
                    if mask[v - 1, u] and mask[v + 1, u] and mask[v, u - 1] and mask[v, u + 1]:
                        out[v, u] = True
    return out


def _erode_once_numpy(mask):
    out = np.zeros_like(mask)
    out[1:-1, 1:-1] = (
        mask[1:-1, 1:-1]
        & mask[:-2, 1:-1]
        & mask[2:, 1:-1]
        & mask[1:-1, :-2]
        & mask[1:-1, 2:]
    )
    return out


def erode_mask(mask, radius):
    """Erode a binary mask by ``radius`` 4-connected interior steps.

    One step keeps a pixel iff it and its 4 neighbours are foreground
    (out-of-bounds counts as background); ``radius`` steps equal erosion by
    the L1 ball of that radius. Radius 0 is the identity.
    """
    if radius < 0:
        raise ValueError(f"erosion radius must be >= 0, got {radius}")
    out = np.array(mask, dtype=np.bool_, copy=True)
    step = _erode_once_numba if NUMBA_ENABLED else _erode_once_numpy
    for _ in range(int(radius)):
        if not out.any():
            break
        out = step(out)
    return out


# ---------------------------------------------------------------------------
# analytic ray-box rendering (slab method)


@njit(cache=True)
def _render_boxes_numba(origin, dirs, boxes, z_near):
    h, w = dirs.shape[0], dirs.shape[1]
    nb = boxes.shape[0]
    depth = np.zeros((h, w), np.float64)
    owner = np.full((h, w), -1, np.int64)
    for v in range(h):
        for u in range(w):
            best_s = POS_INF
            best_b = -1
            for b in range(nb):
                tmin = NEG_INF
                tmax = POS_INF
                ok = True
                for ax in range(3):
                    o = origin[ax]
                    d = dirs[v, u, ax]
                    lo = boxes[b, ax]
                    hi = boxes[b, ax + 3]
                    if d == 0.0:
                        if o < lo or o > hi:
                            ok = False
                            break
                    else:
                        t1 = (lo - o) / d
                        t2 = (hi - o) / d
                        if t1 > t2:
                            t1, t2 = t2, t1
                        if t1 > tmin:
                            tmin = t1
                        if t2 < tmax:
                            tmax = t2
                if ok and tmin <= tmax and tmin > z_near and tmin < best_s:
                    best_s = tmin
                    best_b = b
            if best_b >= 0:
                depth[v, u] = best_s
                owner[v, u] = best_b
    return depth, owner


def _render_boxes_numpy(origin, dirs, boxes, z_near):
    h, w = dirs.shape[0], dirs.shape[1]
    d = dirs.reshape(h * w, 1, 3)
    lo = boxes[np.newaxis, :, :3]
    hi = boxes[np.newaxis, :, 3:]
    o = origin.reshape(1, 1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    parallel = d == 0.0
    inside = (o >= lo) & (o <= hi)
    near = np.where(parallel, np.where(inside, NEG_INF, POS_INF), np.minimum(t1, t2))
    far = np.where(parallel, np.where(inside, POS_INF, NEG_INF), np.maximum(t1, t2))
    tmin = near.max(axis=2)
    tmax = far.min(axis=2)
    hit = (tmin <= tmax) & (tmin > z_near)
    s = np.where(hit, tmin, POS_INF)
    best_b = np.argmin(s, axis=1)
    best_s = s[np.arange(h * w), best_b]
    owner = np.where(np.isfinite(best_s), best_b, -1).reshape(h, w)
    depth = np.where(np.isfinite(best_s), best_s, 0.0).reshape(h, w)
    return depth, owner.astype(np.int64)


def render_boxes(origin, dirs, boxes, z_near=1e-9):
    """Render axis-aligned boxes along per-pixel rays.

    ``dirs`` is (H, W, 3), world-frame, scaled so the camera-frame z
    component is 1 (then the slab entry parameter is the pinhole depth).
    ``boxes`` is (B, 6) as [lox, loy, loz, hix, hiy, hiz]. Returns
    ``(depth, owner)``; pixels hitting nothing get depth 0 and owner -1.
    Ties on entry depth go to the lower box index in both lanes.
    """
    origin = np.ascontiguousarray(origin, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 6)
    if NUMBA_ENABLED:
        return _render_boxes_numba(origin, dirs, boxes, float(z_near))
    return _render_boxes_numpy(origin, dirs, boxes, float(z_near))


def warmup():
    """Trigger JIT compilation of every kernel on tiny inputs."""
    mask = np.ones((2, 2), np.bool_)
    depth = np.ones((2, 2), np.float64)
    backproject_mask(mask, depth, 1.0, 1.0, 0.5, 0.5)
    pts = np.ones((2, 3), np.float64)
    count_in_frustum(pts, np.eye(3), np.zeros(3), 1.0, 1.0, 0.5, 0.5, 2, 2, 1e-4)
    depth_agreement_count(pts, depth, 1.0, 1.0, 0.5, 0.5, 0.05)
    erode_mask(mask, 1)
    dirs = np.ones((2, 2, 3), np.float64)
    render_boxes(np.zeros(3), dirs, np.array([[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]]))
