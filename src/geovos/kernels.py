"""Hot numeric kernels, vectorised with numpy.

``frustum_mask`` is the per-point frustum test on its own; ``count_in_frustum``
counts it and the batched frustum-overlap ratios in ``geometry`` share it.
``perfbench/run.py --trace 1`` reports each kernel's time and element count.

Conventions: pixel (u, v) = (column, row), integer coordinates at pixel
centers; rasters indexed ``[v, u]``; depths are metric and a depth value is
valid iff it is finite and > 0.
"""

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")


def backproject_mask(mask, depth, fx, fy, cx, cy):
    """Lift masked valid-depth pixels to camera-frame points.

    Returns ``(points, skipped)`` where points is (N, 3) float64 in
    row-major pixel order and skipped counts masked pixels with invalid
    depth. Only the masked depths are cast to float64.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    fx, fy, cx, cy = float(fx), float(fy), float(cx), float(cy)
    flat = np.flatnonzero(mask)  # row-major; far cheaper than a 2-D np.nonzero
    vs, us = np.divmod(flat, mask.shape[1])
    d = np.take(depth, flat).astype(np.float64)
    valid = np.isfinite(d) & (d > 0.0)
    skipped = int(valid.size - np.count_nonzero(valid))
    us, vs, d = us[valid], vs[valid], d[valid]
    pts = np.empty((d.size, 3), np.float64)
    pts[:, 0] = (us - cx) * d / fx
    pts[:, 1] = (vs - cy) * d / fy
    pts[:, 2] = d
    return pts, skipped


def frustum_mask(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """Per-point frustum membership after a rigid transform.

    ``rot`` is (3, 3) and ``trans`` (3,), or per-point coefficients of shape
    (3, 3, N) and (3, N); either way every point is evaluated with the same
    IEEE expression.
    """
    px, py, pz = pts[:, 0], pts[:, 1], pts[:, 2]
    x = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
    y = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
    z = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = fx * x / z + cx
        v = fy * y / z + cy
        return (z > z_near) & (u >= 0.0) & (u < width) & (v >= 0.0) & (v < height)


def count_in_frustum(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """Count points landing in a pinhole frustum after a rigid transform.

    ``rot``/``trans`` map the points' frame into the target camera frame.
    Non-finite points never count (NaN comparisons are false).
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    rot = np.ascontiguousarray(rot, dtype=np.float64)
    trans = np.ascontiguousarray(trans, dtype=np.float64)
    return int(np.count_nonzero(frustum_mask(
        pts, rot, trans, float(fx), float(fy), float(cx), float(cy),
        float(width), float(height), float(z_near))))


def depth_agreement_count(pts, depth, fx, fy, cx, cy, eps_rel):
    """Count points whose projected depth matches the raster within eps_rel.

    A point counts iff it is in front of the camera, its nearest pixel is
    inside the raster with valid depth d, and ``|z - d| <= eps_rel * d``.
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    depth = np.ascontiguousarray(depth, dtype=np.float64)
    fx, fy, cx, cy, eps_rel = float(fx), float(fy), float(cx), float(cy), float(eps_rel)
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


def erode_mask(mask, radius):
    """Erode a binary mask by ``radius`` 4-connected interior steps.

    One step keeps a pixel iff it and its 4 neighbours are foreground
    (out-of-bounds counts as background); ``radius`` steps equal erosion by
    the L1 ball of that radius. Radius 0 is the identity.
    """
    if radius < 0:
        raise ValueError(f"erosion radius must be >= 0, got {radius}")
    out = np.array(mask, dtype=np.bool_, copy=True)
    for _ in range(int(radius)):
        if not out.any():
            break
        step = np.zeros_like(out)
        step[1:-1, 1:-1] = (out[1:-1, 1:-1] & out[:-2, 1:-1] & out[2:, 1:-1]
                            & out[1:-1, :-2] & out[1:-1, 2:])
        out = step
    return out


def render_boxes(origin, dirs, boxes, z_near=1e-9, windows=None):
    """Render axis-aligned boxes along per-pixel rays (slab method).

    ``dirs`` is (H, W, 3), world-frame, scaled so the camera-frame z
    component is 1 (then the slab entry parameter is the pinhole depth).
    ``boxes`` is (B, 6) as [lox, loy, loz, hix, hiy, hiz]. Returns
    ``(depth, owner)``; pixels hitting nothing get depth 0 and owner -1.
    Ties on entry depth go to the lower box index.

    ``windows`` is (B, 4) as [v0, v1, u0, u1] with 0 <= v0 <= v1 <= H and
    0 <= u0 <= u1 <= W, one pixel window per box. The caller guarantees
    that no ray outside box b's window hits box b; the box is then tested
    only against the rays ``dirs[v0:v1, u0:u1]``. ``None`` makes every
    window the whole raster.

    The boxes are intersected one at a time, in index order, with the rays
    of their windows, keeping the nearest hit so far; a box takes a pixel
    only when it is strictly nearer, which is the tie rule above. Working
    memory is the (H, W) depth and owner rasters plus six float64 buffers
    the size of the largest window, whatever the box count.
    """
    origin = np.ascontiguousarray(origin, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 6)
    z_near = float(z_near)
    h, w = dirs.shape[0], dirs.shape[1]
    if windows is None:
        windows = [(0, h, 0, w)] * len(boxes)
    windows = np.asarray(windows, dtype=np.int64)
    if windows.shape != (len(boxes), 4):
        raise ValueError(f"windows must be {len(boxes)} [v0, v1, u0, u1] rows, "
                         f"got shape {windows.shape}")
    v0, v1, u0, u1 = windows.T
    if not np.all((0 <= v0) & (v0 <= v1) & (v1 <= h) & (0 <= u0) & (u0 <= u1) & (u1 <= w)):
        raise ValueError(f"windows must lie inside the {h}x{w} raster")
    best = np.full((h, w), POS_INF)
    owner = np.full((h, w), -1, np.int64)
    buffers = [np.empty(int(np.max((v1 - v0) * (u1 - u0), initial=0))) for _ in range(6)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for b, (box, (v0, v1, u0, u1)) in enumerate(zip(boxes, windows.tolist())):
            shape = (v1 - v0, u1 - u0)
            t1, t2, tmin, tmax, near, far = (buf[:shape[0] * shape[1]].reshape(shape)
                                             for buf in buffers)
            # axis 0 writes the slab interval straight into (tmin, tmax); axes
            # 1 and 2 narrow it in axis order, which fixes the sign of a zero
            # entry depth (np.maximum of +0.0 and -0.0 depends on the order)
            for k, (n, f) in enumerate(zip((tmin, near, near), (tmax, far, far))):
                lo, hi, o = box[k], box[k + 3], origin[k]
                d = dirs[v0:v1, u0:u1, k]
                np.divide(lo - o, d, out=t1)
                np.divide(hi - o, d, out=t2)
                np.minimum(t1, t2, out=n)
                np.maximum(t1, t2, out=f)
                inside = lo <= o <= hi
                parallel = d == 0.0
                np.copyto(n, NEG_INF if inside else POS_INF, where=parallel)
                np.copyto(f, POS_INF if inside else NEG_INF, where=parallel)
                if k:
                    np.maximum(tmin, near, out=tmin)
                    np.minimum(tmax, far, out=tmax)
            best_win = best[v0:v1, u0:u1]
            hit = tmin <= tmax
            hit &= tmin > z_near
            hit &= tmin < best_win
            np.copyto(best_win, tmin, where=hit)
            owner[v0:v1, u0:u1][hit] = b
    best[owner < 0] = 0.0
    return best, owner
