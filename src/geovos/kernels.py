"""Hot numeric kernels, vectorised with numpy.

``backproject_masks`` lifts the masked valid-depth pixels of many
(mask, depth) items that share one camera in one pass: the FOV sampler
back-projects a row's candidates with it, one call per camera, and
box-world set-up the boxes a frame sees, one call per frame.
``backproject_mask`` is its one-item case, which ``geometry.back_project``
(the lift, the one-candidate overlap ratio) calls. The two
evaluate one copy of the per-pixel expression; it warns of nothing, and an
overflow past the float64 range gives non-finite points, which the callers
that know the frame and object reject.

``frustum_mask`` is the per-point frustum test that the frustum-overlap
ratios in ``geometry`` run: on the shared pass of small clouds directly,
and on each large cloud through ``count_in_frustum``, which counts it.
``perfbench/run.py --trace 1`` reports each kernel's time and element count;
its tracer wraps ``backproject_mask`` but not ``backproject_masks``.

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
    depth. This is the one-item case of :func:`backproject_masks`, with the
    same expression and the same non-finite points on overflow.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    flat, d = _masked(mask, depth)
    pts, _ = _lift(flat, d.astype(np.float64), mask.shape[1], fx, fy, cx, cy)
    return pts, flat.size - len(pts)


def backproject_masks(masks, depths, fx, fy, cx, cy):
    """Lift the masked valid-depth pixels of many (mask, depth raster) items
    that share one camera to camera-frame points, in one pass.

    Every mask has the width of the others, and each item's depth raster
    the shape of its mask. Per item the masked pixels are found and their
    depths gathered; then one validity test and one evaluation of the
    per-pixel expression run over the pixels of all items.

    Returns ``(points, counts, skipped)``: points is (N, 3) float64, the
    items' points one after the other, each item's in row-major pixel
    order; ``counts[i]`` and ``skipped[i]`` (int64) are item i's points and
    its masked pixels with invalid depth. Only the masked depths are cast
    to float64.

    Raises:
        ValueError: if the masks differ in width.
    """
    flats, gathered, width = [], [], None
    for mask, depth in zip(masks, depths, strict=True):
        mask = np.asarray(mask, dtype=np.bool_)
        width = mask.shape[1] if width is None else width
        if mask.shape[1] != width:
            raise ValueError(f"masks differ in width: {mask.shape[1]} vs {width}")
        flat, d = _masked(mask, depth)
        flats.append(flat)
        gathered.append(d)
    sizes = np.fromiter(map(len, flats), np.int64, len(flats))
    if not flats:
        return np.zeros((0, 3)), sizes, sizes
    pts, valid = _lift(np.concatenate(flats),
                       np.concatenate(gathered, dtype=np.float64, casting="unsafe"),
                       width, fx, fy, cx, cy)
    counts = sizes
    if valid is not None:
        counts = np.zeros_like(sizes)
        some = sizes > 0
        counts[some] = np.add.reduceat(valid, (np.cumsum(sizes) - sizes)[some], dtype=np.int64)
    return pts, counts, sizes - counts


def _masked(mask, depth):
    """``(flat, d)``: the row-major indices of a bool mask's pixels and the
    depth raster's values there; ``np.flatnonzero`` and ``np.take`` as
    method calls, which skip their Python wrappers."""
    flat = mask.ravel().nonzero()[0]
    return flat, np.asarray(depth).take(flat)


@np.errstate(all="ignore")
def _lift(flat, d, width, fx, fy, cx, cy):
    """``(points, valid)``: the camera-frame points of the pixels at
    row-major indices ``flat`` of a raster ``width`` wide whose float64
    depths ``d`` are valid, and the validity of each pixel (None when all
    are valid).

    Each pixel (u, v) with valid depth d gives ``((u - cx) * d / fx,
    (v - cy) * d / fy, d)``. The expression warns of nothing: a result
    past the float64 range is a non-finite point, which the caller checks.
    """
    fx, fy, cx, cy = float(fx), float(fy), float(cx), float(cy)
    valid = np.isfinite(d)
    valid &= d > 0.0
    if np.count_nonzero(valid) == valid.size:
        valid = None
    else:
        flat, d = flat[valid], d[valid]
    vs, us = np.divmod(flat, width)
    pts = np.empty((d.size, 3), np.float64)
    pts[:, 0] = (us - cx) * d / fx
    pts[:, 1] = (vs - cy) * d / fy
    pts[:, 2] = d
    return pts, valid


def frustum_mask(pts, rot, trans, fx, fy, cx, cy, width, height, z_near):
    """Per-point frustum membership after a rigid transform.

    ``rot`` is (3, 3) and ``trans`` (3,), or per-point coefficients of shape
    (3, 3, N) and (3, N); either way every point is evaluated with the same
    IEEE expression.
    """
    px, py, pz = pts[:, 0], pts[:, 1], pts[:, 2]
    # points near the float64 limit overflow to non-finite, which never count
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = rot[0, 0] * px + rot[0, 1] * py + rot[0, 2] * pz + trans[0]
        y = rot[1, 0] * px + rot[1, 1] * py + rot[1, 2] * pz + trans[1]
        z = rot[2, 0] * px + rot[2, 1] * py + rot[2, 2] * pz + trans[2]
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


def render_boxes(origin, dirs, boxes, windows, z_near=1e-9):
    """Render axis-aligned boxes along per-pixel rays (slab method).

    ``dirs`` is (H, W, 3), world-frame, scaled so the camera-frame z
    component is 1 (then the slab entry parameter is the pinhole depth).
    ``boxes`` is (B, 6) as [lox, loy, loz, hix, hiy, hiz]. Returns
    ``(depth, owner)``; pixels hitting nothing get depth 0 and owner -1.
    Ties on entry depth go to the lower box index.

    ``windows`` is (B, 4) as [v0, v1, u0, u1] with 0 <= v0 <= v1 <= H and
    0 <= u0 <= u1 <= W, one pixel window per box. The caller guarantees
    that no ray outside box b's window hits box b; the box is then tested
    only against the rays ``dirs[v0:v1, u0:u1]``.

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
