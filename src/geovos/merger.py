"""Multi-level attention feature merger: desk-scale reference with gradients.

The merger fuses a stack of geometric feature rasters into one refined map:
a 1x1 projection of the base (encoder) feature gets a learned 3D positional
embedding (from point + ray maps), passes a self-attention block whose
queries/keys carry the 2D positional embedding, then absorbs each further
feature raster through self-attention / cross-attention / feed-forward
blocks, and is finally upsampled x2, refined by a 3x3 convolution,
concatenated with the 2D appearance feature and projected to the output
width by a second 3x3 convolution.

Residual connections and pre-normalization wrap every attention / FFN
sub-block; positional embeddings are added to queries and keys only (the
stream keeps its own values), except for the initial stage where the 3D
embedding is added directly into the stream. Convolutions are bias-free.

Everything runs in float64 numpy with hand-written reverse-mode
derivatives; ``grad_check`` verifies every parameter and input tensor
against central finite differences.
"""

from dataclasses import dataclass, fields

import numpy as np

LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))


# ---------------------------------------------------------------------------
# primitives


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow stability."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(sm, g):
    return sm * (g - (g * sm).sum(axis=-1, keepdims=True))


def _layer_norm(x):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = xc * inv
    return y, (y, inv)


def _layer_norm_backward(cache, g):
    y, inv = cache
    return inv * (g - g.mean(axis=-1, keepdims=True)
                  - y * (g * y).mean(axis=-1, keepdims=True))


def _gelu(x):
    u = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def _gelu_backward(cache, g):
    x, t = cache
    du = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


# ---------------------------------------------------------------------------
# parameter blocks


def _tensors(block, prefix: str):
    """``(prefix.field, array)`` of each array field of a parameter block,
    in field order."""
    for f in fields(block):
        value = getattr(block, f.name)
        if isinstance(value, np.ndarray):
            yield f"{prefix}.{f.name}", value


@dataclass
class AttnParams:
    """Multi-head attention block: q/k/v/output projections and head count.

    Keys carry no bias: a shared key offset shifts every softmax row by a
    constant, so it can never affect the output (its gradient vanishes
    identically).
    """

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    heads: int

    @classmethod
    def init(cls, c: int, heads: int, rng) -> "AttnParams":
        s = 1.0 / np.sqrt(c)
        mk = lambda: rng.normal(0.0, s, (c, c))
        return cls(mk(), np.zeros(c), mk(), mk(), np.zeros(c),
                   mk(), np.zeros(c), heads)


@dataclass
class MlpParams:
    """Two-layer GELU MLP ``gelu(x @ w1 + b1) @ w2 + b2``: the feed-forward
    block (c -> c * ffn_ratio -> c) and the per-pixel 3D positional
    embedding ((point, ray) 6-vector -> c -> c)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, n_in: int, n_hidden: int, n_out: int, rng) -> "MlpParams":
        return cls(rng.normal(0.0, 1.0 / np.sqrt(n_in), (n_in, n_hidden)), np.zeros(n_hidden),
                   rng.normal(0.0, 1.0 / np.sqrt(n_hidden), (n_hidden, n_out)), np.zeros(n_out))


@dataclass
class LayerParams:
    self_attn: AttnParams
    cross_attn: AttnParams
    ffn: MlpParams


@dataclass(frozen=True)
class MergerConfig:
    """Architecture hyperparameters.

    Defaults mirror the full-size configuration: feature stack
    ``("encoder", 4, 7, 11)`` (base feature first, then decoder depths in
    fusion order) and a 1024 -> 768 channel projection. Tests run
    desk-scale overrides; nothing requires the full widths.
    """

    selected_layers: tuple = ("encoder", 4, 7, 11)
    c_in: int = 1024
    c_mid: int = 768
    c_out: int = 256
    c_f2d: int = 256
    heads: int = 8
    ffn_ratio: int = 4

    def __post_init__(self):
        if not self.selected_layers:
            raise ValueError("selected_layers must be nonempty")
        if self.selected_layers[0] != "encoder":
            raise ValueError("first selected layer must be the encoder feature")
        for name in ("c_in", "c_mid", "c_out", "c_f2d", "heads", "ffn_ratio"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.c_mid % self.heads != 0:
            raise ValueError(f"c_mid={self.c_mid} not divisible by heads={self.heads}")

    @property
    def n_layers(self) -> int:
        return len(self.selected_layers) - 1


@dataclass
class MergerParams:
    proj_w: np.ndarray
    proj_b: np.ndarray
    pe3d: MlpParams
    self_attn: AttnParams
    layers: list
    conv_up: np.ndarray
    conv_out: np.ndarray

    @classmethod
    def init(cls, cfg: MergerConfig, seed: int) -> "MergerParams":
        """Each weight drawn as ``normal(0, 1/sqrt(fan_in))`` from one
        ``default_rng(seed)`` stream, in ``named_tensors`` order; every bias
        zero."""
        rng = np.random.default_rng(seed)
        c = cfg.c_mid
        return cls(
            proj_w=rng.normal(0.0, 1.0 / np.sqrt(cfg.c_in), (cfg.c_in, c)),
            proj_b=np.zeros(c),
            pe3d=MlpParams.init(6, c, c, rng),
            self_attn=AttnParams.init(c, cfg.heads, rng),
            layers=[LayerParams(AttnParams.init(c, cfg.heads, rng),
                                AttnParams.init(c, cfg.heads, rng),
                                MlpParams.init(c, c * cfg.ffn_ratio, c, rng))
                    for _ in range(cfg.n_layers)],
            conv_up=rng.normal(0.0, 1.0 / np.sqrt(9.0 * c), (3, 3, c, c)),
            conv_out=rng.normal(0.0, 1.0 / np.sqrt(9.0 * (c + cfg.c_f2d)),
                                (3, 3, c + cfg.c_f2d, cfg.c_out)),
        )

    def named_tensors(self):
        yield "proj.w", self.proj_w
        yield "proj.b", self.proj_b
        yield from _tensors(self.pe3d, "pe3d")
        yield from _tensors(self.self_attn, "self_attn")
        for i, layer in enumerate(self.layers):
            yield from _tensors(layer.self_attn, f"layer{i}.self")
            yield from _tensors(layer.cross_attn, f"layer{i}.cross")
            yield from _tensors(layer.ffn, f"layer{i}.ffn")
        yield "conv_up.w", self.conv_up
        yield "conv_out.w", self.conv_out


# ---------------------------------------------------------------------------
# attention / MLP forward + backward


def _attention_forward(q_in, k_in, v_in, p: AttnParams):
    tq, c = q_in.shape
    tk = k_in.shape[0]
    if k_in.shape[0] != v_in.shape[0]:
        raise ValueError(f"key/value token counts differ: {k_in.shape[0]} vs {v_in.shape[0]}")
    if k_in.shape[1] != c or v_in.shape[1] != c:
        raise ValueError("query/key/value channel widths differ")
    h = p.heads
    dh = c // h
    scale = 1.0 / np.sqrt(dh)
    # head-major (h, tokens, dh) layout keeps everything a batched matmul
    q = (q_in @ p.wq + p.bq).reshape(tq, h, dh).transpose(1, 0, 2)
    k = (k_in @ p.wk).reshape(tk, h, dh).transpose(1, 0, 2)
    v = (v_in @ p.wv + p.bv).reshape(tk, h, dh).transpose(1, 0, 2)
    scores = (q @ k.transpose(0, 2, 1)) * scale
    attn = softmax_rows(scores)
    concat = (attn @ v).transpose(1, 0, 2).reshape(tq, c)
    out = concat @ p.wo + p.bo
    cache = (q_in, k_in, v_in, q, k, v, attn, concat, scale, p)
    return out, cache


def _attention_backward(cache, g_out):
    q_in, k_in, v_in, q, k, v, attn, concat, scale, p = cache
    tq, c = q_in.shape
    tk = k_in.shape[0]
    h = p.heads
    dh = c // h
    g_wo = concat.T @ g_out
    g_bo = g_out.sum(axis=0)
    g_concat = (g_out @ p.wo.T).reshape(tq, h, dh).transpose(1, 0, 2)
    g_attn = g_concat @ v.transpose(0, 2, 1)
    g_v = attn.transpose(0, 2, 1) @ g_concat
    g_scores = _softmax_backward(attn, g_attn) * scale
    g_q = g_scores @ k
    g_k = g_scores.transpose(0, 2, 1) @ q
    g_qf = g_q.transpose(1, 0, 2).reshape(tq, c)
    g_kf = g_k.transpose(1, 0, 2).reshape(tk, c)
    g_vf = g_v.transpose(1, 0, 2).reshape(tk, c)
    grads = AttnParams(
        wq=q_in.T @ g_qf, bq=g_qf.sum(axis=0),
        wk=k_in.T @ g_kf,
        wv=v_in.T @ g_vf, bv=g_vf.sum(axis=0),
        wo=g_wo, bo=g_bo, heads=h,
    )
    return g_qf @ p.wq.T, g_kf @ p.wk.T, g_vf @ p.wv.T, grads


def attention(q, k, v, params: AttnParams) -> np.ndarray:
    """Multi-head scaled dot-product attention over token matrices.

    q is (Tq, C); k and v are (Tk, C) with equal token counts. Scaling is
    1/sqrt(head dim); heads are concatenated and passed through the output
    projection.
    """
    out, _ = _attention_forward(np.asarray(q, np.float64), np.asarray(k, np.float64),
                                np.asarray(v, np.float64), params)
    return out


def _mlp_forward(x, p: MlpParams):
    h1 = x @ p.w1 + p.b1
    a, gcache = _gelu(h1)
    y = a @ p.w2 + p.b2
    return y, (x, a, gcache, p)


def _mlp_backward(cache, g):
    x, a, gcache, p = cache
    g_w2 = a.T @ g
    g_b2 = g.sum(axis=0)
    g_a = g @ p.w2.T
    g_h1 = _gelu_backward(gcache, g_a)
    g_w1 = x.T @ g_h1
    g_b1 = g_h1.sum(axis=0)
    return g_h1 @ p.w1.T, MlpParams(g_w1, g_b1, g_w2, g_b2)


# ---------------------------------------------------------------------------
# positional embedding from point + ray maps


def _pe3d_forward(point_map, ray_map, p: MlpParams):
    hh, ww, _ = point_map.shape
    x = np.concatenate([point_map.reshape(hh * ww, 3), ray_map.reshape(hh * ww, 3)], axis=1)
    return _mlp_forward(x, p)


def _pe3d_backward(cache, g):
    g_x, grads = _mlp_backward(cache, g)
    return g_x[:, :3], g_x[:, 3:], grads


def build_pe3d(point_map: np.ndarray, ray_map: np.ndarray, params: MlpParams) -> np.ndarray:
    """Learned per-pixel embedding of concatenated (point, ray) 6-vectors.

    Both maps are (H, W, 3); the result is (H, W, C). Pixels with identical
    inputs get identical embeddings (the map is strictly per-pixel).
    """
    point_map = np.asarray(point_map, np.float64)
    ray_map = np.asarray(ray_map, np.float64)
    if point_map.shape != ray_map.shape or point_map.ndim != 3 or point_map.shape[2] != 3:
        raise ValueError(f"point/ray maps must share shape (H, W, 3), got "
                         f"{point_map.shape} and {ray_map.shape}")
    pe, _ = _pe3d_forward(point_map, ray_map, params)
    return pe.reshape(point_map.shape[0], point_map.shape[1], -1)


# ---------------------------------------------------------------------------
# conv3x3 (bias-free, zero padding) and bilinear x2 upsampling


def _im2col(x):
    hh, ww, cin = x.shape
    padded = np.zeros((hh + 2, ww + 2, cin))
    padded[1:-1, 1:-1] = x
    cols = np.empty((hh, ww, 9 * cin))
    k = 0
    for dy in range(3):
        for dx in range(3):
            cols[:, :, k * cin:(k + 1) * cin] = padded[dy:dy + hh, dx:dx + ww]
            k += 1
    return cols.reshape(hh * ww, 9 * cin)


def _conv3x3_forward(x, w):
    hh, ww, cin = x.shape
    cols = _im2col(x)
    y = cols @ w.reshape(9 * cin, -1)
    return y.reshape(hh, ww, -1), (cols, x.shape, w)


def _conv3x3_backward(cache, g):
    cols, xshape, w = cache
    hh, ww, cin = xshape
    cout = w.shape[-1]
    gf = g.reshape(hh * ww, cout)
    g_w = (cols.T @ gf).reshape(3, 3, cin, cout)
    g_cols = (gf @ w.reshape(9 * cin, cout).T).reshape(hh, ww, 9, cin)
    g_pad = np.zeros((hh + 2, ww + 2, cin))
    k = 0
    for dy in range(3):
        for dx in range(3):
            g_pad[dy:dy + hh, dx:dx + ww] += g_cols[:, :, k]
            k += 1
    return g_pad[1:-1, 1:-1], g_w


def _upsample_matrix(n: int) -> np.ndarray:
    a = np.zeros((2 * n, n))
    for i in range(2 * n):
        src = (i + 0.5) / 2.0 - 0.5
        src = min(max(src, 0.0), n - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n - 1)
        f = src - i0
        a[i, i0] += 1.0 - f
        a[i, i1] += f
    return a


def _apply_separable(x, mh, mw):
    """rows @ x @ cols^T applied channelwise: (H, W, C) -> (H', W', C)."""
    hh, ww, cc = x.shape
    t = (mh @ x.reshape(hh, ww * cc)).reshape(-1, ww, cc)
    t = (t.transpose(0, 2, 1) @ mw.T).transpose(0, 2, 1)
    return t


def _upsample2x_forward(x):
    hh, ww, _ = x.shape
    ah = _upsample_matrix(hh)
    aw = _upsample_matrix(ww)
    return _apply_separable(x, ah, aw), (ah, aw)


def _upsample2x_backward(cache, g):
    ah, aw = cache
    return _apply_separable(g, ah.T, aw.T)


# ---------------------------------------------------------------------------
# the full merge pipeline


def _check_raster(name, arr, hh, ww, channels, stage):
    if arr.shape != (hh, ww, channels):
        raise ValueError(f"stage {stage}: {name} raster has shape {arr.shape}, "
                         f"expected {(hh, ww, channels)}")


def _forward(encoder_feat, decoder_feats, point_map, ray_map, pe2d, f2d, cfg, params):
    hh, ww = encoder_feat.shape[:2]
    c = cfg.c_mid
    _check_raster("encoder feature", encoder_feat, hh, ww, cfg.c_in, "(a) projection")
    _check_raster("point map", point_map, hh, ww, 3, "(b) positional embedding")
    _check_raster("ray map", ray_map, hh, ww, 3, "(b) positional embedding")
    _check_raster("2D positional embedding", pe2d, hh, ww, c, "(c) self-attention")
    if len(decoder_feats) != cfg.n_layers:
        raise ValueError(f"stage (d) fusion: got {len(decoder_feats)} feature rasters "
                         f"for layers {cfg.selected_layers[1:]}")
    for i, feat in enumerate(decoder_feats):
        _check_raster(f"feature raster {cfg.selected_layers[1 + i]}", feat, hh, ww, c, "(d) fusion")
    _check_raster("2D appearance feature", f2d, 2 * hh, 2 * ww, cfg.c_f2d, "(f) concat")

    caches = {}
    n_tok = hh * ww
    enc = encoder_feat.reshape(n_tok, cfg.c_in)
    x = enc @ params.proj_w + params.proj_b
    pe3, caches["pe3d"] = _pe3d_forward(point_map, ray_map, params.pe3d)
    x = x + pe3
    pe2 = pe2d.reshape(n_tok, c)

    # initial self-attention: 2D embedding on queries and keys
    ln, ln_cache = _layer_norm(x)
    att, att_cache = _attention_forward(ln + pe2, ln + pe2, ln, params.self_attn)
    x = x + att
    caches["self_attn"] = (ln_cache, att_cache)

    caches["layers"] = []
    for i, layer in enumerate(params.layers):
        feat = decoder_feats[i].reshape(n_tok, c)
        ln1, ln1_cache = _layer_norm(x)
        sa, sa_cache = _attention_forward(ln1 + pe3, ln1 + pe3, ln1, layer.self_attn)
        s = x + sa
        ln2, ln2_cache = _layer_norm(s)
        ca, ca_cache = _attention_forward(ln2 + pe3, feat + pe3, feat, layer.cross_attn)
        cres = s + ca
        ln3, ln3_cache = _layer_norm(cres)
        ff, ff_cache = _mlp_forward(ln3, layer.ffn)
        x = cres + ff
        caches["layers"].append((ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, ff_cache))

    up, up_cache = _upsample2x_forward(x.reshape(hh, ww, c))
    conv1, conv1_cache = _conv3x3_forward(up, params.conv_up)
    cat = np.concatenate([conv1, f2d], axis=2)
    out, conv2_cache = _conv3x3_forward(cat, params.conv_out)
    caches["tail"] = (up_cache, conv1_cache, conv2_cache)
    caches["shape"] = (hh, ww, enc)
    return out, caches


def _backward(caches, g_out, cfg, params):
    hh, ww, enc = caches["shape"]
    c = cfg.c_mid
    n_tok = hh * ww
    igrads = {}

    up_cache, conv1_cache, conv2_cache = caches["tail"]
    g_cat, g_conv_out = _conv3x3_backward(conv2_cache, g_out)
    g_conv1 = g_cat[:, :, :c]
    igrads["f2d"] = g_cat[:, :, c:]
    g_up, g_conv_up = _conv3x3_backward(conv1_cache, g_conv1)
    g_x = _upsample2x_backward(up_cache, g_up).reshape(n_tok, c)

    g_pe3 = np.zeros((n_tok, c))
    layer_grads = []
    igrads["decoder_feats"] = []
    for i in range(cfg.n_layers - 1, -1, -1):
        ln1_cache, sa_cache, ln2_cache, ca_cache, ln3_cache, ff_cache = caches["layers"][i]
        # x = cres + ffn(ln3(cres))
        g_ln3, ffn_grads = _mlp_backward(ff_cache, g_x)
        g_cres = g_x + _layer_norm_backward(ln3_cache, g_ln3)
        # cres = s + cross(ln2(s) + pe3, feat + pe3, feat)
        g_q, g_k, g_v, ca_grads = _attention_backward(ca_cache, g_cres)
        g_feat = g_k + g_v
        g_pe3 += g_q + g_k
        g_s = g_cres + _layer_norm_backward(ln2_cache, g_q)
        igrads["decoder_feats"].append(g_feat.reshape(hh, ww, c))
        # s = x + self(ln1(x) + pe3, ln1(x) + pe3, ln1(x))
        g_q, g_k, g_v, sa_grads = _attention_backward(sa_cache, g_s)
        g_pe3 += g_q + g_k
        g_x = g_s + _layer_norm_backward(ln1_cache, g_q + g_k + g_v)
        layer_grads.append(LayerParams(sa_grads, ca_grads, ffn_grads))
    layer_grads.reverse()
    igrads["decoder_feats"].reverse()

    # x = x0 + attn(ln(x0) + pe2, ln(x0) + pe2, ln(x0))
    ln_cache, att_cache = caches["self_attn"]
    g_q, g_k, g_v, self_attn_grads = _attention_backward(att_cache, g_x)
    igrads["pe2d"] = (g_q + g_k).reshape(hh, ww, c)
    g_x = g_x + _layer_norm_backward(ln_cache, g_q + g_k + g_v)

    # x0 = proj(enc) + pe3d(point, ray)
    g_point, g_ray, pe3d_grads = _pe3d_backward(caches["pe3d"], g_x + g_pe3)
    igrads["point_map"] = g_point.reshape(hh, ww, 3)
    igrads["ray_map"] = g_ray.reshape(hh, ww, 3)
    igrads["encoder_feat"] = (g_x @ params.proj_w.T).reshape(hh, ww, cfg.c_in)
    grads = MergerParams(enc.T @ g_x, g_x.sum(axis=0), pe3d_grads, self_attn_grads,
                         layer_grads, g_conv_up, g_conv_out)
    return grads, igrads


def merge_features(encoder_feat, decoder_feats, point_map, ray_map, pe2d, f2d,
                   cfg: MergerConfig, params: MergerParams) -> np.ndarray:
    """Fuse the feature stack into one (2H, 2W, c_out) raster.

    ``decoder_feats`` holds one (H, W, c_mid) raster per entry of
    ``cfg.selected_layers[1:]``, in order; ``f2d`` lives at the upsampled
    (2H, 2W, c_f2d) resolution. Shape errors name the failing stage.
    """
    rasters = {"encoder feature": encoder_feat, "point map": point_map,
               "ray map": ray_map, "pe2d": pe2d, "f2d": f2d}
    rasters.update({f"feature raster {i}": f for i, f in enumerate(decoder_feats)})
    for name, arr in rasters.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    out, _ = _forward(np.asarray(encoder_feat, np.float64),
                      [np.asarray(f, np.float64) for f in decoder_feats],
                      np.asarray(point_map, np.float64), np.asarray(ray_map, np.float64),
                      np.asarray(pe2d, np.float64), np.asarray(f2d, np.float64),
                      cfg, params)
    return out


def merge_features_with_grads(encoder_feat, decoder_feats, point_map, ray_map, pe2d, f2d,
                              cfg, params, g_out=None):
    """Forward pass plus reverse-mode gradients of sum(out) (or of g_out)."""
    out, caches = _forward(encoder_feat, decoder_feats, point_map, ray_map, pe2d, f2d,
                           cfg, params)
    if g_out is None:
        g_out = np.ones_like(out)
    grads, igrads = _backward(caches, g_out, cfg, params)
    return out, grads, igrads


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckReport:
    per_tensor: dict
    max_rel_err: float
    n_tensors: int
    seed: int

    def failures(self, threshold: float) -> dict:
        return {k: v for k, v in self.per_tensor.items() if v >= threshold}


def _tensor_rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(fd))))
    diff = float(np.max(np.abs(analytic - fd)))
    if scale == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / scale


def desk_inputs(cfg: MergerConfig, hw=(4, 4), seed=0):
    """Random float64 input rasters matching a configuration."""
    rng = np.random.default_rng(seed)
    hh, ww = hw
    return {
        "encoder_feat": rng.normal(size=(hh, ww, cfg.c_in)),
        "decoder_feats": [rng.normal(size=(hh, ww, cfg.c_mid)) for _ in range(cfg.n_layers)],
        "point_map": rng.normal(size=(hh, ww, 3)),
        "ray_map": rng.normal(size=(hh, ww, 3)),
        "pe2d": rng.normal(size=(hh, ww, cfg.c_mid)),
        "f2d": rng.normal(size=(2 * hh, 2 * ww, cfg.c_f2d)),
    }


def grad_check(cfg: MergerConfig, seed: int = 0, hw=(4, 4), h: float = 1e-5,
               corrupt: bool = False) -> GradCheckReport:
    """Compare analytic gradients of sum(output) with central differences.

    Every parameter tensor and every input raster of a seeded random
    instance is perturbed elementwise (step ``h``); the report carries the
    per-tensor max relative error (max absolute gradient difference over
    the max gradient magnitude in that tensor). ``corrupt=True`` is a test
    hook that perturbs one analytic gradient so the check must fail.
    """
    params = MergerParams.init(cfg, seed)
    inputs = desk_inputs(cfg, hw, seed + 1)

    def loss():
        out, _ = _forward(inputs["encoder_feat"], inputs["decoder_feats"],
                          inputs["point_map"], inputs["ray_map"], inputs["pe2d"],
                          inputs["f2d"], cfg, params)
        return float(out.sum())

    _, grads, igrads = merge_features_with_grads(
        inputs["encoder_feat"], inputs["decoder_feats"], inputs["point_map"],
        inputs["ray_map"], inputs["pe2d"], inputs["f2d"], cfg, params)

    grad_by_name = dict(grads.named_tensors())
    targets = [(f"param:{name}", arr, grad_by_name[name])
               for name, arr in params.named_tensors()]
    targets.append(("input:encoder_feat", inputs["encoder_feat"], igrads["encoder_feat"]))
    for i in range(cfg.n_layers):
        targets.append((f"input:decoder_feat{i}", inputs["decoder_feats"][i],
                        igrads["decoder_feats"][i]))
    for key in ("point_map", "ray_map", "pe2d", "f2d"):
        targets.append((f"input:{key}", inputs[key], igrads[key]))

    per_tensor = {}
    for name, tensor, analytic in targets:
        fd = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        fd_flat = fd.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss()
            flat[idx] = orig - h
            lm = loss()
            flat[idx] = orig
            fd_flat[idx] = (lp - lm) / (2.0 * h)
        if corrupt and name == "param:proj.w":
            analytic = analytic + 0.5 * (1.0 + np.abs(analytic))
        per_tensor[name] = _tensor_rel_err(analytic, fd)
    max_err = max(per_tensor.values()) if per_tensor else 0.0
    return GradCheckReport(per_tensor, max_err, len(per_tensor), seed)
