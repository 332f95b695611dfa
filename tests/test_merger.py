"""Feature merger: softmax, attention, embeddings, full stack, derivatives."""

import math

import numpy as np
import pytest

from conftest import perturb_proj_w_gradient
from geovos.merger import (AttnParams, MergerConfig, MergerParams, MlpParams,
                           attention, build_pe3d, desk_inputs, grad_check,
                           merge_features, merge_features_with_grads, softmax_rows)

DESK = dict(selected_layers=("encoder", 4, 7, 11), c_in=8, c_mid=8, c_out=4,
            c_f2d=4, heads=2)
SMALL = dict(selected_layers=("encoder", 4), c_in=4, c_mid=4, c_out=2,
             c_f2d=2, heads=2, ffn_ratio=2)


def naive_attention(q, k, v, p: AttnParams):
    """Hand-expanded per-head chain with python softmax."""
    n_q, c = q.shape
    dh = c // p.heads
    concat = np.zeros((n_q, c))
    for i in range(n_q):
        for h in range(p.heads):
            sl = slice(h * dh, (h + 1) * dh)
            qi = q[i] @ p.wq[:, sl] + p.bq[sl]
            scores = [float(qi @ (k[j] @ p.wk[:, sl])) / math.sqrt(dh)
                      for j in range(k.shape[0])]
            m = max(scores)
            es = [math.exp(s - m) for s in scores]
            z = sum(es)
            acc = np.zeros(dh)
            for j in range(k.shape[0]):
                acc += (es[j] / z) * (v[j] @ p.wv[:, sl] + p.bv[sl])
            concat[i, sl] = acc
    return concat @ p.wo + p.bo


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6))
        shifted = x + rng.normal(size=(4, 1))
        np.testing.assert_allclose(softmax_rows(x), softmax_rows(shifted), atol=1e-12)

    def test_large_logit_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(rng.normal(scale=50.0, size=(30, 7)))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


class TestAttention:
    def test_single_kv_token(self):
        rng = np.random.default_rng(2)
        p = AttnParams.init(8, 2, rng)
        q = rng.normal(size=(5, 8))
        kv = rng.normal(size=(1, 8))
        out = attention(q, kv, kv, p)
        expected = (kv @ p.wv + p.bv) @ p.wo + p.bo
        for i in range(5):
            np.testing.assert_allclose(out[i], expected[0], atol=1e-12)

    def test_kv_permutation_invariance(self):
        rng = np.random.default_rng(3)
        p = AttnParams.init(8, 2, rng)
        q, k, v = rng.normal(size=(5, 8)), rng.normal(size=(9, 8)), rng.normal(size=(9, 8))
        base = attention(q, k, v, p)
        perm = rng.permutation(9)
        assert np.max(np.abs(attention(q, k[perm], v[perm], p) - base)) <= 1e-6

    def test_three_token_hand_expansion(self):
        rng = np.random.default_rng(4)
        p = AttnParams.init(6, 3, rng)
        q, k, v = rng.normal(size=(3, 6)), rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        np.testing.assert_allclose(attention(q, k, v, p), naive_attention(q, k, v, p),
                                   atol=1e-6)

    def test_kv_count_mismatch(self):
        rng = np.random.default_rng(5)
        p = AttnParams.init(4, 2, rng)
        with pytest.raises(ValueError):
            attention(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)),
                      rng.normal(size=(2, 4)), p)


class TestPe3d:
    def test_zero_params_zero_embedding(self):
        p = MlpParams(np.zeros((6, 8)), np.zeros(8), np.zeros((8, 8)), np.zeros(8))
        rng = np.random.default_rng(6)
        pe = build_pe3d(rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 4, 3)), p)
        assert pe.shape == (4, 4, 8)
        assert np.all(pe == 0.0)

    def test_identical_pixels_identical_embeddings(self):
        rng = np.random.default_rng(7)
        p = MlpParams.init(6, 8, 8, rng)
        point = np.tile(rng.normal(size=3), (2, 2, 1))
        ray = np.tile(rng.normal(size=3), (2, 2, 1))
        pe = build_pe3d(point, ray, p)
        flat = pe.reshape(4, 8)
        for i in range(1, 4):
            np.testing.assert_array_equal(flat[i], flat[0])

    def test_shape_mismatch(self):
        p = MlpParams(np.zeros((6, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            build_pe3d(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)), p)

    def test_param_gradients_match_central_differences(self):
        rng = np.random.default_rng(8)
        p = MlpParams.init(6, 4, 4, rng)
        point = rng.normal(size=(3, 3, 3))
        ray = rng.normal(size=(3, 3, 3))

        from geovos.merger import _pe3d_backward, _pe3d_forward

        pe, cache = _pe3d_forward(point, ray, p)
        _, _, grads = _pe3d_backward(cache, np.ones_like(pe))
        h = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            tensor = getattr(p, name)
            analytic = getattr(grads, name)
            fd = np.zeros_like(tensor)
            flat, fd_flat = tensor.reshape(-1), fd.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = _pe3d_forward(point, ray, p)[0].sum()
                flat[i] = orig - h
                lm = _pe3d_forward(point, ray, p)[0].sum()
                flat[i] = orig
                fd_flat[i] = (lp - lm) / (2 * h)
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)))
            assert np.max(np.abs(analytic - fd)) / scale < 1e-4, name


class TestMergeFeatures:
    def test_desk_shape(self):
        cfg = MergerConfig(**DESK)
        params = MergerParams.init(cfg, 0)
        inputs = desk_inputs(cfg, (4, 4), 1)
        out = merge_features(inputs["encoder_feat"], inputs["decoder_feats"],
                             inputs["point_map"], inputs["ray_map"], inputs["pe2d"],
                             inputs["f2d"], cfg, params)
        assert out.shape == (8, 8, 4)
        assert np.all(np.isfinite(out))

    def test_degenerate_stack_encoder_only(self):
        cfg = MergerConfig(selected_layers=("encoder",), c_in=8, c_mid=8, c_out=4,
                           c_f2d=4, heads=2)
        params = MergerParams.init(cfg, 0)
        inputs = desk_inputs(cfg, (4, 4), 2)
        out = merge_features(inputs["encoder_feat"], [], inputs["point_map"],
                             inputs["ray_map"], inputs["pe2d"], inputs["f2d"],
                             cfg, params)
        assert out.shape == (8, 8, 4)
        assert np.all(np.isfinite(out))
        report = grad_check(cfg, seed=3, hw=(2, 2))
        assert report.max_rel_err < 1e-4

    def test_errors_name_stage(self):
        cfg = MergerConfig(**DESK)
        params = MergerParams.init(cfg, 0)
        inputs = desk_inputs(cfg, (4, 4), 3)
        with pytest.raises(ValueError, match=r"stage \(f\)"):
            merge_features(inputs["encoder_feat"], inputs["decoder_feats"],
                           inputs["point_map"], inputs["ray_map"], inputs["pe2d"],
                           np.zeros((4, 4, 4)), cfg, params)
        with pytest.raises(ValueError, match=r"stage \(d\)"):
            merge_features(inputs["encoder_feat"], inputs["decoder_feats"][:2],
                           inputs["point_map"], inputs["ray_map"], inputs["pe2d"],
                           inputs["f2d"], cfg, params)
        with pytest.raises(ValueError, match=r"stage \(a\)"):
            merge_features(np.zeros((4, 4, 5)), inputs["decoder_feats"],
                           inputs["point_map"], inputs["ray_map"], inputs["pe2d"],
                           inputs["f2d"], cfg, params)

    def test_nonfinite_input_rejected(self):
        cfg = MergerConfig(**DESK)
        params = MergerParams.init(cfg, 0)
        inputs = desk_inputs(cfg, (4, 4), 4)
        bad = inputs["encoder_feat"].copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            merge_features(bad, inputs["decoder_feats"], inputs["point_map"],
                           inputs["ray_map"], inputs["pe2d"], inputs["f2d"],
                           cfg, params)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MergerConfig(selected_layers=())
        with pytest.raises(ValueError):
            MergerConfig(selected_layers=(4, "encoder"))
        with pytest.raises(ValueError):
            MergerConfig(c_mid=10, heads=4)
        for name in ("c_in", "c_mid", "c_out", "c_f2d", "heads", "ffn_ratio"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
                MergerConfig(**{**DESK, name: 0})

    def test_seeded_draw_order_and_scale(self):
        # the documented draw: one default_rng(seed) stream, weights
        # normal(0, 1/sqrt(fan_in)) in named_tensors order, biases zero;
        # distinct widths so a swapped shape or fan-in shows
        cfg = MergerConfig(selected_layers=("encoder", 4, 7), c_in=6, c_mid=4, c_out=3,
                           c_f2d=2, heads=2, ffn_ratio=3)
        c, c_cat = cfg.c_mid, cfg.c_mid + cfg.c_f2d
        rng = np.random.default_rng(11)

        def w(fan_in, *shape):
            return rng.normal(0.0, 1.0 / math.sqrt(fan_in), shape)

        def attn(prefix):
            return [(f"{prefix}.wq", w(c, c, c)), (f"{prefix}.bq", np.zeros(c)),
                    (f"{prefix}.wk", w(c, c, c)), (f"{prefix}.wv", w(c, c, c)),
                    (f"{prefix}.bv", np.zeros(c)), (f"{prefix}.wo", w(c, c, c)),
                    (f"{prefix}.bo", np.zeros(c))]

        def mlp(prefix, n_in, n_hidden, n_out):
            return [(f"{prefix}.w1", w(n_in, n_in, n_hidden)), (f"{prefix}.b1", np.zeros(n_hidden)),
                    (f"{prefix}.w2", w(n_hidden, n_hidden, n_out)), (f"{prefix}.b2", np.zeros(n_out))]

        expected = [("proj.w", w(cfg.c_in, cfg.c_in, c)), ("proj.b", np.zeros(c)),
                    *mlp("pe3d", 6, c, c), *attn("self_attn")]
        for i in range(cfg.n_layers):
            expected += (attn(f"layer{i}.self") + attn(f"layer{i}.cross")
                         + mlp(f"layer{i}.ffn", c, c * cfg.ffn_ratio, c))
        expected += [("conv_up.w", w(9 * c, 3, 3, c, c)),
                     ("conv_out.w", w(9 * c_cat, 3, 3, c_cat, cfg.c_out))]

        got = list(MergerParams.init(cfg, 11).named_tensors())
        assert [name for name, _ in got] == [name for name, _ in expected]
        for (name, a), (_, b) in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_full_size_defaults(self):
        cfg = MergerConfig()
        assert cfg.selected_layers == ("encoder", 4, 7, 11)
        assert (cfg.c_in, cfg.c_mid) == (1024, 768)


class TestGradCheck:
    def test_zero_instance_exact_zero_gradients(self):
        cfg = MergerConfig(**DESK)
        params = MergerParams.init(cfg, 0)
        for _, tensor in params.named_tensors():
            tensor[...] = 0.0
        zeros = {
            "encoder_feat": np.zeros((4, 4, 8)),
            "decoder_feats": [np.zeros((4, 4, 8))] * 3,
            "point_map": np.zeros((4, 4, 3)),
            "ray_map": np.zeros((4, 4, 3)),
            "pe2d": np.zeros((4, 4, 8)),
            "f2d": np.zeros((8, 8, 4)),
        }
        out, grads, igrads = merge_features_with_grads(
            zeros["encoder_feat"], zeros["decoder_feats"], zeros["point_map"],
            zeros["ray_map"], zeros["pe2d"], zeros["f2d"], cfg, params)
        assert np.all(out == 0.0)
        for name, g in grads.named_tensors():
            assert np.all(g == 0.0), name
        for key, g in igrads.items():
            arrs = g if key == "decoder_feats" else [g]
            for a in arrs:
                assert np.all(np.asarray(a) == 0.0), key

    def test_small_config_fd_passes(self):
        report = grad_check(MergerConfig(**SMALL), seed=0, hw=(2, 2))
        assert report.max_rel_err < 1e-4
        assert report.failures(1e-4) == {}

    def test_same_seed_identical_report(self):
        cfg = MergerConfig(**SMALL)
        a = grad_check(cfg, seed=5, hw=(2, 2))
        b = grad_check(cfg, seed=5, hw=(2, 2))
        assert a.per_tensor == b.per_tensor

    def test_corrupt_hook_fails(self, monkeypatch):
        perturb_proj_w_gradient(monkeypatch)
        report = grad_check(MergerConfig(**SMALL), seed=0, hw=(2, 2))
        assert list(report.failures(1e-3)) == ["param:proj.w"]
