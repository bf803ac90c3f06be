import dataclasses
import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import backprop_grads, fd_grads, rel_err
from crossmpt import autodiff as ad
from crossmpt.channel import NoiseSpec, make_invariance_pair, sample, sample_batch
from crossmpt.codes import _code_from_pcm, get_code
from crossmpt.bp import BpConfig
from crossmpt.ensemble import CrossEDModel, build_ensemble
from crossmpt.evaluation import BpDecoder
from crossmpt.gf2 import BinaryMatrix, rank
from crossmpt.masks import build_crossmpt_masks
from crossmpt.models import (
    DecoderModel,
    ModelConfig,
    Variant,
    _embed_tensors,
    crossmpt_layer,
    decide,
    forward_arrays,
    init_params,
    param_count,
    param_shapes,
)
from crossmpt.training import loss


def small_cfg(variant, n_layers=1, d=8, **kw):
    return ModelConfig(variant=variant, n_layers=n_layers, embed_dim=d, **kw)


class TestEmbed:
    def test_zero_magnitude_gives_zero_row(self):
        code = get_code("hamming_7_4")
        cfg = small_cfg(Variant.CROSSMPT)
        params = init_params(cfg, code, seed=1)
        spec = NoiseSpec.for_code(code, 4.0, seed=2)
        smp = sample(code, spec)
        smp.mag[3] = 0.0
        mag_t, _ = _embed_tensors(params, cfg, smp.mag, smp.syndromes[0])
        assert np.array_equal(mag_t.data[3], np.zeros(8))

    def test_foundation_equal_magnitudes_share_embeddings(self):
        code = get_code("hamming_7_4")
        cfg = small_cfg(Variant.FCROSSMPT)
        params = init_params(cfg, None, seed=1)
        smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=3))
        smp.mag[0] = smp.mag[5] = 0.77
        mag_t, _ = _embed_tensors(params, cfg, smp.mag, smp.syndromes[0])
        assert np.array_equal(mag_t.data[0], mag_t.data[5])

    def test_positional_embeddings_distinguish_equal_magnitudes(self):
        code = get_code("hamming_7_4")
        cfg = small_cfg(Variant.CROSSMPT)
        params = init_params(cfg, code, seed=1)
        smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=3))
        smp.mag[0] = smp.mag[5] = 0.77
        mag_t, _ = _embed_tensors(params, cfg, smp.mag, smp.syndromes[0])
        assert not np.array_equal(mag_t.data[0], mag_t.data[5])

    def test_zero_syndrome_contribution_is_zero_after_resize(self):
        # 0 * W_S = 0, and H^T @ 0 = 0
        code = get_code("bch_15_7")
        cfg = small_cfg(Variant.FCROSSMPT)
        params = init_params(cfg, None, seed=4)
        smp = sample(code, NoiseSpec.for_code(code, 60.0, seed=5))
        assert not smp.syndromes[0].any()
        _, syn_t = _embed_tensors(params, cfg, smp.mag, smp.syndromes[0])
        assert np.array_equal(syn_t.data, np.zeros((8, cfg.embed_dim)))
        resized = code.pcm.bits.T.astype(float) @ syn_t.data
        assert np.array_equal(resized, np.zeros((15, cfg.embed_dim)))


def manual_block(x_q, x_kv, mask_support, lp, d):
    """Scalar-loop re-computation of one pre-norm block (independent oracle)."""

    def ln(row, gain, bias):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        return [gain[j] * (row[j] - mu) / math.sqrt(var + 1e-5) + bias[j] for j in range(len(row))]

    def matvecs(rows, w):
        return [[sum(r[a] * w[a][b] for a in range(len(r))) for b in range(len(w[0]))] for r in rows]

    def gelu_s(v):
        return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))

    gain_a, bias_a = lp["attn_norm.gain"], lp["attn_norm.bias"]
    q_in = [ln(r, gain_a, bias_a) for r in x_q]
    kv_in = [ln(r, gain_a, bias_a) for r in x_kv]
    q = matvecs(q_in, lp["w_q"])
    k = matvecs(kv_in, lp["w_k"])
    v = matvecs(kv_in, lp["w_v"])
    attn_out = []
    for i in range(len(x_q)):
        logits = []
        for j in range(len(x_kv)):
            if mask_support[i][j]:
                logits.append(sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d))
            else:
                logits.append(None)
        mx = max(l for l in logits if l is not None)
        exps = [math.exp(l - mx) if l is not None else 0.0 for l in logits]
        total = sum(exps)
        weights = [e / total for e in exps]
        attn_out.append([sum(weights[j] * v[j][a] for j in range(len(x_kv))) for a in range(d)])
    x = [[x_q[i][a] + attn_out[i][a] for a in range(d)] for i in range(len(x_q))]
    f_in = [ln(r, lp["ffn_norm.gain"], lp["ffn_norm.bias"]) for r in x]
    hidden = [[gelu_s(h + b) for h, b in zip(row, lp["ffn.b1"])] for row in matvecs(f_in, lp["ffn.w1"])]
    out = [[o + b for o, b in zip(row, lp["ffn.b2"])] for row in matvecs(hidden, lp["ffn.w2"])]
    return [[x[i][a] + out[i][a] for a in range(d)] for i in range(len(x_q))]


class TestCrossLayer:
    def test_toy_layer_matches_manual_computation(self):
        d = 2
        h = BinaryMatrix([[1, 1, 0], [0, 1, 1]])
        masks = build_crossmpt_masks(h)
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=d)
        rng = np.random.default_rng(10)
        lp_arrays = {
            "w_q": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "w_k": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "w_v": np.array([[1.0, 1.0], [0.0, 1.0]]),
            "attn_norm.gain": np.array([1.0, 2.0]),
            "attn_norm.bias": np.array([0.1, -0.2]),
            "ffn_norm.gain": np.array([0.5, 1.5]),
            "ffn_norm.bias": np.array([0.0, 0.3]),
            "ffn.w1": rng.standard_normal((2, 4)),
            "ffn.b1": rng.standard_normal(4),
            "ffn.w2": rng.standard_normal((4, 2)),
            "ffn.b2": rng.standard_normal(2),
        }
        lp = {k: ad.constant(v) for k, v in lp_arrays.items()}
        m0 = np.array([[0.5, -0.4], [1.2, 0.9], [0.3, 0.0]])
        s0 = np.array([[1.0, -1.0], [0.2, 0.8]])
        m1, s1 = crossmpt_layer(ad.constant(m0), ad.constant(s0), lp, masks, cfg)

        lists = {k: np.asarray(v).tolist() for k, v in lp_arrays.items()}
        m1_manual = manual_block(m0.tolist(), s0.tolist(), h.bits.T.tolist(), lists, d)
        s1_manual = manual_block(s0.tolist(), m1_manual, h.bits.tolist(), lists, d)
        np.testing.assert_allclose(m1.data, m1_manual, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(s1.data, s1_manual, rtol=1e-10, atol=1e-12)

    def test_all_ones_check_row_equals_unmasked_attention(self):
        h = BinaryMatrix(np.ones((1, 4), dtype=np.uint8))
        masks = build_crossmpt_masks(h)
        assert (masks[0].additive == 0).all() and (masks[1].additive == 0).all()

    def test_masked_syndrome_column_gets_zero_weight(self):
        code = get_code("bch_15_7")
        cfg = small_cfg(Variant.CROSSMPT, d=8)
        model = DecoderModel(cfg, code, seed=6)
        smp = sample(code, NoiseSpec.for_code(code, 3.0, seed=7), policy="random")
        capture = []
        model.logits(smp.mag[None, :], [smp.syndromes[0][None, :]], capture)
        support_ht = code.pcm.bits.T.astype(bool)
        support_h = code.pcm.bits.astype(bool)
        assert len(capture) == 2 * cfg.n_layers  # per layer: mag_to_syn, then syn_to_mag
        for weights_ms, weights_sm in zip(capture[::2], capture[1::2]):
            weights_ms, weights_sm = weights_ms[0], weights_sm[0]  # (heads, n, n-k), (heads, n-k, n)
            assert (weights_ms[:, ~support_ht] == 0.0).all()
            assert (weights_sm[:, ~support_h] == 0.0).all()
            assert (weights_ms[:, support_ht] > 0.0).all()


class TestForward:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_output_length_is_n(self, variant):
        for name in ("hamming_7_4", "ldpc_32_16"):
            code = get_code(name)
            cfg = small_cfg(variant)
            params = init_params(cfg, None if cfg.code_agnostic else code, seed=1)
            smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=2))
            logits = forward_arrays(params, cfg, code.pcm, smp.mag, smp.syndromes[0]).data
            assert logits.shape == (code.n,)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_model_computes_in_float32(self, variant):
        # every activation after the first FFN and the attention masks stays
        # float32, so the logits do too
        code = get_code("ldpc_32_16")
        cfg = small_cfg(variant, n_layers=2)
        params = init_params(cfg, None if cfg.code_agnostic else code, seed=1, dtype=np.float32)
        smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=2))
        assert forward_arrays(params, cfg, code.pcm, smp.mag, smp.syndromes[0]).dtype == np.float32

    def test_variants_differ_but_replay_bitwise(self):
        code = get_code("hamming_7_4")
        smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=3), policy="random")
        outs = {}
        for variant in (Variant.CROSSMPT, Variant.ECCT):
            cfg = small_cfg(variant)
            params = init_params(cfg, code, seed=9)
            first = forward_arrays(params, cfg, code.pcm, smp.mag, smp.syndromes[0]).data
            params2 = init_params(cfg, code, seed=9)
            replay = forward_arrays(params2, cfg, code.pcm, smp.mag, smp.syndromes[0]).data
            assert first.tobytes() == replay.tobytes()
            outs[variant] = first
        assert not np.array_equal(outs[Variant.CROSSMPT], outs[Variant.ECCT])

    def test_ecct_attention_map_shape(self):
        code = get_code("hamming_7_4")
        cfg = small_cfg(Variant.ECCT)
        model = DecoderModel(cfg, code, seed=2)
        smp = sample(code, NoiseSpec.for_code(code, 4.0, seed=4))
        capture = []
        model.logits(smp.mag[None, :], [smp.syndromes[0][None, :]], capture)
        assert len(capture) == cfg.n_layers
        assert capture[0].shape == (1, 1, 10, 10)  # (B, heads, 2n-k, 2n-k)

    def test_multihead_forward_runs(self):
        code = get_code("hamming_7_4")
        cfg = small_cfg(Variant.CROSSMPT, d=8, heads=2)
        model = DecoderModel(cfg, code, seed=5)
        batch = sample_batch(code, NoiseSpec.for_code(code, 4.0, seed=6), 1)
        assert model.decode_batch(batch).shape == (1, 7)

    def test_codeword_invariant_logits(self):
        code = get_code("bch_15_7")
        cfg = small_cfg(Variant.CROSSMPT, d=8)
        model = DecoderModel(cfg, code, seed=11)
        base = sample(code, NoiseSpec.for_code(code, 4.0, seed=12), policy="all_zero")
        ref = model.logits_batch(base.mag[None, :], base.syndromes[0][None, :]).data
        rng = np.random.default_rng(13)
        for _ in range(10):
            word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
            other = make_invariance_pair(code, base, word)
            out = model.logits_batch(other.mag[None, :], other.syndromes[0][None, :]).data
            assert out.tobytes() == ref.tobytes()


class TestDecide:
    def test_strong_no_flip_keeps_hard_decision(self):
        # confident positive noise estimate everywhere: nothing flips
        y = np.array([0.4, -1.2, 2.0])
        logits = np.array([50.0, 50.0, 50.0])
        assert np.array_equal(decide(y, logits), [0, 1, 0])

    def test_perfect_oracle_recovers_codeword(self):
        # a perfect noise estimate is negative exactly where the target marks a flip
        code = get_code("bch_31_16")
        spec = NoiseSpec.for_code(code, 1.0, seed=14)
        for idx in range(50):
            smp = sample(code, spec, policy="random", index=idx)
            oracle = np.where(smp.target == 1, -10.0, 10.0)
            assert np.array_equal(decide(smp.y, oracle), smp.x)

    def test_matches_multiplicative_noise_formula(self):
        # oracle: x_hat = bin(sign(y * softsign(f))), softsign = f / (1 + |f|)
        rng = np.random.default_rng(15)
        y = rng.standard_normal(40)
        logits = rng.standard_normal(40) * 3
        softsign = logits / (1.0 + np.abs(logits))
        expected = (y * softsign < 0).astype(np.uint8)
        assert np.array_equal(decide(y, logits), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            decide(np.ones(3), np.ones(4))


class TestParamCount:
    @pytest.mark.parametrize("name", ["bch_31_16", "bch_63_45", "ldpc_121_80"])
    def test_cross_equals_self_attention_at_full_scale(self, name):
        code = get_code(name)
        cross = ModelConfig(variant=Variant.CROSSMPT, n_layers=6, embed_dim=128)
        ecct = ModelConfig(variant=Variant.ECCT, n_layers=6, embed_dim=128)
        assert param_count(cross, code) == param_count(ecct, code)

    def test_foundation_count_is_code_independent(self):
        cfg = ModelConfig(variant=Variant.FCROSSMPT, n_layers=6, embed_dim=128)
        counts = {param_count(cfg, get_code(n)) for n in ("bch_31_16", "ldpc_121_80")}
        counts.add(param_count(cfg, None))
        assert len(counts) == 1

    def test_doubling_layers_doubles_layer_subtotal(self):
        code = get_code("bch_31_16")
        one = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=32)
        two = ModelConfig(variant=Variant.CROSSMPT, n_layers=2, embed_dim=32)
        head_and_embed = sum(
            int(np.prod(s)) for n, s in param_shapes(one, code).items() if not n.startswith("layer")
        )
        layer_one = param_count(one, code) - head_and_embed
        assert param_count(two, code) - head_and_embed == 2 * layer_one


class TestWeightSharing:
    def test_gradient_flows_from_both_blocks_into_shared_buffer(self):
        h = BinaryMatrix([[1, 1, 0], [0, 1, 1]])
        masks = build_crossmpt_masks(h)
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=4)
        rng = np.random.default_rng(16)
        m0 = rng.standard_normal((3, 4))
        s0 = rng.standard_normal((2, 4))

        def make_lp():
            rng2 = np.random.default_rng(17)
            return {
                "w_q": ad.parameter(rng2.standard_normal((4, 4))),
                "w_k": ad.parameter(rng2.standard_normal((4, 4))),
                "w_v": ad.parameter(rng2.standard_normal((4, 4))),
                "attn_norm.gain": ad.parameter(np.ones(4)),
                "attn_norm.bias": ad.parameter(np.zeros(4)),
                "ffn_norm.gain": ad.parameter(np.ones(4)),
                "ffn_norm.bias": ad.parameter(np.zeros(4)),
                "ffn.w1": ad.parameter(rng2.standard_normal((4, 8))),
                "ffn.b1": ad.parameter(np.zeros(8)),
                "ffn.w2": ad.parameter(rng2.standard_normal((8, 4))),
                "ffn.b2": ad.parameter(np.zeros(4)),
            }

        def grad_wq(loss_on):
            lp = make_lp()
            m1, s1 = crossmpt_layer(ad.constant(m0), ad.constant(s0), lp, masks, cfg)
            target = {"m": m1, "s": s1, "both": ad.add(ad.reduce_sum(m1), ad.reduce_sum(s1))}[loss_on]
            (target if loss_on == "both" else ad.reduce_sum(target)).backward()
            return np.array(lp["w_q"].grad)

        g_m, g_s, g_both = grad_wq("m"), grad_wq("s"), grad_wq("both")
        assert np.abs(g_m).max() > 0 and np.abs(g_s).max() > 0
        np.testing.assert_allclose(g_both, g_m + g_s, rtol=1e-9, atol=1e-12)


class TestFullModelGradients:
    @pytest.mark.parametrize(
        "variant,heads",
        # ids name the layer order, which is pre-norm for every model
        [
            pytest.param(variant, heads, id=f"{variant}-{heads}-pre")
            for variant, heads in [
                (Variant.CROSSMPT, 1),
                (Variant.CROSSMPT, 2),
                (Variant.FCROSSMPT, 1),
                (Variant.ECCT, 1),
                (Variant.ECCT_FULLY_MASKED, 2),
            ]
        ],
    )
    def test_small_model_gradcheck(self, variant, heads):
        code = get_code("hamming_7_4")
        cfg = ModelConfig(variant=variant, n_layers=1, embed_dim=4, heads=heads)
        params = init_params(cfg, None if cfg.code_agnostic else code, seed=20)
        smp = sample(code, NoiseSpec.for_code(code, 3.0, seed=21), policy="random")

        def fn(build=False):
            logits = forward_arrays(params, cfg, code.pcm, smp.mag, smp.syndromes[0])
            total = loss(logits, smp.target)
            return total if build else total.item()

        bp, fd = backprop_grads(params, fn), fd_grads(params, fn)
        worst = max(rel_err(bp[k], fd[k]) for k in params)
        assert worst < 1e-4


# every variant, plus CrossED p=2 over fcrossmpt towers
FRAME_MODELS = [v.value for v in Variant] + ["crossed"]


@functools.cache
def frame_model(kind, dtype):
    code = get_code("bch_15_7")
    cfg = small_cfg(Variant.FCROSSMPT if kind == "crossed" else Variant(kind), d=16)
    params = init_params(cfg, code, seed=7, dtype=dtype)
    if kind == "crossed":
        return CrossEDModel(build_ensemble(code, 2, base=cfg), params=params, infer_only=True)
    return DecoderModel(cfg, code, params=params, infer_only=True)


def logits_of(model, batch, rows):
    return model.logits(batch.mag[rows], [s[rows] for s in batch.syndromes]).data


def rows_of(batch, rows):
    arrays = {
        f.name: getattr(batch, f.name)[rows]
        for f in dataclasses.fields(batch) if f.name != "syndromes"
    }
    return dataclasses.replace(batch, syndromes=tuple(s[rows] for s in batch.syndromes), **arrays)


class TestFrameIndependence:
    """A frame's logits depend on that frame alone, not on the batch around
    it; this is what makes a row split of a decode batch exact."""

    @given(
        kind=st.sampled_from(FRAME_MODELS),
        dtype=st.sampled_from([np.float64, np.float32]),
        frames=st.integers(1, 17),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_batches_give_the_whole_batch_bitwise(self, kind, dtype, frames, data, seed):
        model = frame_model(kind, dtype)
        spec = NoiseSpec.for_code(model.code, 3.0, seed=seed)
        batch = sample_batch(model.code, spec, frames, policy="random")
        cut = data.draw(st.integers(0, frames), label="cut")
        whole = logits_of(model, batch, slice(0, frames))
        parts = np.concatenate(
            [logits_of(model, batch, slice(0, cut)), logits_of(model, batch, slice(cut, frames))]
        )
        assert parts.tobytes() == whole.tobytes()
        b = data.draw(st.integers(0, frames - 1), label="frame")
        one = rows_of(batch, slice(b, b + 1))
        assert logits_of(model, one, slice(0, 1)).tobytes() == whole[b : b + 1].tobytes()
        assert model.decode_batch(one).tobytes() == model.decode_batch(batch)[b : b + 1].tobytes()


class TestOneHeadAttention:
    @pytest.mark.parametrize("kind", FRAME_MODELS)
    def test_one_head_attention_slices_no_head(self, monkeypatch, kind):
        # one head attends with q, k and v whole: the only slices left are
        # the embedding rows of the code-specific variants, never a full axis
        real_narrow = ad.narrow

        def narrow(t, start, stop, axis=-1):
            size = t.shape[axis]
            if slice(start, stop).indices(size) == (0, size, 1):
                raise AssertionError(f"full-axis narrow of shape {t.shape}")
            return real_narrow(t, start, stop, axis)

        model = frame_model(kind, np.float64)
        batch = sample_batch(model.code, NoiseSpec.for_code(model.code, 3.0, seed=8), 4)
        ref = logits_of(model, batch, slice(0, 4))
        monkeypatch.setattr(ad, "narrow", narrow)
        assert logits_of(model, batch, slice(0, 4)).tobytes() == ref.tobytes()


@st.composite
def full_rank_pcms(draw):
    """Random full-rank m x n PCMs, n <= 24, with every column checked."""
    n = draw(st.integers(3, 24))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    empty = np.flatnonzero(~h.any(axis=0))
    h[rng.integers(0, m, size=empty.size), empty] = 1
    pcm = BinaryMatrix(h)
    assume(rank(pcm) == m)
    return pcm


class TestCodewordInvarianceOnRandomCodes:
    @given(pcm=full_rank_pcms(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_logits_equal_for_two_codewords_under_one_noise_pattern(self, pcm, seed):
        code = _code_from_pcm(pcm, "toy")
        rng = np.random.default_rng(seed)
        base = sample(code, NoiseSpec.for_code(code, 2.0, seed=seed), policy="random")
        other = make_invariance_pair(code, base, code.encode(rng.integers(0, 2, size=code.k)))
        for variant in Variant:
            model = DecoderModel(small_cfg(variant), code, seed=seed % 1000, infer_only=True)
            ref = model.logits_batch(base.mag[None, :], base.syndromes[0][None, :]).data
            out = model.logits_batch(other.mag[None, :], other.syndromes[0][None, :]).data
            assert out.tobytes() == ref.tobytes(), variant


class TestGraphKeepsOnlyWhatBackwardReads:
    def test_unread_outputs_die_in_the_forward_pass(self, monkeypatch):
        # no backward closure reads a matmul output that feeds only a bias
        # add, or a residual sum: both are dead as soon as the forward pass
        # drops its handles, while the graph is still alive. gelu's input and
        # the attention weights, which closures saved, live until backward
        # has used them.
        code = get_code("bch_15_7")
        params = init_params(small_cfg(Variant.CROSSMPT, n_layers=2, d=16), code, seed=3)
        param_ids = {id(p) for p in params.values()}
        real_matmul, real_add = ad.matmul, ad.add
        real_gelu, real_softmax = ad.gelu, ad.masked_softmax
        last_matmul = [lambda: None]
        before_bias, residual, saved = [], [], []

        def matmul(a, b):
            out = real_matmul(a, b)
            last_matmul[0] = weakref.ref(out.data)
            return out

        def add(a, b):
            out = real_add(a, b)
            if id(b) in param_ids and a.data is last_matmul[0]():
                before_bias.append(weakref.ref(a.data))
            elif id(a) not in param_ids and id(b) not in param_ids:
                residual.append(weakref.ref(out.data))
            return out

        def gelu(t):
            saved.append(weakref.ref(t.data))
            return real_gelu(t)

        def masked_softmax(logits, mask):
            out = real_softmax(logits, mask)
            saved.append(weakref.ref(out.data))
            return out

        for name, spy in (("matmul", matmul), ("add", add), ("gelu", gelu),
                          ("masked_softmax", masked_softmax)):
            monkeypatch.setattr(ad, name, spy)
        cfg = small_cfg(Variant.CROSSMPT, n_layers=2, d=16)
        batch = sample_batch(code, NoiseSpec.for_code(code, 4.0, seed=4), 8, policy="random")
        logits = forward_arrays(params, cfg, code.pcm, batch.mag, batch.syndromes[0])
        # per block two bias adds and two residual sums, plus the head's two
        assert len(before_bias) == 10 and len(residual) == 8 and len(saved) == 8
        assert all(ref() is None for ref in before_bias + residual)
        assert all(ref() is not None for ref in saved)
        loss(logits, batch.target).backward()
        assert all(ref() is None for ref in saved)


class TestDecodeBuildsNoGraph:
    @staticmethod
    def _decoders():
        code = get_code("bch_15_7")
        for variant in Variant:
            yield variant.value, code, DecoderModel(small_cfg(variant), code, seed=5,
                                                    infer_only=True)
        ens = build_ensemble(code, 2, base=small_cfg(Variant.FCROSSMPT))
        yield "crossed_p2", ens.branch_code(), CrossEDModel(ens, seed=5, infer_only=True)
        yield "bp", code, BpDecoder(code, BpConfig(max_iters=5))

    def test_decode_batch_constructs_no_node(self, monkeypatch):
        # frozen decoders and BP pay nothing for the autodiff graph
        built = []
        real_init = ad._Node.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        decoders = list(self._decoders())
        monkeypatch.setattr(ad._Node, "__init__", counting_init)
        counts = {}
        for name, code, decoder in decoders:
            batch = sample_batch(code, NoiseSpec.for_code(code, 3.0, seed=6), 16, policy="random")
            before = len(built)
            assert decoder.decode_batch(batch).shape == (16, code.n)
            counts[name] = len(built) - before
        assert len(counts) == 6 and set(counts.values()) == {0}, counts
        # the counter sees the nodes of a trainable model's forward pass
        before = len(built)
        DecoderModel(small_cfg(Variant.CROSSMPT), code, seed=5).decode_batch(batch)
        assert len(built) - before > 100
