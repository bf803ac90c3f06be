import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossmpt.bp import BpConfig, TannerGraph, _exclusive, _slot_sum, bp_decode, bp_decode_batch
from crossmpt.channel import NoiseSpec, ebn0_to_sigma, modulate, sample_batch
from crossmpt.codes import get_code, list_codes
from crossmpt.gf2 import BinaryMatrix
from crossmpt.masks import _padded_groups

# Frozen reference: the full-batch decoder that every frame iterates in until
# the whole batch has converged, with its per-edge table loop, last-axis
# cumulative products and int64 syndromes. bp_decode_batch must reproduce it
# bit for bit.
_REF_TANH_CLIP = 1.0 - 1e-12
_REF_SATURATED = 1e300  # min-sum's finite identity


def ref_padded_groups(owner, groups):
    degs = np.bincount(owner, minlength=groups)
    dmax = int(degs.max()) if len(degs) else 0
    table = np.zeros((groups, dmax), dtype=np.int64)
    pad = np.ones((groups, dmax), dtype=bool)
    fill = np.zeros(groups, dtype=np.int64)
    for e, g in enumerate(owner):
        table[g, fill[g]] = e
        pad[g, fill[g]] = False
        fill[g] += 1
    return table, pad


def ref_excl_prod(t):
    pre = np.ones_like(t)
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.ones_like(t)
    np.cumprod(t[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return pre * suf


def ref_excl_min(t, identity=np.inf):
    pre = np.full_like(t, identity)
    np.minimum.accumulate(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.full_like(t, identity)
    np.minimum.accumulate(t[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return np.minimum(pre, suf)


def ref_bp_decode_batch(llr, h, cfg):
    def syndrome(bits):
        return ((np.asarray(bits, dtype=np.int64) @ h.bits.T.astype(np.int64)) & 1).astype(np.uint8)

    m, n = h.shape
    check_of_edge, var_of_edge = np.nonzero(h.bits)
    cn_e, cn_pad = ref_padded_groups(check_of_edge, m)
    vn_e, vn_pad = ref_padded_groups(var_of_edge, n)
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    batch = llr.shape[0]
    v2c = llr[:, var_of_edge].copy()
    out = np.zeros((batch, n), dtype=np.uint8)
    iters = np.full(batch, cfg.max_iters, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)
    for it in range(1, cfg.max_iters + 1):
        gathered = v2c[:, cn_e]
        if cfg.algorithm == "sum_product":
            t = np.clip(np.tanh(0.5 * gathered), -_REF_TANH_CLIP, _REF_TANH_CLIP)
            t[:, cn_pad] = 1.0
            ext = np.clip(ref_excl_prod(t), -_REF_TANH_CLIP, _REF_TANH_CLIP)
            msgs = 2.0 * np.arctanh(ext)
        else:
            signs = np.where(gathered < 0, -1.0, 1.0)
            signs[:, cn_pad] = 1.0
            mags = np.abs(gathered)
            mags[:, cn_pad] = _REF_SATURATED
            msgs = ref_excl_prod(signs) * ref_excl_min(mags, _REF_SATURATED)
        c2v = np.empty_like(v2c)
        c2v[:, cn_e[~cn_pad]] = msgs[:, ~cn_pad]
        incoming = c2v[:, vn_e]
        incoming[:, vn_pad] = 0.0
        totals = incoming.sum(axis=-1)
        posterior = llr + totals
        v2c = (posterior[:, var_of_edge]) - c2v
        hd = (posterior < 0).astype(np.uint8)
        zero_syn = ~syndrome(hd).any(axis=-1)
        newly = zero_syn & ~done
        out[newly] = hd[newly]
        iters[newly] = it
        done |= newly
        if done.all():
            break
    out[~done] = hd[~done]
    return out, iters, done


def awgn_llr(code, ebn0_db, rng):
    """Channel LLRs of random codewords, one Eb/N0 (dB) per row."""
    words = code.encode_batch(rng.integers(0, 2, size=(len(ebn0_db), code.k), dtype=np.uint8))
    sigma = np.array([ebn0_to_sigma(e, code.rate) for e in ebn0_db])[:, None]
    y = modulate(words) + sigma * rng.standard_normal(words.shape)
    return 2.0 * y / sigma**2


@pytest.fixture(scope="module")
def hamming_graph():
    return TannerGraph(get_code("hamming_7_4").pcm)


class TestTannerGraph:
    def test_edge_count_is_popcount(self, hamming_graph):
        assert hamming_graph.n_edges == get_code("hamming_7_4").pcm.popcount()

    def test_bipartite_consistency(self, hamming_graph):
        # every edge appears once and the edge tables rebuild H exactly
        rebuilt = np.zeros(hamming_graph.h.shape, dtype=np.int64)
        np.add.at(rebuilt, (hamming_graph.check_of_edge, hamming_graph.var_of_edge), 1)
        assert np.array_equal(rebuilt, hamming_graph.h.bits)

    @pytest.mark.parametrize("name", list_codes())
    def test_padded_groups_equal_the_per_edge_loop(self, name):
        graph = TannerGraph(get_code(name).pcm)
        for owner, groups in ((graph.check_of_edge, graph.m), (graph.var_of_edge, graph.n)):
            table, pad = _padded_groups(owner, groups)
            ref_table, ref_pad = ref_padded_groups(owner, groups)
            assert table.dtype == ref_table.dtype and pad.dtype == ref_pad.dtype
            assert np.array_equal(table, ref_table)
            assert np.array_equal(pad, ref_pad)

    @given(
        degrees=st.lists(st.integers(0, 6), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_padded_groups_with_empty_groups_equal_the_loop(self, degrees, seed):
        # owners in random edge order, including groups of degree zero
        owner = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(degrees)), degrees))
        table, pad = _padded_groups(owner, len(degrees))
        ref_table, ref_pad = ref_padded_groups(owner, len(degrees))
        assert np.array_equal(table, ref_table)
        assert np.array_equal(pad, ref_pad)


class TestSlotArithmetic:
    @pytest.mark.parametrize("slots", [0, 1, 2, 7, 8, 9, 15, 16, 17, 21, 64, 128, 129, 200, 300])
    def test_slot_sum_adds_in_the_order_of_a_last_axis_sum(self, slots):
        # the frames-first decoder summed each variable's messages over a
        # contiguous last axis; summing slot by slot must round the same way
        rng = np.random.default_rng(slots)
        t = rng.standard_normal((slots, 5, 7)) * 10.0 ** rng.integers(-8, 9, size=(slots, 5, 7))
        ref = np.ascontiguousarray(np.moveaxis(t, 0, -1)).sum(axis=-1)
        assert np.array_equal(_slot_sum(t), ref)

    @pytest.mark.parametrize("slots", [1, 2, 3, 11, 28])
    def test_exclusive_product_and_minimum_equal_the_cumulative_reference(self, slots):
        rng = np.random.default_rng(slots)
        t = rng.uniform(-1.0, 1.0, size=(slots, 4, 6))
        last = np.ascontiguousarray(np.moveaxis(t, 0, -1))
        for op, identity, ref in ((np.multiply, 1.0, ref_excl_prod), (np.minimum, np.inf, ref_excl_min)):
            got = _exclusive(op, t, identity, np.empty_like(t))
            assert np.array_equal(np.moveaxis(got, 0, -1), ref(last))


class TestBpDecode:
    def test_error_free_converges_first_iteration(self, hamming_graph):
        code = get_code("hamming_7_4")
        rng = np.random.default_rng(0)
        word = code.encode(rng.integers(0, 2, size=4, dtype=np.uint8))
        llr = 8.0 * modulate(word)
        out, iters, conv = bp_decode(llr, hamming_graph, BpConfig(max_iters=20))
        assert np.array_equal(out, word)
        assert iters == 1 and conv

    def test_hamming_corrects_every_single_error(self, hamming_graph):
        # exhaustive enumeration oracle: all codewords x all flip positions;
        # the erroneous bit carries a weak wrong-sign LLR while every other
        # position is strong (the regime a channel error actually produces)
        code = get_code("hamming_7_4")
        cfg = BpConfig(max_iters=20)
        for msg in range(16):
            word = code.encode(np.array([(msg >> i) & 1 for i in range(4)], dtype=np.uint8))
            for pos in range(7):
                llr = 8.0 * modulate(word)
                llr[pos] = -0.25 * llr[pos]
                out, _, conv = bp_decode(llr, hamming_graph, cfg)
                assert conv
                assert np.array_equal(out, word), f"msg {msg} flip {pos}"

    def test_codeword_input_returned_unchanged(self, hamming_graph):
        code = get_code("hamming_7_4")
        rng = np.random.default_rng(1)
        for _ in range(20):
            word = code.encode(rng.integers(0, 2, size=4, dtype=np.uint8))
            llr = modulate(word) * rng.uniform(0.2, 6.0, size=7)
            out, iters, conv = bp_decode(llr, hamming_graph, BpConfig(max_iters=10))
            assert conv and iters == 1
            assert np.array_equal(out, word)

    def test_min_sum_matches_sum_product_at_high_snr(self):
        code = get_code("ldpc_32_16")
        graph = TannerGraph(code.pcm)
        spec = NoiseSpec.for_code(code, 7.0, seed=2)
        batch = sample_batch(code, spec, 200, policy="random")
        sigma = ebn0_to_sigma(7.0, code.rate)
        llr = 2.0 * batch.y / sigma**2
        sp, _, _ = bp_decode_batch(llr, graph, BpConfig(max_iters=30, algorithm="sum_product"))
        ms, _, _ = bp_decode_batch(llr, graph, BpConfig(max_iters=30, algorithm="min_sum"))
        agreement = (sp == ms).mean()
        assert agreement > 0.999

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_sign_symmetry(self, seed):
        # negating all LLRs flips every decision (sum-product sign symmetry)
        graph = TannerGraph(get_code("hamming_7_4").pcm)
        rng = np.random.default_rng(seed)
        llr = rng.standard_normal(7) * 3
        llr[llr == 0] = 0.5
        cfg = BpConfig(max_iters=8)
        a, _, _ = bp_decode(llr, graph, cfg)
        b, _, _ = bp_decode(-llr, graph, cfg)
        assert np.array_equal(a ^ 1, b)

    def test_early_stop_output_is_codeword(self):
        code = get_code("ldpc_49_24")
        graph = TannerGraph(code.pcm)
        spec = NoiseSpec.for_code(code, 3.0, seed=3)
        batch = sample_batch(code, spec, 100, policy="random")
        sigma_per = np.array([ebn0_to_sigma(e, code.rate) for e in batch.ebn0_db])
        llr = 2.0 * batch.y / sigma_per[:, None] ** 2
        out, _, conv = bp_decode_batch(llr, graph, BpConfig(max_iters=20))
        assert conv.any()
        assert not graph.syndrome(out[conv]).any()

    def test_batch_matches_single_decodes_bitwise(self):
        code = get_code("ldpc_32_16")
        graph = TannerGraph(code.pcm)
        spec = NoiseSpec.for_code(code, 2.0, seed=4)
        batch = sample_batch(code, spec, 32, policy="random")
        sigma = np.array([ebn0_to_sigma(e, code.rate) for e in batch.ebn0_db])
        llr = 2.0 * batch.y / sigma[:, None] ** 2
        cfg = BpConfig(max_iters=15)
        outs, iters, conv = bp_decode_batch(llr, graph, cfg)
        for b in range(32):
            o, i, c = bp_decode(llr[b], graph, cfg)
            assert np.array_equal(o, outs[b])
            assert i == iters[b] and c == conv[b]

    @given(
        name=st.sampled_from(["hamming_7_4", "bch_15_7", "ldpc_32_16", "ldpc_49_24"]),
        algorithm=st.sampled_from(["sum_product", "min_sum"]),
        max_iters=st.integers(1, 12),
        rows=st.integers(1, 12),
        scale=st.floats(0.5, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_batch_row_equals_its_single_decode(
        self, name, algorithm, max_iters, rows, scale, seed
    ):
        # random LLR rows around the all-zero codeword, a mix of frames that
        # converge early, late and never
        graph = TannerGraph(get_code(name).pcm)
        rng = np.random.default_rng(seed)
        llr = scale + scale * rng.standard_normal((rows, graph.n))
        cfg = BpConfig(max_iters=max_iters, algorithm=algorithm)
        outs, iters, conv = bp_decode_batch(llr, graph, cfg)
        for b in range(rows):
            o, i, c = bp_decode(llr[b], graph, cfg)
            assert np.array_equal(o, outs[b])
            assert (i, c) == (iters[b], conv[b])

    @given(
        name=st.sampled_from(list_codes()),
        algorithm=st.sampled_from(["sum_product", "min_sum"]),
        max_iters=st.integers(1, 20),
        ebn0=st.lists(st.floats(-2.0, 8.0), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_frozen_full_batch_reference(self, name, algorithm, max_iters, ebn0, seed):
        # one Eb/N0 per row: frames that converge early, late and never share
        # a batch, so frames leave the working arrays at different iterations
        code = get_code(name)
        llr = awgn_llr(code, ebn0, np.random.default_rng(seed))
        cfg = BpConfig(max_iters=max_iters, algorithm=algorithm)
        got = bp_decode_batch(llr, TannerGraph(code.pcm), cfg)
        ref = ref_bp_decode_batch(llr, code.pcm, cfg)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        zero_rows=st.integers(0, 3),
        zero_cols=st.integers(0, 3),
        algorithm=st.sampled_from(["sum_product", "min_sum"]),
        max_iters=st.integers(1, 20),
        ebn0=st.lists(st.floats(-2.0, 8.0), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=3, n=5, density=0.0, zero_rows=0, zero_cols=0, algorithm="sum_product",
             max_iters=5, ebn0=[1.0, 4.0], seed=0)
    @example(m=3, n=5, density=0.0, zero_rows=0, zero_cols=0, algorithm="min_sum",
             max_iters=5, ebn0=[1.0, 4.0], seed=0)
    @settings(max_examples=150, deadline=None)
    def test_random_pcm_matches_frozen_reference(
        self, m, n, density, zero_rows, zero_cols, algorithm, max_iters, ebn0, seed
    ):
        # sparse PCMs of irregular degrees, some rows and columns all zero,
        # around the all-zero codeword at one Eb/N0 (rate 1/2) per row
        rng = np.random.default_rng(seed)
        bits = (rng.random((m, n)) < density).astype(np.uint8)
        bits[rng.choice(m, min(zero_rows, m), replace=False)] = 0
        bits[:, rng.choice(n, min(zero_cols, n), replace=False)] = 0
        h = BinaryMatrix(bits)
        sigma = np.array([ebn0_to_sigma(e, 0.5) for e in ebn0])[:, None]
        llr = 2.0 * (1.0 + sigma * rng.standard_normal((len(ebn0), n))) / sigma**2
        cfg = BpConfig(max_iters=max_iters, algorithm=algorithm)
        # a check of degree one sends min-sum's finite identity, so no message
        # is inf - inf, in the reference or in bp_decode_batch
        with np.errstate(all="raise"):
            got = bp_decode_batch(llr, TannerGraph(h), cfg)
            ref = ref_bp_decode_batch(llr, h, cfg)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("algorithm", ["sum_product", "min_sum"])
    def test_matches_frozen_reference_on_a_mixed_chunk(self, algorithm):
        code = get_code("ldpc_121_80")
        llr = awgn_llr(code, np.full(256, 2.0), np.random.default_rng(5))
        cfg = BpConfig(max_iters=20, algorithm=algorithm)
        out, iters, conv = bp_decode_batch(llr, TannerGraph(code.pcm), cfg)
        ref_out, ref_iters, ref_conv = ref_bp_decode_batch(llr, code.pcm, cfg)
        # the chunk holds frames that converge at the first iteration, later, and never
        assert (iters == 1).any() and ((iters > 1) & conv).any() and (~conv).any()
        assert np.array_equal(out, ref_out)
        assert np.array_equal(iters, ref_iters)
        assert np.array_equal(conv, ref_conv)

    @pytest.mark.parametrize("h", [
        BinaryMatrix([[1, 1, 0, 0, 1], [0, 1, 1, 0, 1]]),
        BinaryMatrix(np.zeros((2, 5), dtype=np.uint8)),
    ], ids=["one-zero-column", "no-edges"])
    def test_variable_of_degree_zero(self, h):
        # an all-zero PCM column gives a variable with no edges: its decision
        # is its channel LLR's sign
        llr = np.array([[2.0, 1.5, -0.5, -3.0, 1.0], [1.0, 1.0, 1.0, 1.0, -0.2]])
        cfg = BpConfig(max_iters=5)
        got = bp_decode_batch(llr, TannerGraph(h), cfg)
        ref = ref_bp_decode_batch(llr, h, cfg)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        assert (got[0][:, 3] == [1, 0]).all()

    @pytest.mark.parametrize("algorithm", ["sum_product", "min_sum"])
    def test_check_of_degree_one_forces_its_bit(self, algorithm):
        # check 0 holds bit 0 alone and check 1 ties bit 1 to it, so both bits
        # are 0 in every codeword; their channel LLRs say 1. Min-sum's message
        # from check 0 must be finite, or the message back on that edge is
        # inf - inf: NaN and a RuntimeWarning.
        h = BinaryMatrix([[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1]])
        word = np.array([0, 0, 1, 1, 1, 0], dtype=np.uint8)
        llr = 4.0 * modulate(word)
        llr[:2] = -0.5
        with np.errstate(all="raise"):
            out, iters, conv = bp_decode(llr, TannerGraph(h), BpConfig(max_iters=10, algorithm=algorithm))
        assert conv
        assert np.array_equal(out, word)

    def test_nonconvergence_is_flag_not_error(self, hamming_graph):
        llr = np.array([0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1])
        out, iters, conv = bp_decode(llr, hamming_graph, BpConfig(max_iters=1))
        assert out.shape == (7,)

    def test_nonfinite_llr_rejected(self, hamming_graph):
        with pytest.raises(ValueError, match="finite"):
            bp_decode(np.array([np.inf, 0, 0, 0, 0, 0, 0]), hamming_graph, BpConfig())
