import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmpt.bp import BpConfig, TannerGraph, bp_decode, bp_decode_batch
from crossmpt.channel import NoiseSpec, ebn0_to_sigma, modulate, sample_batch
from crossmpt.codes import get_code


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
        cfg = BpConfig(max_iters=8, early_stop=False)
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
        early_stop=st.booleans(),
        max_iters=st.integers(1, 12),
        rows=st.integers(1, 12),
        scale=st.floats(0.5, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_batch_row_equals_its_single_decode(
        self, name, algorithm, early_stop, max_iters, rows, scale, seed
    ):
        # random LLR rows around the all-zero codeword, a mix of frames that
        # converge early, late and never
        graph = TannerGraph(get_code(name).pcm)
        rng = np.random.default_rng(seed)
        llr = scale + scale * rng.standard_normal((rows, graph.n))
        cfg = BpConfig(max_iters=max_iters, algorithm=algorithm, early_stop=early_stop)
        outs, iters, conv = bp_decode_batch(llr, graph, cfg)
        for b in range(rows):
            o, i, c = bp_decode(llr[b], graph, cfg)
            assert np.array_equal(o, outs[b])
            assert (i, c) == (iters[b], conv[b])

    def test_nonconvergence_is_flag_not_error(self, hamming_graph):
        llr = np.array([0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1])
        out, iters, conv = bp_decode(llr, hamming_graph, BpConfig(max_iters=1))
        assert out.shape == (7,)

    def test_nonfinite_llr_rejected(self, hamming_graph):
        with pytest.raises(ValueError, match="finite"):
            bp_decode(np.array([np.inf, 0, 0, 0, 0, 0, 0]), hamming_graph, BpConfig())
