import platform
import resource

import numpy as np
import pytest
from scipy.stats import chi2

from crossmpt import evaluation, parallel
from crossmpt.bp import BpConfig
from crossmpt.channel import NoiseSpec, sample
from crossmpt.codes import get_code, list_codes
from crossmpt.ensemble import CrossEDModel, build_ensemble
from crossmpt.evaluation import (
    BpDecoder,
    IdentityDecoder,
    PerfectDecoder,
    StopRule,
    bitwise_ber,
    complexity_report,
    density_check,
    dump_attention,
    estimate_ber,
    flops_estimate,
    uncoded_bpsk_ber,
    wilson_interval,
)
from crossmpt.models import DecoderModel, ModelConfig, Variant


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 1000)
        assert lo < 0.037 < hi

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0 < hi < 0.01

    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class PickleCountingDecoder(IdentityDecoder):
    """Counts how often it is pickled (in the process that pickles it)."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return self.__dict__


class TestEstimateBer:
    def test_identity_decoder_matches_closed_form(self):
        code = get_code("ldpc_32_16")  # rate 1/2
        report = estimate_ber(
            IdentityDecoder(), code, [4.0], StopRule(min_errors=3000, max_bits=500_000), seed=1
        )
        row = report.rows[0]
        lo, hi = row.wilson_ci_95
        assert lo <= uncoded_bpsk_ber(4.0, 0.5) <= hi

    def test_perfect_decoder_reports_censored(self):
        code = get_code("hamming_7_4")
        report = estimate_ber(
            PerfectDecoder(), code, [2.0], StopRule(min_errors=10, max_bits=7_000), seed=2
        )
        row = report.rows[0]
        assert row.ber == 0.0
        assert row.neg_ln_ber == float("inf")

    def test_deterministic_replay_and_worker_invariance(self):
        code = get_code("hamming_7_4")
        stop = StopRule(min_errors=50, max_bits=40_000)
        a = estimate_ber(IdentityDecoder(), code, [3.0], stop, seed=3)
        b = estimate_ber(IdentityDecoder(), code, [3.0], stop, seed=3)
        c = estimate_ber(IdentityDecoder(), code, [3.0], stop, seed=3, workers=2)
        for x, y in ((a, b), (a, c)):
            assert x.rows[0].bit_errors == y.rows[0].bit_errors
            assert x.rows[0].bits_sent == y.rows[0].bits_sent
            assert np.array_equal(x.rows[0].per_bit_errors, y.rows[0].per_bit_errors)

    def test_worker_pool_handles_neural_decoders(self):
        # decoder state (params, masks, code) must survive the process boundary
        code = get_code("hamming_7_4")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, code, seed=20, infer_only=True)
        stop = StopRule(min_errors=20, max_bits=10_000)
        seq = estimate_ber(model, code, [3.0], stop, seed=21)
        par = estimate_ber(model, code, [3.0], stop, seed=21, workers=2)
        assert seq.rows[0].bit_errors == par.rows[0].bit_errors
        assert np.array_equal(seq.rows[0].per_bit_errors, par.rows[0].per_bit_errors)

    def test_decoder_is_sent_once_per_worker(self):
        # jobs carry only (spec, count, stream); the decoder reaches each
        # worker through the pool initializer
        code = get_code("hamming_7_4")
        PickleCountingDecoder.pickles = 0
        report = estimate_ber(
            PickleCountingDecoder(), code, [3.0], StopRule(min_errors=10**9, max_bits=7 * 64 * 8),
            seed=22, chunk_frames=64, workers=2,
        )
        assert report.rows[0].frames_sent == 64 * 8
        assert PickleCountingDecoder.pickles <= 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
    def test_bp_chunks_reuse_freed_heap_memory(self):
        # without the heap policy each 512-frame BP chunk on ldpc_121_80
        # faults its freed temporaries back in: about 3,200 minor faults
        code = get_code("ldpc_121_80")
        dec = BpDecoder(code, BpConfig(max_iters=20))
        estimate_ber(dec, code, [4.0], StopRule(min_errors=10**9, max_bits=512 * code.n), seed=23)
        chunks = 4
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_ber(
            dec, code, [4.0], StopRule(min_errors=10**9, max_bits=chunks * 512 * code.n), seed=24
        )
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / chunks < 100

    def test_heap_policy_is_a_no_op_off_glibc(self, monkeypatch):
        def no_libc(*_args):
            raise AssertionError("libc must not be loaded off glibc")

        monkeypatch.setattr(parallel.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(parallel.ctypes, "CDLL", no_libc)
        parallel.keep_freed_heap()

    def test_counts_and_csv_equal_for_any_thread_and_worker_count(self, monkeypatch, tmp_path):
        # each workers=1 call runs first and leaves helper threads behind; the
        # forked workers inherit the pool entry but not its threads. At 4
        # cores each of the 2 workers splits its chunks over 2 threads.
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=16)
        model = DecoderModel(cfg, code, seed=30, infer_only=True)
        stop = StopRule(min_errors=250, max_bits=code.n * 100 * 6)
        counts, csvs = [], []
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(parallel, "_cores", lambda cores=cores: cores)
            for workers in (1, 2):
                report = estimate_ber(
                    model, code, [3.0, 5.0], stop, seed=31, chunk_frames=100, workers=workers
                )
                counts.append([
                    (r.bits_sent, r.bit_errors, r.frames_sent, r.frame_errors,
                     r.per_bit_errors.tolist())
                    for r in report.rows
                ])
                path = tmp_path / f"ber_{cores}_{workers}.csv"
                report.to_csv(path)
                csvs.append(path.read_bytes())
        assert all(c == counts[0] for c in counts)
        assert all(c == csvs[0] for c in csvs)

    def test_runs_on_one_blas_thread_and_restores_the_count(self, monkeypatch):
        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        get, put = calls
        seen = []
        real_sample = evaluation.sample_batch

        def spy(*args, **kwargs):
            seen.append(get())
            return real_sample(*args, **kwargs)

        class Diverged(IdentityDecoder):
            def decode_batch(self, batch):
                raise FloatingPointError("logits are not finite")

        monkeypatch.setattr(evaluation, "sample_batch", spy)
        code = get_code("hamming_7_4")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, code, seed=32, infer_only=True)
        stop = StopRule(min_errors=10**9, max_bits=code.n * 64 * 2)
        before = get()
        put(2)
        try:
            estimate_ber(model, code, [3.0], stop, seed=33, chunk_frames=64)
            assert seen == [1, 1] and get() == 2
            with pytest.raises(FloatingPointError):
                estimate_ber(Diverged(), code, [3.0], stop, seed=33, chunk_frames=64)
            assert get() == 2
        finally:
            put(before)

    def test_bp_beats_uncoded_at_4db(self):
        code = get_code("ldpc_121_80")
        dec = BpDecoder(code, BpConfig(max_iters=20))
        report = estimate_ber(dec, code, [4.0], StopRule(min_errors=60, max_bits=400_000), seed=4)
        assert report.rows[0].ber < uncoded_bpsk_ber(4.0, code.rate)

    def test_random_and_all_zero_policies_agree_within_ci(self):
        # syndrome-preprocessed decoders must be codeword-policy blind
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, code, seed=5, infer_only=True)
        model.name = "random_weights"
        stop = StopRule(min_errors=400, max_bits=150_000)
        rnd = estimate_ber(model, code, [5.0], stop, seed=6, policy="random").rows[0]
        zero = estimate_ber(model, code, [5.0], stop, seed=6, policy="all_zero").rows[0]
        assert max(rnd.wilson_ci_95[0], zero.wilson_ci_95[0]) <= min(
            rnd.wilson_ci_95[1], zero.wilson_ci_95[1]
        )

    def test_csv_round_trip_shape(self, tmp_path):
        code = get_code("hamming_7_4")
        report = estimate_ber(
            IdentityDecoder(), code, [2.0, 4.0], StopRule(min_errors=10, max_bits=5_000), seed=7
        )
        path = tmp_path / "ber.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("ebn0_db,")


class TestComplexity:
    @pytest.mark.parametrize("name", list_codes())
    def test_orderings_hold_for_every_bundled_code(self, name):
        code = get_code(name)
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=6, embed_dim=128)
        cross, self_ = complexity_report(cfg, code)
        assert cross.density < self_.density
        assert self_.unmasked > 2 * cross.unmasked  # h > 2*h_tilde
        assert cross.flops < self_.flops
        assert cross.attention_map_area == 2 * code.n * (code.n - code.k)
        assert self_.attention_map_area == (2 * code.n - code.k) ** 2

    def test_flops_is_quadratic_in_width(self):
        code = get_code("bch_31_16")
        cfg = lambda d: ModelConfig(variant=Variant.CROSSMPT, n_layers=2, embed_dim=d)
        f = {d: flops_estimate(cfg(d), code, "crossmpt") for d in (8, 16, 24, 32, 64)}
        # fit a quadratic through three equally spaced points; a polynomial in
        # d predicts the fourth exactly, so the d^2 term scales by 4 under d -> 2d
        a = (f[24] - 2 * f[16] + f[8]) / (2 * 8 * 8)
        b = (f[16] - f[8]) / 8 - a * (16 + 8)
        c = f[8] - a * 64 - b * 8
        assert a * 32 * 32 + b * 32 + c == pytest.approx(f[32], rel=1e-12)
        # and the quadratic coefficient dominates at transformer widths
        assert f[64] / f[32] == pytest.approx(4.0, rel=0.15)

    def test_density_check_matches_for_bch_63_45(self):
        check = density_check(get_code("bch_63_45"))
        assert check is not None and check["matches"]
        assert check["ours_cross_pct"] == pytest.approx(32.45, abs=0.005)
        assert check["ours_self_pct"] == pytest.approx(53.09, abs=0.005)

    def test_density_check_flags_ldpc_reconstruction_gap(self):
        # our (121,70) matrix reproduces the cross density but not the exact
        # self-attention density of the published source matrix: must be flagged
        check = density_check(get_code("ldpc_121_70"))
        assert check is not None
        assert check["ours_cross_pct"] == pytest.approx(9.09, abs=0.005)
        assert not check["matches"]

    def test_density_check_none_without_reference(self):
        assert density_check(get_code("hamming_7_4")) is None


class TestDumpAttention:
    def test_masked_positions_are_exact_zeros_and_shapes_constant(self):
        code = get_code("ldpc_32_16")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=3, embed_dim=16)
        model = DecoderModel(cfg, code, seed=8, infer_only=True)
        smp = sample(code, NoiseSpec.for_code(code, 5.0, seed=9), policy="random")
        dumps = dump_attention(model, smp)
        assert len(dumps) == 3
        support_ht = code.pcm.bits.T.astype(bool)
        for entry in dumps:
            assert entry["mag_to_syn"].shape == (1, 32, 16)
            assert entry["syn_to_mag"].shape == (1, 16, 32)
            assert (entry["mag_to_syn"][0][~support_ht] == 0.0).all()
            assert entry["mag_to_syn_colsum"].shape == (16,)
            assert entry["syn_to_mag_colsum"].shape == (32,)

    def test_layer_range_filter(self):
        code = get_code("hamming_7_4")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=4, embed_dim=8)
        model = DecoderModel(cfg, code, seed=10, infer_only=True)
        smp = sample(code, NoiseSpec.for_code(code, 5.0, seed=11))
        dumps = dump_attention(model, smp, layer_range=(1, 2))
        assert [d["layer"] for d in dumps] == [1, 2]

    def test_error_free_sample_still_dumps(self):
        code = get_code("hamming_7_4")
        cfg = ModelConfig(variant=Variant.ECCT, n_layers=2, embed_dim=8)
        model = DecoderModel(cfg, code, seed=12, infer_only=True)
        smp = sample(code, NoiseSpec.for_code(code, 60.0, seed=13))
        assert not smp.syndromes[0].any()
        dumps = dump_attention(model, smp)
        assert len(dumps) == 2 and "self" in dumps[0]


class TestBitwiseBer:
    def test_null_model_per_bit_rates_are_uniform(self):
        # no decoder, uniform channel flips: chi-square across positions
        code = get_code("bch_31_16")
        report = estimate_ber(
            IdentityDecoder(), code, [3.0], StopRule(min_errors=4000, max_bits=600_000), seed=14
        )
        table = bitwise_ber(report)
        assert len(table) == code.n
        counts = np.array([row["errors"] for row in table], dtype=float)
        expected = counts.mean()
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=code.n - 1)

    def test_coverage_annotation_joins(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 3, base=ModelConfig(variant=Variant.FCROSSMPT, n_layers=1, embed_dim=8))
        model = CrossEDModel(ens, seed=15, infer_only=True)
        model.name = "crossed"
        report = estimate_ber(
            model, ens.branch_code(), [4.0], StopRule(min_errors=5, max_bits=4_000), seed=16
        )
        table = bitwise_ber(report, ens)
        assert len(table) == 31
        assert not table[30]["covered"]
        assert all(table[pos]["covered"] for pos in range(30))
