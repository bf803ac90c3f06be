import logging
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import chi2

from crossmpt import evaluation, parallel
from crossmpt.bp import BpConfig
from crossmpt.channel import NoiseSpec, sample, sample_batch
from crossmpt.codes import get_code, list_codes
from crossmpt.ensemble import CrossEDModel, build_ensemble
from crossmpt.evaluation import (
    BpDecoder,
    IdentityDecoder,
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


class PerfectDecoder:
    """Oracle that returns the transmitted codeword."""

    name = "oracle"

    def decode_batch(self, batch):
        return batch.x


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

    def test_deterministic_replay(self):
        code = get_code("hamming_7_4")
        stop = StopRule(min_errors=50, max_bits=40_000)
        a = estimate_ber(IdentityDecoder(), code, [3.0], stop, seed=3)
        b = estimate_ber(IdentityDecoder(), code, [3.0], stop, seed=3)
        assert a.rows[0].bit_errors == b.rows[0].bit_errors
        assert a.rows[0].bits_sent == b.rows[0].bits_sent
        assert np.array_equal(a.rows[0].per_bit_errors, b.rows[0].per_bit_errors)

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

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap policy")
    def test_bp_chunks_reuse_freed_heap_memory_on_four_helper_lanes(self, monkeypatch):
        # a 4-core host: a neural decode between the two calls starts helper
        # lanes 0-2, and every chunk is still sampled on one thread (lane 3),
        # so one heap arena holds the sampled chunks
        monkeypatch.setattr(parallel, "_cores", lambda: 4)
        monkeypatch.setattr(parallel, "_helpers", None)
        small = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, small, seed=47, infer_only=True)
        samplers = set()
        real_sample = evaluation.sample_batch

        def spy(*args, **kwargs):
            samplers.add(threading.get_ident())
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(evaluation, "sample_batch", spy)
        code = get_code("ldpc_121_80")
        dec = BpDecoder(code, BpConfig(max_iters=20))
        try:
            estimate_ber(dec, code, [4.0], StopRule(min_errors=10**9, max_bits=512 * code.n),
                         seed=48)
            model.decode_batch(sample_batch(small, NoiseSpec.for_code(small, 4.0, seed=47), 16))
            chunks = 4
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            estimate_ber(dec, code, [4.0],
                         StopRule(min_errors=10**9, max_bits=chunks * 512 * code.n), seed=49)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            lanes = parallel._helpers[1]
        finally:
            for lane in parallel._helpers[1]:
                lane.shutdown()
        assert len(lanes) == 4 and all(lane._threads for lane in lanes)
        assert samplers == {next(iter(lanes[3]._threads)).ident}
        assert faults / chunks < 100

    def test_heap_policy_is_a_no_op_off_glibc(self, monkeypatch):
        def no_libc(*_args):
            raise AssertionError("libc must not be loaded off glibc")

        monkeypatch.setattr(parallel.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(parallel.ctypes, "CDLL", no_libc)
        parallel.keep_freed_heap()

    def test_counts_and_csv_equal_for_any_thread_count(self, monkeypatch, tmp_path):
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=16)
        model = DecoderModel(cfg, code, seed=30, infer_only=True)
        stop = StopRule(min_errors=250, max_bits=code.n * 100 * 6)
        counts, csvs = [], []
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(parallel, "_cores", lambda cores=cores: cores)
            report = estimate_ber(model, code, [3.0, 5.0], stop, seed=31, chunk_frames=100)
            counts.append([
                (r.bits_sent, r.bit_errors, r.frames_sent, r.frame_errors,
                 r.per_bit_errors.tolist())
                for r in report.rows
            ])
            path = tmp_path / f"ber_{cores}.csv"
            report.to_csv(path)
            csvs.append(path.read_bytes())
        assert all(c == counts[0] for c in counts)
        assert all(c == csvs[0] for c in csvs)

    def test_runs_on_one_blas_thread_and_restores_the_count(self, monkeypatch):
        # chunk 1 is sampled while chunk 0 decodes; the count is restored
        # only after that job ends, also when the decoder raises
        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        get, put = calls
        seen = []
        chunk_1_started = threading.Event()
        real_sample = evaluation.sample_batch

        def spy(*args, **kwargs):
            start = get()
            if args[4][-1] == 1:
                chunk_1_started.set()
            out = real_sample(*args, **kwargs)
            time.sleep(0.05)
            seen.append((start, get()))
            return out

        class Diverged(IdentityDecoder):
            def decode_batch(self, batch):
                assert chunk_1_started.wait(timeout=10)
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
            assert seen == [(1, 1), (1, 1)] and get() == 2
            seen.clear()
            chunk_1_started.clear()
            with pytest.raises(FloatingPointError):
                estimate_ber(Diverged(), code, [3.0], stop, seed=33, chunk_frames=64)
            assert seen == [(1, 1), (1, 1)] and get() == 2
        finally:
            put(before)

    def test_bp_points_log_mean_iterations_and_converged_fraction(self, monkeypatch, caplog):
        # counted at the binding of bp_decode_batch that BpDecoder calls
        code = get_code("hamming_7_4")
        chunks, real = [], evaluation.bp_decode_batch

        def counted(*args):
            out, iters, converged = real(*args)
            chunks.append((len(iters), iters.sum(), converged.sum()))
            return out, iters, converged

        monkeypatch.setattr(evaluation, "bp_decode_batch", counted)
        stop = StopRule(min_errors=10**6, max_bits=2 * 64 * code.n)  # two chunks a point
        with caplog.at_level(logging.INFO, logger="crossmpt.evaluation"):
            estimate_ber(BpDecoder(code, BpConfig(max_iters=5)), code, [0.0, 6.0], stop,
                         seed=3, chunk_frames=64)
        lines = [r.getMessage() for r in caplog.records if r.name == "crossmpt.evaluation"]
        assert len(lines) == 2 and len(chunks) == 4
        for line, point in zip(lines, (chunks[:2], chunks[2:])):
            frames, iters, converged = np.sum(point, axis=0)
            assert line.endswith(f", BP {iters / frames:.2f} iterations per frame, "
                                 f"{converged / frames:.1%} converged"), line

    @pytest.mark.parametrize("decoder", ["bp", "crossmpt"])
    def test_a_point_the_decoder_cannot_evaluate_is_refused_before_any_sampling(
        self, monkeypatch, decoder
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before the Eb/N0 list was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        code = get_code("hamming_7_4")
        if decoder == "bp":
            dec, bad = BpDecoder(code, BpConfig()), [float("inf"), float("-inf")]
        else:
            cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
            dec, bad = DecoderModel(cfg, code, infer_only=True), [float("-inf")]
        for ebn0 in bad:
            with pytest.raises(ValueError, match="Eb/N0"):
                estimate_ber(dec, code, [3.0, ebn0], StopRule(min_errors=10, max_bits=7_000))

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


def serial_ber(decoder, code, ebn0_list, stop, seed, chunk_frames):
    """The reference chunk loop: sample chunk k of point si from stream
    (3, si, k), decode it, count it, stop as soon as the rule holds."""
    rows = []
    for si, ebn0 in enumerate(ebn0_list):
        spec = NoiseSpec.for_code(code, ebn0, seed=seed)
        row = {"bits": 0, "bit_errors": 0, "frames": 0, "frame_errors": 0,
               "per_bit": np.zeros(code.n, dtype=np.int64)}
        k = 0
        while row["bit_errors"] < stop.min_errors and row["bits"] < stop.max_bits:
            batch = sample_batch(code, spec, chunk_frames, policy="random", stream=(3, si, k))
            errs = (decoder.decode_batch(batch) ^ batch.x).astype(np.int64)
            row["bit_errors"] += int(errs.sum())
            row["per_bit"] += errs.sum(axis=0)
            row["frame_errors"] += int(errs.any(axis=1).sum())
            row["frames"] += chunk_frames
            row["bits"] += chunk_frames * code.n
            k += 1
        rows.append(row)
    return rows


class TestUncodedBer:
    def test_closed_form_matches_scipy_erfc(self):
        for ebn0 in np.linspace(-20.0, 16.0, 145):
            for rate in np.linspace(0.05, 1.0, 20):
                ref = 0.5 * erfc(np.sqrt(rate * 10.0 ** (ebn0 / 10.0)))
                assert uncoded_bpsk_ber(float(ebn0), float(rate)) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_bp_evaluation_does_not_load_scipy_special(self):
        # scipy.special (about 25 MB) is loaded by the first GELU only
        script = (
            "import sys\n"
            "from crossmpt.bp import BpConfig\n"
            "from crossmpt.codes import get_code\n"
            "from crossmpt.evaluation import BpDecoder, StopRule, estimate_ber\n"
            "code = get_code('ldpc_121_80')\n"
            "report = estimate_ber(BpDecoder(code, BpConfig()), code, [3.0, 4.0], StopRule(20))\n"
            "assert report.rows[-1].bit_errors >= 20\n"
            "print('scipy.special' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(evaluation.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert done.stdout.strip() == "False", done.stderr


class TestSampleAhead:
    """estimate_ber samples chunk k+1 on a helper thread while chunk k
    decodes; it must count what the serial loop counts."""

    @staticmethod
    def decoder(kind):
        if kind == "bp":
            code = get_code("ldpc_121_80")
            return BpDecoder(code, BpConfig(max_iters=20)), code, [3.5, 4.0], 40
        if kind == "uncoded":
            return IdentityDecoder(), get_code("bch_15_7"), [3.0, 5.0], 200
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        return DecoderModel(cfg, code, seed=40, infer_only=True), code, [3.0, 5.0], 600

    @pytest.mark.parametrize("kind", ["bp", "uncoded", "crossmpt"])
    @pytest.mark.parametrize("bound", ["min_errors", "max_bits"])
    def test_counts_what_the_serial_loop_counts(self, monkeypatch, kind, bound):
        decoder, code, points, min_errors = self.decoder(kind)
        frames = 64
        if bound == "min_errors":
            stop = StopRule(min_errors=min_errors, max_bits=40 * frames * code.n)
        else:
            stop = StopRule(min_errors=10**9, max_bits=int(3.5 * frames * code.n))
        want = serial_ber(decoder, code, points, stop, seed=41, chunk_frames=frames)
        bp_calls = []
        real_bp = evaluation.bp_decode_batch

        def counted(*args, **kwargs):
            bp_calls.append(len(args[0]))
            return real_bp(*args, **kwargs)

        monkeypatch.setattr(evaluation, "bp_decode_batch", counted)
        report = estimate_ber(decoder, code, points, stop, seed=41, chunk_frames=frames)
        got = [
            {"bits": r.bits_sent, "bit_errors": r.bit_errors, "frames": r.frames_sent,
             "frame_errors": r.frame_errors, "per_bit": r.per_bit_errors}
            for r in report.rows
        ]
        for g, w in zip(got, want, strict=True):
            assert {k: v for k, v in g.items() if k != "per_bit"} == {
                k: v for k, v in w.items() if k != "per_bit"}
            assert np.array_equal(g["per_bit"], w["per_bit"])
            if bound == "min_errors":  # stopped in the middle of the point
                assert g["bit_errors"] >= min_errors and frames < g["frames"]
                assert g["bits"] < stop.max_bits
            else:
                assert g["frames"] == 4 * frames and g["bit_errors"] < stop.min_errors
        if kind == "bp":  # one BP call per counted chunk, none speculative
            assert bp_calls == [frames] * (sum(r.frames_sent for r in report.rows) // frames)

    @staticmethod
    def tracked_sampler(monkeypatch, fail_chunk=None, hold_s=0.2):
        """Replaces evaluation.sample_batch with one that holds each chunk
        after chunk 0 for hold_s and can raise on one chunk. Returns the
        list of jobs still running and an event set when chunk 1 starts."""
        running = []
        chunk_1_started = threading.Event()
        real = evaluation.sample_batch

        def spy(*args, **kwargs):
            chunk = args[4][-1]
            running.append(chunk)
            try:
                if chunk == 1:
                    chunk_1_started.set()
                if chunk == fail_chunk:
                    raise RuntimeError(f"sampling failed on chunk {chunk}")
                if chunk:
                    time.sleep(hold_s)
                return real(*args, **kwargs)
            finally:
                running.remove(chunk)

        monkeypatch.setattr(evaluation, "sample_batch", spy)
        return running, chunk_1_started

    def test_decoder_error_propagates_unchanged_after_sampling_ends(self, monkeypatch):
        # chunk 0's decode raises while chunk 1 is being sampled
        running, chunk_1_started = self.tracked_sampler(monkeypatch)
        error = FloatingPointError("logits are not finite")

        class Diverged(IdentityDecoder):
            def decode_batch(self, batch):
                assert chunk_1_started.wait(timeout=10)
                raise error

        code = get_code("hamming_7_4")
        with pytest.raises(FloatingPointError) as info:
            estimate_ber(Diverged(), code, [3.0], StopRule(min_errors=10**9, max_bits=4 * 16 * 7),
                         seed=42, chunk_frames=16)
        assert info.value is error
        assert running == []

    def test_no_sampling_job_outlives_a_stop_on_min_errors(self, monkeypatch):
        running, chunk_1_started = self.tracked_sampler(monkeypatch)

        class Waits(IdentityDecoder):
            def decode_batch(self, batch):
                assert chunk_1_started.wait(timeout=10)
                return super().decode_batch(batch)

        code = get_code("hamming_7_4")
        report = estimate_ber(Waits(), code, [3.0], StopRule(min_errors=1, max_bits=4 * 64 * 7),
                              seed=43, chunk_frames=64)
        assert report.rows[0].frames_sent == 64
        assert running == []

    def test_sampling_error_propagates(self, monkeypatch):
        running, _ = self.tracked_sampler(monkeypatch, fail_chunk=1)
        code = get_code("hamming_7_4")
        with pytest.raises(RuntimeError, match="chunk 1"):
            estimate_ber(IdentityDecoder(), code, [3.0],
                         StopRule(min_errors=10**9, max_bits=4 * 16 * 7), seed=44, chunk_frames=16)
        assert running == []

    def test_row_slices_never_wait_behind_sampling(self, monkeypatch):
        # chunk 1's sampling blocks until a helper thread has decoded a row
        # slice of chunk 0; a slice queued behind it would wait the timeout
        monkeypatch.setattr(parallel, "_cores", lambda: 2)
        monkeypatch.setattr(parallel, "_helpers", None)
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, code, seed=45, infer_only=True)
        sliced = threading.Event()
        waited = []
        real_logits = model.logits
        real_sample = evaluation.sample_batch

        def logits(mag, syndromes, capture=None):
            if threading.current_thread() is not threading.main_thread():
                sliced.set()
            return real_logits(mag, syndromes, capture)

        def sampler(*args, **kwargs):
            if args[4][-1] == 1:
                waited.append(sliced.wait(timeout=10))
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(model, "logits", logits)
        monkeypatch.setattr(evaluation, "sample_batch", sampler)
        try:
            estimate_ber(model, code, [3.0], StopRule(min_errors=10**9, max_bits=2 * 8 * code.n),
                         seed=46, chunk_frames=8)
        finally:
            for lane in parallel._helpers[1]:
                lane.shutdown()
        assert waited == [True]


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
        assert check["cross_matches"] and not check["self_matches"]
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

    def test_crossed_maps_are_numbered_by_branch_in_list_order(self):
        code = get_code("bch_15_7")
        ens = build_ensemble(code, 2, base=ModelConfig(variant=Variant.FCROSSMPT, n_layers=2, embed_dim=8))
        assert ens.pcms[0] != ens.pcms[1]
        # both list orders, so that one of them differs from the fused sum's canonical order
        for pcms in (ens.pcms, ens.pcms[::-1]):
            model = CrossEDModel(replace(ens, pcms=pcms), seed=18, infer_only=True)
            smp = sample(model.code, NoiseSpec.for_code(code, 5.0, seed=17), policy="random")
            dumps = dump_attention(model, smp)
            assert [(d["branch"], d["layer"]) for d in dumps] == [(0, 1), (0, 2), (1, 1), (1, 2)]
            for entry in dumps:
                h = pcms[entry["branch"]].bits
                assert ((entry["mag_to_syn"] == 0) == (h.T == 0)).all()
                assert ((entry["syn_to_mag"] == 0) == (h == 0)).all()
            assert [d["layer"] for d in dump_attention(model, smp, layer_range=(2, 2))] == [2, 2]

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
