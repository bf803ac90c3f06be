import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from crossmpt import autodiff as ad
from crossmpt import training
from crossmpt.channel import NoiseSpec, make_invariance_pair, sample, sample_batch
from crossmpt.checkpoint import load_checkpoint
from crossmpt.codes import get_code
from crossmpt.models import DecoderModel, ModelConfig, Variant
from crossmpt.training import (
    ConfigMismatchError,
    NumericFailure,
    TrainConfig,
    coerce_config,
    loss,
    parse_config_file,
    train,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestLoss:
    def test_confident_correct_no_flip_goes_to_zero(self):
        # target 0 with sigma(f) -> 1 contributes -log sigma(f) -> 0
        logits = ad.constant(np.full(6, 1e6))
        target = np.zeros(6)
        assert loss(logits, target).item() == 0.0

    def test_log2_at_the_single_uncertain_position(self):
        # f=0 at the flip position gives exactly log 2; confident elsewhere
        logits = ad.constant(np.array([0.0, 1e6, 1e6]))
        target = np.array([1.0, 0.0, 0.0])
        assert loss(logits, target).item() == pytest.approx(math.log(2.0), rel=1e-15)

    def test_matches_high_precision_direct_formula(self):
        # oracle: the textbook expression evaluated in 50-digit decimals
        getcontext().prec = 50
        rng = np.random.default_rng(7)
        logits = rng.uniform(-25, 25, size=12)
        target = rng.integers(0, 2, size=12).astype(float)
        expected = Decimal(0)
        for f, z in zip(logits, target):
            sig = 1 / (1 + (-Decimal(float(f))).exp())
            expected -= Decimal(float(z)) * (1 - sig).ln() + (1 - Decimal(float(z))) * sig.ln()
        ours = loss(ad.constant(logits), target).item()
        assert ours == pytest.approx(float(expected), rel=1e-12)

    def test_batch_mean_reduction(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((4, 6))
        target = rng.integers(0, 2, size=(4, 6)).astype(float)
        total = loss(ad.constant(logits), target).item()
        singles = [loss(ad.constant(logits[b]), target[b]).item() for b in range(4)]
        assert total == pytest.approx(np.mean(singles), rel=1e-12)

    def test_invariant_to_transmitted_codeword(self):
        code = get_code("bch_15_7")
        cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
        model = DecoderModel(cfg, code, seed=9)
        base = sample(code, NoiseSpec.for_code(code, 4.0, seed=10), policy="all_zero")
        ref_logits = model.logits_batch(base.mag[None, :], base.syndromes[0][None, :])
        ref = loss(ref_logits, base.target[None, :]).item()
        rng = np.random.default_rng(11)
        for _ in range(5):
            word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
            other = make_invariance_pair(code, base, word)
            logits = model.logits_batch(other.mag[None, :], other.syndromes[0][None, :])
            assert loss(logits, other.target[None, :]).item() == ref


SMOKE = TrainConfig(
    codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
    epochs=2, batches_per_epoch=30, batch_size=32, seed=3,
)


class TestTrainLoop:
    def test_smoke_run_loss_decreases(self, tmp_path):
        report = train(SMOKE, out_dir=tmp_path / "run")
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        # recorded-run regression values (seed 3, this exact config)
        assert report.epoch_losses[0] == pytest.approx(3.6074966185498574, rel=1e-6)
        assert report.epoch_losses[-1] == pytest.approx(3.4363368659878555, rel=1e-6)
        assert (tmp_path / "run" / "training_log.csv").exists()
        assert (tmp_path / "run" / "checkpoint_final.npz").exists()

    def test_lr_trace_endpoints(self, tmp_path):
        report = train(SMOKE, out_dir=tmp_path / "run")
        assert report.lr_trace[0] == pytest.approx(1e-4, rel=1e-12)
        assert report.lr_trace[-1] == pytest.approx(5e-7, rel=1e-12)

    def test_multi_code_needs_foundation_variant(self):
        with pytest.raises(ValueError, match="foundation"):
            TrainConfig(codes=("hamming_7_4", "bch_15_7"), variant="crossmpt",
                        epochs=1, batches_per_epoch=1, batch_size=4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_diagnostics(self, tmp_path):
        bad = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=1, batches_per_epoch=50, batch_size=16,
                          lr0=1e200, lr_min=1e198, seed=1)
        with pytest.raises(NumericFailure, match="epoch 0"):
            train(bad, out_dir=tmp_path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_aborts_at_its_own_step(self, monkeypatch, tmp_path):
        from crossmpt import parallel, training

        real_clip = training.clip_global_norm
        calls = []

        def poisoned_clip(params):
            calls.append(params)
            if len(calls) == 3:  # epoch 0, batch 2: the loss of this step is finite
                name = sorted(params)[0]
                params[name].grad = np.full_like(params[name].grad, np.inf)
            return real_clip(params)

        monkeypatch.setattr(training, "clip_global_norm", poisoned_clip)
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=1, batches_per_epoch=5, batch_size=8, seed=19)
        with pytest.raises(NumericFailure,
                           match=r"gradient norm inf at epoch 0 batch 2 \(code hamming_7_4"):
            train(cfg, out_dir=tmp_path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_steps_run_on_one_blas_thread_and_restore_the_count(self, monkeypatch, tmp_path):
        from crossmpt import parallel, training

        calls = parallel._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy does not bundle OpenBLAS")
        get, put = calls
        seen = []
        real_sample = training.sample_batch

        def spy(*args, **kwargs):
            seen.append(get())
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(training, "sample_batch", spy)
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=1, batches_per_epoch=2, batch_size=8, seed=23)
        before = get()
        put(2)
        try:
            train(cfg, out_dir=tmp_path)
            assert seen == [1, 1] and get() == 2
            with pytest.raises(NumericFailure):
                train(replace(cfg, lr0=1e200, lr_min=1e198, batches_per_epoch=50), out_dir=tmp_path / "nan")
            assert get() == 2
        finally:
            put(before)

    def test_foundation_multi_code_checkpoint_decodes_both(self, tmp_path):
        # one parameter set trained on two codes must decode both (and an
        # unseen code), with BER below uncoded on the trained ones
        from crossmpt.evaluation import StopRule, estimate_ber, uncoded_bpsk_ber

        cfg = TrainConfig(codes=("bch_15_7", "bch_31_16"), variant="fcrossmpt",
                          n_layers=2, embed_dim=16, epochs=8, batches_per_epoch=150,
                          batch_size=96, seed=5)
        report = train(cfg, out_dir=tmp_path / "f")
        ck = load_checkpoint(report.checkpoint_path)
        assert set(ck.codes) == {"bch_15_7", "bch_31_16"}
        for name in ("bch_15_7", "bch_31_16"):
            code = get_code(name)
            model = DecoderModel(ck.model_cfg, code, params=ck.params, infer_only=True)
            row = estimate_ber(model, code, [6.0], StopRule(120, 400_000), seed=6).rows[0]
            assert row.ber < uncoded_bpsk_ber(6.0, code.rate), name
        unseen = get_code("hamming_7_4")
        model = DecoderModel(ck.model_cfg, unseen, params=ck.params, infer_only=True)
        batch = sample_batch(unseen, NoiseSpec.for_code(unseen, 5.0, seed=6), 1, policy="random")
        assert model.decode_batch(batch).shape == (1, unseen.n)

    def test_float32_training_mode(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=1, batches_per_epoch=5, batch_size=8, seed=17, dtype="float32")
        report = train(cfg, out_dir=tmp_path / "f32")
        assert np.isfinite(report.epoch_losses).all()
        ck = load_checkpoint(report.checkpoint_path)
        assert all(p.data.dtype == np.float32 for p in ck.params.values())

    def test_periodic_checkpoints_written(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=3, batches_per_epoch=2, batch_size=4, seed=18,
                          checkpoint_every=1)
        train(cfg, out_dir=tmp_path / "ck")
        names = sorted(p.name for p in (tmp_path / "ck").glob("checkpoint_*.npz"))
        assert names == ["checkpoint_epoch0001.npz", "checkpoint_epoch0002.npz",
                         "checkpoint_final.npz"]

    def test_each_epoch_checkpoint_is_written_once(self, monkeypatch, tmp_path):
        # an interrupt at a periodic checkpoint's epoch writes that file once
        saved = []
        real_save = training.save_checkpoint

        def save_checkpoint(path, **kwargs):
            saved.append(Path(path).name)
            return real_save(path, **kwargs)

        monkeypatch.setattr(training, "save_checkpoint", save_checkpoint)
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=3, batches_per_epoch=1, batch_size=4, seed=19,
                          checkpoint_every=1)
        report = train(cfg, out_dir=tmp_path, interrupt_after=1)
        assert saved == ["checkpoint_epoch0001.npz"]
        assert report.checkpoint_path == str(tmp_path / "checkpoint_epoch0001.npz")

    def test_ensemble_variant_trains(self, tmp_path):
        cfg = TrainConfig(codes=("bch_15_7",), variant="crossed", p=2, n_layers=1,
                          embed_dim=8, epochs=1, batches_per_epoch=10, batch_size=16, seed=7)
        report = train(cfg, out_dir=tmp_path / "e")
        ck = load_checkpoint(report.checkpoint_path)
        assert ck.kind == "ensemble"
        assert len(ck.branch_pcms) == 2


class TestStepMemory:
    """A step's graphs (one per row half) die before the next step samples
    its batch, and backward keeps no interior gradient, so training holds one
    batch's graph."""

    def test_previous_step_graph_is_dead_when_the_next_step_starts(self, monkeypatch, tmp_path):
        from crossmpt import training

        real_loss, real_sample = training.loss, training.sample_batch
        steps, alive = [], []  # steps[s]: weak references to step s's loss graphs

        def spy_loss(logits, target):
            out = real_loss(logits, target)
            steps[-1] += [weakref.ref(logits.data), weakref.ref(out.data)]
            return out

        def spy_sample(*args, **kwargs):
            if steps:
                alive.append(any(ref() is not None for ref in steps[-1]))
            steps.append([])
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(training, "loss", spy_loss)
        monkeypatch.setattr(training, "sample_batch", spy_sample)
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                          epochs=2, batches_per_epoch=2, batch_size=8, seed=29)
        train(cfg, out_dir=tmp_path)
        assert [len(refs) for refs in steps] == [4] * 4  # two halves a step
        assert alive == [False] * 3

    def test_peak_memory_is_about_one_graph(self, monkeypatch, tmp_path):
        # numpy reports its buffers to tracemalloc; a step that kept the
        # previous graph or the interior gradients would peak near 2.5-3.5x,
        # and one whose graph kept every node output near 1.4x (0.9x now).
        # One graph's node-output bytes are every tracked result's output
        # size in one step, counted whether or not a closure saved it.
        from crossmpt import training

        real_record, real_sample = ad._record, training.sample_batch
        graph_bytes = []

        def spy_record(data, parents, backward):
            out = real_record(data, parents, backward)
            if out._node is not None:
                graph_bytes[-1] += out.data.nbytes
            return out

        def spy_sample(*args, **kwargs):
            graph_bytes.append(0)
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(ad, "_record", spy_record)
        monkeypatch.setattr(training, "sample_batch", spy_sample)
        raw = parse_config_file(CONFIGS / "desk_bch_15_7.cfg")
        cfg = replace(TrainConfig(**raw), epochs=1, batches_per_epoch=4)
        tracemalloc.start()
        try:
            train(cfg, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph_bytes) == 4 and min(graph_bytes) > 30e6
        assert peak <= 1.1 * max(graph_bytes), peak / max(graph_bytes)


class TestResume:
    def test_interrupt_and_resume_matches_straight_run_bitwise(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1,
                          embed_dim=8, epochs=4, batches_per_epoch=5, batch_size=8, seed=13)
        straight = train(cfg, out_dir=tmp_path / "straight")
        interrupted = train(cfg, out_dir=tmp_path / "part", interrupt_after=2)
        resumed = train(cfg, out_dir=tmp_path / "resumed", resume_from=interrupted.checkpoint_path)
        a = load_checkpoint(straight.checkpoint_path)
        b = load_checkpoint(resumed.checkpoint_path)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes(), name
        assert a.adam.t == b.adam.t
        for name in a.params:
            assert a.adam.m[name].tobytes() == b.adam.m[name].tobytes()
            assert a.adam.v[name].tobytes() == b.adam.v[name].tobytes()
        assert straight.epoch_losses == resumed.epoch_losses
        log = (tmp_path / "straight" / "training_log.csv").read_bytes()
        assert log == (tmp_path / "resumed" / "training_log.csv").read_bytes()

    def test_checkpoint_without_norm_columns_resumes_with_empty_cells(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1,
                          embed_dim=8, epochs=2, batches_per_epoch=3, batch_size=8, seed=16)
        straight = train(cfg, out_dir=tmp_path / "straight")
        partial = train(cfg, out_dir=tmp_path / "part", interrupt_after=1)
        data = dict(np.load(partial.checkpoint_path, allow_pickle=False))
        header = json.loads(bytes(data["__header__"]).decode())
        for key in ("grad_norm_mean", "grad_norm_max", "clip_frac"):
            del header["extra"][key]
        data["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **data)
        resumed = train(cfg, out_dir=tmp_path / "resumed", resume_from=old)
        assert resumed.epoch_losses == straight.epoch_losses
        want = (tmp_path / "straight" / "training_log.csv").read_text().splitlines()
        got = (tmp_path / "resumed" / "training_log.csv").read_text().splitlines()
        assert want[0] == got[0] == "epoch,mean_loss,lr,grad_norm_mean,grad_norm_max,clip_frac"
        first = want[1].split(",")
        assert got[1] == ",".join(first[:3] + ["", "", ""])
        assert got[2] == want[2]

    def test_resume_refuses_changed_batch_size(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1,
                          embed_dim=8, epochs=3, batches_per_epoch=4, batch_size=8, seed=14)
        partial = train(cfg, out_dir=tmp_path / "p", interrupt_after=1)
        changed = TrainConfig(**{**cfg.__dict__, "batch_size": 16})
        with pytest.raises(ConfigMismatchError, match="batch_size"):
            train(changed, out_dir=tmp_path / "r", resume_from=partial.checkpoint_path)

    def test_resume_refuses_changed_codes(self, tmp_path):
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1,
                          embed_dim=8, epochs=3, batches_per_epoch=4, batch_size=8, seed=15)
        partial = train(cfg, out_dir=tmp_path / "p", interrupt_after=1)
        changed = TrainConfig(**{**cfg.__dict__, "codes": ("bch_15_7",)})
        with pytest.raises(ConfigMismatchError, match="codes"):
            train(changed, out_dir=tmp_path / "r", resume_from=partial.checkpoint_path)


class TestNormColumns:
    def test_log_holds_the_pre_clip_norms_of_each_epoch(self, monkeypatch, tmp_path):
        from crossmpt import training

        real_clip = training.clip_global_norm
        norms = []

        def spy_clip(params):
            norms.append(real_clip(params))
            return norms[-1]

        monkeypatch.setattr(training, "clip_global_norm", spy_clip)
        cfg = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1,
                          embed_dim=8, epochs=2, batches_per_epoch=4, batch_size=8, seed=12)
        report = train(cfg, out_dir=tmp_path)
        for epoch in range(2):
            steps = norms[4 * epoch : 4 * epoch + 4]
            assert report.grad_norm_mean[epoch] == float(np.mean(steps))
            assert report.grad_norm_max[epoch] == max(steps)
            assert report.clip_frac[epoch] == sum(n > 1.0 for n in steps) / 4
        rows = (tmp_path / "training_log.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3:] for row in rows] == [
            [repr(report.grad_norm_mean[e]), repr(report.grad_norm_max[e]),
             repr(report.clip_frac[e])] for e in range(2)
        ]


INVARIANCE_CONFIGS = {
    "crossmpt": dict(codes=("bch_15_7",), variant="crossmpt"),
    "ecct": dict(codes=("hamming_7_4",), variant="ecct"),
    "fcrossmpt_mixture": dict(codes=("hamming_7_4", "bch_15_7"), variant="fcrossmpt"),
    "crossed_p2": dict(codes=("bch_15_7",), variant="crossed", p=2),
}


class TestThreadCountInvariance:
    """A step runs fixed row halves, so its loss and gradients, and a whole
    run, are bitwise the same on one core and on two."""

    @staticmethod
    def config(name, dtype, batch_size):
        return TrainConfig(**INVARIANCE_CONFIGS[name], n_layers=1, embed_dim=8, epochs=1,
                           batches_per_epoch=3, batch_size=batch_size, seed=31, dtype=dtype)

    @pytest.mark.parametrize("batch_size", [7, 1])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", list(INVARIANCE_CONFIGS))
    def test_step_and_run_are_bitwise_equal_at_one_and_two_cores(
        self, monkeypatch, tmp_path, name, dtype, batch_size
    ):
        from crossmpt import parallel, training
        from crossmpt.models import init_params

        cfg = self.config(name, dtype, batch_size)
        model_cfg = cfg.model_config()
        codes = [get_code(c) for c in cfg.codes]
        steps, runs = {}, {}
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "_cores", lambda cores=cores: cores)
            params = init_params(model_cfg, None if model_cfg.code_agnostic else codes[0],
                                 seed=4, dtype=np.dtype(dtype))
            outcome = []
            for code in codes:
                lane = training._Lane(cfg, model_cfg, code)
                batch = sample_batch(lane.sampling_code, lane.spec, batch_size, stream=(1, 0, 0))
                value = training._step_gradients(params, lane, batch)
                outcome.append((value, {k: p.grad.tobytes() for k, p in params.items()}))
            steps[cores] = outcome
            report = train(cfg, out_dir=tmp_path / str(cores))
            ck = load_checkpoint(report.checkpoint_path)
            runs[cores] = (
                report.epoch_losses,
                {k: p.data.tobytes() for k, p in ck.params.items()},
                {k: ck.adam.m[k].tobytes() + ck.adam.v[k].tobytes() for k in ck.params},
                (tmp_path / str(cores) / "training_log.csv").read_bytes(),
            )
        assert steps[1] == steps[2]
        assert runs[1] == runs[2]


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# desk run\n"
            "codes = bch_15_7, bch_31_16\n"
            "variant = fcrossmpt\n"
            "epochs = 3\n"
            "lr0 = 2e-4\n"
        )
        settings = parse_config_file(path)
        cfg = TrainConfig(**settings)
        assert cfg.codes == ("bch_15_7", "bch_31_16")
        assert cfg.epochs == 3
        assert cfg.lr0 == 2e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown training config key"):
            coerce_config({"optimizer": "sgd"})

    @pytest.mark.parametrize(
        "name", ["desk_bch_15_7.cfg", "paper_bch_31_16.cfg", "foundation_mixture.cfg",
                 "fcrossed_mixture.cfg"]
    )
    def test_shipped_configs_parse(self, name):
        path = CONFIGS / name
        cfg = TrainConfig(**parse_config_file(path))
        assert cfg.epochs >= 1 and cfg.codes

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(path)
