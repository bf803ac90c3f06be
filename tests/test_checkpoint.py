import errno
import io
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import rewrite_checkpoint_header
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from crossmpt.codes import get_code
from crossmpt.ensemble import build_ensemble
from crossmpt.gf2 import BinaryMatrix, rank
from crossmpt.models import DecoderModel, ModelConfig, Variant, init_params
from crossmpt.optim import AdamState
from crossmpt.training import TrainConfig, train


def test_model_checkpoint_round_trip_is_exact(tmp_path):
    code = get_code("bch_15_7")
    cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
    params = init_params(cfg, code, seed=5)
    adam = AdamState.for_params(params)
    adam.t = 17
    for k in adam.m:
        adam.m[k] += 0.125
    path = save_checkpoint(
        tmp_path / "ck.npz", model_cfg=cfg, codes=[code], params=params,
        seed=5, step=340, epoch=17, adam=adam,
    )
    ck = load_checkpoint(path)
    assert ck.kind == "model"
    assert ck.model_cfg == cfg
    assert ck.header["step"] == 340 and ck.header["epoch"] == 17
    assert set(ck.params) == set(params)
    for name in params:
        assert ck.params[name].data.tobytes() == params[name].data.tobytes()
        assert ck.adam.m[name].tobytes() == adam.m[name].tobytes()
        assert ck.adam.v[name].tobytes() == adam.v[name].tobytes()
    assert ck.adam.t == 17
    assert ck.codes["bch_15_7"].pcm == code.pcm


def test_ensemble_checkpoint_embeds_branch_pcms(tmp_path):
    code = get_code("bch_31_21")
    base = ModelConfig(variant=Variant.FCROSSMPT, n_layers=1, embed_dim=8)
    ens = build_ensemble(code, 3, base=base)
    params = init_params(base, None, seed=6)
    path = save_checkpoint(
        tmp_path / "ens.npz", model_cfg=base, codes=[code], params=params,
        seed=6, step=0, epoch=0, branch_pcms=list(ens.pcms),
    )
    ck = load_checkpoint(path)
    assert ck.kind == "ensemble"
    assert len(ck.branch_pcms) == 3
    for stored, built in zip(ck.branch_pcms, ens.pcms):
        assert stored == built


def test_ensemble_checkpoint_without_branch_pcms_is_refused(tmp_path):
    # the stored branch PCMs are the one record of the branch count
    base = ModelConfig(variant=Variant.FCROSSMPT, n_layers=1, embed_dim=8)
    path = save_checkpoint(
        tmp_path / "ens.npz", model_cfg=base, codes=[get_code("bch_31_21")],
        params=init_params(base, None, seed=6), seed=6, step=0, epoch=0,
    )
    assert load_checkpoint(path).kind == "model"
    _rewrite_header(path, kind="ensemble")
    with pytest.raises(CheckpointError, match="branch"):
        load_checkpoint(path)


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.ones(3))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


def test_rejects_future_version(tmp_path):
    code = get_code("hamming_7_4")
    cfg = ModelConfig(variant=Variant.ECCT, n_layers=1, embed_dim=8)
    params = init_params(cfg, code, seed=1)
    path = save_checkpoint(
        tmp_path / "ck.npz", model_cfg=cfg, codes=[code], params=params,
        seed=1, step=0, epoch=0,
    )
    _rewrite_header(path, version=99)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _rewrite_arrays(path, **changes):
    data = dict(np.load(path, allow_pickle=False))
    data.update(changes)
    np.savez(path, **data)


def _rewrite_header(path, **changes):
    """Set top-level header fields of a saved checkpoint, in place."""
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"]).decode())
    header.update(changes)
    _rewrite_arrays(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))


def test_rejects_registry_code_whose_stored_pcm_differs(tmp_path):
    code = get_code("hamming_7_4")
    cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
    path = save_checkpoint(
        tmp_path / "ck.npz", model_cfg=cfg, codes=[code],
        params=init_params(cfg, code, seed=1), seed=1, step=0, epoch=0,
    )
    # a column permutation keeps the PCM full-rank but changes the code
    other = code.pcm.bits[:, ::-1]
    assert rank(BinaryMatrix(other)) == code.n - code.k and not np.array_equal(other, code.pcm.bits)
    _rewrite_arrays(path, **{"code_pcm:hamming_7_4": other})
    with pytest.raises(CheckpointError, match="hamming_7_4"):
        load_checkpoint(path)


class _DiskFull:
    """File proxy whose write stores half the data, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        data = bytes(data)
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_leaves_no_file_at_the_target(tmp_path, monkeypatch):
    code = get_code("hamming_7_4")
    cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8)
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(io, "open", failing_open)
    target = tmp_path / "ck.npz"
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(
            target, model_cfg=cfg, codes=[code],
            params=init_params(cfg, code, seed=1), seed=1, step=0, epoch=0,
        )
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


class TestRetiredKeys:
    """Headers written before a setting was removed: the value the program
    still implements loads and resumes unchanged; any other is refused."""

    CFG = TrainConfig(codes=("hamming_7_4",), variant="crossmpt", n_layers=1, embed_dim=8,
                      epochs=2, batches_per_epoch=3, batch_size=8, seed=21)

    @staticmethod
    def logits(path):
        ck = load_checkpoint(path)
        code = ck.codes["hamming_7_4"]
        batch = sample_batch(code, NoiseSpec.for_code(code, 4.0, seed=22), 16, policy="random")
        model = DecoderModel(ck.model_cfg, code, params=ck.params, infer_only=True)
        return model.logits_batch(batch.mag, batch.syndromes[0]).data.tobytes()

    @staticmethod
    def params(path):
        return {k: p.data.tobytes() for k, p in load_checkpoint(path).params.items()}

    def test_old_header_with_kept_values_loads_and_resumes_bitwise(self, tmp_path):
        whole = train(self.CFG, out_dir=tmp_path / "whole")
        partial = train(self.CFG, out_dir=tmp_path / "partial", interrupt_after=1)
        old = tmp_path / "old.npz"
        shutil.copy(partial.checkpoint_path, old)
        rewrite_checkpoint_header(old)
        assert self.logits(old) == self.logits(partial.checkpoint_path)
        resumed = train(self.CFG, out_dir=tmp_path / "resumed", resume_from=old)
        assert resumed.epoch_losses == whole.epoch_losses
        assert self.params(resumed.checkpoint_path) == self.params(whole.checkpoint_path)

    def test_old_ensemble_header_decodes_bitwise(self, tmp_path):
        # the branch count comes from the stored branch PCMs; the header's
        # older records of it are ignored
        from crossmpt.cli import _decoder_from_checkpoint

        cfg = replace(self.CFG, codes=("bch_31_21",), variant="crossed", p=3, epochs=1)
        report = train(cfg, out_dir=tmp_path)
        old = tmp_path / "old.npz"
        shutil.copy(report.checkpoint_path, old)
        rewrite_checkpoint_header(old)
        code = get_code("bch_31_21")
        new_dec = _decoder_from_checkpoint(report.checkpoint_path, code)
        old_dec = _decoder_from_checkpoint(str(old), code)
        assert old_dec.ens.pcms == new_dec.ens.pcms and old_dec.ens.p == 3
        batch = sample_batch(new_dec.code, NoiseSpec.for_code(new_dec.code, 4.0, seed=23), 16,
                             policy="random")
        assert (old_dec.logits_batch(batch.mag, list(batch.syndromes)).data.tobytes()
                == new_dec.logits_batch(batch.mag, list(batch.syndromes)).data.tobytes())

    @pytest.mark.parametrize(
        "key,value", [("norm_order", "post"), ("per_batch_ebn0", True),
                      ("code_sampling", "proportional"), ("clip_norm", 1e300),
                      ("ffn_expansion", 2)],
    )
    def test_other_values_are_refused(self, tmp_path, key, value):
        report = train(self.CFG, out_dir=tmp_path, interrupt_after=1)
        rewrite_checkpoint_header(report.checkpoint_path, **{key: value})
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(report.checkpoint_path)


class TestStoredCodes:
    """A code outside the registry is rebuilt from its stored PCM by the
    constructor every PCM file goes through."""

    @staticmethod
    def save(tmp_path, code):
        cfg = ModelConfig(variant=Variant.FCROSSMPT, n_layers=1, embed_dim=8)
        return save_checkpoint(
            tmp_path / "ck.npz", model_cfg=cfg, codes=[code],
            params=init_params(cfg, None, seed=1), seed=1, step=0, epoch=0,
        )

    def test_non_registry_code_round_trips(self, tmp_path):
        # the (15,7) BCH matrix under another name: a cyclic code outside the registry
        code = replace(get_code("bch_15_7"), name="bch_mine")
        ck = load_checkpoint(self.save(tmp_path, code))
        assert ck.codes["bch_mine"] == code

    def test_rank_deficient_stored_pcm_is_refused(self, tmp_path):
        code = replace(get_code("hamming_7_4"), name="hamming_mine")
        path = self.save(tmp_path, code)
        bits = code.pcm.bits.copy()
        bits[2] = bits[0] ^ bits[1]
        _rewrite_arrays(path, **{"code_pcm:hamming_mine": bits})
        with pytest.raises(CheckpointError, match="hamming_mine"):
            load_checkpoint(path)
