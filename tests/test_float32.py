"""float32 against float64 at the desk shape: logits at initialisation on
every bundled code and variant, and the epoch losses of a short run of the
desk config. float64 stays the default and the gradient gate; these bounds
say how far the float32 path may drift from it."""

from pathlib import Path

import numpy as np
import pytest

from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code, list_codes
from crossmpt.ensemble import build_ensemble, crossed_forward
from crossmpt.models import ModelConfig, Variant, forward_arrays, init_params
from crossmpt.training import TrainConfig, parse_config_file, train

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

LOGIT_BOUND = 1e-5  # max |l32 - l64| over max |l64|
LOSS_BOUND = 1e-6  # relative difference of each epoch loss
FRAMES = 16
EBN0 = 4.0


def _takes_p2(name: str) -> bool:
    try:
        build_ensemble(get_code(name), 2)
    except ValueError:
        return False
    return True


CASES = [
    (name, variant)
    for name in list_codes()
    for variant in ("crossmpt", "fcrossmpt", "ecct", "ecct_fully_masked", "crossed_p2")
    if variant != "crossed_p2" or _takes_p2(name)
]


def _logits(name: str, variant: str, dtype) -> np.ndarray:
    code = get_code(name)
    base = Variant.FCROSSMPT if variant == "crossed_p2" else Variant(variant)
    cfg = ModelConfig(variant=base, n_layers=2, embed_dim=32)
    params = init_params(cfg, None if cfg.code_agnostic else code, seed=0, dtype=dtype)
    ens = build_ensemble(code, 2, base=cfg) if variant == "crossed_p2" else None
    sampling = ens.branch_code() if ens is not None else code
    batch = sample_batch(sampling, NoiseSpec.for_code(sampling, EBN0, seed=1), FRAMES, policy="random")
    if ens is not None:
        out = crossed_forward(params, ens, batch.mag, list(batch.syndromes))
    else:
        out = forward_arrays(params, cfg, code.pcm, batch.mag, batch.syndromes[0])
    return out.data


@pytest.mark.parametrize("name,variant", CASES, ids=[f"{n}-{v}" for n, v in CASES])
def test_logits_at_initialisation(name, variant):
    l64 = _logits(name, variant, np.float64)
    l32 = _logits(name, variant, np.float32)
    assert l32.dtype == np.float32 and l64.dtype == np.float64
    scale = np.abs(l64).max()
    assert np.abs(l32.astype(np.float64) - l64).max() <= LOGIT_BOUND * scale


def test_desk_epoch_losses(tmp_path):
    settings = {**parse_config_file(CONFIGS / "desk_bch_15_7.cfg"), "epochs": 5, "batches_per_epoch": 10}
    losses = {
        dtype: np.array(train(TrainConfig(**settings, dtype=dtype), out_dir=tmp_path / dtype).epoch_losses)
        for dtype in ("float64", "float32")
    }
    rel = np.abs(losses["float32"] - losses["float64"]) / np.abs(losses["float64"])
    assert rel.max() <= LOSS_BOUND, rel
