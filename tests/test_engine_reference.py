"""The engine against its reference (`reference_autodiff`, the engine whose
Tensors kept every output): outputs, losses and gradients must be equal bit
for bit, on every primitive and on every model variant."""

import numpy as np
import pytest

import reference_autodiff
from crossmpt import autodiff, models, training
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code
from crossmpt.ensemble import build_ensemble, crossed_forward
from crossmpt.masks import NEG_INF
from crossmpt.models import ModelConfig, Variant, forward_arrays, init_params

DTYPES = [np.float64, np.float32]
_MASK = np.where(np.eye(4, dtype=bool) | (np.arange(4) % 2 == 0), 0.0, NEG_INF)

# (name, parameter shapes, graph over an engine module)
PRIMITIVES = [
    ("matmul", [(2, 3, 4), (4, 5)], lambda e, a, b: e.matmul(a, b)),
    ("matmul_batched", [(2, 3, 4), (2, 4, 5)], lambda e, a, b: e.matmul(a, b)),
    ("matmul_broadcast", [(3, 4), (2, 4, 5)], lambda e, a, b: e.matmul(a, b)),
    ("transpose", [(3, 4)], lambda e, a: e.transpose(a)),
    ("add", [(3, 4), (4,)], lambda e, a, b: e.add(a, b)),
    ("mul", [(3, 4), (3, 1)], lambda e, a, b: e.mul(a, b)),
    ("neg", [(3, 4)], lambda e, a: e.neg(a)),
    ("scale", [(3, 4)], lambda e, a: e.scale(a, 0.3)),
    ("concat", [(3, 4), (2, 4)], lambda e, a, b: e.concat([a, b])),
    ("narrow", [(3, 4)], lambda e, a: e.narrow(a, 1, 3)),
    ("reshape", [(3, 4)], lambda e, a: e.reshape(a, (12,))),
    ("reduce_sum", [(3, 4)], lambda e, a: e.reduce_sum(a)),
    ("masked_softmax", [(2, 4, 4)], lambda e, a: e.masked_softmax(a, _MASK)),
    ("layer_norm", [(3, 4), (4,), (4,)], lambda e, a, g, b: e.layer_norm(a, g, b)),
    ("gelu", [(3, 4)], lambda e, a: e.gelu(a)),
    ("softplus", [(3, 4)], lambda e, a: e.softplus(a)),
    ("ffn", [(3, 4), (4, 6), (6,), (6, 4), (4,)], lambda e, *p: e.ffn(*p)),
    # one tensor read by several consumers: gradients accumulate in graph order
    ("shared", [(2, 3, 4), (4, 4)],
     lambda e, x, w: e.add(e.gelu(e.matmul(x, w)), e.mul(x, e.matmul(x, w)))),
]


def _bits(arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _primitive_run(engine, shapes, build, dtype):
    rng = np.random.default_rng(len(shapes))
    params = [engine.parameter(3.0 * rng.standard_normal(s), dtype=dtype) for s in shapes]
    out = build(engine, *params)
    out.backward(rng.standard_normal(out.shape).astype(dtype))
    return _bits([out.data] + [p.grad for p in params])


@pytest.mark.parametrize("name,shapes,build", [pytest.param(*p, id=p[0]) for p in PRIMITIVES])
@pytest.mark.parametrize("dtype", DTYPES)
def test_primitive_matches_reference_bitwise(name, shapes, build, dtype):
    ref = _primitive_run(reference_autodiff, shapes, build, dtype)
    got = _primitive_run(autodiff, shapes, build, dtype)
    assert got == ref, name


def _model_run(engine, monkeypatch, cfg, code, ens, dtype):
    """Loss and every parameter gradient of one step, with the model and the
    loss built on `engine`."""
    with monkeypatch.context() as m:
        m.setattr(models, "ad", engine)
        m.setattr(training, "ad", engine)
        params = init_params(cfg, None if cfg.code_agnostic else code, seed=5, dtype=dtype)
        sampling = ens.branch_code() if ens is not None else code
        batch = sample_batch(sampling, NoiseSpec.for_code(sampling, 4.0, seed=6), 8,
                             policy="random")
        if ens is not None:
            logits = crossed_forward(params, ens, batch.mag, list(batch.syndromes))
        else:
            logits = forward_arrays(params, cfg, code.pcm, batch.mag, batch.syndromes[0])
        total = training.loss(logits, batch.target)
        total.backward()
        return {"loss": total.data.tobytes(), "logits": logits.data.tobytes(),
                **{name: p.grad.tobytes() for name, p in params.items()}}


MODELS = [
    ("crossmpt", Variant.CROSSMPT, "pre", 0),
    ("crossmpt_post", Variant.CROSSMPT, "post", 0),
    ("ecct", Variant.ECCT, "pre", 0),
    ("ecct_fully_masked", Variant.ECCT_FULLY_MASKED, "pre", 0),
    ("fcrossmpt", Variant.FCROSSMPT, "pre", 0),
    ("crossed_p2", Variant.FCROSSMPT, "pre", 2),
]


@pytest.mark.parametrize("name,variant,norm_order,p", [pytest.param(*m, id=m[0]) for m in MODELS])
@pytest.mark.parametrize("dtype", DTYPES)
def test_model_gradients_match_reference_bitwise(monkeypatch, name, variant, norm_order, p, dtype):
    code = get_code("bch_15_7")
    cfg = ModelConfig(variant=variant, n_layers=2, embed_dim=16, heads=2, norm_order=norm_order)
    ens = build_ensemble(code, p, base=cfg) if p else None
    ref = _model_run(reference_autodiff, monkeypatch, cfg, code, ens, dtype)
    got = _model_run(autodiff, monkeypatch, cfg, code, ens, dtype)
    assert got.keys() == ref.keys()
    assert [k for k in ref if got[k] != ref[k]] == [], name
