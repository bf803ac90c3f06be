import json

import numpy as np
import pytest

from crossmpt.autodiff import Tensor


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


# Settings removed from the program, with the one value a checkpoint header
# may still hold for each, and the header sections that held it.
RETIRED_DEFAULTS = {"norm_order": "pre", "per_batch_ebn0": False, "code_sampling": "uniform"}
RETIRED_SECTIONS = {"norm_order": ("model", "train_cfg"), "per_batch_ebn0": ("train_cfg",),
                    "code_sampling": ("train_cfg",)}


def rewrite_checkpoint_header(path, **retired) -> None:
    """Write the removed settings into a checkpoint's header, in place, as a
    header written before their removal held them: the defaults, overridden
    by `retired`."""
    data = dict(np.load(path, allow_pickle=False))
    header = json.loads(bytes(data["__header__"]).decode())
    for key, value in {**RETIRED_DEFAULTS, **retired}.items():
        for section in RETIRED_SECTIONS[key]:
            header[section][key] = value
    data["__header__"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, **data)


def fd_grads(params: dict[str, Tensor], fn, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of the scalar fn() w.r.t. every parameter."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn()
            flat[i] = orig - eps
            f_minus = fn()
            flat[i] = orig
            gf[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = g
    return grads


def backprop_grads(params: dict[str, Tensor], fn) -> dict[str, np.ndarray]:
    for p in params.values():
        p.zero_grad()
    loss = fn(build=True)
    loss.backward()
    return {name: np.array(p.grad) for name, p in params.items()}


@pytest.fixture(scope="session")
def toy_pcms():
    """Small random PCMs without zero rows/columns, for mask property tests."""
    rng = np.random.default_rng(42)
    out = []
    while len(out) < 20:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 13))
        h = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if h.sum(axis=0).min() > 0 and h.sum(axis=1).min() > 0:
            out.append(h)
    return out
