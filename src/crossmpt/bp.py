"""Sum-product and min-sum belief propagation on the Tanner graph.

Flooding schedule, channel LLR convention 2y/sigma^2 (positive LLR means bit
0), hard decision each iteration, and a frame stops at its first zero
syndrome.
The decoder is vectorized over a batch of frames; per-frame results are
identical to decoding each frame alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import TannerGraph

__all__ = ["TannerGraph", "BpConfig", "bp_decode", "bp_decode_batch"]

_TANH_CLIP = 1.0 - 1e-12


@dataclass(frozen=True)
class BpConfig:
    max_iters: int = 20
    algorithm: str = "sum_product"  # or "min_sum"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.algorithm not in ("sum_product", "min_sum"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def _excl_prod(t: np.ndarray) -> np.ndarray:
    """Product over axis 1 excluding each position (prefix * suffix).

    The prefix and suffix products multiply in the order of a cumulative
    product, one slice of the short slot axis at a time.
    """
    d = t.shape[1]
    pre = np.empty_like(t)
    suf = np.empty_like(t)
    pre[:, :1] = 1.0
    suf[:, -1:] = 1.0
    for j in range(1, d):
        np.multiply(pre[:, j - 1], t[:, j - 1], out=pre[:, j])
        np.multiply(suf[:, d - j], t[:, d - j], out=suf[:, d - j - 1])
    pre *= suf
    return pre


def _excl_min(t: np.ndarray) -> np.ndarray:
    """Min over axis 1 excluding each position."""
    pre = np.full_like(t, np.inf)
    np.minimum.accumulate(t[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.full_like(t, np.inf)
    np.minimum.accumulate(t[:, :0:-1], axis=1, out=suf[:, -2::-1])
    return np.minimum(pre, suf)


def bp_decode_batch(
    llr: np.ndarray,
    graph: TannerGraph,
    cfg: BpConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (B, n) batch of LLR vectors.

    Returns (hard decisions (B, n), iterations used (B,), converged (B,)).
    A frame's output is frozen at its first zero-syndrome iteration and the
    frame leaves the working arrays; rows never interact, so every remaining
    frame sees the same arithmetic as in a full batch. A frame that never
    reaches a zero syndrome keeps its last decision after max_iters.
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    if not np.isfinite(llr).all():
        raise ValueError("LLR values must be finite")
    batch = llr.shape[0]
    v2c = llr[:, graph.var_of_edge]
    out = np.zeros((batch, graph.n), dtype=np.uint8)
    iters = np.full(batch, cfg.max_iters, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)  # batch rows of the working arrays

    cn_e, cn_pad = graph._cn_edges, graph._cn_pad
    vn_e, vn_pad = graph._vn_edges, graph._vn_pad

    for it in range(1, cfg.max_iters + 1):
        # check-node update (extrinsic over each check's edges)
        gathered = v2c[:, cn_e]
        if cfg.algorithm == "sum_product":
            # in place on the gathered and product arrays, same operations
            t = np.multiply(gathered, 0.5, out=gathered)
            np.tanh(t, out=t)
            np.clip(t, -_TANH_CLIP, _TANH_CLIP, out=t)
            t[:, cn_pad] = 1.0
            msgs = _excl_prod(t)
            np.clip(msgs, -_TANH_CLIP, _TANH_CLIP, out=msgs)
            np.arctanh(msgs, out=msgs)
            np.multiply(msgs, 2.0, out=msgs)
        else:
            signs = np.where(gathered < 0, -1.0, 1.0)
            signs[:, cn_pad] = 1.0
            mags = np.abs(gathered)
            mags[:, cn_pad] = np.inf
            msgs = _excl_prod(signs) * _excl_min(mags)
        c2v = msgs.reshape(len(msgs), -1)[:, graph._cn_slot]

        # variable-node update and posterior
        incoming = c2v[:, vn_e]
        incoming[:, vn_pad] = 0.0
        posterior = incoming.sum(axis=-1)
        posterior += llr
        hd = (posterior < 0).astype(np.uint8)
        zero_syn = ~graph.syndrome(hd).any(axis=-1)
        if zero_syn.any():
            rows = active[zero_syn]
            out[rows] = hd[zero_syn]
            iters[rows] = it
            converged[rows] = True
            keep = ~zero_syn
            active = active[keep]
            llr, posterior, c2v, hd = llr[keep], posterior[keep], c2v[keep], hd[keep]
            if not active.size:
                break
        v2c = posterior[:, graph.var_of_edge]
        v2c -= c2v
    out[active] = hd
    return out, iters, converged


def bp_decode(
    llr: np.ndarray,
    graph: TannerGraph,
    cfg: BpConfig,
) -> tuple[np.ndarray, int, bool]:
    """Decode one LLR vector; returns (decision, iterations_used, converged)."""
    out, iters, conv = bp_decode_batch(np.asarray(llr)[None, :], graph, cfg)
    return out[0], int(iters[0]), bool(conv[0])
