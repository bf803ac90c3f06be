"""Sum-product and min-sum belief propagation on the Tanner graph.

Flooding schedule, channel LLR convention 2y/sigma^2 (positive LLR means bit
0), hard decision each iteration, optional early stop on a zero syndrome.
The decoder is vectorized over a batch of frames; per-frame results are
identical to decoding each frame alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BinaryMatrix

__all__ = ["TannerGraph", "BpConfig", "bp_decode", "bp_decode_batch"]

_TANH_CLIP = 1.0 - 1e-12


class TannerGraph:
    """Bipartite adjacency of a PCM with padded edge-index tables for
    vectorized message passing."""

    def __init__(self, h: BinaryMatrix):
        self.h = h
        self.m, self.n = h.shape
        checks, vars_ = np.nonzero(h.bits)
        self.check_of_edge = checks.astype(np.int64)
        self.var_of_edge = vars_.astype(np.int64)
        self.n_edges = len(checks)
        if self.n_edges != h.popcount():
            raise AssertionError("edge count mismatch")
        self._cn_edges, self._cn_pad = _padded_groups(self.check_of_edge, self.m)
        self._vn_edges, self._vn_pad = _padded_groups(self.var_of_edge, self.n)

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """H @ bits mod 2, batched over leading axes."""
        return ((np.asarray(bits, dtype=np.int64) @ self.h.bits.T.astype(np.int64)) & 1).astype(np.uint8)


def _padded_groups(owner: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge indices grouped by owner, padded to the max degree.

    Returns (table (groups, dmax) of edge indices, pad mask (True where
    padding)). Padded slots point at edge 0 and are neutralized by callers.
    """
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


@dataclass(frozen=True)
class BpConfig:
    max_iters: int = 20
    algorithm: str = "sum_product"  # or "min_sum"
    early_stop: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.algorithm not in ("sum_product", "min_sum"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def _excl_prod(t: np.ndarray) -> np.ndarray:
    """Product over the last axis excluding each position (prefix * suffix)."""
    pre = np.ones_like(t)
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.ones_like(t)
    np.cumprod(t[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return pre * suf


def _excl_min(t: np.ndarray) -> np.ndarray:
    """Min over the last axis excluding each position."""
    pre = np.full_like(t, np.inf)
    np.minimum.accumulate(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.full_like(t, np.inf)
    np.minimum.accumulate(t[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    return np.minimum(pre, suf)


def bp_decode_batch(
    llr: np.ndarray,
    graph: TannerGraph,
    cfg: BpConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a (B, n) batch of LLR vectors.

    Returns (hard decisions (B, n), iterations used (B,), converged (B,)).
    A frame's output is frozen at its first zero-syndrome iteration.
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    if not np.isfinite(llr).all():
        raise ValueError("LLR values must be finite")
    batch = llr.shape[0]
    v2c = llr[:, graph.var_of_edge].copy()
    out = np.zeros((batch, graph.n), dtype=np.uint8)
    iters = np.full(batch, cfg.max_iters, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)

    cn_e, cn_pad = graph._cn_edges, graph._cn_pad
    vn_e, vn_pad = graph._vn_edges, graph._vn_pad

    for it in range(1, cfg.max_iters + 1):
        # check-node update (extrinsic over each check's edges)
        gathered = v2c[:, cn_e]
        if cfg.algorithm == "sum_product":
            t = np.clip(np.tanh(0.5 * gathered), -_TANH_CLIP, _TANH_CLIP)
            t[:, cn_pad] = 1.0
            ext = np.clip(_excl_prod(t), -_TANH_CLIP, _TANH_CLIP)
            msgs = 2.0 * np.arctanh(ext)
        else:
            signs = np.where(gathered < 0, -1.0, 1.0)
            signs[:, cn_pad] = 1.0
            mags = np.abs(gathered)
            mags[:, cn_pad] = np.inf
            msgs = _excl_prod(signs) * _excl_min(mags)
        c2v = np.empty_like(v2c)
        c2v[:, cn_e[~cn_pad]] = msgs[:, ~cn_pad]

        # variable-node update and posterior
        incoming = c2v[:, vn_e]
        incoming[:, vn_pad] = 0.0
        totals = incoming.sum(axis=-1)
        posterior = llr + totals
        v2c = (posterior[:, graph.var_of_edge]) - c2v

        hd = (posterior < 0).astype(np.uint8)
        if cfg.early_stop:
            zero_syn = ~graph.syndrome(hd).any(axis=-1)
            newly = zero_syn & ~done
            out[newly] = hd[newly]
            iters[newly] = it
            done |= newly
            if done.all():
                break
    converged = done.copy()
    if not cfg.early_stop:
        hd = (posterior < 0).astype(np.uint8)
        converged = ~graph.syndrome(hd).any(axis=-1)
        out = hd
    else:
        out[~done] = hd[~done]
    return out, iters, converged


def bp_decode(
    llr: np.ndarray,
    graph: TannerGraph,
    cfg: BpConfig,
) -> tuple[np.ndarray, int, bool]:
    """Decode one LLR vector; returns (decision, iterations_used, converged)."""
    out, iters, conv = bp_decode_batch(np.asarray(llr)[None, :], graph, cfg)
    return out[0], int(iters[0]), bool(conv[0])
