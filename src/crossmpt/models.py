"""Transformer decoders over (magnitude, syndrome) inputs.

Four variants share one layer stack implementation:

* crossmpt — two masked cross-attention blocks per layer (magnitude queries
  syndrome under the PCM transpose, then syndrome queries the updated
  magnitude under the PCM); both blocks of a layer reuse the same
  projection, norm, and feed-forward parameters. Code-specific positional
  embeddings and a two-stage output head.
* fcrossmpt — same stack, but shared scalar embeddings for all magnitude and
  all syndrome positions and a length-invariant head (syndrome embedding
  resized through the PCM transpose and added to the magnitude embedding);
  no parameter shape depends on the code.
* ecct — masked self-attention over the concatenated sequence with depth-2
  connectivity masking.
* ecct_fully_masked — ecct with all magnitude-magnitude and
  syndrome-syndrome attention removed except the diagonal.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import BatchSample, hard_decision, stream_rng
from .codes import Code
from .gf2 import BinaryMatrix
from .masks import MaskMatrix, TannerGraph, tanner_graph
from .parallel import split_rows

__all__ = [
    "Variant",
    "ModelConfig",
    "param_shapes",
    "init_params",
    "param_count",
    "crossmpt_layer",
    "foundation_logits",
    "forward_arrays",
    "decide",
    "DecoderModel",
    "freeze",
]


class Variant(Enum):
    CROSSMPT = "crossmpt"
    FCROSSMPT = "fcrossmpt"
    ECCT = "ecct"
    ECCT_FULLY_MASKED = "ecct_fully_masked"


FFN_EXPANSION = 4  # FFN hidden width per embedding dimension


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the variant decides which embedding and
    output parameterization is legal."""

    variant: Variant = Variant.CROSSMPT
    n_layers: int = 6
    embed_dim: int = 128
    heads: int = 1

    def __post_init__(self):
        if min(self.n_layers, self.embed_dim, self.heads) < 1:
            raise ValueError("n_layers, embed_dim and heads must be >= 1")
        if self.embed_dim % self.heads != 0:
            raise ValueError("embed_dim must be divisible by heads")

    @property
    def code_agnostic(self) -> bool:
        return self.variant is Variant.FCROSSMPT


def _layer_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d = cfg.embed_dim
    e = FFN_EXPANSION
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        shapes[p + "w_q"] = (d, d)
        shapes[p + "w_k"] = (d, d)
        shapes[p + "w_v"] = (d, d)
        shapes[p + "attn_norm.gain"] = (d,)
        shapes[p + "attn_norm.bias"] = (d,)
        shapes[p + "ffn_norm.gain"] = (d,)
        shapes[p + "ffn_norm.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, e * d)
        shapes[p + "ffn.b1"] = (e * d,)
        shapes[p + "ffn.w2"] = (e * d, d)
        shapes[p + "ffn.b2"] = (d,)
    return shapes


def param_shapes(cfg: ModelConfig, code: Code | None) -> dict[str, tuple[int, ...]]:
    """Exact shape of every trainable array for this variant."""
    d = cfg.embed_dim
    shapes = _layer_shapes(cfg)
    shapes["head.norm.gain"] = (d,)
    shapes["head.norm.bias"] = (d,)
    if cfg.code_agnostic:
        shapes["embed.mag"] = (1, d)
        shapes["embed.syn"] = (1, d)
        shapes["head.fc.w"] = (d, 1)
        shapes["head.fc.b"] = (1,)
    else:
        if code is None:
            raise ValueError(f"variant {cfg.variant.value} needs a code to fix its shapes")
        n, k = code.n, code.k
        shapes["embed.pos"] = (2 * n - k, d)
        shapes["head.fc1.w"] = (d, 1)
        shapes["head.fc1.b"] = (1,)
        shapes["head.fc2.w"] = (2 * n - k, n)
        shapes["head.fc2.b"] = (n,)
    return shapes


def param_count(cfg: ModelConfig, code: Code | None) -> int:
    """Number of trainable scalars."""
    total = 0
    for shape in param_shapes(cfg, code).values():
        size = 1
        for s in shape:
            size *= s
        total += size
    return total


def init_params(
    cfg: ModelConfig,
    code: Code | None,
    seed: int = 0,
    dtype=np.float64,
) -> dict[str, Tensor]:
    """Seeded initialization: weights and embeddings ~ N(0, 1/d), norm gains 1,
    all biases 0. Draw order is fixed (sorted names) for replayability."""
    rng = stream_rng(seed, 0xC0DE)
    std = 1.0 / np.sqrt(cfg.embed_dim)
    params: dict[str, Tensor] = {}
    for name, shape in sorted(param_shapes(cfg, code).items()):
        if name.endswith("norm.gain"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", "norm.bias")):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, std, size=shape)
        params[name] = ad.parameter(data, dtype=dtype)
    return params


def freeze(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """Inference-only view: constants build no computation record."""
    return {k: ad.constant(p.data) for k, p in params.items()}


def _attention(
    q_in: Tensor,
    kv_in: Tensor,
    lp: dict[str, Tensor],
    mask: MaskMatrix,
    cfg: ModelConfig,
    capture: list | None,
) -> Tensor:
    """Masked attention of q_in over kv_in; appends the (…, heads, rows, cols)
    weights to `capture` when one is given."""
    dh = cfg.embed_dim // cfg.heads
    q = ad.scale(ad.matmul(q_in, lp["w_q"]), 1.0 / np.sqrt(dh))  # q, not the (B, r, c) scores: lower peak
    k = ad.matmul(kv_in, lp["w_k"])
    v = ad.matmul(kv_in, lp["w_v"])
    heads = [(q, k, v)] if cfg.heads == 1 else [
        [ad.narrow(t, h * dh, (h + 1) * dh) for t in (q, k, v)] for h in range(cfg.heads)
    ]
    outs = []
    maps = []
    for qh, kh, vh in heads:
        weights = ad.masked_softmax(ad.matmul(qh, ad.transpose(kh)), mask.additive)
        if capture is not None:
            maps.append(weights.data)
        outs.append(ad.matmul(weights, vh))
    if capture is not None:
        capture.append(np.stack(maps, axis=-3))
    return outs[0] if cfg.heads == 1 else ad.concat(outs, axis=-1)


def _attn_input(x: Tensor, lp: dict[str, Tensor]) -> Tensor:
    """What a block's attention reads of x: LN_attn(x) (layers are pre-norm)."""
    return ad.layer_norm(x, lp["attn_norm.gain"], lp["attn_norm.bias"])


def _block(
    x_q: Tensor,
    q_in: Tensor,
    kv_in: Tensor,
    lp: dict[str, Tensor],
    mask: MaskMatrix,
    cfg: ModelConfig,
    capture: list | None,
) -> Tensor:
    """One attention + feed-forward block with residuals on x_q. q_in and
    kv_in are `_attn_input` of the query and key/value streams, computed by
    the caller so that a layer whose blocks share a stream normalizes it once;
    cross-attention when they differ, self-attention otherwise."""
    x = ad.add(x_q, _attention(q_in, kv_in, lp, mask, cfg, capture))
    h = ad.ffn(
        ad.layer_norm(x, lp["ffn_norm.gain"], lp["ffn_norm.bias"]),
        lp["ffn.w1"], lp["ffn.b1"], lp["ffn.w2"], lp["ffn.b2"],
    )
    return ad.add(x, h)


def _layer_params(params: dict[str, Tensor], i: int) -> dict[str, Tensor]:
    prefix = f"layer{i}."
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _embed_tensors(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    mag: np.ndarray,
    syn: np.ndarray,
) -> tuple[Tensor, Tensor]:
    if cfg.code_agnostic:
        w_mag, w_syn = params["embed.mag"], params["embed.syn"]
    else:
        n = mag.shape[-1]
        w_mag = ad.narrow(params["embed.pos"], 0, n, axis=0)
        w_syn = ad.narrow(params["embed.pos"], n, params["embed.pos"].shape[0], axis=0)
    dtype = w_mag.dtype
    mag_col = ad.constant(np.asarray(mag, dtype=dtype)[..., None])
    syn_col = ad.constant(np.asarray(syn, dtype=dtype)[..., None])
    return ad.mul(mag_col, w_mag), ad.mul(syn_col, w_syn)


def crossmpt_layer(
    m_t: Tensor,
    s_t: Tensor,
    lp: dict[str, Tensor],
    masks: tuple[MaskMatrix, MaskMatrix],
    cfg: ModelConfig,
    capture: list | None = None,
) -> tuple[Tensor, Tensor]:
    """One decoding layer: update magnitude from syndrome, then syndrome from
    the updated magnitude. Both blocks share lp, so s_t's attention input is
    computed once: block 1 reads it as keys/values, block 2 as queries. The
    blocks append their maps to `capture` in that order."""
    mask_ht, mask_h = masks
    s_in = _attn_input(s_t, lp)
    m_new = _block(m_t, _attn_input(m_t, lp), s_in, lp, mask_ht, cfg, capture)
    s_new = _block(s_t, s_in, _attn_input(m_new, lp), lp, mask_h, cfg, capture)
    return m_new, s_new


def _cross_stack(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    graph: TannerGraph,
    mag: np.ndarray,
    syn: np.ndarray,
    capture: list | None,
) -> tuple[Tensor, Tensor]:
    """Embed both streams and run the layer stack of every cross-attention variant."""
    m_t, s_t = _embed_tensors(params, cfg, mag, syn)
    for i in range(cfg.n_layers):
        m_t, s_t = crossmpt_layer(m_t, s_t, _layer_params(params, i), graph.cross_masks, cfg, capture)
    return m_t, s_t


def _head_code_specific(params: dict[str, Tensor], x: Tensor) -> Tensor:
    """(…, 2n-k, d) -> (…, n) through norm, shared d->1 FC, then dense FC."""
    x = ad.layer_norm(x, params["head.norm.gain"], params["head.norm.bias"])
    per_pos = ad.add(ad.matmul(x, params["head.fc1.w"]), params["head.fc1.b"])
    row = ad.transpose(per_pos)  # (…, 1, 2n-k)
    out = ad.add(ad.matmul(row, params["head.fc2.w"]), params["head.fc2.b"])
    return _drop_penultimate(out)


def _drop_penultimate(t: Tensor) -> Tensor:
    """(…, 1, n) -> (…, n)."""
    return ad.reshape(t, t.shape[:-2] + (t.shape[-1],))


def _foundation_tower(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    graph: TannerGraph,
    mag: np.ndarray,
    syn: np.ndarray,
    capture: list | None,
) -> Tensor:
    """Run the layer stack, then produce this tower's n x d head contribution:
    norm both streams, resize the syndrome through the PCM transpose, add."""
    m_t, s_t = _cross_stack(params, cfg, graph, mag, syn, capture)
    m_n = ad.layer_norm(m_t, params["head.norm.gain"], params["head.norm.bias"])
    s_n = ad.layer_norm(s_t, params["head.norm.gain"], params["head.norm.bias"])
    ht = ad.constant(graph.ht.astype(m_n.dtype, copy=False))
    return ad.add(m_n, ad.matmul(ht, s_n))


def foundation_logits(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    pcms: Sequence[BinaryMatrix],
    mag: np.ndarray,
    syndromes: Sequence[np.ndarray],
    capture: list | None = None,
) -> Tensor:
    """Shared-weight foundation forward over one or more PCM branches, fused
    by addition before the final shared FC.

    Towers run, and append their attention maps to `capture`, in the order the
    branches are listed. Their contributions are summed in a canonical order
    (sorted by PCM bytes), which makes the result exactly invariant to that
    order.
    """
    if len(syndromes) != len(pcms):
        raise ValueError(f"got {len(syndromes)} syndromes for {len(pcms)} branches")
    contribs = [
        _foundation_tower(params, cfg, tanner_graph(pcm), mag, syn, capture)
        for pcm, syn in zip(pcms, syndromes)
    ]
    order = sorted(range(len(pcms)), key=lambda j: pcms[j].bits.tobytes())
    fused = contribs[order[0]]
    for j in order[1:]:
        fused = ad.add(fused, contribs[j])
    out = ad.add(ad.matmul(fused, params["head.fc.w"]), params["head.fc.b"])
    return _drop_penultimate(ad.transpose(out))


def forward_arrays(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    pcm: BinaryMatrix,
    mag: np.ndarray,
    syn: np.ndarray,
    capture: list | None = None,
) -> Tensor:
    """Logit tensor for magnitude/syndrome arrays of shape (n,)/(n-k,) or
    batched (B, n)/(B, n-k)."""
    if cfg.variant is Variant.FCROSSMPT:
        return foundation_logits(params, cfg, [pcm], mag, [syn], capture)
    graph = tanner_graph(pcm)
    if cfg.variant is Variant.CROSSMPT:
        return _head_code_specific(params, ad.concat(_cross_stack(params, cfg, graph, mag, syn, capture)))
    # self-attention variants
    mask = graph.ecct_mask if cfg.variant is Variant.ECCT else graph.fully_masked_ecct_mask
    x = ad.concat(_embed_tensors(params, cfg, mag, syn))
    for i in range(cfg.n_layers):
        lp = _layer_params(params, i)
        x_in = _attn_input(x, lp)
        x = _block(x, x_in, x_in, lp, mask, cfg, capture)
    return _head_code_specific(params, x)


def decide(y: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Final hard decision, bin(sign(y * noise_estimate)).

    The logit is the multiplicative-noise estimate: the training loss drives
    it positive where no sign flip happened (target 0) and negative where one
    did, so the hard decision flips exactly where the logit is negative.
    Raises FloatingPointError on non-finite logits, which would otherwise
    read as "no flip" and score a diverged decoder as the hard decision.
    """
    y = np.asarray(y)
    logits = np.asarray(logits)
    if y.shape != logits.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {logits.shape}")
    if not np.isfinite(logits).all():
        bad = int((~np.isfinite(logits)).sum())
        raise FloatingPointError(f"{bad} of {logits.size} logits are not finite")
    return (hard_decision(y) ^ (logits < 0)).astype(np.uint8)


class DecoderModel:
    """A config + code + parameter set; masks come from the code's graph.

    infer_only freezes the parameters into constants so forward passes build
    no computation record (fast path for Monte-Carlo evaluation). A
    cross-attention model refuses a code with a bit in no parity check: the
    mask over H^T leaves that bit's query nothing to attend to.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        code: Code,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
        infer_only: bool = False,
    ):
        unchecked = np.flatnonzero(~code.pcm.bits.any(axis=0))
        if cfg.variant in (Variant.CROSSMPT, Variant.FCROSSMPT) and unchecked.size:
            raise ValueError(
                f"bit {unchecked[0]} of {code.name} is in no parity check, so "
                f"{cfg.variant.value} cross-attention cannot decode it"
            )
        self.cfg = cfg
        self.code = code
        self.params = params if params is not None else init_params(cfg, code, seed)
        if infer_only:
            self.params = freeze(self.params)

    @staticmethod
    def check_ebn0(ebn0_db: float) -> None:
        """Raise ValueError at -inf dB, where every magnitude |y| is infinite
        and layer norm's mean is not finite."""
        if ebn0_db == -np.inf:
            raise ValueError("a neural decoder needs Eb/N0 above -inf dB (its magnitudes |y| are infinite there)")

    def logits(self, mag: np.ndarray, syndromes: Sequence[np.ndarray], capture=None) -> Tensor:
        """Logits from the magnitudes and one syndrome array per PCM of the code;
        a code-agnostic model runs one weight-shared tower per PCM."""
        if self.cfg.code_agnostic:
            return foundation_logits(self.params, self.cfg, self.code.pcms, mag, syndromes, capture)
        return forward_arrays(self.params, self.cfg, self.code.pcm, mag, syndromes[0], capture)

    def logits_batch(self, mag: np.ndarray, syn: np.ndarray) -> Tensor:
        """`logits` of a code with one PCM, from its one syndrome array."""
        return self.logits(mag, [syn])

    def decode_batch(self, batch: BatchSample) -> np.ndarray:
        """Hard decisions for a batch, decoded in row slices on this process's
        share of the cores; the logits are bitwise those of one pass."""
        syn = batch.syndromes
        logits = split_rows(lambda r: self.logits(batch.mag[r], [s[r] for s in syn]).data, len(batch))
        return decide(batch.y, logits)

    def param_count(self) -> int:
        return param_count(self.cfg, self.code)
