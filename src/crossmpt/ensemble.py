"""Parallel ensemble decoding: p weight-shared foundation towers, each with a
different PCM mask, fused by addition at the output layer.

For cyclic codes the branch PCMs are the systematic PCM and its cyclic column
shifts (complementary PCMs), whose identity blocks tile distinct bit ranges.
Non-cyclic codes fall back to best-effort diagonalization at each window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autodiff import Tensor
from .channel import BatchSample
from .codes import Code
from .gf2 import BinaryMatrix, complementary_pcm, diagonalize_at, systematic_form
from .masks import MaskMatrix, build_crossmpt_masks
from .models import DecoderModel, ModelConfig, Variant, decide, foundation_logits

__all__ = ["EnsembleConfig", "build_ensemble", "coverage_report", "crossed_forward", "CrossEDModel"]


@dataclass(frozen=True)
class EnsembleConfig:
    """p branch PCMs over one code plus the shared foundation architecture."""

    code: Code
    base: ModelConfig
    pcms: tuple[BinaryMatrix, ...]

    def __post_init__(self):
        if not self.base.code_agnostic:
            raise ValueError("ensemble decoding requires a code-agnostic base variant")
        if len(self.pcms) < 1:
            raise ValueError("at least one branch PCM required")

    @property
    def p(self) -> int:
        return len(self.pcms)

    @cached_property
    def branch_masks(self) -> tuple[tuple[MaskMatrix, MaskMatrix], ...]:
        """The cross-attention masks of every branch PCM, built once per config."""
        return tuple(build_crossmpt_masks(h) for h in self.pcms)

    def branch_code(self) -> Code:
        """The code with its PCM list replaced by the branch PCMs, so channel
        sampling yields one syndrome per branch."""
        return self.code.with_pcms(list(self.pcms))


def build_ensemble(
    code: Code,
    p: int,
    base: ModelConfig | None = None,
) -> EnsembleConfig:
    """Construct the branch PCM list [H_sys, H_c^1, ..., H_c^(p-1)].

    Cyclic codes use exact cyclic column shifts; other codes fall back to
    diagonalizing each shifted window as far as row operations allow. p may
    not exceed ceil(n/(n-k)) for the shift construction.
    """
    m = code.n - code.k
    limit = -(-code.n // m)
    if not 1 <= p <= limit:
        raise ValueError(f"p={p} outside 1..{limit} for an ({code.n},{code.k}) code")
    h_sys = systematic_form(code.pcm)
    pcms = [h_sys]
    for shift in range(1, p):
        if code.cyclic:
            pcms.append(complementary_pcm(h_sys, shift))
        else:
            reduced, _ = diagonalize_at(code.pcm, (shift * m) % code.n)
            pcms.append(reduced)
    if base is None:
        base = ModelConfig(variant=Variant.FCROSSMPT, n_layers=2, embed_dim=32)
    return EnsembleConfig(code=code, base=base, pcms=tuple(pcms))


def coverage_report(ens: EnsembleConfig) -> list[list[int]]:
    """Per bit position, the branches whose PCM covers it with an identity
    column (a weight-1 column)."""
    cover: list[list[int]] = [[] for _ in range(ens.code.n)]
    for b, pcm in enumerate(ens.pcms):
        weights = pcm.bits.sum(axis=0)
        for j in np.nonzero(weights == 1)[0]:
            cover[int(j)].append(b)
    return cover


def crossed_forward(
    params: dict[str, Tensor],
    ens: EnsembleConfig,
    mag: np.ndarray,
    syndromes: list[np.ndarray],
    capture: list | None = None,
) -> Tensor:
    """Logits from p parallel towers with shared weights and addition fusion.

    syndromes[j] must be computed against ens.pcms[j]. The fused sum is
    reduced in a canonical branch order, so logits are exactly invariant to
    permutations of the branch list.
    """
    if len(syndromes) != ens.p:
        raise ValueError(f"got {len(syndromes)} syndromes for {ens.p} branches")
    return foundation_logits(params, ens.base, ens.branch_masks, mag, list(syndromes), capture)


class CrossEDModel(DecoderModel):
    """Ensemble decoder: a foundation DecoderModel over the branch code, whose
    forward runs one weight-shared tower per branch PCM."""

    def __init__(
        self,
        ens: EnsembleConfig,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
        dtype=np.float64,
        infer_only: bool = False,
    ):
        super().__init__(ens.base, ens.branch_code(), params, seed, dtype, infer_only)
        self.ens = ens

    def logits_batch(self, mag: np.ndarray, syndromes: list[np.ndarray], capture=None) -> Tensor:
        return crossed_forward(self.params, self.ens, mag, syndromes, capture)

    def decode_batch(self, batch: BatchSample) -> np.ndarray:
        logits = self.logits_batch(batch.mag, list(batch.syndromes))
        return decide(batch.y, logits.data)
