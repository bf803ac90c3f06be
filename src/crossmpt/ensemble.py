"""Parallel ensemble decoding: p weight-shared foundation towers, each with a
different PCM mask, fused by addition at the output layer.

The branch PCMs are the systematic PCM and its complementary PCMs, whose
identity blocks tile distinct bit ranges: branch b is the reduced row-echelon
form with pivots scanned from column b(n-k). For a cyclic code this equals the
cyclic column shift of [I | P]; for any other code it is the best-effort
diagonalization at that window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .codes import Code
from .gf2 import BinaryMatrix, rref
from .models import DecoderModel, ModelConfig, Variant, foundation_logits

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

    Branch b diagonalizes the window starting at column b(n-k) as far as row
    operations allow; for a cyclic code that is exactly the cyclic column
    shift of the systematic PCM. p may not exceed ceil(n/(n-k)).
    """
    m = code.n - code.k
    limit = -(-code.n // m)
    if not 1 <= p <= limit:
        raise ValueError(f"p={p} outside 1..{limit} for an ({code.n},{code.k}) code")
    pcms = [BinaryMatrix(rref(code.pcm, start=(b * m) % code.n)[0]) for b in range(p)]
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
    return foundation_logits(params, ens.base, ens.pcms, mag, syndromes, capture)


class CrossEDModel(DecoderModel):
    """Ensemble decoder: the foundation DecoderModel over the branch code, which
    runs one weight-shared tower per branch PCM."""

    def __init__(
        self,
        ens: EnsembleConfig,
        params: dict[str, Tensor] | None = None,
        seed: int = 0,
        infer_only: bool = False,
    ):
        super().__init__(ens.base, ens.branch_code(), params, seed, infer_only)
        self.ens = ens

    logits_batch = DecoderModel.logits
