"""One Tanner graph per parity-check matrix, shared by every consumer of PCM
structure.

`tanner_graph(h)` is the only place a graph is built, and it builds each
distinct PCM's graph once per process. The graph holds the edge list and the
padded per-node tables that belief propagation reads, H^T as reals for the
syndrome products and the foundation head, and the additive attention masks,
each built on first use.

Masked positions carry -inf so that softmax assigns them weight exactly 0;
unmasked positions carry 0. Cross-attention decoders use the PCM and its
transpose directly; self-attention decoders use the depth-2 connectivity mask.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .gf2 import BinaryMatrix, mod2_product

NEG_INF = -np.inf

__all__ = [
    "NEG_INF",
    "MaskMatrix",
    "TannerGraph",
    "tanner_graph",
    "build_crossmpt_masks",
    "build_ecct_mask",
    "build_fully_masked_ecct_mask",
]


class MaskMatrix:
    """Additive attention mask: 0 where attention is allowed, -inf where not."""

    __slots__ = ("additive", "support")

    def __init__(self, support: np.ndarray) -> None:
        support = np.array(support, dtype=bool, order="C")
        if support.ndim != 2:
            raise ValueError("MaskMatrix requires a 2-D support array")
        additive = np.where(support, 0.0, NEG_INF)
        additive.setflags(write=False)
        support.setflags(write=False)
        self.additive = additive
        self.support = support

    @property
    def shape(self) -> tuple[int, int]:
        return self.support.shape

    def unmasked_count(self) -> int:
        return int(self.support.sum())

    @property
    def density(self) -> float:
        """Fraction of unmasked entries."""
        return self.unmasked_count() / self.support.size


class TannerGraph:
    """Bipartite adjacency of a PCM: padded edge-index tables for vectorized
    message passing, H^T as reals, and the attention masks built on demand.
    Get one through `tanner_graph(h)`."""

    def __init__(self, h: BinaryMatrix):
        self.h = h
        self.m, self.n = h.shape
        # H^T as float64 in the transposed layout of h.bits, for exact BLAS
        # syndrome products and the foundation head's resize
        self.ht = h.bits.T.astype(np.float64)
        self.ht.setflags(write=False)
        checks, vars_ = np.nonzero(h.bits)
        self.check_of_edge = checks.astype(np.int64)
        self.var_of_edge = vars_.astype(np.int64)
        self.n_edges = len(checks)
        if self.n_edges != h.popcount():
            raise AssertionError("edge count mismatch")
        # check tables are slot-major, (dmax, m), so that the extrinsic
        # products and minima run over one whole (B, m) slot at a time
        self._cn_edges, self._cn_pad = (t.T.copy() for t in _padded_groups(self.check_of_edge, self.m))
        # flat slot-major position of each edge, to gather check messages
        self._cn_slot = np.empty(self.n_edges, dtype=np.int64)
        self._cn_slot[self._cn_edges[~self._cn_pad]] = np.flatnonzero(~self._cn_pad)
        self._vn_edges, self._vn_pad = _padded_groups(self.var_of_edge, self.n)

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """H @ bits mod 2, batched over leading axes."""
        return mod2_product(bits, self.ht)

    @cached_property
    def cross_masks(self) -> tuple[MaskMatrix, MaskMatrix]:
        """(mask over H^T for the magnitude-query block, mask over H for the
        syndrome-query block). Both have exactly popcount(H) unmasked entries."""
        return MaskMatrix(self.h.bits.T), MaskMatrix(self.h.bits)

    @cached_property
    def ecct_mask(self) -> MaskMatrix:
        """Self-attention mask over the concatenated magnitude+syndrome sequence.

        Magnitude-magnitude entries are unmasked when the two bit positions
        share at least one check row (depth-2 connectivity), magnitude-syndrome
        entries follow the PCM, syndrome-syndrome entries are unmasked only on
        the diagonal. The full diagonal is unmasked and the mask is symmetric.
        """
        support = self._cross_blocks_and_diagonal()
        support[: self.n, : self.n] |= (self.ht @ self.ht.T) > 0
        return MaskMatrix(support)

    @cached_property
    def fully_masked_ecct_mask(self) -> MaskMatrix:
        """ECCT mask with every off-diagonal magnitude-magnitude and
        syndrome-syndrome position additionally masked.

        What remains is the two PCM-defined cross blocks plus the diagonal.
        """
        return MaskMatrix(self._cross_blocks_and_diagonal())

    def _cross_blocks_and_diagonal(self) -> np.ndarray:
        n = self.n
        support = np.eye(n + self.m, dtype=bool)
        support[:n, n:] = self.h.bits.T
        support[n:, :n] = self.h.bits
        return support


@cache
def tanner_graph(h: BinaryMatrix) -> TannerGraph:
    """The graph of h, built once per distinct PCM (BinaryMatrix is immutable
    and hashes by value, so equal PCMs share one graph)."""
    return TannerGraph(h)


def _padded_groups(owner: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge indices grouped by owner in edge order, padded to the max degree.

    Returns (table (groups, dmax) of edge indices, pad mask (True where
    padding)). Padded slots point at edge 0 and are neutralized by callers.
    """
    degs = np.bincount(owner, minlength=groups)
    dmax = int(degs.max()) if len(degs) else 0
    order = np.argsort(owner, kind="stable")
    group = owner[order]
    slot = np.arange(len(owner)) - (np.cumsum(degs) - degs)[group]
    table = np.zeros((groups, dmax), dtype=np.int64)
    pad = np.ones((groups, dmax), dtype=bool)
    table[group, slot] = order
    pad[group, slot] = False
    return table, pad


def build_crossmpt_masks(h: BinaryMatrix) -> tuple[MaskMatrix, MaskMatrix]:
    """The two cross-attention masks of a PCM; see TannerGraph.cross_masks."""
    return tanner_graph(h).cross_masks


def build_ecct_mask(h: BinaryMatrix) -> MaskMatrix:
    """The ECCT self-attention mask of a PCM; see TannerGraph.ecct_mask."""
    return tanner_graph(h).ecct_mask


def build_fully_masked_ecct_mask(h: BinaryMatrix) -> MaskMatrix:
    """The fully masked ECCT mask of a PCM; see TannerGraph.fully_masked_ecct_mask."""
    return tanner_graph(h).fully_masked_ecct_mask
